"""comc as a homomorphism of bicategories, checked law by law.

Compositors compare comc of a composite against the composite of the
images, unitor comparisons handle identities, and the 2-cell functor is
exactly injective -- but, as the hom-space dimension report shows, not
surjective.
"""

from entwine import (Matrix, QQ, check_cor_two_cell, compositor,
                     flip_entwining, group_algebra, grouplike_coalgebra,
                     hom_dimension_report, inverse, morphism_one_cell,
                     unitor_comparison)
from entwine.cli import Report, build_gallery, laws_pseudofunctor

e = flip_entwining(group_algebra(QQ, 2), grouplike_coalgebra(QQ, 2))
swap = Matrix(QQ, [[0, 1], [1, 0]])
f = morphism_one_cell(e, e, Matrix.identity(QQ, 2), swap)

print("=== Compositor for the swap cell with itself ===\n")
c2 = compositor(f, f)
print(f"comc(f . f) and comc(f) . comc(f) compared by a "
      f"{c2.map.shape} map")
print(f"invertible: {inverse(c2.map) is not None}")
print(f"valid coring 2-cell: {check_cor_two_cell(c2).passed}")

print("\n=== Unitor comparison ===\n")
u = unitor_comparison(e)
print(f"comc(identity cell) vs identity coring cell: map = identity "
      f"{u.map.shape}, valid: {check_cor_two_cell(u).passed}")

print("\n=== Injective, but not surjective ===\n")
de, dc, inj, surj = hom_dimension_report(f, f)
print(f"2-cells f => f upstairs: dim {de}")
print(f"2-cells comc(f) => comc(f) downstairs: dim {dc}")
print(f"theta |-> theta (x) A is injective: {inj}, surjective: {surj}")

print("\n=== The full pseudofunctor law suite on the gallery ===\n")
ws = build_gallery(QQ)
import io
buf = io.StringIO()
report = Report(buf)
laws_pseudofunctor(ws, report)
lines = buf.getvalue().splitlines()
print(f"{len(lines)} law checks, "
      f"{sum(' PASS' in l for l in lines)} pass, "
      f"{sum(' FAIL' in l for l in lines)} fail")
for line in lines[:5]:
    print("   ", line)
print("    ...")
