"""From an entwining to its composed coring, and why the quotient matters.

comc sends (A, C, psi) to the A-coring A (x) C whose right action is
twisted by psi, and a 1-cell (M, alpha, gamma) to M (x) A with a
structure map zeta obtained by factoring an auxiliary map through the
tensor-over-B quotient.  The punchline demonstrated at the end: the
auxiliary map balances the middle B only after the target is itself
projected to its tensor-over-A quotient -- truncating that final step
breaks the equality of the two defining chains.
"""

from entwine import (QQ, bialgebra_entwining, check_cor_one_cell,
                     check_coring, comc_obj, comc_one_cell, composed_carrier,
                     compose, cyclic_group_bialgebra, identity_one_cell,
                     kron, wtensor, zeta_ambient)

e = bialgebra_entwining(cyclic_group_bialgebra(QQ, 2))
print("=== The composed coring of the C2 bialgebra entwining ===\n")
cor = comc_obj(e)
print(f"base k[C2] (dim 2), carrier A (x) C (dim {cor.carrier.dim})")
rep = check_coring(cor)
print(f"coring axioms: {'all pass' if rep.passed else rep}")
print("\nright action is twisted by psi:"
      " (g^i (x) g^j) . g^k = g^(i+k) (x) g^(j+k)")
for src in range(8):
    ij, k = divmod(src, 2)
    i, j = divmod(ij, 2)
    col = cor.carrier.ract.column(src)
    dst = next(r for r in range(4) if col[r, 0])
    print(f"    (g^{i} (x) g^{j}) . g^{k} = g^{dst // 2} (x) g^{dst % 2}")

print("\n=== comc on the identity 1-cell ===\n")
f = identity_one_cell(e)
cell = comc_one_cell(f)
rep = check_cor_one_cell(cell)
print(f"carrier M (x) A has dim {cell.carrier.dim}; "
      f"Street pentagon and counit law: "
      f"{'pass' if rep.passed else rep}")

print("\n=== Why the final projection is essential ===\n")
a = e.algebra
# (an int factor of kron is the identity of that dimension)
# the middle copy of B = A can act on M (x) A ...
head1 = compose(kron(4, a.mult), kron(4, kron(f.alpha, 2)))
# ... or be absorbed into B (x) D through psi
head2 = compose(kron(a.mult, 4), kron(2, kron(e.psi, 2)))
zbar = zeta_ambient(f)
raw1, raw2 = compose(zbar, head1), compose(zbar, head2)
print(f"truncated chains equal: {head1 == head2}")
print(f"chains through zeta-bar only: {raw1 == raw2}")
nu2 = wtensor(composed_carrier(f), cor.carrier).outer.projection
prj1, prj2 = compose(nu2, raw1), compose(nu2, raw2)
print(f"chains through zeta-bar then the target quotient: {prj1 == prj2}")
print("\nSo zeta is defined by factoring (projection . zeta-bar), and the")
print("factorization check is exactly where the 1-cell axioms get used.")
