"""Tensor products over an algebra as deterministic quotient presentations.

M (x)_A N is presented by a projection and its free coordinates, computed
from the row reduction of the balancing relations.  A map on the ambient
descends to the quotient (``descend``) only when it kills the relations --
attempting otherwise raises DoesNotFactor, which downstream code treats as
a meaningful semantic signal, not a crash.
"""

from entwine import (DoesNotFactor, Matrix, QQ, compose, descend,
                     group_algebra, tensor_over, unit_coherence)

a = group_algebra(QQ, 2)
print("=== A (x)_A A for A = k[C2] ===\n")
q = tensor_over(a.mult, a.mult, 2, a.unit, 2)
print(f"ambient dim {q.ambient_dim}, quotient dim {q.quotient_dim}")
print("projection =")
for row in q.projection.entries:
    print("   ", [str(x) for x in row])
print("(the relations g^i g (x) g^j ~ g^i (x) g g^j cut the dimension",
      "from 4 to 2)")

print("\n=== The sign module collapses further ===\n")
sign = Matrix(QQ, [[1, -1]])  # g acts by -1 on a 1-dim space
qs = tensor_over(a.mult, sign, 2, a.unit, 1)
print(f"A (x)_A sign: ambient {qs.ambient_dim} -> quotient "
      f"{qs.quotient_dim}")

print("\n=== Unit coherence A (x)_A A ~ A ===\n")
u = unit_coherence(q, a.mult)
print("iso induced by multiplication:")
for row in u.entries:
    print("   ", [str(x) for x in row])

print("\n=== Maps that do not balance are refused ===\n")
try:
    descend(Matrix.identity(QQ, 4), q, 4)
except DoesNotFactor as exc:
    print(f"identity on the ambient: DoesNotFactor ({exc})")
print("multiplication itself balances:")
g = descend(a.mult, q, a.mult.rows)
print(f"    induced map has shape {g.shape} and "
      f"g . projection = mult: {compose(g, q.projection) == a.mult}")
