"""Seeded request stream for the twisted-q workload, in plain Fractions.

Each request is a small entwining (A, C, psi) from the gallery moved
to a fresh basis: an invertible small-integer S acts on A and T on C,

    mult' = S.mult.(S^-1 (x) S^-1)     unit'   = S.unit
    comult' = (T (x) T).comult.T^-1    counit' = counit.T^-1
    psi' = (S (x) T).psi.(T^-1 (x) S^-1)

which is an isomorphic entwining, so every axiom holds.  |det| = 2
makes the inverses non-integral, so the data is dense and fractional.
A seeded minority of requests adds a bump to one entry of psi' in a row
whose coalgebra index has nonzero counit; that breaks E4, the counit
triangle.  Known answers come from this construction, never from the
code under test: nothing here imports ``entwine``.

Matrices are lists of rows under the row-major Kronecker convention
kron(f, g)[i*rg + j][k*cg + l] = f[i][k] * g[j][l].
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

ZERO, ONE = Fraction(0), Fraction(1)


# -- plain Fraction linear algebra ------------------------------------------


def matmul(f, g):
    gt = list(zip(*g))
    return [[sum((a * b for a, b in zip(row, col) if a and b), ZERO)
             for col in gt] for row in f]


def kron(f, g):
    return [[a * b for a in frow for b in grow]
            for frow in f for grow in g]


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def inverse_and_det(m):
    """(m^-1, det m) by Gauss-Jordan; (None, 0) when m is singular."""
    n = len(m)
    rows = [list(r) + e for r, e in zip(m, identity(n))]
    det = ONE
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return None, ZERO
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        p = rows[c][c]
        det *= p
        rows[c] = [x / p for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                fac = rows[i][c]
                rows[i] = [x - fac * y for x, y in zip(rows[i], rows[c])]
    return [r[n:] for r in rows], det


# -- the gallery shapes -------------------------------------------------------


def group_algebra(n):
    """k[C_n]: g^i g^j = g^(i+j mod n), unit g^0."""
    mult = [[ONE if (ij // n + ij % n) % n == k else ZERO
             for ij in range(n * n)] for k in range(n)]
    unit = [[ONE if k == 0 else ZERO] for k in range(n)]
    return mult, unit


def grouplike_coalgebra(n):
    """delta(g_i) = g_i (x) g_i, eps(g_i) = 1."""
    comult = [[ONE if r == i * n + i else ZERO for i in range(n)]
              for r in range(n * n)]
    return comult, [[ONE] * n]


def matrix_coalgebra(n):
    """delta(e_ij) = sum_k e_ik (x) e_kj, eps(e_ij) = [i == j]."""
    d = n * n
    comult = [[ZERO] * d for _ in range(d * d)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                comult[(i * n + k) * d + (k * n + j)][i * n + j] = ONE
    counit = [[ONE if c % n == c // n else ZERO for c in range(d)]]
    return comult, counit


def flip_psi(a, c):
    """c (x) x -> x (x) c."""
    psi = [[ZERO] * (c * a) for _ in range(a * c)]
    for i in range(a):
        for j in range(c):
            psi[i * c + j][j * a + i] = ONE
    return psi


def bialgebra_psi(n):
    """k[C_n] with grouplikes: g_i (x) g_j -> g_j (x) g_(i+j)."""
    psi = [[ZERO] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            psi[j * n + (i + j) % n][i * n + j] = ONE
    return psi


def _shape(alg, coalg, psi):
    mult, unit = alg
    comult, counit = coalg
    return {"mult": mult, "unit": unit, "comult": comult, "counit": counit,
            "psi": psi}


SHAPES = {
    "flip_kC2_gl2": lambda: _shape(group_algebra(2), grouplike_coalgebra(2),
                                   flip_psi(2, 2)),
    "bialg_C2": lambda: _shape(group_algebra(2), grouplike_coalgebra(2),
                               bialgebra_psi(2)),
    "flip_kC3_gl2": lambda: _shape(group_algebra(3), grouplike_coalgebra(2),
                                   flip_psi(3, 2)),
    "flip_kC2_mc2": lambda: _shape(group_algebra(2), matrix_coalgebra(2),
                                   flip_psi(2, 4)),
}

# One batch of 50 requests: PASS_MIX plain and BUMPED_MIX bumped, in
# seeded order.  The fixed mix keeps the latency quantiles of every
# batch comparable: the median falls among the 2-dimensional shapes,
# and in two batches the ten slowest are the two flip(kC2,mc2) and eight
# of the twenty flip(kC3,gl2), so the 90th percentile falls near the
# middle of the flip(kC3,gl2) class.  bialg(C3) is left out: coefficient
# growth makes one request cost 6-12 s.
PASS_MIX = {"flip_kC2_gl2": 17, "bialg_C2": 17, "flip_kC3_gl2": 10,
            "flip_kC2_mc2": 1}
BUMPED_MIX = {"flip_kC2_gl2": 2, "bialg_C2": 2, "flip_kC3_gl2": 1,
              "flip_kC2_mc2": 0}


# -- requests -----------------------------------------------------------------


def random_basis_change(rng, n):
    """An n x n integer matrix in [-2, 2] with |det| = 2, and its inverse.

    Fixing |det| keeps the size of the fractions, and so the cost of a
    request, about the same from one seed to the next.
    """
    while True:
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
             for _ in range(n)]
        inv, det = inverse_and_det(m)
        if abs(det) == 2:
            return m, inv


def twist(shape, s, s_inv, t, t_inv):
    return {
        "mult": matmul(matmul(s, shape["mult"]), kron(s_inv, s_inv)),
        "unit": matmul(s, shape["unit"]),
        "comult": matmul(matmul(kron(t, t), shape["comult"]), t_inv),
        "counit": matmul(shape["counit"], t_inv),
        "psi": matmul(matmul(kron(s, t), shape["psi"]), kron(t_inv, s_inv)),
    }


def bump_e4(rng, data):
    """Add a nonzero amount to psi[i*c + j][k] with counit[j] != 0."""
    a, c = len(data["unit"]), len(data["counit"][0])
    j = rng.choice([j for j in range(c) if data["counit"][0][j]])
    i, k = rng.randrange(a), rng.randrange(a * c)
    delta = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
    psi = [list(row) for row in data["psi"]]
    psi[i * c + j][k] += delta
    return dict(data, psi=psi)


def workspace_text(data) -> str:
    """The canonical workspace JSON (sorted keys, two-space indent)."""
    def mat(m):
        return [[str(x) for x in row] for row in m]

    a, c = len(data["unit"]), len(data["counit"][0])
    doc = {
        "algebras": {"A": {"dim": a, "mult": mat(data["mult"]),
                           "unit": mat(data["unit"])}},
        "coalgebras": {"C": {"dim": c, "comult": mat(data["comult"]),
                             "counit": mat(data["counit"])}},
        "entwinings": {"e": {"algebra": "A", "coalgebra": "C",
                             "psi": mat(data["psi"])}},
        "field": {"kind": "rational"},
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class Stream:
    """Batches of requests drawn from one seed; no request repeats."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.seen = set()
        self.bases = {name: make() for name, make in SHAPES.items()}

    def request(self, name, bumped):
        base = self.bases[name]
        a, c = len(base["unit"]), len(base["counit"][0])
        while True:
            s, s_inv = random_basis_change(self.rng, a)
            t, t_inv = random_basis_change(self.rng, c)
            key = (name, str(s), str(t))
            if key not in self.seen:
                self.seen.add(key)
                break
        data = twist(base, s, s_inv, t, t_inv)
        if bumped:
            data = bump_e4(self.rng, data)
        return {"shape": name, "text": workspace_text(data),
                "expect": "FAIL" if bumped else "PASS",
                "dims": [a * c, a * c * c]}

    def batch(self):
        """One batch of request dicts: shape, text, known answer, dims."""
        plan = [(name, False) for name, k in sorted(PASS_MIX.items())
                for _ in range(k)]
        plan += [(name, True) for name, k in sorted(BUMPED_MIX.items())
                 for _ in range(k)]
        self.rng.shuffle(plan)
        return [self.request(name, bumped) for name, bumped in plan]
