"""Structure-constant presentations of algebras, coalgebras and bimodules.

A structure map is stored as the full matrix of the corresponding linear
map (multiplication as an n x n^2 matrix, etc.), so every axiom below is
a single compose/kron equality checked exactly.  Unitors are identities: the
ground field k is the 1-dimensional space and k (x) X is identified with
X by the flat index convention of :mod:`entwine.exactlin`.  Every checker
is its list of squares, and ``_check_squares`` turns it into its report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import (DimensionMismatch, DoesNotFactor, InvalidParameter,
                     NotABialgebra, NotInvertible)
from .exactlin import FieldSpec, Matrix, compose, expect_shapes, flip, kron


@dataclass(frozen=True)
class Failure:
    """One failed axiom: both sides and where they first differ."""

    axiom: str
    lhs: Optional[Matrix] = None
    rhs: Optional[Matrix] = None
    coord: Optional[Tuple[int, int]] = None

    def __str__(self):
        if self.coord is None:
            return self.axiom
        return f"{self.axiom} at {self.coord}"


@dataclass(frozen=True)
class CheckReport:
    failures: Tuple[Failure, ...]
    axioms: Tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def __str__(self):
        if self.passed:
            return "all axioms hold"
        return "; ".join(str(f) for f in self.failures)


def _check_squares(*squares) -> CheckReport:
    """The report on ``squares``, each ``(axiom, lhs, rhs)`` or a deferred
    ``(axiom, sides)``: ``sides()`` returns lhs and rhs, and if it cannot
    factor or invert, the square fails as ``axiom (message)``."""
    failures, axioms = [], []
    for axiom, *sides in squares:
        try:
            lhs, rhs = sides if len(sides) == 2 else sides[0]()
        except (DoesNotFactor, NotInvertible) as exc:
            axioms.append(f"{axiom} ({exc})")
            failures.append(Failure(axioms[-1]))
            continue
        axioms.append(axiom)
        diff = lhs.first_difference(rhs)
        if diff is not None:
            failures.append(Failure(axiom, lhs, rhs, diff))
    return CheckReport(tuple(failures), tuple(axioms))


@dataclass(frozen=True)
class Algebra:
    """Associative unital algebra: mult is n x n^2, unit is n x 1."""

    dim: int
    mult: Matrix
    unit: Matrix

    def __post_init__(self):
        n = self.dim
        expect_shapes(self, f"algebra of dim {n}", mult=(n, n * n),
                      unit=(n, 1))

    @property
    def field(self) -> FieldSpec:
        return self.mult.field


@dataclass(frozen=True)
class Coalgebra:
    """Coassociative counital coalgebra: comult n^2 x n, counit 1 x n."""

    dim: int
    comult: Matrix
    counit: Matrix

    def __post_init__(self):
        n = self.dim
        expect_shapes(self, f"coalgebra of dim {n}", comult=(n * n, n),
                      counit=(1, n))

    @property
    def field(self) -> FieldSpec:
        return self.comult.field


@dataclass(frozen=True)
class Bimodule:
    """B-A-bimodule: lact is m x (dim B * m), ract is m x (m * dim A)."""

    left: Algebra
    right: Algebra
    dim: int
    lact: Matrix
    ract: Matrix

    def __post_init__(self):
        m, b, a = self.dim, self.left.dim, self.right.dim
        expect_shapes(self, f"bimodule of dim {m}", lact=(m, b * m),
                      ract=(m, m * a))

    @property
    def field(self) -> FieldSpec:
        return self.lact.field


def check_algebra(a: Algebra) -> CheckReport:
    n = a.dim
    ident = Matrix.identity(a.field, n)
    return _check_squares(
        ("associativity", compose(a.mult, kron(a.mult, n)),
         compose(a.mult, kron(n, a.mult))),
        ("left unit", compose(a.mult, kron(a.unit, n)), ident),
        ("right unit", compose(a.mult, kron(n, a.unit)), ident))


def check_coalgebra(c: Coalgebra) -> CheckReport:
    n = c.dim
    ident = Matrix.identity(c.field, n)
    return _check_squares(
        ("coassociativity", compose(kron(c.comult, n), c.comult),
         compose(kron(n, c.comult), c.comult)),
        ("left counit", compose(kron(c.counit, n), c.comult), ident),
        ("right counit", compose(kron(n, c.counit), c.comult), ident))


def group_algebra(field: FieldSpec, n: int) -> Algebra:
    """k[C_n] with basis g^0..g^(n-1), multiplication by index addition."""
    if n < 1:
        raise InvalidParameter("group_algebra needs n >= 1")
    mult = Matrix.build(
        field, n, n * n,
        lambda k_, ij: 1 if (ij // n + ij % n) % n == k_ else 0)
    unit = Matrix.build(field, n, 1, lambda i, _: 1 if i == 0 else 0)
    return Algebra(n, mult, unit)


def grouplike_coalgebra(field: FieldSpec, n: int) -> Coalgebra:
    """All basis vectors grouplike: delta(e_i) = e_i (x) e_i, eps = 1."""
    if n < 1:
        raise InvalidParameter("grouplike_coalgebra needs n >= 1")
    comult = Matrix.build(field, n * n, n,
                          lambda r, i: 1 if r == i * n + i else 0)
    counit = Matrix.build(field, 1, n, lambda _, __: 1)
    return Coalgebra(n, comult, counit)


def bialgebra_compatibility(a: Algebra, c: Coalgebra) -> CheckReport:
    """Delta and eps are algebra maps for the pair (a, c) on one carrier."""
    if a.dim != c.dim or a.field != c.field:
        raise DimensionMismatch("bialgebra pair must share one carrier")
    n = a.dim
    field = a.field
    tau = flip(field, n, n)
    return _check_squares(
        ("comult is an algebra map", compose(c.comult, a.mult),
         compose(kron(a.mult, a.mult), kron(n, kron(tau, n)),
                 kron(c.comult, c.comult))),
        ("counit is an algebra map",
         compose(c.counit, a.mult), kron(c.counit, c.counit)),
        ("comult of unit", compose(c.comult, a.unit), kron(a.unit, a.unit)),
        ("counit of unit",
         compose(c.counit, a.unit), Matrix.identity(field, 1)))


def cyclic_group_bialgebra(field: FieldSpec, n: int):
    """(k[C_n], grouplikes) -- compatibility verified at construction."""
    a = group_algebra(field, n)
    c = grouplike_coalgebra(field, n)
    rep = bialgebra_compatibility(a, c)
    if not rep.passed:
        raise NotABialgebra(str(rep))
    return a, c


def matrix_algebra(field: FieldSpec, n: int) -> Algebra:
    """n x n matrix units, e_ij e_kl = [j == k] e_il, dim n^2."""
    if n < 1:
        raise InvalidParameter("matrix_algebra needs n >= 1")
    d = n * n
    ent = [[0] * (d * d) for _ in range(d)]
    for i in range(n):
        for j in range(n):
            for l in range(n):
                # e_ij . e_jl = e_il
                ent[i * n + l][(i * n + j) * d + (j * n + l)] = 1
    mult = Matrix(field, ent)
    unit = Matrix.build(field, d, 1, lambda r, _: 1 if r % n == r // n else 0)
    return Algebra(d, mult, unit)


def matrix_coalgebra(field: FieldSpec, n: int) -> Coalgebra:
    """The dual of ``matrix_algebra``: delta(e_ij) = sum_k e_ik (x) e_kj,
    eps(e_ij) = [i == j]."""
    if n < 1:
        raise InvalidParameter("matrix_coalgebra needs n >= 1")
    return dualize_algebra(matrix_algebra(field, n))


def dualize_algebra(a: Algebra) -> Coalgebra:
    return Coalgebra(a.dim, a.mult.transpose(), a.unit.transpose())


def regular_bimodule(a: Algebra) -> Bimodule:
    """A as an A-A-bimodule, both actions the multiplication."""
    return Bimodule(a, a, a.dim, a.mult, a.mult)
