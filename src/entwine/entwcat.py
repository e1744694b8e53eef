"""The bicategory of entwinings: cells, compositions, exact checkers.

0-cells are entwinings (A, C, psi) over the session field, 1-cells are
triples (M, alpha, gamma), 2-cells are equivariant maps theta.  All
ground rings coincide with the field k, so unitors and associators of
the underlying bimodule bicategory are identities and every coherence check
reduces to an exact matrix equality.
"""

from __future__ import annotations

from .algstruct import (Algebra, Coalgebra, CheckReport, _check_squares,
                        bialgebra_compatibility)
from .errors import (DimensionMismatch, NotABialgebra, NotAMorphism,
                     NotComposable, NotParallel)
from .exactlin import (FieldSpec, Matrix, Record, compose, expect_shapes,
                       flip, kron, memoised)


class EntwObj(Record):
    """An entwining psi : C (x) A -> A (x) C."""

    __slots__ = ("algebra", "coalgebra", "psi")

    def __post_init__(self):
        a, c = self.algebra.dim, self.coalgebra.dim
        expect_shapes(self, "entwining", psi=(a * c, c * a))
        if self.algebra.field != self.coalgebra.field:
            raise DimensionMismatch("algebra and coalgebra fields differ")

    @property
    def field(self) -> FieldSpec:
        return self.psi.field


class EntwOneCell(Record):
    """A triple (M, alpha, gamma) : dom -> cod.

    With dom = (A, C, psi) and cod = (B, D, chi):
    alpha : B (x) M -> M (x) A and gamma : D (x) M -> M (x) C.
    """

    __slots__ = ("dom", "cod", "dimM", "alpha", "gamma")

    def __post_init__(self):
        a, c = self.dom.algebra.dim, self.dom.coalgebra.dim
        b, d = self.cod.algebra.dim, self.cod.coalgebra.dim
        m = self.dimM
        expect_shapes(self, "1-cell", alpha=(m * a, b * m),
                      gamma=(m * c, d * m))

    @property
    def field(self) -> FieldSpec:
        return self.alpha.field


class EntwTwoCell(Record):
    """theta : dom => cod between parallel 1-cells, as a map M -> N."""

    __slots__ = ("dom", "cod", "theta")

    def __post_init__(self):
        if self.dom.dom != self.cod.dom or self.dom.cod != self.cod.cod:
            raise NotParallel("2-cell endpoints are not parallel")
        expect_shapes(self, "2-cell", theta=(self.cod.dimM, self.dom.dimM))

    @property
    def field(self) -> FieldSpec:
        return self.theta.field


# -- checkers -------------------------------------------------------------


@memoised
def check_obj(e: EntwObj) -> CheckReport:
    a = e.algebra
    c = e.coalgebra
    return _check_squares(
        ("E1-mult-pentagon", compose(e.psi, kron(c.dim, a.mult)),
         compose(kron(a.mult, c.dim), kron(a.dim, e.psi), kron(e.psi, a.dim))),
        ("E2-comult-pentagon", compose(kron(a.dim, c.comult), e.psi),
         compose(kron(e.psi, c.dim), kron(c.dim, e.psi),
                 kron(c.comult, a.dim))),
        ("E3-unit-triangle",
         compose(e.psi, kron(c.dim, a.unit)), kron(a.unit, c.dim)),
        ("E4-counit-triangle",
         compose(kron(a.dim, c.counit), e.psi), kron(c.counit, a.dim)))


@memoised
def check_one_cell(f: EntwOneCell) -> CheckReport:
    dom, cod = f.dom, f.cod
    a, c = dom.algebra, dom.coalgebra
    b, d = cod.algebra, cod.coalgebra
    m = f.dimM
    return _check_squares(
        ("hexagon",
         compose(kron(m, dom.psi), kron(f.gamma, a.dim), kron(d.dim, f.alpha)),
         compose(kron(f.alpha, c.dim), kron(b.dim, f.gamma),
                 kron(cod.psi, m))),
        ("alpha-pentagon", compose(f.alpha, kron(b.mult, m)),
         compose(kron(m, a.mult), kron(f.alpha, a.dim), kron(b.dim, f.alpha))),
        ("gamma-pentagon", compose(kron(m, c.comult), f.gamma),
         compose(kron(f.gamma, c.dim), kron(d.dim, f.gamma),
                 kron(d.comult, m))),
        ("unit-triangle", compose(f.alpha, kron(b.unit, m)), kron(m, a.unit)),
        ("counit-triangle",
         compose(kron(m, c.counit), f.gamma), kron(d.counit, m)))


def two_cell_squares(dom: EntwOneCell, cod: EntwOneCell, theta: Matrix):
    """(axiom, lhs, rhs) of each square a 2-cell theta : dom => cod obeys."""
    return (
        ("alpha-square",
         compose(kron(theta, dom.dom.algebra.dim), dom.alpha),
         compose(cod.alpha, kron(dom.cod.algebra.dim, theta))),
        ("gamma-square",
         compose(kron(theta, dom.dom.coalgebra.dim), dom.gamma),
         compose(cod.gamma, kron(dom.cod.coalgebra.dim, theta))),
    )


def check_two_cell(t: EntwTwoCell) -> CheckReport:
    return _check_squares(*two_cell_squares(t.dom, t.cod, t.theta))


# -- identities and compositions ------------------------------------------


@memoised
def identity_one_cell(e: EntwObj) -> EntwOneCell:
    """The 1-dimensional carrier k with identity alpha and gamma."""
    return EntwOneCell(
        dom=e, cod=e, dimM=1,
        alpha=Matrix.identity(e.field, e.algebra.dim),
        gamma=Matrix.identity(e.field, e.coalgebra.dim),
    )


def identity_two_cell(f: EntwOneCell) -> EntwTwoCell:
    return EntwTwoCell(f, f, Matrix.identity(f.field, f.dimM))


@memoised
def compose_one_cells(p: EntwOneCell, m: EntwOneCell) -> EntwOneCell:
    """The composite p after m, carrier P (x) M."""
    if m.cod != p.dom:
        raise NotComposable("cod of inner cell differs from dom of outer")
    alpha = compose(kron(p.dimM, m.alpha), kron(p.alpha, m.dimM))
    gamma = compose(kron(p.dimM, m.gamma), kron(p.gamma, m.dimM))
    return EntwOneCell(dom=m.dom, cod=p.cod, dimM=p.dimM * m.dimM,
                       alpha=alpha, gamma=gamma)


@memoised
def vcomp(t2: EntwTwoCell, t1: EntwTwoCell) -> EntwTwoCell:
    if t1.cod != t2.dom:
        raise NotComposable("vertical composition endpoints differ")
    return EntwTwoCell(t1.dom, t2.cod, compose(t2.theta, t1.theta))


@memoised
def hcomp(t2: EntwTwoCell, t1: EntwTwoCell) -> EntwTwoCell:
    """Horizontal composite; t2 lives over the outer 1-cells."""
    return EntwTwoCell(
        compose_one_cells(t2.dom, t1.dom),
        compose_one_cells(t2.cod, t1.cod),
        kron(t2.theta, t1.theta),
    )


# -- gallery builders ------------------------------------------------------


def flip_entwining(a: Algebra, c: Coalgebra) -> EntwObj:
    """psi = the tensor symmetry; entwines any pair over a field."""
    return EntwObj(a, c, flip(a.field, c.dim, a.dim))


def bialgebra_entwining(h) -> EntwObj:
    """The canonical entwining psi(c (x) a) = a_(1) (x) c.a_(2).

    ``h`` is an (Algebra, Coalgebra) pair on one carrier satisfying
    bialgebra compatibility.
    """
    alg, coalg = h
    rep = bialgebra_compatibility(alg, coalg)
    if not rep.passed:
        raise NotABialgebra(str(rep))
    n = alg.dim
    tau = flip(alg.field, n, n)
    psi = compose(kron(n, alg.mult), kron(tau, n), kron(n, coalg.comult))
    return EntwObj(alg, coalg, psi)


def morphism_one_cell(dom: EntwObj, cod: EntwObj, f: Matrix,
                      g: Matrix) -> EntwOneCell:
    """1-cell with trivial carrier from an algebra map f and coalgebra map g.

    f maps cod's algebra to dom's algebra and g maps cod's coalgebra to
    dom's coalgebra (the variance forced by the 1-cell shape).  The cell
    is verified up front by ``check_one_cell``, hexagon included, and
    NotAMorphism names the axioms it fails; a deliberately broken cell is
    built with the ``EntwOneCell`` constructor, which checks shapes only.
    """
    cell = EntwOneCell(dom=dom, cod=cod, dimM=1, alpha=f, gamma=g)
    rep = check_one_cell(cell)
    if not rep.passed:
        raise NotAMorphism(str(rep))
    return cell


def scalar_two_cell(c, f: EntwOneCell) -> EntwTwoCell:
    """The endo-2-cell c . id on a 1-cell."""
    return EntwTwoCell(f, f, Matrix.identity(f.field, f.dimM).scale(c))
