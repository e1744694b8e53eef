"""Street's bicategory of corings: cells, compositions, exact checkers.

A coring is a comonoid in A-A-bimodules; its comultiplication lands in
the quotient tensor 𝒞 (x)_A 𝒞, so every diagram here is chased through
deterministic quotient presentations.  ``wtensor`` tensors two bimodules,
presented over the product of their coordinate spaces only, through the
memoised ``tensor_over``; it keeps no memo of its own.  The word's actions
(``word_module``) are formed on first read: the words of a rebracketing
are read only through their presentations and quotient dimensions.
Every map on a word is formed through ``kron``'s column selection, so no
whisker is built at full ambient width and no stored column is read.
The one rebracketing iso is the associator ``word_iso(x, y, z)``, built
from its three factors; by Mac Lane's coherence theorem every other one
is a composite of whiskered associators and their inverses.  Each
sweeps the relations only when a checked square fails: ``tensor_map`` the
module squares of its factors, shared with the checkers through the
memoised ``_module_square``, and ``word_iso`` the bimodule square of its
middle factor, ``_bimodule_square``.
"""

from __future__ import annotations

from operator import eq

from .algstruct import (Bimodule, CheckReport, _check_squares,
                        regular_bimodule)
from .errors import DimensionMismatch, NotComposable, NotParallel
from .exactlin import (Matrix, Record, compose, expect_shapes, inverse,
                       kron, memoised)
from .qtensor import (_iso_or_raise, descend_columns, free_columns,
                      tensor_over, unit_coherence)


# -- tensor words ---------------------------------------------------------


class TensorWord(Record):
    """x (x)_A y: its two factors, and ``outer``, its presentation over the
    product of x's and y's coordinate spaces.  ``module``, the bimodule in
    its own coordinates, is formed when it is first read: most words
    (those of the rebracketings inside a check) are read only through
    ``outer``."""

    __slots__ = ("x", "y", "outer")

    @property
    def module(self) -> Bimodule:
        return word_module(self.x, self.y)


def wtensor(xm: Bimodule, ym: Bimodule) -> TensorWord:
    """Tensor over the shared middle algebra xm.right = ym.left."""
    if xm.right != ym.left:
        raise NotComposable("middle algebras differ")
    return TensorWord(xm, ym, tensor_over(xm.ract, ym.lact, xm.dim,
                                          xm.right.unit, ym.dim))


@memoised
def word_module(xm: Bimodule, ym: Bimodule) -> Bimodule:
    """The bimodule xm (x)_A ym in the coordinates of its presentation."""
    q = wtensor(xm, ym).outer
    dm, dn, dl, dr = xm.dim, ym.dim, xm.left.dim, ym.right.dim
    # column (l, t) of lact, with free[t] = (i, j), is column (l, i, j) of
    # X.lact (x) N, projected; column (t, r) of ract is column (i, j, r) of
    # M (x) Y.ract
    lact = compose(q.projection, kron(xm.lact, dn, [
        l * dm * dn + c for l in range(dl) for c in q.free]))
    ract = compose(q.projection, kron(dm, ym.ract, [
        c * dr + r for c in q.free for r in range(dr)]))
    return Bimodule(xm.left, ym.right, q.quotient_dim, lact, ract)


def tensor_map(f, g, src: tuple, tgt: tuple) -> Matrix:
    """The map x (x)_A y -> x2 (x)_A y2 induced by f (x) g, for src = (x, y)
    and tgt = (x2, y2); an int stands for the identity, as in ``kron``.
    Only the columns the quotients need are formed (``free_columns``).
    If f is right and g left A-linear, f (x) g sends each relation
    rel(m, a, n) to rel(f m, a, g n), which the target projection kills,
    so the sweep of ``descend_columns`` is skipped.  An int is linear when
    its two bimodules are equal; if any other factor fails its square,
    the sweep decides."""
    (x, y), (x2, y2) = src, tgt
    one = lambda h: Matrix.identity(x.field, h) if isinstance(h, int) else h
    shapes = tuple((h, h) if isinstance(h, int) else h.shape for h in (f, g))
    if shapes != ((x2.dim, x.dim), (y2.dim, y.dim)):
        raise DimensionMismatch("whisker {} (x) {} of words".format(*shapes))
    # kron takes an int for at most one factor
    image = lambda cols: kron(one(f) if isinstance(g, int) else f, g, cols)
    words = wtensor(x, y).outer, wtensor(x2, y2).outer
    # a square is a matrix equation only over one middle dimension
    if x.right.dim == x2.right.dim and all(
            isinstance(h, int) and a == b
            or eq(*_module_square(one(h), a, b, right))
            for h, a, b, right in ((f, x, x2, True), (g, y, y2, False))):
        return free_columns(image, *words)
    return descend_columns(image, *words)


@memoised
def word_iso(x: Bimodule, y: Bimodule, z: Bimodule) -> Matrix:
    """The associator (x (x) y) (x) z -> x (x) (y (x) z), all over algebras.

    It is induced by x (x) p_yz on representatives: column (t, k) of the
    (x (x) y) (x) z ambient, free[t] = (i, j) in x (x) y, goes to
    e_i (x) p_yz[:, j*dz + k].  That map descends when y's actions
    commute (``_bimodule_square``), and only its free columns are formed;
    otherwise ``descend_columns`` decides.  Every other rebracketing is a
    composite of whiskered associators and their inverses (Mac Lane
    coherence).
    """
    xy, yz = wtensor(x, y), wtensor(y, z)
    dz, free = z.dim, xy.outer.free
    # column (t, k) of the ambient is column (free[t], k) of x (x) p_yz
    image = lambda cols: kron(x.dim, yz.outer.projection, [
        free[c // dz] * dz + c % dz for c in cols])
    proven = _bimodule_square(y)
    iso = (free_columns if proven else descend_columns)(
        image, wtensor(xy.module, z).outer, wtensor(x, yz.module).outer)
    return _iso_or_raise(iso, "bracketings do not present the same module")


@memoised
def _bimodule_square(y: Bimodule) -> bool:
    """Whether y's actions commute, a.(y.b) = (a.y).b.  Then the left
    action ``word_module`` forms on y (x) z is the descended one, so every
    associator x (x) y (x) z descends, whatever x and z are."""
    return compose(y.lact, kron(y.left.dim, y.ract)) == compose(
        y.ract, kron(y.lact, y.right.dim))


@memoised
def left_unit_iso(x: Bimodule) -> Matrix:
    """The left unitor A (x)_A x -> x, A = x.left, induced by x.lact."""
    return unit_coherence(wtensor(regular_bimodule(x.left), x).outer, x.lact)


@memoised
def right_unit_iso(x: Bimodule) -> Matrix:
    """The right unitor x (x)_A A -> x, A = x.right, induced by x.ract."""
    return unit_coherence(wtensor(x, regular_bimodule(x.right)).outer, x.ract)


# -- cells ----------------------------------------------------------------


class Coring(Record):
    """(carrier, comult, counit) over the base algebra.

    ``comult`` maps carrier coordinates into the quotient coordinates of
    carrier (x)_A carrier (a deterministic presentation, built once per
    session); ``counit`` maps the carrier to the base algebra.
    """

    __slots__ = ("base", "carrier", "comult", "counit")

    def __post_init__(self):
        if self.carrier.left != self.base or self.carrier.right != self.base:
            raise DimensionMismatch("carrier is not an A-A-bimodule")
        n, q2 = self.carrier.dim, self.square_word().outer.quotient_dim
        expect_shapes(self, "coring", comult=(q2, n),
                      counit=(self.base.dim, n))

    @property
    def field(self):
        return self.comult.field

    def square_word(self) -> TensorWord:
        """carrier (x)_A carrier with its presentation."""
        return wtensor(self.carrier, self.carrier)


class CorOneCell(Record):
    """(carrier, zeta) : dom -> cod with carrier a cod.base-dom.base bimodule.

    zeta maps the quotient coordinates of cod.carrier (x)_B carrier to
    those of carrier (x)_A dom.carrier.
    """

    __slots__ = ("dom", "cod", "carrier", "zeta")

    @property
    def field(self):
        return self.zeta.field

    def __post_init__(self):
        if (self.carrier.left != self.cod.base
                or self.carrier.right != self.dom.base):
            raise DimensionMismatch("carrier sides do not match the corings")
        src = wtensor(self.cod.carrier, self.carrier).outer
        tgt = wtensor(self.carrier, self.dom.carrier).outer
        expect_shapes(self, "coring 1-cell",
                      zeta=(tgt.quotient_dim, src.quotient_dim))


class CorTwoCell(Record):
    """A bimodule map between the carriers of parallel 1-cells."""

    __slots__ = ("dom", "cod", "map")

    def __post_init__(self):
        if self.dom.dom != self.cod.dom or self.dom.cod != self.cod.cod:
            raise NotParallel("2-cell endpoints are not parallel")
        expect_shapes(self, "coring 2-cell",
                      map=(self.cod.carrier.dim, self.dom.carrier.dim))

    @property
    def field(self):
        return self.map.field


# -- checkers -------------------------------------------------------------


def _plain_module_square(f: Matrix, x: Bimodule, y: Bimodule, right: bool):
    """(lhs, rhs) of the square making f : x -> y right A-linear, A =
    x.right, if ``right``, else left B-linear, B = x.left."""
    if right:
        return compose(f, x.ract), compose(y.ract, kron(f, x.right.dim))
    return compose(f, x.lact), compose(y.lact, kron(x.left.dim, f))


@memoised
def _module_square(f: Matrix, x: Bimodule, y: Bimodule, right: bool):
    """``_plain_module_square``, kept for ``tensor_map`` to reuse."""
    return _plain_module_square(f, x, y, right)


def module_map_squares(prefix: str, f: Matrix, x: Bimodule, y: Bimodule,
                       square=_module_square):
    """(axiom, lhs, rhs) of the squares making f : x -> y a bimodule map,
    through ``square``: ``_plain_module_square`` keeps them out of the
    memo."""
    return ((f"{prefix}left module map", *square(f, x, y, False)),
            (f"{prefix}right module map", *square(f, x, y, True)))


def zeta_square(dom: CorOneCell, cod: CorOneCell, y: Matrix):
    """(lhs, rhs) of the zeta square of y : dom.carrier -> cod.carrier.

    Both whiskers of y are induced through ``tensor_map``: well defined
    on bimodule maps, it may raise DoesNotFactor on any other y.
    """
    m1, m2 = dom.carrier, cod.carrier
    d, c = dom.cod.carrier, dom.dom.carrier
    dy = tensor_map(d.dim, y, (d, m1), (d, m2))
    yc = tensor_map(y, c.dim, (m1, c), (m2, c))
    return compose(yc, dom.zeta), compose(cod.zeta, dy)


def check_coring(c: Coring) -> CheckReport:
    car = c.carrier
    n = car.dim
    w2 = c.square_word()
    reg = regular_bimodule(c.base)

    def coassociativity():
        left = compose(tensor_map(c.comult, n, (car, car), (w2.module, car)),
                       c.comult)
        right = compose(tensor_map(n, c.comult, (car, car), (car, w2.module)),
                        c.comult)
        return compose(word_iso(car, car, car), left), right

    def counit_law(unit_iso, f, g, pair):
        return lambda: (compose(unit_iso(car),
                                tensor_map(f, g, (car, car), pair), c.comult),
                        Matrix.identity(c.field, n))

    return _check_squares(
        *module_map_squares("comult ", c.comult, car, w2.module),
        *module_map_squares("counit ", c.counit, car, reg),
        ("coassociativity", coassociativity),
        ("left counit law", counit_law(left_unit_iso, c.counit, n,
                                       (reg, car))),
        ("right counit law", counit_law(right_unit_iso, n, c.counit,
                                        (car, reg))))


def check_cor_one_cell(f: CorOneCell) -> CheckReport:
    """Bimodule property of zeta, the Street pentagon, counit compatibility."""
    cC, cD, M = f.dom, f.cod, f.carrier
    Cc, Dc, m = cC.carrier, cD.carrier, M.dim
    w_dm, w_mc = wtensor(Dc, M), wtensor(M, Cc)

    def pentagon():
        # (M (x) Delta_C) . zeta = (zeta (x) C).(D (x) zeta).(Delta_D (x) M)
        lhs = compose(tensor_map(m, cC.comult, (M, Cc),
                                 (M, cC.square_word().module)), f.zeta)
        step1 = tensor_map(cD.comult, m, (Dc, M),
                           (cD.square_word().module, M))
        step2 = word_iso(Dc, Dc, M)
        step3 = tensor_map(Dc.dim, f.zeta, (Dc, w_dm.module),
                           (Dc, w_mc.module))
        step4 = inverse(word_iso(Dc, M, Cc))
        step5 = tensor_map(f.zeta, Cc.dim, (w_dm.module, Cc),
                           (w_mc.module, Cc))
        step6 = word_iso(M, Cc, Cc)
        return lhs, compose(step6, step5, step4, step3, step2, step1)

    return _check_squares(
        *module_map_squares("zeta ", f.zeta, w_dm.module, w_mc.module),
        ("street pentagon", pentagon),
        # counit compatibility through the unit coherences
        ("counit compatibility", lambda: (
            compose(left_unit_iso(M), tensor_map(
                cD.counit, m, (Dc, M), (regular_bimodule(cD.base), M))),
            compose(right_unit_iso(M), tensor_map(
                m, cC.counit, (M, Cc), (M, regular_bimodule(cC.base))),
                f.zeta))))


@memoised
def check_cor_two_cell(t: CorTwoCell) -> CheckReport:
    return _check_squares(
        *module_map_squares("", t.map, t.dom.carrier, t.cod.carrier),
        ("zeta square", lambda: zeta_square(t.dom, t.cod, t.map)))


# -- identities, compositions, coherences ---------------------------------


@memoised
def identity_cor_one_cell(c: Coring) -> CorOneCell:
    """Carrier = the base algebra; zeta the composite of unit coherences."""
    u_right, u_left = right_unit_iso(c.carrier), left_unit_iso(c.carrier)
    return CorOneCell(dom=c, cod=c, carrier=regular_bimodule(c.base),
                      zeta=compose(inverse(u_left), u_right))


def identity_cor_two_cell(f: CorOneCell) -> CorTwoCell:
    return CorTwoCell(f, f, Matrix.identity(f.zeta.field, f.carrier.dim))


@memoised
def compose_cor_one_cells(p: CorOneCell, m: CorOneCell) -> CorOneCell:
    """Carrier P (x)_B M; zeta chases through both zetas and coherences."""
    if m.cod != p.dom:
        raise NotComposable("cod of inner cell differs from dom of outer")
    E, P, D = p.cod.carrier, p.carrier, p.dom.carrier
    M, C = m.carrier, m.dom.carrier

    step1 = inverse(word_iso(E, P, M))
    step2 = tensor_map(p.zeta, M.dim, (wtensor(E, P).module, M),
                       (wtensor(P, D).module, M))
    step3 = word_iso(P, D, M)
    step4 = tensor_map(P.dim, m.zeta, (P, wtensor(D, M).module),
                       (P, wtensor(M, C).module))
    step5 = inverse(word_iso(P, M, C))
    zeta = compose(step5, step4, step3, step2, step1)
    return CorOneCell(dom=m.dom, cod=p.cod, carrier=wtensor(P, M).module,
                     zeta=zeta)


@memoised
def vcomp_cor(t2: CorTwoCell, t1: CorTwoCell) -> CorTwoCell:
    if t1.cod != t2.dom:
        raise NotComposable("vertical composition endpoints differ")
    return CorTwoCell(t1.dom, t2.cod, compose(t2.map, t1.map))


@memoised
def hcomp_cor(t2: CorTwoCell, t1: CorTwoCell) -> CorTwoCell:
    """Horizontal composite; t2 lives over the outer 1-cells."""
    dom = compose_cor_one_cells(t2.dom, t1.dom)
    cod = compose_cor_one_cells(t2.cod, t1.cod)
    return CorTwoCell(dom, cod, tensor_map(
        t2.map, t1.map, (t2.dom.carrier, t1.dom.carrier),
        (t2.cod.carrier, t1.cod.carrier)))


def cor_associator(x: CorOneCell, y: CorOneCell,
                   z: CorOneCell) -> CorTwoCell:
    """Coherence 2-cell x.(y.z) => (x.y).z, induced on presentations."""
    inner = compose_cor_one_cells(x, compose_cor_one_cells(y, z))
    outer = compose_cor_one_cells(compose_cor_one_cells(x, y), z)
    return CorTwoCell(inner, outer,
                      inverse(word_iso(x.carrier, y.carrier, z.carrier)))


def cor_left_unitor(x: CorOneCell) -> CorTwoCell:
    """id_cor(cod) . x => x via the unit coherence."""
    composite = compose_cor_one_cells(identity_cor_one_cell(x.cod), x)
    return CorTwoCell(composite, x, left_unit_iso(x.carrier))


def cor_right_unitor(x: CorOneCell) -> CorTwoCell:
    """x . id_cor(dom) => x via the unit coherence."""
    composite = compose_cor_one_cells(x, identity_cor_one_cell(x.dom))
    return CorTwoCell(composite, x, right_unit_iso(x.carrier))
