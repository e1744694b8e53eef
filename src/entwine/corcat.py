"""Street's bicategory of corings: cells, compositions, exact checkers.

A coring is a comonoid in A-A-bimodules; its comultiplication lands in
the quotient tensor 𝒞 (x)_A 𝒞, so every diagram here is chased through
deterministic quotient presentations.  ``wtensor`` tensors two bimodules,
presented over the product of their coordinate spaces only.  The one
rebracketing iso is the associator ``word_iso(x, y, z)``, built from its
three factors; by Mac Lane's coherence theorem every other one is a
composite of whiskered associators and their inverses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algstruct import (Algebra, Bimodule, CheckReport, _Checker,
                        regular_bimodule)
from .errors import DimensionMismatch, NotComposable, NotParallel
from .exactlin import (Matrix, _canonical, _sparse_columns,
                       compose, expect_shapes, inverse, kron, memoised)
from .qtensor import (QuotientPresentation, _iso_or_raise, descend,
                      tensor_over, unit_coherence)


# -- tensor words ---------------------------------------------------------


@dataclass(frozen=True)
class TensorWord:
    """x (x)_A y: the bimodule ``module`` in its own coordinates, and
    ``outer``, its presentation over the product of x's and y's
    coordinate spaces."""

    module: Bimodule
    outer: QuotientPresentation


def _column_sums(p: Matrix, combos: list) -> Matrix:
    """The matrix whose column t is the sum of c * p[:, a] over combos[t],
    a ``{a: c}`` dict."""
    field = p.field
    add, mul = field.add, field.mul
    p_cols = _sparse_columns(p)
    out = [[field.zero] * len(combos) for _ in range(p.rows)]
    for t, combo in enumerate(combos):
        for a, c in combo.items():
            for s, x in p_cols[a].items():
                out[s][t] = add(out[s][t], mul(c, x))
    frac = p._has_fraction or field._fractional(
        c for combo in combos for c in combo.values())
    return Matrix(field, tuple(_canonical(row, frac) for row in out),
                  cols=len(combos), _raw=True)


@memoised
def wtensor(xm: Bimodule, ym: Bimodule) -> TensorWord:
    """Tensor over the shared middle algebra xm.right = ym.left."""
    if xm.right != ym.left:
        raise NotComposable("middle algebras differ")
    dm, dn, dl, dr = xm.dim, ym.dim, xm.left.dim, ym.right.dim
    q = tensor_over(xm.ract, ym.lact, dm, xm.right.dim, dn)
    # column (l, t) of lact, with free[t] = (i, j), is the sum over i' of
    # X.lact[i', (l, i)] p[:, (i', j)]; column (t, r) of ract mirrors it
    ij = [divmod(c, dn) for c in q.free]
    x_l, y_r = _sparse_columns(xm.lact), _sparse_columns(ym.ract)
    lact = _column_sums(q.projection, [
        {i2 * dn + j: x for i2, x in x_l[l * dm + i].items()}
        for l in range(dl) for i, j in ij])
    ract = _column_sums(q.projection, [
        {i * dn + j2: y for j2, y in y_r[j * dr + r].items()}
        for i, j in ij for r in range(dr)])
    return TensorWord(Bimodule(xm.left, ym.right, q.quotient_dim, lact, ract),
                      q)


@memoised
def word_iso(x: Bimodule, y: Bimodule, z: Bimodule) -> Matrix:
    """The associator (x (x) y) (x) z -> x (x) (y (x) z), all over algebras.

    It is the map induced by x (x) p_yz on representatives: the whisker
    is gathered at the free coordinates of x (x) y, so its columns are
    (x (x) y) (x) z ambient coordinates, and descends to the quotients.
    Every other rebracketing is a composite of whiskered associators
    (Mac Lane coherence); the reverse direction is its inverse.
    """
    xy, yz = wtensor(x, y), wtensor(y, z)
    xy_z, x_yz = wtensor(xy.module, z), wtensor(x, yz.module)
    # kept column (c, k), c = (i, j) free in x (x) y, is column j*dz + k of
    # p_yz in row block i; c ascends, so each block keeps one run of columns
    dz, p_yz = z.dim, yz.outer.projection
    runs = [[] for _ in range(x.dim)]
    for c in xy.outer.free:
        i, j = divmod(c, y.dim)
        runs[i] += range(j * dz, (j + 1) * dz)
    pad, done, rows = (0,) * (len(xy.outer.free) * dz), 0, []
    for cols in runs:
        rows += [pad[:done] + tuple(map(prow.__getitem__, cols))
                 + pad[done + len(cols):] for prow in p_yz.entries]
        done += len(cols)
    whisker = Matrix(x.field, tuple(rows), cols=len(pad), _raw=True)
    return _iso_or_raise(descend(whisker, xy_z.outer, x_yz.outer),
                         "bracketings do not present the same module")


# -- cells ----------------------------------------------------------------


@dataclass(frozen=True)
class Coring:
    """(carrier, comult, counit) over the base algebra.

    ``comult`` maps carrier coordinates into the quotient coordinates of
    carrier (x)_A carrier (a deterministic presentation, built once per
    session); ``counit`` maps the carrier to the base algebra.
    """

    base: Algebra
    carrier: Bimodule
    comult: Matrix
    counit: Matrix

    def __post_init__(self):
        if self.carrier.left != self.base or self.carrier.right != self.base:
            raise DimensionMismatch("carrier is not an A-A-bimodule")
        n, q2 = self.carrier.dim, self.square_word().module.dim
        expect_shapes(self, "coring", comult=(q2, n),
                      counit=(self.base.dim, n))

    @property
    def field(self):
        return self.comult.field

    def square_word(self) -> TensorWord:
        """carrier (x)_A carrier with its presentation."""
        return wtensor(self.carrier, self.carrier)


@dataclass(frozen=True)
class CorOneCell:
    """(carrier, zeta) : dom -> cod with carrier a cod.base-dom.base bimodule.

    zeta maps the quotient coordinates of cod.carrier (x)_B carrier to
    those of carrier (x)_A dom.carrier.
    """

    dom: Coring
    cod: Coring
    carrier: Bimodule
    zeta: Matrix

    @property
    def field(self):
        return self.zeta.field

    def __post_init__(self):
        if (self.carrier.left != self.cod.base
                or self.carrier.right != self.dom.base):
            raise DimensionMismatch("carrier sides do not match the corings")
        src = wtensor(self.cod.carrier, self.carrier)
        tgt = wtensor(self.carrier, self.dom.carrier)
        expect_shapes(self, "coring 1-cell",
                      zeta=(tgt.module.dim, src.module.dim))


@dataclass(frozen=True)
class CorTwoCell:
    """A bimodule map between the carriers of parallel 1-cells."""

    dom: CorOneCell
    cod: CorOneCell
    map: Matrix

    def __post_init__(self):
        if self.dom.dom != self.cod.dom or self.dom.cod != self.cod.cod:
            raise NotParallel("2-cell endpoints are not parallel")
        expect_shapes(self, "coring 2-cell",
                      map=(self.cod.carrier.dim, self.dom.carrier.dim))


# -- checkers -------------------------------------------------------------


def module_map_squares(prefix: str, f: Matrix, x: Bimodule, y: Bimodule):
    """(axiom, lhs, rhs) of the squares making f : x -> y a bimodule map."""
    return (
        (f"{prefix}left module map", compose(f, x.lact),
         compose(y.lact, kron(x.left.dim, f))),
        (f"{prefix}right module map", compose(f, x.ract),
         compose(y.ract, kron(f, x.right.dim))),
    )


def zeta_square(dom: CorOneCell, cod: CorOneCell, y: Matrix):
    """(axiom, lhs, rhs) of the zeta square of y : dom.carrier -> cod.carrier.

    Both whiskers of y are induced through ``descend``: well defined on
    bimodule maps, it may raise DoesNotFactor on any other y.
    """
    m1, m2 = dom.carrier, cod.carrier
    d, c = dom.cod.carrier, dom.dom.carrier
    dy = descend(kron(d.dim, y), wtensor(d, m1).outer, wtensor(d, m2).outer)
    yc = descend(kron(y, c.dim), wtensor(m1, c).outer, wtensor(m2, c).outer)
    return (("zeta square", compose(yc, dom.zeta), compose(cod.zeta, dy)),)


def check_coring(c: Coring) -> CheckReport:
    car = c.carrier
    n = car.dim
    w2 = c.square_word()
    reg = regular_bimodule(c.base)
    chk = _Checker()
    for square in (module_map_squares("comult ", c.comult, car, w2.module)
                   + module_map_squares("counit ", c.counit, car, reg)):
        chk.equal(*square)

    with chk.guard("coassociativity"):
        route_left = compose(descend(kron(c.comult, n), w2.outer,
                                     wtensor(w2.module, car).outer), c.comult)
        route_right = compose(descend(kron(n, c.comult), w2.outer,
                                      wtensor(car, w2.module).outer), c.comult)
        chk.equal("coassociativity",
                  compose(word_iso(car, car, car), route_left), route_right)

    for side, w, collapse, whisker in (
            ("left", wtensor(reg, car), car.lact, kron(c.counit, n)),
            ("right", wtensor(car, reg), car.ract, kron(n, c.counit))):
        with chk.guard(f"{side} counit law"):
            u = unit_coherence(w.outer, collapse)
            route = compose(descend(whisker, w2.outer, w.outer), c.comult)
            chk.equal(f"{side} counit law", compose(u, route),
                      Matrix.identity(c.field, n))
    return chk.report()


def check_cor_one_cell(f: CorOneCell) -> CheckReport:
    """Bimodule property of zeta, the Street pentagon, counit compatibility."""
    cC, cD = f.dom, f.cod
    M = f.carrier
    Cc, Dc = cC.carrier, cD.carrier
    m = M.dim
    w_dm = wtensor(Dc, M)
    w_mc = wtensor(M, Cc)
    chk = _Checker()
    for square in module_map_squares("zeta ", f.zeta, w_dm.module,
                                     w_mc.module):
        chk.equal(*square)

    # pentagon: (M (x) Delta_C) . zeta = (zeta (x) C).(D (x) zeta).(Delta_D (x) M)
    with chk.guard("street pentagon"):
        lhs = compose(descend(kron(m, cC.comult), w_mc.outer,
                              wtensor(M, cC.square_word().module).outer),
                      f.zeta)

        step1 = descend(kron(cD.comult, m), w_dm.outer,
                        wtensor(cD.square_word().module, M).outer)
        step2 = word_iso(Dc, Dc, M)
        step3 = descend(kron(Dc.dim, f.zeta), wtensor(Dc, w_dm.module).outer,
                        wtensor(Dc, w_mc.module).outer)
        step4 = inverse(word_iso(Dc, M, Cc))
        step5 = descend(kron(f.zeta, Cc.dim), wtensor(w_dm.module, Cc).outer,
                        wtensor(w_mc.module, Cc).outer)
        step6 = word_iso(M, Cc, Cc)
        rhs = compose(step6, compose(step5, compose(
            step4, compose(step3, compose(step2, step1)))))
        chk.equal("street pentagon", lhs, rhs)

    # counit compatibility through the unit coherences
    with chk.guard("counit compatibility"):
        w_bm = wtensor(regular_bimodule(cD.base), M)
        u_bm = unit_coherence(w_bm.outer, M.lact)
        lhs = compose(u_bm, descend(kron(cD.counit, m), w_dm.outer,
                                    w_bm.outer))
        w_ma = wtensor(M, regular_bimodule(cC.base))
        u_ma = unit_coherence(w_ma.outer, M.ract)
        rhs = compose(u_ma,
                      compose(descend(kron(m, cC.counit), w_mc.outer,
                                      w_ma.outer), f.zeta))
        chk.equal("counit compatibility", lhs, rhs)
    return chk.report()


def check_cor_two_cell(t: CorTwoCell) -> CheckReport:
    chk = _Checker()
    for square in module_map_squares("", t.map, t.dom.carrier,
                                     t.cod.carrier):
        chk.equal(*square)
    with chk.guard("zeta square"):
        for square in zeta_square(t.dom, t.cod, t.map):
            chk.equal(*square)
    return chk.report()


# -- identities, compositions, coherences ---------------------------------


def trivial_coring(a: Algebra) -> Coring:
    """A itself: comult the inverse unit coherence, counit the identity."""
    car = regular_bimodule(a)
    u = unit_coherence(wtensor(car, car).outer, a.mult)
    return Coring(a, car, inverse(u), Matrix.identity(a.field, a.dim))


def identity_cor_one_cell(c: Coring) -> CorOneCell:
    """Carrier = the base algebra; zeta the composite of unit coherences."""
    car = regular_bimodule(c.base)
    u_right = unit_coherence(wtensor(c.carrier, car).outer, c.carrier.ract)
    u_left = unit_coherence(wtensor(car, c.carrier).outer, c.carrier.lact)
    return CorOneCell(dom=c, cod=c, carrier=car,
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
    step2 = descend(kron(p.zeta, M.dim),
                    wtensor(wtensor(E, P).module, M).outer,
                    wtensor(wtensor(P, D).module, M).outer)
    step3 = word_iso(P, D, M)
    step4 = descend(kron(P.dim, m.zeta),
                    wtensor(P, wtensor(D, M).module).outer,
                    wtensor(P, wtensor(M, C).module).outer)
    step5 = inverse(word_iso(P, M, C))
    zeta = compose(step5, compose(step4, compose(
        step3, compose(step2, step1))))
    return CorOneCell(dom=m.dom, cod=p.cod, carrier=wtensor(P, M).module,
                     zeta=zeta)


def vcomp_cor(t2: CorTwoCell, t1: CorTwoCell) -> CorTwoCell:
    if t1.cod != t2.dom:
        raise NotComposable("vertical composition endpoints differ")
    return CorTwoCell(t1.dom, t2.cod, compose(t2.map, t1.map))


def hcomp_cor(t2: CorTwoCell, t1: CorTwoCell) -> CorTwoCell:
    """Horizontal composite; t2 lives over the outer 1-cells."""
    if t1.dom.cod != t2.dom.dom:
        raise NotComposable("horizontal composition boundaries differ")
    dom = compose_cor_one_cells(t2.dom, t1.dom)
    cod = compose_cor_one_cells(t2.cod, t1.cod)
    w1 = wtensor(t2.dom.carrier, t1.dom.carrier)
    w2 = wtensor(t2.cod.carrier, t1.cod.carrier)
    return CorTwoCell(dom, cod,
                      descend(kron(t2.map, t1.map), w1.outer, w2.outer))


def cor_associator(x: CorOneCell, y: CorOneCell,
                   z: CorOneCell) -> CorTwoCell:
    """Coherence 2-cell x.(y.z) => (x.y).z, induced on presentations."""
    inner = compose_cor_one_cells(x, compose_cor_one_cells(y, z))
    outer = compose_cor_one_cells(compose_cor_one_cells(x, y), z)
    return CorTwoCell(inner, outer, inverse(
        word_iso(x.carrier, y.carrier, z.carrier)))


def cor_left_unitor(x: CorOneCell) -> CorTwoCell:
    """id_cor(cod) . x => x via the unit coherence."""
    composite = compose_cor_one_cells(identity_cor_one_cell(x.cod), x)
    w = wtensor(regular_bimodule(x.cod.base), x.carrier)
    return CorTwoCell(composite, x, unit_coherence(w.outer, x.carrier.lact))


def cor_right_unitor(x: CorOneCell) -> CorTwoCell:
    """x . id_cor(dom) => x via the unit coherence."""
    composite = compose_cor_one_cells(x, identity_cor_one_cell(x.dom))
    w = wtensor(x.carrier, regular_bimodule(x.dom.base))
    return CorTwoCell(composite, x, unit_coherence(w.outer, x.carrier.ract))
