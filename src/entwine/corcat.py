"""Street's bicategory of corings: cells, compositions, exact checkers.

A coring is a comonoid in A-A-bimodules; its comultiplication lands in
the quotient tensor 𝒞 (x)_A 𝒞, so every diagram here is chased through
deterministic quotient presentations.  The ``TensorWord`` helper tracks
a parenthesized tensor of bimodules together with its presentation over
the flat k-ambient, which is what lets different bracketings be compared
by an exact coherence isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from .algstruct import (Algebra, Bimodule, CheckReport, _Checker,
                        regular_bimodule)
from .errors import (DimensionMismatch, NotComposable, NotInvertible,
                     NotParallel)
from .exactlin import (Matrix, _sparse_columns, compose, expect_shapes,
                       inverse, kron)
from .qtensor import (QuotientPresentation, assoc_coherence, descend,
                      pres_compose, pres_kron, tensor_over,
                      trivial_presentation, unit_coherence)


# -- tensor words ---------------------------------------------------------


@dataclass(frozen=True)
class TensorWord:
    """A bracketed tensor of bimodules, presented over the flat ambient.

    ``module`` is the resulting subquotient bimodule in its own
    coordinates; ``outer`` presents it over the product of the two
    top-level factor coordinate spaces; ``full`` presents it over the
    product of all leaf dimensions.
    """

    module: Bimodule
    flat_dims: Tuple[int, ...]
    full: QuotientPresentation
    outer: QuotientPresentation


@lru_cache(maxsize=None)
def leaf(b: Bimodule) -> TensorWord:
    triv = trivial_presentation(b.field, b.dim)
    return TensorWord(b, (b.dim,), triv, triv)


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
    return Matrix(field, tuple(map(tuple, out)), cols=len(combos), _raw=True)


@lru_cache(maxsize=None)
def wtensor(x: TensorWord, y: TensorWord) -> TensorWord:
    """Tensor over the shared middle algebra x.module.right = y.module.left."""
    xm, ym = x.module, y.module
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
    module = Bimodule(xm.left, ym.right, q.quotient_dim, lact, ract)
    full = pres_compose(pres_kron(x.full, y.full), q)
    return TensorWord(module, x.flat_dims + y.flat_dims, full, q)


def word_iso(src: TensorWord, dst: TensorWord) -> Matrix:
    """Coherence iso between two bracketings of the same flat tensor."""
    if src.flat_dims != dst.flat_dims:
        raise DimensionMismatch(
            f"flat shapes differ: {src.flat_dims} vs {dst.flat_dims}")
    try:
        return assoc_coherence(src.full, dst.full)
    except NotInvertible:
        raise NotInvertible(
            "bracketings do not present the same module") from None


# -- cells ----------------------------------------------------------------


@dataclass(frozen=True)
class Coring:
    """(carrier, comult, counit) over the base algebra.

    ``comult`` maps carrier coordinates into the quotient coordinates of
    carrier (x)_A carrier (the presentation is recomputed on demand and
    is deterministic); ``counit`` maps the carrier to the base algebra.
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
        c = leaf(self.carrier)
        return wtensor(c, c)


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

    def __post_init__(self):
        if (self.carrier.left != self.cod.base
                or self.carrier.right != self.dom.base):
            raise DimensionMismatch("carrier sides do not match the corings")
        src = wtensor(leaf(self.cod.carrier), leaf(self.carrier))
        tgt = wtensor(leaf(self.carrier), leaf(self.dom.carrier))
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
    ld, lc = leaf(dom.cod.carrier), leaf(dom.dom.carrier)
    dy = descend(kron(ld.module.dim, y), wtensor(ld, leaf(m1)).outer,
                 wtensor(ld, leaf(m2)).outer)
    yc = descend(kron(y, lc.module.dim), wtensor(leaf(m1), lc).outer,
                 wtensor(leaf(m2), lc).outer)
    return (("zeta square", compose(yc, dom.zeta), compose(cod.zeta, dy)),)


def check_coring(c: Coring) -> CheckReport:
    car = c.carrier
    n = car.dim
    in_ = Matrix.identity(c.field, n)
    w2 = c.square_word()
    lc = leaf(car)
    reg = regular_bimodule(c.base)
    chk = _Checker()
    for square in (module_map_squares("comult ", c.comult, car, w2.module)
                   + module_map_squares("counit ", c.counit, car, reg)):
        chk.equal(*square)

    with chk.guard("coassociativity"):
        w3_left = wtensor(w2, lc)
        w3_right = wtensor(lc, w2)
        route_left = compose(
            descend(kron(c.comult, n), w2.outer, w3_left.outer), c.comult)
        route_right = compose(
            descend(kron(n, c.comult), w2.outer, w3_right.outer), c.comult)
        iso = word_iso(w3_left, w3_right)
        chk.equal("coassociativity", compose(iso, route_left), route_right)

    with chk.guard("left counit law"):
        w_ac = wtensor(leaf(reg), lc)
        u_left = unit_coherence(w_ac.outer, car.lact)
        chk.equal(
            "left counit law",
            compose(u_left,
                    compose(descend(kron(c.counit, n), w2.outer,
                                    w_ac.outer), c.comult)),
            in_)
    with chk.guard("right counit law"):
        w_ca = wtensor(lc, leaf(reg))
        u_right = unit_coherence(w_ca.outer, car.ract)
        chk.equal(
            "right counit law",
            compose(u_right,
                    compose(descend(kron(n, c.counit), w2.outer,
                                    w_ca.outer), c.comult)),
            in_)
    return chk.report()


def check_cor_one_cell(f: CorOneCell) -> CheckReport:
    """Bimodule property of zeta, the Street pentagon, counit compatibility."""
    cC, cD = f.dom, f.cod
    M = f.carrier
    Cc, Dc = cC.carrier, cD.carrier
    m = M.dim
    lM, lC, lD = leaf(M), leaf(Cc), leaf(Dc)
    w_dm = wtensor(lD, lM)
    w_mc = wtensor(lM, lC)
    chk = _Checker()
    for square in module_map_squares("zeta ", f.zeta, w_dm.module,
                                     w_mc.module):
        chk.equal(*square)

    # pentagon: (M (x) Delta_C) . zeta = (zeta (x) C).(D (x) zeta).(Delta_D (x) M)
    with chk.guard("street pentagon"):
        w2c = cC.square_word()
        w2d = cD.square_word()
        w_m_cc = wtensor(lM, w2c)
        lhs = compose(descend(kron(m, cC.comult), w_mc.outer, w_m_cc.outer),
                      f.zeta)

        w_dd_m = wtensor(w2d, lM)
        step1 = descend(kron(cD.comult, m), w_dm.outer, w_dd_m.outer)
        w_d_dm = wtensor(lD, w_dm)
        step2 = word_iso(w_dd_m, w_d_dm)
        w_d_mc = wtensor(lD, w_mc)
        step3 = descend(kron(Dc.dim, f.zeta), w_d_dm.outer, w_d_mc.outer)
        w_dm_c = wtensor(w_dm, lC)
        step4 = word_iso(w_d_mc, w_dm_c)
        w_mc_c = wtensor(w_mc, lC)
        step5 = descend(kron(f.zeta, Cc.dim), w_dm_c.outer, w_mc_c.outer)
        step6 = word_iso(w_mc_c, w_m_cc)
        rhs = compose(step6, compose(step5, compose(
            step4, compose(step3, compose(step2, step1)))))
        chk.equal("street pentagon", lhs, rhs)

    # counit compatibility through the unit coherences
    with chk.guard("counit compatibility"):
        reg_b = leaf(regular_bimodule(cD.base))
        w_bm = wtensor(reg_b, lM)
        u_bm = unit_coherence(w_bm.outer, M.lact)
        lhs = compose(u_bm, descend(kron(cD.counit, m), w_dm.outer,
                                    w_bm.outer))
        reg_a = leaf(regular_bimodule(cC.base))
        w_ma = wtensor(lM, reg_a)
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
    w2 = wtensor(leaf(car), leaf(car))
    u = unit_coherence(w2.outer, a.mult)
    return Coring(a, car, inverse(u), Matrix.identity(a.field, a.dim))


def identity_cor_one_cell(c: Coring) -> CorOneCell:
    """Carrier = the base algebra; zeta the composite of unit coherences."""
    car = regular_bimodule(c.base)
    w_ca = wtensor(leaf(c.carrier), leaf(car))
    w_ac = wtensor(leaf(car), leaf(c.carrier))
    u_right = unit_coherence(w_ca.outer, c.carrier.ract)
    u_left = unit_coherence(w_ac.outer, c.carrier.lact)
    return CorOneCell(dom=c, cod=c, carrier=car,
                      zeta=compose(inverse(u_left), u_right))


def identity_cor_two_cell(f: CorOneCell) -> CorTwoCell:
    return CorTwoCell(f, f, Matrix.identity(f.zeta.field, f.carrier.dim))


def compose_cor_one_cells(p: CorOneCell, m: CorOneCell) -> CorOneCell:
    """Carrier P (x)_B M; zeta chases through both zetas and coherences."""
    if m.cod != p.dom:
        raise NotComposable("cod of inner cell differs from dom of outer")
    lE = leaf(p.cod.carrier)
    lP = leaf(p.carrier)
    lD = leaf(p.dom.carrier)
    lM = leaf(m.carrier)
    lC = leaf(m.dom.carrier)

    w_pm = wtensor(lP, lM)
    w_e_pm = wtensor(lE, w_pm)
    w_ep_m = wtensor(wtensor(lE, lP), lM)
    step1 = word_iso(w_e_pm, w_ep_m)
    w_pd_m = wtensor(wtensor(lP, lD), lM)
    step2 = descend(kron(p.zeta, m.carrier.dim), w_ep_m.outer, w_pd_m.outer)
    w_p_dm = wtensor(lP, wtensor(lD, lM))
    step3 = word_iso(w_pd_m, w_p_dm)
    w_p_mc = wtensor(lP, wtensor(lM, lC))
    step4 = descend(kron(p.carrier.dim, m.zeta), w_p_dm.outer, w_p_mc.outer)
    w_pm_c = wtensor(w_pm, lC)
    step5 = word_iso(w_p_mc, w_pm_c)
    zeta = compose(step5, compose(step4, compose(
        step3, compose(step2, step1))))
    return CorOneCell(dom=m.dom, cod=p.cod, carrier=w_pm.module, zeta=zeta)


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
    w1 = wtensor(leaf(t2.dom.carrier), leaf(t1.dom.carrier))
    w2 = wtensor(leaf(t2.cod.carrier), leaf(t1.cod.carrier))
    return CorTwoCell(dom, cod,
                      descend(kron(t2.map, t1.map), w1.outer, w2.outer))


def cor_associator(x: CorOneCell, y: CorOneCell,
                   z: CorOneCell) -> CorTwoCell:
    """Coherence 2-cell x.(y.z) => (x.y).z, induced on presentations."""
    inner = compose_cor_one_cells(x, compose_cor_one_cells(y, z))
    outer = compose_cor_one_cells(compose_cor_one_cells(x, y), z)
    lx, ly, lz = leaf(x.carrier), leaf(y.carrier), leaf(z.carrier)
    iso = word_iso(wtensor(lx, wtensor(ly, lz)),
                   wtensor(wtensor(lx, ly), lz))
    return CorTwoCell(inner, outer, iso)


def cor_left_unitor(x: CorOneCell) -> CorTwoCell:
    """id_cor(cod) . x => x via the unit coherence."""
    composite = compose_cor_one_cells(identity_cor_one_cell(x.cod), x)
    w = wtensor(leaf(regular_bimodule(x.cod.base)), leaf(x.carrier))
    return CorTwoCell(composite, x, unit_coherence(w.outer, x.carrier.lact))


def cor_right_unitor(x: CorOneCell) -> CorTwoCell:
    """x . id_cor(dom) => x via the unit coherence."""
    composite = compose_cor_one_cells(x, identity_cor_one_cell(x.dom))
    w = wtensor(leaf(x.carrier), leaf(regular_bimodule(x.dom.base)))
    return CorTwoCell(composite, x, unit_coherence(w.outer, x.carrier.ract))
