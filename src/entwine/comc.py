"""The composed-coring homomorphism from entwinings to corings.

An entwining (A, C, psi) yields the coring A (x) C; a 1-cell (M, alpha,
gamma) yields the bimodule M (x) A with a structure map zeta obtained by
factoring an auxiliary ambient map through the quotient tensor — the
factorization is where the hexagon and pentagon axioms are consumed, so
it is checked, never assumed.  Compositor and unitor 2-cells make the
assignment a homomorphism of bicategories in the pseudo sense.
"""

from __future__ import annotations

from typing import Tuple

from .algstruct import Bimodule
from .corcat import (Coring, CorOneCell, CorTwoCell, identity_cor_one_cell,
                     compose_cor_one_cells, leaf, wtensor)
from .entwcat import (EntwObj, EntwOneCell, EntwTwoCell, check_obj,
                      check_two_cell, identity_one_cell)
from .errors import InvalidObject, InvalidTwoCell, NotComposable, NotParallel
from .exactlin import Matrix, compose, kernel_basis, kron, rank
from .qtensor import _iso_or_raise, induced_map


def composed_carrier(f: EntwOneCell) -> Bimodule:
    """M (x) A as a B-A-bimodule, B acting through alpha."""
    a = f.dom.algebra
    lact = compose(kron(f.dimM, a.mult), kron(f.alpha, a.dim))
    ract = kron(f.dimM, a.mult)
    return Bimodule(f.cod.algebra, a, f.dimM * a.dim, lact, ract)


def comc_obj(e: EntwObj) -> Coring:
    """The composed coring A (x) C over A."""
    rep = check_obj(e)
    if not rep.passed:
        raise InvalidObject(f"not an entwining: {rep}")
    a, c = e.algebra, e.coalgebra
    lact = kron(a.mult, c.dim)
    ract = compose(kron(a.mult, c.dim), kron(a.dim, e.psi))
    carrier = Bimodule(a, a, a.dim * c.dim, lact, ract)
    w2 = wtensor(leaf(carrier), leaf(carrier))
    # a (x) c (x) c' -> (a (x) c) (x)_A (1 (x) c')
    insert_unit = kron(a.dim * c.dim, kron(a.unit, c.dim))
    comult = compose(w2.outer.projection,
                     compose(insert_unit, kron(a.dim, c.comult)))
    counit = kron(a.dim, c.counit)
    return Coring(a, carrier, comult, counit)


def zeta_ambient(f: EntwOneCell) -> Matrix:
    """The auxiliary map on B (x) D (x) M (x) A, before any quotient."""
    return compose(kron(f.alpha, f.dom.psi),
                   kron(f.cod.algebra.dim, kron(f.gamma, f.dom.algebra.dim)))


def comc_one_cell(f: EntwOneCell) -> CorOneCell:
    """(M, alpha, gamma) -> (M (x) A, zeta).

    Raises DoesNotFactor when the auxiliary map fails to balance over B,
    which happens exactly when f violates the hexagon/pentagon axioms.
    The auxiliary map balances only after the target is also passed to
    its quotient (see the two 5-map chains: truncating the common tail
    breaks the equality), so the target projection is applied first.
    """
    dom_cor = comc_obj(f.dom)
    cod_cor = comc_obj(f.cod)
    carrier = composed_carrier(f)
    w_dm = wtensor(leaf(cod_cor.carrier), leaf(carrier))
    w_mc = wtensor(leaf(carrier), leaf(dom_cor.carrier))
    zbar = zeta_ambient(f)
    zeta = induced_map(compose(w_mc.outer.projection, zbar), w_dm.outer)
    return CorOneCell(dom=dom_cor, cod=cod_cor, carrier=carrier, zeta=zeta)


def comc_two_cell(t: EntwTwoCell) -> CorTwoCell:
    """theta -> theta (x) A."""
    rep = check_two_cell(t)
    if not rep.passed:
        raise InvalidTwoCell(str(rep))
    return CorTwoCell(comc_one_cell(t.dom), comc_one_cell(t.cod),
                      kron(t.theta, t.dom.dom.algebra.dim))


def compositor(p: EntwOneCell, m: EntwOneCell) -> CorTwoCell:
    """Invertible 2-cell comc(p . m) => comc(p) . comc(m).

    Induced by p (x) m (x) a -> (p (x) 1_B) (x)_B (m (x) a).
    """
    if m.cod != p.dom:
        raise NotComposable("cells do not compose")
    from .entwcat import compose_one_cells

    lhs = comc_one_cell(compose_one_cells(p, m))
    cp = comc_one_cell(p)
    cm = comc_one_cell(m)
    rhs = compose_cor_one_cells(cp, cm)
    w = wtensor(leaf(cp.carrier), leaf(cm.carrier))
    fwd = compose(w.outer.projection,
                  kron(kron(p.dimM, p.dom.algebra.unit),
                       m.dimM * m.dom.algebra.dim))
    return CorTwoCell(lhs, rhs,
                      _iso_or_raise(fwd, "compositor is not invertible"))


def unitor_comparison(e: EntwObj) -> CorTwoCell:
    """Invertible 2-cell comc(id-cell on e) => identity coring 1-cell.

    Under strict unitors both carriers are the base algebra itself, so
    the comparison map is the identity matrix; its content is the zeta
    compatibility square, which check_cor_two_cell verifies.
    """
    lhs = comc_one_cell(identity_one_cell(e))
    rhs = identity_cor_one_cell(comc_obj(e))
    return CorTwoCell(lhs, rhs,
                      Matrix.identity(e.field, e.algebra.dim))


def _two_cell_space_entw(src: EntwOneCell, dst: EntwOneCell) -> Matrix:
    """Basis (as columns of vec theta) of the entwining 2-cell space."""
    field = src.field
    n, m = dst.dimM, src.dimM
    a = src.dom.algebra.dim
    c = src.dom.coalgebra.dim
    b = src.cod.algebra.dim
    d = src.cod.coalgebra.dim
    cols = []
    for u in range(n):
        for v in range(m):
            theta = Matrix.build(field, n, m,
                                 lambda i, j: 1 if (i, j) == (u, v) else 0)
            e1 = (compose(kron(theta, a), src.alpha)
                  - compose(dst.alpha, kron(b, theta)))
            e2 = (compose(kron(theta, c), src.gamma)
                  - compose(dst.gamma, kron(d, theta)))
            cols.append([x for row in e1.entries for x in row]
                        + [x for row in e2.entries for x in row])
    sys = Matrix(field, tuple(zip(*cols)), cols=n * m, _raw=True)
    return kernel_basis(sys)


def _two_cell_space_cor(src: CorOneCell, dst: CorOneCell) -> Matrix:
    """Basis of the coring 2-cell space between parallel 1-cells.

    The zeta square is imposed through the deterministic sections; on
    bimodule maps (forced by the other equations) this agrees with the
    canonical induced maps, so the kernel is the true 2-cell space.
    """
    field = src.zeta.field
    n, m = dst.carrier.dim, src.carrier.dim
    cC, cD = src.dom, src.cod
    ld, lc = leaf(cD.carrier), leaf(cC.carrier)
    w_dm1 = wtensor(ld, leaf(src.carrier))
    w_dm2 = wtensor(ld, leaf(dst.carrier))
    w_m1c = wtensor(leaf(src.carrier), lc)
    w_m2c = wtensor(leaf(dst.carrier), lc)
    cols = []
    for u in range(n):
        for v in range(m):
            y = Matrix.build(field, n, m,
                             lambda i, j: 1 if (i, j) == (u, v) else 0)
            e1 = (compose(y, src.carrier.lact)
                  - compose(dst.carrier.lact, kron(cD.base.dim, y)))
            e2 = (compose(y, src.carrier.ract)
                  - compose(dst.carrier.ract, kron(y, cC.base.dim)))
            dy = compose(w_dm2.outer.projection,
                         compose(kron(cD.carrier.dim, y), w_dm1.outer.section))
            yc = compose(w_m2c.outer.projection,
                         compose(kron(y, cC.carrier.dim), w_m1c.outer.section))
            e3 = compose(yc, src.zeta) - compose(dst.zeta, dy)
            cols.append([x for row in e1.entries for x in row]
                        + [x for row in e2.entries for x in row]
                        + [x for row in e3.entries for x in row])
    sys = Matrix(field, tuple(zip(*cols)), cols=n * m, _raw=True)
    return kernel_basis(sys)


def hom_dimension_report(src: EntwOneCell,
                         dst: EntwOneCell) -> Tuple[int, int, bool, bool]:
    """(entw hom dim, coring hom dim, injective, surjective) for theta -> theta (x) A.

    Both hom spaces are computed as kernels of the linear systems cut out
    by the defining squares; the tautological map tensors with the
    identity of A.
    """
    if src.dom != dst.dom or src.cod != dst.cod:
        raise NotParallel("1-cells are not parallel")
    field = src.field
    a = src.dom.algebra.dim
    basis_entw = _two_cell_space_entw(src, dst)
    basis_cor = _two_cell_space_cor(comc_one_cell(src), comc_one_cell(dst))
    dim_entw = basis_entw.cols
    dim_cor = basis_cor.cols
    n, m = dst.dimM, src.dimM
    image_cols = []
    for j in range(basis_entw.cols):
        theta = Matrix.build(field, n, m,
                             lambda i, k: basis_entw[i * m + k, j])
        img = kron(theta, a)
        image_cols.append([x for row in img.entries for x in row])
    if image_cols:
        image = Matrix(field, tuple(zip(*image_cols)),
                       cols=len(image_cols), _raw=True)
        img_rank = rank(image)
    else:
        img_rank = 0
    injective = img_rank == dim_entw
    surjective = img_rank == dim_cor
    return dim_entw, dim_cor, injective, surjective
