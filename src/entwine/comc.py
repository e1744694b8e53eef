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
                     compose_cor_one_cells, module_map_squares,
                     wtensor, zeta_square)
from .entwcat import (EntwObj, EntwOneCell, EntwTwoCell, check_obj,
                      check_two_cell, compose_one_cells, identity_one_cell,
                      two_cell_squares)
from .errors import InvalidObject, InvalidTwoCell, NotParallel
from .exactlin import (Matrix, _sparse_columns, _wrap, compose,
                       kernel_basis, kron, memoised, rank)
from .qtensor import _iso_or_raise, descend


def composed_carrier(f: EntwOneCell) -> Bimodule:
    """M (x) A as a B-A-bimodule, B acting through alpha."""
    a = f.dom.algebra
    lact = compose(kron(f.dimM, a.mult), kron(f.alpha, a.dim))
    ract = kron(f.dimM, a.mult)
    return Bimodule(f.cod.algebra, a, f.dimM * a.dim, lact, ract)


@memoised
def comc_obj(e: EntwObj) -> Coring:
    """The composed coring A (x) C over A."""
    rep = check_obj(e)
    if not rep.passed:
        raise InvalidObject(f"not an entwining: {rep}")
    a, c = e.algebra, e.coalgebra
    lact = kron(a.mult, c.dim)
    ract = compose(kron(a.mult, c.dim), kron(a.dim, e.psi))
    carrier = Bimodule(a, a, a.dim * c.dim, lact, ract)
    w2 = wtensor(carrier, carrier)
    # a (x) c (x) c' -> (a (x) c) (x)_A (1 (x) c')
    insert_unit = kron(a.dim * c.dim, kron(a.unit, c.dim))
    comult = compose(w2.outer.projection, insert_unit, kron(a.dim, c.comult))
    counit = kron(a.dim, c.counit)
    return Coring(a, carrier, comult, counit)


def zeta_ambient(f: EntwOneCell) -> Matrix:
    """The auxiliary map on B (x) D (x) M (x) A, before any quotient."""
    return compose(kron(f.alpha, f.dom.psi),
                   kron(f.cod.algebra.dim, kron(f.gamma, f.dom.algebra.dim)))


@memoised
def comc_one_cell(f: EntwOneCell) -> CorOneCell:
    """(M, alpha, gamma) -> (M (x) A, zeta).

    Raises DoesNotFactor when the auxiliary map fails to balance over B.
    That is no test of the axioms: on flip_kC2_gl2 over GF(3) only cells
    failing the alpha-pentagon raise, while a cell failing just the
    gamma-pentagon (counit triangle) factors and its image then fails the
    street pentagon (counit compatibility) of check_cor_one_cell.
    The auxiliary map balances only after the target is also passed to
    its quotient (see the two 5-map chains: truncating the common tail
    breaks the equality), so ``descend`` is given that quotient as its
    target.
    """
    dom_cor = comc_obj(f.dom)
    cod_cor = comc_obj(f.cod)
    carrier = composed_carrier(f)
    w_dm = wtensor(cod_cor.carrier, carrier)
    w_mc = wtensor(carrier, dom_cor.carrier)
    zeta = descend(zeta_ambient(f), w_dm.outer, w_mc.outer)
    return CorOneCell(dom=dom_cor, cod=cod_cor, carrier=carrier, zeta=zeta)


def comc_two_cell(t: EntwTwoCell) -> CorTwoCell:
    """theta -> theta (x) A."""
    rep = check_two_cell(t)
    if not rep.passed:
        raise InvalidTwoCell(str(rep))
    return CorTwoCell(comc_one_cell(t.dom), comc_one_cell(t.cod),
                      kron(t.theta, t.dom.dom.algebra.dim))


@memoised
def compositor(p: EntwOneCell, m: EntwOneCell) -> CorTwoCell:
    """Invertible 2-cell comc(p . m) => comc(p) . comc(m).

    Induced by p (x) m (x) a -> (p (x) 1_B) (x)_B (m (x) a).
    """
    lhs = comc_one_cell(compose_one_cells(p, m))
    cp, cm = comc_one_cell(p), comc_one_cell(m)
    rhs = compose_cor_one_cells(cp, cm)
    w = wtensor(cp.carrier, cm.carrier)
    fwd = compose(w.outer.projection,
                  kron(kron(p.dimM, p.dom.algebra.unit),
                       m.dimM * m.dom.algebra.dim))
    return CorTwoCell(lhs, rhs,
                      _iso_or_raise(fwd, "compositor is not invertible"))


def unitor_comparison(e: EntwObj) -> CorTwoCell:
    """Invertible 2-cell comc(id-cell on e) => identity coring 1-cell.

    With identity unitors both carriers are the base algebra itself, so
    the comparison map is the identity matrix; its content is the zeta
    compatibility square, which check_cor_two_cell verifies.
    """
    lhs = comc_one_cell(identity_one_cell(e))
    rhs = identity_cor_one_cell(comc_obj(e))
    return CorTwoCell(lhs, rhs,
                      Matrix.identity(e.field, e.algebra.dim))


def _columns(field, vecs: list) -> Matrix:
    """The matrix whose column t holds the entries of the matrices
    ``vecs[t]``, each read row-major, one after the other."""
    cols, n = [], 0
    for ms in vecs:
        v, n = {}, 0
        for m in ms:
            for j, col in enumerate(_sparse_columns(m)):
                for i, x in col.items():
                    v[n + i * m.cols + j] = x
            n += m.rows * m.cols
        cols.append(v)
    return _wrap(field, n, cols)


def _maps(basis: Matrix, rows: int, cols: int) -> list:
    """The columns of ``basis``, read row-major as rows x cols maps."""
    maps = []
    for v in _sparse_columns(basis):
        m = [{} for _ in range(cols)]
        for flat, x in v.items():
            i, j = divmod(flat, cols)
            m[j][i] = x
        maps.append(_wrap(basis.field, rows, m))
    return maps


def _solve_squares(basis: Matrix, rows: int, cols: int, squares) -> Matrix:
    """The part of span(basis) on which every square of ``squares(y)`` holds.

    ``basis`` holds rows x cols maps as row-major columns.  Every square
    is linear in y, so lhs - rhs of each square, evaluated on each basis
    map and flattened, is one column of a linear system; its kernel picks
    the solutions, returned in the same form.
    """
    system = _columns(basis.field, [[lhs - rhs for _, lhs, rhs in squares(y)]
                                    for y in _maps(basis, rows, cols)])
    return compose(basis, kernel_basis(system))


def hom_dimension_report(src: EntwOneCell,
                         dst: EntwOneCell) -> Tuple[int, int, bool, bool]:
    """(entw hom dim, coring hom dim, injective, surjective) for theta -> theta (x) A.

    Both hom spaces are the solution spaces of the squares the 2-cell
    checkers evaluate; the map between them is ``comc_two_cell`` itself,
    run on a basis of the first.
    """
    if src.dom != dst.dom or src.cod != dst.cod:
        raise NotParallel("1-cells are not parallel")
    field = src.field
    n, m = dst.dimM, src.dimM
    entw = _solve_squares(Matrix.identity(field, n * m), n, m,
                          lambda t: two_cell_squares(src, dst, t))
    csrc, cdst = comc_one_cell(src), comc_one_cell(dst)
    cn, cm = cdst.carrier.dim, csrc.carrier.dim
    bimod = _solve_squares(
        Matrix.identity(field, cn * cm), cn, cm,
        lambda y: module_map_squares("", y, csrc.carrier, cdst.carrier))
    # zeta_square descends y, which is well defined on bimodule maps only
    cor = _solve_squares(bimod, cn, cm, lambda y: [
        ("zeta square", *zeta_square(csrc, cdst, y))])
    img_rank = rank(_columns(field, [
        [comc_two_cell(EntwTwoCell(src, dst, t)).map]
        for t in _maps(entw, n, m)]))
    return entw.cols, cor.cols, img_rank == entw.cols, img_rank == cor.cols
