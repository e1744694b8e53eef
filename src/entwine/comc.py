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
                     compose_cor_one_cells, leaf, module_map_squares,
                     wtensor, zeta_square)
from .entwcat import (EntwObj, EntwOneCell, EntwTwoCell, check_obj,
                      check_two_cell, identity_one_cell, two_cell_squares)
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


def _vec(m: Matrix) -> list:
    """The entries of m, row-major."""
    return [x for row in m.entries for x in row]


def _columns(field, vecs: list) -> Matrix:
    """The matrix whose columns are ``vecs``."""
    return Matrix(field, tuple(zip(*vecs)), cols=len(vecs), _raw=True)


def _maps(basis: Matrix, rows: int, cols: int) -> list:
    """The columns of ``basis``, read row-major as rows x cols maps."""
    return [Matrix(basis.field, tuple(v[i * cols:(i + 1) * cols]
                                      for i in range(rows)),
                   cols=cols, _raw=True)
            for v in basis.transpose().entries]


def _solve_squares(basis: Matrix, rows: int, cols: int, squares) -> Matrix:
    """The part of span(basis) on which every square of ``squares(y)`` holds.

    ``basis`` holds rows x cols maps as row-major columns.  Every square
    is linear in y, so lhs - rhs of each square, evaluated on each basis
    map and flattened, is one column of a linear system; its kernel picks
    the solutions, returned in the same form.
    """
    system = _columns(basis.field, [
        [x for _, lhs, rhs in squares(y) for x in _vec(lhs - rhs)]
        for y in _maps(basis, rows, cols)])
    return compose(basis, kernel_basis(system))


def hom_dimension_report(src: EntwOneCell,
                         dst: EntwOneCell) -> Tuple[int, int, bool, bool]:
    """(entw hom dim, coring hom dim, injective, surjective) for theta -> theta (x) A.

    Both hom spaces are the solution spaces of the squares the 2-cell
    checkers evaluate; the tautological map tensors with the identity of
    A.
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
    cor = _solve_squares(bimod, cn, cm,
                         lambda y: zeta_square(csrc, cdst, y))
    img_rank = rank(_columns(field, [_vec(kron(t, src.dom.algebra.dim))
                                     for t in _maps(entw, n, m)]))
    return entw.cols, cor.cols, img_rank == entw.cols, img_rank == cor.cols
