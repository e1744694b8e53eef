"""The composed-coring homomorphism from entwinings to corings.

An entwining (A, C, psi) yields the coring A (x) C; a 1-cell (M, alpha,
gamma) yields the bimodule M (x) A with a structure map zeta obtained by
factoring an auxiliary ambient map through the quotient tensor — the
factorization is where the hexagon and pentagon axioms are consumed, so
it is checked, never assumed.  Compositor and unitor 2-cells make the
assignment a homomorphism of bicategories in the pseudo sense.
"""

from __future__ import annotations

from .algstruct import Bimodule
from .corcat import (Coring, CorOneCell, CorTwoCell, _plain_module_square,
                     identity_cor_one_cell, compose_cor_one_cells,
                     module_map_squares, wtensor, zeta_square)
from .entwcat import (EntwObj, EntwOneCell, EntwTwoCell, check_obj,
                      check_two_cell, compose_one_cells, identity_one_cell,
                      two_cell_squares)
from .errors import InvalidObject, InvalidTwoCell, NotParallel
from .exactlin import (Matrix, compose, kernel_basis, kron, memoised, rank,
                       stack)
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


def _units(field, rows: int, cols: int) -> list:
    """The rows x cols matrix units, in row-major order."""
    one = Matrix.identity(field, rows * cols)
    return [one.column(t).reshape(rows, cols) for t in range(rows * cols)]


def _solve_squares(maps: list, squares) -> list:
    """Maps spanning the part of span(maps) on which every square of
    ``squares(y)`` holds, [] for no maps.  Every square is linear in y, so
    lhs - rhs of each, evaluated on each map and flattened, is one column
    of a linear system; each kernel vector combines the maps into one
    solution."""
    if not maps:
        return []
    field, (rows, cols) = maps[0].field, maps[0].shape
    system = stack(field, [[lhs - rhs for _, lhs, rhs in squares(y)]
                           for y in maps])
    solutions = compose(stack(field, [[y] for y in maps]),
                        kernel_basis(system))
    return [solutions.column(j).reshape(rows, cols)
            for j in range(solutions.cols)]


def _bimodule_start(x: Bimodule, y: Bimodule, dim_m: int) -> list:
    """Independent maps spanning every right A-linear x -> y, A = x.right,
    for composed carriers x = M (x) A, dim M = ``dim_m``, and y = N (x) A:
    y.ract . (E (x) A), E the dim y x dim M matrix units, if x.ract is the
    whisker M (x) mult and A is unital (x is then free on M (x) 1), else
    the matrix units."""
    a = x.right
    one = Matrix.identity(a.field, a.dim)
    if x.ract == kron(dim_m, a.mult) and compose(
            a.mult, kron(a.unit, a.dim)) == one == compose(
                a.mult, kron(a.dim, a.unit)):
        return [compose(y.ract, kron(e, a.dim))
                for e in _units(a.field, y.dim, dim_m)]
    return _units(a.field, y.dim, x.dim)


def hom_dimension_report(src: EntwOneCell,
                         dst: EntwOneCell) -> tuple[int, int, bool, bool]:
    """(entw hom dim, coring hom dim, injective, surjective) of comc_two_cell.

    Both hom spaces are the solution spaces of the squares the 2-cell
    checkers evaluate, solved as lists of maps from the matrix units, the
    bimodule maps from ``_bimodule_start`` (their squares kept out of the
    session memo) and the coring 2-cells from the bimodule maps; the map
    between them is ``comc_two_cell`` itself, run on the entwining
    solutions.
    """
    if src.dom != dst.dom or src.cod != dst.cod:
        raise NotParallel("1-cells are not parallel")
    field = src.field
    entw = _solve_squares(_units(field, dst.dimM, src.dimM),
                          lambda t: two_cell_squares(src, dst, t))
    csrc, cdst = comc_one_cell(src), comc_one_cell(dst)
    x, y = csrc.carrier, cdst.carrier
    bimod = _solve_squares(_bimodule_start(x, y, src.dimM), lambda f: (
        module_map_squares("", f, x, y, _plain_module_square)))
    # zeta_square descends y, which is well defined on bimodule maps only
    cor = _solve_squares(bimod, lambda y: [
        ("zeta square", *zeta_square(csrc, cdst, y))])
    img_rank = rank(stack(field, [
        [comc_two_cell(EntwTwoCell(src, dst, t)).map] for t in entw]))
    return len(entw), len(cor), img_rank == len(entw), img_rank == len(cor)
