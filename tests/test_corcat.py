"""Corings over an algebra, their cells, and quotient-level coherence."""

from entwine.algstruct import (Bimodule, cyclic_group_bialgebra,
                               group_algebra, matrix_algebra)
from entwine.cli import _composable_pairs, build_gallery
from entwine.comc import comc_obj, comc_one_cell
from entwine.corcat import (Coring, CorOneCell, CorTwoCell, check_coring,
                            check_cor_one_cell, check_cor_two_cell,
                            compose_cor_one_cells, cor_associator,
                            cor_left_unitor, cor_right_unitor, hcomp_cor,
                            identity_cor_one_cell, identity_cor_two_cell,
                            trivial_coring, vcomp_cor, word_iso, wtensor)
from entwine.entwcat import bialgebra_entwining
from entwine.exactlin import FieldSpec, Matrix, QQ, compose, inverse, kron
from entwine.qtensor import descend


def c2_coring():
    return comc_obj(bialgebra_entwining(cyclic_group_bialgebra(QQ, 2)))


def bump(m, i, j):
    return Matrix.build(m.field, m.rows, m.cols,
                        lambda r, c: m[r, c] + (1 if (r, c) == (i, j) else 0))


def associator_equation(x, y, z):
    """(lhs, rhs) of the defining equation of word_iso(x, y, z), both
    maps on the flat x (x) y (x) z, written out with dense kron."""
    xy, yz = wtensor(x, y), wtensor(y, z)
    p_xy_z = wtensor(xy.module, z).outer.projection
    p_x_yz = wtensor(x, yz.module).outer.projection
    lhs = compose(word_iso(x, y, z),
                  compose(p_xy_z, kron(xy.outer.projection, z.dim)))
    rhs = compose(p_x_yz, kron(x.dim, yz.outer.projection))
    return lhs, rhs


def checker_triples(field):
    """Every factor triple whose associator the coring checkers use, on
    the comc images of the gallery over ``field``."""
    ws = build_gallery(field)
    triples = []
    for e in ws.entwinings.values():
        c = comc_obj(e).carrier
        triples.append((c, c, c))
    for f in ws.one_cells.values():
        cell = comc_one_cell(f)
        d, m, c = cell.cod.carrier, cell.carrier, cell.dom.carrier
        triples += [(d, d, m), (d, m, c), (m, c, c)]
    for _, p, _, m in _composable_pairs(ws):
        cp, cm = comc_one_cell(p), comc_one_cell(m)
        e, pc, d = cp.cod.carrier, cp.carrier, cp.dom.carrier
        mc, c = cm.carrier, cm.dom.carrier
        triples += [(e, pc, mc), (pc, d, mc), (pc, mc, c)]
    return triples


class TestTensorWords:
    def test_wtensor_quotient_dim(self):
        # [DERIVED] A (x)_A A has dim 2 over k[C2]
        a = group_algebra(QQ, 2)
        reg = Bimodule(a, a, 2, a.mult, a.mult)
        w = wtensor(reg, reg)
        assert w.module.dim == 2

    def test_word_iso_between_bracketings(self):
        # the associator of every triple the checkers use, over Q and
        # GF(5), against its defining equation
        for field in (QQ, FieldSpec("prime", 5)):
            for x, y, z in checker_triples(field):
                lhs, rhs = associator_equation(x, y, z)
                assert lhs == rhs

    def test_word_iso_pentagon(self):
        # Mac Lane's pentagon ((wx)y)z -> w(x(yz)) on four copies of a
        # coring carrier; a whiskered associator is descended from kron
        c = c2_coring().carrier
        n = c.dim
        cc = wtensor(c, c).module
        cc_c = wtensor(cc, c).module
        c_cc = wtensor(c, cc).module

        def whisker(f, src, dst):
            return descend(f, wtensor(*src).outer, wtensor(*dst).outer)

        route1 = compose(word_iso(c, c, cc), word_iso(cc, c, c))
        route2 = compose(
            whisker(kron(n, word_iso(c, c, c)), (c, cc_c), (c, c_cc)),
            compose(word_iso(c, cc, c),
                    whisker(kron(word_iso(c, c, c), n), (cc_c, c),
                            (c_cc, c))))
        assert route1 == route2


class TestCorings:
    def test_trivial_coring_passes(self):
        for a in (group_algebra(QQ, 1), group_algebra(QQ, 2),
                  matrix_algebra(QQ, 2)):
            assert check_coring(trivial_coring(a)).passed

    def test_c2_composed_coring_passes(self):
        cor = c2_coring()
        assert cor.carrier.dim == 4
        assert check_coring(cor).passed

    def test_mutated_comult_fails(self):
        cor = c2_coring()
        bad = Coring(cor.base, cor.carrier, bump(cor.comult, 0, 0),
                     cor.counit)
        assert not check_coring(bad).passed

    def test_mutated_counit_fails(self):
        cor = c2_coring()
        bad = Coring(cor.base, cor.carrier, cor.comult,
                     bump(cor.counit, 0, 1))
        assert not check_coring(bad).passed

    def test_report_axioms(self):
        rep = check_coring(trivial_coring(group_algebra(QQ, 2)))
        assert "coassociativity" in rep.axioms
        assert "left counit law" in rep.axioms


class TestCorCells:
    def test_identity_cell_passes(self):
        for cor in (trivial_coring(group_algebra(QQ, 2)), c2_coring()):
            cell = identity_cor_one_cell(cor)
            assert check_cor_one_cell(cell).passed

    def test_mutated_zeta_fails(self):
        cell = identity_cor_one_cell(c2_coring())
        bad = CorOneCell(cell.dom, cell.cod, cell.carrier,
                         bump(cell.zeta, 0, 0))
        assert not check_cor_one_cell(bad).passed

    def test_composition_closure(self):
        cell = identity_cor_one_cell(c2_coring())
        comp = compose_cor_one_cells(cell, cell)
        assert check_cor_one_cell(comp).passed

    def test_two_cell_identity(self):
        cell = identity_cor_one_cell(c2_coring())
        t = identity_cor_two_cell(cell)
        assert check_cor_two_cell(t).passed

    def test_two_cell_random_map_fails(self):
        cell = identity_cor_one_cell(c2_coring())
        bad = CorTwoCell(cell, cell, bump(Matrix.identity(QQ, 2), 0, 1))
        assert not check_cor_two_cell(bad).passed

    def test_vcomp_hcomp(self):
        cell = identity_cor_one_cell(c2_coring())
        t = identity_cor_two_cell(cell)
        assert check_cor_two_cell(vcomp_cor(t, t)).passed
        assert check_cor_two_cell(hcomp_cor(t, t)).passed


class TestCorCoherence:
    def test_associator_invertible_and_valid(self):
        cell = identity_cor_one_cell(c2_coring())
        a = cor_associator(cell, cell, cell)
        assert inverse(a.map) is not None
        assert check_cor_two_cell(a).passed

    def test_unitors_invertible_and_valid(self):
        cell = identity_cor_one_cell(c2_coring())
        for u in (cor_left_unitor(cell), cor_right_unitor(cell)):
            assert inverse(u.map) is not None
            assert check_cor_two_cell(u).passed

    def test_unitor_triangle(self):
        # l and r agree on the identity cell: both collapse to the carrier
        cell = identity_cor_one_cell(c2_coring())
        lu = cor_left_unitor(cell)
        ru = cor_right_unitor(cell)
        assert lu.cod == ru.cod == cell
