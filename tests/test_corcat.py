"""Corings over an algebra, their cells, and quotient-level coherence."""

from entwine.algstruct import (Bimodule, cyclic_group_bialgebra,
                               group_algebra, matrix_algebra)
from entwine.comc import comc_obj
from entwine.corcat import (Coring, CorOneCell, CorTwoCell, check_coring,
                            check_cor_one_cell, check_cor_two_cell,
                            compose_cor_one_cells, cor_associator,
                            cor_left_unitor, cor_right_unitor, hcomp_cor,
                            identity_cor_one_cell, identity_cor_two_cell,
                            leaf, trivial_coring, vcomp_cor, word_iso,
                            wtensor)
from entwine.entwcat import bialgebra_entwining
from entwine.exactlin import Matrix, QQ, compose, inverse


def c2_coring():
    return comc_obj(bialgebra_entwining(cyclic_group_bialgebra(QQ, 2)))


def bump(m, i, j):
    return Matrix.build(m.field, m.rows, m.cols,
                        lambda r, c: m[r, c] + (1 if (r, c) == (i, j) else 0))


class TestTensorWords:
    def test_leaf_presentations_trivial(self):
        a = group_algebra(QQ, 2)
        w = leaf(Bimodule(a, a, 2, a.mult, a.mult))
        assert w.full.projection == Matrix.identity(QQ, 2)

    def test_wtensor_quotient_dim(self):
        # [DERIVED] A (x)_A A has dim 2 over k[C2]
        a = group_algebra(QQ, 2)
        reg = Bimodule(a, a, 2, a.mult, a.mult)
        w = wtensor(leaf(reg), leaf(reg))
        assert w.module.dim == 2

    def test_word_iso_between_bracketings(self):
        a = group_algebra(QQ, 2)
        reg = Bimodule(a, a, 2, a.mult, a.mult)
        l = leaf(reg)
        left = wtensor(wtensor(l, l), l)
        right = wtensor(l, wtensor(l, l))
        iso = word_iso(left, right)
        assert inverse(iso) is not None
        assert compose(iso, left.full.projection) == right.full.projection

    def test_word_iso_pentagon(self):
        a = group_algebra(QQ, 2)
        reg = Bimodule(a, a, 2, a.mult, a.mult)
        l = leaf(reg)
        w2 = wtensor(l, l)
        shapes = [wtensor(wtensor(w2, l), l),
                  wtensor(wtensor(l, w2), l),
                  wtensor(l, wtensor(w2, l)),
                  wtensor(l, wtensor(l, w2)),
                  wtensor(w2, w2)]
        # the two routes ((ab)c)d -> a(b(cd)) agree exactly
        route1 = compose(word_iso(shapes[2], shapes[3]),
                         compose(word_iso(shapes[1], shapes[2]),
                                 word_iso(shapes[0], shapes[1])))
        route2 = compose(word_iso(shapes[4], shapes[3]),
                         word_iso(shapes[0], shapes[4]))
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
