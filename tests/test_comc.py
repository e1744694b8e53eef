"""The homomorphism into corings: objects, cells, pseudofunctor laws."""

import itertools

import pytest

from entwine.algstruct import (cyclic_group_bialgebra, group_algebra,
                               grouplike_coalgebra, matrix_algebra,
                               matrix_coalgebra)
from entwine.comc import (comc_obj, comc_one_cell, comc_two_cell,
                          composed_carrier, compositor,
                          hom_dimension_report, unitor_comparison,
                          zeta_ambient)
from entwine.cli import build_gallery
from entwine.corcat import (CorTwoCell, check_cor_one_cell,
                            check_cor_two_cell, check_coring, hcomp_cor,
                            identity_cor_one_cell, leaf, vcomp_cor, wtensor)
from entwine.entwcat import (EntwObj, EntwOneCell, EntwTwoCell,
                             bialgebra_entwining, check_two_cell,
                             compose_one_cells, flip_entwining, hcomp,
                             identity_one_cell, identity_two_cell,
                             morphism_one_cell, scalar_two_cell, vcomp)
from entwine.errors import DoesNotFactor, InvalidObject
from entwine.exactlin import FieldSpec, Matrix, QQ, compose, inverse, kron
from entwine.qtensor import induced_map


def bump(m, i, j):
    return Matrix.build(m.field, m.rows, m.cols,
                        lambda r, c: m[r, c] + (1 if (r, c) == (i, j) else 0))


def direct_sum(f, g):
    """f (+) g for parallel 1-cells with 1-dimensional carriers."""
    def block(x, y):
        return Matrix.build(
            x.field, 2 * x.rows, 2 * x.cols,
            lambda r, c: ((x, y)[r // x.rows][r % x.rows, c // 2]
                          if r // x.rows == c % 2 else 0))
    return EntwOneCell(f.dom, f.cod, 2, block(f.alpha, g.alpha),
                       block(f.gamma, g.gamma))


def c2_entwining():
    return bialgebra_entwining(cyclic_group_bialgebra(QQ, 2))


def swap_cell():
    e = flip_entwining(group_algebra(QQ, 2), grouplike_coalgebra(QQ, 2))
    swap = Matrix(QQ, [[0, 1], [1, 0]])
    return morphism_one_cell(e, e, Matrix.identity(QQ, 2), swap)


def gallery_one_cells():
    cells = {
        "id_flip_kC2_mc2": identity_one_cell(
            flip_entwining(group_algebra(QQ, 2), matrix_coalgebra(QQ, 2))),
        "id_flip_M2_gl3": identity_one_cell(
            flip_entwining(matrix_algebra(QQ, 2),
                           grouplike_coalgebra(QQ, 3))),
        "id_bialg_C1": identity_one_cell(
            bialgebra_entwining(cyclic_group_bialgebra(QQ, 1))),
        "id_bialg_C2": identity_one_cell(c2_entwining()),
        "id_bialg_C3": identity_one_cell(
            bialgebra_entwining(cyclic_group_bialgebra(QQ, 3))),
        "m_swap": swap_cell(),
    }
    e1 = flip_entwining(group_algebra(QQ, 1), grouplike_coalgebra(QQ, 2))
    cells["m_aug"] = morphism_one_cell(
        e1, swap_cell().dom, Matrix(QQ, [[1, 1]]), Matrix.identity(QQ, 2))
    return cells


class TestComposedCoring:
    def test_c2_coring_structure(self):
        # [PAPER] carrier A (x) C over A with Delta(a (x) c) =
        # (a (x) c_(1)) (x)_A (1 (x) c_(2)), eps = A (x) eps_C
        e = c2_entwining()
        cor = comc_obj(e)
        assert cor.base.dim == 2
        assert cor.carrier.dim == 4
        assert check_coring(cor).passed
        # counit sends g^i (x) g^j to counit(g^j) g^i = g^i
        assert cor.counit == Matrix(QQ, [[1, 1, 0, 0], [0, 0, 1, 1]])

    def test_right_action_twisted_by_psi(self):
        # [PAPER] (a (x) c).a' = a psi_1(c (x) a') (x) psi_2(c (x) a');
        # for grouplikes (g^i (x) g^j).g^k = g^(i+k) (x) g^(j+k)
        cor = comc_obj(c2_entwining())
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    src = (i * 2 + j) * 2 + k
                    dst = ((i + k) % 2) * 2 + (j + k) % 2
                    col = cor.carrier.ract.column(src)
                    for r in range(4):
                        assert col[r, 0] == (1 if r == dst else 0)

    def test_all_gallery_corings_pass(self):
        for name, f in gallery_one_cells().items():
            assert check_coring(comc_obj(f.dom)).passed, name

    def test_invalid_entwining_rejected(self):
        e = c2_entwining()
        broken = EntwObj(e.algebra, e.coalgebra, bump(e.psi, 0, 0))
        with pytest.raises(InvalidObject):
            comc_obj(broken)


class TestComcOneCell:
    def test_all_gallery_cells_pass(self):
        for name, f in gallery_one_cells().items():
            cell = comc_one_cell(f)
            assert check_cor_one_cell(cell).passed, name

    def test_identity_cell_matches_unit_coherences(self):
        # comc of the identity equals the canonical identity coring cell
        e = c2_entwining()
        lhs = comc_one_cell(identity_one_cell(e))
        rhs = identity_cor_one_cell(comc_obj(e))
        assert lhs.carrier == rhs.carrier
        assert lhs.zeta == rhs.zeta

    def test_hexagon_mutation_triggers_failure(self):
        # a 1-cell violating the hexagon must be caught: either the
        # factorization refuses or the output pentagon fails
        f = swap_cell()
        broken = EntwOneCell(f.dom, f.cod, 1, f.alpha,
                             bump(f.gamma, 0, 0))
        assert not check_one_cell_ok(broken)
        try:
            cell = comc_one_cell(broken)
        except DoesNotFactor:
            return
        assert not check_cor_one_cell(cell).passed

    def test_composition_preserved_up_to_compositor(self):
        f = swap_cell()
        comp = compositor(f, f)
        assert check_cor_two_cell(comp).passed
        assert inverse(comp.map) is not None


def check_one_cell_ok(f):
    from entwine.entwcat import check_one_cell
    return check_one_cell(f).passed


class TestWarningChains:
    """The paper's warning: truncating the common tail of the two 5-map

    chains breaks their equality; they agree only after the final
    quotient projection."""

    def setup_method(self):
        e = c2_entwining()
        f = identity_one_cell(e)
        a = e.algebra
        i2 = Matrix.identity(QQ, 2)
        i4 = Matrix.identity(QQ, 4)
        # middle B acting on M (x) A (through alpha, then mult)
        self.head1 = compose(kron(i4, a.mult),
                             kron(i4, kron(f.alpha, i2)))
        # middle B absorbed into B (x) D (through psi, then mult)
        self.head2 = compose(kron(a.mult, i4),
                             kron(i2, kron(e.psi, i2)))
        self.zbar = zeta_ambient(f)
        carrier = composed_carrier(f)
        w_mc = wtensor(leaf(carrier), leaf(comc_obj(e).carrier))
        self.nu2 = w_mc.outer.projection
        w_dm = wtensor(leaf(comc_obj(e).carrier), leaf(carrier))
        self.nu1 = w_dm.outer

    def test_truncated_chains_differ(self):
        assert self.head1 != self.head2

    def test_full_chains_differ_before_nu2(self):
        # the auxiliary map alone does not balance the middle B
        assert compose(self.zbar, self.head1) != \
            compose(self.zbar, self.head2)
        with pytest.raises(DoesNotFactor):
            induced_map(self.zbar, self.nu1)

    def test_full_chains_agree_after_nu2(self):
        lhs = compose(compose(self.nu2, self.zbar), self.head1)
        rhs = compose(compose(self.nu2, self.zbar), self.head2)
        assert lhs == rhs
        # and therefore the projected map factors through nu1
        induced_map(compose(self.nu2, self.zbar), self.nu1)


class TestTwoCellFunctor:
    def test_gallery_two_cells_pass(self):
        f = swap_cell()
        for t in (identity_two_cell(f), scalar_two_cell(3, f)):
            assert check_cor_two_cell(comc_two_cell(t)).passed

    def test_vcomp_preserved(self):
        f = swap_cell()
        t2 = scalar_two_cell(2, f)
        t3 = scalar_two_cell(3, f)
        lhs = comc_two_cell(vcomp(t3, t2)).map
        rhs = vcomp_cor(comc_two_cell(t3), comc_two_cell(t2)).map
        assert lhs == rhs

    def test_hcomp_preserved_up_to_compositor(self):
        f = swap_cell()
        t2 = scalar_two_cell(2, f)
        t3 = scalar_two_cell(3, f)
        ch = comc_two_cell(hcomp(t3, t2))
        lhs = vcomp_cor(compositor(t3.cod, t2.cod), ch).map
        rhs = vcomp_cor(hcomp_cor(comc_two_cell(t3), comc_two_cell(t2)),
                        compositor(t3.dom, t2.dom)).map
        assert lhs == rhs

    def test_injective_not_surjective(self):
        # [DERIVED] the swap cell hom-space: dim 1 upstairs, dim 2 in
        # corings -- the functor is injective but not surjective
        f = swap_cell()
        de, dc, inj, surj = hom_dimension_report(f, f)
        assert (de, dc) == (1, 2)
        assert inj and not surj

    @pytest.mark.parametrize("p", [3, 5])
    def test_hom_dimensions_match_brute_force(self, p):
        # every matrix over GF(p) is tried against the checkers; the
        # solver must find exactly p^dim solutions on each side
        def all_maps(rows, cols):
            for vals in itertools.product(range(p), repeat=rows * cols):
                yield Matrix(field, [vals[i * cols:(i + 1) * cols]
                                     for i in range(rows)])

        field = FieldSpec("prime", p)
        cells = build_gallery(field).one_cells
        # 2-dim carriers whose summands differ only in alpha, only in gamma
        aug = cells["m_aug"]
        for name, alpha, gamma in (
                ("aug+swap", aug.alpha, Matrix(field, [[0, 1], [1, 0]])),
                ("aug+sign", Matrix(field, [[1, -1]]), aug.gamma)):
            other = morphism_one_cell(aug.dom, aug.cod, alpha, gamma)
            cells[name] = direct_sum(aug, other)
            assert check_one_cell_ok(cells[name]), name
        cases = 0
        for name, f in cells.items():
            cf = comc_one_cell(f)
            n = cf.carrier.dim
            if n > 2:
                continue
            cases += 1
            de, dc, _, _ = hom_dimension_report(f, f)
            n_entw = sum(check_two_cell(EntwTwoCell(f, f, t)).passed
                         for t in all_maps(f.dimM, f.dimM))
            n_cor = sum(check_cor_two_cell(CorTwoCell(cf, cf, y)).passed
                        for y in all_maps(n, n))
            assert (n_entw, n_cor) == (p ** de, p ** dc), name
        assert cases == 9

    def test_injective_on_gallery(self):
        for name, f in gallery_one_cells().items():
            de, dc, inj, _ = hom_dimension_report(f, f)
            assert inj, name
            assert de <= dc, name


class TestPseudofunctorLaws:
    def test_unitor_comparison_all_gallery(self):
        for name, f in gallery_one_cells().items():
            u = unitor_comparison(f.dom)
            assert inverse(u.map) is not None, name
            assert check_cor_two_cell(u).passed, name

    def test_compositor_naturality(self):
        f = swap_cell()
        t = scalar_two_cell(5, f)
        it = identity_two_cell(f)
        lhs = vcomp_cor(hcomp_cor(comc_two_cell(t), comc_two_cell(it)),
                        compositor(f, f)).map
        rhs = vcomp_cor(compositor(f, f),
                        comc_two_cell(hcomp(t, it))).map
        assert lhs == rhs

    def test_triple_coherence(self):
        from entwine.corcat import cor_associator, identity_cor_two_cell
        f = swap_cell()
        g = identity_one_cell(f.dom)
        triples = [(f, g, f), (f, f, f), (g, f, g)]
        for q, p, m in triples:
            cq, cp, cm = (comc_one_cell(x) for x in (q, p, m))
            lhs = vcomp_cor(
                hcomp_cor(compositor(q, p), identity_cor_two_cell(cm)),
                compositor(compose_one_cells(q, p), m))
            rhs = vcomp_cor(
                cor_associator(cq, cp, cm),
                vcomp_cor(hcomp_cor(identity_cor_two_cell(cq),
                                    compositor(p, m)),
                          compositor(q, compose_one_cells(p, m))))
            assert lhs.map == rhs.map
