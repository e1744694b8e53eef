"""The homomorphism into corings: objects, cells, pseudofunctor laws."""

import itertools
import time
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest

from entwine import comc, corcat
from entwine.algstruct import (Algebra, Bimodule, Coalgebra, check_algebra,
                               cyclic_group_bialgebra, group_algebra,
                               grouplike_coalgebra, matrix_algebra,
                               matrix_coalgebra, regular_bimodule)
from entwine.comc import (_bimodule_start, _solve_squares, _units,
                          comc_obj, comc_one_cell,
                          comc_two_cell, composed_carrier, compositor,
                          hom_dimension_report, unitor_comparison,
                          zeta_ambient)
from entwine.cli import build_gallery
from entwine.corcat import (CorTwoCell, check_cor_one_cell,
                            check_cor_two_cell, check_coring, hcomp_cor,
                            identity_cor_one_cell, module_map_squares,
                            vcomp_cor, wtensor)
from entwine.entwcat import (EntwObj, EntwOneCell, EntwTwoCell,
                             bialgebra_entwining, check_obj, check_one_cell,
                             check_two_cell,
                             compose_one_cells, flip_entwining, hcomp,
                             identity_one_cell, identity_two_cell,
                             morphism_one_cell, scalar_two_cell, vcomp)
from entwine.errors import DoesNotFactor, InvalidObject, NotInvertible
from entwine.exactlin import (FieldSpec, Matrix, QQ, compose, inverse,
                              kron, rank, stack)
from entwine.qtensor import descend


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


def mm(f, g):
    """Plain Fraction matrix product of row lists."""
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0))
             for col in zip(*g)] for row in f]


def kr(f, g):
    """Plain Kronecker product: kr(f, g)[i*rg + j][k*cg + l] = f[i][k] g[j][l]."""
    return [[a * b for a in frow for b in grow]
            for frow in f for grow in g]


class TestFractionalBasis:
    """flip(kC2, gl2) moved to a basis with |det| = 2, so every structure
    matrix has non-integral entries: the composed coring and its identity
    1-cell still pass, and a bumped psi entry fails the counit triangle."""

    # kC2 on (e, g), gl2 on two grouplikes, psi : C (x) A -> A (x) C the flip
    MULT = [[1, 0, 0, 1], [0, 1, 1, 0]]
    UNIT = [[1], [0]]
    COMULT = [[1, 0], [0, 0], [0, 0], [0, 1]]
    COUNIT = [[1, 1]]
    PSI = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    # S acts on A and T on C; both have |det| = 2
    S = [[2, 2], [2, 1]]
    S_INV = [[Fraction(-1, 2), 1], [1, -1]]
    T = [[2, 1], [0, 1]]
    T_INV = [[Fraction(1, 2), Fraction(-1, 2)], [0, 1]]

    def twisted(self, bump=0):
        """(A', C', psi') = the flip in the bases S and T, with ``bump``
        added to psi'[0][0] (coalgebra index 0, whose counit is 1/2)."""
        s, si, t, ti = self.S, self.S_INV, self.T, self.T_INV
        assert mm(s, si) == mm(t, ti) == [[1, 0], [0, 1]]
        mult = mm(mm(s, self.MULT), kr(si, si))
        unit = mm(s, self.UNIT)
        comult = mm(mm(kr(t, t), self.COMULT), ti)
        counit = mm(self.COUNIT, ti)
        psi = mm(mm(kr(s, t), self.PSI), kr(ti, si))
        psi[0][0] += bump
        assert counit == [[Fraction(1, 2), Fraction(1, 2)]]
        return EntwObj(Algebra(2, Matrix(QQ, mult), Matrix(QQ, unit)),
                       Coalgebra(2, Matrix(QQ, comult), Matrix(QQ, counit)),
                       Matrix(QQ, psi))

    def test_base_data_is_the_gallery_flip(self):
        e = flip_entwining(group_algebra(QQ, 2), grouplike_coalgebra(QQ, 2))
        assert (e.algebra.mult, e.algebra.unit, e.coalgebra.comult,
                e.coalgebra.counit, e.psi) == tuple(
            Matrix(QQ, m) for m in (self.MULT, self.UNIT, self.COMULT,
                                    self.COUNIT, self.PSI))

    def test_composed_coring_and_identity_cell_pass(self):
        start = time.perf_counter()
        e = self.twisted()
        # the flip is natural, so psi stays the flip; grouplike comult stays
        # integral in these bases, mult and counit do not
        for m in (e.algebra.mult, e.coalgebra.counit):
            assert any(isinstance(x, Fraction) for row in m.entries
                       for x in row)
        assert check_obj(e).passed
        assert check_coring(comc_obj(e)).passed
        assert check_cor_one_cell(
            comc_one_cell(identity_one_cell(e))).passed
        assert time.perf_counter() - start < 2

    def test_bumped_psi_fails_the_counit_triangle(self):
        rep = check_obj(self.twisted(bump=1))
        assert "E4-counit-triangle" in {f.axiom for f in rep.failures}

    def test_hom_solver_on_the_identity_cell(self):
        # the dimensions are id_flip_kC2_gl2's.  The free start reads every
        # system of this cell over den 1; from the matrix units, the
        # fallback start, the module squares of the fractional carrier
        # meet in one system over several denominators, and span the same
        # bimodule maps
        f, seen, columns = identity_one_cell(self.twisted()), [], stack
        x = comc_one_cell(f).carrier

        def recording(field, vecs):
            seen.append({m.den for ms in vecs for m in ms})
            return columns(field, vecs)

        with mock.patch.object(comc, "stack", recording):
            assert_hom_bases(f, f, GALLERY_HOM_DIMENSIONS[
                "id_flip_kC2_gl2", "id_flip_kC2_gl2"], "fractional id")
            bimod = hom_bases(f, f)[1][1]
            from_units = _solve_squares(
                _units(QQ, x.dim, x.dim),
                lambda y: module_map_squares("", y, x, x))
        assert max(map(len, seen)) > 1
        assert rank(stack(QQ, [[y] for y in bimod + from_units])) == len(
            bimod) == len(from_units)


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

    @pytest.mark.parametrize("alpha, gamma, axiom, cor_axiom", [
        ([[1, 0], [0, 0]], [[0, 0], [1, 1]], "alpha-pentagon", None),
        ([[1, 0], [0, 1]], [[0, 2], [1, 2]], "gamma-pentagon",
         "street pentagon"),
        ([[1, 0], [0, 1]], [[0, 0], [0, 0]], "counit-triangle",
         "counit compatibility"),
    ], ids=["alpha-pentagon", "gamma-pentagon", "counit-triangle"])
    def test_factoring_does_not_decide_the_axioms(self, alpha, gamma, axiom,
                                                  cor_axiom):
        # over GF(3) on flip_kC2_gl2, a cell failing one axiom: only the
        # alpha-pentagon stops the factorization; the others factor and
        # fail a coring 1-cell law instead
        gf3 = FieldSpec("prime", 3)
        e = flip_entwining(group_algebra(gf3, 2), grouplike_coalgebra(gf3, 2))
        f = EntwOneCell(e, e, 1, Matrix(gf3, alpha), Matrix(gf3, gamma))
        assert [x.axiom for x in check_one_cell(f).failures] == [axiom]
        if cor_axiom is None:
            with pytest.raises(DoesNotFactor):
                comc_one_cell(f)
        else:
            failures = check_cor_one_cell(comc_one_cell(f)).failures
            assert [x.axiom for x in failures] == [cor_axiom]

    def test_composition_preserved_up_to_compositor(self):
        f = swap_cell()
        comp = compositor(f, f)
        assert check_cor_two_cell(comp).passed
        assert inverse(comp.map) is not None


# every endo-1-cell with dimM = 1 on flip_kC2_gl2 over GF(2), alpha and
# gamma each one of the 16 2x2 matrices: (axioms check_one_cell fails,
# laws check_cor_one_cell fails on the image, or DoesNotFactor) -> cells
AP, GP = "alpha-pentagon", "gamma-pentagon"
UT, CT = "unit-triangle", "counit-triangle"
CC = "counit compatibility"
NO_MAP = f"{CC} (map does not vanish on the relation span)"
NO_UNIT = f"{CC} (unit coherence (2, 0) is not invertible)"
GF2_CENSUS = {
    ((), ()): 8,
    ((AP,), DoesNotFactor): 8,
    ((AP, UT), DoesNotFactor): 44,
    ((AP, CT), DoesNotFactor): 8,
    ((AP, CT), (NO_MAP,)): 2,
    ((AP, UT, CT), DoesNotFactor): 44,
    ((AP, UT, CT), (NO_MAP,)): 11,
    ((AP, GP, CT), DoesNotFactor): 14,
    ((AP, GP, UT, CT), DoesNotFactor): 77,
    ((GP, CT), ("street pentagon", CC)): 14,
    ((GP, UT, CT), (NO_UNIT,)): 7,
    ((UT,), (NO_UNIT,)): 4,
    ((UT, CT), (NO_UNIT,)): 5,
    ((CT,), (CC,)): 10,
}


class TestCensus:
    def test_gf2_endo_cells_reflect_validity(self):
        # the homomorphism reflects validity: a cell passes check_one_cell
        # exactly when its image factors and passes check_cor_one_cell.
        # A cell failing only the alpha-pentagon never factors, but 13
        # that also fail a triangle do, and fail counit compatibility
        gf2 = FieldSpec("prime", 2)
        e = flip_entwining(group_algebra(gf2, 2), grouplike_coalgebra(gf2, 2))
        maps = [Matrix(gf2, [v[:2], v[2:]])
                for v in itertools.product(range(2), repeat=4)]
        table = Counter()
        for alpha, gamma in itertools.product(maps, repeat=2):
            f = EntwOneCell(e, e, 1, alpha, gamma)
            entw = check_one_cell(f)
            try:
                cor = check_cor_one_cell(comc_one_cell(f))
            except DoesNotFactor:
                cor = None
            assert entw.passed == (cor is not None and cor.passed)
            table[tuple(x.axiom for x in entw.failures),
                  DoesNotFactor if cor is None
                  else tuple(x.axiom for x in cor.failures)] += 1
        assert table == GF2_CENSUS


def check_one_cell_ok(f):
    from entwine.entwcat import check_one_cell
    return check_one_cell(f).passed


def direct_sum_cells(field):
    """Two 2-dim carriers over the gallery's m_aug: its direct sum with a
    cell differing only in gamma, and with one differing only in alpha."""
    aug = build_gallery(field).one_cells["m_aug"]
    cells = {}
    for name, alpha, gamma in (
            ("aug+swap", aug.alpha, Matrix(field, [[0, 1], [1, 0]])),
            ("aug+sign", Matrix(field, [[1, -1]]), aug.gamma)):
        other = morphism_one_cell(aug.dom, aug.cod, alpha, gamma)
        cells[name] = direct_sum(aug, other)
        assert check_one_cell_ok(cells[name]), name
    return cells


def parallel_pairs(cells):
    """((name1, name2), f1, f2) for each unordered parallel pair."""
    for (n1, f1), (n2, f2) in itertools.combinations_with_replacement(
            cells.items(), 2):
        if (f1.dom, f1.cod) == (f2.dom, f2.cod):
            yield (n1, n2), f1, f2


def assert_hom_bases(f1, f2, dims, names):
    """The solver's lists for f1 => f2 are the cells themselves: each
    passes its checker, and they are independent, as many as ``dims``,
    the expected ``hom_dimension_report``, says."""
    report, (entw, bimod, cor) = hom_bases(f1, f2)
    c1, c2 = comc_one_cell(f1), comc_one_cell(f2)
    for t in entw:
        assert check_two_cell(EntwTwoCell(f1, f2, t)).passed, names
    for y in bimod:
        assert all(lhs == rhs for _, lhs, rhs in module_map_squares(
            "", y, c1.carrier, c2.carrier)), names
    for y in cor:
        assert check_cor_two_cell(CorTwoCell(c1, c2, y)).passed, names
    for basis in (entw, bimod, cor):
        assert rank(stack(f1.field, [[y] for y in basis])) == len(
            basis), names
    assert (len(entw), len(cor)) == dims[:2], names
    assert report == dims, names


def hom_bases(src, dst):
    """hom_dimension_report(src, dst), and the lists of maps its solver
    returned: the entwining 2-cells, bimodule maps, coring 2-cells."""
    bases, solve = [], comc._solve_squares

    def recording(maps, squares):
        bases.append(solve(maps, squares))
        return bases[-1]

    with mock.patch.object(comc, "_solve_squares", recording):
        return hom_dimension_report(src, dst), bases


# hom_dimension_report on each parallel gallery pair, over Q and GF(5)
GALLERY_HOM_DIMENSIONS = {
    ("id_flip_kC2_mc2", "id_flip_kC2_mc2"): (1, 2, True, False),
    ("id_flip_M2_gl3", "id_flip_M2_gl3"): (1, 1, True, True),
    ("id_flip_kC1_gl2", "id_flip_kC1_gl2"): (1, 1, True, True),
    ("id_flip_kC2_gl2", "id_flip_kC2_gl2"): (1, 2, True, False),
    ("id_flip_kC2_gl2", "m_swap"): (0, 0, True, True),
    ("id_bialg_C1", "id_bialg_C1"): (1, 1, True, True),
    ("id_bialg_C2", "id_bialg_C2"): (1, 1, True, True),
    ("id_bialg_C3", "id_bialg_C3"): (1, 1, True, True),
    ("m_aug", "m_aug"): (1, 1, True, True),
    ("m_swap", "m_swap"): (1, 2, True, False),
}
# ... and on the pairs that hold a direct_sum_cells carrier
DIRECT_SUM_HOM_DIMENSIONS = {
    ("m_aug", "aug+swap"): (1, 1, True, True),
    ("m_aug", "aug+sign"): (1, 1, True, True),
    ("aug+swap", "aug+swap"): (2, 2, True, True),
    ("aug+swap", "aug+sign"): (1, 1, True, True),
    ("aug+sign", "aug+sign"): (2, 2, True, True),
}


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
        self.mc = wtensor(carrier, comc_obj(e).carrier).outer
        self.nu2 = self.mc.projection
        w_dm = wtensor(comc_obj(e).carrier, carrier)
        self.nu1 = w_dm.outer

    def test_truncated_chains_differ(self):
        assert self.head1 != self.head2

    def test_full_chains_differ_before_nu2(self):
        # the auxiliary map alone does not balance the middle B
        assert compose(self.zbar, self.head1) != \
            compose(self.zbar, self.head2)
        with pytest.raises(DoesNotFactor):
            descend(self.zbar, self.nu1, self.zbar.rows)

    def test_full_chains_agree_after_nu2(self):
        lhs = compose(compose(self.nu2, self.zbar), self.head1)
        rhs = compose(compose(self.nu2, self.zbar), self.head2)
        assert lhs == rhs
        # and therefore the projected map factors through nu1
        descend(self.zbar, self.nu1, self.mc)


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
        cells = {**build_gallery(field).one_cells,
                 **direct_sum_cells(field)}
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

    def test_injectivity_reads_the_homomorphisms_own_two_cells(
            self, monkeypatch):
        # a comc_two_cell sending every 2-cell to 0 must show in the report
        def zero_image(t):
            y = comc_two_cell(t)
            return CorTwoCell(y.dom, y.cod, Matrix.zeros(QQ, *y.map.shape))

        monkeypatch.setattr("entwine.comc.comc_two_cell", zero_image)
        f = build_gallery(QQ).one_cells["m_swap"]
        assert hom_dimension_report(f, f) == (1, 2, False, False)

    def test_injective_on_gallery(self):
        for name, f in gallery_one_cells().items():
            de, dc, inj, _ = hom_dimension_report(f, f)
            assert inj, name
            assert de <= dc, name

    @pytest.mark.parametrize("field", [QQ, FieldSpec("prime", 5)],
                             ids=["q", "gf5"])
    def test_gallery_hom_dimensions_are_the_recorded_ones(self, field):
        # the comc-injective law prints the dims only when it fails, so
        # the recorded law reports would miss a change in them
        found = {names: hom_dimension_report(f1, f2)
                 for names, f1, f2 in parallel_pairs(
                     build_gallery(field).one_cells)}
        assert found == GALLERY_HOM_DIMENSIONS

    @pytest.mark.parametrize("field", [QQ, FieldSpec("prime", 5)],
                             ids=["q", "gf5"])
    def test_solver_returns_hom_bases(self, field):
        # the solver's lists are the cells themselves: each passes its
        # checker, and they are independent, as many as the dimension; the
        # bimodule maps are solved from the dim Y * dim M free generators
        cells = {**build_gallery(field).one_cells,
                 **direct_sum_cells(field)}
        dims = {**GALLERY_HOM_DIMENSIONS, **DIRECT_SUM_HOM_DIMENSIONS}
        pairs = list(parallel_pairs(cells))
        assert {names for names, _, _ in pairs} == set(dims)
        starts, solve = [], comc._solve_squares

        def recording(maps, squares):
            starts.append(len(maps))
            return solve(maps, squares)

        for names, f1, f2 in pairs:
            starts.clear()
            with mock.patch.object(comc, "_solve_squares", recording):
                assert_hom_bases(f1, f2, dims[names], names)
            assert starts[1] == comc_one_cell(f2).carrier.dim * f1.dimM, names

    def test_solver_returns_no_maps_for_none(self):
        def squares(y):
            raise AssertionError("no map to evaluate")

        assert _solve_squares([], squares) == []
        f = build_gallery(QQ).one_cells["m_swap"]
        empty = EntwOneCell(f.dom, f.cod, 0, Matrix.zeros(QQ, 0, 0),
                            Matrix.zeros(QQ, 0, 0))
        for src, dst in ((empty, empty), (empty, f), (f, empty)):
            report, bases = hom_bases(src, dst)
            assert report == (0, 0, True, True)
            assert bases == [[], [], []]


def projection_algebra(field, keep_right):
    """k^2 with a.b = b if ``keep_right``, else a.b = a, and unit e_0: an
    associative algebra with only its left, or only its right, unit law."""
    return Algebra(2, Matrix(field, [
        [int((j if keep_right else i) == r) for i in range(2)
         for j in range(2)] for r in range(2)]), Matrix(field, [[1], [0]]))


class TestFreeStart:
    """The bimodule stage of the hom solver falls back from the free
    generators y.ract . (E (x) A) to the matrix units when the source
    carrier's right action is not the whisker M (x) mult or A fails a
    unit law."""

    def test_only_the_bimodule_maps_have_their_squares_memoised(self):
        # the start maps are never induced again, so their squares stay
        # out of the session memo; the zeta squares induce the solutions
        field = FieldSpec("prime", 5)
        f = build_gallery(field).one_cells["id_flip_M2_gl3"]
        bimod = hom_bases(f, f)[1][1]
        square = corcat._module_square.__wrapped__
        kept = {args[0] for fn, args in field._memo if fn is square}
        assert kept and kept <= set(bimod)

    def test_a_carrier_that_is_not_the_whisker_starts_from_the_units(self):
        f = build_gallery(QQ).one_cells["m_swap"]
        x = comc_one_cell(f).carrier
        twisted = Bimodule(x.left, x.right, x.dim, x.lact,
                           bump(x.ract, 0, 1))
        assert len(_bimodule_start(x, x, f.dimM)) == x.dim * f.dimM
        assert _bimodule_start(twisted, x, f.dimM) == _units(QQ, x.dim,
                                                             x.dim)

    @pytest.mark.parametrize("keep_right", [True, False],
                             ids=["right-law-fails", "left-law-fails"])
    def test_an_algebra_failing_a_unit_law_starts_from_the_units(
            self, keep_right):
        a = projection_algebra(QQ, keep_right)
        x = regular_bimodule(a)     # M = k, so x.ract is the whisker
        assert x.ract == kron(1, a.mult)
        assert {f.axiom for f in check_algebra(a).failures} == {
            "right unit" if keep_right else "left unit"}
        assert _bimodule_start(x, x, 1) == _units(QQ, 2, 2)
        # what the free start would have solved from
        free = [compose(x.ract, kron(e, 2)) for e in _units(QQ, 2, 1)]
        if keep_right:      # dependent: the solver would count a zero map
            assert rank(stack(QQ, [[f] for f in free])) < len(free)
        else:               # too few: they miss right-linear maps
            right_linear = _solve_squares(_units(QQ, 2, 2), lambda f: [
                ("right", *corcat._plain_module_square(f, x, x, True))])
            assert len(right_linear) > len(free)


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

    @pytest.mark.parametrize("field", [QQ, FieldSpec("prime", 5)],
                             ids=["Q", "GF5"])
    def test_a_cell_whose_alpha_is_zero_has_no_compositor(self, field):
        # alpha = 0 fails the unit triangle alone.  B then acts by 0 on
        # M (x) A, so (P (x) B) (x)_B (M (x) A) is 0, and the compositor's
        # map from P (x) M (x) A does not invert.  On a cell that passes,
        # B acts unitally and the map is the unit iso onto P (x) M (x) A
        m = build_gallery(field).one_cells["id_flip_kC2_mc2"]
        zero = EntwOneCell(m.dom, m.cod, m.dimM, m.alpha.scale(0), m.gamma)
        assert [f.axiom for f in check_one_cell(zero).failures] == [
            "unit-triangle"]
        assert wtensor(comc_one_cell(m).carrier,
                       comc_one_cell(zero).carrier).outer.quotient_dim == 0
        with pytest.raises(NotInvertible) as err:
            compositor(m, zero)
        assert str(err.value) == "compositor is not invertible"
