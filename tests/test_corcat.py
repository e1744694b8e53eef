"""Corings over an algebra, their cells, and quotient-level coherence."""

from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwine import corcat
from entwine.algstruct import (Algebra, Bimodule, cyclic_group_bialgebra,
                               group_algebra, grouplike_coalgebra,
                               matrix_algebra, regular_bimodule)
from entwine.cli import _composable_pairs, build_gallery, deserialize
from entwine.comc import _solve_squares, _units, comc_obj, comc_one_cell
from entwine.corcat import (Coring, CorOneCell, CorTwoCell, check_coring,
                            check_cor_one_cell, check_cor_two_cell,
                            compose_cor_one_cells, cor_associator,
                            cor_left_unitor, cor_right_unitor, hcomp_cor,
                            identity_cor_one_cell, identity_cor_two_cell,
                            module_map_squares, tensor_map, vcomp_cor,
                            word_iso, wtensor)
from entwine.entwcat import (bialgebra_entwining, flip_entwining,
                             identity_one_cell)
from entwine.errors import DoesNotFactor, NotInvertible
from entwine.exactlin import FieldSpec, Matrix, QQ, compose, inverse, kron
from entwine.qtensor import descend
from test_fresh_bases import twisted


def trivial_coring(a):
    """A as an A-coring: the composed coring of A flipped with the
    one-point grouplike coalgebra."""
    return comc_obj(flip_entwining(a, grouplike_coalgebra(a.field, 1)))


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


# -- the sparse whisker against the dense one ---------------------------

FIELDS = [QQ, FieldSpec("prime", 3), FieldSpec("prime", 5)]


def bimodule_family(field, which):
    """Bimodules over one algebra: k[C2] (commutative, three of them) or
    M2 (two), the regular bimodule and composed-coring carriers."""
    if which == "kC2":
        a = group_algebra(field, 2)
        return [regular_bimodule(a),
                comc_obj(flip_entwining(a, grouplike_coalgebra(field, 2))
                         ).carrier,
                comc_obj(bialgebra_entwining(
                    cyclic_group_bialgebra(field, 2))).carrier]
    a = matrix_algebra(field, 2)
    return [regular_bimodule(a),
            comc_obj(flip_entwining(a, grouplike_coalgebra(field, 2))
                     ).carrier]


def bimodule_map_basis(x, x2):
    """A basis of the bimodule maps x -> x2, as matrices."""
    return _solve_squares(_units(x.field, x2.dim, x.dim),
                          lambda f: module_map_squares("", f, x, x2))


def coefficient(field):
    entry = st.integers(-2, 2)
    if field == QQ:
        entry = st.one_of(entry, st.fractions(-3, 3, max_denominator=4))
    return entry


@st.composite
def whisker_factor(draw, field, family):
    """(factor, its source, its target): an int identity, or a drawn
    combination of the bimodule maps between two drawn bimodules."""
    x = draw(st.sampled_from(family))
    if draw(st.booleans()):
        return x.dim, x, x
    x2 = draw(st.sampled_from(family))
    f = Matrix.zeros(field, x2.dim, x.dim)
    for b in bimodule_map_basis(x, x2):
        f = f - b.scale(draw(coefficient(field)))
    return f, x, x2


@st.composite
def whiskers(draw):
    """(f, g, (x, y), (x2, y2)) over a drawn field and algebra."""
    field = draw(st.sampled_from(FIELDS))
    family = bimodule_family(field, draw(st.sampled_from(["kC2", "M2"])))
    f, x, x2 = draw(whisker_factor(field, family))
    g, y, y2 = draw(whisker_factor(field, family))
    return f, g, (x, y), (x2, y2)


def dense_descend(f, src, tgt):
    """The full-width gate: project every column of f, keep the free ones,
    and require that they reproduce the whole projected map."""
    h = compose(tgt.projection, f)
    g = h.gather(src.free)
    if compose(g, src.projection) != h:
        raise DoesNotFactor("map does not vanish on the relation span")
    return g


def outcome(fn, *args):
    """fn(*args), or the DoesNotFactor message it raises."""
    try:
        return fn(*args)
    except DoesNotFactor as exc:
        return f"DoesNotFactor: {exc}"


def as_matrix(f, field):
    return Matrix.identity(field, f) if isinstance(f, int) else f


class TestTensorMap:
    @given(whiskers())
    @settings(max_examples=80, deadline=None)
    def test_equals_descended_kron_on_bimodule_maps(self, case):
        f, g, (x, y), (x2, y2) = case
        src, tgt = wtensor(x, y).outer, wtensor(x2, y2).outer
        whisker = kron(as_matrix(f, x.field), as_matrix(g, x.field))
        got = tensor_map(f, g, (x, y), (x2, y2))
        assert got == descend(whisker, src, tgt)
        assert got == dense_descend(whisker, src, tgt)

    @given(whiskers(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_raises_on_exactly_the_perturbations_the_dense_gate_rejects(
            self, case, data):
        f, g, (x, y), (x2, y2) = case
        field = x.field
        src, tgt = wtensor(x, y).outer, wtensor(x2, y2).outer
        # perturb one entry of one factor, an identity becoming a matrix
        fm, gm = as_matrix(f, field), as_matrix(g, field)
        target = data.draw(st.sampled_from(["f", "g"]))
        m = fm if target == "f" else gm
        i = data.draw(st.integers(0, m.rows - 1))
        j = data.draw(st.integers(0, m.cols - 1))
        s = data.draw(coefficient(field).filter(bool))   # nonzero mod 3, 5
        m = Matrix.build(field, m.rows, m.cols,
                         lambda r, c: m[r, c] + (s if (r, c) == (i, j)
                                                 else 0))
        fm, gm = (m, gm) if target == "f" else (fm, m)
        new = outcome(tensor_map, fm, gm, (x, y), (x2, y2))
        assert new == outcome(descend, kron(fm, gm), src, tgt)
        assert new == outcome(dense_descend, kron(fm, gm), src, tgt)

    @pytest.mark.parametrize("field", FIELDS, ids=["q", "gf3", "gf5"])
    def test_an_int_stands_for_the_identity(self, field):
        x, y, _ = bimodule_family(field, "kC2")
        for f, g in ((x.dim, y.dim), (Matrix.identity(field, x.dim), y.dim),
                     (x.dim, Matrix.identity(field, y.dim))):
            assert tensor_map(f, g, (x, y), (x, y)) == Matrix.identity(
                field, wtensor(x, y).module.dim)

    def test_inverse_associator_is_memoised(self):
        c = c2_coring().carrier
        back = inverse(word_iso(c, c, c))
        assert back is inverse(word_iso(c, c, c))
        assert compose(back, word_iso(c, c, c)) == Matrix.identity(
            QQ, back.rows)


@contextmanager
def induced_columns(owner):
    """Count the pivot columns of the maps ``owner`` (``tensor_map`` or
    ``word_iso``) induces: under "swept" those it checks, under "skipped"
    those it proves it need not."""
    counts = Counter()

    def counting(kind, induce):
        def counted(image, src, tgt):
            if image.__qualname__.startswith(owner + "."):
                counts[kind] += src.ambient_dim - src.quotient_dim
            return induce(image, src, tgt)
        return counted

    with mock.patch.object(corcat, "descend_columns",
                           counting("swept", corcat.descend_columns)), \
            mock.patch.object(corcat, "free_columns",
                              counting("skipped", corcat.free_columns)):
        yield counts


def c2_bimodule(field, left, right):
    """k^2 over k[C2], g acting by the matrix ``left`` on the left and by
    ``right`` on the right."""
    a = group_algebra(field, 2)
    one = [[1, 0], [0, 1]]
    return Bimodule(a, a, 2, Matrix(field, [
        [(one, left)[b][r][c] for b in range(2) for c in range(2)]
        for r in range(2)]), Matrix(field, [
            [(one, right)[k][r][c] for c in range(2) for k in range(2)]
            for r in range(2)]))


class TestAssociatorShortcut:
    @pytest.mark.parametrize("source", ["gallery", "fresh-basis"])
    def test_associators_run_no_sweep(self, source):
        if source == "gallery":
            triples = checker_triples(FieldSpec("rational"))
        else:
            e = deserialize(twisted.Stream(7).request(
                "flip_kC3_gl2", False)["text"]).entwinings["e"]
            cell = comc_one_cell(identity_one_cell(e))
            d, m, c = cell.cod.carrier, cell.carrier, cell.dom.carrier
            triples = [(c, c, c), (d, d, m), (d, m, c), (m, c, c)]
        with induced_columns("word_iso") as counts:
            for x, y, z in triples:
                assert corcat._bimodule_square(y)
                word_iso(x, y, z)
        assert counts["skipped"] > 0
        assert counts["swept"] == 0

    def test_a_middle_factor_whose_actions_do_not_commute_is_swept(self):
        # g swaps the coordinates on one side of y and negates the second
        # on the other, so its actions do not commute, and this associator
        # does not descend: the sweep refuses it, as the full-width gate does
        field = FieldSpec("rational")
        swap, diag = [[0, 1], [1, 0]], [[1, 0], [0, -1]]
        x, y, z = (c2_bimodule(field, *sides) for sides in (
            (swap, diag), (diag, swap), (swap, swap)))
        assert (corcat._bimodule_square(y), corcat._bimodule_square(z)) == (
            False, True)
        xy, yz = wtensor(x, y), wtensor(y, z)
        src, tgt = wtensor(xy.module, z).outer, wtensor(x, yz.module).outer
        with induced_columns("word_iso") as counts:
            got = outcome(word_iso, x, y, z)
        assert counts == {"swept": src.ambient_dim - src.quotient_dim}
        section = Matrix.build(field, xy.outer.ambient_dim,
                               xy.outer.quotient_dim,
                               lambda r, c: int(xy.outer.free[c] == r))
        ambient = compose(kron(x.dim, yz.outer.projection),
                          kron(section, z.dim))
        assert got == outcome(dense_descend, ambient, src, tgt)
        assert got.startswith("DoesNotFactor")

    @pytest.mark.parametrize("field", [FieldSpec("rational"),
                                       FieldSpec("prime", 5)],
                             ids=["Q", "GF5"])
    def test_bracketings_of_different_dimensions_do_not_invert(self, field):
        # over the ground field k, y's unit acts by e_2 -> e_1 on the left
        # and by the projection onto e_1 on the right, which do not
        # commute; x's unit acts by 0 on the right and z's by 1 on the
        # left.  x (x) y keeps the class of e_2, which z's action kills;
        # y (x) z keeps that of e_1, which x's action keeps
        one = Matrix(field, [[1]])
        k = Algebra(1, one, one)
        x = Bimodule(k, k, 1, one, Matrix(field, [[0]]))
        y = Bimodule(k, k, 2, Matrix(field, [[0, 1], [0, 0]]),
                     Matrix(field, [[1, 0], [0, 0]]))
        z = Bimodule(k, k, 1, one, one)
        xy, yz = wtensor(x, y), wtensor(y, z)
        assert (wtensor(xy.module, z).outer.quotient_dim,
                wtensor(x, yz.module).outer.quotient_dim) == (0, 1)
        with pytest.raises(NotInvertible) as err:
            word_iso(x, y, z)
        assert str(err.value) == "bracketings do not present the same module"


class TestTensorMapShortcut:
    @pytest.mark.parametrize("source", ["flip_M2_gl3", "fresh-basis"])
    def test_checked_images_run_no_sweep(self, source):
        if source == "flip_M2_gl3":
            e = build_gallery(FieldSpec("rational")).entwinings[source]
        else:
            e = deserialize(twisted.Stream(7).request(
                "flip_kC3_gl2", False)["text"]).entwinings["e"]
        with induced_columns("tensor_map") as counts:
            assert check_coring(comc_obj(e)).passed
            assert check_cor_one_cell(
                comc_one_cell(identity_one_cell(e))).passed
        assert counts["skipped"] > 0
        assert counts["swept"] == 0

    def test_a_zero_factor_descends_through_the_sweep(self):
        x = bimodule_family(QQ, "M2")[0]
        f = bump(Matrix.zeros(QQ, x.dim, x.dim), 0, 1)
        lhs, rhs = corcat._module_square(f, x, x, True)
        assert lhs != rhs
        q = wtensor(x, x).outer
        with induced_columns("tensor_map") as counts:
            got = tensor_map(f, Matrix.zeros(QQ, x.dim, x.dim), (x, x),
                             (x, x))
        assert got == Matrix.zeros(QQ, q.quotient_dim, q.quotient_dim)
        assert counts == {"swept": q.ambient_dim - q.quotient_dim}

    def test_an_identity_between_two_bimodules_has_its_square_evaluated(
            self):
        # the flip and bialgebra carriers over k[C2]: equal left actions,
        # different right ones
        y, x, x2 = bimodule_family(QQ, "kC2")
        one, calls = Matrix.identity(QQ, x.dim), []
        square = corcat._module_square

        def recording(*args):
            calls.append(args)
            return square(*args)

        with mock.patch.object(corcat, "_module_square", recording), \
                induced_columns("tensor_map") as counts:
            assert tensor_map(x.dim, y.dim, (x, y), (x, y)) == \
                Matrix.identity(QQ, wtensor(x, y).module.dim)
            assert calls == [] and counts["swept"] == 0
            right = outcome(tensor_map, x.dim, y.dim, (x, y), (x2, y))
            left = outcome(tensor_map, y.dim, x.dim, (y, x), (y, x2))
        assert calls == [(one, x, x2, True), (one, x, x2, False)]
        assert right == outcome(dense_descend, kron(one, y.dim),
                                wtensor(x, y).outer, wtensor(x2, y).outer)
        assert right.startswith("DoesNotFactor")
        assert left == dense_descend(kron(y.dim, one), wtensor(y, x).outer,
                                     wtensor(y, x2).outer)
