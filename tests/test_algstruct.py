"""Algebra/coalgebra/bimodule checkers, builders, the duality oracle, and
the records every cell and structure is built on."""

from types import SimpleNamespace

import pytest

from entwine.algstruct import (Algebra, Bimodule, CheckReport, Coalgebra,
                               Failure, _check_squares, check_algebra,
                               check_coalgebra, bialgebra_compatibility,
                               cyclic_group_bialgebra, dualize_algebra,
                               group_algebra, grouplike_coalgebra,
                               matrix_algebra, matrix_coalgebra,
                               regular_bimodule)
from entwine.comc import comc_obj
from entwine.corcat import (Coring, CorOneCell, CorTwoCell, TensorWord,
                            identity_cor_one_cell, left_unit_iso,
                            right_unit_iso)
from entwine.entwcat import (EntwObj, EntwOneCell, EntwTwoCell, check_obj,
                             flip_entwining, identity_one_cell)
from entwine.errors import (DimensionMismatch, DoesNotFactor,
                           InvalidParameter, NotInvertible, NotParallel)
from entwine.exactlin import FieldSpec, Matrix, QQ, compose, kron
from entwine.qtensor import QuotientPresentation

GF3 = FieldSpec("prime", 3)


def sign_bimodule(field=QQ):
    """The sign module of k[C2], both sides: g acts by -1."""
    a = group_algebra(field, 2)
    act = Matrix(field, [[1, -1]])
    return Bimodule(a, a, 1, act, act)


def dual_algebra(c):
    """The linear dual of a coalgebra: its structure maps transposed."""
    return Algebra(c.dim, c.comult.transpose(), c.counit.transpose())


def unit_isos(m):
    """The unit isos A (x)_A m -> m and m (x)_B B -> m, which raise unless
    each action is induced on the quotient and invertible there."""
    return left_unit_iso(m), right_unit_iso(m)


class TestGroupAlgebra:
    def test_c1_is_base_field(self):
        a = group_algebra(QQ, 1)
        assert a.dim == 1
        assert a.mult == Matrix(QQ, [[1]])
        assert a.unit == Matrix(QQ, [[1]])

    def test_c2_table(self):
        # g^2 = 1: mult sends basis pair (i, j) to g^(i+j mod 2)
        a = group_algebra(QQ, 2)
        assert a.mult == Matrix(QQ, [[1, 0, 0, 1], [0, 1, 1, 0]])

    def test_passes_checker(self):
        for n in (1, 2, 3, 4):
            assert check_algebra(group_algebra(QQ, n)).passed

    def test_rejects_zero(self):
        with pytest.raises(InvalidParameter):
            group_algebra(QQ, 0)


class TestGrouplikeCoalgebra:
    def test_c2_comult(self):
        c = grouplike_coalgebra(QQ, 2)
        # delta(e_i) = e_i (x) e_i
        assert c.comult == Matrix(QQ, [[1, 0], [0, 0], [0, 0], [0, 1]])
        assert c.counit == Matrix(QQ, [[1, 1]])

    def test_passes_checker(self):
        for n in (1, 2, 3):
            assert check_coalgebra(grouplike_coalgebra(QQ, n)).passed

    def test_rejects_zero(self):
        with pytest.raises(InvalidParameter):
            grouplike_coalgebra(QQ, 0)


class TestMatrixUnits:
    def test_rejects_zero(self):
        with pytest.raises(InvalidParameter):
            matrix_algebra(QQ, 0)

    def test_matrix_algebra_1_is_base_field(self):
        a = matrix_algebra(QQ, 1)
        assert a.dim == 1 and a.mult == Matrix(QQ, [[1]])

    def test_matrix_algebra_2(self):
        a = matrix_algebra(QQ, 2)
        assert a.dim == 4
        assert check_algebra(a).passed
        # e_01 . e_10 = e_00 and e_10 . e_01 = e_11 (non-commutative)
        e01 = Matrix(QQ, [[0], [1], [0], [0]])
        e10 = Matrix(QQ, [[0], [0], [1], [0]])
        assert compose(a.mult, kron(e01, e10)) == Matrix(
            QQ, [[1], [0], [0], [0]])
        assert compose(a.mult, kron(e10, e01)) == Matrix(
            QQ, [[0], [0], [0], [1]])

    def test_matrix_coalgebra_2(self):
        c = matrix_coalgebra(QQ, 2)
        assert c.dim == 4
        assert check_coalgebra(c).passed

    @pytest.mark.parametrize("field", [QQ, FieldSpec("prime", 5)],
                             ids=["q", "gf5"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matrix_coalgebra_is_the_matrix_units(self, field, n):
        # delta(e_ij) = sum_k e_ik (x) e_kj, eps(e_ij) = [i == j]
        d = n * n
        comult = [[0] * d for _ in range(d * d)]
        counit = [[0] * d]
        for i in range(n):
            for j in range(n):
                counit[0][i * n + j] = int(i == j)
                for k in range(n):
                    comult[(i * n + k) * d + k * n + j][i * n + j] = 1
        c = matrix_coalgebra(field, n)
        assert c.dim == d
        assert c.comult == Matrix(field, comult)
        assert c.counit == Matrix(field, counit)


class TestDuality:
    def test_dual_of_grouplikes_is_function_algebra(self):
        # transpose of delta(e_i) = e_i (x) e_i is the pointwise product
        a = dual_algebra(grouplike_coalgebra(QQ, 3))
        assert check_algebra(a).passed
        e1 = Matrix(QQ, [[0], [1], [0]])
        e2 = Matrix(QQ, [[0], [0], [1]])
        assert compose(a.mult, kron(e1, e1)) == e1
        assert compose(a.mult, kron(e1, e2)) == Matrix.zeros(QQ, 3, 1)

    def test_double_dual_identity(self):
        for a in (group_algebra(QQ, 3), matrix_algebra(QQ, 2)):
            assert dual_algebra(dualize_algebra(a)) == a
        for c in (grouplike_coalgebra(QQ, 3), matrix_coalgebra(QQ, 2)):
            assert dualize_algebra(dual_algebra(c)) == c

    def test_duality_oracle(self):
        # check_algebra(a) passes iff check_coalgebra(dual a) passes
        good = [group_algebra(QQ, n) for n in (1, 2, 3)]
        good.append(matrix_algebra(QQ, 2))
        for a in good:
            assert check_algebra(a).passed
            assert check_coalgebra(dualize_algebra(a)).passed
        bad_mult = Matrix.build(QQ, 2, 4,
                                lambda i, j: 1 if (i, j) == (0, 0) else 0)
        bad = Algebra(2, bad_mult, Matrix(QQ, [[1], [0]]))
        assert not check_algebra(bad).passed
        assert not check_coalgebra(dualize_algebra(bad)).passed


class TestBimodules:
    """A carrier's actions are checked through its unit isos: the left
    action induces a map on A (x)_A M only if it is associative."""

    def test_regular_bimodule(self):
        for a in (group_algebra(QQ, 2), matrix_algebra(QQ, 2)):
            left, right = unit_isos(regular_bimodule(a))
            assert left.shape == right.shape == (a.dim, a.dim)

    def test_sign_module(self):
        left, right = unit_isos(sign_bimodule())
        assert left == right == Matrix(QQ, [[-1]])

    def test_non_involutive_action_fails(self):
        # g acting by 2 on the right violates g^2 = 1
        a = group_algebra(QQ, 2)
        bad = Bimodule(a, a, 1, Matrix(QQ, [[1, -1]]), Matrix(QQ, [[1, 2]]))
        assert left_unit_iso(bad) == Matrix(QQ, [[-1]])
        with pytest.raises(DoesNotFactor):
            right_unit_iso(bad)


class TestBialgebras:
    def test_cyclic_compatibility(self):
        for n in (1, 2, 3):
            a, c = cyclic_group_bialgebra(QQ, n)
            assert bialgebra_compatibility(a, c).passed

    def test_cyclic_over_prime_field(self):
        a, c = cyclic_group_bialgebra(GF3, 3)
        assert check_algebra(a).passed and check_coalgebra(c).passed

    def test_incompatible_pair_detected(self):
        # matrix comultiplication is not an algebra map for matrix mult
        rep = bialgebra_compatibility(matrix_algebra(QQ, 2),
                                      matrix_coalgebra(QQ, 2))
        assert not rep.passed


class TestReports:
    def test_report_names_axioms(self):
        rep = check_algebra(group_algebra(QQ, 2))
        assert rep.passed
        assert set(rep.axioms) == {"associativity", "left unit",
                                   "right unit"}

    def test_failure_carries_first_difference(self):
        bad = Algebra(1, Matrix(QQ, [[2]]), Matrix(QQ, [[1]]))
        rep = check_algebra(bad)
        assert not rep.passed
        f = rep.failures[0]
        assert f.coord is not None
        assert f.lhs[f.coord] != f.rhs[f.coord]


class TestCheckSquares:
    """The one evaluator: squares (axiom, lhs, rhs), and deferred squares
    (axiom, sides) whose sides() may fail to factor or invert."""

    A = Matrix(QQ, [[1, 2], [3, 4]])
    B = Matrix(QQ, [[1, 2], [5, 4]])

    def test_passing_square(self):
        rep = _check_squares(("same", self.A, Matrix(QQ, [[1, 2], [3, 4]])))
        assert rep.passed and rep.failures == () and rep.axioms == ("same",)

    def test_failing_square_keeps_its_sides_and_coordinate(self):
        rep = _check_squares(("pass", self.A, self.A),
                             ("differ", self.A, self.B))
        assert rep.axioms == ("pass", "differ")
        (f,) = rep.failures
        assert (f.axiom, f.lhs, f.rhs, f.coord) == (
            "differ", self.A, self.B, (1, 0))
        assert str(rep) == "differ at (1, 0)"

    @pytest.mark.parametrize("error", [DoesNotFactor, NotInvertible])
    def test_deferred_square_that_cannot_be_formed_fails_in_one_line(
            self, error):
        def sides():
            raise error("no map")

        rep = _check_squares(("chase", sides),
                             ("next", lambda: (self.A, self.B)))
        assert rep.axioms == ("chase (no map)", "next")
        assert [(f.axiom, f.lhs, f.rhs, f.coord) for f in rep.failures] == [
            ("chase (no map)", None, None, None),
            ("next", self.A, self.B, (1, 0))]

    def test_other_errors_propagate(self):
        def sides():
            raise DimensionMismatch("shapes")

        with pytest.raises(DimensionMismatch):
            _check_squares(("chase", sides), ("next", self.A, self.A))


class TestRecords:
    """Every cell and structure is an ``exactlin.Record``: an immutable
    value built from positional or keyword fields, equal and hashed by
    type and fields, its hash cached."""

    def test_keyword_construction_equals_positional(self):
        a = group_algebra(QQ, 2)
        by_name = Algebra(unit=a.unit, dim=2, mult=a.mult)
        mixed = Algebra(2, a.mult, unit=a.unit)
        assert by_name == mixed == a and by_name is not a
        assert hash(by_name) == hash(mixed) == hash(a)

    def test_defaults(self):
        f = Failure("law")
        assert (f.axiom, f.lhs, f.rhs, f.coord) == ("law", None, None, None)
        assert f == Failure("law", None, None, None)
        assert CheckReport(()).axioms == ()
        assert CheckReport((f,)) == CheckReport(failures=(f,), axioms=())

    @pytest.mark.parametrize("args, kwargs", [
        ((2,), {}), ((2, None, None, None), {}), ((2, None), {"dim": 2}),
        ((2, None, None), {"field": 0})])
    def test_wrong_fields_raise(self, args, kwargs):
        with pytest.raises(TypeError):
            Algebra(*args, **kwargs)

    def test_immutable(self):
        a = group_algebra(QQ, 2)
        with pytest.raises(AttributeError):
            a.dim = 3
        with pytest.raises(AttributeError):
            del a.unit
        with pytest.raises(AttributeError):
            a.extra = 1
        assert a.dim == 2

    def test_equality_needs_one_type(self):
        m, u = Matrix(QQ, [[1]]), Matrix(QQ, [[1]])
        a, c = Algebra(1, m, u), Coalgebra(1, m, u)
        assert a != c and not a == c
        assert len({a, c}) == 2

    def test_cached_hash_is_the_hash_of_the_fields(self):
        a = group_algebra(QQ, 3)
        fields = (a.dim, a.mult, a.unit)
        assert hash(a) == hash(fields)
        assert hash(a) == hash(fields)     # read from the cache

    def test_repr_names_the_fields(self):
        assert repr(Failure("law", coord=(1, 2))) == (
            "Failure(axiom='law', lhs=None, rhs=None, coord=(1, 2))")

    def test_equal_entwinings_share_one_memo_entry(self):
        field = FieldSpec("rational")
        e1, e2 = (flip_entwining(group_algebra(field, 2),
                                 grouplike_coalgebra(field, 2))
                  for _ in range(2))
        assert e1 == e2 and e1 is not e2 and e1.psi is not e2.psi
        assert check_obj(e1) is check_obj(e2)
        assert [args for fn, args in field._memo
                if fn is check_obj.__wrapped__] == [(e1,)]

    def test_field_keyword_names_the_matrix_of_the_session(self):
        # ``field=`` in the class header: the field of that matrix slot
        field = FieldSpec("prime", 5)
        e = flip_entwining(group_algebra(field, 2),
                           grouplike_coalgebra(field, 2))
        f = identity_one_cell(e)
        for record in (e, e.algebra, e.coalgebra, f):
            assert record.field is field
        for cls in (Algebra, Coalgebra, Bimodule, EntwObj, EntwOneCell,
                    EntwTwoCell, Coring, CorOneCell, CorTwoCell):
            assert isinstance(vars(cls)["field"], property)
        for cls in (Failure, CheckReport, QuotientPresentation, TensorWord):
            assert not hasattr(cls, "field")

    def test_empty_matrix_takes_its_expected_shape(self):
        empty = Matrix.zeros(QQ, 0, 0)
        a = Algebra(0, empty, empty)
        assert (a.mult.shape, a.unit.shape) == ((0, 0), (0, 1))
        assert hash(a) == hash((0, empty, Matrix.zeros(QQ, 0, 1)))


@pytest.fixture(scope="module")
def cells():
    """Valid cells over Q to build invalid records from, and ``z(r, c)``,
    the r x c zero matrix."""
    a1, a2 = group_algebra(QQ, 1), group_algebra(QQ, 2)
    c2 = grouplike_coalgebra(QQ, 2)
    e = flip_entwining(a2, c2)
    e1 = flip_entwining(a1, grouplike_coalgebra(QQ, 1))
    cor = comc_obj(e)
    return SimpleNamespace(
        a1=a1, a2=a2, c2=c2, e=e, e1=e1, i=identity_one_cell(e), cor=cor,
        ic=identity_cor_one_cell(cor), z=lambda r, c: Matrix.zeros(QQ, r, c))


# name, a builder of an invalid record from ``cells``, its error and text
BAD_RECORDS = [
    ("algebra", lambda c: Algebra(2, c.z(2, 2), c.z(2, 2)), DimensionMismatch,
     "algebra of dim 2: mult (2, 2), expected (2, 4), unit (2, 2), "
     "expected (2, 1)"),
    ("coalgebra", lambda c: Coalgebra(2, c.z(2, 2), c.z(2, 2)),
     DimensionMismatch, "coalgebra of dim 2: comult (2, 2), expected (4, 2), "
     "counit (2, 2), expected (1, 2)"),
    ("bimodule", lambda c: Bimodule(c.a2, c.a1, 2, c.z(2, 2), c.z(2, 3)),
     DimensionMismatch, "bimodule of dim 2: lact (2, 2), expected (2, 4), "
     "ract (2, 3), expected (2, 2)"),
    ("entwining shape", lambda c: EntwObj(c.a2, c.c2, c.z(3, 4)),
     DimensionMismatch, "entwining: psi (3, 4), expected (4, 4)"),
    ("entwining fields",
     lambda c: EntwObj(c.a2, grouplike_coalgebra(GF3, 2), c.z(4, 4)),
     DimensionMismatch, "algebra and coalgebra fields differ"),
    ("1-cell", lambda c: EntwOneCell(c.e, c.e, 1, c.z(2, 2), c.z(2, 3)),
     DimensionMismatch, "1-cell: gamma (2, 3), expected (2, 2)"),
    ("2-cell ends",
     lambda c: EntwTwoCell(c.i, identity_one_cell(c.e1), c.z(2, 2)),
     NotParallel, "2-cell endpoints are not parallel"),
    ("2-cell shape", lambda c: EntwTwoCell(c.i, c.i, c.z(2, 3)),
     DimensionMismatch, "2-cell: theta (2, 3), expected (1, 1)"),
    ("presentation", lambda c: QuotientPresentation(c.z(2, 3), (0,)),
     DimensionMismatch, "projection (2, 3) vs 1 free coordinates"),
    ("presentation range", lambda c: QuotientPresentation(c.z(1, 3), (3,)),
     DimensionMismatch, "projection (1, 3) vs 1 free coordinates"),
    ("coring carrier",
     lambda c: Coring(c.a1, c.cor.carrier, c.cor.comult, c.cor.counit),
     DimensionMismatch, "carrier is not an A-A-bimodule"),
    ("coring shape",
     lambda c: Coring(c.cor.base, c.cor.carrier, c.z(1, 1), c.cor.counit),
     DimensionMismatch, "coring: comult (1, 1), expected (8, 4)"),
    ("coring 1-cell carrier",
     lambda c: CorOneCell(c.cor, c.cor, regular_bimodule(c.a1), c.ic.zeta),
     DimensionMismatch, "carrier sides do not match the corings"),
    ("coring 1-cell shape",
     lambda c: CorOneCell(c.cor, c.cor, c.ic.carrier, c.z(1, 1)),
     DimensionMismatch, "coring 1-cell: zeta (1, 1), expected (4, 4)"),
    ("coring 2-cell ends",
     lambda c: CorTwoCell(c.ic, identity_cor_one_cell(comc_obj(c.e1)),
                          c.z(2, 2)),
     NotParallel, "2-cell endpoints are not parallel"),
    ("coring 2-cell shape", lambda c: CorTwoCell(c.ic, c.ic, c.z(1, 1)),
     DimensionMismatch, "coring 2-cell: map (1, 1), expected (2, 2)"),
]


@pytest.mark.parametrize("build, error, text",
                         [case[1:] for case in BAD_RECORDS],
                         ids=[case[0] for case in BAD_RECORDS])
def test_post_init_errors_keep_their_text(cells, build, error, text):
    with pytest.raises(error) as info:
        build(cells)
    assert str(info.value) == text
