"""Algebra/coalgebra/bimodule checkers, builders, and the duality oracle."""

import pytest

from entwine.algstruct import (Algebra, Bimodule, _check_squares,
                               check_algebra,
                               check_coalgebra, bialgebra_compatibility,
                               cyclic_group_bialgebra, dualize_algebra,
                               group_algebra, grouplike_coalgebra,
                               matrix_algebra, matrix_coalgebra,
                               regular_bimodule)
from entwine.corcat import left_unit_iso, right_unit_iso
from entwine.errors import (DimensionMismatch, DoesNotFactor,
                           InvalidParameter, NotInvertible)
from entwine.exactlin import FieldSpec, Matrix, QQ, compose, kron

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
