"""Exact linear algebra: conventions, rref determinism, field modes."""

from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entwine.algstruct import Algebra
from entwine.cli import Workspace, serialize
from entwine.errors import DimensionMismatch, InvalidParameter
from entwine.exactlin import (DEN_BITS, FieldSpec, Matrix, QQ, _echelon,
                              _transposed, _wrap, cokernel, compose, flip,
                              inverse, kernel_basis, kron, rank)
from entwine.qtensor import QuotientPresentation, descend
from test_qtensor import is_zero, quotient_by, section

GF5 = FieldSpec("prime", 5)


def scalars():
    return st.integers(min_value=-6, max_value=6)


def matrices(rows, cols, field=QQ, entry=scalars()):
    return st.lists(
        st.lists(entry, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(lambda e: Matrix(field, e, cols=cols))


@st.composite
def whiskers(draw):
    """(field, f, n): f of 0..3 rows and columns over Q or GF(5), n 0..3."""
    field = draw(st.sampled_from([QQ, GF5]))
    rows, cols, n = (draw(st.integers(0, 3)) for _ in range(3))
    return field, draw(matrices(rows, cols, field)), n


@st.composite
def mixed_matrices(draw, rows=None, cols=None):
    """Q matrices of 0..4 rows and columns mixing ints and fractions."""
    rows = draw(st.integers(0, 4)) if rows is None else rows
    cols = draw(st.integers(0, 4)) if cols is None else cols
    entry = st.one_of(st.integers(-3, 3),
                      st.fractions(-3, 3, max_denominator=4))
    return draw(matrices(rows, cols, entry=entry))


@st.composite
def content_matrices(draw):
    """Q matrices of up to 6 rows and 8 columns with entries n/d, |n| <= 20
    and d <= 12: elimination grows their integer content."""
    entry = st.one_of(st.just(0), st.builds(Fraction, st.integers(-20, 20),
                                            st.integers(1, 12)))
    return draw(matrices(draw(st.integers(0, 6)), draw(st.integers(0, 8)),
                         entry=entry))


def denominated(max_num=30, max_den=30, prime_to=None):
    """Q scalars n/d with |n| <= max_num and d <= max_den, zeros and ints
    among them; ``prime_to`` keeps only denominators prime to it."""
    dens = [d for d in range(1, max_den + 1)
            if prime_to is None or d % prime_to]
    return st.one_of(st.just(0), st.integers(-5, 5),
                     st.builds(Fraction, st.integers(-max_num, max_num),
                               st.sampled_from(dens)))


def stored_canonically(m) -> bool:
    """Int numerators, no stored zero, over an int den >= 1 in lowest terms
    (so den 1 for the zero matrix), and over GF(p) den 1 and numerators
    in [0, p)."""
    nums = [x for col in m._c for x in col.values()]
    return (type(m.den) is int and m.den >= 1 and gcd(m.den, *nums) == 1
            and all(type(x) is int and x for x in nums)
            and (m.field.p is None
                 or m.den == 1 and all(0 <= x < m.field.p for x in nums)))


def to_sympy(m):
    flat = [sympy.Rational(x.numerator, x.denominator)
            for row in m.entries for x in row]
    return sympy.Matrix(m.rows, m.cols, flat)


def from_sympy(s):
    return Matrix(QQ, [[Fraction(int(x.p), int(x.q)) for x in s.row(i)]
                       for i in range(s.rows)], cols=s.cols)


def rref(m):
    """(reduced, pivots, rank) of m, read off the int rows ``_echelon``
    keeps, each divided by its pivot entry."""
    ech = _echelon(m.transpose()._c, m.field)
    pivots = tuple(sorted(ech))
    for p in pivots:
        assert all(type(x) is int and x for x in ech[p].values())
        assert ech[p][p] > 0 and all(ech[q].get(p) is None
                                     for q in pivots if q != p)
        assert m.field.p is None or ech[p][p] == 1   # monic over GF(p)
    rows = [{j: Fraction(x, ech[p][p]) for j, x in ech[p].items()}
            for p in pivots] + [{}] * (m.rows - len(pivots))
    cols = _transposed(rows, m.cols)
    reduced = Matrix.build(m.field, m.rows, m.cols,
                           lambda i, j: cols[j].get(i, 0))
    return reduced, pivots, len(pivots)


def sympy_solve(sm, sb):
    """The solution with every free parameter zero, or None."""
    if sb.cols == 0:    # sympy cannot solve for no right-hand side
        return sympy.zeros(sm.cols, 0)
    try:
        sol, params = sm.gauss_jordan_solve(sb)
    except ValueError as exc:
        if "no solution" not in str(exc):
            raise
        return None
    return sol.subs({t: 0 for t in params})


class TestFieldSpec:
    def test_rational_coerce(self):
        assert QQ.coerce("3") == Fraction(3)
        assert QQ.coerce("-1/2") == Fraction(-1, 2)
        assert QQ.coerce(2) == Fraction(2)

    def test_prime_coerce(self):
        assert GF5.coerce(7) == 2
        assert GF5.coerce("1/2") == 3  # 2 * 3 = 6 = 1 mod 5
        assert GF5.coerce(Fraction(-1, 3)) == (-pow(3, -1, 5)) % 5
        # a product and a negation of GF(5) scalars, on 1 x 1 matrices
        four = Matrix(GF5, [[4]])
        assert compose(four, four) == Matrix(GF5, [[1]])
        assert four.scale(-1) == Matrix(GF5, [[1]])
        assert (Matrix.zeros(GF5, 1, 1) - four)[0, 0] == 1

    def test_zero_denominator_is_invalid(self):
        for field in (QQ, GF5):
            with pytest.raises(InvalidParameter):
                field.coerce("1/0")

    def test_denominator_divisible_by_p_is_invalid(self):
        # "1/5" and "3/10" have no value mod 5; "5/10" = 1/2 does
        for text in ("1/5", "3/10"):
            with pytest.raises(InvalidParameter):
                GF5.coerce(text)
        assert GF5.coerce("5/10") == 3
        assert isinstance(QQ.coerce("3/10"), Fraction)

    def test_prime_inverse(self):
        for a in range(5):
            inv = inverse(Matrix(GF5, [[a]]))
            assert inv == (Matrix(GF5, [[pow(a, -1, 5)]]) if a else None)

    def test_rejects_bad_field(self):
        with pytest.raises(InvalidParameter):
            FieldSpec("prime", 4)
        with pytest.raises(InvalidParameter):
            FieldSpec("prime", None)
        with pytest.raises(InvalidParameter):
            FieldSpec("galois")

    def test_primality_is_exact_and_fast(self):
        # a Mersenne prime near 2**61 is accepted at once, the Carmichael
        # number 561 is refused, and so is any p past the exact bound
        assert FieldSpec("prime", 2**61 - 1).p == 2**61 - 1
        for p in (561, 10**25 + 13, "5", True):
            with pytest.raises(InvalidParameter):
                FieldSpec("prime", p)

    def test_composite_and_non_positive_moduli_are_refused(self):
        # 2021 = 43 * 47 has no factor among the 13 trial bases, so
        # Miller-Rabin refuses it; 1, 0 and -7 fall below 2
        for p in (2021, 1, 0, -7):
            with pytest.raises(InvalidParameter):
                FieldSpec("prime", p)

    def test_scalar_past_the_digit_limit_is_one_short_error(self):
        # int() refuses 5,000 digits; no ValueError is chained to the error
        with pytest.raises(InvalidParameter) as exc:
            QQ.coerce("9" * 5000)
        assert exc.value.__context__ is None
        assert len(str(exc.value)) < 80

    def test_bool_is_not_a_scalar(self):
        for field in (QQ, GF5):
            with pytest.raises(InvalidParameter):
                field.coerce(True)
            assert field.coerce(1) == 1

    def test_fmt_round_trip(self):
        x = QQ.coerce("-7/3")
        assert QQ.coerce(str(x)) == x

    def test_one_class_per_kind_same_public_face(self):
        assert FieldSpec("rational") == QQ
        assert FieldSpec("prime", 5) == GF5 != QQ
        assert type(GF5) is not type(QQ)
        assert isinstance(QQ, FieldSpec) and isinstance(GF5, FieldSpec)
        assert (QQ.kind, QQ.p, GF5.kind, GF5.p) == \
            ("rational", None, "prime", 5)
        assert hash(FieldSpec("prime", 5)) == hash(GF5)
        assert repr(QQ) == "FieldSpec('rational')"
        assert repr(GF5) == "FieldSpec('prime', p=5)"
        for field in (QQ, GF5):
            with pytest.raises(AttributeError):
                field.p = 7

    def test_deletion_is_refused(self):
        field = FieldSpec("prime", 5)
        for name in ("p", "_memo"):
            with pytest.raises(AttributeError, match="FieldSpec is immutable"):
                delattr(field, name)
        assert field == GF5 and field._memo == {}

    @pytest.mark.parametrize("build, message", [
        (lambda: FieldSpec("prime", 10**5000),
         "modulus <int of 16610 bits> is past"),
        (lambda: FieldSpec("prime", -10**5000),
         "<int of 16610 bits> is not a prime"),
        (lambda: FieldSpec("prime", [10**5000]), "<list> is not a prime"),
        (lambda: FieldSpec(10**5000),
         "unknown field kind <int of 16610 bits>"),
        (lambda: Matrix(GF5, [[Fraction(10**5000 + 1, 5)]]),
         "<Fraction of 16610 bits> has no value in GF(5)")],
        ids=["modulus-past-bound", "negative-modulus", "list-modulus", "kind",
             "scalar"])
    def test_number_past_the_digit_limit_is_quoted_by_its_size(self, build,
                                                               message):
        # str() refuses an int of more than 4,300 digits
        with pytest.raises(InvalidParameter) as exc:
            build()
        assert str(exc.value).startswith(message)
        assert exc.value.__context__ is None


def difference(a, b):
    """a - b over Q, through the 1 x 1 ``Matrix`` subtraction."""
    return checked(Matrix(QQ, [[a]]) - Matrix(QQ, [[b]]))


def product(a, b):
    """a * b over Q, through the 1 x 1 ``compose``."""
    return checked(compose(Matrix(QQ, [[a]]), Matrix(QQ, [[b]])))


def scaled(a, b):
    """a * b over Q, through the 1 x 1 ``Matrix.scale``."""
    return checked(Matrix(QQ, [[a]]).scale(b))


def checked(m):
    """The entry of the 1 x 1 matrix m, after checking its stored form."""
    assert stored_canonically(m)
    return m[0, 0]


class TestScalarRepresentation:
    def test_rational_inverse_is_exact(self):
        half = inverse(Matrix(QQ, [[2]]))[0, 0]
        assert half == Fraction(1, 2) and type(half) is Fraction
        three = inverse(Matrix(QQ, [[Fraction(1, 3)]]))[0, 0]
        assert three == 3 and type(three) is int
        assert inverse(Matrix(QQ, [[0]])) is None

    def test_rational_ops_return_canonical_scalars(self):
        for x in (difference(Fraction(3, 2), Fraction(1, 2)),
                  product(Fraction(2, 3), 3), scaled(3, Fraction(2, 3))):
            assert x in (1, 2) and type(x) is int

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_rational_ops_agree_with_fraction_and_are_canonical(self, data):
        scalar = st.one_of(st.integers(-6, 6),
                           st.fractions(-6, 6, max_denominator=6))
        a, b = data.draw(scalar), data.draw(scalar)
        for op, want in ((difference, Fraction(a) - b),
                         (product, Fraction(a) * b),
                         (scaled, Fraction(a) * b)):
            got = op(a, b)
            assert got == want
            assert type(got) is (int if want.denominator == 1 else Fraction)

    def test_integral_entries_are_ints(self):
        m = Matrix(QQ, [[Fraction(3), "4/2", Fraction(1, 2)]])
        assert [type(x) for x in m.entries[0]] == [int, int, Fraction]
        assert type(m.scale(Fraction(2))[0, 0]) is int

    def test_int_and_fraction_entries_agree(self):
        as_int = Matrix(QQ, [[3]])
        # 6 / 2 over an unreduced denominator comes out in lowest terms
        as_fraction = _wrap(QQ, 1, [{0: 6}], 2)
        assert Matrix(QQ, [[Fraction(3)]]) == as_int == as_fraction
        assert Matrix(QQ, [["6/2"]]) == as_int
        assert hash(as_int) == hash(as_fraction)
        for m in (as_int, as_fraction):
            assert (m._c, m.den) == ([{0: 3}], 1)
        texts = []
        for mult in (as_int, as_fraction):
            ws = Workspace(QQ)
            ws.add_algebra("a", Algebra(1, mult, Matrix(QQ, [[1]])))
            texts.append(serialize(ws))
        assert texts[0] == texts[1]


class TestMatrixBasics:
    def test_shape_and_indexing(self):
        m = Matrix(QQ, [[1, 2, 3], [4, 5, 6]])
        assert m.shape == (2, 3)
        assert m[1, 2] == 6

    def test_ragged_rejected(self):
        with pytest.raises(DimensionMismatch):
            Matrix(QQ, [[1, 2], [3]])

    def test_zero_width_shapes_survive(self):
        z = Matrix.zeros(QQ, 3, 0)
        assert z.shape == (3, 0)
        zz = compose(Matrix.zeros(QQ, 2, 3), Matrix.zeros(QQ, 3, 0))
        assert zz.shape == (2, 0)
        assert Matrix.zeros(QQ, 0, 3).transpose().shape == (3, 0)
        assert Matrix.zeros(QQ, 3, 0).transpose().shape == (0, 3)
        e = Matrix.zeros(QQ, 0, 3)
        for out in (e - e, e.scale(2), rref(e)[0],
                    Matrix.build(QQ, 0, 3, lambda i, j: 1)):
            assert out == e
        assert e.column(1).shape == (0, 1)
        assert e.gather((2, 0, 2)).shape == (0, 3)
        assert Matrix.zeros(QQ, 2, 3).gather(()).shape == (2, 0)
        q = quotient_by(Matrix.identity(QQ, 3))
        assert q.free == ()
        assert section(q).shape == (3, 0)
        assert inverse(Matrix.zeros(QQ, 0, 0)) == Matrix.zeros(QQ, 0, 0)

    def test_dense_denominator_is_bounded(self):
        # 2^(DEN_BITS - 1) has DEN_BITS bits, 2^DEN_BITS one more
        edge = Matrix(QQ, [[Fraction(1, 2 ** (DEN_BITS - 1)), 1]])
        assert edge.den.bit_length() == DEN_BITS
        with pytest.raises(InvalidParameter, match="of 4097 bits, over 4096"):
            Matrix(QQ, [[Fraction(1, 2)], [Fraction(1, 2 ** DEN_BITS)]])

    def test_immutable_and_hashable(self):
        m = Matrix(QQ, [[1]])
        with pytest.raises(AttributeError, match="^Matrix is immutable$"):
            m.rows = 2
        for name in ("den", "_c", "field"):
            with pytest.raises(AttributeError, match="^Matrix is immutable$"):
                delattr(m, name)
        assert m == Matrix(QQ, [[1]]) and m.den == 1
        assert hash(m) == hash(Matrix(QQ, [[1]]))
        # a selection of columns is brought back to lowest terms
        wide = Matrix(QQ, [[Fraction(1, 2), Fraction(1, 4)]])
        half = Matrix(QQ, [[Fraction(1, 2)]])
        assert wide.den == 4
        for c in (wide.column(0), wide.gather((0, 0))):
            assert c.den == 2 and stored_canonically(c)
        assert wide.column(0) == half and hash(wide.column(0)) == hash(half)

    def test_equal_across_sessions(self):
        # equal fields of two sessions: equal matrices, equal hashes, and
        # one dict entry
        f, g = FieldSpec("prime", 5), FieldSpec("prime", 5)
        a, b = Matrix(f, [[1, 2], [3, 4]]), Matrix(g, [[6, 7], [8, 9]])
        assert f is not g and a.field is f and b.field is g
        assert a == b and not a != b and hash(a) == hash(b)
        assert {a: "a"}[b] == "a" and len({a, b}) == 1
        assert a != Matrix(f, [[1, 2], [3, 3]]) != Matrix(QQ, [[1, 2], [3, 4]])

    def test_not_equal_to_other_types(self):
        m, zero = Matrix(QQ, [[1]]), Matrix.zeros(QQ, 1, 1)
        for other in (0, 1, [[1]], ((1,),), Fraction(1)):
            assert m != other and not m == other
            assert zero != other and not zero == other
        assert m.entries == ((1,),) and m[0, 0] == 1

    def test_first_difference(self):
        a = Matrix(QQ, [[1, 2], [3, 4]])
        b = Matrix(QQ, [[1, 2], [3, 5]])
        assert a.first_difference(b) == (1, 1)
        assert a.first_difference(a) is None
        # different denominators: a / 6 against b / 4, pinned against a
        # dense scan of the Fraction entries
        half, third = Fraction(1, 2), Fraction(1, 3)
        cases = [([[half, third], [1, 0]], [[half, Fraction(1, 4)], [1, 0]]),
                 ([[half, third], [1, 0]], [[half, third], [1, half]]),
                 ([[third, 1], [half, 0]], [[third, 1], [half, 0]]),
                 ([[0, 0], [2, half]], [[0, 0], [Fraction(3, 4), half]])]
        for x, y in cases:
            a, b = Matrix(QQ, x), Matrix(QQ, y)
            dense = [(i, j) for i in range(2) for j in range(2)
                     if Fraction(x[i][j]) != Fraction(y[i][j])]
            assert a.first_difference(b) == b.first_difference(a) == (
                dense[0] if dense else None)
        assert Matrix(QQ, cases[0][0]).den != Matrix(QQ, cases[0][1]).den


class TestKronConvention:
    def test_normative_index_rule(self):
        # kron(f, g)[i*rg + j, k*cg + l] = f[i, k] * g[j, l]
        f = Matrix(QQ, [[1, 2], [3, 4]])
        g = Matrix(QQ, [[5, 6], [7, 8]])
        kg = kron(f, g)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        assert kg[i * 2 + j, k * 2 + l] == f[i, k] * g[j, l]

    def test_kron_frozen_example(self):
        # [DERIVED] full 4x4 Kronecker product, computed by hand
        f = Matrix(QQ, [[1, 2], [3, 4]])
        g = Matrix(QQ, [[0, 1], [1, 0]])
        assert kron(f, g) == Matrix(QQ, [
            [0, 1, 0, 2],
            [1, 0, 2, 0],
            [0, 3, 0, 4],
            [3, 0, 4, 0],
        ])
        # 1/2 (x) 2/3 comes out as 1/3, not 2/6
        third = kron(Matrix(QQ, [["1/2"]]), Matrix(QQ, [["2/3"]]))
        assert (third._c, third.den) == ([{0: 1}], 3)
        assert third == Matrix(QQ, [[Fraction(1, 3)]])

    @given(matrices(2, 3), matrices(3, 2), matrices(2, 3), matrices(3, 2))
    @settings(max_examples=40, deadline=None)
    def test_interchange(self, f, g, h, k):
        # (f.g) (x) (h.k) = (f (x) h) . (g (x) k)
        assert kron(compose(f, g), compose(h, k)) == \
            compose(kron(f, h), kron(g, k))

    @given(matrices(2, 2), matrices(2, 2), matrices(2, 2))
    @settings(max_examples=30, deadline=None)
    def test_kron_associative(self, a, b, c):
        assert kron(kron(a, b), c) == kron(a, kron(b, c))

    def test_flip_conjugates_kron(self):
        f = Matrix(QQ, [[1, 2], [3, 4]])
        g = Matrix(QQ, [[0, 1], [2, 5]])
        tau = flip(QQ, 2, 2)
        assert compose(tau, compose(kron(f, g), tau)) == kron(g, f)

    def test_flip_involutive(self):
        assert compose(flip(QQ, 2, 3), flip(QQ, 3, 2)) == \
            Matrix.identity(QQ, 6)

    @given(whiskers())
    @settings(max_examples=80, deadline=None)
    def test_int_factor_is_the_identity(self, case):
        field, f, n = case
        ident = Matrix.identity(field, n)
        assert kron(n, f) == kron(ident, f)
        assert kron(f, n) == kron(f, ident)


    @given(st.sampled_from([QQ, GF5]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_selected_columns_are_gathered(self, field, data):
        # an int on either side or none, factors of 0..3 rows and columns,
        # and any list of columns: repeated, unordered or empty
        def factor(is_int):
            if is_int:
                return data.draw(st.integers(0, 3))
            return data.draw(matrices(
                data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3)),
                field, denominated(6, 4, 5)))

        ints = data.draw(st.sampled_from([(True, False), (False, True),
                                          (False, False)]))
        f, g = map(factor, ints)
        full = kron(f, g)
        cols = data.draw(st.lists(st.integers(0, full.cols - 1), max_size=8)
                         if full.cols else st.just([]))
        got = kron(f, g, cols)
        assert got == full.gather(cols) and stored_canonically(got)


    @pytest.mark.parametrize("f, g", [
        (2, Matrix(QQ, [[1, 2, 3]])), (Matrix(QQ, [[1, 2, 3]]), 2),
        (Matrix(QQ, [[1], [2]]), Matrix(QQ, [[1, 2, 3]]))],
        ids=["int-left", "int-right", "matrices"])
    def test_a_column_outside_the_product_is_refused(self, f, g):
        # a past-the-end or negative index would place entries outside
        # the product's rows
        for cols in ([kron(f, g).cols], [0, -1]):
            with pytest.raises(IndexError):
                kron(f, g, cols)


class TestComposition:
    @given(matrices(2, 3), matrices(3, 2), matrices(2, 2))
    @settings(max_examples=40, deadline=None)
    def test_associative(self, f, g, h):
        assert compose(compose(f, g), h) == compose(f, compose(g, h))

    @given(matrices(3, 4))
    @settings(max_examples=20, deadline=None)
    def test_unital(self, m):
        assert compose(Matrix.identity(QQ, 3), m) == m
        assert compose(m, Matrix.identity(QQ, 4)) == m

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compose(Matrix(QQ, [[1]]), Matrix(QQ, [[1, 2], [3, 4]]))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_gather_is_a_selection_product(self, data):
        # columns cols of m, repeats allowed, are m times a 0/1 selection
        width = data.draw(st.integers(1, 4))
        m = data.draw(matrices(data.draw(st.integers(0, 3)), width))
        cols = data.draw(st.lists(st.integers(0, width - 1), max_size=4))
        select = Matrix.build(QQ, width, len(cols),
                              lambda i, j: int(cols[j] == i))
        assert m.gather(cols) == compose(m, select)


class TestReshape:
    @given(st.sampled_from([QQ, GF5]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_row_major_round_trip(self, field, data):
        m = data.draw(matrices(data.draw(st.integers(0, 4)),
                               data.draw(st.integers(0, 4)), field,
                               denominated(6, 4, 5)))
        n = m.rows * m.cols
        rows = data.draw(st.sampled_from(
            [d for d in range(1, n + 1) if n % d == 0] if n else [0, 3]))
        cols = n // rows if rows else data.draw(st.integers(0, 3))
        out = m.reshape(rows, cols)
        flat = [x for row in m.entries for x in row]
        assert out == Matrix.build(field, rows, cols,
                                   lambda i, j: flat[i * cols + j])
        assert stored_canonically(out) and out.reshape(*m.shape) == m
        if field == QQ:
            assert out == from_sympy(to_sympy(m).reshape(rows, cols))
        with pytest.raises(DimensionMismatch):
            m.reshape(rows + 1, max(cols, 1))


class TestRrefRankKernel:
    def test_rref_frozen_example(self):
        # [DERIVED] rref computed by hand
        m = Matrix(QQ, [[2, 4, 6], [1, 2, 4]])
        red, pivots, rk = rref(m)
        assert red == Matrix(QQ, [[1, 2, 0], [0, 0, 1]])
        assert pivots == (0, 2)
        assert rk == 2

    def test_rref_deterministic(self):
        m = Matrix(QQ, [[1, 2], [2, 4], [0, 1]])
        assert rref(m) == rref(m)

    @given(matrices(3, 4))
    @settings(max_examples=40, deadline=None)
    def test_rank_nullity(self, m):
        assert rank(m) + kernel_basis(m).cols == m.cols

    @given(matrices(3, 4))
    @settings(max_examples=40, deadline=None)
    def test_kernel_annihilated(self, m):
        kb = kernel_basis(m)
        assert is_zero(compose(m, kb))

    @given(matrices(3, 3))
    @settings(max_examples=40, deadline=None)
    def test_inverse_exact(self, m):
        inv = inverse(m)
        if inv is None:
            assert rank(m) < 3
        else:
            assert compose(m, inv) == Matrix.identity(QQ, 3)
            assert compose(inv, m) == Matrix.identity(QQ, 3)

    def test_prime_field_rref(self):
        m = Matrix(GF5, [[2, 1], [4, 2]])
        red, pivots, rk = rref(m)
        assert rk == 1
        assert red.entries[0] == (1, 3)  # 1/2 = 3 mod 5


class TestCanonicalEntries:
    """Every producer over Q stores an integral entry as an int."""

    @staticmethod
    def integral_fractions(m):
        return [x for row in m.entries for x in row
                if isinstance(x, Fraction) and x.denominator == 1]

    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_no_output_entry_is_an_integral_fraction(self, r, k, c, data):
        f, h = (data.draw(mixed_matrices(r, k)) for _ in range(2))
        g, b = data.draw(mixed_matrices(k, c)), data.draw(mixed_matrices(r, c))
        s = data.draw(st.fractions(-3, 3, max_denominator=4))
        combos = data.draw(st.lists(st.dictionaries(
            st.integers(0, k - 1), st.fractions(-3, 3, max_denominator=4),
            max_size=3), max_size=3)) if k else []
        combined = Matrix.build(QQ, k, len(combos),
                                lambda i, j: combos[j].get(i, 0))
        square = data.draw(mixed_matrices(r, r))
        picks = data.draw(st.lists(st.integers(0, k - 1), max_size=4)
                          if k else st.just([]))
        # a balanced map: anything after the projection kills the relations
        src, tgt = map(quotient_by, (f, b))
        balanced = compose(data.draw(mixed_matrices(r, src.quotient_dim)),
                           src.projection)
        outs = [compose(f, g), kron(f, g), f - h, f.scale(s), f.transpose(),
                f.gather(picks), rref(f)[0], kernel_basis(f),
                compose(f, combined), inverse(square),
                descend(balanced, src, tgt), f - f, f.scale(0)]
        for out in outs:
            if out is not None:
                assert self.integral_fractions(out) == []
                assert stored_canonically(out)
        for zero in outs[-2:]:
            assert zero.den == 1 and not any(zero._c)


class TestRowOrder:
    """The echelon form depends on the row space only, not on the rows."""

    @given(st.data(), st.sampled_from([QQ, GF5]))
    @settings(max_examples=100, deadline=None)
    def test_rref_ignores_order_repeats_and_zero_rows(self, data, field):
        m = data.draw(matrices(data.draw(st.integers(0, 4)),
                               data.draw(st.integers(0, 4)), field,
                               st.integers(-2, 2)))
        rows = list(m.entries)
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=3)
                          if rows else st.just([]))
        rows += [(0,) * m.cols] * data.draw(st.integers(0, 2))
        rows = data.draw(st.permutations(rows))
        other = Matrix(field, rows, cols=m.cols)
        red, pivots, rk = rref(m)
        red2, pivots2, rk2 = rref(other)
        assert (pivots2, rk2) == (pivots, rk)
        assert red2.entries[:rk] == red.entries[:rk]
        assert all(not x for row in red2.entries[rk:] for x in row)
        assert kernel_basis(other) == kernel_basis(m)


@st.composite
def sparse_matrices(draw, rows, cols):
    """Q matrices mixing zero rows, zero columns and scattered zeros."""
    entry = st.one_of(st.just(0), st.integers(-3, 3),
                      st.fractions(-3, 3, max_denominator=4))
    m = draw(matrices(rows, cols, entry=entry))
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0))))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0))))
    return Matrix.build(QQ, rows, cols, lambda i, j: 0 if (
        i in zero_rows or j in zero_cols) else m[i, j])


class TestAgainstSympy:
    """Differential tests over Q with sympy as an independent oracle."""

    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4),
           st.data())
    @settings(max_examples=150, deadline=None)
    def test_compose(self, rows, mid, cols, data):
        f = data.draw(sparse_matrices(rows, mid))
        g = data.draw(sparse_matrices(mid, cols))
        assert compose(f, g) == from_sympy(to_sympy(f) * to_sympy(g))

    @given(st.integers(0, 4), st.integers(0, 12), st.integers(0, 4),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_compose_sums_many_denominators(self, rows, mid, cols, data):
        # up to 12 terms per entry with denominators up to 30; f times its
        # kernel cancels to 0, and f times a solution to an int b to b
        f = data.draw(matrices(rows, mid, entry=denominated()))
        g = data.draw(matrices(mid, cols, entry=denominated()))
        b = data.draw(matrices(rows, cols, entry=st.integers(-9, 9)))
        out = compose(f, g)
        assert out == from_sympy(to_sympy(f) * to_sympy(g))
        assert stored_canonically(out)
        null = compose(f, kernel_basis(f))
        assert not any(null._c)
        x = sympy_solve(to_sympy(f), to_sympy(b))
        if x is not None:
            hit = compose(f, from_sympy(x))
            assert hit == b and stored_canonically(hit)

    @given(st.one_of(mixed_matrices(), content_matrices()))
    @settings(max_examples=200, deadline=None)
    def test_rref_rank_kernel(self, m):
        sm = to_sympy(m)
        red, pivots, rk = rref(m)
        sred, spivots = sm.rref()
        assert red == from_sympy(sred)
        assert pivots == tuple(spivots)
        assert rk == rank(m) == sm.rank()
        kb = kernel_basis(m)
        null = sm.nullspace()
        assert kb.shape == (m.cols, len(null))
        for j, v in enumerate(null):
            assert kb.column(j) == from_sympy(v)

    @given(st.sampled_from([QQ, GF5]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_cokernel(self, field, data):
        # the projection kills m, has one row per dimension of the
        # cokernel, and is the identity at its free coordinates
        m = data.draw(matrices(data.draw(st.integers(0, 5)),
                               data.draw(st.integers(0, 5)), field,
                               denominated(6, 4, 5)))
        projection, free = cokernel(m)
        assert is_zero(compose(projection, m))
        assert projection.shape == (m.rows - rank(m), m.rows)
        assert projection.gather(free) == Matrix.identity(field, len(free))
        if field == QQ:
            assert m.rows - len(free) == to_sympy(m).rank()

    @given(st.one_of(st.integers(0, 4).flatmap(
        lambda n: mixed_matrices(n, n)), mixed_matrices()))
    @example(Matrix.zeros(QQ, 2, 0))
    @example(Matrix.zeros(QQ, 0, 2))
    @settings(max_examples=200, deadline=None)
    def test_inverse(self, m):
        # a matrix that is not square has no inverse, whatever its rank
        # (qtensor._iso_or_raise relies on it, e.g. for a 2 x 0 unit
        # coherence), and a square one has one exactly at full rank
        sm = to_sympy(m)
        inv = inverse(m)
        if m.rows != m.cols or sm.rank() < m.rows:
            assert inv is None
        else:
            assert inv == from_sympy(sm.inv())


class TestCrossField:
    """Reducing integral Q matrices mod 5 is a ring map on matrices."""

    @staticmethod
    def mod5(m):
        return Matrix(GF5, m.entries, cols=m.cols)

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
           st.integers(0, 3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_reduction_commutes(self, r, k, c, n, data):
        f = data.draw(matrices(r, k))
        g = data.draw(matrices(k, c))
        h = data.draw(matrices(r, k))
        mod5 = self.mod5
        assert mod5(compose(f, g)) == compose(mod5(f), mod5(g))
        assert mod5(kron(f, g)) == kron(mod5(f), mod5(g))
        assert mod5(kron(n, f)) == kron(n, mod5(f))
        assert mod5(kron(f, n)) == kron(mod5(f), n)
        assert mod5(f - h) == mod5(f) - mod5(h)
        assert rank(mod5(f)) <= rank(f)

    @pytest.mark.parametrize("p", [5, 2**61 - 1], ids=["5", "2**61-1"])
    @given(st.integers(0, 4), st.integers(0, 6), st.integers(0, 4),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_fractional_products_commute_with_reduction(self, p, r, k, c,
                                                        data):
        # numerators up to 2**64: over GF(2**61 - 1) a product's int sum
        # passes p many times before its one reduction
        field, entry = FieldSpec("prime", p), denominated(2**64, 30, p)

        def modp(m):
            return Matrix(field, m.entries, cols=m.cols)

        def presentation(ambient):
            # identity at the free coordinates, anything elsewhere
            free = tuple(sorted(data.draw(st.sets(
                st.integers(0, ambient - 1), max_size=ambient)
                if ambient else st.just(set()))))
            proj = data.draw(matrices(len(free), ambient, entry=entry))
            proj = Matrix.build(QQ, len(free), ambient, lambda i, j: (
                int(j == free[i]) if j in free else proj[i, j]))
            return QuotientPresentation(proj, free)

        f = data.draw(matrices(r, k, entry=entry))
        g = data.draw(matrices(k, c, entry=entry))
        assert modp(compose(f, g)) == compose(modp(f), modp(g))
        # descend reaches the hook through descend_columns: projecting to
        # tgt, and gating src's relations; h . src.projection kills them
        src, tgt = presentation(k), presentation(r)
        h = data.draw(matrices(r, src.quotient_dim, entry=entry))
        lift = compose(h, src.projection)
        src_p, tgt_p = (QuotientPresentation(modp(q.projection), q.free)
                        for q in (src, tgt))
        for t, t_p in ((tgt, tgt_p), (r, r)):
            assert modp(descend(lift, src, t)) == \
                descend(modp(lift), src_p, t_p)
