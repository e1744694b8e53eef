"""The column-sparse matrix representation against plain nested lists.

A ``Matrix`` stores only the nonzeros of its columns, and matrices share
those column dicts.  Every kernel is checked here against a dense oracle
on nested lists over Q (with fractions over mixed denominators), GF(3)
and GF(5); the stored form is checked to hold int numerators, no zero,
over one denominator in lowest terms (1 over GF(p)); and the elimination
routines are checked to leave their (possibly shared) arguments as they
found them.
"""

import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwine.exactlin import (FieldSpec, Matrix, QQ, _wrap, compose, inverse,
                              kernel_basis, kron, rank)
from entwine.qtensor import tensor_over
from test_qtensor import quotient_by

GF3, GF5 = FieldSpec("prime", 3), FieldSpec("prime", 5)
FIELDS = [QQ, GF3, GF5]
SETTINGS = settings(max_examples=60, deadline=None)


def dims():
    return st.integers(0, 4)


@st.composite
def dense(draw, field, rows, cols):
    """Nested lists of canonical scalars, about half of them zero; over Q
    the denominators of one matrix mix, sharing factors or not."""
    nonzero = (st.one_of(st.integers(-3, 3),
                         st.fractions(-3, 3, max_denominator=4),
                         st.builds(Fraction, st.integers(-12, 12),
                                   st.sampled_from([2, 3, 4, 6, 9, 12])))
               if field is QQ else st.integers(1, field.p - 1))
    entry = st.one_of(st.just(0), nonzero)
    rows_ = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))
    return [[reduce_(field, Fraction(x)) for x in row] for row in rows_]


def reduce_(field, x):
    """x as the oracle holds it: a Fraction over Q, an int in [0, p)."""
    return Fraction(x) if field is QQ else int(Fraction(x)) % field.p


def as_lists(m: Matrix) -> list:
    """The entries of m as nested lists, after checking its stored form:
    nonzero int numerators over an int den >= 1 in lowest terms, so den 1
    for the zero matrix, and over GF(p) den 1 and numerators in [0, p);
    the entries are then canonical, an int wherever one is integral."""
    nums = [x for col in m._c for x in col.values()]
    assert all(type(x) is int and x for x in nums)
    assert type(m.den) is int and m.den >= 1 and gcd(m.den, *nums) == 1
    if m.field is not QQ:
        assert m.den == 1 and all(0 <= x < m.field.p for x in nums)
    rows = [list(row) for row in m.entries]
    assert all(type(x) is int or x.denominator != 1 for row in rows
               for x in row)
    return rows


def oracle_compose(field, a, b, cols):
    return [[reduce_(field, sum((a[i][k] * b[k][j] for k in range(len(b))),
                                Fraction(0))) for j in range(cols)]
            for i in range(len(a))]


def identity_lists(field, n):
    return [[reduce_(field, int(i == j)) for j in range(n)] for i in range(n)]


@st.composite
def field_and_matrix(draw, rows=None, cols=None):
    field = draw(st.sampled_from(FIELDS))
    rows = draw(dims()) if rows is None else rows
    cols = draw(dims()) if cols is None else cols
    d = draw(dense(field, rows, cols))
    return field, d, Matrix(field, d, cols=cols)


class TestDenseOracle:
    @given(st.sampled_from(FIELDS), st.lists(dims(), min_size=3, max_size=5),
           st.data())
    @SETTINGS
    def test_compose_of_several_factors(self, field, sizes, data):
        ds = [data.draw(dense(field, r, c))
              for r, c in zip(sizes, sizes[1:])]
        ms = [Matrix(field, d, cols=c) for d, c in zip(ds, sizes[1:])]
        expected = ds[-1]
        for d in reversed(ds[:-1]):
            expected = oracle_compose(field, d, expected, sizes[-1])
        out = compose(*ms)
        assert out.shape == (sizes[0], sizes[-1])
        assert as_lists(out) == expected

    @given(st.sampled_from(FIELDS), st.data())
    @SETTINGS
    def test_kron(self, field, data):
        rf, cf, rg, cg = (data.draw(st.integers(0, 3)) for _ in range(4))
        f, g = data.draw(dense(field, rf, cf)), data.draw(dense(field, rg, cg))
        fm, gm = Matrix(field, f, cols=cf), Matrix(field, g, cols=cg)
        n = data.draw(st.integers(0, 3))
        cases = [(fm, gm, f, g, cf, cg),
                 (n, gm, identity_lists(field, n), g, n, cg),
                 (fm, n, f, identity_lists(field, n), cf, n)]
        for a, b, da, db, ca, cb in cases:
            expected = [[reduce_(field, da[i][k] * db[j][l])
                         for k in range(ca) for l in range(cb)]
                        for i in range(len(da)) for j in range(len(db))]
            out = kron(a, b)
            assert out.shape == (len(da) * len(db), ca * cb)
            assert as_lists(out) == expected

    @given(field_and_matrix())
    @SETTINGS
    def test_transpose_neg_is_zero(self, fdm):
        field, d, m = fdm
        t = m.transpose()
        assert t.shape == (m.cols, m.rows)
        assert as_lists(t) == [[d[i][j] for i in range(m.rows)]
                               for j in range(m.cols)]
        zero = Matrix.zeros(field, m.rows, m.cols)
        assert as_lists(zero - m) == [[reduce_(field, -x) for x in row]
                                      for row in d]
        assert (m == zero) == all(not x for row in d for x in row)

    @given(field_and_matrix(), st.integers(-3, 3),
           st.fractions(-2, 2, max_denominator=3))
    @SETTINGS
    def test_scale(self, fdm, n, q):
        field, d, m = fdm
        scalars = [n, q, 0] if field is QQ else [n, 0]
        for c in scalars:
            assert as_lists(m.scale(c)) == [[reduce_(field, c * x)
                                             for x in row] for row in d]
        assert (m.scale(0).den, m.scale(0)) == (
            1, Matrix.zeros(field, m.rows, m.cols))

    @given(field_and_matrix(), st.data())
    @SETTINGS
    def test_gather(self, fdm, data):
        field, d, m = fdm
        cols = data.draw(st.lists(st.integers(0, m.cols - 1), max_size=6)
                         if m.cols else st.just([]))
        g = m.gather(cols)
        assert g.shape == (m.rows, len(cols))
        assert as_lists(g) == [[row[j] for j in cols] for row in d]

    @given(field_and_matrix(), st.data())
    @SETTINGS
    def test_sub(self, fdm, data):
        field, d, m = fdm
        e = data.draw(dense(field, m.rows, m.cols))
        n = Matrix(field, e, cols=m.cols)
        assert as_lists(m - n) == [[reduce_(field, x - y)
                                    for x, y in zip(a, b)]
                                   for a, b in zip(d, e)]
        assert as_lists(m - m) == as_lists(Matrix.zeros(field, *m.shape))
        assert (m - m).den == 1 and m - m == Matrix.zeros(field, *m.shape)
        assert m - (m - n) == n

    @given(field_and_matrix(), st.data())
    @SETTINGS
    def test_first_difference_is_row_major_first(self, fdm, data):
        field, d, m = fdm
        cells = [(i, j) for i in range(m.rows) for j in range(m.cols)]
        changed = set(data.draw(st.lists(st.sampled_from(cells), max_size=4))
                      if cells else [])
        # over Q a change may move the denominator of the whole matrix
        delta = data.draw(st.sampled_from(
            [1, Fraction(1, 2), Fraction(5, 3)] if field is QQ else [1]))
        e = [[reduce_(field, x + delta) if (i, j) in changed else x
              for j, x in enumerate(row)] for i, row in enumerate(d)]
        n = Matrix(field, e, cols=m.cols)
        scan = [(i, j) for i, j in cells if d[i][j] != e[i][j]]
        expected = min(changed) if changed else None
        assert expected == (scan[0] if scan else None)
        assert m.first_difference(n) == expected
        assert n.first_difference(m) == expected


class TestStoredForm:
    def test_index_out_of_range(self):
        m = Matrix(QQ, [[1, 0], [0, 2]])
        assert (m[1, 1], m[0, 1], m[-1, -1]) == (2, 0, 2)
        for ij in ((2, 0), (0, 2), (-3, 0), (0, -3)):
            with pytest.raises(IndexError):
                m[ij]
        with pytest.raises(IndexError):
            Matrix.zeros(QQ, 0, 3)[0, 0]

    @given(field_and_matrix())
    @SETTINGS
    def test_eq_and_hash_ignore_insertion_order_and_int_vs_fraction(
            self, fdm):
        # the twin stores the numerators in reverse order and, over Q,
        # over an unreduced denominator: 6 den over 6 den^2
        field, _, m = fdm
        k = 6 if field is QQ else 1
        twin = _wrap(field, m.rows, [
            {r: k * m.den * x for r, x in reversed(col.items())}
            for col in m._c], k * m.den * m.den)
        assert twin == m and hash(twin) == hash(m)
        assert (twin._c, twin.den) == (m._c, m.den)
        assert twin.first_difference(m) is None
        assert as_lists(twin) == as_lists(m)

    @pytest.mark.parametrize("build", [
        lambda: Matrix.identity(QQ, 4096),
        lambda: kron(64, Matrix.identity(QQ, 64))],
        ids=["identity-4096", "kron-64-identity-64"])
    def test_large_identities_stay_small(self, build):
        # dense storage of 4096 x 4096 entries needs over 128 MiB
        tracemalloc.start()
        try:
            m = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.shape == (4096, 4096)
        assert peak < 4 * 2 ** 20


@st.composite
def shared_matrices(draw):
    """A matrix whose columns are shared with another, and repeat."""
    field, _, m = draw(field_and_matrix(cols=draw(st.integers(1, 4))))
    cols = draw(st.lists(st.integers(0, m.cols - 1), max_size=5))
    return field, m, m.gather(cols + cols[:1])


class TestArgumentsUnchanged:
    """Elimination never writes through to a matrix argument's columns."""

    @given(shared_matrices())
    @SETTINGS
    def test_elimination_leaves_its_arguments(self, fsm):
        field, m, g = fsm
        square = compose(g.transpose(), g)
        before = [x.entries for x in (m, g, square)]
        rank(g)
        kernel_basis(g)
        inverse(square)
        quotient_by(g)
        quotient_by(g.transpose())
        assert [x.entries for x in (m, g, square)] == before

    @given(st.sampled_from(FIELDS), st.integers(1, 2), st.integers(1, 2),
           st.integers(1, 2), st.data())
    @SETTINGS
    def test_tensor_over_leaves_its_actions(self, field, dm, da, dn, data):
        ract = Matrix(field, data.draw(dense(field, dm, dm * da)),
                      cols=dm * da)
        lact = Matrix(field, data.draw(dense(field, dn, da * dn)),
                      cols=da * dn)
        unit = Matrix(field, data.draw(dense(field, da, 1)), cols=1)
        before = (ract.entries, lact.entries, unit.entries)
        tensor_over(ract, lact, dm, unit, dn)
        assert (ract.entries, lact.entries, unit.entries) == before
