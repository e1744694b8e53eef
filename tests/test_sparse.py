"""The column-sparse matrix representation against plain nested lists.

A ``Matrix`` stores only the nonzeros of its columns, and matrices share
those column dicts.  Every kernel is checked here against a dense oracle
on nested lists over Q (with fractions), GF(3) and GF(5); the stored
form is checked to hold no zero and no integral ``Fraction``; and the
elimination routines are checked to leave their (possibly shared)
arguments as they found them.
"""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwine.errors import DimensionMismatch
from entwine.exactlin import (FieldSpec, Matrix, QQ, _wrap, compose, hstack,
                              inverse, kernel_basis, kron, rank, rref, solve)
from entwine.qtensor import presentation_from_relations, tensor_over

GF3, GF5 = FieldSpec("prime", 3), FieldSpec("prime", 5)
FIELDS = [QQ, GF3, GF5]
SETTINGS = settings(max_examples=60, deadline=None)


def dims():
    return st.integers(0, 4)


@st.composite
def dense(draw, field, rows, cols):
    """Nested lists of canonical scalars, about half of them zero."""
    nonzero = (st.one_of(st.integers(-3, 3),
                         st.fractions(-3, 3, max_denominator=4))
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
    nonzeros only, an int wherever an entry is integral."""
    for col in m._c:
        for x in col.values():
            assert x and (type(x) is int or x.denominator != 1)
            if m.field is not QQ:
                assert 0 <= x < m.field.p
    return [list(row) for row in m.entries]


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
        assert as_lists(-m) == [[reduce_(field, -x) for x in row]
                                for row in d]
        assert m.is_zero() == all(not x for row in d for x in row)

    @given(field_and_matrix(), st.integers(-3, 3),
           st.fractions(-2, 2, max_denominator=3))
    @SETTINGS
    def test_scale(self, fdm, n, q):
        field, d, m = fdm
        scalars = [n, q] if field is QQ else [n]
        for c in scalars:
            assert as_lists(m.scale(c)) == [[reduce_(field, c * x)
                                             for x in row] for row in d]

    @given(field_and_matrix(), st.data())
    @SETTINGS
    def test_gather_and_hstack(self, fdm, data):
        field, d, m = fdm
        cols = data.draw(st.lists(st.integers(0, m.cols - 1), max_size=6)
                         if m.cols else st.just([]))
        g = m.gather(cols)
        assert g.shape == (m.rows, len(cols))
        assert as_lists(g) == [[row[j] for j in cols] for row in d]
        c = data.draw(dims())
        e = data.draw(dense(field, m.rows, c))
        h = hstack([m, g, Matrix(field, e, cols=c)])
        assert h.shape == (m.rows, m.cols + len(cols) + c)
        assert as_lists(h) == [a + [a[j] for j in cols] + b
                               for a, b in zip(d, e)]

    @given(field_and_matrix(), st.data())
    @SETTINGS
    def test_add_sub(self, fdm, data):
        field, d, m = fdm
        e = data.draw(dense(field, m.rows, m.cols))
        n = Matrix(field, e, cols=m.cols)
        for out, op in ((m + n, lambda x, y: x + y),
                        (m - n, lambda x, y: x - y)):
            assert as_lists(out) == [[reduce_(field, op(x, y))
                                      for x, y in zip(a, b)]
                                     for a, b in zip(d, e)]
        assert (m - m).is_zero() and m + n == n + m

    @given(field_and_matrix(), st.data())
    @SETTINGS
    def test_first_difference_is_row_major_first(self, fdm, data):
        field, d, m = fdm
        cells = [(i, j) for i in range(m.rows) for j in range(m.cols)]
        changed = set(data.draw(st.lists(st.sampled_from(cells), max_size=4))
                      if cells else [])
        e = [[reduce_(field, x + 1) if (i, j) in changed else x
              for j, x in enumerate(row)] for i, row in enumerate(d)]
        n = Matrix(field, e, cols=m.cols)
        expected = min(changed) if changed else None
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
        field, _, m = fdm
        twin = _wrap(field, m.rows, [
            {r: Fraction(x) if field is QQ else x
             for r, x in reversed(col.items())} for col in m._c])
        assert twin == m and hash(twin) == hash(m)
        assert twin.first_difference(m) is None

    def test_hstack_of_nothing(self):
        with pytest.raises(DimensionMismatch):
            hstack([])

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

    @given(shared_matrices(), st.data())
    @SETTINGS
    def test_elimination_leaves_its_arguments(self, fsm, data):
        field, m, g = fsm
        b = Matrix(field, data.draw(dense(field, g.rows, 2)), cols=2)
        square = compose(g.transpose(), g)
        before = [x.entries for x in (m, g, b, square)]
        rref(g)
        rank(g)
        kernel_basis(g)
        solve(g, b)
        inverse(square)
        presentation_from_relations(g)
        presentation_from_relations(g.transpose())
        assert [x.entries for x in (m, g, b, square)] == before

    @given(st.sampled_from(FIELDS), st.integers(1, 2), st.integers(1, 2),
           st.integers(1, 2), st.data())
    @SETTINGS
    def test_tensor_over_leaves_its_actions(self, field, dm, da, dn, data):
        ract = Matrix(field, data.draw(dense(field, dm, dm * da)),
                      cols=dm * da)
        lact = Matrix(field, data.draw(dense(field, dn, da * dn)),
                      cols=da * dn)
        before = (ract.entries, lact.entries)
        tensor_over(ract, lact, dm, da, dn)
        assert (ract.entries, lact.entries) == before
