"""Quotient tensor products: presentations, induced maps, coherences."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entwine import qtensor
from entwine.algstruct import (Algebra, Bimodule, group_algebra,
                               regular_bimodule)
from entwine.cli import build_gallery
from entwine.comc import comc_obj, comc_one_cell
from entwine.corcat import check_coring, word_iso, word_module, wtensor
from entwine.errors import DimensionMismatch, DoesNotFactor, NotInvertible
from entwine.exactlin import (FieldSpec, Matrix, QQ, _null_rows,
                              _sparse_columns, compose, inverse, kron, rank)
from entwine.qtensor import (QuotientPresentation, descend, tensor_over,
                             unit_coherence)


def quotient_by(relations):
    """The presentation of k^d by the column span of ``relations`` (d x r)
    that ``tensor_over`` builds from its balancing relations."""
    return QuotientPresentation(*_null_rows(
        _sparse_columns(relations), relations.rows, relations.field))


def section(q):
    """The free-coordinate injection of q, ambient x quotient."""
    return Matrix.identity(q.projection.field, q.ambient_dim).gather(q.free)


def is_zero(m):
    return m == Matrix.zeros(m.field, *m.shape)


def cyclic_actions(field, n, t):
    """(ract, lact) matrices for g of C_n acting on k^m by the matrix t."""
    m = t.rows
    powers = [Matrix.identity(field, m)]
    for _ in range(n - 1):
        powers.append(compose(t, powers[-1]))
    assert compose(t, powers[-1]) == powers[0], "t must have order dividing n"
    ract = Matrix.build(field, m, m * n,
                        lambda i, jk: powers[jk % n][i, jk // n])
    lact = Matrix.build(field, m, n * m,
                        lambda i, kj: powers[kj // m][i, kj % m])
    return ract, lact


def random_order_matrix(rng, n, m):
    """A random integral matrix of multiplicative order dividing n."""
    blocks = []
    left = m
    while left > 0:
        if n == 2:
            blocks.append(Matrix(QQ, [[rng.choice([1, -1])]]))
            left -= 1
        else:  # n == 3
            if left >= 2 and rng.random() < 0.5:
                # companion matrix of x^2 + x + 1, a primitive cube root
                blocks.append(Matrix(QQ, [[0, -1], [1, -1]]))
                left -= 2
            else:
                blocks.append(Matrix(QQ, [[1]]))
                left -= 1
    d = sum(b.rows for b in blocks)
    ent = [[0] * d for _ in range(d)]
    off = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.rows):
                ent[off + i][off + j] = b[i, j]
        off += b.rows
    base = Matrix(QQ, ent)
    while True:
        s = Matrix.build(QQ, d, d, lambda i, j: rng.randint(-2, 2))
        sinv = inverse(s)
        if sinv is not None:
            return compose(s, compose(base, sinv))


GF5 = FieldSpec("prime", 5)


def matrix(draw, field, rows, cols):
    """A drawn rows x cols matrix with small entries, over Q also fractions."""
    entry = st.integers(-2, 2)
    if field == QQ:
        entry = st.one_of(entry, st.fractions(-3, 3, max_denominator=4))
    return Matrix(field, [[draw(entry) for _ in range(cols)]
                          for _ in range(rows)], cols=cols)


def relations(draw, field, rows=None):
    """Relations of 0..4 rows (the ambient) and 0..4 columns."""
    rows = draw(st.integers(0, 4)) if rows is None else rows
    return matrix(draw, field, rows, draw(st.integers(0, 4)))


def brute_force_relation_rank(ract_m, lact_n, dim_m, dim_a, dim_n):
    """Row-space rank of all (m.a)(x)n - m(x)(a.n) vectors, via plain

    Fraction Gaussian elimination written independently of exactlin."""
    rows = []
    for i in range(dim_m):
        for j in range(dim_a):
            for k in range(dim_n):
                v = [0] * (dim_m * dim_n)
                for r in range(dim_m):
                    v[r * dim_n + k] += ract_m[r, i * dim_a + j]
                for r in range(dim_n):
                    v[i * dim_n + r] -= lact_n[r, j * dim_n + k]
                rows.append([QQ.coerce(x) for x in v])
    rk = 0
    ncols = dim_m * dim_n
    col = 0
    r = 0
    while col < ncols and r < len(rows):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        rk += 1
        r += 1
        col += 1
    return rk


class TestPresentations:
    def test_projection_section_identity(self):
        a = group_algebra(QQ, 2)
        q = tensor_over(a.mult, a.mult, 2, a.unit, 2)
        assert compose(q.projection, section(q)) == \
            Matrix.identity(QQ, q.quotient_dim)

    def test_a_tensor_a_over_a(self):
        # [DERIVED] ambient 4, relation span rank 2
        a = group_algebra(QQ, 2)
        q = tensor_over(a.mult, a.mult, 2, a.unit, 2)
        assert q.ambient_dim == 4
        assert q.quotient_dim == 2

    def test_tensor_over_base_field_trivial(self):
        # no relations over k: projection is the identity
        ract = Matrix.identity(QQ, 3)  # right k-action on k^3
        lact = Matrix.identity(QQ, 2)
        q = tensor_over(ract, lact, 3, Matrix.identity(QQ, 1), 2)
        assert q.quotient_dim == 6
        assert q.projection == Matrix.identity(QQ, 6)

    def test_sign_module_collapse(self):
        # [DERIVED] A (x)_A sign has dim 1: a (x) m ~ eps_sign(a) m
        a = group_algebra(QQ, 2)
        sign_lact = Matrix(QQ, [[1, -1]])
        q = tensor_over(a.mult, sign_lact, 2, a.unit, 1)
        assert q.ambient_dim == 2
        assert q.quotient_dim == 1

    def test_deterministic(self):
        a = group_algebra(QQ, 3)
        q1 = tensor_over(a.mult, a.mult, 3, a.unit, 3)
        q2 = tensor_over(a.mult, a.mult, 3, a.unit, 3)
        assert q1.projection == q2.projection
        assert section(q1) == section(q2)

    def test_free_coordinates_must_fit_the_projection(self):
        proj = Matrix.identity(QQ, 2)
        assert section(QuotientPresentation(proj, (1, 0))) == \
            Matrix(QQ, [[0, 1], [1, 0]])
        for free in ((0,), (0, 1, 1), (0, 2), (-1, 0)):
            with pytest.raises(DimensionMismatch):
                QuotientPresentation(proj, free)

    def test_kernel_is_relation_span(self):
        rel = Matrix(QQ, [[1, 0], [0, 1], [1, 1]])
        q = quotient_by(rel)
        assert is_zero(compose(q.projection, rel))
        assert q.quotient_dim == 3 - rank(rel)


class TestQuotientOracle:
    def test_twenty_randomized_modules(self):
        # independent second computation path for the quotient dimension
        rng = random.Random(20240817)
        for trial in range(20):
            n = rng.choice([2, 3])
            dm = rng.randint(1, 3)
            dn = rng.randint(1, 3)
            tm = random_order_matrix(rng, n, dm)
            tn = random_order_matrix(rng, n, dn)
            ract, _ = cyclic_actions(QQ, n, tm)
            _, lact = cyclic_actions(QQ, n, tn)
            q = tensor_over(ract, lact, dm, group_algebra(QQ, n).unit, dn)
            oracle = dm * dn - brute_force_relation_rank(
                ract, lact, dm, n, dn)
            assert q.quotient_dim == oracle, f"trial {trial}"


class TestInducedMap:
    def test_projection_induces_identity(self):
        a = group_algebra(QQ, 2)
        q = tensor_over(a.mult, a.mult, 2, a.unit, 2)
        assert descend(q.projection, q, q.quotient_dim) == \
            Matrix.identity(QQ, q.quotient_dim)

    def test_zero_induces_zero(self):
        a = group_algebra(QQ, 2)
        q = tensor_over(a.mult, a.mult, 2, a.unit, 2)
        z = Matrix.zeros(QQ, 3, 4)
        assert is_zero(descend(z, q, 3))

    def test_round_trip(self):
        a = group_algebra(QQ, 3)
        q = tensor_over(a.mult, a.mult, 3, a.unit, 3)
        g = Matrix.build(QQ, 2, q.quotient_dim, lambda i, j: i + 2 * j)
        assert descend(compose(g, q.projection), q, 2) == g

    def test_unbalanced_map_rejected(self):
        a = group_algebra(QQ, 2)
        q = tensor_over(a.mult, a.mult, 2, a.unit, 2)
        # the identity on the ambient does not kill the relations
        with pytest.raises(DoesNotFactor):
            descend(Matrix.identity(QQ, 4), q, 4)

    def test_descend(self):
        a = group_algebra(QQ, 2)
        q = tensor_over(a.mult, a.mult, 2, a.unit, 2)
        # mult (x) id descends because mult is associative
        f = kron(Matrix.identity(QQ, 1), Matrix.identity(QQ, 4))
        d = descend(f, q, q)
        assert d == Matrix.identity(QQ, q.quotient_dim)


class TestDenseSectionOracle:
    """The free coordinates against the dense 0/1 section they stand for."""

    @given(st.data(), st.sampled_from([QQ, GF5]))
    @settings(max_examples=60, deadline=None)
    def test_section_is_a_right_inverse(self, data, field):
        q = quotient_by(relations(data.draw, field))
        assert compose(q.projection, section(q)) == \
            Matrix.identity(field, q.quotient_dim)

    @given(st.data(), st.sampled_from([QQ, GF5]), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_descended_map_is_the_section_product(self, data, field,
                                                  balanced):
        rel = relations(data.draw, field)
        q = quotient_by(rel)
        rows = data.draw(st.integers(0, 3))
        if balanced:
            f = compose(matrix(data.draw, field, rows, q.quotient_dim),
                        q.projection)
        else:
            f = matrix(data.draw, field, rows, q.ambient_dim)
        # f factors exactly when it kills the relation span
        if is_zero(compose(f, rel)):
            assert descend(f, q, rows) == compose(f, section(q))
        else:
            with pytest.raises(DoesNotFactor):
                descend(f, q, rows)

    @given(st.data(), st.sampled_from([QQ, GF5]), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_descend_is_the_dense_gate(self, data, field, balanced):
        rel = relations(data.draw, field)
        src = quotient_by(rel)
        tgt = quotient_by(relations(data.draw, field))
        if balanced:
            f = compose(matrix(data.draw, field, tgt.ambient_dim,
                               src.quotient_dim), src.projection)
        else:
            f = matrix(data.draw, field, tgt.ambient_dim, src.ambient_dim)
        # the projected map factors exactly when it kills the relations
        h = compose(tgt.projection, f)
        if is_zero(compose(h, rel)):
            g = descend(f, src, tgt)
            assert g == compose(h, section(src))
            # canonical entries: no integral Fraction is stored
            assert not any(isinstance(x, Fraction) and x.denominator == 1
                           for row in g.entries for x in row)
        else:
            with pytest.raises(DoesNotFactor):
                descend(f, src, tgt)

    @pytest.mark.parametrize("field", [QQ, GF5], ids=["q", "gf5"])
    def test_gallery_quotient_actions(self, field):
        # the actions wtensor gathers through the free coordinates equal
        # the dense p . (lact (x) n) . (m (x) section) and its mirror
        ws = build_gallery(field)
        pairs = []
        for e in ws.entwinings.values():
            c = comc_obj(e).carrier
            c2 = wtensor(c, c).module
            pairs += [(c, c), (c2, c), (c, c2)]
        for f in ws.one_cells.values():
            cell = comc_one_cell(f)
            pairs += [(cell.cod.carrier, cell.carrier),
                      (cell.carrier, cell.dom.carrier)]
        for xm, ym in pairs:
            assert_dense_actions(xm, ym)

    @pytest.mark.parametrize("kind", [("rational",), ("prime", 5)],
                             ids=["q", "gf5"])
    def test_coring_check_forms_no_cube_word_actions(self, kind):
        # a fresh field, so its memo holds only what these checks built
        field = FieldSpec(*kind)
        corings = [comc_obj(e)
                   for e in build_gallery(field).entwinings.values()]
        for c in corings:
            assert check_coring(c).passed
        formed = {args for fn, args in field._memo
                  if fn is word_module.__wrapped__}
        cubes = 0
        for c in (c.carrier for c in corings):
            c2 = wtensor(c, c).module
            assert (c, c) in formed
            if c2 == c:     # over k[C1], C (x) C is C itself
                continue
            cubes += 1
            assert (c2, c) not in formed and (c, c2) not in formed
            # formed on first read, the actions are the dense ones
            assert_dense_actions(c2, c)
            assert_dense_actions(c, c2)
        assert cubes >= 5


def assert_dense_actions(xm, ym):
    """The actions of xm (x) ym equal the dense p . (lact (x) n) .
    (m (x) section) and its mirror."""
    w = wtensor(xm, ym)
    p, s = w.outer.projection, section(w.outer)
    assert w.module.lact == compose(p, compose(
        kron(xm.lact, ym.dim), kron(xm.left.dim, s)))
    assert w.module.ract == compose(p, compose(
        kron(xm.dim, ym.ract), kron(s, ym.right.dim)))


def algebra(draw, field, dim):
    """An arbitrary dim-dimensional 'algebra': only the shapes are right."""
    return Algebra(dim, matrix(draw, field, dim, dim * dim),
                   matrix(draw, field, dim, 1))


def bimodule(draw, field, left, right):
    """An arbitrary left-right 'bimodule' of dimension 0..3."""
    m = draw(st.integers(0, 3))
    return Bimodule(left, right, m, matrix(draw, field, m, left.dim * m),
                    matrix(draw, field, m, m * right.dim))


def dense_lift(f, q, left, right):
    """f . (1_left (x) section (x) 1_right), as a gather of f's columns."""
    amb = q.ambient_dim
    return f.gather(tuple((i * amb + c) * right + k for i in range(left)
                          for c in q.free for k in range(right)))


class TestDenseRelationOracle:
    """The sparse builders against the dense formulas they replace."""

    @given(st.data(), st.sampled_from([QQ, GF5]))
    @settings(max_examples=100, deadline=None)
    def test_tensor_over_is_the_dense_cokernel(self, data, field):
        dm, da, dn = (data.draw(st.integers(0, 3)) for _ in range(3))
        ract = matrix(data.draw, field, dm, dm * da)
        lact = matrix(data.draw, field, dn, da * dn)
        dense = kron(ract, dn) - kron(dm, lact)
        unit = matrix(data.draw, field, da, 1)
        assert tensor_over(ract, lact, dm, unit, dn) == \
            quotient_by(dense)

    @given(st.data(), st.sampled_from([QQ, GF5]))
    @settings(max_examples=100, deadline=None)
    def test_wtensor_actions_are_the_whiskered_products(self, data, field):
        left, mid, right = (algebra(data.draw, field,
                                    data.draw(st.integers(0, 3)))
                            for _ in range(3))
        xm = bimodule(data.draw, field, left, mid)
        ym = bimodule(data.draw, field, mid, right)
        w = wtensor(xm, ym)
        p = w.outer.projection
        assert w.module.lact == compose(p, dense_lift(
            kron(xm.lact, ym.dim), w.outer, left.dim, 1))
        assert w.module.ract == compose(p, dense_lift(
            kron(xm.dim, ym.ract), w.outer, 1, right.dim))


def diagonal_family(draw, field, da, m):
    """da commuting m x m matrices: the identity, then p . diag(d) . p^-1
    with p drawn invertible and each d drawn from -1, 0, 1, so that the
    actions they define share eigenvectors and leave a quotient."""
    p = matrix(draw, field, m, m)
    p_inv = inverse(p)
    assume(p_inv is not None)
    return [Matrix.identity(field, m)] + [compose(p, compose(Matrix(
        field, [[draw(st.integers(-1, 1)) if i == j else 0
                 for j in range(m)] for i in range(m)]), p_inv))
        for _ in range(da - 1)]


def counted_tensor_over(ract, lact, dm, unit, dn):
    """(tensor_over's presentation, the number of relations it built)."""
    built, null_rows = [], qtensor._null_rows

    def counting(vectors, ncols, field):
        vectors = list(vectors)
        built.append(len(vectors))
        return null_rows(vectors, ncols, field)

    with mock.patch.object(qtensor, "_null_rows", counting):
        q = tensor_over(ract, lact, dm, unit, dn)
    assert len(built) == 1, "a fresh field's memo cannot hold the result"
    return q, built[0]


class TestDroppedUnitFamily:
    """tensor_over skips the relation family of one unit coordinate only
    when both actions are unital, and the presentation never changes."""

    @staticmethod
    def actions(draw, field):
        """(ract, lact, dm, unit, dn): a_0 acts as 1 and each other a_k
        through ``diagonal_family`` on k^dm and k^dn, moved to the basis
        b_k = sum_k' S^-1[k', k] a_k' by a drawn invertible S, so the unit
        S e_0 is not a basis vector."""
        da, dm, dn = (draw(st.integers(lo, 3)) for lo in (2, 1, 1))
        s = matrix(draw, field, da, da)
        s_inv, unit = inverse(s), s.gather((0,))
        assume(s_inv is not None and len(_sparse_columns(unit)[0]) > 1)
        t, u = (diagonal_family(draw, field, da, d) for d in (dm, dn))
        ract = Matrix.build(field, dm, dm * da,
                            lambda r, ik: t[ik % da][r, ik // da])
        lact = Matrix.build(field, dn, da * dn,
                            lambda r, kj: u[kj // dn][r, kj % dn])
        return (compose(ract, kron(dm, s_inv)),
                compose(lact, kron(s_inv, dn)), dm, unit, dn)

    @given(st.data(), st.sampled_from([("rational",), ("prime", 5)]))
    @settings(max_examples=60, deadline=None)
    def test_unital_actions_in_a_fresh_basis(self, data, kind):
        field = FieldSpec(*kind)
        ract, lact, dm, unit, dn = self.actions(data.draw, field)
        da = unit.rows
        q, built = counted_tensor_over(ract, lact, dm, unit, dn)
        assert q == quotient_by(kron(ract, dn) - kron(dm, lact))
        assert built == dm * (da - 1) * dn

    @pytest.mark.parametrize("field", [QQ, GF5], ids=["q", "gf5"])
    def test_a_zero_unit_coordinate_keeps_its_family(self, field):
        # 1 = b_1 + b_2 in the basis b_k = S^-1 e_k, so the family of b_0
        # is not in the span of the others; rel(a_1) = m (x) n kills all
        s = Matrix(field, [[0, 1, 0], [1, 0, 0], [1, 0, 1]])
        s_inv, unit = inverse(s), s.gather((0,))
        ract = compose(Matrix(field, [[1, 1, 0]]), kron(1, s_inv))
        lact = compose(Matrix(field, [[1, 0, 0]]), kron(s_inv, 1))
        q = tensor_over(ract, lact, 1, unit, 1)
        assert q == quotient_by(kron(ract, 1) - kron(1, lact))
        assert q.quotient_dim == 0

    @given(st.data(), st.sampled_from([("rational",), ("prime", 5)]),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_one_sided_unit_keeps_every_family(self, data, kind, right):
        field = FieldSpec(*kind)
        ract, lact, dm, unit, dn = self.actions(data.draw, field)
        da = unit.rows
        # the zero action on one side: 1 . m = 0, so rel(1) != 0
        if right:
            ract = Matrix.zeros(field, dm, dm * da)
        else:
            lact = Matrix.zeros(field, dn, da * dn)
        q, built = counted_tensor_over(ract, lact, dm, unit, dn)
        assert q == quotient_by(kron(ract, dn) - kron(dm, lact))
        assert built == dm * da * dn


class TestCoherences:
    def test_unit_coherence_base_field(self):
        q = quotient_by(Matrix.zeros(QQ, 3, 0))
        u = unit_coherence(q, Matrix.identity(QQ, 3))
        assert u == Matrix.identity(QQ, 3)

    def test_unit_coherence_regular(self):
        # [DERIVED] A (x)_A A ~ A via multiplication, rank 2
        a = group_algebra(QQ, 2)
        q = tensor_over(a.mult, a.mult, 2, a.unit, 2)
        u = unit_coherence(q, a.mult)
        assert u.shape == (2, 2)
        assert inverse(u) is not None
        # inverse is induced by m -> 1 (x) m
        ins = compose(q.projection, kron(a.unit, Matrix.identity(QQ, 2)))
        assert compose(u, ins) == Matrix.identity(QQ, 2)

    def test_unit_coherence_rejects_noniso(self):
        q = quotient_by(Matrix.zeros(QQ, 2, 0))
        with pytest.raises(NotInvertible):
            unit_coherence(q, Matrix.zeros(QQ, 2, 2))

    def test_assoc_coherence_and_pentagon(self):
        # A (x) (A (x) A) -> (A (x) A) (x) A is the inverse of word_iso:
        # the round trip is the identity both ways, and the reverse map
        # carries one bracketing's flat projection to the other's
        reg = regular_bimodule(group_algebra(QQ, 2))
        iso = word_iso(reg, reg, reg)
        back = inverse(iso)
        assert back is not None
        ident = Matrix.identity(QQ, iso.rows)
        assert compose(back, iso) == ident
        assert compose(iso, back) == ident
        rr = wtensor(reg, reg)
        left = compose(wtensor(rr.module, reg).outer.projection,
                       kron(rr.outer.projection, 2))
        right = compose(wtensor(reg, rr.module).outer.projection,
                        kron(2, rr.outer.projection))
        assert compose(back, right) == left

    def test_naturality_of_unit_coherence(self):
        # for a module map f: M -> N, the square A(x)_A M -> M, f commutes
        a = group_algebra(QQ, 2)
        i2 = Matrix.identity(QQ, 2)
        reg = regular_bimodule(a)
        qm = tensor_over(a.mult, reg.lact, 2, a.unit, 2)
        u = unit_coherence(qm, reg.lact)
        # f = right multiplication by g, a left module map A -> A
        g = Matrix(QQ, [[0, 1], [1, 0]])
        lhs = compose(g, u)
        rhs = compose(unit_coherence(qm, reg.lact),
                      descend(kron(i2, g), qm, qm))
        assert lhs == rhs
