"""Tensor products over an algebra as quotient presentations.

M (x)_A N is the coequalizer of the two middle actions on M (x) A (x) N,
computed as a cokernel.  The balancing relations (m.a) (x) n - m (x) (a.n)
are built as sparse vectors, one per triple of basis vectors (m, a, n),
read off the columns of the two actions.  They are linear in a and vanish
at a = 1 on unital actions, so one family, that of a unit coordinate, is
redundant and not built once unitality has been checked, as two matrix
equalities.  An action kron(L, v) on N = N' (x) k^v is peeled off first:
rel(m, a, n' (x) e_j) = rel(m, a, n') (x) e_j, so the span is S (x) k^v
with rref {r (x) e_j}, and the presentation is the whisker of
M (x)_A N''s; kron(v, R) on M mirrors it.  No action need be associative
or unital for that.  The one elimination routine of ``exactlin`` reduces
the relations, and the quotient is presented by its projection and its
free (non-pivot) ambient coordinates, whose injection is the section.  A
map on the ambient induces one on the quotient when it kills the
relations; every such map (``descend``, the unit coherences,
``corcat.tensor_map``, ``corcat.word_iso``) is formed by ``free_columns``
at the free coordinates alone, and ``descend_columns`` checks that it
kills the relations by one ``Matrix`` equality at the pivot columns.  Only
``corcat.tensor_map`` skips that check, where its factors' module squares
prove the map descends.  Whisker peels are memoised: shared actions are
scanned once.
Presentations are reproducible byte for byte, so golden files are stable.
"""

from __future__ import annotations

from itertools import product

from .errors import DimensionMismatch, DoesNotFactor, NotInvertible
from .exactlin import (Matrix, Record, _combine, _null_rows,
                       _sparse_columns, _wrap, compose, kron, memoised, rank)


class QuotientPresentation(Record):
    """A quotient of k^ambient: its projection, and ``free[j]``, the ambient
    coordinate onto which the section sends quotient coordinate j."""

    __slots__ = ("projection", "free")

    def __post_init__(self):
        if (len(self.free) != self.projection.rows
                or not all(0 <= c < self.ambient_dim for c in self.free)):
            raise DimensionMismatch(
                f"projection {self.projection.shape} vs "
                f"{len(self.free)} free coordinates")

    @property
    def ambient_dim(self) -> int:
        return self.projection.cols

    @property
    def quotient_dim(self) -> int:
        return self.projection.rows


@memoised
def tensor_over(ract_m: Matrix, lact_n: Matrix, dim_m: int, unit: Matrix,
                dim_n: int) -> QuotientPresentation:
    """Presentation of M (x)_A N inside the ambient M (x) N, with ``unit``
    A's unit (dim A x 1).

    rel(a) = (m.a) (x) n - m (x) (a.n) is linear in a, and rel(1) = 0 when
    both actions are unital.  So with 1 = sum u_k a_k, the family of a_k0,
    k0 the last k with u_k != 0, lies in the span of the others and is not
    built.  Unitality is checked, never assumed: on a zero unit or a
    non-unital action every family is built.  The rref of a span is
    unique, so the presentation is the same either way.  A side whiskered
    by k^v (see above) is first peeled off, the largest v in one step.
    """
    dim_a = unit.rows
    if unit.cols != 1:
        raise DimensionMismatch(f"unit shape {unit.shape}")
    if ract_m.shape != (dim_m, dim_m * dim_a):
        raise DimensionMismatch(f"right action shape {ract_m.shape}")
    if lact_n.shape != (dim_n, dim_a * dim_n):
        raise DimensionMismatch(f"left action shape {lact_n.shape}")
    field = ract_m.field
    if lact_n.field != field or unit.field != field:
        raise DimensionMismatch("fields differ")
    if peeled := _peel(lact_n, False):     # N = N' (x) k^v
        v, lact = peeled
        q = tensor_over(ract_m, lact, dim_m, unit, dim_n // v)
        return QuotientPresentation(kron(q.projection, v), tuple(
            f * v + j for f in q.free for j in range(v)))
    if peeled := _peel(ract_m, True):      # M = k^v (x) M'
        v, ract = peeled
        q = tensor_over(ract, lact_n, dim_m // v, unit, dim_n)
        return QuotientPresentation(kron(v, q.projection), tuple(
            i * q.ambient_dim + f for i in range(v) for f in q.free))
    u, r_cols, l_cols = (_sparse_columns(unit)[0], _sparse_columns(ract_m),
                         _sparse_columns(lact_n))
    s, t = ract_m.den, lact_n.den
    # m . 1 = m and 1 . n = n; u is falsy on a zero unit, which has no max
    unital = u and compose(ract_m, kron(dim_m, unit)) == Matrix.identity(
        field, dim_m) and compose(lact_n, kron(unit, dim_n)) == (
            Matrix.identity(field, dim_n))
    kept = [k for k in range(dim_a) if not unital or k != max(u)]

    def relations():
        # (m_i . a_k) (x) n_j - m_i (x) (a_k . n_j), read off the actions'
        # numerators and scaled by the product s * t of their denominators
        for i, k, j in product(range(dim_m), kept, range(dim_n)):
            ma, an = r_cols[i * dim_a + k], l_cols[k * dim_n + j]
            v = {r * dim_n + j: t * x for r, x in ma.items()}
            for r, y in an.items():
                v[i * dim_n + r] = v.get(i * dim_n + r, 0) - s * y
            if v.get(i * dim_n + j) == 0:   # the one key both sides reach
                del v[i * dim_n + j]
            yield v

    return QuotientPresentation(*_null_rows(relations(), dim_m * dim_n, field))


@memoised
def _peel(m: Matrix, right: bool):
    """(v, g) for the largest v > 1 with m == kron(v, g) if ``right``, else
    m == kron(g, v), each candidate compared column by column up to its
    first mismatch; None if there is none."""
    cols = _sparse_columns(m)
    for v in [v for v in range(m.rows, 1, -1) if m.rows % v == 0]:
        rg, cg, g = m.rows // v, m.cols // v, []
        # (i of g, j of k^v) is j*n + i in kron(v, g), i*v + j in kron(g, v)
        at = lambda i, j, n: j * n + i if right else i * v + j
        for c in range(cg):
            gc = {(r % rg if right else r // v): x
                  for r, x in cols[at(c, 0, cg)].items()}
            if not all(len(col := cols[at(c, j, cg)]) == len(gc) and all(
                    col.get(at(i, j, rg)) == x for i, x in gc.items())
                    for j in range(v)):
                break
            g.append(gc)
        else:
            return v, _wrap(m.field, rg, g, m.den)
    return None


def _image(image, cols, tgt, den: int, field) -> Matrix:
    """The matrix whose columns are ``image(c)`` for c in ``cols``, int
    vectors over ``den``, projected to ``tgt`` (an int n, as in ``kron``,
    for k^n itself).  Only a projection reduces mod p, so an image to k^n
    holds canonical numerators itself."""
    if isinstance(tgt, int):
        return _wrap(field, tgt, [image(c) for c in cols], den)
    p = tgt.projection
    p_cols = _sparse_columns(p)
    return _wrap(field, tgt.quotient_dim, [
        _combine(image(c), p_cols, field) for c in cols], den * p.den)


def free_columns(image, src: QuotientPresentation, tgt, den: int) -> Matrix:
    """The map whose column j is ``image(free[j])``, an int vector over
    ``den``, projected to ``tgt`` (as in ``_image``), unchecked.  As
    projection[:, free[j]] = e_j, it is the quotient-level map that the
    ambient-level map with columns ``image(c)`` induces whenever that map
    kills src's relations; a caller that has not proven so goes through
    ``descend_columns``."""
    return _image(image, src.free, tgt, den, src.projection.field)


def descend_columns(image, src: QuotientPresentation, tgt,
                    den: int) -> Matrix:
    """The quotient-level map induced by the ambient-level map whose column
    c is the int vector ``image(c)`` over ``den``, projected to ``tgt`` (as
    in ``_image``); DoesNotFactor unless it kills src's relations.  Its
    columns are ``free_columns``; the relations c - section . projection[:,
    c] are then checked at the pivot columns c, as one matrix equality, so
    no other column of the image is formed."""
    m, free = free_columns(image, src, tgt, den), set(src.free)
    pivots = [c for c in range(src.ambient_dim) if c not in free]
    if compose(m, src.projection.gather(pivots)) != _image(
            image, pivots, tgt, den, m.field):
        raise DoesNotFactor("map does not vanish on the relation span")
    return m


def descend(f: Matrix, src: QuotientPresentation, tgt) -> Matrix:
    """Quotient-level map induced by the ambient-level map f (``tgt`` as in
    ``_image``)."""
    rows = tgt if isinstance(tgt, int) else tgt.ambient_dim
    if f.shape != (rows, src.ambient_dim):
        raise DimensionMismatch(f"map {f.shape} vs {rows} x {src.ambient_dim}")
    return descend_columns(_sparse_columns(f).__getitem__, src, tgt, f.den)


def _iso_or_raise(u: Matrix, message: str) -> Matrix:
    """u itself if it is square of full rank, else NotInvertible(message)."""
    if u.rows != u.cols or rank(u) != u.rows:
        raise NotInvertible(message)
    return u


def unit_coherence(q: QuotientPresentation, collapse: Matrix) -> Matrix:
    """Iso from the quotient induced by a collapsing action map.

    For A (x)_A M the collapse is the left action a (x) m -> a.m; for
    M (x)_A A it is the right action.  Raises NotInvertible if the
    induced map is not an isomorphism (malformed module data).
    """
    u = descend(collapse, q, collapse.rows)
    return _iso_or_raise(u, f"unit coherence {u.shape} is not invertible")
