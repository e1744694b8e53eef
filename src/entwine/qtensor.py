"""Tensor products over an algebra as quotient presentations.

M (x)_A N is the coequalizer of the two middle actions on M (x) A (x) N,
computed as a cokernel.  The balancing relations (m.a) (x) n - m (x) (a.n)
are built as sparse vectors, one per triple of basis vectors (m, a, n),
read off the columns of the two actions.  They are linear in a and vanish
at a = 1 on unital actions, so one family, that of a unit coordinate, is
redundant and not built once unitality has been checked.  The one
elimination routine of ``exactlin`` reduces them, and the quotient is
presented by its projection and its free (non-pivot) ambient
coordinates, whose injection is the section.  A map on the ambient
induces one on the quotient when it kills the relations; every such map
(``descend``, the unit coherences, ``corcat.tensor_map``,
``corcat.word_iso``) goes through ``descend_columns``, which forms only
the columns it keeps or checks.
Presentations are reproducible byte for byte, so golden files are stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import DimensionMismatch, DoesNotFactor, NotInvertible
from .exactlin import (Matrix, _combine, _null_rows, _sparse_columns,
                       _wrap, memoised, rank)


@dataclass(frozen=True)
class QuotientPresentation:
    """A quotient of k^ambient: its projection, and ``free[j]``, the ambient
    coordinate onto which the section sends quotient coordinate j."""

    projection: Matrix
    free: tuple[int, ...]

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
    unique, so the presentation is the same either way.
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
    u, r_cols, l_cols = (_sparse_columns(unit)[0], _sparse_columns(ract_m),
                         _sparse_columns(lact_n))
    # m_i . 1 = m_i and 1 . n_j = n_j, with 1 = sum u_k a_k
    unital = u and all(
        _combine({i * dim_a + k: x for k, x in u.items()}, r_cols, field)
        == {i: 1} for i in range(dim_m)) and all(
        _combine({k * dim_n + j: x for k, x in u.items()}, l_cols, field)
        == {j: 1} for j in range(dim_n))
    kept = [k for k in range(dim_a) if not unital or k != max(u)]
    # each column of an action as (s, s * column), with int entries
    m_a, a_n = ([field._integral(col) for col in cols]
                for cols in (r_cols, l_cols))

    def relations():
        # (m_i . a_k) (x) n_j - m_i (x) (a_k . n_j), read off the actions
        # and scaled by the product of the two columns' scales
        for i, k, j in product(range(dim_m), kept, range(dim_n)):
            (s, ma), (t, an) = m_a[i * dim_a + k], a_n[k * dim_n + j]
            v = {r * dim_n + j: t * x for r, x in ma.items()}
            for r, y in an.items():
                v[i * dim_n + r] = v.get(i * dim_n + r, 0) - s * y
            if v.get(i * dim_n + j) == 0:   # the one key both sides reach
                del v[i * dim_n + j]
            yield v

    return QuotientPresentation(*_null_rows(relations(), dim_m * dim_n, field))


def descend_columns(image, src: QuotientPresentation, tgt) -> Matrix:
    """The quotient-level map induced by the ambient-level map whose column
    c is the sparse vector ``image(c)``, projected to ``tgt`` (an int n, as
    in ``kron``, for k^n itself); DoesNotFactor unless it kills src's
    relations.  Column j is image(free[j]), as projection[:, free[j]] = e_j;
    the relations c - section . projection[:, c] are checked at the pivot
    columns c, so no other column of the image is formed."""
    field, h, rows = src.projection.field, image, tgt
    if not isinstance(tgt, int):
        p_cols, rows = _sparse_columns(tgt.projection), tgt.quotient_dim
        h = lambda c: _combine(image(c), p_cols, field)
    kept, free = [h(c) for c in src.free], set(src.free)
    for c, combo in enumerate(_sparse_columns(src.projection)):
        if c not in free and _combine(combo, kept, field) != h(c):
            raise DoesNotFactor("map does not vanish on the relation span")
    return _wrap(field, rows, kept)


def descend(f: Matrix, src: QuotientPresentation, tgt) -> Matrix:
    """Quotient-level map induced by the ambient-level map f (``tgt`` as in
    ``descend_columns``)."""
    rows = tgt if isinstance(tgt, int) else tgt.ambient_dim
    if f.shape != (rows, src.ambient_dim):
        raise DimensionMismatch(f"map {f.shape} vs {rows} x {src.ambient_dim}")
    return descend_columns(_sparse_columns(f).__getitem__, src, tgt)


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
