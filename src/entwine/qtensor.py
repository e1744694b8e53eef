"""Tensor products over an algebra as quotient presentations.

M (x)_A N is the coequalizer of the two middle actions on M (x) A (x) N,
computed as a cokernel.  The balancing relations (m.a) (x) n - m (x) (a.n)
are built as sparse vectors, one per triple of basis vectors (m, a, n),
read off the columns of the two actions; the one elimination routine of
``exactlin`` reduces them, and the quotient is presented by its
projection and its free (non-pivot) ambient coordinates, whose injection
is the section.  A map on the ambient induces one on the quotient when it
kills the relations; every such map (``descend``, ``induced_map``, the
unit coherences, ``corcat.tensor_map``, ``corcat.word_iso``) goes through
``descend_columns``, which forms only the columns it keeps or checks.
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

    @property
    def section(self) -> Matrix:
        """The free-coordinate injection, ambient x quotient."""
        return Matrix.identity(self.projection.field,
                               self.ambient_dim).gather(self.free)


def presentation_from_relations(relations: Matrix) -> QuotientPresentation:
    """Quotient of k^d by the column span of ``relations`` (d x r).

    The projection kills exactly the relation span; the representative of
    a coset is the one whose rref-pivot coordinates vanish, which makes
    the projection and the free coordinates canonical.
    """
    return QuotientPresentation(*_null_rows(
        _sparse_columns(relations), relations.rows, relations.field))


@memoised
def tensor_over(ract_m: Matrix, lact_n: Matrix, dim_m: int, dim_a: int,
                dim_n: int) -> QuotientPresentation:
    """Presentation of M (x)_A N inside the ambient M (x) N."""
    if ract_m.shape != (dim_m, dim_m * dim_a):
        raise DimensionMismatch(f"right action shape {ract_m.shape}")
    if lact_n.shape != (dim_n, dim_a * dim_n):
        raise DimensionMismatch(f"left action shape {lact_n.shape}")
    field = ract_m.field
    if lact_n.field != field:
        raise DimensionMismatch("fields differ")
    # each column of an action as (s, s * column), with int entries
    m_a, a_n = ([field._integral(col) for col in _sparse_columns(act)]
                for act in (ract_m, lact_n))

    def relations():
        # (m_i . a_k) (x) n_j - m_i (x) (a_k . n_j), read off the actions
        # and scaled by the product of the two columns' scales
        for i, k, j in product(range(dim_m), range(dim_a), range(dim_n)):
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


def induced_map(f: Matrix, q: QuotientPresentation) -> Matrix:
    """The unique g with g . projection = f, if f kills the relations."""
    return descend(f, q, f.rows)


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
    u = induced_map(collapse, q)
    return _iso_or_raise(u, f"unit coherence {u.shape} is not invertible")
