"""Tensor products over an algebra as quotient presentations.

M (x)_A N is the coequalizer of the two middle actions on M (x) A (x) N,
computed as a cokernel.  The balancing relations (m.a) (x) n - m (x) (a.n)
are built as sparse vectors, one per triple of basis vectors (m, a, n),
read off the columns of the two actions; the one elimination routine of
``exactlin`` reduces them, and the quotient is presented by its (dense)
projection and its free (non-pivot) ambient coordinates, whose injection
is the section.  Presentations are reproducible byte for byte, so golden
files are stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import DimensionMismatch, DoesNotFactor, NotInvertible
from .exactlin import (Matrix, _null_rows, _sparse_columns, _sub_scaled,
                       compose, kron, rank)


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


def trivial_presentation(field, dim: int) -> QuotientPresentation:
    return QuotientPresentation(Matrix.identity(field, dim), tuple(range(dim)))


@lru_cache(maxsize=None)
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
    m_a, a_n = _sparse_columns(ract_m), _sparse_columns(lact_n)

    def relations():
        # (m_i . a_k) (x) n_j - m_i (x) (a_k . n_j), read off the actions
        for i, k, j in product(range(dim_m), range(dim_a), range(dim_n)):
            v = {r * dim_n + j: x for r, x in m_a[i * dim_a + k].items()}
            _sub_scaled(v, 1, {i * dim_n + r: x for r, x in
                               a_n[k * dim_n + j].items()}, field)
            yield v

    return QuotientPresentation(*_null_rows(relations(), dim_m * dim_n, field))


def lift(f: Matrix, q: QuotientPresentation) -> Matrix:
    """f . section, gathered from f's columns."""
    if f.cols != q.ambient_dim:
        raise DimensionMismatch(
            f"map domain {f.cols} vs ambient {q.ambient_dim}")
    return f.gather(q.free)


def induced_map(f: Matrix, q: QuotientPresentation) -> Matrix:
    """The unique g with g . projection = f, if f kills the relations."""
    g = lift(f, q)
    # ker(projection) = image(1 - section.projection), so f kills the
    # relations iff g.projection reproduces f
    if compose(g, q.projection) != f:
        raise DoesNotFactor("map does not vanish on the relation span")
    return g


def descend(f: Matrix, src: QuotientPresentation,
            tgt: QuotientPresentation) -> Matrix:
    """Quotient-level map induced by the ambient-level map f."""
    return induced_map(compose(tgt.projection, f), src)


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


def assoc_coherence(q_left: QuotientPresentation,
                    q_right: QuotientPresentation) -> Matrix:
    """The unique iso between two presentations over the same ambient.

    Sends q_left coordinates to q_right coordinates, commuting with both
    projections.
    """
    if q_left.ambient_dim != q_right.ambient_dim:
        raise DimensionMismatch(
            f"ambients differ: {q_left.ambient_dim} vs "
            f"{q_right.ambient_dim}")
    return _iso_or_raise(induced_map(q_right.projection, q_left),
                         "presentations do not present the same quotient")


def pres_kron(q1: QuotientPresentation,
              q2: QuotientPresentation) -> QuotientPresentation:
    """Presentation of Q1 (x) Q2 over ambient1 (x) ambient2."""
    return QuotientPresentation(kron(q1.projection, q2.projection), tuple(
        c1 * q2.ambient_dim + c2 for c1 in q1.free for c2 in q2.free))


def pres_compose(first: QuotientPresentation,
                 second: QuotientPresentation) -> QuotientPresentation:
    """Quotient of a quotient, presented over the original ambient."""
    if second.ambient_dim != first.quotient_dim:
        raise DimensionMismatch("presentations do not chain")
    return QuotientPresentation(compose(second.projection, first.projection),
                                tuple(first.free[j] for j in second.free))
