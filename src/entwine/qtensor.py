"""Tensor products over an algebra as quotient presentations.

M (x)_A N is the coequalizer of the two middle actions on M (x) A (x) N,
computed as a cokernel: we row-reduce the span of the balancing relations
(m.a) (x) n - m (x) (a.n) and present the quotient by a deterministic
projection/section pair.  Sections are rref-pivot based, so presentations
are reproducible byte for byte and downstream golden files are stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DimensionMismatch, DoesNotFactor, NotInvertible
from .exactlin import Matrix, _null_rows, compose, kron, rank


@dataclass(frozen=True)
class QuotientPresentation:
    """A quotient of k^ambient given by projection and a chosen section."""

    projection: Matrix
    section: Matrix

    def __post_init__(self):
        if (self.projection.cols != self.section.rows
                or self.projection.rows != self.section.cols):
            raise DimensionMismatch(
                f"projection {self.projection.shape} vs "
                f"section {self.section.shape}")

    @property
    def ambient_dim(self) -> int:
        return self.projection.cols

    @property
    def quotient_dim(self) -> int:
        return self.projection.rows


def presentation_from_relations(relations: Matrix) -> QuotientPresentation:
    """Quotient of k^d by the column span of ``relations`` (d x r).

    The projection kills exactly the relation span; the representative of
    a coset is the one whose rref-pivot coordinates vanish, which makes
    both matrices canonical.
    """
    proj, free = _null_rows(relations.transpose())
    zero, one = relations.field.zero, relations.field.one
    pad = (zero,) * len(free)
    sect = [pad] * relations.rows
    for j, fc in enumerate(free):
        sect[fc] = pad[:j] + (one,) + pad[j + 1:]
    return QuotientPresentation(
        proj, Matrix(relations.field, tuple(sect), cols=len(free), _raw=True))


def trivial_presentation(field, dim: int) -> QuotientPresentation:
    ident = Matrix.identity(field, dim)
    return QuotientPresentation(ident, ident)


@lru_cache(maxsize=None)
def tensor_over(ract_m: Matrix, lact_n: Matrix, dim_m: int, dim_a: int,
                dim_n: int) -> QuotientPresentation:
    """Presentation of M (x)_A N inside the ambient M (x) N."""
    if ract_m.shape != (dim_m, dim_m * dim_a):
        raise DimensionMismatch(f"right action shape {ract_m.shape}")
    if lact_n.shape != (dim_n, dim_a * dim_n):
        raise DimensionMismatch(f"left action shape {lact_n.shape}")
    relations = kron(ract_m, dim_n) - kron(dim_m, lact_n)
    return presentation_from_relations(relations)


def induced_map(f: Matrix, q: QuotientPresentation) -> Matrix:
    """The unique g with g . projection = f, if f kills the relations."""
    if f.cols != q.ambient_dim:
        raise DimensionMismatch(
            f"map domain {f.cols} vs ambient {q.ambient_dim}")
    g = compose(f, q.section)
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
    return QuotientPresentation(kron(q1.projection, q2.projection),
                                kron(q1.section, q2.section))


def pres_compose(first: QuotientPresentation,
                 second: QuotientPresentation) -> QuotientPresentation:
    """Quotient of a quotient, presented over the original ambient."""
    if second.ambient_dim != first.quotient_dim:
        raise DimensionMismatch("presentations do not chain")
    return QuotientPresentation(
        compose(second.projection, first.projection),
        compose(first.section, second.section),
    )
