"""Tensor products over an algebra as quotient presentations.

M (x)_A N is the coequalizer of the two middle actions on M (x) A (x) N,
computed as a cokernel.  The balancing relations (m.a) (x) n - m (x) (a.n)
are the columns of two whiskers, kron(ract, N) - kron(M, lact), formed at
the kept triples (m, a, n) alone.  They are linear in a and vanish at
a = 1 on unital actions, so one family, that of a unit coordinate, is
redundant and not built once unitality has been checked, as two matrix
equalities.  An action kron(L, v) on N = N' (x) k^v is peeled off first
(``exactlin.unkron``): rel(m, a, n' (x) e_j) = rel(m, a, n') (x) e_j, so
the span is S (x) k^v with rref {r (x) e_j}, and the presentation is the
whisker of M (x)_A N''s; kron(v, R) on M mirrors it.  No action need be
associative or unital for that.  ``exactlin.cokernel`` reduces the
relations, and the quotient is presented by its projection and its free
(non-pivot) ambient coordinates, whose injection is the section.  A map
on the ambient induces one on the quotient when it kills the relations;
every such map (``descend``, the unit coherences, ``corcat.tensor_map``,
``corcat.word_iso``) is formed by ``free_columns`` from ``image(cols)``,
the matrix of the ambient map's columns ``cols``, at the free
coordinates alone, and ``descend_columns`` checks that it kills the
relations by one ``Matrix`` equality at the pivot columns.  Only
``corcat.tensor_map`` and ``corcat.word_iso`` skip that check, where
their factors' module squares, or the middle factor's bimodule square,
prove the map descends.  No code here reads how a matrix is stored, and
``inverse`` alone decides a coherence iso: one elimination decides and
inverts it.  Presentations are byte-reproducible.
"""

from __future__ import annotations

from itertools import product

from .errors import DimensionMismatch, DoesNotFactor, NotInvertible
from .exactlin import (Matrix, Record, cokernel, compose, inverse, kron,
                       memoised, unkron)


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
    if peeled := unkron(lact_n, False):    # N = N' (x) k^v
        v, lact = peeled
        q = tensor_over(ract_m, lact, dim_m, unit, dim_n // v)
        return QuotientPresentation(kron(q.projection, v), tuple(
            f * v + j for f in q.free for j in range(v)))
    if peeled := unkron(ract_m, True):     # M = k^v (x) M'
        v, ract = peeled
        q = tensor_over(ract, lact_n, dim_m // v, unit, dim_n)
        return QuotientPresentation(kron(v, q.projection), tuple(
            i * q.ambient_dim + f for i in range(v) for f in q.free))
    # m . 1 = m and 1 . n = n; a zero unit has no nonzero coordinate
    nonzero = [k for k in range(dim_a) if unit[k, 0]]
    unital = nonzero and compose(ract_m, kron(dim_m, unit)) == (
        Matrix.identity(field, dim_m)) and compose(
            lact_n, kron(unit, dim_n)) == Matrix.identity(field, dim_n)
    kept = [k for k in range(dim_a) if not unital or k != nonzero[-1]]
    # (m_i . a_k) (x) n_j - m_i (x) (a_k . n_j) is column (i, k, j) of
    # kron(ract_m, N) - kron(M, lact_n)
    rels = [(i * dim_a + k) * dim_n + j
            for i, k, j in product(range(dim_m), kept, range(dim_n))]
    return QuotientPresentation(*cokernel(
        kron(ract_m, dim_n, rels) - kron(dim_m, lact_n, rels)))


def _project(m: Matrix, tgt) -> Matrix:
    """m projected to the quotient ``tgt``, or m itself if ``tgt`` is an
    int n, as in ``kron``, for k^n."""
    return m if isinstance(tgt, int) else compose(tgt.projection, m)


def free_columns(image, src: QuotientPresentation, tgt) -> Matrix:
    """The map ``image(src.free)`` projected to ``tgt`` (see ``_project``),
    unchecked, for ``image(cols)`` the columns ``cols``, in that order, of
    an ambient-level map.  As projection[:, free[j]] = e_j, it is the
    quotient-level map that the ambient-level map induces whenever that map
    kills src's relations; a caller that has not proven so goes through
    ``descend_columns``."""
    return _project(image(src.free), tgt)


def descend_columns(image, src: QuotientPresentation, tgt) -> Matrix:
    """The quotient-level map induced by the ambient-level map whose
    columns ``cols`` are ``image(cols)``, projected to ``tgt`` (see
    ``_project``); DoesNotFactor unless it kills src's relations.  Its
    columns are ``free_columns``; the relations c - section . projection[:,
    c] are then checked at the pivot columns c, as one matrix equality, so
    no other column of the image is formed."""
    m, free = free_columns(image, src, tgt), set(src.free)
    pivots = [c for c in range(src.ambient_dim) if c not in free]
    if compose(m, src.projection.gather(pivots)) != _project(
            image(pivots), tgt):
        raise DoesNotFactor("map does not vanish on the relation span")
    return m


def descend(f: Matrix, src: QuotientPresentation, tgt) -> Matrix:
    """Quotient-level map induced by the ambient-level map f (``tgt`` as in
    ``_project``)."""
    rows = tgt if isinstance(tgt, int) else tgt.ambient_dim
    if f.shape != (rows, src.ambient_dim):
        raise DimensionMismatch(f"map {f.shape} vs {rows} x {src.ambient_dim}")
    return descend_columns(f.gather, src, tgt)


def _iso_or_raise(u: Matrix, message: str) -> Matrix:
    """u if the memoised ``inverse(u)`` exists, else NotInvertible(message)."""
    if inverse(u) is None:
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
