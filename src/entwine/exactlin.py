"""Exact linear algebra over Q or a prime field GF(p) on sparse columns.

A ``FieldSpec`` fixes the field per session, owns what differs between
Q and GF(p), and owns the session memo of ``memoised`` functions: a
fresh ``FieldSpec`` starts a fresh memo.  Memo and field are a reference
cycle (a memoised result holds matrices, a matrix its field), so the
cyclic garbage collector, not reference counting, frees a finished session.
Q arithmetic returns canonical scalars: an integral result is an ``int``
and any other a ``fractions.Fraction``, so every matrix entry built by
the field's own operations is canonical with no further pass; over
GF(p) an entry is an int in ``[0, p)``.  A matrix is immutable, hashable
(the memo keys on it) and stores only its columns' nonzeros, as
``{row: value}`` dicts that matrices share and never mutate; ``entries``
is a dense view.
``rank``, ``kernel_basis`` and ``inverse`` all reduce sparse vectors
through the one routine ``_echelon``, and every difference, scaling and
product (``compose``, ``qtensor.descend_columns``) sums its columns
through the one routine ``_combine``.  Both are fraction-free: over Q they
work on integer numerators, and build one ``Fraction`` per non-integral
output entry only at the end; over GF(p) a sum reduces mod p once per entry.

Index convention (normative for the whole package): the basis vector
``(i of X, j of Y)`` of ``X (x) Y`` has flat index ``i * dim(Y) + j``.
Hence ``kron(f, g)[i*rg + j, k*cg + l] = f[i, k] * g[j, l]``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import wraps
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch, InvalidParameter, brief


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson & Webster, Math. Comp. 86 (2017), the value of psi_13).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981
# a string scalar: an int or int/int, in ASCII digits
_SCALAR = re.compile(r"-?[0-9]+(/-?[0-9]+)?")


def _is_prime(n: int) -> bool:
    """Deterministic primality for ``n`` below ``_PRIME_BOUND``."""
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """Either the rationals or GF(p) for a prime p.

    ``FieldSpec(kind, p)`` returns a ``_Rationals`` or ``_PrimeField``,
    each owning what differs between the fields: ``coerce``, ``_combine``
    (every sum of scalar multiples), ``_integral`` and ``_primitive``
    (elimination), and ``mul`` and ``neg``, one hot loop's step each.  Each
    instance owns a session memo; equal instances share no memo.
    """

    __slots__ = ("p", "_memo")

    def __new__(cls, kind: str = "rational", p: Optional[int] = None):
        if kind == "rational":
            if p is not None:
                raise InvalidParameter("rational field takes no modulus")
            cls = _Rationals
        elif kind == "prime":
            if type(p) is int and p >= _PRIME_BOUND:
                raise InvalidParameter(
                    f"modulus {brief(str(p))} is past {_PRIME_BOUND}, "
                    f"the bound of the exact primality test")
            if type(p) is not int or not _is_prime(p):
                raise InvalidParameter(f"{brief(repr(p))} is not a prime")
            cls = _PrimeField
        else:
            raise InvalidParameter(f"unknown field kind {brief(repr(kind))}")
        self = object.__new__(cls)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_memo", {})
        return self

    def __setattr__(self, name, value):
        raise AttributeError("FieldSpec is immutable")

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.kind, self.p) == (other.kind, other.p))

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return ("FieldSpec('rational')" if self.p is None
                else f"FieldSpec('prime', p={self.p})")

    def coerce(self, x):
        """Canonical scalar from an int, Fraction or string.

        A string is an int or int/int in ASCII digits, each side with at
        most a leading "-", such as "3" or "-1/2".  Other text,
        a zero denominator, or over GF(p) a reduced denominator that p
        divides, is an ``InvalidParameter``, and so is a bool: JSON's
        ``true`` is not a scalar.  Over Q the result is a ``Fraction``.
        """
        if isinstance(x, str):
            x = self._parse(x)
        return self._from_number(x)

    @staticmethod
    def _parse(text: str):
        num, slash, den = text.partition("/")
        try:
            if _SCALAR.fullmatch(text):
                return Fraction(int(num), int(den)) if slash else int(text)
        except ValueError:      # past ``int``'s limit on digits
            pass
        except ZeroDivisionError:
            raise InvalidParameter(
                f"zero denominator in {brief(repr(text))}") from None
        raise InvalidParameter(f"{brief(repr(text))} is not an int or int/int")


class _Rationals(FieldSpec):
    """Q.  ``coerce`` returns a ``Fraction``, every other op a canonical
    scalar: an integral result is an ``int``, any other a ``Fraction``; the
    two agree under ``==``, ``hash`` and ``str``."""

    __slots__ = ()
    kind = "rational"

    def _from_number(self, x):
        if isinstance(x, Fraction):
            return x
        if type(x) is int:
            return Fraction(x)
        raise InvalidParameter(f"cannot coerce {brief(repr(x))} to a rational")

    def mul(self, a, b):
        return _demote(a * b)

    def neg(self, a):
        return -a

    # fraction-free hooks on sparse vectors: ``_combine`` of products,
    # ``_integral`` and ``_primitive`` of elimination (``_echelon``)
    def _combine(self, coeffs: dict, cols) -> dict:
        """The nonzeros of sum(a * cols[k]): row r sums int numerators
        over den[r], the lcm of its terms' denominators, and becomes one
        canonical scalar at the end."""
        num, den = {}, {}
        for k, a in coeffs.items():
            an, ad = a.numerator, a.denominator
            for r, x in cols[k].items():
                if type(x) is int:
                    n, d = an * x, ad
                else:
                    n, d = an * x.numerator, ad * x.denominator
                if r not in num:
                    num[r], den[r] = n, d
                elif d == (e := den[r]):
                    num[r] += n
                else:
                    g = gcd(d, e)
                    num[r] = num[r] * (d // g) + n * (e // g)
                    den[r] = e // g * d
        v = {}
        for r, n in num.items():
            if n:
                q, m = divmod(n, den[r])
                v[r] = Fraction(n, den[r]) if m else q
        return v

    def _integral(self, v: dict):
        """(s, s * v), s the lcm of the denominators: s * v has int entries."""
        if Fraction not in set(map(type, v.values())):
            return 1, v
        s = lcm(*[x.denominator for x in v.values()])
        return s, {j: x.numerator * (s // x.denominator)
                   for j, x in v.items()}

    def _primitive(self, v: dict) -> dict:
        """The int vector v over the gcd of its entries, leading entry > 0."""
        g = gcd(*v.values())
        if v and v[min(v)] < 0:
            g = -g
        return v if g == 1 else {j: x // g for j, x in v.items()}


class _PrimeField(FieldSpec):
    """GF(p), with scalars the ints in ``[0, p)``."""

    __slots__ = ()
    kind = "prime"

    def _from_number(self, x):
        if type(x) is int:
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise InvalidParameter(
                    f"{brief(str(x))} has no value in GF({self.p})")
            inv = pow(x.denominator, self.p - 2, self.p)
            return x.numerator * inv % self.p
        raise InvalidParameter(
            f"cannot coerce {brief(repr(x))} to GF({self.p})")

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def _combine(self, coeffs: dict, cols) -> dict:
        """sum(a * cols[k]) in plain ints, reduced mod p once per entry."""
        v = {}
        for k, a in coeffs.items():
            for r, x in cols[k].items():
                v[r] = v.get(r, 0) + a * x
        p = self.p
        return {r: y for r, x in v.items() if (y := x % p)}

    def _integral(self, v: dict):
        return 1, v

    def _primitive(self, v: dict) -> dict:
        """The int vector v reduced mod p, zeros dropped, leading entry 1."""
        p = self.p
        v = {j: y for j, x in v.items() if (y := x % p)}
        s = pow(v[min(v)], -1, p) if v else 1
        return v if s == 1 else {j: x * s % p for j, x in v.items()}


def memoised(fn):
    """Keep ``fn(*args)`` in the memo of ``args[0].field`` unless it raises."""
    @wraps(fn)
    def wrapper(*args):
        memo, key = args[0].field._memo, (fn, args)
        result = memo.get(key, memo)    # the memo itself marks a miss
        if result is memo:
            result = memo[key] = fn(*args)
        return result
    return wrapper


def _demote(x):
    """An integral ``Fraction`` as an ``int``; any other scalar as it is."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def _transposed(vectors, n: int) -> list:
    """n sparse vectors: the j-th holds ``{i: vectors[i][j]}``."""
    out = [{} for _ in range(n)]
    for i, v in enumerate(vectors):
        for j, x in v.items():
            out[j][i] = x
    return out


QQ = FieldSpec("rational")


class Matrix:
    """Immutable sparse matrix with exact entries over a fixed FieldSpec.

    Column j is stored as ``_c[j]``, the ``{row: value}`` dict of its
    nonzeros; matrices may share these dicts, so none is ever mutated.
    """

    __slots__ = ("field", "rows", "cols", "_c", "_hash")

    def __init__(self, field: FieldSpec, entries: Sequence[Sequence], *,
                 cols: Optional[int] = None):
        """The matrix of the dense rows ``entries``, ``cols`` wide."""
        rows = len(entries)
        if cols is None:
            cols = len(entries[0]) if rows else 0
        c = [{} for _ in range(cols)]
        for i, row in enumerate(entries):
            if len(row) != cols:
                raise DimensionMismatch("ragged rows")
            for j, x in enumerate(row):
                if x := _demote(field.coerce(x)):
                    c[j][i] = x
        _wrap(field, rows, c, m=self)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return _wrap(field, rows, [{}] * cols)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        return _wrap(field, n, [{i: 1} for i in range(n)])

    @classmethod
    def build(cls, field: FieldSpec, rows: int, cols: int, fn) -> "Matrix":
        """Entry-wise construction from fn(i, j)."""
        return cls(field, [[fn(i, j) for j in range(cols)]
                           for i in range(rows)], cols=cols)

    # -- basics -----------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def entries(self) -> tuple:
        """The dense rows, a view derived from the columns."""
        return tuple(tuple(c.get(i, 0) for c in self._c)
                     for i in range(self.rows))

    def __getitem__(self, ij):
        i, j = ij
        return self._c[j].get(range(self.rows)[i], 0)

    def __eq__(self, other):
        return isinstance(other, Matrix) and (
            (self.field, self.rows, self.cols, self._c)
            == (other.field, other.rows, other.cols, other._c))

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.field, self.rows, self.cols,
                      tuple(hash(frozenset(c.items())) for c in self._c)))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        body = "; ".join(" ".join(str(c.get(i, 0)) for c in self._c)
                         for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return _wrap(self.field, self.rows, [
            _combine({0: 1, 1: -1}, pair, self.field)
            for pair in zip(self._c, other._c)])

    def scale(self, c) -> "Matrix":
        coeffs = {0: self.field.coerce(c)}
        return _wrap(self.field, self.rows, [
            _combine(coeffs, (col,), self.field) for col in self._c])

    def transpose(self) -> "Matrix":
        return _wrap(self.field, self.cols, _transposed(self._c, self.rows))

    def first_difference(self, other: "Matrix"):
        """Coordinates of the first differing entry in row-major order, or
        None if equal."""
        self._same_shape(other)
        first = None
        for j, (a, b) in enumerate(zip(self._c, other._c)):
            if a != b:
                i = min(r for r in a.keys() | b.keys() if a.get(r) != b.get(r))
                if first is None or i < first[0]:
                    first = (i, j)
        return first

    def gather(self, cols: Sequence[int]) -> "Matrix":
        """The matrix of columns ``cols`` of self, in that order."""
        return _wrap(self.field, self.rows,
                     list(map(self._c.__getitem__, cols)))

    def column(self, j: int) -> "Matrix":
        return self.gather((j,))

    def _same_shape(self, other: "Matrix"):
        if self.shape != other.shape or self.field != other.field:
            raise DimensionMismatch(
                f"shape {self.shape} vs {other.shape}")


def _wrap(field: FieldSpec, rows: int, columns: list, m=None) -> Matrix:
    """The matrix (m, or a new one) of canonical sparse ``{row: value}``
    columns of nonzeros, unchecked."""
    m = object.__new__(Matrix) if m is None else m
    for name, value in zip(Matrix.__slots__,
                           (field, rows, len(columns), columns, None)):
        object.__setattr__(m, name, value)
    return m


def expect_shapes(obj, what: str, **shapes):
    """Check the named matrix attributes of a frozen dataclass.

    A 0 x 0 matrix where a 0-row shape is expected takes that shape: a
    matrix without rows has no entries, only a width, and a workspace
    file writes every such matrix as ``[]``.
    """
    wrong = []
    for attr, shape in shapes.items():
        m = getattr(obj, attr)
        if m.shape == (0, 0) and shape[0] == 0:
            m = Matrix.zeros(m.field, *shape)
            object.__setattr__(obj, attr, m)
        if m.shape != shape:
            wrong.append(f"{attr} {m.shape}, expected {shape}")
    if wrong:
        raise DimensionMismatch(f"{what}: {', '.join(wrong)}")


def compose(f: Matrix, g: Matrix, *more: Matrix) -> Matrix:
    """Matrix product f.g, i.e. the map f after the map g; further factors
    are applied first, ``compose(f, g, h) = compose(f, compose(g, h))``."""
    if more:
        g = compose(g, *more)
    if f.field != g.field:
        raise DimensionMismatch("fields differ")
    if f.cols != g.rows:
        raise DimensionMismatch(
            f"compose: {f.shape} after {g.shape}")
    return _wrap(f.field, f.rows,
                 [_combine(col, f._c, f.field) for col in g._c])


def kron(f, g) -> Matrix:
    """Kronecker product under the row-major index convention.

    Either factor may be an int n, standing for the n x n identity: the
    whisker re-indexes the other factor's columns, with no scalar
    multiplication.  Two matrices compose their two whiskers.
    """
    if isinstance(f, int):
        rg = g.rows
        return _wrap(g.field, f * rg, [
            {i * rg + r: x for r, x in c.items()} if i else c
            for i in range(f) for c in g._c])
    if isinstance(g, int):
        return _wrap(f.field, f.rows * g, [
            {i * g + j: x for i, x in c.items()} if g != 1 else c
            for c in f._c for j in range(g)])
    # the interchange law: f (x) g = (f (x) 1) . (1 (x) g)
    return compose(kron(f, g.rows), kron(f.cols, g))


def _sparse_columns(m: Matrix) -> list:
    """The columns of m as ``{row: value}`` dicts of their nonzeros: the
    stored ones, shared, so not to be mutated."""
    return m._c


def _combine(coeffs: dict, cols, field: FieldSpec) -> dict:
    """The nonzeros of sum(a * cols[k]) over (k, a) in ``coeffs``."""
    if len(coeffs) == 1:
        (k, a), = coeffs.items()
        if a == 1:
            return cols[k]
    return field._combine(coeffs, cols)


def _clear(v: dict, c: int, row: dict) -> None:
    """v := a * v - b * row on int vectors, with a : b = row[c] : v[c] in
    lowest terms and row[c] > 0, so v vanishes at c; zeros are dropped."""
    d, x = row[c], v[c]
    g = gcd(d, x)
    a, b = d // g, x // g
    if a != 1:
        for j in v:
            v[j] *= a
    for j, y in row.items():
        z = v.get(j, 0) - b * y
        if z:
            v[j] = z
        else:
            del v[j]


def _echelon(vectors: Iterable[dict], field: FieldSpec) -> dict:
    """The reduced row echelon basis of the span of sparse vectors.

    Each vector is a ``{col: value}`` dict of nonzeros, left unchanged
    (it may be a matrix's stored column).
    Returns ``{pivot: row}``: each row is 1 at its pivot, its leading
    column, and 0 at every other pivot.

    Elimination is fraction-free: vectors are scaled to int entries, and
    a stored row is an int vector (primitive over Q, monic over GF(p))
    whose pivot entry is its denominator, divided out only at the end.
    """
    # holders: column -> a superset of the pivots of the rows holding it
    # (clearing a row with v only adds columns of v to its support)
    rows, holders = {}, {}
    integral, primitive = field._integral, field._primitive
    for v in vectors:
        if not v:
            continue
        v = dict(integral(v)[1])
        # rows are fully reduced, so clearing one pivot of v sets no other
        for c in [c for c in v if c in rows]:
            _clear(v, c, rows[c])
        v = primitive(v)
        if not v:
            continue
        p = min(v)
        held = [q for q in holders.pop(p, ()) if p in rows[q]]
        for q in held:
            _clear(rows[q], p, v)
            rows[q] = primitive(rows[q])    # a row keeps its pivot q < p
        rows[p] = v
        for c in v:
            holders.setdefault(c, set()).update(held, (p,))
    for p, row in rows.items():
        d = row[p]
        if d != 1:
            rows[p] = {j: x // d if x % d == 0 else Fraction(x, d)
                       for j, x in row.items()}
    return rows


def rank(m: Matrix) -> int:
    return len(_echelon(m.transpose()._c, m.field))


def _null_rows(vectors: Iterable[dict], ncols: int,
              field: FieldSpec) -> tuple[Matrix, tuple]:
    """The free-column basis of the annihilator of sparse vectors in k^ncols.

    Returns the basis as the rows of a matrix, and the free (non-pivot)
    columns: row j is 1 at ``free[j]``, 0 at the other free columns, and
    minus the echelon entries at the pivots.
    """
    ech = _echelon(vectors, field)
    free = tuple(c for c in range(ncols) if c not in ech)
    where, neg = {c: j for j, c in enumerate(free)}, field.neg
    # a pivot column holds minus its echelon row at the free columns
    return _wrap(field, len(free), [
        {where[j]: neg(x) for j, x in ech[c].items() if j != c}
        if c in ech else {where[c]: 1} for c in range(ncols)]), free


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a basis of the right kernel of m."""
    return _null_rows(m.transpose()._c, m.cols, m.field)[0].transpose()


@memoised
def inverse(m: Matrix) -> Optional[Matrix]:
    """Two-sided inverse when square and full-rank, else None."""
    n = m.rows
    if n != m.cols:
        return None
    rows = [{**row, n + i: 1} for i, row in enumerate(m.transpose()._c)]
    # the rows of [m | I] reduce to [I | m^-1] when m has full rank, and
    # otherwise leave a pivot in the I block
    ech = _echelon(rows, m.field)
    if any(p >= n for p in ech):
        return None
    return _wrap(m.field, n, _transposed(
        [{j - n: x for j, x in ech[p].items() if j >= n} for p in range(n)],
        n))


def flip(field: FieldSpec, dim_x: int, dim_y: int) -> Matrix:
    """The symmetry X (x) Y -> Y (x) X on basis vectors."""
    # column i * dim_y + j is 1 at row j * dim_x + i
    return Matrix.identity(field, dim_x * dim_y).gather(tuple(
        j * dim_x + i for i in range(dim_x) for j in range(dim_y)))
