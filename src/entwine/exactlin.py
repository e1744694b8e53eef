"""Exact linear algebra over Q or a prime field GF(p) on sparse columns.

A ``FieldSpec`` fixes the field per session, owns the arithmetic, and
owns the session memo of ``memoised`` functions: a fresh ``FieldSpec``
starts a fresh memo.  Memo and field are a reference cycle (a memoised
result holds matrices, a matrix its field), so the cyclic garbage
collector, not reference counting, frees a finished session.
Q arithmetic returns canonical scalars: an integral result is an ``int``
and any other a ``fractions.Fraction``, so every matrix entry built by
the field's own operations is canonical with no further pass; over
GF(p) an entry is an int in ``[0, p)``.  A matrix is immutable, hashable
(the memo keys on it) and stores only its columns' nonzeros, as
``{row: value}`` dicts that matrices share and never mutate; ``entries``
is a dense view.
``rref``, ``rank``, ``solve`` and ``kernel_basis`` all reduce sparse
vectors through the one routine ``_echelon``.  It is fraction-free: over
Q it reduces integer vectors, and builds one ``Fraction`` per
non-integral output entry only at the end.

Index convention (normative for the whole package): the basis vector
``(i of X, j of Y)`` of ``X (x) Y`` has flat index ``i * dim(Y) + j``.
Hence ``kron(f, g)[i*rg + j, k*cg + l] = f[i, k] * g[j, l]``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch, InvalidParameter


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson & Webster, Math. Comp. 86 (2017), the value of psi_13).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


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

    ``FieldSpec(kind, p)`` returns an instance of ``_Rationals`` or
    ``_PrimeField``; each subclass owns the scalar arithmetic of its
    field, so no scalar op tests the kind.  Each instance owns a session
    memo; equal instances share no memo.
    """

    __slots__ = ("p", "_memo")
    zero, one = 0, 1

    def __new__(cls, kind: str = "rational", p: Optional[int] = None):
        if kind == "rational":
            if p is not None:
                raise InvalidParameter("rational field takes no modulus")
            cls = _Rationals
        elif kind == "prime":
            if type(p) is int and p >= _PRIME_BOUND:
                raise InvalidParameter(
                    f"modulus {p} is past {_PRIME_BOUND}, the bound of "
                    f"the exact primality test")
            if type(p) is not int or not _is_prime(p):
                raise InvalidParameter(f"{p!r} is not a prime")
            cls = _PrimeField
        else:
            raise InvalidParameter(f"unknown field kind {kind!r}")
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

        A zero denominator, or over GF(p) a reduced denominator that p
        divides, is an ``InvalidParameter``, and so is a bool: JSON's
        ``true`` is not a scalar.  Over Q the result is a ``Fraction``.
        """
        if isinstance(x, str):
            try:
                x = self._parse(x)
            except ZeroDivisionError:
                raise InvalidParameter(f"zero denominator in {x!r}") from None
        return self._from_number(x)


class _Rationals(FieldSpec):
    """Q.  Arithmetic returns canonical scalars: an integral result is an
    ``int``, any other a ``Fraction``; the two agree under ``==``, ``hash``
    and ``str``.  ``coerce`` alone returns a ``Fraction``."""

    __slots__ = ()
    kind = "rational"
    _parse = Fraction

    def _from_number(self, x):
        if isinstance(x, Fraction):
            return x
        if type(x) is int:
            return Fraction(x)
        raise InvalidParameter(f"cannot coerce {x!r} to a rational")

    def add(self, a, b):
        return _demote(a + b)

    def sub(self, a, b):
        return _demote(a - b)

    def mul(self, a, b):
        return _demote(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return _demote(Fraction(1) / a)

    # hooks of fraction-free elimination (``_echelon``): ``_integral`` and
    # ``_primitive`` act on sparse vectors
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

    @staticmethod
    def _parse(text: str):
        num, slash, den = text.partition("/")
        return Fraction(int(num), int(den)) if slash else int(text)

    def _from_number(self, x):
        if type(x) is int:
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise InvalidParameter(f"{x} has no value in GF({self.p})")
            inv = pow(x.denominator, self.p - 2, self.p)
            return x.numerator * inv % self.p
        raise InvalidParameter(f"cannot coerce {x!r} to GF({self.p})")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

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
        one = field.one
        return _wrap(field, n, [{i: one} for i in range(n)])

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
        zero = self.field.zero
        return tuple(tuple(c.get(i, zero) for c in self._c)
                     for i in range(self.rows))

    def __getitem__(self, ij):
        i, j = ij
        return self._c[j].get(range(self.rows)[i], self.field.zero)

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
        zero = self.field.zero
        body = "; ".join(" ".join(str(c.get(i, zero)) for c in self._c)
                         for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(self.field.add, other)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(self.field.sub, other)

    def _entrywise(self, op, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        zero, cols = self.field.zero, []
        for a, b in zip(self._c, other._c):
            v = dict(a)
            for r, y in b.items():
                v[r] = op(v.get(r, zero), y)
            cols.append({r: x for r, x in v.items() if x})
        return _wrap(self.field, self.rows, cols)

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return _wrap(self.field, self.rows, [
            {r: neg(x) for r, x in c.items()} for c in self._c])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return compose(self, other)

    def scale(self, c) -> "Matrix":
        c = _demote(self.field.coerce(c))
        if not c:
            return Matrix.zeros(self.field, self.rows, self.cols)
        mul = self.field.mul
        return _wrap(self.field, self.rows, [
            {r: mul(c, x) for r, x in col.items()} for col in self._c])

    def transpose(self) -> "Matrix":
        return _wrap(self.field, self.cols, _transposed(self._c, self.rows))

    def is_zero(self) -> bool:
        return not any(self._c)

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


def hstack(mats: Iterable[Matrix]) -> Matrix:
    mats = list(mats)
    if not mats:
        raise DimensionMismatch("hstack: no matrices")
    field, rows = mats[0].field, mats[0].rows
    if any(m.rows != rows or m.field != field for m in mats):
        raise DimensionMismatch("hstack: row counts differ")
    return _wrap(field, rows, [c for m in mats for c in m._c])


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
    if f.field != g.field:
        raise DimensionMismatch("fields differ")
    # the interchange law: f (x) g = (f (x) 1) . (1 (x) g)
    return compose(kron(f, g.rows), kron(f.cols, g))


def _sparse_rows(m: Matrix) -> list:
    """The rows of m as ``{col: value}`` dicts of their nonzeros."""
    return _transposed(m._c, m.rows)


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
    add, mul, v = field.add, field.mul, {}
    for k, a in coeffs.items():
        for r, x in cols[k].items():
            y = x if a == 1 else mul(a, x)
            v[r] = add(v[r], y) if r in v else y
    return {r: x for r, x in v.items() if x}


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


def _matrix(field: FieldSpec, rows: list, cols: int) -> Matrix:
    """The matrix of canonical sparse ``{col: value}`` rows."""
    return _wrap(field, len(rows), _transposed(rows, cols))


def rref(m: Matrix):
    """Reduced row echelon form; returns (reduced, pivots, rank)."""
    ech = _echelon(_sparse_rows(m), m.field)
    pivots = tuple(sorted(ech))
    rows = [ech[p] for p in pivots] + [{}] * (m.rows - len(pivots))
    return _matrix(m.field, rows, m.cols), pivots, len(pivots)


def rank(m: Matrix) -> int:
    return len(_echelon(_sparse_rows(m), m.field))


def _null_rows(vectors: Iterable[dict], ncols: int,
              field: FieldSpec) -> tuple[Matrix, tuple]:
    """The free-column basis of the annihilator of sparse vectors in k^ncols.

    Returns the basis as the rows of a matrix, and the free (non-pivot)
    columns: row j is 1 at ``free[j]``, 0 at the other free columns, and
    minus the echelon entries at the pivots.
    """
    ech = _echelon(vectors, field)
    free = tuple(c for c in range(ncols) if c not in ech)
    where, neg, one = {c: j for j, c in enumerate(free)}, field.neg, field.one
    # a pivot column holds minus its echelon row at the free columns
    return _wrap(field, len(free), [
        {where[j]: neg(x) for j, x in ech[c].items() if j != c}
        if c in ech else {where[c]: one} for c in range(ncols)]), free


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a basis of the right kernel of m."""
    return _null_rows(_sparse_rows(m), m.cols, m.field)[0].transpose()


def solve(m: Matrix, b: Matrix) -> Optional[Matrix]:
    """Some x with m.x = b, free variables zeroed; None if inconsistent."""
    if m.field != b.field:
        raise DimensionMismatch("fields differ")
    if m.rows != b.rows:
        raise DimensionMismatch(f"solve: {m.shape} vs {b.shape}")
    ech = _echelon(_sparse_rows(hstack([m, b])), m.field)
    # a pivot in the b-block means the system is inconsistent
    if any(p >= m.cols for p in ech):
        return None
    n = m.cols
    return _matrix(m.field, [{j - n: x for j, x in ech.get(p, {}).items()
                             if j >= n} for p in range(n)], b.cols)


def inverse(m: Matrix) -> Optional[Matrix]:
    """Two-sided inverse when square and full-rank, else None."""
    if m.rows != m.cols:
        return None
    # m.x = I is consistent exactly when m has full rank
    return solve(m, Matrix.identity(m.field, m.rows))


def flip(field: FieldSpec, dim_x: int, dim_y: int) -> Matrix:
    """The symmetry X (x) Y -> Y (x) X on basis vectors."""
    # column i * dim_y + j is 1 at row j * dim_x + i
    return Matrix.identity(field, dim_x * dim_y).gather(tuple(
        j * dim_x + i for i in range(dim_x) for j in range(dim_y)))
