"""Exact linear algebra over Q or a prime field GF(p): dense matrices,
sparse elimination.

A ``FieldSpec`` fixes the field per session and owns the arithmetic.
Over Q a matrix entry is an ``int`` when it is integral and a
``fractions.Fraction`` otherwise; over GF(p) it is an int in ``[0, p)``.
Matrices are dense, immutable, row-major, and hashable so downstream
construction caches can key on them.  Elimination alone works on sparse
``{col: value}`` vectors: ``rref``, ``rank``, ``solve`` and
``kernel_basis`` all go through the one routine ``_echelon``.

Index convention (normative for the whole package): the basis vector
``(i of X, j of Y)`` of ``X (x) Y`` has flat index ``i * dim(Y) + j``.
Hence ``kron(f, g)[i*rg + j, k*cg + l] = f[i, k] * g[j, l]``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
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
    field, so no scalar op tests the kind.
    """

    __slots__ = ("p",)
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

    def fmt(self, a) -> str:
        return str(a)


class _Rationals(FieldSpec):
    """Q.  Matrices hold an integral scalar as an ``int`` and any other
    as a ``Fraction``; the two agree under ``==``, ``hash`` and ``str``."""

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
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return _demote(Fraction(1) / a)


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


def _demote(x):
    """An integral ``Fraction`` as an ``int``; any other scalar as it is."""
    return x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x


QQ = FieldSpec("rational")


class Matrix:
    """Immutable dense matrix with exact entries over a fixed FieldSpec."""

    __slots__ = ("field", "rows", "cols", "entries", "_hash")

    def __init__(self, field: FieldSpec, entries: Sequence[Sequence], *,
                 cols: Optional[int] = None, _raw: bool = False):
        rows = len(entries)
        if cols is None:
            cols = len(entries[0]) if rows else 0
        if _raw:
            ent = entries
        else:
            ent = []
            for row in entries:
                if len(row) != cols:
                    raise DimensionMismatch("ragged rows")
                ent.append(tuple(_demote(field.coerce(x)) for x in row))
            ent = tuple(ent)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", ent)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        z = field.zero
        return cls(field, tuple(tuple(z for _ in range(cols))
                                for _ in range(rows)), cols=cols, _raw=True)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls(field, tuple(tuple(o if i == j else z for j in range(n))
                                for i in range(n)), _raw=True)

    @classmethod
    def build(cls, field: FieldSpec, rows: int, cols: int, fn) -> "Matrix":
        """Entry-wise construction from fn(i, j)."""
        return cls(field, [[fn(i, j) for j in range(cols)]
                           for i in range(rows)], cols=cols)

    # -- basics -----------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and (
            (self.field, self.rows, self.cols, self.entries)
            == (other.field, other.rows, other.cols, other.entries))

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.field, self.rows, self.cols, self.entries))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        body = "; ".join(" ".join(self.field.fmt(x) for x in row)
                         for row in self.entries)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(self.field.add, other)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(self.field.sub, other)

    def _entrywise(self, op, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.field, tuple(
            tuple(map(op, ra, rb))
            for ra, rb in zip(self.entries, other.entries)),
            cols=self.cols, _raw=True)

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix(self.field, tuple(tuple(map(neg, row))
                                        for row in self.entries),
                      cols=self.cols, _raw=True)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return compose(self, other)

    def scale(self, c) -> "Matrix":
        c = _demote(self.field.coerce(c))
        mul = self.field.mul
        return Matrix(self.field, tuple(tuple(mul(c, a) for a in row)
                                        for row in self.entries),
                      cols=self.cols, _raw=True)

    def transpose(self) -> "Matrix":
        ent = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return Matrix(self.field, ent, cols=self.rows, _raw=True)

    def is_zero(self) -> bool:
        return all(not x for row in self.entries for x in row)

    def first_difference(self, other: "Matrix"):
        """Coordinates of the first differing entry, or None if equal."""
        self._same_shape(other)
        for i in range(self.rows):
            ra, rb = self.entries[i], other.entries[i]
            if ra != rb:
                for j in range(self.cols):
                    if ra[j] != rb[j]:
                        return (i, j)
        return None

    def gather(self, cols: Sequence[int]) -> "Matrix":
        """The matrix of columns ``cols`` of self, in that order."""
        return Matrix(self.field, tuple(tuple(map(row.__getitem__, cols))
                                        for row in self.entries),
                      cols=len(cols), _raw=True)

    def column(self, j: int) -> "Matrix":
        return self.gather((j,))

    def _same_shape(self, other: "Matrix"):
        if self.shape != other.shape or self.field != other.field:
            raise DimensionMismatch(
                f"shape {self.shape} vs {other.shape}")


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
    field = mats[0].field
    rows = mats[0].rows
    if any(m.rows != rows or m.field != field for m in mats):
        raise DimensionMismatch("hstack: row counts differ")
    ent = tuple(tuple(x for m in mats for x in m.entries[i])
                for i in range(rows))
    return Matrix(field, ent, cols=sum(m.cols for m in mats), _raw=True)


def compose(f: Matrix, g: Matrix) -> Matrix:
    """Matrix product f.g, i.e. the map f after the map g."""
    if f.field != g.field:
        raise DimensionMismatch("fields differ")
    if f.cols != g.rows:
        raise DimensionMismatch(
            f"compose: {f.shape} after {g.shape}")
    zero, add, mul = f.field.zero, f.field.add, f.field.mul
    # the nonzeros of g's row k, listed when some row of f first needs them
    gnz = [None] * g.rows
    out = []
    for frow in f.entries:
        orow = [zero] * g.cols
        for k, a in enumerate(frow):
            if not a:
                continue
            nz = gnz[k]
            if nz is None:
                grow = g.entries[k]
                nz = gnz[k] = [(j, grow[j])
                               for j in compress(range(g.cols), grow)]
            for j, b in nz:
                orow[j] = add(orow[j], mul(a, b))
        out.append(tuple(orow))
    return Matrix(f.field, tuple(out), cols=g.cols, _raw=True)


def kron(f, g) -> Matrix:
    """Kronecker product under the row-major index convention.

    Either factor may be an int n, standing for the n x n identity: the
    whisker is then built by placing the other factor's rows, with no
    scalar multiplication.
    """
    if isinstance(f, int):
        n, cg, zero = f, g.cols, g.field.zero
        pad = (zero,) * (n * cg)
        return Matrix(g.field, tuple(
            pad[:i * cg] + tuple(grow) + pad[(i + 1) * cg:]
            for i in range(n) for grow in g.entries), cols=n * cg, _raw=True)
    if isinstance(g, int):
        n, zero = g, f.field.zero
        out = []
        for frow in f.entries:
            for j in range(n):
                orow = [zero] * (f.cols * n)
                orow[j::n] = frow
                out.append(tuple(orow))
        return Matrix(f.field, tuple(out), cols=f.cols * n, _raw=True)
    if f.field != g.field:
        raise DimensionMismatch("fields differ")
    field = f.field
    zero = field.zero
    mul = field.mul
    rg, cg = g.rows, g.cols
    out = [[zero] * (f.cols * cg) for _ in range(f.rows * rg)]
    for i in range(f.rows):
        for k in range(f.cols):
            a = f.entries[i][k]
            if not a:
                continue
            for j in range(rg):
                orow = out[i * rg + j]
                grow = g.entries[j]
                for l in range(cg):
                    b = grow[l]
                    if b:
                        orow[k * cg + l] = mul(a, b)
    return Matrix(field, tuple(tuple(r) for r in out), cols=f.cols * cg,
                  _raw=True)


def _sparse_rows(m: Matrix):
    """The rows of m as ``{col: value}`` dicts of their nonzeros."""
    return ({j: row[j] for j in compress(range(m.cols), row)}
            for row in m.entries)


def _sparse_columns(m: Matrix) -> list:
    """The columns of m as ``{row: value}`` dicts of their nonzeros."""
    cols, js = [{} for _ in range(m.cols)], range(m.cols)
    for i, row in enumerate(m.entries):
        for j in compress(js, row):
            cols[j][i] = row[j]
    return cols


def _sub_scaled(v: dict, fac, row: dict, field: FieldSpec) -> None:
    """v -= fac * row on sparse vectors, dropping the entries that vanish."""
    sub, mul = field.sub, field.mul
    for j, x in row.items():
        y = sub(v.get(j, 0), mul(fac, x))
        if y:
            v[j] = y
        else:
            del v[j]


def _echelon(vectors: Iterable[dict], field: FieldSpec) -> dict:
    """The reduced row echelon basis of the span of sparse vectors.

    Each vector is a ``{col: value}`` dict of nonzeros (it is consumed).
    Returns ``{pivot: row}``: each row is 1 at its pivot, its leading
    column, and 0 at every other pivot.
    """
    rows = {}
    for v in vectors:
        # rows are fully reduced, so clearing one pivot of v sets no other
        for c in [c for c in v if c in rows]:
            _sub_scaled(v, v[c], rows[c], field)
        if not v:
            continue
        p = min(v)
        if v[p] != 1:
            s = field.inv(v[p])
            v = {j: field.mul(s, x) for j, x in v.items()}
        for row in rows.values():
            if p in row:
                _sub_scaled(row, row[p], v, field)
        rows[p] = v
    return rows


def _matrix(field: FieldSpec, rows, cols: int) -> Matrix:
    """The dense matrix of sparse ``{col: value}`` rows."""
    out = []
    for row in rows:
        dense = [field.zero] * cols
        for j, x in row.items():
            dense[j] = x
        out.append(tuple(dense))
    return Matrix(field, tuple(out), cols=cols, _raw=True)


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
    where = {c: j for j, c in enumerate(free)}
    rows = [{c: field.one} for c in free]
    for p, row in ech.items():
        for c, x in row.items():
            if c != p:
                rows[where[c]][p] = field.neg(x)
    return _matrix(field, rows, ncols), free


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
    rows = [{} for _ in range(m.cols)]
    for p, row in ech.items():
        rows[p] = {j - m.cols: x for j, x in row.items() if j >= m.cols}
    return _matrix(m.field, rows, b.cols)


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
