"""Exact linear algebra over Q or a prime field GF(p) on sparse columns.

A ``FieldSpec`` fixes the field per session, owns what differs between
Q and GF(p), and owns the session memo of ``memoised`` functions: a
fresh ``FieldSpec`` starts a fresh memo.  Memo and field are a reference
cycle (a memoised result holds matrices, a matrix its field), so the
cyclic garbage collector, not reference counting, frees a finished session.
A matrix is immutable, hashable (the memo keys on it) and fraction-free:
it stores int numerators, only its columns' nonzeros, as ``{row: value}``
dicts that matrices share and never mutate, over one denominator ``den``
> 0 for the whole matrix.  It is kept in lowest terms, gcd(den, every
numerator) = 1, so the zero matrix has den 1, and ``==`` and ``hash``
compare ints only; over GF(p) den is 1 and a numerator is in ``[0, p)``.
A matrix built from dense entries refuses a den of more than ``DEN_BITS``
bits.  A ``Fraction`` is built only at the boundary: ``coerce`` and the
dense views ``entries``, ``m[i, j]`` and ``repr``, which give an integral
entry as an ``int``.  ``rank``, ``kernel_basis`` and ``inverse`` all
reduce int vectors through the one routine ``_echelon``, and every
difference, scaling and product (``compose``, the projection of
``qtensor._image``) sums int columns through the one routine
``_combine``, which ends in the field's reduction: mod p over GF(p),
dropping zeros over Q.  ``Record``, the base of every cell and structure
of the package, is immutable in the same way as ``Matrix``: slotted, set
once through its slot descriptors, its hash cached.

Index convention (normative for the whole package): the basis vector
``(i of X, j of Y)`` of ``X (x) Y`` has flat index ``i * dim(Y) + j``.
Hence ``kron(f, g)[i*rg + j, k*cg + l] = f[i, k] * g[j, l]``.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import wraps
from math import gcd, lcm
from operator import attrgetter

from .errors import DimensionMismatch, InvalidParameter, brief


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson & Webster, Math. Comp. 86 (2017), the value of psi_13).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981
# a string scalar: an int or int/int, in ASCII digits
_SCALAR = re.compile(r"-?[0-9]+(/-?[0-9]+)?")
# the most bits of a dense matrix's common denominator: every numerator
# carries it, so every product of the matrix pays for its size
DEN_BITS = 4096


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
    each owning what differs between the fields: ``coerce``, ``_reduce``
    (the end of every int sum of ``_combine``) and ``_primitive``
    (elimination).  Each instance owns a session memo; equal instances
    share no memo.
    """

    __slots__ = ("p", "_memo")

    def __new__(cls, kind: str = "rational", p: int | None = None):
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
    """Q.  ``coerce`` returns a ``Fraction``; a matrix holds int numerators
    over its ``den``."""

    __slots__ = ()
    kind = "rational"

    def _from_number(self, x):
        if isinstance(x, Fraction):
            return x
        if type(x) is int:
            return Fraction(x)
        raise InvalidParameter(f"cannot coerce {brief(repr(x))} to a rational")

    @staticmethod
    def _reduce(v: dict) -> dict:
        """The int vector v without its zeros."""
        return v if 0 not in v.values() else {r: x for r, x in v.items() if x}

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

    def _reduce(self, v: dict) -> dict:
        """The int vector v reduced mod p, zeros dropped."""
        p = self.p
        return {r: y for r, x in v.items() if (y := x % p)}

    def _primitive(self, v: dict) -> dict:
        """The int vector v reduced mod p, zeros dropped, leading entry 1."""
        p, v = self.p, self._reduce(v)
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


def _scalar(x: int, den: int):
    """The canonical scalar x / den: an ``int`` if integral, else a
    ``Fraction``."""
    return x if den == 1 else x // den if x % den == 0 else Fraction(x, den)


def _transposed(vectors, n: int) -> list:
    """n sparse vectors: the j-th holds ``{i: vectors[i][j]}``."""
    out = [{} for _ in range(n)]
    for i, v in enumerate(vectors):
        for j, x in v.items():
            out[j][i] = x
    return out


QQ = FieldSpec("rational")


class Record:
    """An immutable value, the base of every cell and structure.

    A subclass declares ``__slots__``, its field names in constructor order,
    and ``_defaults``, field name -> default, if a field has one.  Built
    from positional or keyword fields, it runs ``__post_init__``, which may
    still set a field through ``object.__setattr__``.  Records of one type
    with equal fields are equal; the hash, of the field tuple, is cached.
    """

    __slots__ = ("_hash",)
    _defaults = {}

    def __init_subclass__(cls):
        # the slot descriptors' setters, which bypass ``__setattr__``
        cls._setters = tuple(getattr(cls, name).__set__
                             for name in cls.__slots__)
        cls._values = attrgetter(*cls.__slots__)

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for set_, value in zip(setters, args):
            set_(self, value)
        _set_record_hash(self, None)
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The fields of ``type(self)(*args, **kwargs)``, in slot order."""
        names = self.__slots__
        fields = {**self._defaults, **dict(zip(names, args)), **kwargs}
        if (len(args) > len(names) or fields.keys() != set(names)
                or kwargs.keys() & set(names[:len(args)])):
            raise TypeError(f"{type(self).__name__} takes the fields "
                            f"{', '.join(names)}")
        return [fields[name] for name in names]

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._values(self))
            _set_record_hash(self, h)
        return h

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"


_set_record_hash = Record._hash.__set__


class Matrix:
    """Immutable sparse matrix with exact entries over a fixed FieldSpec.

    Column j is stored as ``_c[j]``, the ``{row: value}`` dict of its
    nonzero int numerators over the matrix's ``den``; matrices may share
    these dicts, so none is ever mutated.
    """

    __slots__ = ("field", "rows", "cols", "_c", "den", "_hash")

    def __init__(self, field: FieldSpec, entries: Sequence[Sequence], *,
                 cols: int | None = None):
        """The matrix of the dense rows ``entries``, ``cols`` wide; an
        InvalidParameter if their common denominator has more than
        ``DEN_BITS`` bits."""
        rows = len(entries)
        if cols is None:
            cols = len(entries[0]) if rows else 0
        scalars = []
        for row in entries:
            if len(row) != cols:
                raise DimensionMismatch("ragged rows")
            scalars.append([field.coerce(x) for x in row])
        den = lcm(*[x.denominator for row in scalars for x in row])
        if den.bit_length() > DEN_BITS:
            raise InvalidParameter(f"common denominator of "
                                   f"{den.bit_length()} bits, over {DEN_BITS}")
        c = [{} for _ in range(cols)]
        for i, row in enumerate(scalars):
            for j, x in enumerate(row):
                if x:
                    c[j][i] = x.numerator * (den // x.denominator)
        _wrap(field, rows, c, den, m=self)

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
        """The dense rows of canonical scalars, a view derived from the
        columns."""
        d = self.den
        return tuple(tuple(_scalar(c.get(i, 0), d) for c in self._c)
                     for i in range(self.rows))

    def __getitem__(self, ij):
        i, j = ij
        return _scalar(self._c[j].get(range(self.rows)[i], 0), self.den)

    def __eq__(self, other):
        return isinstance(other, Matrix) and (
            (self.field, self.rows, self.cols, self.den, self._c)
            == (other.field, other.rows, other.cols, other.den, other._c))

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.field, self.rows, self.cols, self.den,
                      tuple(hash(frozenset(c.items())) for c in self._c)))
            _set_hash(self, h)
        return h

    def __repr__(self):
        body = "; ".join(" ".join(str(_scalar(c.get(i, 0), self.den))
                                  for c in self._c) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        den = lcm(self.den, other.den)
        coeffs = {0: den // self.den, 1: -(den // other.den)}
        return _wrap(self.field, self.rows, [
            _combine(coeffs, pair, self.field)
            for pair in zip(self._c, other._c)], den)

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        coeffs = {0: c.numerator}
        return _wrap(self.field, self.rows, [
            _combine(coeffs, (col,), self.field) for col in self._c],
            self.den * c.denominator)

    def transpose(self) -> "Matrix":
        return _wrap(self.field, self.cols, _transposed(self._c, self.rows),
                     self.den)

    def first_difference(self, other: "Matrix"):
        """Coordinates of the first differing entry in row-major order, or
        None if equal."""
        self._same_shape(other)
        s, t, first = self.den, other.den, None
        for j, (a, b) in enumerate(zip(self._c, other._c)):
            if s != t or a != b:    # a / s vs b / t, cross-multiplied
                rows = [r for r in a.keys() | b.keys()
                        if a.get(r, 0) * t != b.get(r, 0) * s]
                if rows and (first is None or min(rows) < first[0]):
                    first = (min(rows), j)
        return first

    def gather(self, cols: Sequence[int]) -> "Matrix":
        """The matrix of columns ``cols`` of self, in that order."""
        return _wrap(self.field, self.rows,
                     list(map(self._c.__getitem__, cols)), self.den)

    def column(self, j: int) -> "Matrix":
        return self.gather((j,))

    def _same_shape(self, other: "Matrix"):
        if self.shape != other.shape or self.field != other.field:
            raise DimensionMismatch(
                f"shape {self.shape} vs {other.shape}")


def _wrap(field: FieldSpec, rows: int, columns: list, den: int = 1,
          m=None) -> Matrix:
    """The matrix (m, or a new one) of sparse ``{row: value}`` columns of
    nonzero numerators, canonical for ``field``, over ``den`` > 0, brought
    to lowest terms; unchecked otherwise."""
    g = den
    for c in columns if den != 1 else ():
        g = gcd(g, *c.values())
        if g == 1:
            break
    if g != 1:
        den //= g
        columns = [{r: x // g for r, x in c.items()} for c in columns]
    m = object.__new__(Matrix) if m is None else m
    _set_field(m, field)
    _set_rows(m, rows)
    _set_cols(m, len(columns))
    _set_columns(m, columns)
    _set_den(m, den)
    _set_hash(m, None)
    return m


# the slot descriptors' setters, which bypass ``Matrix.__setattr__``
_set_field, _set_rows, _set_cols, _set_columns, _set_den, _set_hash = (
    getattr(Matrix, name).__set__ for name in Matrix.__slots__)


def expect_shapes(obj, what: str, **shapes):
    """Check the named matrix attributes of a ``Record``.

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
                 [_combine(col, f._c, f.field) for col in g._c], f.den * g.den)


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
            for i in range(f) for c in g._c], g.den)
    if isinstance(g, int):
        return _wrap(f.field, f.rows * g, [
            {i * g + j: x for i, x in c.items()} if g != 1 else c
            for c in f._c for j in range(g)], f.den)
    # the interchange law: f (x) g = (f (x) 1) . (1 (x) g)
    return compose(kron(f, g.rows), kron(f.cols, g))


def _sparse_columns(m: Matrix) -> list:
    """The columns of m as ``{row: value}`` dicts of their nonzero int
    numerators over ``m.den``: the stored ones, shared, so not to be
    mutated."""
    return m._c


def _combine(coeffs: dict, cols, field: FieldSpec) -> dict:
    """The nonzeros of sum(a * cols[k]) over (k, a) in ``coeffs``, for int
    coefficients and columns: a plain int sum per entry, then the field's
    reduction."""
    if len(coeffs) == 1:
        (k, a), = coeffs.items()
        if a == 1:
            return cols[k]
    v = {}
    for k, a in coeffs.items():
        for r, x in cols[k].items():
            v[r] = v.get(r, 0) + a * x
    return field._reduce(v)


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

    Each vector is an int ``{col: value}`` dict of nonzeros, such as a
    matrix's stored numerators (a vector's scale does not move its span),
    left unchanged.  Returns ``{pivot: row}``, fraction-free: each row is an
    int vector (primitive over Q, monic over GF(p)), positive at its pivot,
    its leading column, and 0 at every other pivot; the pivot entry is the
    row's denominator, so row / row[pivot] is the reduced row.
    """
    # holders: column -> a superset of the pivots of the rows holding it
    # (clearing a row with v only adds columns of v to its support)
    rows, holders = {}, {}
    primitive = field._primitive
    for v in vectors:
        if not v:
            continue
        v = dict(v)
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
    where = {c: j for j, c in enumerate(free)}
    den = lcm(*[row[c] for c, row in ech.items()])
    # a pivot column c holds minus its echelon row over row[c] at the free
    # columns, all over their lcm den
    return _wrap(field, len(free), [
        field._reduce({where[j]: -x * (den // ech[c][c])
                       for j, x in ech[c].items() if j != c})
        if c in ech else {where[c]: den} for c in range(ncols)], den), free


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a basis of the right kernel of m."""
    return _null_rows(m.transpose()._c, m.cols, m.field)[0].transpose()


@memoised
def inverse(m: Matrix) -> Matrix | None:
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
    # row p is ech[p][p] (e_p | M^-1[p, :]) for the numerators M = m.den m
    den = lcm(*[ech[p][p] for p in range(n)])
    scales = [m.den * (den // ech[p][p]) for p in range(n)]
    return _wrap(m.field, n, _transposed([
        {j - n: x * s for j, x in ech[p].items() if j >= n}
        for p, s in enumerate(scales)], n), den)


def flip(field: FieldSpec, dim_x: int, dim_y: int) -> Matrix:
    """The symmetry X (x) Y -> Y (x) X on basis vectors."""
    # column i * dim_y + j is 1 at row j * dim_x + i
    return Matrix.identity(field, dim_x * dim_y).gather(tuple(
        j * dim_x + i for i in range(dim_x) for j in range(dim_y)))
