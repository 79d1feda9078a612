"""Exact matrix arithmetic over Z and over Z/p^r.

All types here are immutable values with exact integer entries; nothing in
this module ever rounds.  Every matrix is stored one way: as the flat,
row-major tuple of its n^2 entries, entry (i, j) at index i * n + j.  A 2x2
matrix is the tuple (a, b, c, d).

``Mat(entries, modulus)`` is a square matrix over Z when ``modulus`` is
None, with entries that may grow without bound, and over Z/p^r otherwise,
with entries normalized into [0, p^r); it serves the n x n representation.
The ring is a value: a product of matrices over different rings raises
``ModulusMismatch``, and ``Mat(a.entries, modulus)`` reduces a matrix over Z
mod p^r.  A ``Mat`` is a named tuple, like ``holomorph.SemiElem``, so a
product or inverse is one ``tuple.__new__`` and equality and hashing run in
C; it refuses a tuple's ``+``, repetition and ordering (``_ValueTuple``).
``Modulus`` stays a frozen dataclass: a command builds one, so a tuple
would save nothing, and ``"%s" % modulus`` must read it as one value.

Validation happens where a matrix enters: the public constructor checks that
the entries are n^2 exact integers for some n >= 1, so rows nested as tuples
are refused, and ``parse_matrix`` that a literal is square.  Products and
inverses of validated matrices are flat integer tuples by construction, so
they are built by a private constructor that skips that scan (entries mod
p^r are still reduced into [0, p^r)).  The determinant check of
``inverse`` stays: it inverts determinant-one matrices only, by their
adjugate, over Z and mod p^r alike.

The 2x2 arithmetic is written once, as the flat kernel that every 2x2
computation uses (levels, the congruence extension, the quotient tables, the
graded layers and a 2x2 ``Mat``): ``_flat_mul``/``_flat_inv``/``_flat_pow``
work mod m, and ``_flat_mul_z``/``_flat_inv_z`` over Z for SL(2, Z) itself
(the inverse refuses a determinant other than 1).  ``_det`` and
``_adjugate`` keep one closed form each for n = 2.  Larger matrices take the
generic loops; their determinants are computed by fraction-free (Bareiss)
elimination, so they are exact for any entry size.  ``_sign_normal`` picks
the sign representative of a flat 2x2 tuple, ``format_matrix`` prints flat
entries of any size, and ``_parse_flat_sl2`` reads a literal into a flat
2x2 tuple, refusing anything but a 2x2 matrix of determinant 1.

Matrix literals use the text form ``"1,3;0,1"``: rows joined by ';', entries
by ','.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from math import isqrt
from operator import mul


class MatrixError(ValueError):
    """Base class for errors raised by this module."""


class DimensionMismatch(MatrixError):
    pass


class ModulusMismatch(MatrixError):
    pass


class NonInvertible(MatrixError):
    pass


_PRIME_BOUND = 1 << 20


def is_prime(p: int) -> bool:
    """Trial-division primality test (desk scale, p < 2^20)."""
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def check_prime(p: int, error: type) -> None:
    """Raise ``error`` unless p is a prime below 2^20, the rule for every
    prime a modulus or a graded layer is built on."""
    if p >= _PRIME_BOUND or not is_prime(p):
        raise error("p must be a prime below 2^20, got %r" % (p,))


@dataclass(frozen=True)
class Modulus:
    """A prime-power modulus p^r with p prime and r >= 1."""

    p: int
    r: int

    def __post_init__(self):
        check_prime(self.p, ValueError)
        if self.r < 1:
            raise ValueError("exponent must be >= 1, got %r" % (self.r,))
        object.__setattr__(self, "_m", self.p ** self.r)

    @property
    def m(self) -> int:
        return self._m

    def __str__(self):
        return "%d^%d" % (self.p, self.r)


def _mat_mul(a, b):
    """The product of two flat n x n entry tuples by the generic loop (rows of
    a against the columns of b)."""
    n = isqrt(len(a))
    rows = [a[i:i + n] for i in range(0, n * n, n)]
    cols = [b[j::n] for j in range(n)]
    return tuple([sum(map(mul, row, col)) for row in rows for col in cols])


def _flat_mul(x, y, m):
    """Product of two 2x2 matrices stored flat as (a, b, c, d), mod m."""
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % m, (a * f + b * h) % m, (c * e + d * g) % m, (c * f + d * h) % m)


def _flat_inv(x, m):
    """Inverse of a flat 2x2 matrix of determinant 1 mod m (its adjugate)."""
    a, b, c, d = x
    return (d % m, -b % m, -c % m, a % m)


_FLAT_ID = (1, 0, 0, 1)


def _flat_pow(x, k, m):
    """x^k mod m for a flat 2x2 matrix and k >= 0, by square and multiply
    (without multiplying by the identity)."""
    out = None
    while k:
        if k & 1:
            out = x if out is None else _flat_mul(out, x, m)
        k >>= 1
        if k:
            x = _flat_mul(x, x, m)
    return _FLAT_ID if out is None else out


def _flat_mul_z(x, y):
    """Product of two flat 2x2 matrices over Z."""
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _flat_inv_z(x):
    """Inverse of a flat element of SL(2, Z); any other determinant raises."""
    a, b, c, d = x
    det = a * d - b * c
    if det != 1:
        raise NonInvertible("expected determinant 1, got %d" % det)
    return (d, -b, -c, a)


def _det_bareiss(entries):
    # Fraction-free elimination on the flat n x n entries; every division
    # below is exact over Z.
    m = list(entries)
    n = isqrt(len(m))
    sign = 1
    prev = 1
    for k in range(n - 1):
        top = k * n
        if m[top + k] == 0:
            for r in range(top + n, n * n, n):
                if m[r + k] != 0:
                    m[top:top + n], m[r:r + n] = m[r:r + n], m[top:top + n]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[top + k]
        for i in range(top + n, n * n, n):
            lead = m[i + k]
            for j in range(k + 1, n):
                m[i + j] = (m[i + j] * pivot - lead * m[top + j]) // prev
        prev = pivot
    return sign * m[-1]


def _det(entries):
    if len(entries) == 4:
        a, b, c, d = entries
        return a * d - b * c
    return _det_bareiss(entries)


def _adjugate(entries):
    if len(entries) == 4:
        a, b, c, d = entries
        return (d, -b, -c, a)
    return _adjugate_n(entries)


def _adjugate_n(entries):
    n = isqrt(len(entries))
    if n == 1:
        return (1,)

    def cofactor(i, j):
        minor = tuple([entries[k * n + l] for k in range(n) if k != i for l in range(n) if l != j])
        c = _det(minor)
        return c if (i + j) % 2 == 0 else -c

    return tuple([cofactor(j, i) for i in range(n) for j in range(n)])


class _ValueTuple:
    """Mixin of the named tuples ``Mat`` and ``freegroup.Word``: refuses a
    tuple's ``+`` on either side, repetition by an int and ordering.  Each
    raises: a reflected ``+`` returning ``NotImplemented`` lets
    ``tuple.__add__`` concatenate."""

    __slots__ = ()

    def _refuse(self, other):
        raise TypeError("a %s takes no +, repetition or ordering" % type(self).__name__)

    __add__ = __radd__ = __rmul__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse


class Mat(_ValueTuple, namedtuple("Mat", "entries modulus")):
    """Immutable square matrix over Z (``modulus`` None) or over Z/p^r
    (entries normalized into [0, p^r)).  ``entries`` is the flat row-major
    tuple of its n^2 entries: entry (i, j) is ``entries[i * n + j]``."""

    def __new__(cls, entries, modulus: Modulus | None = None):
        entries = tuple(entries)
        n = isqrt(len(entries))
        if n < 1 or n * n != len(entries):
            raise DimensionMismatch("entries must be n^2 integers for some n >= 1, got %d" % len(entries))
        for e in entries:
            if not isinstance(e, int):
                raise MatrixError("entries must be exact integers, got %r" % (e,))
        return _mat(entries, modulus)

    @staticmethod
    def identity(n: int, modulus: Modulus | None = None) -> "Mat":
        return Mat(tuple(1 if i == j else 0 for i in range(n) for j in range(n)), modulus)

    @property
    def n(self) -> int:
        return isqrt(len(self.entries))

    def det(self) -> int:
        d = _det(self.entries)
        return d if self.modulus is None else d % self.modulus.m

    def __mul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        a, modulus = self
        b, other_modulus = other
        if other_modulus is not modulus and other_modulus != modulus:
            raise ModulusMismatch("moduli differ: %s vs %s" % (modulus, other_modulus))
        if len(a) != len(b):
            n, k = self.n, other.n
            raise DimensionMismatch("cannot multiply %dx%d by %dx%d" % (n, n, k, k))
        if len(a) == 4:
            return _reduced_mat(_flat_mul_z(a, b) if modulus is None else _flat_mul(a, b, modulus.m), modulus)
        return _mat(_mat_mul(a, b), modulus)

    def inverse(self) -> "Mat":
        """The inverse of a determinant-one matrix, its adjugate; any other
        determinant raises ``NonInvertible``.  It is kept, with this matrix
        as its inverse, in the instance ``__dict__``, outside the fields that
        equality, hash and repr read, so a matrix is inverted at most once."""
        inv = getattr(self, "_inverse", None)
        if inv is not None:
            return inv
        d = self.det()
        if d != 1:
            raise NonInvertible("expected determinant 1, got %d" % d)
        inv = _mat(_adjugate(self.entries), self.modulus)
        inv._inverse = self
        self._inverse = inv
        return inv

    def __str__(self):
        return format_matrix(self.entries)


# A Mat is a named tuple: _reduced_mat builds one with a single
# tuple.__new__, skipping the constructor's checks, for arithmetic results;
# a product or adjugate of validated matrices is already a flat square
# tuple of ints.

def _reduced_mat(entries, modulus: Modulus | None) -> Mat:
    """A Mat from entries already reduced into [0, p^r) (or over Z)."""
    return tuple.__new__(Mat, (entries, modulus))


def _mat(entries, modulus: Modulus | None) -> Mat:
    if modulus is not None:
        m = modulus.m
        # a list comprehension reduces about 25% faster than a generator
        entries = tuple([e % m for e in entries])
    return _reduced_mat(entries, modulus)


def _sign_normal(x):
    """The lexicographically smaller of a flat 2x2 tuple and its negation."""
    a, b, c, d = x
    neg = (-a, -b, -c, -d)
    return x if x <= neg else neg


def format_matrix(entries) -> str:
    """Row-major text form of flat n x n entries: rows joined by ';',
    entries by ','.  A flat 2x2 tuple (a, b, c, d) prints as ``"a,b;c,d"``."""
    n = isqrt(len(entries))
    return ";".join(",".join(map(str, entries[i:i + n])) for i in range(0, len(entries), n))


def parse_matrix(text: str, modulus: Modulus | None = None):
    """Parse the ``"1,3;0,1"`` literal form into a Mat over Z (or Z/p^r)."""
    try:
        rows = [[int(tok.strip()) for tok in row.split(",")] for row in text.strip().split(";")]
    except ValueError:
        raise MatrixError("bad matrix literal: %r" % (text,)) from None
    if any(len(row) != len(rows) for row in rows):
        raise DimensionMismatch("a matrix literal must be square, got %r" % (text,))
    return Mat(tuple(e for row in rows for e in row), modulus)


def _parse_flat_sl2(text: str) -> tuple:
    """Parse a matrix literal into the flat form of an element of SL(2, Z)."""
    a = parse_matrix(text)
    if a.n != 2:
        raise DimensionMismatch("expected a 2x2 matrix, got %dx%d" % (a.n, a.n))
    det = _det(a.entries)
    if det != 1:
        raise MatrixError("expected determinant 1, got %d" % det)
    return a.entries
