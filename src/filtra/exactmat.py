"""Exact matrix arithmetic over Z and over Z/p^r.

All types here are immutable values with exact integer entries; nothing in
this module ever rounds.  ``Mat(entries, modulus)`` is a square matrix over
Z when ``modulus`` is None, with entries that may grow without bound, and
over Z/p^r otherwise, with entries normalized into [0, p^r); it serves the
n x n representation.  The ring is a value: a product of matrices over
different rings raises ``ModulusMismatch``, and ``Mat(a.entries, modulus)``
reduces a matrix over Z mod p^r.

Validation happens where a matrix enters: the public constructor and
``parse_matrix`` check that the entries form a nonempty square of exact
integers.  Products, negations and inverses of validated matrices are square
integer tuples by construction, so they are built by a private constructor
that skips that scan (entries mod p^r are still reduced into [0, p^r)).
The determinant and unit checks of ``inverse`` stay: over Z the
determinant must be +-1, mod p^r any unit.

Products, determinants and adjugates use closed forms for n = 2, which keep
the representation on 2x2 rings fast; larger matrices take the generic loops
(the product transposes its right factor once).  Determinants above 2x2 are
computed by fraction-free (Bareiss) elimination, so they are exact for any
entry size.

Every 2x2 computation (levels, the congruence extension, the quotient
tables and the graded layers) carries its matrices flat, as (a, b, c, d)
tuples: ``_flat_mul``/``_flat_inv``/``_flat_pow`` work mod m, and
``_flat_mul_z``/``_flat_inv_z`` over Z for SL(2, Z) itself (the inverse
refuses a determinant other than 1).  ``_sign_normal`` picks the sign
representative of a flat tuple, ``format_matrix`` prints it, and
``_parse_flat_sl2`` reads a literal into it, refusing anything but a 2x2
matrix of determinant 1.

Matrix literals use the text form ``"1,3;0,1"``: rows joined by ';', entries
by ','.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _check_square(rows):
    n = len(rows)
    if n < 1 or any(len(row) != n for row in rows):
        raise DimensionMismatch("entries must form a nonempty square matrix")
    for row in rows:
        for e in row:
            if not isinstance(e, int):
                raise MatrixError("entries must be exact integers, got %r" % (e,))
    return n


def _mat_mul(a, b, n):
    if n == 2:
        (a00, a01), (a10, a11) = a
        (b00, b01), (b10, b11) = b
        return (
            (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
            (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11),
        )
    return _mat_mul_n(a, b, n)


def _mat_mul_n(a, b, n):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


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


def _flat(a) -> tuple:
    """The flat form (a, b, c, d) of a 2x2 matrix."""
    (a00, a01), (a10, a11) = a.entries
    return (a00, a01, a10, a11)


def _det_bareiss(rows):
    # Fraction-free elimination; every division below is exact over Z.
    m = [list(row) for row in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _det(rows):
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    return _det_bareiss(rows)


def _adjugate(rows):
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return ((d, -b), (-c, a))
    return _adjugate_n(rows)


def _adjugate_n(rows):
    n = len(rows)
    if n == 1:
        return ((1,),)
    cof = []
    for i in range(n):
        line = []
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(rows) if k != i]
            c = _det(minor)
            line.append(c if (i + j) % 2 == 0 else -c)
        cof.append(line)
    return tuple(tuple(cof[j][i] for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class Mat:
    """Immutable square matrix over Z (``modulus`` None) or over Z/p^r
    (entries normalized into [0, p^r))."""

    entries: tuple
    modulus: Modulus | None = None

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        _check_square(rows)
        if self.modulus is not None:
            m = self.modulus.m
            rows = tuple(tuple(e % m for e in row) for row in rows)
        object.__setattr__(self, "entries", rows)

    @staticmethod
    def identity(n: int, modulus: Modulus | None = None) -> "Mat":
        return Mat(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), modulus)

    @property
    def n(self) -> int:
        return len(self.entries)

    def det(self) -> int:
        d = _det(self.entries)
        return d if self.modulus is None else d % self.modulus.m

    def __mul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        if other.modulus != self.modulus:
            raise ModulusMismatch("moduli differ: %s vs %s" % (self.modulus, other.modulus))
        a, b = self.entries, other.entries
        n = len(a)
        if len(b) != n:
            raise DimensionMismatch("cannot multiply %dx%d by %dx%d" % (n, n, len(b), len(b)))
        return _mat(_mat_mul(a, b, n), self.modulus)

    def __neg__(self) -> "Mat":
        return _mat(_negate(self.entries), self.modulus)

    def inverse(self) -> "Mat":
        """The inverse; over Z the determinant must be +-1, mod m a unit."""
        d = _det(self.entries)
        if self.modulus is None:
            if d not in (1, -1):
                raise NonInvertible("determinant %d is not a unit in Z" % d)
            dinv = d
        else:
            m = self.modulus.m
            d %= m
            try:
                dinv = pow(d, -1, m)
            except ValueError:
                raise NonInvertible("determinant %d is not a unit mod %d" % (d, m)) from None
        adj = _adjugate(self.entries)
        if dinv != 1:
            adj = tuple(tuple(dinv * e for e in row) for row in adj)
        return _mat(adj, self.modulus)

    def __str__(self):
        return format_matrix(self)


# Arithmetic results skip the constructor's validation: a product, negation
# or adjugate of validated matrices is already a square tuple of ints.

def _negate(rows):
    return tuple(tuple(-e for e in row) for row in rows)


def _mat(rows, modulus: Modulus | None) -> Mat:
    if modulus is not None:
        m = modulus.m
        if len(rows) == 2:
            (a, b), (c, d) = rows
            rows = ((a % m, b % m), (c % m, d % m))
        else:
            rows = tuple(tuple(e % m for e in row) for row in rows)
    out = object.__new__(Mat)
    object.__setattr__(out, "entries", rows)
    object.__setattr__(out, "modulus", modulus)
    return out


def _sign_normal(x):
    """The lexicographically smaller of a flat 2x2 tuple and its negation."""
    a, b, c, d = x
    neg = (-a, -b, -c, -d)
    return x if x <= neg else neg


def format_matrix(a) -> str:
    """Row-major text form: rows joined by ';', entries by ','.  A flat
    2x2 tuple (a, b, c, d) prints as ``"a,b;c,d"``."""
    if type(a) is tuple:
        return "%d,%d;%d,%d" % a
    return ";".join(",".join(str(e) for e in row) for row in a.entries)


def parse_matrix(text: str, modulus: Modulus | None = None):
    """Parse the ``"1,3;0,1"`` literal form into a Mat over Z (or Z/p^r)."""
    try:
        rows = tuple(
            tuple(int(tok.strip()) for tok in row.split(","))
            for row in text.strip().split(";")
        )
    except ValueError:
        raise MatrixError("bad matrix literal: %r" % (text,)) from None
    return Mat(rows, modulus)


def _parse_flat_sl2(text: str) -> tuple:
    """Parse a matrix literal into the flat form of an element of SL(2, Z)."""
    a = parse_matrix(text)
    if a.n != 2:
        raise DimensionMismatch("expected a 2x2 matrix, got %dx%d" % (a.n, a.n))
    det = _det(a.entries)
    if det != 1:
        raise MatrixError("expected determinant 1, got %d" % det)
    return _flat(a)
