"""Exact matrix arithmetic over Z and over Z/p^r.

All types here are immutable values with exact integer entries; nothing in
this module ever rounds.  ``IntMat`` is a square matrix over Z whose entries
may grow without bound, ``ModMat`` is a square matrix over Z/p^r with entries
normalized into [0, p^r), and ``PslClass`` is the sign-normalized class
{M, -M} of a determinant-one ``ModMat``.

Validation happens where a matrix enters: the public constructors and
``parse_matrix`` check that the entries form a nonempty square of exact
integers.  Products, negations and inverses of validated matrices are square
integer tuples by construction, so they are built by a private constructor
that skips that scan (``ModMat`` results are still reduced into [0, m)).
The determinant-one and unit checks of ``inverse`` and ``psl_class`` stay.

Products, determinants and adjugates use closed forms for n = 2, the size
every congruence computation runs at; larger matrices take the generic
loops.  Determinants above 2x2 are computed by cofactor expansion up to 4x4
and by fraction-free (Bareiss) elimination above that, so they are exact
for any entry size.  The flat 4-tuple helpers ``_flat_mul``/``_flat_inv``
serve the finite quotient tables, which store 2x2 elements as (a, b, c, d).

Matrix literals use the text form ``"1,3;0,1"``: rows joined by ';', entries
by ','.
"""

from __future__ import annotations

from dataclasses import dataclass


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


@dataclass(frozen=True)
class Modulus:
    """A prime-power modulus p^r with p prime and r >= 1."""

    p: int
    r: int

    def __post_init__(self):
        if self.p >= _PRIME_BOUND or not is_prime(self.p):
            raise ValueError("p must be a prime below 2^20, got %r" % (self.p,))
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
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _flat_mul(x, y, m):
    """Product of two 2x2 matrices stored flat as (a, b, c, d), mod m."""
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % m, (a * f + b * h) % m, (c * e + d * g) % m, (c * f + d * h) % m)


def _flat_inv(x, m):
    """Inverse of a flat 2x2 matrix of determinant 1 mod m (its adjugate)."""
    a, b, c, d = x
    return (d % m, -b % m, -c % m, a % m)


def _det_cofactor(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    for c in range(n):
        if rows[0][c] == 0:
            continue
        minor = [row[:c] + row[c + 1:] for row in rows[1:]]
        term = rows[0][c] * _det_cofactor(minor)
        total += term if c % 2 == 0 else -term
    return total


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
    return _det_n(rows)


def _det_n(rows):
    if len(rows) <= 4:
        return _det_cofactor([tuple(r) for r in rows])
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
class IntMat:
    """Immutable square matrix over Z."""

    entries: tuple

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        _check_square(rows)
        object.__setattr__(self, "entries", rows)

    @staticmethod
    def identity(n: int) -> "IntMat":
        return IntMat(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.entries)

    def det(self) -> int:
        return _det(self.entries)

    @property
    def is_special(self) -> bool:
        return self.det() == 1

    def __mul__(self, other: "IntMat") -> "IntMat":
        if not isinstance(other, IntMat):
            return NotImplemented
        a, b = self.entries, other.entries
        n = len(a)
        if len(b) != n:
            raise DimensionMismatch("cannot multiply %dx%d by %dx%d" % (n, n, len(b), len(b)))
        return _int_mat(_mat_mul(a, b, n))

    def __neg__(self) -> "IntMat":
        return _int_mat(_negate(self.entries))

    def inverse(self) -> "IntMat":
        d = _det(self.entries)
        if d == 1:
            return _int_mat(_adjugate(self.entries))
        if d == -1:
            return _int_mat(_negate(_adjugate(self.entries)))
        raise NonInvertible("determinant %d is not a unit in Z" % d)

    def __pow__(self, k: int) -> "IntMat":
        if k < 0:
            return self.inverse() ** (-k)
        result = IntMat.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __str__(self):
        return format_matrix(self)


@dataclass(frozen=True)
class ModMat:
    """Immutable square matrix over Z/p^r, entries normalized into [0, p^r)."""

    entries: tuple
    modulus: Modulus

    def __post_init__(self):
        m = self.modulus.m
        rows = tuple(tuple(e % m for e in row) for row in self.entries)
        _check_square(rows)
        object.__setattr__(self, "entries", rows)

    @staticmethod
    def identity(n: int, modulus: Modulus) -> "ModMat":
        return ModMat(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), modulus)

    @property
    def n(self) -> int:
        return len(self.entries)

    def det(self) -> int:
        return _det(self.entries) % self.modulus.m

    @property
    def is_special(self) -> bool:
        return self.det() == 1

    def _check_compatible(self, other):
        if other.modulus != self.modulus:
            raise ModulusMismatch("moduli differ: %s vs %s" % (self.modulus, other.modulus))
        if other.n != self.n:
            raise DimensionMismatch("cannot combine %dx%d with %dx%d" % (self.n, self.n, other.n, other.n))

    def __mul__(self, other: "ModMat") -> "ModMat":
        if not isinstance(other, ModMat):
            return NotImplemented
        self._check_compatible(other)
        return _mod_mat(_mat_mul(self.entries, other.entries, self.n), self.modulus)

    def __neg__(self) -> "ModMat":
        return _mod_mat(_negate(self.entries), self.modulus)

    def inverse(self) -> "ModMat":
        m = self.modulus.m
        d = _det(self.entries) % m
        try:
            dinv = pow(d, -1, m)
        except ValueError:
            raise NonInvertible("determinant %d is not a unit mod %d" % (d, m)) from None
        adj = _adjugate(self.entries)
        return _mod_mat(tuple(tuple(dinv * e for e in row) for row in adj), self.modulus)

    def __pow__(self, k: int) -> "ModMat":
        if k < 0:
            return self.inverse() ** (-k)
        result = ModMat.identity(self.n, self.modulus)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __str__(self):
        return format_matrix(self)


# Arithmetic results skip the constructors' validation: a product, negation
# or adjugate of validated matrices is already a square tuple of ints.

def _negate(rows):
    return tuple(tuple(-e for e in row) for row in rows)


def _int_mat(rows) -> IntMat:
    out = object.__new__(IntMat)
    object.__setattr__(out, "entries", rows)
    return out


def _mod_mat(rows, modulus: Modulus) -> ModMat:
    m = modulus.m
    if len(rows) == 2:
        (a, b), (c, d) = rows
        rows = ((a % m, b % m), (c % m, d % m))
    else:
        rows = tuple(tuple(e % m for e in row) for row in rows)
    out = object.__new__(ModMat)
    object.__setattr__(out, "entries", rows)
    object.__setattr__(out, "modulus", modulus)
    return out


def reduce_mod(a: IntMat, modulus: Modulus) -> ModMat:
    """Entrywise reduction Z -> Z/p^r; determinant-one inputs stay special."""
    return ModMat(a.entries, modulus)


def _sign_normal(a):
    """The lexicographically smaller (row-major) of a and -a."""
    neg = -a
    return a if a.entries <= neg.entries else neg


@dataclass(frozen=True)
class PslClass:
    """The class {M, -M} of a determinant-one ModMat, stored by its
    lexicographically smaller (row-major) representative."""

    rep: ModMat

    @staticmethod
    def identity(n: int, modulus: Modulus) -> "PslClass":
        return psl_class(ModMat.identity(n, modulus))

    @property
    def modulus(self) -> Modulus:
        return self.rep.modulus

    def __mul__(self, other: "PslClass") -> "PslClass":
        if not isinstance(other, PslClass):
            return NotImplemented
        return psl_class(self.rep * other.rep)

    def inverse(self) -> "PslClass":
        return psl_class(self.rep.inverse())

    def __str__(self):
        return format_matrix(self.rep)


def psl_class(a: ModMat) -> PslClass:
    """Sign-normalize a determinant-one ModMat into its PSL class."""
    if a.det() != 1:
        raise MatrixError("psl_class requires det = 1 mod %d, got %d" % (a.modulus.m, a.det()))
    return PslClass(_sign_normal(a))


def format_matrix(a) -> str:
    """Row-major text form: rows joined by ';', entries by ','."""
    return ";".join(",".join(str(e) for e in row) for row in a.entries)


def parse_matrix(text: str, modulus: Modulus | None = None):
    """Parse the ``"1,3;0,1"`` literal form into an IntMat (or ModMat)."""
    try:
        rows = tuple(
            tuple(int(tok.strip()) for tok in row.split(","))
            for row in text.strip().split(";")
        )
    except ValueError:
        raise MatrixError("bad matrix literal: %r" % (text,)) from None
    if modulus is None:
        return IntMat(rows)
    return ModMat(rows, modulus)
