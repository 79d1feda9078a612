"""The graded restricted Lie algebra of the principal congruence tower.

Each layer of the tower of sign-class congruence subgroups of PSL(2, Z) at
levels p, p^2, ... is elementary abelian: a kernel element at level q is
I + p^q N mod p^{q+1}, and ``read`` takes N = [[d, a], [b, -d]] mod p (its
trace vanishes mod p) to the coordinates (a, b, d).  For p = 2 the sign
ambiguity shifts the diagonal of N, so the layer keeps (a, b); ``rank`` is
the one rule for the number of coordinates.

The layers form sl_2(F_p) (x) tF_p[t] (Lazard; Dixon, du Sautoy, Mann and
Segal, *Analytic pro-p groups*, ch. 4).  For x = I + p^q N1, y = I + p^s N2,
[x, y] = I + p^{q+s}[N1, N2] mod p^{q+s+1}, as xy = yx + p^{q+s}[N1, N2] and
(yx)^{-1} = I mod p.  The p-th power is multiplication by t:
(I + p^q N)^p = I + p^{q+1} N mod p^{q+2}, as each binomial term
C(p, k) p^{kq} N^k with k >= 2 carries p^{q+2} (at p = 2 from q = 2; at
q = 1 the extra 4N^2 is scalar mod 8, which the rank-2 read does not see).

``bracket`` and ``power_map`` compute the group side on flat (a, b, c, d)
tuples mod p^T with the kernel of ``exactmat``: ``lift`` a class by the
unipotent basis matrices and diag(u, u^{-1}), u = 1 + p^q, of determinant
exactly 1, commutate or power, and ``class_of``.  With a, b the coordinates
times p^q and e = u^d, f = u^{-d} mod p^T, the lift is the closed form
(1, a; 0, 1)(1, 0; b, 1) diag(e, f) = ((1 + ab)e, af; be, f).  The
commutator x1 x2 x1^{-1} x2^{-1} is (x1 x2) adj(x2 x1), as the inverse of a
determinant-one matrix is its adjugate and adj(x2 x1) = adj(x1) adj(x2).
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import combinations, product

from .exactmat import _flat_inv, _flat_mul, _flat_mul_z, _flat_pow, check_prime


class GradedError(ValueError):
    pass


#: sl_2's basis matrices N_A, N_B, N_D, flat row-major (rank 2 keeps two).
SL2_BASIS = {"A": (0, 1, 0, 0), "B": (0, 0, 1, 0), "D": (1, 0, 0, -1)}


def rank(p: int) -> int:
    """The number of coordinates of each layer: 2 at p = 2, otherwise 3."""
    return 2 if p == 2 else 3


class GradedClass(namedtuple("GradedClass", "p q coords")):
    """A class in the level-q layer: p is a prime below 2^20
    (``exactmat.check_prime``) and coords are (a, b, d) mod p, cut to ``rank(p)``."""

    __slots__ = ()

    def __new__(cls, p: int, q: int, coords: tuple):
        _check_layer(p, q)
        if len(coords) != rank(p):
            raise GradedError("expected %d coordinates for p=%d" % (rank(p), p))
        if not all(isinstance(c, int) for c in coords):
            raise GradedError("coordinates must be exact integers, got %r" % (coords,))
        return _graded(p, q, coords)

    def __str__(self):
        return ",".join(str(c) for c in self.coords)


def _check_layer(p: int, q: int) -> None:
    check_prime(p, GradedError)
    if not isinstance(q, int) or q < 1:
        raise GradedError("level must be >= 1, got %r" % (q,))


def _graded(p: int, q: int, coords) -> GradedClass:
    """A class from a checked p, q and coordinate count: reduces, checks nothing."""
    return tuple.__new__(GradedClass, (p, q, tuple([c % p for c in coords])))


def read(n, p: int, q: int) -> GradedClass:
    """The class of I + p^q N for a flat N over Z: (N01, N10, N00), the
    prefix of ``layer_offset``, cut to ``rank(p)``.  Checks nothing."""
    return _graded(p, q, (n[1], n[2], n[0])[:rank(p)])


def zero_class(p: int, q: int) -> GradedClass:
    return GradedClass(p, q, (0,) * rank(p))


def basis_class(p: int, q: int, name: str) -> GradedClass:
    """The class of ``SL2_BASIS[name]``: 'A' -> e1, 'B' -> e2, 'D' -> e3 (odd p)."""
    _check_layer(p, q)
    if name not in tuple(SL2_BASIS)[:rank(p)]:
        raise GradedError("no basis class %r for p=%d" % (name, p))
    return read(SL2_BASIS[name], p, q)


def matrix_bracket(n1: tuple, n2: tuple) -> tuple:
    """The commutator N1 N2 - N2 N1 of two flat 2x2 integer matrices."""
    return tuple([u - v for u, v in zip(_flat_mul_z(n1, n2), _flat_mul_z(n2, n1))])


def class_add(c1: GradedClass, c2: GradedClass) -> GradedClass:
    if (c1.p, c1.q) != (c2.p, c2.q):
        raise GradedError("classes live at different (p, q)")
    return _graded(c1.p, c1.q, [a + b for a, b in zip(c1.coords, c2.coords)])


def class_neg(c: GradedClass) -> GradedClass:
    return _graded(c.p, c.q, [-a for a in c.coords])


def layer_offset(x, p, q):
    """N mod p as (N01, N10, N00, N11) for x = I + p^q N, or None when x is
    not I mod p^q.

    For q >= 1 and det(x) = 1 the prefix (N01, N10, N00) reads the layer
    Gamma(p^q)/Gamma(p^{q+1}) as F_p^3 without loss: det(x) = 1 forces
    N11 = -N00 mod p, so the kernel is exactly Gamma(p^{q+1}), and
    (I + p^q A)(I + p^q B) = I + p^q (A + B) mod p^{q+1} makes it additive.
    """
    pq = p ** q
    a, b, c, d = x
    if (a - 1) % pq or b % pq or c % pq or (d - 1) % pq:
        return None
    return (b // pq % p, c // pq % p, (a - 1) // pq % p, (d - 1) // pq % p)


def class_of(x: tuple, p: int, q: int) -> GradedClass:
    """Coordinates of a kernel element: x is a flat determinant-one matrix
    mod p^{q+1} congruent to (+-)I mod p^q."""
    _check_layer(p, q)
    a, b, c, d = x
    if not (isinstance(a, int) and isinstance(b, int) and isinstance(c, int) and isinstance(d, int)):
        raise GradedError("matrix entries must be exact integers, got %r" % (x,))
    m = p ** (q + 1)
    det = (a * d - b * c) % m
    if det != 1:
        raise GradedError("expected det = 1 mod %d, got %d" % (m, det))
    n = layer_offset(x, p, q)
    if n is None:
        n = layer_offset((-a, -b, -c, -d), p, q)
    if n is None:
        raise GradedError("matrix is not congruent to +-I mod %d^%d" % (p, q))
    n01, n10, n00, n11 = n
    if (n00 + n11) % p != 0:
        raise GradedError("trace of the kernel offset is nonzero mod %d" % p)  # pragma: no cover
    return read((n00, n01, n10, n11), p, q)


def lift(c: GradedClass, t_exp: int) -> tuple:
    """A flat determinant-one representative of c mod p^t_exp, t_exp > q."""
    p, q = c.p, c.q
    if not isinstance(t_exp, int):
        raise GradedError("target exponent must be an exact integer, got %r" % (t_exp,))
    if t_exp < q + 1:
        raise GradedError("target exponent %d too small for level %d" % (t_exp, q))
    m = p ** t_exp
    pq = p ** q
    a, b, d = c.coords + (0,) * (3 - rank(p))
    a, b = a * pq, b * pq
    e = f = 1
    if d:
        u = 1 + pq
        e, f = pow(u, d, m), pow(u, -d, m)
    return ((1 + a * b) * e % m, a * f % m, b * e % m, f)


def bracket_from_lifts(x1: tuple, x2: tuple, p: int, q: int, s: int) -> GradedClass:
    """Class at level q + s of the group commutator of two flat lifts mod p^{q+s+1}:
    x1 x2 x1^{-1} x2^{-1} is (x1 x2)(x2 x1)^{-1}, the inverse the adjugate
    ``_flat_inv``, since adj(x2 x1) = adj(x1) adj(x2) for any 2x2 matrices."""
    m = p ** (q + s + 1)
    comm = _flat_mul(_flat_mul(x1, x2, m), _flat_inv(_flat_mul(x2, x1, m), m), m)
    return class_of(comm, p, q + s)


def bracket(c1: GradedClass, c2: GradedClass) -> GradedClass:
    """The induced bracket: lift one level past q+s, commutate, project."""
    if c1.p != c2.p:
        raise GradedError("classes live at different primes")
    t = c1.q + c2.q + 1
    return bracket_from_lifts(lift(c1, t), lift(c2, t), c1.p, c1.q, c2.q)


def power_map(c: GradedClass) -> GradedClass:
    """The p-th power map from level q to level q + 1."""
    t = c.q + 2
    return class_of(_flat_pow(lift(c, t), c.p, c.p ** t), c.p, c.q + 1)


def verify_relation_table(p: int, q_max: int, stats: dict | None = None) -> dict:
    """Exhaustively check the bracket/power relation table of the tower.

    Each basis bracket [X_q, Y_s] is predicted as the ``read`` at level
    q + s of the ``matrix_bracket`` of the basis matrices, taken once per
    pair: for odd p [A, B] = D, [A, D] = A^{-2} and [B, D] = B^2, and at
    p = 2 every basis bracket reads as zero.  The p-th power map shifts each
    basis class one level.  Bilinearity and antisymmetry are checked on the
    coordinate bases at every cell.  Each level's basis classes and their
    sums of two are built once per call, and each distinct pair is
    bracketed once, by the ``bracket`` the module holds when the call
    starts.  ``stats``, when given, gets ``brackets``, the number of
    distinct pairs bracketed.  q_max must be an int >= 2.
    """
    if not isinstance(q_max, int) or q_max < 2:
        raise GradedError("q_max must be an integer >= 2, got %r" % (q_max,))
    names = tuple(SL2_BASIS)[:rank(p)]
    pairs = [pair for x, y in combinations(names, 2) for pair in ((x, y), (y, x))] + [(x, x) for x in names]
    predicted = {(n1, n2): matrix_bracket(SL2_BASIS[n1], SL2_BASIS[n2]) for n1, n2 in pairs}
    cells = [(q, s) for q in range(1, q_max) for s in range(1, q_max) if q + s <= q_max]
    basis = {q: {n: basis_class(p, q, n) for n in names} for q in range(1, q_max + 1)}
    sums = {q: {pair: class_add(*pair) for pair in product(basis[q].values(), repeat=2)} for q in range(1, q_max)}
    bracket_once = cache(bracket)
    bracket_failures = []
    for q, s in cells:
        for (n1, n2), n in predicted.items():
            got = bracket_once(basis[q][n1], basis[s][n2])
            want = read(n, p, q + s)
            if got != want:
                bracket_failures.append({"cell": [q, s], "pair": [n1, n2], "got": str(got), "want": str(want)})

    power_failures = []
    for q, name in product(range(1, q_max), names):
        got = power_map(basis[q][name])
        want = basis[q + 1][name]
        if got != want:
            power_failures.append({"q": q, "name": name, "got": str(got), "want": str(want)})

    bilin_failures = []
    anti_failures = []
    for q, s in cells:
        at_q, at_s = basis[q].values(), basis[s].values()
        for c1, c1b, c2 in product(at_q, at_q, at_s):
            if bracket_once(sums[q][c1, c1b], c2) != class_add(bracket_once(c1, c2), bracket_once(c1b, c2)):
                bilin_failures.append({"cell": [q, s], "slot": "left", "args": [str(c1), str(c1b), str(c2)]})
        for c1, c2, c2b in product(at_q, at_s, at_s):
            if bracket_once(c1, sums[s][c2, c2b]) != class_add(bracket_once(c1, c2), bracket_once(c1, c2b)):
                bilin_failures.append({"cell": [q, s], "slot": "right", "args": [str(c1), str(c2), str(c2b)]})
        for c1, c2 in product(at_q, at_s):
            if bracket_once(c1, c2) != class_neg(bracket_once(c2, c1)):
                anti_failures.append({"cell": [q, s], "args": [str(c1), str(c2)]})

    if stats is not None:
        stats["brackets"] = bracket_once.cache_info().currsize
    relations = [
        {"id": "basis_brackets", "cells": len(cells), "failures": bracket_failures},
        {"id": "power_map_shifts_basis", "cells": q_max - 1, "failures": power_failures},
        {"id": "bilinearity_on_bases", "cells": len(cells), "failures": bilin_failures},
        {"id": "antisymmetry_on_bases", "cells": len(cells), "failures": anti_failures},
    ]
    for rel in relations:
        rel["pass"] = not rel["failures"]
    return {
        "p": p,
        "q_max": q_max,
        "relations": relations,
        "ok": all(rel["pass"] for rel in relations),
    }
