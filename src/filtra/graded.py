"""The graded restricted Lie algebra of the principal congruence tower.

Each layer of the tower of sign-class congruence subgroups of PSL(2, Z) at
levels p, p^2, ... is elementary abelian; a kernel element at level q is
I + p^q N mod p^{q+1} and its class is coordinatized by N.  For odd p the
trace of N vanishes mod p, giving coordinates (a, b, d) with

    N = [[d, a], [b, -d]]  mod p,

so the unipotent basis matrices map to (1,0,0) and (0,1,0) and the diagonal
direction to (0,0,1).  For p = 2 the sign ambiguity shifts the diagonal of
N, so only the off-diagonal coordinates (a, b) are well defined and the
layer has rank 2.

The bracket is induced by the group commutator after lifting classes one
level up; the p-th power map sends level q to level q+1.  ``lift`` uses the
unipotent basis matrices for the off-diagonal directions and
diag(u, u^{-1}) with u = 1 + p^q for the diagonal direction, which has
determinant exactly 1 in Z/p^T.  Lifts and kernel elements are flat
(a, b, c, d) tuples mod p^T, multiplied with the closed-form kernel of
``exactmat``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .exactmat import _flat_inv, _flat_mul, _flat_pow, check_prime


class GradedError(ValueError):
    pass


@dataclass(frozen=True)
class GradedClass:
    """A class in the level-q layer, as coordinates mod p.

    p is a prime below 2^20 (``exactmat.check_prime``, the rule for every
    modulus); coords is (a, b, d) for odd p and (a, b) for p = 2.
    """

    p: int
    q: int
    coords: tuple

    def __post_init__(self):
        check_prime(self.p, GradedError)
        want = 2 if self.p == 2 else 3
        if self.q < 1:
            raise GradedError("level must be >= 1, got %d" % self.q)
        if len(self.coords) != want:
            raise GradedError("expected %d coordinates for p=%d" % (want, self.p))
        object.__setattr__(self, "coords", tuple(c % self.p for c in self.coords))

    def __str__(self):
        return ",".join(str(c) for c in self.coords)


def zero_class(p: int, q: int) -> GradedClass:
    return GradedClass(p, q, (0,) * (2 if p == 2 else 3))


def basis_class(p: int, q: int, name: str) -> GradedClass:
    """The coordinate basis classes: 'A' -> e1, 'B' -> e2, 'D' -> e3 (odd p)."""
    if p == 2:
        vecs = {"A": (1, 0), "B": (0, 1)}
    else:
        vecs = {"A": (1, 0, 0), "B": (0, 1, 0), "D": (0, 0, 1)}
    if name not in vecs:
        raise GradedError("no basis class %r for p=%d" % (name, p))
    return GradedClass(p, q, vecs[name])


def class_add(c1: GradedClass, c2: GradedClass) -> GradedClass:
    if (c1.p, c1.q) != (c2.p, c2.q):
        raise GradedError("classes live at different (p, q)")
    return GradedClass(c1.p, c1.q, tuple(a + b for a, b in zip(c1.coords, c2.coords)))


def class_neg(c: GradedClass) -> GradedClass:
    return GradedClass(c.p, c.q, tuple(-a for a in c.coords))


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
    m = p ** (q + 1)
    a, b, c, d = x
    det = (a * d - b * c) % m
    if det != 1:
        raise GradedError("expected det = 1 mod %d, got %d" % (m, det))
    n = layer_offset(x, p, q)
    if n is None:
        n = layer_offset((-a, -b, -c, -d), p, q)
    if n is None:
        raise GradedError("matrix is not congruent to +-I mod %d^%d" % (p, q))
    if (n[2] + n[3]) % p != 0:
        raise GradedError("trace of the kernel offset is nonzero mod %d" % p)  # pragma: no cover
    return GradedClass(p, q, n[:2] if p == 2 else n[:3])


def lift(c: GradedClass, t_exp: int) -> tuple:
    """A flat determinant-one representative of c mod p^t_exp
    (t_exp >= q + 1)."""
    p, q = c.p, c.q
    if t_exp < q + 1:
        raise GradedError("target exponent %d too small for level %d" % (t_exp, q))
    m = p ** t_exp
    pq = p ** q
    if p == 2:
        a, b = c.coords
        d = 0
    else:
        a, b, d = c.coords
    out = _flat_mul((1, a * pq, 0, 1), (1, 0, b * pq, 1), m)
    if d:
        u = 1 + pq
        out = _flat_mul(out, (pow(u, d, m), 0, 0, pow(u, -d, m)), m)
    return out


def bracket_from_lifts(x1: tuple, x2: tuple, p: int, q: int, s: int) -> GradedClass:
    """Class of the group commutator of two flat lifts mod p^{q+s+1}, read
    at level q + s."""
    m = p ** (q + s + 1)
    comm = _flat_mul(_flat_mul(x1, x2, m), _flat_mul(_flat_inv(x1, m), _flat_inv(x2, m), m), m)
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


#: [X_q, Y_s] for basis classes X, Y, as coordinates at level q + s, keyed by
#: the number of coordinates: sl_2's structure constants for odd p, each row
#: a pair and its reverse, and zero at p = 2.
_BASIS_BRACKETS = {
    3: {
        "AB": (0, 0, 1), "BA": (0, 0, -1),
        "AD": (-2, 0, 0), "DA": (2, 0, 0),
        "BD": (0, 2, 0), "DB": (0, -2, 0),
        "AA": (0, 0, 0), "BB": (0, 0, 0), "DD": (0, 0, 0),
    },
    2: {"AB": (0, 0), "BA": (0, 0), "AA": (0, 0), "BB": (0, 0)},
}


def verify_relation_table(p: int, q_max: int) -> dict:
    """Exhaustively check the bracket/power relation table of the tower.

    The basis brackets are ``_BASIS_BRACKETS``: for odd p [A_q, B_s] =
    D_{q+s}, [A_q, D_s] = A_{q+s}^{-2} and [B_q, D_s] = B_{q+s}^2; at p = 2
    every basis bracket vanishes.  The p-th power map shifts each basis
    class one level.  Bilinearity and antisymmetry of the bracket are
    checked on the coordinate bases at every cell.
    """
    names = ["A", "B"] if p == 2 else ["A", "B", "D"]
    cells = [(q, s) for q in range(1, q_max) for s in range(1, q_max) if q + s <= q_max]
    bracket_failures = []
    for q, s in cells:
        for (n1, n2), coords in _BASIS_BRACKETS[len(names)].items():
            got = bracket(basis_class(p, q, n1), basis_class(p, s, n2))
            want = GradedClass(p, q + s, coords)
            if got != want:
                bracket_failures.append({"cell": [q, s], "pair": [n1, n2], "got": str(got), "want": str(want)})

    power_failures = []
    for q, name in product(range(1, q_max), names):
        got = power_map(basis_class(p, q, name))
        want = basis_class(p, q + 1, name)
        if got != want:
            power_failures.append({"q": q, "name": name, "got": str(got), "want": str(want)})

    bilin_failures = []
    anti_failures = []
    for q, s in cells:
        at_q = [basis_class(p, q, n) for n in names]
        at_s = [basis_class(p, s, n) for n in names]
        for c1, c1b, c2 in product(at_q, at_q, at_s):
            if bracket(class_add(c1, c1b), c2) != class_add(bracket(c1, c2), bracket(c1b, c2)):
                bilin_failures.append({"cell": [q, s], "slot": "left", "args": [str(c1), str(c1b), str(c2)]})
        for c1, c2, c2b in product(at_q, at_s, at_s):
            if bracket(c1, class_add(c2, c2b)) != class_add(bracket(c1, c2), bracket(c1, c2b)):
                bilin_failures.append({"cell": [q, s], "slot": "right", "args": [str(c1), str(c2), str(c2b)]})
        for c1, c2 in product(at_q, at_s):
            if bracket(c1, c2) != class_neg(bracket(c2, c1)):
                anti_failures.append({"cell": [q, s], "args": [str(c1), str(c2)]})

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
