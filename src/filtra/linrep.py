"""The conjugation extension of SL(n, A) and its faithful n^2-dimensional
linear representation.

Elements of the extension are pairs (gamma, y) of determinant-one matrices
multiplied by (alpha, x)(beta, y) = (alpha beta, beta^-1 x beta y); the pair
acts on the full matrix ring by M -> gamma (y M) gamma^-1, which is a left
action, and writing that action in the matrix-unit basis gives a
homomorphism rho into GL(n^2, A).

The outer component is a representative of its class modulo scalar
matrices; over A = Z/m the scalars lambda with lambda^n = 1 form the center
of SL(n, A) and faithfulness holds modulo that center (its order is
reported).  The matrix-unit basis is ordered row-major (E_00, E_01, ...),
which pins every rho matrix bit-exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .exactmat import IntMat, Modulus, ModMat, reduce_mod


class LinRepError(ValueError):
    pass


@dataclass(frozen=True)
class DeltaElem:
    """A pair (gamma, y); gamma is a chosen representative of its scalar class."""

    gamma: object
    y: object

    def __post_init__(self):
        if type(self.gamma) is not type(self.y):
            raise LinRepError("components must share a backend ring")
        if self.gamma.n != self.y.n:
            raise LinRepError("components must share a dimension")
        if isinstance(self.gamma, ModMat) and self.gamma.modulus != self.y.modulus:
            raise LinRepError("components must share a modulus")

    @property
    def n(self) -> int:
        return self.gamma.n


def delta_identity(n: int, modulus: Modulus | None = None) -> DeltaElem:
    if modulus is None:
        one = IntMat.identity(n)
    else:
        one = ModMat.identity(n, modulus)
    return DeltaElem(one, one)


def delta_mul(u: DeltaElem, v: DeltaElem) -> DeltaElem:
    """(alpha, x)(beta, y) = (alpha beta, beta^-1 x beta y)."""
    beta_inv = v.gamma.inverse()
    return DeltaElem(u.gamma * v.gamma, beta_inv * u.y * v.gamma * v.y)


def delta_inv(u: DeltaElem) -> DeltaElem:
    """(alpha, x)^-1 = (alpha^-1, alpha x^-1 alpha^-1)."""
    ainv = u.gamma.inverse()
    return DeltaElem(ainv, u.gamma * u.y.inverse() * ainv)


def act(u: DeltaElem, m) -> object:
    """The left action (gamma, y)(M) = gamma (y M) gamma^-1."""
    return u.gamma * (u.y * m) * u.gamma.inverse()


def matrix_unit(n: int, k: int, l: int, modulus: Modulus | None = None):
    rows = tuple(tuple(1 if (i, j) == (k, l) else 0 for j in range(n)) for i in range(n))
    if modulus is None:
        return IntMat(rows)
    return ModMat(rows, modulus)


def rho(u: DeltaElem):
    """The n^2 x n^2 matrix of M -> gamma (y M) gamma^-1 on matrix units.

    Column k*n + l holds the image of E_kl flattened row-major, so
    rho(u) @ vec(M) = vec(u(M)) and rho(u v) = rho(u) rho(v).
    """
    n = u.n
    modulus = u.gamma.modulus if isinstance(u.gamma, ModMat) else None
    cols = []
    ginv = u.gamma.inverse()
    for k in range(n):
        for l in range(n):
            image = u.gamma * (u.y * matrix_unit(n, k, l, modulus)) * ginv
            cols.append([image.entries[i][j] for i in range(n) for j in range(n)])
    rows = tuple(tuple(cols[c][r] for c in range(n * n)) for r in range(n * n))
    if modulus is None:
        return IntMat(rows)
    return ModMat(rows, modulus)


def is_scalar(mat) -> bool:
    n = mat.n
    lam = mat.entries[0][0]
    return all(mat.entries[i][j] == (lam if i == j else 0) for i in range(n) for j in range(n))


def center_scalars(n: int, modulus: Modulus | None):
    """Scalars lambda with lambda^n = 1 (the scalar center of SL(n, A))."""
    if modulus is None:
        return [1, -1] if n % 2 == 0 else [1]
    m = modulus.m
    return [lam for lam in range(1, m) if math.gcd(lam, m) == 1 and pow(lam, n, m) == 1]


def scale(mat, lam: int):
    rows = tuple(tuple(lam * e for e in row) for row in mat.entries)
    if isinstance(mat, ModMat):
        return ModMat(rows, mat.modulus)
    return IntMat(rows)


def delta_eq_mod_center(u: DeltaElem, v: DeltaElem, scalars) -> bool:
    """Pair equality with the outer component read modulo scalar matrices."""
    if u.y != v.y:
        return False
    return any(scale(u.gamma, lam) == v.gamma for lam in scalars)


def random_sl(n: int, modulus: Modulus | None, rng: random.Random, length: int = 8):
    """A pseudo-random determinant-one matrix: a word in transvections."""
    out = IntMat.identity(n) if modulus is None else ModMat.identity(n, modulus)
    bound = 3 if modulus is None else modulus.m - 1
    for _ in range(length):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(1, max(bound, 1))
        rows = tuple(
            tuple((1 if a == b else 0) + (c if (a, b) == (i, j) else 0) for b in range(n))
            for a in range(n)
        )
        t = IntMat(rows) if modulus is None else ModMat(rows, modulus)
        out = out * t
    return out


def verify_action(u: DeltaElem, v: DeltaElem, mats) -> dict:
    """Check (u v)(M) = u(v(M)) pointwise on the given test matrices."""
    uv = delta_mul(u, v)
    failures = sum(1 for m in mats if act(uv, m) != act(u, act(v, m)))
    return {"samples": len(mats), "failures": failures, "ok": failures == 0}


def verify_faithful(n: int, modulus: Modulus | None, sample_count: int, seed) -> dict:
    """Homomorphism and kernel checks for rho over SL(n, A).

    (i) rho(u v) = rho(u) rho(v) on seeded pairs (exact matrix equality);
    (ii) constructed kernel probes (lambda I, I) map to the identity and
    every sampled u with rho(u) = I has y = I and scalar gamma, i.e. u is
    trivial modulo the scalar center, whose order is reported.
    """
    rng = random.Random("linrep:%s:%s:%s" % (n, modulus, seed))
    ident = rho(delta_identity(n, modulus))
    one = IntMat.identity(n) if modulus is None else ModMat.identity(n, modulus)
    hom_failures = 0
    left_action_failures = 0
    kernel_violations = 0
    kernel_hits = 0
    for _ in range(sample_count):
        u = DeltaElem(random_sl(n, modulus, rng), random_sl(n, modulus, rng))
        v = DeltaElem(random_sl(n, modulus, rng), random_sl(n, modulus, rng))
        ru, rv = rho(u), rho(v)
        if rho(delta_mul(u, v)) != ru * rv:
            hom_failures += 1
        m = random_sl(n, modulus, rng)
        if act(delta_mul(u, v), m) != act(u, act(v, m)):
            left_action_failures += 1
        if ru == ident:
            kernel_hits += 1
            if u.y != one or not is_scalar(u.gamma):
                kernel_violations += 1

    scalars = center_scalars(n, modulus)
    probe_failures = 0
    for lam in scalars:
        probe = DeltaElem(scale(one, lam), one)
        if rho(probe) != ident:
            probe_failures += 1
            continue
        # rho(u) = I forces y = I (evaluate at M = I) and scalar gamma
        if act(probe, one) != one or not is_scalar(probe.gamma):
            probe_failures += 1
        if not delta_eq_mod_center(probe, delta_identity(n, modulus), scalars):
            probe_failures += 1

    ok = hom_failures == 0 and left_action_failures == 0 and kernel_violations == 0 and probe_failures == 0
    return {
        "n": n,
        "ring": "Z" if modulus is None else "Z/%d" % modulus.m,
        "samples": sample_count,
        "hom_failures": hom_failures,
        "left_action_failures": left_action_failures,
        "kernel_probes": {"center_order": len(scalars), "hits": kernel_hits + len(scalars),
                          "violations": kernel_violations + probe_failures},
        "ok": ok,
    }


def ball_injectivity(p: int, base_exp: int, target_exp: int, radius: int = 3,
                     pair_cap: int = 4000, seed=0) -> dict:
    """Injectivity of rho on pairs drawn from the ball of words in the
    level-p^base generators, reduced mod p^target.

    The subgroup generated contains no nontrivial scalar matrix, so rho is
    injective on (gamma, y) pairs from it; this verifies that on the ball.
    """
    from .filtration import congruence_basis

    modulus = Modulus(p, target_exp)
    gens = [reduce_mod(m, modulus) for m in congruence_basis(p, base_exp).values()]
    gens += [g.inverse() for g in gens]
    ball = {ModMat.identity(2, modulus)}
    frontier = list(ball)
    for _ in range(radius):
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in ball:
                    ball.add(y)
                    nxt.append(y)
        frontier = nxt
    ball = sorted(ball, key=lambda m: m.entries)
    rng = random.Random("ball:%s" % seed)
    pairs = [(g, y) for g in ball for y in ball]
    if len(pairs) > pair_cap:
        pairs = rng.sample(pairs, pair_cap)
    seen = {}
    collisions = 0
    for g, y in pairs:
        key = rho(DeltaElem(g, y)).entries
        if key in seen and seen[key] != (g, y):
            collisions += 1
        seen[key] = (g, y)
    return {
        "ball_size": len(ball),
        "pairs": len(pairs),
        "collisions": collisions,
        "ok": collisions == 0,
    }
