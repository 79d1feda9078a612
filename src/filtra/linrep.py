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
which pins every rho matrix bit-exactly: with vec(M)[k*n + l] = M[k][l],
vec(A M B) = (A kron B^T) vec(M), so rho(gamma, y) is the Kronecker product
(gamma y) kron (gamma^-1)^T, built from one product and one inverse.

The ring A is one value, ``modulus``: None for Z, a ``Modulus`` for Z/p^r.
Every matrix is an ``exactmat.Mat`` over it, so the code takes no branch on
the ring except where the mathematics differs: the scalar center, the
coefficient bound of ``random_sl`` and the ring label of the report.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from .exactmat import Mat, Modulus, _mat
from .filtration import flat_congruence_basis

#: The largest ``rep-ball --radius``.  The ball grows about 5x per radius: at
#: p = 3, base 1, target 323 (the deepest 512-bit modulus) radius 6 (23,437
#: elements) takes about 0.4 s and 37 MB; radius 7 took 1.5 s and 92 MB.
MAX_BALL_RADIUS = 6

#: The largest ``rep --samples`` and ``rep`` matrix size n.  rho has n^4
#: entries and one faithfulness sample costs about n^6, in flat memory (all
#: under 17 MB RSS): 5000 samples took 0.63 s at n = 2 mod 9, 7.3 s at
#: n = 4 mod 4, and 11.8 s at n = 5 mod 4 (12.4 s over Z); 5 samples took
#: 4.4 s at n = 16.
MAX_FAITHFUL_SAMPLES = 5000
MAX_REP_N = 5

#: The transvections drawn for one ``random_sl`` matrix, and the most pairs
#: ``ball_injectivity`` checks (of a ball with more pairs it samples this many).
_TRANSVECTIONS = 8
_BALL_PAIRS = 4000


class LinRepError(ValueError):
    pass


@dataclass(frozen=True)
class DeltaElem:
    """A pair (gamma, y) of determinant-one matrices over one ring; gamma is
    a chosen representative of its scalar class."""

    gamma: object
    y: object

    def __post_init__(self):
        if self.gamma.modulus != self.y.modulus:
            raise LinRepError("components must share a ring")
        if self.gamma.n != self.y.n:
            raise LinRepError("components must share a dimension")
        if self.gamma.det() != 1 or self.y.det() != 1:
            raise LinRepError("components must have determinant 1")

    @property
    def n(self) -> int:
        return self.gamma.n

    @functools.cached_property
    def gamma_inv(self):
        """gamma^-1, computed on first use and kept: ``rho``, ``act`` and
        ``delta_mul`` each need it, often for the same pair."""
        return self.gamma.inverse()


def delta_identity(n: int, modulus: Modulus | None = None) -> DeltaElem:
    one = Mat.identity(n, modulus)
    return DeltaElem(one, one)


def delta_mul(u: DeltaElem, v: DeltaElem) -> DeltaElem:
    """(alpha, x)(beta, y) = (alpha beta, beta^-1 x beta y)."""
    return DeltaElem(u.gamma * v.gamma, v.gamma_inv * u.y * v.gamma * v.y)


def act(u: DeltaElem, m) -> object:
    """The left action (gamma, y)(M) = gamma (y M) gamma^-1."""
    return u.gamma * (u.y * m) * u.gamma_inv


def rho(u: DeltaElem):
    """The n^2 x n^2 matrix of M -> gamma (y M) gamma^-1 on matrix units.

    Column k*n + l holds the image of E_kl flattened row-major, so
    rho(u) @ vec(M) = vec(u(M)) and rho(u v) = rho(u) rho(v).  In closed
    form rho(u) = (gamma y) kron (gamma^-1)^T: entry [i*n + j][k*n + l] is
    (gamma y)[i][k] * (gamma^-1)[l][j].
    """
    n, a, b = u.n, (u.gamma * u.y).entries, u.gamma_inv.entries
    a_rows = [a[i:i + n] for i in range(0, n * n, n)]
    b_cols = [b[j::n] for j in range(n)]
    return _mat(tuple(x * y for a_row in a_rows for b_col in b_cols for x in a_row for y in b_col),
                u.gamma.modulus)


def is_scalar(mat) -> bool:
    lam, step = mat.entries[0], mat.n + 1
    return all(e == (lam if k % step == 0 else 0) for k, e in enumerate(mat.entries))


def center_scalars(n: int, modulus: Modulus | None):
    """Scalars lambda with lambda^n = 1 (the scalar center of SL(n, A)),
    ascending.

    Over Z/p^r the roots mod p are lifted one level at a time: a root mod
    p^(k+1) reduces to a root mod p^k, so the lifts of each root lambda mod
    p^k are among the p values lambda + t p^k.  For k >= 1,
    (lambda + t p^k)^n = lambda^n + n lambda^(n-1) t p^k mod p^(k+1), so t
    solves one linear congruence mod p (Hensel's lemma): a single t when p
    does not divide n, else every t or none."""
    if modulus is None:
        return [1, -1] if n % 2 == 0 else [1]
    p = modulus.p
    roots = [lam for lam in range(1, p) if pow(lam, n, p) == 1]
    step = p
    for _ in range(modulus.r - 1):
        nxt = step * p
        lifts = []
        for lam in roots:
            excess = (pow(lam, n, nxt) - 1) % nxt // step
            if n % p:
                lifts.append(lam + (-excess * pow(n * pow(lam, n - 1, p), -1, p) % p) * step)
            elif excess == 0:
                lifts.extend(range(lam, nxt, step))
        roots = lifts
        step = nxt
    return sorted(roots)


def scale(mat, lam: int):
    return Mat(tuple(lam * e for e in mat.entries), mat.modulus)


def delta_eq_mod_center(u: DeltaElem, v: DeltaElem, scalars) -> bool:
    """Pair equality with the outer component read modulo scalar matrices."""
    if u.y != v.y:
        return False
    return any(scale(u.gamma, lam) == v.gamma for lam in scalars)


def random_sl(n: int, modulus: Modulus | None, rng: random.Random):
    """A pseudo-random determinant-one matrix: a word of ``_TRANSVECTIONS``
    transvections.

    Not a ``filtration.WordSampler`` word: each factor draws a position
    and a coefficient, not a letter, and these draws fix the
    ``kernel_probes.hits`` that ``verify_faithful`` reports.  Each factor
    I + c E_ij is applied as the column operation column j += c column i;
    the draws are the same as for the explicit product of transvections.

    i, j and c are each one ``rng.getrandbits(k)`` draw under the rejection
    rule of ``random.Random._randbelow``, so a ``random.Random`` gives
    exactly the stream of ``randrange(n)``, ``randrange(n)`` and
    ``randint(1, bound)``, at n = 1 and bound = 1 too."""
    getrandbits = rng.getrandbits
    entries = [1 if i == j else 0 for i in range(n) for j in range(n)]
    bound = 3 if modulus is None else modulus.m - 1
    n_bits, c_bits = n.bit_length(), bound.bit_length()
    for _ in range(_TRANSVECTIONS):
        i = getrandbits(n_bits)
        while i >= n:
            i = getrandbits(n_bits)
        j = getrandbits(n_bits)
        while j >= n:
            j = getrandbits(n_bits)
        if i == j:
            continue
        c = getrandbits(c_bits) + 1
        while c > bound:
            c = getrandbits(c_bits) + 1
        entries[j::n] = [x + c * y for x, y in zip(entries[j::n], entries[i::n])]
    return _mat(tuple(entries), modulus)


def verify_faithful(n: int, modulus: Modulus | None, sample_count: int, seed) -> dict:
    """Homomorphism and kernel checks for rho over SL(n, A).

    (i) rho(u v) = rho(u) rho(v) on seeded pairs (exact matrix equality);
    (ii) constructed kernel probes (lambda I, I) map to the identity and
    every sampled u with rho(u) = I has y = I and scalar gamma, i.e. u is
    trivial modulo the scalar center, whose order is reported.
    """
    rng = random.Random("linrep:%s:%s:%s" % (n, modulus, seed))
    ident = rho(delta_identity(n, modulus))
    one = Mat.identity(n, modulus)
    hom_failures = 0
    left_action_failures = 0
    kernel_violations = 0
    kernel_hits = 0
    for _ in range(sample_count):
        u = DeltaElem(random_sl(n, modulus, rng), random_sl(n, modulus, rng))
        v = DeltaElem(random_sl(n, modulus, rng), random_sl(n, modulus, rng))
        ru, rv, uv = rho(u), rho(v), delta_mul(u, v)
        if rho(uv) != ru * rv:
            hom_failures += 1
        m = random_sl(n, modulus, rng)
        if act(uv, m) != act(u, act(v, m)):
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


def _sample_pairs(ball, cap, rng):
    """Every pair (g, y) of ``ball``, or ``cap`` of them drawn by ``rng.sample``
    over the pair indices g_index * len(ball) + y_index: the stream and the
    pairs of sampling the list of all pairs, without building that list."""
    n = len(ball)
    if n * n <= cap:
        return [(g, y) for g in ball for y in ball]
    return [(ball[i], ball[j]) for i, j in (divmod(k, n) for k in rng.sample(range(n * n), cap))]


def ball_injectivity(p: int, base_exp: int, target_exp: int, radius: int, seed) -> dict:
    """Injectivity of rho modulo the scalar center on pairs drawn from the
    ball of words in the level-p^base generators, reduced mod p^target.

    A collision is two pairs with the same rho that differ modulo the
    center; pairs differing by a central scalar on gamma do not count, since
    the ball may hold nontrivial scalars (-I mod 8 at p = 2, radius 3).
    """
    modulus = Modulus(p, target_exp)
    gens = [Mat(x, modulus) for x in flat_congruence_basis(p, base_exp)]
    gens += [g.inverse() for g in gens]
    ball = {Mat.identity(2, modulus)}
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
    pairs = _sample_pairs(ball, _BALL_PAIRS, random.Random("ball:%s" % seed))
    scalars = center_scalars(2, modulus)
    seen = {}
    collisions = 0
    for g, y in pairs:
        u = DeltaElem(g, y)
        key = rho(u).entries
        if key in seen and not delta_eq_mod_center(seen[key], u, scalars):
            collisions += 1
        seen[key] = u
    return {
        "ball_size": len(ball),
        "pairs": len(pairs),
        "collisions": collisions,
        "ok": collisions == 0,
    }
