"""The conjugation extension of SL(n, A) and its faithful n^2-dimensional
linear representation.

Elements of the extension are ``holomorph.SemiElem`` pairs (gamma, y) of
determinant-one matrices under ``RingConjugation``, so ``semi_mul`` gives
(alpha, x)(beta, y) = (alpha beta, beta^-1 x beta y); the pair acts on the
full matrix ring by M -> gamma (y M) gamma^-1, which is a left action, and
writing that action in the matrix-unit basis gives a homomorphism rho into
GL(n^2, A).

The outer component is a representative of its class modulo scalar
matrices; over A = Z/m the scalars lambda with lambda^n = 1 form the center
of SL(n, A) and faithfulness holds modulo that center (its order is
reported), so ``RingConjugation`` compares it up to a central scalar.
The matrix-unit basis is ordered row-major (E_00, E_01, ...), which pins
every rho matrix bit-exactly: with vec(M)[k*n + l] = M[k][l],
vec(A M B) = (A kron B^T) vec(M), so rho(gamma, y) is the Kronecker product
(gamma y) kron (gamma^-1)^T, built from one product and one inverse.

The ring A is one value, ``modulus``: None for Z, a ``Modulus`` for Z/p^r.
Every matrix is an ``exactmat.Mat`` over it, so the code takes no branch on
the ring except where the mathematics differs: the scalar center, the
coefficient bound of ``random_sl`` and the ring label of the report.

``verify_faithful`` splits its samples over processes as ``split``
describes: a unit is one sample, a process builds only the samples it
owns, and the four counters of the shares are summed.
"""

from __future__ import annotations

import operator
import random

from .exactmat import Mat, Modulus, _mat
from .filtration import flat_congruence_basis
from .holomorph import ActionSpec, Group, SemiElem, semi_eq, semi_id, semi_mul
from .split import run_split

#: The largest ``rep-ball --radius``.  The ball grows about 5x per radius: at
#: p = 3, base 1, target 323 (the deepest 512-bit modulus) radius 6 (23,437
#: elements) takes about 0.4 s and 37 MB; radius 7 took 1.5 s and 92 MB.
MAX_BALL_RADIUS = 6

#: The largest ``rep --samples`` and ``rep`` matrix size n.  rho has n^4
#: entries and one faithfulness sample costs about n^6, in flat memory (all
#: under 17 MB RSS in the parent and 14 MB in the child).  From the CLI in
#: process on 2 processes (2 shared vCPUs, medians of 3 runs), 5000 samples
#: took 0.40 s at n = 2 mod 9, 2.0 s at n = 4 mod 4, and 4.4 s at n = 5
#: mod 4 (4.0 s over Z); through ``verify_faithful``, past the CLI's bound,
#: 5 samples took 1.7 s at n = 16 mod 4 (20 MB in the parent).
MAX_FAITHFUL_SAMPLES = 5000
MAX_REP_N = 5

#: The transvections drawn for one ``random_sl`` matrix, and the most pairs
#: ``ball_injectivity`` checks (of a ball with more pairs it samples this many).
_TRANSVECTIONS = 8
_BALL_PAIRS = 4000


class LinRepError(ValueError):
    pass


def pair(gamma, y) -> SemiElem:
    """The ``SemiElem`` (gamma, y) of determinant-one matrices over one ring,
    or ``LinRepError``; gamma is a chosen representative of its scalar class."""
    if gamma.modulus != y.modulus:
        raise LinRepError("components must share a ring")
    if gamma.n != y.n:
        raise LinRepError("components must share a dimension")
    if gamma.det() != 1 or y.det() != 1:
        raise LinRepError("components must have determinant 1")
    return SemiElem(gamma, y)


class RingConjugation(ActionSpec):
    """SL(n, A) acting on itself by f(x) = f x f^-1.  Gamma compares modulo
    the center, by the least entries of the matrix times a central scalar:
    the scalars form a group, so two matrices share them exactly when they
    differ by one.  pi compares exactly."""

    def __init__(self, n: int, modulus: Modulus | None):
        self.scalars = scalars = center_scalars(n, modulus)
        one = Mat.identity(n, modulus)
        self.gamma = Group(operator.mul, Mat.inverse, one,
                           norm=lambda g: min(scale(g, lam).entries for lam in scalars))
        self.pi = Group(operator.mul, Mat.inverse, one)

    def apply(self, f, x):
        return f * x * f.inverse()


def act(u: SemiElem, m) -> object:
    """The left action (gamma, y)(M) = gamma (y M) gamma^-1."""
    return u.f * (u.x * m) * u.f.inverse()


def rho(u: SemiElem):
    """The n^2 x n^2 matrix of M -> gamma (y M) gamma^-1 on matrix units.

    Column k*n + l holds the image of E_kl flattened row-major, so
    rho(u) @ vec(M) = vec(u(M)) and rho(u v) = rho(u) rho(v).  In closed
    form rho(u) = (gamma y) kron (gamma^-1)^T: entry [i*n + j][k*n + l] is
    (gamma y)[i][k] * (gamma^-1)[l][j].
    """
    n, a, b = u.f.n, (u.f * u.x).entries, u.f.inverse().entries
    a_rows = [a[i:i + n] for i in range(0, n * n, n)]
    b_cols = [b[j::n] for j in range(n)]
    return _mat(tuple([x * y for a_row in a_rows for b_col in b_cols for x in a_row for y in b_col]),
                u.f.modulus)


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


def _transvections(n: int, modulus: Modulus | None, rng: random.Random):
    """The (i, j, c) of the factors I + c E_ij of one ``random_sl`` matrix,
    i != j, in order: the one place its draws are written.

    Each of ``_TRANSVECTIONS`` factors draws i, j and then, when i != j, c;
    each is one ``rng.getrandbits(k)`` draw under the rejection rule of
    ``random.Random._randbelow``, so a ``random.Random`` gives exactly the
    stream of ``randrange(n)``, ``randrange(n)`` and ``randint(1, bound)``,
    at n = 1 and bound = 1 too."""
    getrandbits = rng.getrandbits
    bound = 3 if modulus is None else modulus.m - 1
    n_bits, c_bits = n.bit_length(), bound.bit_length()
    out = []
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
        out.append((i, j, c))
    return out


def random_sl(n: int, modulus: Modulus | None, rng: random.Random):
    """A pseudo-random determinant-one matrix: a word of ``_TRANSVECTIONS``
    transvections, drawn by ``_transvections``.

    Not a ``filtration.WordSampler`` word: each factor draws a position
    and a coefficient, not a letter, and these draws fix the
    ``kernel_probes.hits`` that ``verify_faithful`` reports.  Each factor
    I + c E_ij is applied as the column operation column j += c column i,
    in place over the rows; the draws are the same as for the explicit
    product of transvections."""
    entries = [1 if i == j else 0 for i in range(n) for j in range(n)]
    rows = range(0, n * n, n)
    for i, j, c in _transvections(n, modulus, rng):
        for k in rows:
            entries[k + j] += c * entries[k + i]
    return _mat(tuple(entries), modulus)


def verify_faithful(n: int, modulus: Modulus | None, sample_count: int, seed, stats=None) -> dict:
    """Homomorphism and kernel checks for rho over SL(n, A).

    (i) rho(u v) = rho(u) rho(v) on seeded pairs (exact matrix equality);
    (ii) constructed kernel probes (lambda I, I) map to the identity and
    every sampled u with rho(u) = I is trivial modulo the scalar center
    (``semi_eq`` with the identity under ``RingConjugation``), whose order
    is reported.  A determinant-one gamma is scalar exactly when it is a
    central scalar, since lambda I in SL(n, A) forces lambda^n = 1.

    The samples are split over processes as ``split`` describes: every
    process makes every sample's draws, in order, and builds and checks
    only its own; for another's it draws the transvections and applies
    none.  ``stats``, when given, gets ``processes``, their number.
    """
    conj = RingConjugation(n, modulus)
    e = semi_id(conj)
    ident, one = rho(e), e.x

    def run(mine):
        rng = random.Random("linrep:%s:%s:%s" % (n, modulus, seed))
        hom_failures = left_action_failures = kernel_violations = kernel_hits = 0
        for sample in range(sample_count):
            if not mine(sample):
                for _ in range(5):
                    _transvections(n, modulus, rng)
                continue
            draws = [random_sl(n, modulus, rng) for _ in range(5)]
            u, v, m = pair(*draws[:2]), pair(*draws[2:4]), draws[4]
            ru, rv, uv = rho(u), rho(v), pair(*semi_mul(u, v, conj))
            hom_failures += rho(uv) != ru * rv
            left_action_failures += act(uv, m) != act(u, act(v, m))
            if ru == ident:
                kernel_hits += 1
                kernel_violations += not semi_eq(u, e, conj)
        return hom_failures, left_action_failures, kernel_violations, kernel_hits

    results, processes = run_split(run, sample_count)
    if stats is not None:
        stats["processes"] = processes
    hom_failures, left_action_failures, kernel_violations, kernel_hits = map(sum, zip(*results))

    probe_failures = 0
    for lam in conj.scalars:
        probe = pair(scale(one, lam), one)
        probe_failures += rho(probe) != ident or not semi_eq(probe, e, conj)

    ok = hom_failures == 0 and left_action_failures == 0 and kernel_violations == 0 and probe_failures == 0
    return {
        "n": n,
        "ring": "Z" if modulus is None else "Z/%d" % modulus.m,
        "samples": sample_count,
        "hom_failures": hom_failures,
        "left_action_failures": left_action_failures,
        "kernel_probes": {"center_order": len(conj.scalars), "hits": kernel_hits + len(conj.scalars),
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
    conj = RingConjugation(2, modulus)
    seen = {}
    collisions = 0
    for g, y in pairs:
        u = pair(g, y)
        key = rho(u).entries
        if key in seen and not semi_eq(seen[key], u, conj):
            collisions += 1
        seen[key] = u
    return {
        "ball_size": len(ball),
        "pairs": len(pairs),
        "collisions": collisions,
        "ok": collisions == 0,
    }
