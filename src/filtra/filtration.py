"""Congruence filtrations of (P)SL(2, Z) and their finite quotients.

A filtration here is the descending chain of congruence subgroups at levels
p^{r0}, p^{r0+1}, ... of either family:

- ``gamma``:  matrices congruent to I mod p^e (kernel of reduction on the
  integral matrix group), and
- ``pgamma``: sign classes, i.e. matrices congruent to +-I mod p^e.

``level_of`` measures how deep an element sits, ``tower_invariants``
certifies the order, exponent and d(G) of the finite quotient between two
levels from the graded tower, and ``check_p_congruence`` verifies the
finite p-group and bounded-generation conditions for every pair of levels
up to a depth cap.  The same quotients built by complete enumeration are
the test oracle ``tests/quotient_tables.py``, which no command imports.

Elements of SL(2, Z) are flat (a, b, c, d) tuples, the form the samplers
use (``flat_congruence_basis`` gives the generators that way).  Depth is a
valuation: M = sI mod p^e exactly when p^e divides h = gcd(b, c, d - a,
a - s, p^N), where N is the deepest exponent read.  That h is itself a
power of p, so ``level_of`` takes one gcd per sign (the part gcd(b, c,
d - a, p^N) is shared by both signs) and looks its exponent up in a table
{p^e: e}; a ``FiltrationSpec`` keeps p^N and the table, made on its first
``level_of`` call.  The truncation check of
``check_p_congruence`` divides the entries themselves instead, so that it
does not share that code with what it checks.

A level is an int in [-1, cap + 1]: -1 outside the level-0 group, cap + 1
for anything deeper than the truncation cap can distinguish.

``WordSampler`` is the package's one seeded word sampler: the truncation
check here, the holomorph identity checks and the stability checks all
draw their words from it.  It lives with the tower, its first user, so
that the tower commands load no module of the split-extension layer.

The tower certificate reads each layer Gamma(p^q)/Gamma(p^{q+1}) as F_p^3
through the coordinates of x = I + p^q N (``graded.layer_offset``, the map
the graded classes use) and follows the p^{q-i}-th powers of
three basis lifts down the layers, so it costs O(j - i) flat products mod
p^j at any depth.  The pgamma quotient is the gamma quotient modulo the
central scalars it identifies, which exist only at p = 2, so the
certificate covers both families at every p.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .exactmat import _FLAT_ID, _det, _flat_inv_z, _flat_mul, _flat_mul_z, _flat_pow, check_prime, format_matrix
from .graded import layer_offset

# The guard of the test oracle tests/quotient_tables.py; perfbench/layers.py imports enum_guard_limit.
DEFAULT_ENUM_GUARD = 10 ** 7


def enum_guard_limit() -> int:
    value = os.environ.get("FILTRA_MAX_ENUM")
    if value:
        return int(value)
    return DEFAULT_ENUM_GUARD


#: The largest bit length of the modulus p^j a tower certificate computes
#: mod.  The certificate's O(j - i) products of p^j-sized integers grow
#: faster than quadratically in it: at this bound the slowest quotient
#: (p = 2, j = 511) takes about 0.03 s, at 1585 bits (p = 3, j = 1000)
#: 0.28 s, and at 10^4 levels it did not finish in 100 s.
MAX_MODULUS_BITS = 512

#: The largest ``pcongruence --jmax`` and ``graded verify --qmax``.
#: ``check_p_congruence`` certifies every pair of its jmax + 1 levels,
#: O(jmax^3) products in all: with the modulus at its bound, jmax = 16
#: takes about 0.3 s; jmax = 64 (p = 3, r0 = 1) took 1.3 s.  The relation
#: table checks every pair of levels up to qmax: qmax = 16 takes about
#: 0.4 s at p = 3 or 5, qmax = 80 took 11 s.
MAX_JMAX = 16

FAMILIES = ("pgamma", "gamma")


class GuardError(RuntimeError):
    """Raised when a request exceeds a desk-scale guard: the stability
    depth cap, or the test oracle's enumeration guard."""


def check_tower_depth(p: int, j: int) -> None:
    """Raise ValueError unless p is a prime below 2^20 and p^j has at most
    ``MAX_MODULUS_BITS`` bits.  p^j has more than j bits, so a j past the
    bound is refused before the power is taken."""
    check_prime(p, ValueError)
    if j >= MAX_MODULUS_BITS or (p ** max(j, 0)).bit_length() > MAX_MODULUS_BITS:
        raise ValueError("%d^%d has more than %d bits" % (p, j, MAX_MODULUS_BITS))


@dataclass(frozen=True)
class FiltrationSpec:
    """A p-power congruence chain: level j sits at exponent r0 + j."""

    family: str
    p: int
    r0: int = 1
    depth_cap: int = 4

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError("family must be one of %s, got %r" % (FAMILIES, self.family))
        check_prime(self.p, ValueError)
        if self.r0 < 1:
            raise ValueError("base exponent must be >= 1")
        if self.depth_cap < 0:
            raise ValueError("depth cap must be >= 0")

    @property
    def allow_sign(self) -> bool:
        return self.family == "pgamma"

    def exponent(self, level: int) -> int:
        return self.r0 + level

    @cached_property
    def _level_table(self):
        """(p^N, {p^e: e for e <= N}, allow_sign) for the deepest exponent
        ``level_of`` reads, N = r0 + depth_cap + 1.  Made on the first
        ``level_of`` call rather than with the spec, so that building a
        spec never takes a power."""
        return _prime_powers(self.p, self.r0 + self.depth_cap + 1) + (self.allow_sign,)


@lru_cache(maxsize=32)
def _prime_powers(p, n):
    """(p^n, {p^e: e for 0 <= e <= n}).  The gcd of anything with p^n is
    p^e for some e <= n, so the table reads e off it.  The table is shared
    between callers and never written after it is built."""
    pe, exponents = 1, {1: 0}
    for e in range(1, n + 1):
        pe *= p
        exponents[pe] = e
    return pe, exponents


def _valuation_to_identity(g, corner, exponents, allow_sign):
    """Largest e <= n with M = (+-)I mod p^e, as a truncated valuation.

    ``exponents`` is the table of ``_prime_powers(p, n)``, ``corner`` is M's
    top-left entry and ``g`` = gcd(b, c, d - a, p^n) for M's entries.  Then
    M = sI mod p^e exactly when p^e divides gcd(g, corner - s), which is
    itself a power of p, so each sign costs one gcd and one lookup.  For
    +-I every entry but p^n is zero and the gcd is p^n: n, the cap.
    """
    v = exponents[math.gcd(g, corner - 1)]
    if allow_sign:
        w = exponents[math.gcd(g, corner + 1)]
        if w > v:
            v = w
    return v


def level_of(x: tuple, spec: FiltrationSpec):
    """Largest level j <= depth_cap with x in the level-j subgroup.

    ``x`` is an element of SL(2, Z) as a flat (a, b, c, d) tuple; any other
    type raises TypeError and a determinant other than 1 ValueError.
    Returns -1 when x is not even in the level-0 group and depth_cap + 1
    when x is congruent to (+-)I one exponent beyond the cap, i.e. deeper
    than the truncation can distinguish.  The exponent is one gcd per sign
    with the spec's p^(r0 + depth_cap + 1), read off the spec's table of
    powers (``_valuation_to_identity``).
    """
    if type(x) is not tuple:
        raise TypeError("level_of expects a flat 2x2 tuple (a, b, c, d), got %r" % type(x))
    a, b, c, d = x
    det = a * d - b * c
    if det != 1:
        raise ValueError("expected determinant 1, got %d" % det)
    top, exponents, allow_sign = spec._level_table
    v = _valuation_to_identity(math.gcd(b, c, d - a, top), a, exponents, allow_sign)
    return v - spec.r0 if v >= spec.r0 else -1


def flat_congruence_basis(p: int, q: int) -> list:
    """The three determinant-one integer matrices generating depth p^q, as
    flat (a, b, c, d) tuples in the order A, B, C: upper and lower
    unipotents with offdiagonal p^q, and the mixed one with diagonal
    1 +- p^q."""
    t = p ** q
    return [(1, t, 0, 1), (1, 0, t, 1), (1 + t, t, -t, 1 - t)]


# --- seeded words -----------------------------------------------------------

#: Words of at most this many letters are answered from a sampler's table,
#: and a longer word is the product of two table entries: the word's first
#: ``_SHORT`` letters and the rest.  With 4 letters the p = 3 stability
#: suite (500 per cell) peaked 2.4 MB (13%) higher and ran no faster.
_SHORT = 3

#: The longest word a ``WordSampler`` draws, two table entries long, and the
#: radius at which the stability checks and the ``pcongruence`` truncation
#: check sample.
MAX_RADIUS = 2 * _SHORT


class WordSampler:
    """Seeded words in ``alphabet`` (generators and their inverses): the
    package's one word sampler.

    A word has a length drawn uniformly from 1..radius, radius at most
    ``MAX_RADIUS`` = 6, and letters drawn uniformly from the alphabet, left
    to right.  Each draw is one ``rng.getrandbits(k)`` call with the
    rejection rule of ``random.Random._randbelow``, so a ``random.Random``
    gives exactly the stream, and the elements, of ``rng.randint(1,
    radius)`` followed by one ``rng.choice(alphabet)`` per letter.

    Words of at most three letters are looked up in a table filled lazily
    with each product and its level, ``measure(element)`` (None without
    ``measure``).  A word of four to six letters is its prefix's entry
    times its suffix's entry, the first three letters and the rest, so it
    costs one product and one ``measure``.  That equals the product of its
    letters from the first only because ``mul`` is associative, as a group
    product is.  A sampler therefore belongs to one alphabet, product and
    level function; reusing it shares the table.  ``drawn`` counts the words
    drawn and ``hits`` those answered whole from the table.
    """

    def __init__(self, alphabet, mul, radius, measure=None):
        self.alphabet = tuple(alphabet)
        if not self.alphabet or not 1 <= radius <= MAX_RADIUS:
            raise ValueError("need a nonempty alphabet and 1 <= radius <= %d" % MAX_RADIUS)
        self.mul = mul
        self.radius = radius
        self.measure = measure
        self.drawn = 0
        self.hits = 0
        self._table = {}   # letter indices in base len(alphabet) + 1, from 1 -> (element, level)

    def draw(self, rng, count):
        """``count`` words from ``rng``, as (element, level) pairs."""
        getrandbits = rng.getrandbits
        mul, measure, table = self.mul, self.measure, self._table
        n = len(self.alphabet)
        n_bits, base = n.bit_length(), n + 1
        radius = self.radius
        r_bits = radius.bit_length()
        out = []
        append = out.append
        hits = 0
        for _ in range(count):
            length = getrandbits(r_bits) + 1
            while length > radius:
                length = getrandbits(r_bits) + 1
            key = 0
            for _ in range(length if length < _SHORT else _SHORT):
                i = getrandbits(n_bits)
                while i >= n:
                    i = getrandbits(n_bits)
                key = key * base + i + 1
            entry = table.get(key)
            if length <= _SHORT:
                if entry is None:
                    entry = self._fill(key)
                else:
                    hits += 1
                append(entry)
                continue
            suffix = 0
            for _ in range(length - _SHORT):
                i = getrandbits(n_bits)
                while i >= n:
                    i = getrandbits(n_bits)
                suffix = suffix * base + i + 1
            w = mul((entry or self._fill(key))[0], (table.get(suffix) or self._fill(suffix))[0])
            append((w, None if measure is None else measure(w)))
        self.drawn += count
        self.hits += hits
        return out

    def _fill(self, key):
        """The table entry of the word ``key`` encodes, from its prefix's."""
        prefix, i = divmod(key, len(self.alphabet) + 1)
        w = self.alphabet[i - 1]
        if prefix:
            w = self.mul((self._table.get(prefix) or self._fill(prefix))[0], w)
        entry = self._table[key] = (w, None if self.measure is None else self.measure(w))
        return entry


# --- finite quotients -------------------------------------------------------

def _scalar_subgroup(p, i, j):
    """Scalars lam = 1 mod p^i with lam^2 = 1 mod p^j (the central scalars
    living inside the quotient between levels p^i and p^j), in increasing
    order.

    Trivial for odd p, where lam^2 = 1 forces lam = +-1 and only 1 is 1 mod
    p^i.  At p = 2 every square root of 1 mod 2^j lies in
    {+-1, +-1 + 2^{j-1}}, so the members of that set passing both tests are
    all of them.
    """
    if p != 2:
        return (1,)
    pi_, pj = 2 ** i, 2 ** j
    roots = {lam % pj for lam in (1, -1, 1 + pj // 2, pj // 2 - 1)}
    return tuple(sorted(lam for lam in roots if lam % pi_ == 1 and lam * lam % pj == 1))


def _check_quotient(p, i, j, family):
    if family not in FAMILIES:
        raise ValueError("family must be one of %s" % (FAMILIES,))
    if not (1 <= i < j):
        raise ValueError("need 1 <= i < j, got i=%d j=%d" % (i, j))
    check_prime(p, ValueError)


def _enumeration_size(p, i, j):
    """The order of the gamma quotient between levels p^i and p^j: its
    p^{3(j-i)} determinant-one triples (a, b, c) mod p^j."""
    return p ** (3 * (j - i))


def tower_invariants(p: int, i: int, j: int, family: str = "pgamma") -> dict:
    """The invariants of the quotient between congruence levels p^i and
    p^j, certified on the graded tower instead of enumerated.  Raises
    RuntimeError when a step of the certificate fails.

    Returns ``family``, ``p``, ``i``, ``j``, ``order``, ``exponent``,
    ``d``, ``elementary_abelian`` and ``p_group``.  Let G be the gamma quotient.  The lifts of the layer-i
    basis are ``flat_congruence_basis(p, i)`` mod p^j, and each step is an
    exact check on O(j - i) flat products mod p^j:

    1. the lifts have determinant 1 and the layer map, the first three
       coordinates of ``graded.layer_offset``, is additive on them at
       level i, so G maps onto F_p^3 and d(G) >= 3;
    2. for q = i, ..., j - 1 the p^{q-i}-th powers of the lifts have
       coordinates forming a basis of layer q.  The subgroup H the lifts
       generate then meets every layer in all of it, so
       |H| >= p^{3(j-i)} >= |G|: H = G, |G| = p^{3(j-i)} and d(G) <= 3;
    3. (I + p^q N)^p = I mod p^{q+1} by the binomial theorem, so the
       exponent is at most top = p^{j-i}, and the order of the lift of A
       must attain it (its powers are reduced mod p^j, so I is (1, 0, 0, 1)).

    The pgamma quotient is G/Z for the central scalars Z of
    ``_scalar_subgroup``, trivial at odd p.  Its order is |G|/|Z|.  Steps
    1 and 2 identify G/Phi(G) with layer i, and Phi(G/Z) = Phi(G)Z/Z, so
    d(G/Z) is 3 minus the rank of the layer-i images of Z.  The exponent
    stays top when the (top/p)-th power of the lift of A is not in Z.  The
    quotient is elementary abelian exactly when its order is p^d.
    """
    _check_quotient(p, i, j, family)
    m = p ** j
    lifts = [tuple(e % m for e in g) for g in flat_congruence_basis(p, i)]
    if any((a * d - b * c) % m != 1 for a, b, c, d in lifts):
        raise RuntimeError("a lift of the layer-%d basis has determinant other than 1" % i)
    # 1. the layer map at level i is additive on the lifts
    coords = [layer_offset(x, p, i) for x in lifts]
    if None in coords:
        raise RuntimeError("a lift of the layer-%d basis is not I mod p^%d" % (i, i))
    for x, cx in zip(lifts, coords):
        for y, cy in zip(lifts, coords):
            if layer_offset(_flat_mul(x, y, m), p, i) != tuple((u + v) % p for u, v in zip(cx, cy)):
                raise RuntimeError("the layer-%d map is not additive on the lifts" % i)
    # 2. the p-th power map carries a basis of each layer onto the next one
    powers = lifts
    for q in range(i, j):
        basis = [layer_offset(x, p, q) for x in powers]
        if None in basis or _det([e for n in basis for e in n[:3]]) % p == 0:
            raise RuntimeError("the powers of the lifts do not span layer %d" % q)
        powers = [_flat_pow(x, p, m) for x in powers]
    # 3. the lift of A has the largest order the power map allows
    top = p ** (j - i)
    x, order = lifts[0], 1
    while x != _FLAT_ID:
        if order == top:
            raise RuntimeError("the lift of A has order above p^(j-i)")
        last, x, order = x, _flat_pow(x, p, m), order * p
    if order != top:
        raise RuntimeError("the lift of A has order below p^(j-i)")
    scalars = _scalar_subgroup(p, i, j) if family == "pgamma" else (1,)
    if any(last == (lam, 0, 0, lam) for lam in scalars):
        raise RuntimeError("the (p^(j-i)/p)-th power of the lift of A is a central scalar")
    # the layer-i images of Z form a subgroup of order 2^rank (Z is trivial at odd p)
    rank = len({layer_offset((lam, 0, 0, lam), p, i) for lam in scalars}).bit_length() - 1
    d = 3 - rank
    size = _enumeration_size(p, i, j) // len(scalars)
    return {
        "family": family,
        "p": p,
        "i": i,
        "j": j,
        "order": size,
        "exponent": top,
        "d": d,
        "elementary_abelian": size == p ** d,
        "p_group": True,
    }


def _divisibility_exponent(x: tuple, p: int, allow_sign: bool, bail: int) -> int:
    """Largest e <= bail with p^e dividing every entry of x - I (or, with
    ``allow_sign``, of x + I), found by dividing the entries themselves."""
    a, b, c, d = x
    best = 0
    for sign in ((1, -1) if allow_sign else (1,)):
        e, pe = 0, p
        while e < bail and (a - sign) % pe == b % pe == c % pe == (d - sign) % pe == 0:
            e, pe = e + 1, pe * p
        best = max(best, e)
    return best


def check_p_congruence(spec: FiltrationSpec, j_max: int, bound_e: int, seed: int, sample_count: int = 60) -> dict:
    """Verify the finite p-group and bounded-generation conditions.

    For every 0 <= i < j <= j_max the quotient between levels i and j must
    be a finite p-group with d <= bound_e.  Each pair is answered by the
    tower certificate (``tower_invariants``) at any depth and without
    building a table.  Additionally a seeded sample of generator words is
    checked for consistency between the truncated level_of and the exact
    congruence exponent (no element shallower than the cap may report
    cap + 1); the exact exponent is taken one past the cap, as deep as
    level_of reads, by ``_divisibility_exponent``, which shares no code
    with level_of.

    The result's ``stats`` entry counts the certified pairs; it describes
    the run, not the group, and the CLI reports it under ``timings``.
    """
    pairs = []
    ok = True
    for i in range(j_max):
        for j in range(i + 1, j_max + 1):
            entry = tower_invariants(spec.p, spec.exponent(i), spec.exponent(j), spec.family)
            entry["levels"] = [i, j]
            entry["d_le_e"] = entry["d"] <= bound_e
            entry["pass"] = entry["p_group"] and entry["d_le_e"]
            ok = ok and entry["pass"]
            pairs.append(entry)

    rng = random.Random("pcongruence:%d:%s:%d" % (spec.p, spec.family, seed))
    gens = [m for lv in range(spec.depth_cap + 1)
            for m in flat_congruence_basis(spec.p, spec.exponent(lv))]
    gens += [_flat_inv_z(m) for m in gens]
    bail = spec.r0 + spec.depth_cap + 1
    truncation_failures = []
    for w, _ in WordSampler(gens, _flat_mul_z, MAX_RADIUS).draw(rng, sample_count):
        exact = _divisibility_exponent(w, spec.p, spec.allow_sign, bail)
        reported = level_of(w, spec)
        expected = -1 if exact < spec.r0 else min(exact - spec.r0, spec.depth_cap + 1)
        if reported != expected:
            truncation_failures.append({"matrix": format_matrix(w), "reported": reported, "exact": exact})
    ok = ok and not truncation_failures
    return {
        "family": spec.family,
        "p": spec.p,
        "r0": spec.r0,
        "j_max": j_max,
        "bound_e": bound_e,
        "pairs": pairs,
        "truncation_check": {"samples": sample_count, "failures": truncation_failures},
        "ok": ok,
        "stats": {"pairs_certified": len(pairs)},
    }
