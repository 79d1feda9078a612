"""Congruence filtrations of (P)SL(2, Z) and their finite quotients.

A filtration here is the descending chain of congruence subgroups at levels
p^{r0}, p^{r0+1}, ... of either family:

- ``gamma``:  matrices congruent to I mod p^e (kernel of reduction on the
  integral matrix group), and
- ``pgamma``: sign classes, i.e. matrices congruent to +-I mod p^e.

``level_of`` measures how deep an element sits, ``tower_invariants``
certifies the order, exponent and d(G) of the finite quotient between two
levels from the graded tower, ``kernel_enumerate`` builds that quotient by
complete enumeration, and ``check_p_congruence`` verifies the finite p-group
and bounded-generation conditions for every pair of levels up to a depth
cap.

Elements of SL(2, Z) are flat (a, b, c, d) tuples, the form the samplers
use (``flat_congruence_basis`` gives the generators that way); quotient
table elements are flat tuples mod p^j.  Depth is a valuation: M = +-I
mod p^e exactly when p^e divides the gcd of the entries of M -+ I, so
``level_of`` and ``exact_congruence_exponent`` take one gcd per sign and
count its factors of p up to the cap.

A level is an int in [-1, cap + 1]: -1 outside the level-0 group, cap + 1
for anything deeper than the truncation cap can distinguish.

The tower certificate reads each layer Gamma(p^q)/Gamma(p^{q+1}) as F_p^3
through the coordinates of x = I + p^q N and follows the p^{q-i}-th powers of
three basis lifts down the layers, so it costs O(j - i) flat products mod
p^j at any depth.  It covers the gamma family at every p and the pgamma
family at odd p, where the two quotients coincide; the pgamma quotient at
p = 2 identifies central scalar classes and is enumerated.

The quotient between levels p^i and p^j (i >= 1) is enumerated on its
determinant-one locus: a = 1 + p^i n is a unit mod p^j, so d = (1 + bc) a^-1
is forced and the table is exactly the p^{3(j-i)} triples (a, b, c).  The
enumeration guard counts those triples.

Minimal generator counts use the Burnside basis theorem: for a finite
p-group G, d(G) = log_p |G / Phi(G)| with Phi(G) generated by p-th powers
and commutators.  Phi is computed by explicit closure, which is fine at the
enumeration sizes guarded here.  Each table does that work once: one
incremental greedy generator search (every pick grows the subgroup found so
far instead of closing it again from the identity), one derived subgroup
and coset map shared by ``minimal_generators`` and ``generating_set``, and
element orders memoised across the table by order(x) = p * order(x^p).
"""

from __future__ import annotations

import functools
import math
import os
import random
from dataclasses import dataclass

from .exactmat import (
    IntMat, _FLAT_ID, _det_cofactor, _flat, _flat_inv, _flat_inv_z, _flat_mul, _flat_mul_z, _flat_pow,
    format_matrix, is_prime,
)
from .holomorph import random_element

DEFAULT_ENUM_GUARD = 10 ** 7

FAMILIES = ("pgamma", "gamma")


class GuardError(RuntimeError):
    """Raised when a requested enumeration exceeds the desk-scale guard."""


class NotPGroup(ValueError):
    pass


def enum_guard_limit() -> int:
    value = os.environ.get("FILTRA_MAX_ENUM")
    if value:
        return int(value)
    return DEFAULT_ENUM_GUARD


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
        if not is_prime(self.p):
            raise ValueError("p must be prime, got %r" % (self.p,))
        if self.r0 < 1:
            raise ValueError("base exponent must be >= 1")
        if self.depth_cap < 0:
            raise ValueError("depth cap must be >= 0")

    @property
    def allow_sign(self) -> bool:
        return self.family == "pgamma"

    def exponent(self, level: int) -> int:
        return self.r0 + level


def _valuation_to_identity(g, corner, p, cap, allow_sign):
    """Largest e <= cap with M = (+-)I mod p^e, as a truncated valuation.

    ``corner`` is M's top-left entry and ``g`` the gcd of the entries of
    M - corner*I.  Then M = sI mod p^e exactly when p^e divides
    gcd(g, corner - s), so each sign costs one gcd; a zero gcd is divisible
    by every power of p and gives cap.
    """
    best = 0
    for sign in ((1, -1) if allow_sign else (1,)):
        h = math.gcd(g, corner - sign)
        v = 0
        while v < cap and h % p == 0:
            h //= p
            v += 1
        if v > best:
            best = v
    return best


def level_of(x: tuple, spec: FiltrationSpec):
    """Largest level j <= depth_cap with x in the level-j subgroup.

    ``x`` is an element of SL(2, Z) as a flat (a, b, c, d) tuple; any other
    type raises TypeError and a determinant other than 1 ValueError.
    Returns -1 when x is not even in the level-0 group and depth_cap + 1
    when x is congruent to (+-)I one exponent beyond the cap, i.e. deeper
    than the truncation can distinguish.
    """
    if type(x) is not tuple:
        raise TypeError("level_of expects a flat 2x2 tuple (a, b, c, d), got %r" % type(x))
    a, b, c, d = x
    det = a * d - b * c
    if det != 1:
        raise ValueError("expected determinant 1, got %d" % det)
    v = _valuation_to_identity(math.gcd(b, c, d - a), a, spec.p, spec.r0 + spec.depth_cap + 1,
                               spec.allow_sign)
    return v - spec.r0 if v >= spec.r0 else -1


def exact_congruence_exponent(x: tuple, p: int, allow_sign: bool, bail: int = 64) -> int:
    """Congruence exponent of a flat 2x2 integer matrix, saturated at bail."""
    a, b, c, d = x
    return _valuation_to_identity(math.gcd(b, c, d - a), a, p, bail, allow_sign)


def congruence_basis(p: int, q: int) -> dict:
    """The three determinant-one integer matrices generating depth p^q:
    upper and lower unipotents with offdiagonal p^q, and the mixed one with
    diagonal 1 +- p^q."""
    t = p ** q
    return {
        "A": IntMat(((1, t), (0, 1))),
        "B": IntMat(((1, 0), (t, 1))),
        "C": IntMat(((1 + t, t), (-t, 1 - t))),
    }


def flat_congruence_basis(p: int, q: int) -> list:
    """``congruence_basis(p, q)`` as flat (a, b, c, d) tuples, in the order
    A, B, C."""
    return [_flat(m) for m in congruence_basis(p, q).values()]


# --- finite quotients -------------------------------------------------------

def _scalar_subgroup(p, i, j):
    """Scalars lam = 1 + p^i mu with lam^2 = 1 mod p^j (the central scalars
    living inside the enumerated kernel).  Trivial for odd p."""
    pi_, pj = p ** i, p ** j
    return tuple(
        lam for mu in range(p ** (j - i)) if ((lam := (1 + pi_ * mu) % pj) * lam) % pj == 1
    )


class QuotientTable:
    """The finite quotient between congruence levels p^i and p^j.

    Elements are canonical flat 2x2 tuples mod p^j of matrices I + p^i N
    with determinant 1 mod p^j; when there are central scalars besides 1
    (the pgamma family at p = 2) the constructor normalizes each element
    across their classes, which identifies the sign ambiguity of the
    quotient.

    The group invariants are computed once per table and kept: the
    exponent, the greedy generators, the abelianization data behind d(G),
    and d(G) itself.
    """

    def __init__(self, p, i, j, family, elements, scalars):
        self.p = p
        self.i = i
        self.j = j
        self.family = family
        self.m = p ** j
        self.scalars = scalars
        self._one_scalar = len(scalars) == 1
        if not self._one_scalar:
            elements = {self.canon(e) for e in elements}
        self.elements = tuple(sorted(elements))
        self._members = frozenset(self.elements)
        self.identity = self.canon(_FLAT_ID)
        self._d = None
        self._exponent = None
        self._gens = None
        self._abelian_quotient = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def canon(self, flat):
        if self._one_scalar:
            return flat
        m = self.m
        return min(tuple((lam * e) % m for e in flat) for lam in self.scalars)

    def mul(self, x, y):
        if self._one_scalar:
            return _flat_mul(x, y, self.m)
        return self.canon(_flat_mul(x, y, self.m))

    def inv(self, x):
        return self.canon(_flat_inv(x, self.m))

    def power(self, x, k):
        # canon is a class function: the scalars are central with square 1
        return self.canon(_flat_pow(x, k, self.m))

    def __contains__(self, flat):
        return self.canon(flat) in self._members

    def exponent(self) -> int:
        """The largest element order.  Orders are p-powers, so an element
        x != 1 has order p * order(x^p): one p-th power per element, with
        the orders shared across the whole table."""
        if self._exponent is None:
            p, bound = self.p, self.order
            orders = {self.identity: 1}
            for x in self.elements:
                chain = []
                while x not in orders:
                    chain.append(x)
                    if p ** len(chain) > bound:
                        raise NotPGroup("element order is not a p-power")
                    x = self.power(x, p)
                k = orders[x]
                for y in reversed(chain):
                    k *= p
                    orders[y] = k
            self._exponent = max(orders.values())
        return self._exponent

    def is_p_group(self) -> bool:
        n = self.order
        while n % self.p == 0:
            n //= self.p
        return n == 1

    def is_abelian(self) -> bool:
        gens = self.greedy_generators()
        return all(
            self.mul(a, b) == self.mul(b, a) for a in gens for b in gens
        )

    def is_elementary_abelian(self) -> bool:
        return self.is_abelian() and self.exponent() == self.p

    # -- subgroup machinery (desk scale: plain closures over element sets) --

    def _adjoin(self, sub, x, gens):
        """Grow ``sub``, the subgroup generated by ``gens`` without its last
        entry x, in place into <sub, x>.

        The coset sub*x is new; expanding only the new elements by every
        generator then closes the set under right multiplication, which in
        a finite group is the generated subgroup.
        """
        mul = self.mul
        frontier = [mul(h, x) for h in sub]
        sub.update(frontier)
        while frontier:
            y = frontier.pop()
            for g in gens:
                z = mul(y, g)
                if z not in sub:
                    sub.add(z)
                    frontier.append(z)

    def _closure(self, gens):
        sub = {self.identity}
        used = []
        for g in gens:
            g = self.canon(g)
            if g not in sub:
                used.append(g)
                self._adjoin(sub, g, used)
        return sub

    def greedy_generators(self):
        """The first elements (in sorted order) outside the subgroup the
        earlier ones generate, until they generate the table; each pick
        grows that subgroup incrementally.  Computed once per table."""
        if self._gens is None:
            gens = []
            sub = {self.identity}
            for x in self.elements:
                if len(sub) == self.order:
                    break
                if x not in sub:
                    gens.append(x)
                    self._adjoin(sub, x, gens)
            self._gens = tuple(gens)
        return list(self._gens)

    def _commutator_subgroup(self, gens):
        """[G, G] for G = <gens>: the normal closure of the commutators of
        the generators.  A subgroup is normal once the conjugates of its own
        generators by every generator of G lie in it, so only those are
        tested."""
        mul, inv = self.mul, self.inv
        pending = [mul(mul(a, b), mul(inv(a), inv(b))) for a in gens for b in gens]
        sub = {self.identity}
        used = []
        while pending:
            s = pending.pop()
            if s in sub:
                continue
            used.append(s)
            self._adjoin(sub, s, used)
            pending.extend(mul(mul(g, s), inv(g)) for g in gens)
        return sub

    def _abelianization(self):
        """(coset map G -> G/[G, G], sorted coset representatives, sorted
        representatives of the p-th powers), computed once per table."""
        if self._abelian_quotient is None:
            coset = self._coset_map(self._commutator_subgroup(self.greedy_generators()))
            reps = sorted(set(coset.values()))
            # p-th powers in the abelianization form a subgroup
            ppowers = sorted({coset[self.power(r, self.p)] for r in reps})
            self._abelian_quotient = (coset, reps, ppowers)
        return self._abelian_quotient

    def minimal_generators(self) -> int:
        """d(G) = log_p |G / Phi(G)| via the elementary abelian quotient."""
        if self._d is not None:
            return self._d
        if not self.is_p_group():
            raise NotPGroup("order %d is not a power of %d" % (self.order, self.p))
        if self.order == 1:
            self._d = 0
        elif self.is_elementary_abelian():
            self._d = _plog(self.order, self.p)
        else:
            _, reps, ppowers = self._abelianization()
            self._d = _plog(len(reps) // len(ppowers), self.p)
        return self._d

    def _coset_map(self, subgroup):
        sub = sorted(subgroup)
        coset = {}
        for g in self.elements:
            if g in coset:
                continue
            members = [self.mul(g, s) for s in sub]
            rep = min(members)
            for x in members:
                coset[x] = rep
        return coset

    def generating_set(self):
        """A generating set of size exactly d(G) (Burnside basis theorem):
        elements whose images span the elementary abelian quotient G/Phi(G)
        generate G."""
        d = self.minimal_generators()
        if d == 0:
            return []
        coset, reps, ppowers = self._abelianization()

        def amul(r1, r2):
            return coset[self.mul(r1, r2)]

        vmap = {}
        for r in reps:
            if r in vmap:
                continue
            members = [amul(r, s) for s in ppowers]
            rep = min(members)
            for x in members:
                vmap[x] = rep

        def vmul(v1, v2):
            return vmap[amul(v1, v2)]

        def v_of(x):
            return vmap[coset[x]]

        picked = []
        span_v = {v_of(self.identity)}
        for x in self.elements:
            vx = v_of(x)
            if vx not in span_v:
                picked.append(x)
                grown = set(span_v)
                for s in span_v:
                    cur = s
                    for _ in range(self.p - 1):
                        cur = vmul(cur, vx)
                        grown.add(cur)
                span_v = grown
                if len(picked) == d:
                    break
        if len(picked) != d or len(self._closure(picked)) != self.order:
            raise RuntimeError("generating-set extraction failed")  # pragma: no cover
        return picked

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "p": self.p,
            "i": self.i,
            "j": self.j,
            "order": self.order,
            "exponent": self.exponent(),
            "d": self.minimal_generators(),
            "elementary_abelian": self.is_elementary_abelian(),
        }


def _plog(n, p):
    k = 0
    while n > 1:
        if n % p:
            raise NotPGroup("%d is not a power of %d" % (n, p))
        n //= p
        k += 1
    return k


def _check_quotient(p, i, j, family):
    if family not in FAMILIES:
        raise ValueError("family must be one of %s" % (FAMILIES,))
    if not (1 <= i < j):
        raise ValueError("need 1 <= i < j, got i=%d j=%d" % (i, j))
    if not is_prime(p):
        raise ValueError("p must be prime, got %r" % (p,))


def _enumeration_size(p, i, j):
    """The determinant-one triples ``kernel_enumerate`` lists, p^{3(j-i)}."""
    return p ** (3 * (j - i))


def kernel_enumerate(p: int, i: int, j: int, family: str = "pgamma") -> QuotientTable:
    """Enumerate the quotient between congruence levels p^i and p^j.

    Lists every M = I + p^i N (N over Z/p^{j-i}) with det = 1 mod p^j.  The
    corner a = 1 + p^i n is a unit mod p^j, so the determinant fixes
    d = (1 + bc) a^-1: the quotient is exactly the p^{3(j-i)} triples
    (a, b, c), and no candidate is filtered.  For the pgamma family the
    result is normalized across central scalar classes.  Guarded by
    p^{3(j-i)} <= FILTRA_MAX_ENUM (default 10^7), also for tables already
    in the cache.

    Tables answer what the tower certificate does not: the ``quotient``
    command, the pairs ``tower_invariants`` refuses (the pgamma family at
    p = 2), and the constructive generator check of the stability suite's
    small cells.  They are also the oracle the certificate is tested
    against.
    """
    _check_quotient(p, i, j, family)
    work = _enumeration_size(p, i, j)
    limit = enum_guard_limit()
    if work > limit:
        raise GuardError("enumeration size p^{3(j-i)} = %d exceeds guard %d" % (work, limit))
    return _enumerate(p, i, j, family)


@functools.lru_cache(maxsize=64)
def _enumerate(p, i, j, family):
    pi_, pj = p ** i, p ** j
    scalars = _scalar_subgroup(p, i, j) if family == "pgamma" else (1,)
    units = [(a, pow(a, -1, pj)) for a in range(1, pj, pi_)]
    offdiag = range(0, pj, pi_)
    raw = [(a, b, c, (1 + b * c) * ainv % pj) for a, ainv in units for b in offdiag for c in offdiag]
    return QuotientTable(p, i, j, family, raw, scalars)


def clear_table_cache() -> None:
    """Forget every quotient table ``kernel_enumerate`` has computed."""
    _enumerate.cache_clear()


def table_invariants(p: int, i: int, j: int, family: str = "pgamma") -> dict:
    """The fields ``tower_invariants`` returns, read off the enumerated
    table (``kernel_enumerate``, so guarded)."""
    table = kernel_enumerate(p, i, j, family)
    return dict(table.to_dict(), p_group=table.is_p_group())


def _layer_coords(x, p, q):
    """(N01, N10, N00) mod p for x = I + p^q N, or None when x is not I
    mod p^q.

    For q >= 1 this reads the layer Gamma(p^q)/Gamma(p^{q+1}) as F_p^3
    without loss: det(x) = 1 forces N11 = -N00 mod p, so the kernel is
    exactly Gamma(p^{q+1}), and (I + p^q A)(I + p^q B) = I + p^q (A + B)
    mod p^{q+1} makes it additive.
    """
    pq = p ** q
    a, b, c, d = x
    if (a - 1) % pq or b % pq or c % pq or (d - 1) % pq:
        return None
    return (b // pq % p, c // pq % p, (a - 1) // pq % p)


def tower_invariants(p: int, i: int, j: int, family: str = "pgamma"):
    """The invariants of the quotient G between congruence levels p^i and
    p^j, certified on the graded tower instead of enumerated, or None when
    a step of the certificate fails.

    Returns exactly the fields of ``QuotientTable.to_dict()`` plus
    ``p_group``.  The lifts of the layer-i basis are
    ``flat_congruence_basis(p, i)`` mod p^j, and each step is an exact
    check on O(j - i) flat products mod p^j:

    1. the lifts have determinant 1 and the layer map ``_layer_coords`` is
       additive on them at level i, so G maps onto F_p^3 and d(G) >= 3;
    2. for q = i, ..., j - 1 the p^{q-i}-th powers of the lifts have
       coordinates forming a basis of layer q.  The subgroup H the lifts
       generate then meets every layer in all of it, so
       |H| >= p^{3(j-i)} >= |G|: H = G, |G| = p^{3(j-i)} and d(G) <= 3;
    3. (I + p^q N)^p = I mod p^{q+1} by the binomial theorem, so the
       exponent is at most p^{j-i}, and the order of the lift of A,
       measured with ``exact_congruence_exponent``, must attain it.

    The pgamma quotient at p = 2 identifies central scalar classes (there
    is always one besides 1, such as 1 + 2^{j-1}), so its layers are not the
    layers read here and the answer is None; at odd p it is the gamma
    quotient.
    """
    _check_quotient(p, i, j, family)
    if family == "pgamma" and p == 2:
        return None
    m = p ** j
    lifts = [tuple(e % m for e in g) for g in flat_congruence_basis(p, i)]
    if any((a * d - b * c) % m != 1 for a, b, c, d in lifts):
        return None
    # 1. the layer map at level i is additive on the lifts
    coords = [_layer_coords(x, p, i) for x in lifts]
    if None in coords:
        return None
    for x, cx in zip(lifts, coords):
        for y, cy in zip(lifts, coords):
            if _layer_coords(_flat_mul(x, y, m), p, i) != tuple((u + v) % p for u, v in zip(cx, cy)):
                return None
    # 2. the p-th power map carries a basis of each layer onto the next one
    powers = lifts
    for q in range(i, j):
        basis = [_layer_coords(x, p, q) for x in powers]
        if None in basis or _det_cofactor(basis) % p == 0:
            return None
        powers = [_flat_pow(x, p, m) for x in powers]
    # 3. the lift of A has the largest order the power map allows
    top = p ** (j - i)
    x, order = lifts[0], 1
    while exact_congruence_exponent(x, p, False, j) < j:
        if order == top:
            return None
        x, order = _flat_pow(x, p, m), order * p
    if order != top:
        return None
    return {
        "family": family,
        "p": p,
        "i": i,
        "j": j,
        "order": _enumeration_size(p, i, j),
        "exponent": top,
        "d": 3,
        "elementary_abelian": top == p,
        "p_group": True,
    }


def check_p_congruence(spec: FiltrationSpec, j_max: int, bound_e: int,
                       sample_count: int = 60, seed: int = 2715) -> dict:
    """Verify the finite p-group and bounded-generation conditions.

    For every 0 <= i < j <= j_max the quotient between levels i and j must
    be a finite p-group with d <= bound_e.  Each pair is answered by the
    tower certificate (``tower_invariants``) where it applies, at any
    depth and without building a table; the pairs it refuses are
    enumerated (``table_invariants``, under the enumeration guard).  Both
    fill the same fields with the same values.  Additionally a seeded
    sample of generator words is checked for consistency between the
    truncated level_of and the exact congruence exponent (no element
    shallower than the cap may report cap + 1).

    The result's ``stats`` entry counts the certified and enumerated pairs
    and sets the largest enumeration against the guard; it describes the
    run, not the group, and the CLI reports it under ``timings``.
    """
    pairs = []
    enumerated = []
    ok = True
    for i in range(j_max):
        for j in range(i + 1, j_max + 1):
            lo, hi = spec.exponent(i), spec.exponent(j)
            entry = tower_invariants(spec.p, lo, hi, spec.family)
            if entry is None:
                entry = table_invariants(spec.p, lo, hi, spec.family)
                enumerated.append(_enumeration_size(spec.p, lo, hi))
            entry["levels"] = [i, j]
            entry["d_le_e"] = entry["d"] <= bound_e
            entry["pass"] = entry["p_group"] and entry["d_le_e"]
            ok = ok and entry["pass"]
            pairs.append(entry)

    rng = random.Random("pcongruence:%d:%s:%d" % (spec.p, spec.family, seed))
    gens = [m for lv in range(spec.depth_cap + 1)
            for m in flat_congruence_basis(spec.p, spec.exponent(lv))]
    gens += [_flat_inv_z(m) for m in gens]
    truncation_failures = []
    for _ in range(sample_count):
        w = random_element(gens, _flat_mul_z, rng, 6)
        exact = exact_congruence_exponent(w, spec.p, spec.allow_sign)
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
        "stats": {
            "pairs_certified": len(pairs) - len(enumerated),
            "pairs_enumerated": len(enumerated),
            "largest_enumeration": max(enumerated, default=0),
            "guard": enum_guard_limit(),
        },
    }
