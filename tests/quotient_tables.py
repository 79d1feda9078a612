"""Complete enumeration of the finite congruence quotients: the test oracle
the tower certificate (``filtra.filtration.tower_invariants``) is checked
against.  No ``filtra`` module imports this one, and no command builds a
table.

The quotient between levels p^i and p^j (i >= 1) is enumerated on its
determinant-one locus: a = 1 + p^i n is a unit mod p^j, so d = (1 + bc) a^-1
is forced and the table is exactly the p^{3(j-i)} triples (a, b, c).  The
enumeration guard counts those triples.  Table elements are flat 2x2
tuples mod p^j.

Minimal generator counts use the Burnside basis theorem: for a finite
p-group G, elements generate G exactly when their images span G / Phi(G),
where Phi(G) = G^p [G, G].  Each table computes Phi once, by explicit
closure at the enumeration sizes guarded here: one incremental greedy
generator search (every pick grows the subgroup found so far instead of
closing it again from the identity), the derived subgroup of those
generators, then their p-th powers and the picks of the generating set
adjoined coset by coset.  d(G), the generating set and
``elementary_abelian`` all read that one computation, and element orders
are memoised across the table by order(x) = p * order(x^p).
"""

from __future__ import annotations

import functools

from filtra.exactmat import _FLAT_ID, _flat_inv, _flat_mul, _flat_pow
from filtra.filtration import GuardError, _check_quotient, _enumeration_size, _scalar_subgroup, enum_guard_limit


class NotPGroup(ValueError):
    pass


class QuotientTable:
    """The finite quotient between congruence levels p^i and p^j.

    Elements are canonical flat 2x2 tuples mod p^j of matrices I + p^i N
    with determinant 1 mod p^j; when there are central scalars besides 1
    (the pgamma family at p = 2) the constructor normalizes each element
    across their classes, which identifies the sign ambiguity of the
    quotient.

    The group invariants are computed once per table and kept: the
    exponent, the greedy generators, and the order of the Frattini subgroup
    with the generating set picked over it, which give d(G) and
    ``elementary_abelian``.
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
        self.identity = self.canon(_FLAT_ID)
        self._exponent = None
        self._gens = None
        self._frattini = None

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

    def is_elementary_abelian(self) -> bool:
        """A nontrivial group with Phi(G) = 1."""
        return self._frattini_basis()[0] == 1 < self.order

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

    def _adjoin_cosets(self, sub, x):
        """Grow ``sub`` in place into <sub, x> for a subgroup normalised by
        x: that is the union of the cosets sub * x^k, added until x^k lies
        in sub."""
        mul = self.mul
        layer = list(sub)
        y = x
        while y not in sub:
            layer = [mul(h, x) for h in layer]
            sub.update(layer)
            y = mul(y, x)

    def _frattini_basis(self):
        """(|Phi(G)|, picks), computed once per table.

        Phi(G) = G^p [G, G] is the derived subgroup of the greedy
        generators with their p-th powers adjoined: G / [G, G] is abelian
        and generated by their images, so its p-th powers are generated by
        theirs.  The picks are the first elements in sorted order outside
        the subgroup that Phi and the earlier picks generate, until they
        generate G; by the Burnside basis theorem they form a minimal
        generating set.  Every subgroup containing [G, G] is normal, so
        each adjoin is a union of cosets, and a pick at index p completes G
        without expanding it.
        """
        if self._frattini is None:
            if not self.is_p_group():
                raise NotPGroup("order %d is not a power of %d" % (self.order, self.p))
            gens = self.greedy_generators()
            sub = self._commutator_subgroup(gens)
            for g in gens:
                self._adjoin_cosets(sub, self.power(g, self.p))
            phi = len(sub)
            picks = []
            for x in self.elements:
                if x not in sub:
                    picks.append(x)
                    if len(sub) * self.p == self.order:
                        break
                    self._adjoin_cosets(sub, x)
            self._frattini = (phi, tuple(picks))
        return self._frattini

    def minimal_generators(self) -> int:
        """d(G) = log_p |G / Phi(G)|, the size of the generating set."""
        return len(self._frattini_basis()[1])

    def generating_set(self):
        """A generating set of size exactly d(G) (Burnside basis theorem):
        elements whose images span the elementary abelian quotient G/Phi(G)
        generate G."""
        picked = list(self._frattini_basis()[1])
        if len(self._closure(picked)) != self.order:
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


def kernel_enumerate(p: int, i: int, j: int, family: str = "pgamma") -> QuotientTable:
    """Enumerate the quotient between congruence levels p^i and p^j.

    Lists every M = I + p^i N (N over Z/p^{j-i}) with det = 1 mod p^j.  The
    corner a = 1 + p^i n is a unit mod p^j, so the determinant fixes
    d = (1 + bc) a^-1: the quotient is exactly the p^{3(j-i)} triples
    (a, b, c), and no candidate is filtered.  For the pgamma family the
    result is normalized across central scalar classes.  Guarded by
    p^{3(j-i)} <= FILTRA_MAX_ENUM (default 10^7, ``enum_guard_limit``), also
    for tables already in the cache.
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
