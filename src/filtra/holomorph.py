"""Semidirect-product element arithmetic over a classified action.

A split extension of Gamma by pi is determined by a homomorphism
phi: Gamma -> Aut(pi); elements are pairs (f, x) multiplied by

    (f, x) * (g, y) = (f g, phi(g^-1)(x) * y)

mirroring the product rule of the universal split extension of Aut(pi) by
pi.  ``ActionSpec`` bundles the group operations on both sides together with
``apply(f, x) = phi(f)(x)``; two backends ship here, conjugation inside a
matrix group and word substitution under free-group automorphisms.

Closed forms for inverse, conjugation, and commutator are provided and can
be cross-checked against first-principles products (see
``verify_holomorph_identities``).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass

from .exactmat import _sign_normal
from .freegroup import Word


class BackendMismatch(ValueError):
    pass


class ActionSpec(ABC):
    """Group operations for Gamma and pi plus the action apply(f, x)."""

    gamma_kind = "abstract"
    pi_kind = "abstract"

    @abstractmethod
    def gamma_mul(self, f, g): ...

    @abstractmethod
    def gamma_inv(self, f): ...

    @abstractmethod
    def gamma_id(self): ...

    @abstractmethod
    def pi_mul(self, x, y): ...

    @abstractmethod
    def pi_inv(self, x): ...

    @abstractmethod
    def pi_id(self): ...

    @abstractmethod
    def apply(self, f, x): ...

    # Normal forms used for equality; override when elements are not canonical.
    def gamma_norm(self, f):
        return f

    def pi_norm(self, x):
        return x

    def gamma_eq(self, f, g) -> bool:
        return self.gamma_norm(f) == self.gamma_norm(g)

    def pi_eq(self, x, y) -> bool:
        return self.pi_norm(x) == self.pi_norm(y)

    def gamma_comm(self, f, g):
        return self.gamma_mul(
            self.gamma_mul(self.gamma_mul(f, g), self.gamma_inv(f)), self.gamma_inv(g)
        )

    def pi_comm(self, x, y):
        return self.pi_mul(self.pi_mul(self.pi_mul(x, y), self.pi_inv(x)), self.pi_inv(y))


@dataclass(frozen=True)
class SemiElem:
    """A pair (f, x) with f in Gamma and x in pi."""

    f: object
    x: object


def semi_id(act: ActionSpec) -> SemiElem:
    return SemiElem(act.gamma_id(), act.pi_id())


def semi_mul(a: SemiElem, b: SemiElem, act: ActionSpec) -> SemiElem:
    """(f,x)*(g,y) = (f g, g^-1(x) * y)."""
    twisted = act.apply(act.gamma_inv(b.f), a.x)
    return SemiElem(act.gamma_mul(a.f, b.f), act.pi_mul(twisted, b.x))


def semi_inv(a: SemiElem, act: ActionSpec) -> SemiElem:
    """(f,x)^-1 = (f^-1, f(x^-1))."""
    return SemiElem(act.gamma_inv(a.f), act.apply(a.f, act.pi_inv(a.x)))


def semi_conj(a: SemiElem, b: SemiElem, act: ActionSpec) -> SemiElem:
    """Closed form of a*b*a^-1: (f g f^-1, f(g^-1(x) * y) * f(x^-1))."""
    f, x = a.f, a.x
    g, y = b.f, b.x
    outer = act.gamma_mul(act.gamma_mul(f, g), act.gamma_inv(f))
    inner = act.pi_mul(
        act.apply(f, act.pi_mul(act.apply(act.gamma_inv(g), x), y)),
        act.apply(f, act.pi_inv(x)),
    )
    return SemiElem(outer, inner)


def semi_comm(a: SemiElem, b: SemiElem, act: ActionSpec) -> SemiElem:
    """Closed form of [a,b] = a*b*a^-1*b^-1:
    (f g f^-1 g^-1, g{ f(g^-1(x) * y) * f(x^-1) } * g(y^-1))."""
    f, x = a.f, a.x
    g, y = b.f, b.x
    outer = act.gamma_comm(f, g)
    core = act.pi_mul(
        act.apply(f, act.pi_mul(act.apply(act.gamma_inv(g), x), y)),
        act.apply(f, act.pi_inv(x)),
    )
    inner = act.pi_mul(act.apply(g, core), act.apply(g, act.pi_inv(y)))
    return SemiElem(outer, inner)


def semi_eq(a: SemiElem, b: SemiElem, act: ActionSpec) -> bool:
    return act.gamma_eq(a.f, b.f) and act.pi_eq(a.x, b.x)


def conj_via_mul(a: SemiElem, b: SemiElem, act: ActionSpec) -> SemiElem:
    """a*b*a^-1 built from semi_mul/semi_inv alone."""
    return semi_mul(semi_mul(a, b, act), semi_inv(a, act), act)


def comm_via_mul(a: SemiElem, b: SemiElem, act: ActionSpec) -> SemiElem:
    """a*b*a^-1*b^-1 built from semi_mul/semi_inv alone."""
    return semi_mul(conj_via_mul(a, b, act), semi_inv(b, act), act)


class MatrixConjugation(ActionSpec):
    """A matrix group acting by conjugation on a normal matrix subgroup.

    Works uniformly over IntMat and ModMat elements.  With ``psl_pi`` the
    pi side is compared up to sign (classes in the sign quotient); with
    ``trivial`` the action is the identity (direct product).
    """

    gamma_kind = "matrix"
    pi_kind = "matrix"

    def __init__(self, gamma_identity, pi_identity, psl_pi=False, trivial=False):
        self._gid = gamma_identity
        self._pid = pi_identity
        self.psl_pi = psl_pi
        self.trivial = trivial

    def gamma_mul(self, f, g):
        return f * g

    def gamma_inv(self, f):
        return f.inverse()

    def gamma_id(self):
        return self._gid

    def pi_mul(self, x, y):
        return x * y

    def pi_inv(self, x):
        return x.inverse()

    def pi_id(self):
        return self._pid

    def apply(self, f, x):
        if self.trivial:
            return x
        return f * x * f.inverse()

    def pi_norm(self, x):
        return _sign_normal(x) if self.psl_pi else x


class FreeGroupAction(ActionSpec):
    """A free group Gamma acting on F_n through automorphisms of the
    generators; Gamma elements are rank-``gamma_rank`` words, pi elements
    rank-``pi_rank`` words."""

    gamma_kind = "word"
    pi_kind = "word"

    def __init__(self, gamma_rank, pi_rank, generator_pairs):
        # generator_pairs[i] = (endo, endo_inverse) for Gamma generator i+1
        self.gamma_rank = gamma_rank
        self.pi_rank = pi_rank
        self.pairs = tuple(generator_pairs)
        if len(self.pairs) != gamma_rank:
            raise BackendMismatch("need one endomorphism pair per Gamma generator")

    def gamma_mul(self, f, g):
        return f * g

    def gamma_inv(self, f):
        return f.inverse()

    def gamma_id(self):
        return Word.identity(self.gamma_rank)

    def pi_mul(self, x, y):
        return x * y

    def pi_inv(self, x):
        return x.inverse()

    def pi_id(self):
        return Word.identity(self.pi_rank)

    def apply(self, f, x):
        if f.rank != self.gamma_rank or x.rank != self.pi_rank:
            raise BackendMismatch("word ranks do not match this action")
        # phi(f g) = phi(f) o phi(g), so the rightmost letter acts first
        out = x
        for a in reversed(f.letters):
            endo = self.pairs[abs(a) - 1][0 if a > 0 else 1]
            out = endo.apply(out)
        return out


def random_element(gens, mul, inv, identity, rng, radius):
    """A word of length 1..radius in gens and their inverses."""
    out = identity
    for _ in range(rng.randint(1, radius)):
        g = rng.choice(gens)
        if rng.random() < 0.5:
            g = inv(g)
        out = mul(out, g)
    return out


def verify_holomorph_identities(act, gamma_gens, pi_gens, count, seed, radius=4):
    """Check the four closed-form identities against products built from
    semi_mul/semi_inv alone, on ``count`` seeded samples.

    Also samples associativity and the two structural homomorphisms
    (projection to Gamma, inclusion of pi).  Returns a report dict.
    """
    rng = random.Random("holomorph:%s" % seed)
    names = [
        "inverse_formula",
        "conjugation_by_inverse",
        "conjugation_closed_form",
        "commutator_closed_form",
        "associativity",
        "projection_hom",
        "inclusion_hom",
    ]
    failures = {name: 0 for name in names}

    def g_sample():
        return random_element(gamma_gens, act.gamma_mul, act.gamma_inv, act.gamma_id(), rng, radius)

    def p_sample():
        return random_element(pi_gens, act.pi_mul, act.pi_inv, act.pi_id(), rng, radius)

    for _ in range(count):
        f, g = g_sample(), g_sample()
        x, y = p_sample(), p_sample()
        a = SemiElem(f, x)
        b = SemiElem(g, y)
        e = semi_id(act)

        ainv = semi_inv(a, act)
        if not (semi_eq(semi_mul(a, ainv, act), e, act) and semi_eq(semi_mul(ainv, a, act), e, act)):
            failures["inverse_formula"] += 1

        lhs = semi_mul(semi_mul(semi_inv(SemiElem(f, act.pi_id()), act), SemiElem(act.gamma_id(), y), act),
                       SemiElem(f, act.pi_id()), act)
        rhs = SemiElem(act.gamma_id(), act.apply(act.gamma_inv(f), y))
        if not semi_eq(lhs, rhs, act):
            failures["conjugation_by_inverse"] += 1

        if not semi_eq(semi_conj(a, b, act), conj_via_mul(a, b, act), act):
            failures["conjugation_closed_form"] += 1

        if not semi_eq(semi_comm(a, b, act), comm_via_mul(a, b, act), act):
            failures["commutator_closed_form"] += 1

        c = SemiElem(g_sample(), p_sample())
        if not semi_eq(semi_mul(semi_mul(a, b, act), c, act), semi_mul(a, semi_mul(b, c, act), act), act):
            failures["associativity"] += 1

        prod = semi_mul(a, b, act)
        if not act.gamma_eq(prod.f, act.gamma_mul(a.f, b.f)):
            failures["projection_hom"] += 1

        incl = semi_mul(SemiElem(act.gamma_id(), x), SemiElem(act.gamma_id(), y), act)
        if not semi_eq(incl, SemiElem(act.gamma_id(), act.pi_mul(x, y)), act):
            failures["inclusion_hom"] += 1

    return {
        "samples": count,
        "checks": [{"id": name, "failures": failures[name], "pass": failures[name] == 0} for name in names],
        "ok": all(v == 0 for v in failures.values()),
    }
