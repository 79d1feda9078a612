"""Semidirect-product element arithmetic over a classified action.

A split extension of Gamma by pi is determined by a homomorphism
phi: Gamma -> Aut(pi); elements are pairs (f, x) multiplied by

    (f, x) * (g, y) = (f g, phi(g^-1)(x) * y)

mirroring the product rule of the universal split extension of Aut(pi) by
pi.  A pair is a ``SemiElem``, a named tuple: immutable, compared by
value, and built in about a third of the time of a frozen dataclass, which
counts because the stability checks build tens of thousands of pairs a
run.  A ``Group`` holds one side's product, inverse and identity, and
optionally the normal form its equality compares; commutator and equality
are written once, on ``Group``.  An ``ActionSpec`` is the two groups
``gamma`` and ``pi`` plus its one method ``apply(f, x) = phi(f)(x)``.  Two
backends ship here, conjugation inside SL(2, Z) and word substitution under
free-group automorphisms.  The matrix backend runs on flat (a, b, c, d)
tuples with the closed-form kernel of ``exactmat``, and its pi group
compares up to sign.  The free backend composes phi(f) into one
``EndoSpec`` once per distinct Gamma word (and its prefixes) and keeps it
for the action's lifetime, so each application is one substitution pass.

Closed forms for inverse, conjugation, and commutator are provided and can
be cross-checked against first-principles products (see
``verify_holomorph_identities``).

The identity checks draw their words with ``filtration.WordSampler``, the
package's one seeded word sampler.
"""

from __future__ import annotations

import operator
import random
from abc import ABC, abstractmethod
from collections import namedtuple
from dataclasses import dataclass

from .exactmat import _FLAT_ID, NonInvertible, _flat_inv_z, _flat_mul_z, _sign_normal
from .filtration import WordSampler

#: The largest ``holomorph-identities --count``.  Memory stays flat and time
#: grows linearly: at this bound the congruence backend (p = 3) took 0.81 s
#: and the free backend 2.0 s, peaking at 16 and 21 MB RSS.
MAX_IDENTITY_COUNT = 10 ** 4


class BackendMismatch(ValueError):
    pass


@dataclass(frozen=True)
class Group:
    """A group given by its product, inverse and identity.  ``norm``, when
    given, maps an element to the normal form that equality compares."""

    mul: object
    inv: object
    identity: object
    norm: object = None

    def eq(self, a, b) -> bool:
        norm = self.norm
        return a == b if norm is None else norm(a) == norm(b)

    def comm(self, a, b):
        mul, inv = self.mul, self.inv
        return mul(mul(mul(a, b), inv(a)), inv(b))


class ActionSpec(ABC):
    """Gamma and pi as ``Group``s, plus the action apply(f, x) = phi(f)(x)."""

    gamma: Group
    pi: Group

    @abstractmethod
    def apply(self, f, x): ...


#: A pair (f, x) with f in Gamma and x in pi.
SemiElem = namedtuple("SemiElem", "f x", module=__name__)


def semi_id(act: ActionSpec) -> SemiElem:
    return SemiElem(act.gamma.identity, act.pi.identity)


def semi_mul(a: SemiElem, b: SemiElem, act: ActionSpec) -> SemiElem:
    """(f,x)*(g,y) = (f g, g^-1(x) * y)."""
    twisted = act.apply(act.gamma.inv(b.f), a.x)
    return SemiElem(act.gamma.mul(a.f, b.f), act.pi.mul(twisted, b.x))


def semi_inv(a: SemiElem, act: ActionSpec) -> SemiElem:
    """(f,x)^-1 = (f^-1, f(x^-1))."""
    return SemiElem(act.gamma.inv(a.f), act.apply(a.f, act.pi.inv(a.x)))


def _conj_core(a, b, act):
    """The pi part f(g^-1(x) * y) * f(x^-1) of a*b*a^-1, for a = (f, x) and
    b = (g, y)."""
    pi, apply, f, x = act.pi, act.apply, a.f, a.x
    return pi.mul(apply(f, pi.mul(apply(act.gamma.inv(b.f), x), b.x)), apply(f, pi.inv(x)))


def semi_conj(a: SemiElem, b: SemiElem, act: ActionSpec) -> SemiElem:
    """Closed form of a*b*a^-1: (f g f^-1, f(g^-1(x) * y) * f(x^-1))."""
    gamma = act.gamma
    return SemiElem(gamma.mul(gamma.mul(a.f, b.f), gamma.inv(a.f)), _conj_core(a, b, act))


def semi_comm(a: SemiElem, b: SemiElem, act: ActionSpec) -> SemiElem:
    """Closed form of [a,b] = a*b*a^-1*b^-1:
    (f g f^-1 g^-1, g{ f(g^-1(x) * y) * f(x^-1) } * g(y^-1))."""
    g, pi = b.f, act.pi
    inner = pi.mul(act.apply(g, _conj_core(a, b, act)), act.apply(g, pi.inv(b.x)))
    return SemiElem(act.gamma.comm(a.f, g), inner)


def semi_eq(a: SemiElem, b: SemiElem, act: ActionSpec) -> bool:
    return act.gamma.eq(a.f, b.f) and act.pi.eq(a.x, b.x)


def conj_via_mul(a: SemiElem, b: SemiElem, act: ActionSpec) -> SemiElem:
    """a*b*a^-1 built from semi_mul/semi_inv alone."""
    return semi_mul(semi_mul(a, b, act), semi_inv(a, act), act)


def comm_via_mul(a: SemiElem, b: SemiElem, act: ActionSpec) -> SemiElem:
    """a*b*a^-1*b^-1 built from semi_mul/semi_inv alone."""
    return semi_mul(conj_via_mul(a, b, act), semi_inv(b, act), act)


class MatrixConjugation(ActionSpec):
    """SL(2, Z) acting by conjugation on itself, with the pi side compared
    up to sign (classes in the sign quotient).  Elements are flat
    (a, b, c, d) tuples over Z."""

    gamma = Group(_flat_mul_z, _flat_inv_z, _FLAT_ID)
    pi = Group(_flat_mul_z, _flat_inv_z, _FLAT_ID, norm=_sign_normal)

    def apply(self, f, x):
        """f x f^-1 in one step; f must have determinant 1, as for
        ``_flat_inv_z``."""
        a, b, c, d = f
        e, g, h, k = x
        det = a * d - b * c
        if det != 1:
            raise NonInvertible("expected determinant 1, got %d" % det)
        # f x = (p, q; r, s), times f^-1 = (d, -b; -c, a)
        p, q = a * e + b * h, a * g + b * k
        r, s = c * e + d * h, c * g + d * k
        return (p * d - q * c, q * a - p * b, r * d - s * c, s * a - r * b)


class FreeGroupAction(ActionSpec):
    """A free group Gamma acting on F_n through automorphisms of the
    generators; Gamma elements are rank-``gamma_rank`` words, pi elements
    rank-``pi_rank`` words.

    phi(f) is composed once per distinct Gamma word and kept for the
    action's lifetime, in ``_phi`` keyed by the word's letters, together
    with phi of the word's prefixes; each ``apply`` is then one substitution
    pass over x.  Words are freely reduced, so the composed substitution
    gives the same word as applying the letters' automorphisms one at a
    time."""

    def __init__(self, gamma_rank, pi_rank, generator_pairs):
        # imported here, so that the matrix backend runs without freegroup
        from .freegroup import Word

        # generator_pairs[i] = (endo, endo_inverse) for Gamma generator i+1
        self.ranks = (gamma_rank, pi_rank)
        self.pairs = tuple(generator_pairs)
        if len(self.pairs) != gamma_rank:
            raise BackendMismatch("need one endomorphism pair per Gamma generator")
        self.gamma = Group(operator.mul, Word.inverse, Word.identity(gamma_rank))
        self.pi = Group(operator.mul, Word.inverse, Word.identity(pi_rank))
        self._phi = {}   # f.letters -> phi(f) as one EndoSpec
        for i, (endo, endo_inv) in enumerate(self.pairs, 1):
            self._phi[(i,)], self._phi[(-i,)] = endo, endo_inv

    def apply(self, f, x):
        if (f.rank, x.rank) != self.ranks:
            raise BackendMismatch("word ranks do not match this action")
        letters = f.letters
        if not letters:
            return x
        endo = self._phi.get(letters)
        if endo is None:
            endo = self._compose(letters)
        return endo.apply(x)

    def _compose(self, letters):
        """phi of a word of two or more letters, kept with phi of each of its
        prefixes: phi(w a) = phi(w) o phi(a), so the rightmost letter acts
        first.  Composition starts from the longest prefix already kept;
        the one-letter words are kept from the start."""
        phi = self._phi
        k = len(letters) - 1
        while letters[:k] not in phi:
            k -= 1
        endo = phi[letters[:k]]
        for k in range(k + 1, len(letters) + 1):
            endo = phi[letters[:k]] = endo.compose(phi[letters[k - 1:k]])
        return endo


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
    gamma, pi = act.gamma, act.pi
    gamma_words = WordSampler(list(gamma_gens) + [gamma.inv(g) for g in gamma_gens], gamma.mul, radius)
    pi_words = WordSampler(list(pi_gens) + [pi.inv(x) for x in pi_gens], pi.mul, radius)

    def g_sample():
        return gamma_words.draw(rng, 1)[0][0]

    def p_sample():
        return pi_words.draw(rng, 1)[0][0]

    for _ in range(count):
        f, g = g_sample(), g_sample()
        x, y = p_sample(), p_sample()
        a = SemiElem(f, x)
        b = SemiElem(g, y)
        e = semi_id(act)

        ainv = semi_inv(a, act)
        if not (semi_eq(semi_mul(a, ainv, act), e, act) and semi_eq(semi_mul(ainv, a, act), e, act)):
            failures["inverse_formula"] += 1

        lhs = semi_mul(semi_mul(semi_inv(SemiElem(f, pi.identity), act), SemiElem(gamma.identity, y), act),
                       SemiElem(f, pi.identity), act)
        rhs = SemiElem(gamma.identity, act.apply(gamma.inv(f), y))
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
        if not gamma.eq(prod.f, gamma.mul(a.f, b.f)):
            failures["projection_hom"] += 1

        incl = semi_mul(SemiElem(gamma.identity, x), SemiElem(gamma.identity, y), act)
        if not semi_eq(incl, SemiElem(gamma.identity, pi.mul(x, y)), act):
            failures["inclusion_hom"] += 1

    return {
        "samples": count,
        "checks": [{"id": name, "failures": failures[name], "pass": failures[name] == 0} for name in names],
        "ok": all(v == 0 for v in failures.values()),
    }
