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

Closed forms for inverse, conjugation, and commutator are provided and are
cross-checked against first-principles products: ``_LAWS`` is the table of
those laws, which ``verify_holomorph_identities`` checks on samples.  It is
the one place the closed forms are checked; the stability suite takes
``semi_conj`` and ``semi_comm`` as given and checks levels only.

The identity checks draw their words with ``filtration.WordSampler``, the
package's one seeded word sampler, and split their samples over processes
as ``split`` describes: a unit is one sample, a process builds only the
samples it owns, and the per-law failure counts of the shares are summed.
"""

from __future__ import annotations

import operator
import random
from abc import ABC, abstractmethod
from collections import namedtuple
from dataclasses import dataclass

from .exactmat import _FLAT_ID, NonInvertible, _flat_inv_z, _flat_mul_z, _sign_normal
from .filtration import WordSampler
from .split import run_split

#: The largest ``holomorph-identities --count``.  Memory stays flat and time
#: grows linearly: at this bound, from the CLI in process on 2 processes
#: (2 shared vCPUs, medians of 3 runs), the congruence backend (p = 3) took
#: 0.40 s and the free backend 1.23 s, peaking at 17 and 20 MB RSS in the
#: parent (14 and 17 MB in the child).
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


def _inverse_formula(act, a, b, c):
    """a a^-1 = a^-1 a = 1 for a^-1 from ``semi_inv``."""
    e, ainv = semi_id(act), semi_inv(a, act)
    return semi_eq(semi_mul(a, ainv, act), e, act) and semi_eq(semi_mul(ainv, a, act), e, act)


def _conjugation_by_inverse(act, a, b, c):
    """(f, 1)^-1 (1, y) (f, 1) = (1, f^-1(y)) for a = (f, x), b = (g, y)."""
    f_only = SemiElem(a.f, act.pi.identity)
    lhs = semi_mul(semi_mul(semi_inv(f_only, act), SemiElem(act.gamma.identity, b.x), act), f_only, act)
    return semi_eq(lhs, SemiElem(act.gamma.identity, act.apply(act.gamma.inv(a.f), b.x)), act)


def _inclusion_hom(act, a, b, c):
    """(1, x)(1, y) = (1, x y) for a = (f, x), b = (g, y)."""
    one = act.gamma.identity
    incl = semi_mul(SemiElem(one, a.x), SemiElem(one, b.x), act)
    return semi_eq(incl, SemiElem(one, act.pi.mul(a.x, b.x)), act)


#: The laws each sample (a, b, c) is checked on, by name: the four closed forms
#: against products built from semi_mul/semi_inv alone, associativity, and the
#: two structural homomorphisms (projection to Gamma, inclusion of pi).
_LAWS = {
    "inverse_formula": _inverse_formula,
    "conjugation_by_inverse": _conjugation_by_inverse,
    "conjugation_closed_form": lambda act, a, b, c: semi_eq(semi_conj(a, b, act), conj_via_mul(a, b, act), act),
    "commutator_closed_form": lambda act, a, b, c: semi_eq(semi_comm(a, b, act), comm_via_mul(a, b, act), act),
    "associativity": lambda act, a, b, c: semi_eq(semi_mul(semi_mul(a, b, act), c, act),
                                                  semi_mul(a, semi_mul(b, c, act), act), act),
    "projection_hom": lambda act, a, b, c: act.gamma.eq(semi_mul(a, b, act).f, act.gamma.mul(a.f, b.f)),
    "inclusion_hom": _inclusion_hom,
}


def verify_holomorph_identities(act, gamma_gens, pi_gens, count, seed, radius, stats=None):
    """Count the failures of each law of ``_LAWS`` on ``count`` seeded
    samples, split over processes as ``split`` describes: every process
    makes every sample's draws, in order, and builds and checks only its
    own; for another's it only advances the samplers' stream.  ``stats``,
    when given, gets ``samples_drawn``, the words the samplers built summed
    over the processes (six a sample), and ``processes``, their number."""
    gamma, pi = act.gamma, act.pi
    gamma_alphabet = list(gamma_gens) + [gamma.inv(g) for g in gamma_gens]
    pi_alphabet = list(pi_gens) + [pi.inv(x) for x in pi_gens]
    laws = list(_LAWS.values())

    def run(mine):
        rng = random.Random("holomorph:%s" % seed)
        gamma_words = WordSampler(gamma_alphabet, gamma.mul, radius)
        pi_words = WordSampler(pi_alphabet, pi.mul, radius)
        failures = [0] * len(laws)
        for sample in range(count):
            if not mine(sample):
                gamma_words.advance(rng, 2)
                pi_words.advance(rng, 2)
                gamma_words.advance(rng, 1)
                pi_words.advance(rng, 1)
                continue
            (f, _), (g, _) = gamma_words.draw(rng, 2)
            (x, _), (y, _) = pi_words.draw(rng, 2)
            [(h, _)], [(z, _)] = gamma_words.draw(rng, 1), pi_words.draw(rng, 1)
            a, b, c = SemiElem(f, x), SemiElem(g, y), SemiElem(h, z)
            for k, law in enumerate(laws):
                failures[k] += not law(act, a, b, c)
        return failures, gamma_words.drawn + pi_words.drawn

    results, processes = run_split(run, count)
    shares, drawn = zip(*results)
    if stats is not None:
        stats["samples_drawn"] = sum(drawn)
        stats["processes"] = processes
    failures = dict(zip(_LAWS, map(sum, zip(*shares))))
    return {
        "samples": count,
        "checks": [{"id": name, "failures": n, "pass": n == 0} for name, n in failures.items()],
        "ok": not any(failures.values()),
    }
