"""Empirical stability and Lie-like checks for filtered split extensions.

An ``ExtensionSpec`` packages a classified action (whose ``gamma`` and
``pi`` are ``holomorph.Group`` values) with one ``Side`` for each of Gamma
and pi: its level function, per-level generator lists, depth cap, and the
text form and parser of its elements.  Code that works on either side
looks it up by name, so each operation is written once.  The checks sample
words in the level generators and verify the quantified conditions on each
sample, always measuring levels with ``level_of``-style functions rather
than trusting the nominal sampling level.  The checks are one table: each
is a list of phases, which name their draws (role, which fixes the side,
and level a*r + b*s) and the failure kinds evaluated on every tuple of
them, run by one loop over the cells, and ``_KINDS`` maps each kind to
its evaluator for that loop and for ``replay_failure`` alike.  The
sampler measures each element once and hands the evaluators (element,
level) pairs; ``replay_failure`` measures the elements it parses afresh.
A level is an int in [-1, cap + 1], where cap + 1 means deeper than the
truncation; required output levels saturate at cap + 1, which is the
strongest statement a truncated filtration can certify.

The checks test levels only: they take ``semi_mul``, ``semi_conj`` and
``semi_comm`` as given, as they take ``apply``, and ``holomorph._LAWS`` is
the one place their closed forms are checked.

Every failure is recorded as a serialized counterexample (element texts,
required and observed levels) that ``replay_failure`` re-verifies from
scratch.  These are certificates of empirical stability over the sampled
sets, never proofs: the quantifiers in the definitions range over infinite
groups.

``sample_level`` draws its words with ``filtration.WordSampler``, the
package's one seeded word sampler.  An ``ExtensionSpec`` keeps one sampler,
and so one table of short words with their measured levels, per (side,
level), so every check of a run reuses the products and levels of the
words it has drawn before.

Two fixtures ship here, each named once as an entry of ``EXAMPLES``, which
``run_suite`` runs by its ``--example`` name:

- ``congruence``: the determinant-one congruence chain at exponents s0,
  s0+1, ... acting by conjugation on the sign-class chain at exponents r0,
  r0+1, ...; every check passes (and is expected to).  Its elements are
  flat (a, b, c, d) tuples over Z, multiplied and inverted by the
  closed-form kernel of ``exactmat``; their text form is the matrix
  literal ``"a,b;c,d"``, and parsing it back refuses anything but a 2x2
  matrix of determinant 1.
- ``poison``: the rank-2 group of automorphisms of F_3 fixing a_1, a_2 and
  multiplying a_3 by a_1 or a_2, with lower-central-series levels
  truncated at class 2 on F_3.  Its action is nontrivial on homology, and
  the depth-compatibility check fails on its twist condition while its
  two phrasings agree; the failing samples are the point of the fixture.
"""

from __future__ import annotations

import random
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import combinations
from operator import itemgetter

from .exactmat import _parse_flat_sl2, format_matrix
from .filtration import (
    MAX_RADIUS, FiltrationSpec, GuardError, WordSampler, check_tower_depth, flat_congruence_basis, level_of,
    tower_invariants,
)
from .holomorph import FreeGroupAction, MatrixConjugation, SemiElem, semi_comm, semi_conj, semi_mul

#: The largest product order whose generator bound carries a
#: ``constructive`` block.
CONSTRUCTIVE_LIMIT = 10 ** 5

#: The largest ``stability --count``.  ``sample_level`` holds each draw's
#: whole column, so memory grows with the count as well as time.  At this
#: bound the default congruence suite (p = 3, r, s <= 3) took 12.1 s and
#: peaked at 24.4 MB RSS (17.8 MB at the default 500), and the poison suite
#: 2.3 s and 29.7 MB with a 1.2 MB report; 10^7 would hold about 14 GB
#: (extrapolated, not run).
MAX_SAMPLE_COUNT = 5000


@dataclass
class CheckReport:
    """Outcome of one quantified condition over its sampled cells."""

    condition: str
    samples: int = 0
    failures: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def verdict(self) -> str:
        return "pass" if self.ok else "fail"

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "samples": self.samples,
            "failures": self.failures,
            "verdict": self.verdict,
            **({"meta": self.meta} if self.meta else {}),
        }


@dataclass(frozen=True)
class Side:
    """One filtered side of the extension: its level function, generator
    lists and depth cap, and the text form of its elements."""

    level: object
    gens: object                 # level -> list of elements
    cap: int
    text: object
    parse: object


@dataclass
class ExtensionSpec:
    """A filtered split extension: an action and its two filtered sides,
    with samplers for both."""

    name: str
    act: object
    gamma: Side
    pi: Side
    quotients: object = None         # (r, s) -> ((p, i, j, family) of Gamma, of pi) or None
    # (side, level) -> WordSampler, made by the first sample_level call
    samplers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def sampler_stats(self) -> dict:
        """Words drawn by ``sample_level`` so far, and how many of them the
        samplers' tables answered whole."""
        samplers = self.samplers.values()
        return {"samples_drawn": sum(s.drawn for s in samplers),
                "short_word_hits": sum(s.hits for s in samplers)}


def congruence_extension(p: int, r0: int, s0: int, cap: int) -> ExtensionSpec:
    """Conjugation of the exponent-(s0+j) chain on the sign-class
    exponent-(r0+j) chain, with generator triples at every level."""
    def side(family, base):
        spec = FiltrationSpec(family, p, base, cap)
        return Side(level=lambda el: level_of(el, spec),
                    gens=lambda level: flat_congruence_basis(p, base + level),
                    cap=cap, text=format_matrix, parse=_parse_flat_sl2)

    def quotients(r, s):
        if s < 1:
            return None
        return (p, s0 + r, s0 + r + s, "gamma"), (p, r0 + r, r0 + r + s, "pgamma")

    return ExtensionSpec(
        name="congruence(p=%d,r0=%d,s0=%d)" % (p, r0, s0),
        act=MatrixConjugation(),
        gamma=side("gamma", s0),
        pi=side("pgamma", r0),
        quotients=quotients,
    )


_GAMMA_NAMES = ["phi1", "phi2"]
_PI_NAMES = ["a1", "a2", "a3"]


def poison_extension() -> ExtensionSpec:
    """The contrast fixture: lower-central-series levels truncated at
    class 2 on F_3, and on the rank-2 side the central series with the
    whole group sitting at levels 0 and 1 (so the two generators measure
    level 1, mirroring how the congruence chain pairs its indices)."""
    # imported here, so that the congruence extension runs without freegroup
    from .freegroup import Word, format_word, lcs_depth2, parse_word, poison_action

    def side(names, level, gens, cap):
        return Side(level, gens, cap, text=lambda w: format_word(w, names),
                    parse=lambda text: parse_word(text, len(names), names))

    act = FreeGroupAction(2, 3, poison_action())
    phi = [Word.generator(2, i) for i in (1, 2)]
    a = [Word.generator(3, i) for i in (1, 2, 3)]
    return ExtensionSpec(
        name="poison",
        act=act,
        # levels: F_0 = F_1 = whole group, F_2 = commutator subgroup,
        # 3 = cap + 1 = third lower central subgroup and deeper
        gamma=side(_GAMMA_NAMES, lcs_depth2, {0: phi, 1: phi, 2: [act.gamma.comm(*phi)]}.get, 2),
        # L_0 = F_3, L_1 = commutator subgroup, 2 = cap + 1 = class >= 3
        pi=side(_PI_NAMES, lambda w: lcs_depth2(w) - 1,
                {0: a, 1: [act.pi.comm(u, v) for u, v in combinations(a, 2)]}.get, 1),
    )


def sample_level(ext: ExtensionSpec, side: str, level: int, count: int, rng) -> list:
    """(element, measured level) pairs with level >= ``level``: the
    identity first, then words of length <= ``MAX_RADIUS`` in the level
    generators and their inverses.  Each element is measured once, both to
    guard against an element below its level and for the evaluators to use;
    the spec's sampler for (side, level) keeps the short words' levels."""
    if side not in ("gamma", "pi"):
        raise ValueError("side must be 'gamma' or 'pi'")
    group, spec = getattr(ext.act, side), getattr(ext, side)
    sampler = ext.samplers.get((side, level))
    if sampler is None:
        gens = spec.gens(level)
        if not gens:
            raise ValueError("no generator list at level %d" % level)
        sampler = ext.samplers[side, level] = WordSampler(
            list(gens) + [group.inv(g) for g in gens], group.mul, MAX_RADIUS, spec.level)
    if count < 1:
        return []
    pairs = [(group.identity, spec.level(group.identity))] + sampler.draw(rng, count - 1)
    for _, got in pairs:
        if got < level:
            raise RuntimeError("sampler produced an element below its level")  # pragma: no cover
    return pairs


def _req(side, *levels):
    """The lowest of ``levels``, saturated at ``side``'s cap + 1."""
    return min(*levels, side.cap + 1)


def _reaches(observed, required):
    return observed >= required, {"required": required, "observed": observed}


# --- sample evaluators (shared between the checks and replay) ---------------
#
# Each evaluator takes ``elems``, the (element, measured level) pairs of its
# kind's roles in the order ``_KINDS`` lists them ("f", "g" on the Gamma
# side, "x", "y" on the pi side), and measures only the elements it derives.

def _twist_level(ext, g, x):
    """The level of g(x) x^-1."""
    pi = ext.act.pi
    return ext.pi.level(pi.mul(ext.act.apply(g, x), pi.inv(x)))


def _eval_stable_condition1(ext, elems):
    (f, _), _, (_, lg), (y, ly) = elems
    return _reaches(ext.pi.level(ext.act.apply(f, y)), _req(ext.pi, lg, ly))


def _eval_stable_condition2(ext, elems):
    _, (x, _), (g, lg), (_, ly) = elems
    return _reaches(_twist_level(ext, ext.act.gamma.inv(g), x), _req(ext.pi, lg, ly))


def _eval_action_hom(ext, elems):
    """Gamma acts by a homomorphism: (f g)(y) = f(g(y))."""
    act = ext.act
    (f, _), (g, _), (y, _) = elems
    return act.pi.eq(act.apply(act.gamma.mul(f, g), y), act.apply(f, act.apply(g, y))), {}


def _eval_twist_biconditional(ext, elems):
    (x, _), (g, lg), (_, ly) = elems
    required = _req(ext.pi, lg, ly)
    forward = _twist_level(ext, g, x)
    backward = _twist_level(ext, ext.act.gamma.inv(g), x)
    ok = (forward >= required) == (backward >= required)
    return ok, {"required": required, "forward": forward, "backward": backward}


def _eval_closure(ext, elems):
    (f, lf), (x, lx), (g, lg), (y, ly) = elems
    level = min(lf, lx, lg, ly)
    prod = semi_mul(SemiElem(f, x), SemiElem(g, y), ext.act)
    got_gamma = ext.gamma.level(prod.f)
    got_pi = ext.pi.level(prod.x)
    ok = got_gamma >= _req(ext.gamma, level) and got_pi >= _req(ext.pi, level)
    return ok, {"required": level, "gamma": got_gamma, "pi": got_pi}


def _eval_normality(ext, elems):
    """Conjugating a depth-(r+s) pair by a depth-r pair stays at depth r+s,
    decomposed into the six intermediate steps of the subgroup argument."""
    act = ext.act
    gamma, pi, apply = act.gamma, act.pi, act.apply
    (f, _), (x, _), (g, lg), (y, ly) = elems
    t = min(lg, ly)
    greq = _req(ext.gamma, t)
    preq = _req(ext.pi, t)
    conj = semi_conj(SemiElem(f, x), SemiElem(g, y), act)
    conj_level = ext.gamma.level(conj.f)
    part1 = apply(f, apply(gamma.inv(g), x))
    part2 = apply(f, y)
    part3 = apply(f, pi.inv(x))
    parts = pi.mul(pi.mul(part1, part2), part3)
    twist_pair = pi.mul(part1, part3)
    conjugated_y = pi.mul(pi.mul(apply(f, x), part2), part3)
    steps = {
        "s1_gamma_conj": conj_level >= greq,
        "s2_action_hom": pi.eq(conj.x, parts),
        "s3_twist_pair": ext.pi.level(twist_pair) >= preq,
        "s4_f_of_y": ext.pi.level(part2) >= preq,
        "s5_conjugated_y": ext.pi.level(conjugated_y) >= preq,
        "s6_recombination": pi.eq(parts, pi.mul(twist_pair, conjugated_y)),
        "s7_conj_in_subgroup": conj_level >= greq and ext.pi.level(conj.x) >= preq,
    }
    return all(steps.values()), {"required": t, "steps": steps}


def _eval_stably_lie_like_gamma(ext, elems):
    (f, lf), (g, lg) = elems
    return _reaches(ext.gamma.level(ext.act.gamma.comm(f, g)), _req(ext.gamma, lf + lg))


def _eval_stably_lie_like_mixed(ext, elems):
    act = ext.act
    (f, _), (x, lx), (g, _), (y, ly) = elems
    return _reaches(ext.pi.level(act.apply(f, act.pi.mul(x, act.apply(g, y)))), _req(ext.pi, lx, ly))


def _eval_stably_lie_like_pi(ext, elems):
    (x, lx), (y, ly) = elems
    return _reaches(ext.pi.level(ext.act.pi.comm(x, y)), _req(ext.pi, lx + ly))


def _eval_g_lie_like(ext, elems):
    act = ext.act
    (f, lf), (x, lx), (g, lg), (y, ly) = elems
    level = min(lf, lx) + min(lg, ly)
    comm = semi_comm(SemiElem(f, x), SemiElem(g, y), act)
    got_gamma = ext.gamma.level(comm.f)
    got_pi = ext.pi.level(comm.x)
    ok = got_gamma >= _req(ext.gamma, level) and got_pi >= _req(ext.pi, level)
    return ok, {"required": level, "gamma": got_gamma, "pi": got_pi}


_FXGY = ("f", "x", "g", "y")

#: kind -> (evaluator, roles).  The roles name the draws the evaluator
#: takes, in order, and give the element keys of a recorded failure.  A
#: role is its name's first letter: a longer name picks a phase's second
#: draw of the same role.
_KINDS = {
    "stable_condition1": (_eval_stable_condition1, _FXGY),
    "stable_condition2": (_eval_stable_condition2, _FXGY),
    "action_hom": (_eval_action_hom, ("f", "g", "y")),
    "twist_biconditional": (_eval_twist_biconditional, ("x", "g", "y")),
    "product_closure": (_eval_closure, _FXGY),
    "product_normality": (_eval_normality, _FXGY),
    "stably_lie_like_gamma": (_eval_stably_lie_like_gamma, ("f", "g")),
    "stably_lie_like_mixed": (_eval_stably_lie_like_mixed, _FXGY),
    "stably_lie_like_pi": (_eval_stably_lie_like_pi, ("xr", "ys")),
    "g_lie_like_commutator": (_eval_g_lie_like, _FXGY),
}

#: role -> the side its elements are drawn from, printed with and parsed on
_ELEMENT_SIDES = {"f": "gamma", "g": "gamma", "x": "pi", "y": "pi"}


def _record_failure(report, ext, kind, cell, roles, elems, detail):
    texts = {name[0]: getattr(ext, _ELEMENT_SIDES[name[0]]).text(value)
             for name, (value, _) in zip(roles, elems)}
    report.failures.append({"kind": kind, "cell": list(cell), "elements": texts, "detail": detail})


def replay_failure(ext: ExtensionSpec, failure: dict) -> bool:
    """Re-parse a serialized counterexample and confirm it still violates
    its condition.  Returns True when the failure reproduces.  The parsed
    elements are measured from scratch.  An unknown kind or role, or a
    role the kind reads that the failure does not name, raises
    ``ValueError``; so does an element text the side cannot parse."""
    kind = failure["kind"]
    if kind not in _KINDS:
        raise ValueError("unknown failure kind %r" % (kind,))
    parsed = {}
    for role, text in failure["elements"].items():
        if role not in _ELEMENT_SIDES:
            raise ValueError("unknown role %r in a %s failure" % (role, kind))
        side = getattr(ext, _ELEMENT_SIDES[role])
        value = side.parse(text)
        parsed[role] = (value, side.level(value))
    evaluate, roles = _KINDS[kind]
    missing = sorted({name[0] for name in roles} - parsed.keys())
    if missing:
        raise ValueError("a %s failure needs element %s" % (kind, ", ".join(missing)))
    ok, _ = evaluate(ext, tuple(parsed[name[0]] for name in roles))
    return not ok


# --- the checks as data -------------------------------------------------------
#
# A check is a list of phases (draws, kinds).  Each draw (name, a, b) takes
# ``count`` samples at level a*r + b*s on the side ``_ELEMENT_SIDES`` gives
# its role, the name's first letter; the draws run in
# the order listed, which fixes the cell's RNG stream and so every payload.
# Each kind is then evaluated on every tuple of the phase's draws, and each
# tuple counts as one sample.

#: (f, x) at level r and (g, y) at level r + s
_OUTER_INNER = (("f", 1, 0), ("x", 1, 0), ("g", 1, 1), ("y", 1, 1))

_STABLE = [(_OUTER_INNER, ("stable_condition1", "stable_condition2", "action_hom"))]
_TWIST = [(_OUTER_INNER[1:], ("twist_biconditional",))]
_PRODUCT = [
    ((("f", 1, 1), ("x", 1, 1), ("g", 1, 1), ("y", 1, 1)), ("product_closure",)),
    (_OUTER_INNER, ("product_normality",)),
]
_STABLY_LIE_LIKE = [(
    (("f", 1, 0), ("g", 0, 1), ("x", 1, 1), ("y", 1, 1), ("xr", 1, 0), ("ys", 0, 1)),
    ("stably_lie_like_gamma", "stably_lie_like_mixed", "stably_lie_like_pi"),
)]
_G_LIE_LIKE = [(
    (("f", 1, 0), ("x", 1, 0), ("g", 0, 1), ("y", 0, 1)),
    ("g_lie_like_commutator",),
)]


def _run_cells(ext, report, label, cells, phases, count, seed):
    """Run ``phases`` on every cell (r, s) of ``cells``, with the cell's RNG
    seeded by ``label``, and add their samples and failures to ``report``."""
    for r, s in cells:
        rng = random.Random("%s|%s|%s|%d|%d" % (ext.name, label, seed, r, s))
        for draws, kinds in phases:
            names = [name for name, _, _ in draws]
            columns = [sample_level(ext, _ELEMENT_SIDES[name[0]], a * r + b * s, count, rng) for name, a, b in draws]
            runs = [(kind, evaluate, roles, itemgetter(*map(names.index, roles)))
                    for kind in kinds for evaluate, roles in [_KINDS[kind]]]
            for sample in zip(*columns):
                report.samples += 1
                for kind, evaluate, roles, pick in runs:
                    elems = pick(sample)
                    ok, detail = evaluate(ext, elems)
                    if not ok:
                        _record_failure(report, ext, kind, (r, s), roles, elems, detail)
    return report


def _sample_cap(ext):
    return min(ext.gamma.cap, ext.pi.cap)


def _cells(ext, r_max, s_max):
    return [(r, s) for r in range(r_max + 1) for s in range(s_max + 1) if r + s <= _sample_cap(ext)]


def check_stable(ext: ExtensionSpec, r_max: int, s_max: int, count: int, seed) -> CheckReport:
    """Depth compatibility of the action: for (f, x) at measured level r and
    (g, y) at measured level t >= r, f(y) and g^-1(x) x^-1 must sit at
    level >= t.  The same samples check that Gamma acts by a homomorphism,
    (f g)(y) = f(g(y)), which the level conditions cannot see."""
    return _run_cells(ext, CheckReport("stable"), "stable", _cells(ext, r_max, s_max), _STABLE, count, seed)


def check_twist_equivalence(ext: ExtensionSpec, r_max: int, s_max: int, count: int, seed) -> CheckReport:
    """The two phrasings of depth compatibility for the twist condition are
    equivalent on every sample: g(x) differs from x by depth t iff
    g^-1(x) does."""
    cells = _cells(ext, r_max, s_max)
    return _run_cells(ext, CheckReport("twist_equivalence"), "twist_eq", cells, _TWIST, count, seed)


def product_filtration_check(ext: ExtensionSpec, r: int, s: int, count: int, seed) -> CheckReport:
    """The product filtration at (r, s): closure of the level-(r+s) pairs,
    normality of depth r+s under conjugation by depth r (with the six-step
    decomposition checked), and the c+d generator bound on the finite
    quotient."""
    if r < 0 or s < 0 or r + s > _sample_cap(ext):
        raise GuardError("cell (%d,%d) exceeds the depth cap %d" % (r, s, _sample_cap(ext)))
    report = CheckReport("product_filtration[%d,%d]" % (r, s))
    _run_cells(ext, report, "product", [(r, s)], _PRODUCT, count, seed)
    bound = _generator_bound(ext, r, s)
    if bound is not None:
        report.meta["generator_bound"] = bound
    return report


def _generator_bound(ext, r, s):
    """The c + d bound on the cell's two quotients, with c, d and the
    orders from the tower certificate.

    The ``constructive`` block is certified, not enumerated: in the product
    of the two quotients (u, 1)(1, v) = (u, v), and products of pairs
    (u, 1) stay in Gamma x 1, so the c generators of the Gamma quotient and
    the d of the pi quotient together generate all of it.  It is filled
    under the condition the enumerated check used to run on: the product
    order is at most ``CONSTRUCTIVE_LIMIT`` and the Gamma modulus p^j is at
    least the pi modulus.
    """
    if ext.quotients is None:
        return None
    levels = ext.quotients(r, s)
    if levels is None:
        return None
    gamma_q, pi_q = levels
    gamma_quot, pi_quot = (tower_invariants(*q) for q in levels)
    c = gamma_quot["d"]
    d = pi_quot["d"]
    out = {
        "c": c,
        "d": d,
        "bound": c + d,
        "gamma_order": gamma_quot["order"],
        "pi_order": pi_quot["order"],
    }
    total = gamma_quot["order"] * pi_quot["order"]
    # index 2 is j: the Gamma modulus p^j must reach the pi modulus
    if total > CONSTRUCTIVE_LIMIT or gamma_q[2] < pi_q[2]:
        out["constructive"] = None
        return out
    out["constructive"] = {"generators_used": c + d, "generated": total, "target": total}
    out["pass"] = True
    return out


def check_stably_lie_like(ext: ExtensionSpec, r_max: int, s_max: int, count: int, seed) -> CheckReport:
    """Bracket compatibility: commutators on the Gamma side add levels, the
    mixed expression f(x * g(y)) with both inner elements at depth r+s stays
    at depth r+s, and commutators on the pi side add levels."""
    cells = _cells(ext, r_max, s_max)
    return _run_cells(ext, CheckReport("stably_lie_like"), "stably_lie_like", cells, _STABLY_LIE_LIKE, count, seed)


def check_G_lie_like(ext: ExtensionSpec, r_max: int, s_max: int, count: int, seed) -> CheckReport:
    """Commutators of pairs add levels in the product filtration: for
    a at measured level ta and b at tb, both components of [a, b] sit at
    level >= ta + tb (saturated at the caps).  The closed form of [a, b]
    is taken as given; ``holomorph._LAWS`` checks it."""
    cells = _cells(ext, r_max, s_max)
    return _run_cells(ext, CheckReport("G_lie_like"), "g_lie_like", cells, _G_LIE_LIKE, count, seed)


def _all_checks(ext, r_max, s_max, count, seed):
    return [
        check_stable(ext, r_max, s_max, count, seed),
        check_twist_equivalence(ext, r_max, s_max, count, seed),
        *(product_filtration_check(ext, r, s, count, seed) for r, s in _cells(ext, r_max, s_max)),
        check_stably_lie_like(ext, r_max, s_max, count, seed),
        check_G_lie_like(ext, r_max, s_max, count, seed),
    ]


def _congruence(p, r0, s0, rmax, smax):
    if min(rmax, smax) < 0:
        raise ValueError("rmax and smax must be at least 0")
    # level_of reads exponents up to r0 + cap + 1 on the pi side, s0 + cap + 1 on Gamma
    check_tower_depth(p, max(r0, s0) + max(rmax, smax) + 1)
    return congruence_extension(p, r0, s0, cap=max(rmax, smax)), rmax, smax


#: A fixture: ``build(**flags)`` checks its flags (``flags`` maps each to
#: its default) and returns (extension, r_max, s_max), and ``suite`` runs
#: its checks on them, each called by its name when it runs, so that a
#: rebound module global (a tracer) sees it.
Example = namedtuple("Example", "build flags suite radius")

#: The fixtures by ``--example`` name.
EXAMPLES = {
    "congruence": Example(_congruence, {"p": 3, "r0": 1, "s0": 1, "rmax": 3, "smax": 3}, _all_checks, radius=4),
    "poison": Example(lambda: (poison_extension(), 1, 1), {},
                      lambda ext, *run: [check_stable(ext, *run), check_twist_equivalence(ext, *run)], radius=5),
}


def run_suite(name: str, count: int, seed, **flags):
    """Build ``EXAMPLES[name]`` from ``flags``, every flag of the entry, and
    run its suite.  Returns (reports, ok, stats), where ok is true when
    every check passes (so a poison run has ok false) and stats are the
    extension's ``sampler_stats``."""
    example = EXAMPLES[name]
    ext, r_max, s_max = example.build(**flags)
    reports = example.suite(ext, r_max, s_max, count, seed)
    return reports, all(rep.ok for rep in reports), ext.sampler_stats()
