"""Empirical stability and Lie-like checks for filtered split extensions.

An ``ExtensionSpec`` packages a classified action together with level
functions and per-level generator lists for both sides.  The checks sample
words in the level generators and verify the quantified conditions on each
sample, always measuring levels with ``level_of``-style functions rather
than trusting the nominal sampling level; required output levels are
saturated at one past the truncation cap, which is the strongest statement
a truncated filtration can certify.

Every failure is recorded as a serialized counterexample (element texts,
required and observed levels) that ``replay_failure`` re-verifies from
scratch.  These are certificates of empirical stability over the sampled
sets, never proofs: the quantifiers in the definitions range over infinite
groups.

Two extensions ship here:

- ``congruence_extension``: the determinant-one congruence chain at
  exponents s0, s0+1, ... acting by conjugation on the sign-class chain at
  exponents r0, r0+1, ...; every check passes (and is expected to).
- ``poison_extension``: the rank-2 group of automorphisms of F_3 fixing
  a_1, a_2 and multiplying a_3 by a_1 or a_2, with lower-central-series
  levels truncated at class 2 on F_3.  Its action is nontrivial on
  homology, and the depth-compatibility condition fails; the failing
  samples are the point of the fixture.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .exactmat import IntMat, _flat_inv, _flat_mul, format_matrix, parse_matrix
from .filtration import TOP, FiltrationSpec, congruence_basis, kernel_enumerate, level_of
from .freegroup import Word, format_word, lcs_depth2, parse_word, poison_action
from .holomorph import (
    FreeGroupAction,
    MatrixConjugation,
    SemiElem,
    comm_via_mul,
    conj_via_mul,
    semi_comm,
    semi_conj,
    semi_eq,
    semi_mul,
)


def level_to_json(level):
    return "top" if level is TOP else level


def level_from_json(value):
    return TOP if value == "top" else value


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


@dataclass
class ExtensionSpec:
    """A filtered split extension with samplers for both sides."""

    name: str
    act: object
    gamma_level: object
    pi_level: object
    gamma_gens: object           # level -> list of Gamma elements
    pi_gens: object              # level -> list of pi elements
    gamma_cap: int
    pi_cap: int
    radius: int = 6
    gamma_text: object = str
    pi_text: object = str
    gamma_parse: object = None
    pi_parse: object = None
    quotient_tables: object = None   # (r, s) -> (gamma QuotientTable, pi QuotientTable)
    constructive_meta: dict = field(default_factory=dict)


def congruence_extension(p: int, r0: int = 1, s0: int = 1, cap: int = 4,
                         radius: int = 6) -> ExtensionSpec:
    """Conjugation of the exponent-(s0+j) chain on the sign-class
    exponent-(r0+j) chain, with generator triples at every level."""
    gamma_spec = FiltrationSpec("gamma", p, s0, cap)
    pi_spec = FiltrationSpec("pgamma", p, r0, cap)
    act = MatrixConjugation(IntMat.identity(2), IntMat.identity(2), psl_pi=True)

    def gamma_gens(level):
        basis = congruence_basis(p, s0 + level)
        return [basis["A"], basis["B"], basis["C"]]

    def pi_gens(level):
        basis = congruence_basis(p, r0 + level)
        return [basis["A"], basis["B"], basis["C"]]

    def tables(r, s):
        if s < 1:
            return None
        return (
            kernel_enumerate(p, s0 + r, s0 + r + s, "gamma"),
            kernel_enumerate(p, r0 + r, r0 + r + s, "pgamma"),
        )

    return ExtensionSpec(
        name="congruence(p=%d,r0=%d,s0=%d)" % (p, r0, s0),
        act=act,
        gamma_level=lambda f: level_of(f, gamma_spec),
        pi_level=lambda x: level_of(x, pi_spec),
        gamma_gens=gamma_gens,
        pi_gens=pi_gens,
        gamma_cap=cap,
        pi_cap=cap,
        radius=radius,
        gamma_text=format_matrix,
        pi_text=format_matrix,
        gamma_parse=parse_matrix,
        pi_parse=parse_matrix,
        quotient_tables=tables,
        constructive_meta={"p": p, "r0": r0, "s0": s0},
    )


_GAMMA_NAMES = ["phi1", "phi2"]
_PI_NAMES = ["a1", "a2", "a3"]


def poison_extension(radius: int = 6) -> ExtensionSpec:
    """The contrast fixture: lower-central-series levels truncated at
    class 2 on F_3, and on the rank-2 side the central series with the
    whole group sitting at levels 0 and 1 (so the two generators measure
    level 1, mirroring how the congruence chain pairs its indices)."""
    pairs = poison_action()
    act = FreeGroupAction(2, 3, pairs)

    def gamma_level(w: Word):
        # levels: F_0 = F_1 = whole group, F_2 = commutator subgroup,
        # top = third lower central subgroup and deeper
        depth = lcs_depth2(w)
        if w.is_identity() or depth >= 3:
            return TOP
        return depth

    def pi_level(w: Word):
        # L_0 = F_3, L_1 = commutator subgroup, top = class >= 3
        depth = lcs_depth2(w)
        if w.is_identity() or depth >= 3:
            return TOP
        return depth - 1

    phi1 = Word.generator(2, 1)
    phi2 = Word.generator(2, 2)
    comm_gamma = phi1 * phi2 * phi1.inverse() * phi2.inverse()

    def gamma_gens(level):
        if level <= 1:
            return [phi1, phi2]
        if level == 2:
            return [comm_gamma]
        raise ValueError("no generator list at level %d" % level)

    a = [Word.generator(3, i) for i in (1, 2, 3)]
    pi_comms = [u * v * u.inverse() * v.inverse() for u, v in ((a[0], a[1]), (a[0], a[2]), (a[1], a[2]))]

    def pi_gens(level):
        if level == 0:
            return list(a)
        if level == 1:
            return pi_comms
        raise ValueError("no generator list at level %d" % level)

    return ExtensionSpec(
        name="poison",
        act=act,
        gamma_level=gamma_level,
        pi_level=pi_level,
        gamma_gens=gamma_gens,
        pi_gens=pi_gens,
        gamma_cap=2,
        pi_cap=1,
        radius=radius,
        gamma_text=lambda w: format_word(w, _GAMMA_NAMES),
        pi_text=lambda w: format_word(w, _PI_NAMES),
        gamma_parse=lambda text: parse_word(text, 2, _GAMMA_NAMES),
        pi_parse=lambda text: parse_word(text, 3, _PI_NAMES),
    )


def sample_level(ext: ExtensionSpec, side: str, level: int, count: int, rng) -> list:
    """Elements of measured level >= level: the identity first, then words
    of length <= radius in the level generators and their inverses."""
    if side == "gamma":
        gens, mul, inv, ident, measure = (
            ext.gamma_gens(level), ext.act.gamma_mul, ext.act.gamma_inv, ext.act.gamma_id(), ext.gamma_level,
        )
    elif side == "pi":
        gens, mul, inv, ident, measure = (
            ext.pi_gens(level), ext.act.pi_mul, ext.act.pi_inv, ext.act.pi_id(), ext.pi_level,
        )
    else:
        raise ValueError("side must be 'gamma' or 'pi'")
    if not gens:
        raise ValueError("empty generator list at level %d" % level)
    alphabet = list(gens) + [inv(g) for g in gens]
    out = [ident]
    while len(out) < count:
        w = ident
        for _ in range(rng.randint(1, ext.radius)):
            w = mul(w, rng.choice(alphabet))
        out.append(w)
    for w in out:
        if measure(w) < level:
            raise RuntimeError("sampler produced an element below its level")  # pragma: no cover
    return out[:count]


def _cell_rng(ext, check, seed, r, s):
    return random.Random("%s|%s|%s|%d|%d" % (ext.name, check, seed, r, s))


def _pi_req(ext, *levels):
    return min(*levels, ext.pi_cap + 1)


def _gamma_req(ext, *levels):
    return min(*levels, ext.gamma_cap + 1)


# --- sample evaluators (shared between the checks and replay) ---------------

def _eval_stable_condition1(ext, elems):
    act = ext.act
    f, g, y = elems["f"], elems["g"], elems["y"]
    required = _pi_req(ext, ext.gamma_level(g), ext.pi_level(y))
    observed = ext.pi_level(act.apply(f, y))
    return observed >= required, {"required": required, "observed": observed}


def _eval_stable_condition2(ext, elems):
    act = ext.act
    g, x, y = elems["g"], elems["x"], elems["y"]
    required = _pi_req(ext, ext.gamma_level(g), ext.pi_level(y))
    expr = act.pi_mul(act.apply(act.gamma_inv(g), x), act.pi_inv(x))
    observed = ext.pi_level(expr)
    return observed >= required, {"required": required, "observed": observed}


def _eval_twist_biconditional(ext, elems):
    act = ext.act
    g, x, y = elems["g"], elems["x"], elems["y"]
    required = _pi_req(ext, ext.gamma_level(g), ext.pi_level(y))
    forward = ext.pi_level(act.pi_mul(act.apply(g, x), act.pi_inv(x)))
    backward = ext.pi_level(act.pi_mul(act.apply(act.gamma_inv(g), x), act.pi_inv(x)))
    ok = (forward >= required) == (backward >= required)
    return ok, {"required": required, "forward": forward, "backward": backward}


def _eval_closure(ext, elems):
    act = ext.act
    a = SemiElem(elems["f"], elems["x"])
    b = SemiElem(elems["g"], elems["y"])
    level = min(
        ext.gamma_level(a.f), ext.pi_level(a.x), ext.gamma_level(b.f), ext.pi_level(b.x)
    )
    prod = semi_mul(a, b, act)
    got_gamma = ext.gamma_level(prod.f)
    got_pi = ext.pi_level(prod.x)
    ok = got_gamma >= _gamma_req(ext, level) and got_pi >= _pi_req(ext, level)
    return ok, {"required": level, "gamma": got_gamma, "pi": got_pi}


def _eval_normality(ext, elems):
    """Conjugating a depth-(r+s) pair by a depth-r pair stays at depth r+s,
    decomposed into the six intermediate steps of the subgroup argument."""
    act = ext.act
    f, x, g, y = elems["f"], elems["x"], elems["g"], elems["y"]
    t = min(ext.gamma_level(g), ext.pi_level(y))
    greq = _gamma_req(ext, t)
    preq = _pi_req(ext, t)
    gi = act.gamma_inv(g)
    fx_twist = act.apply(f, act.pi_mul(act.apply(gi, x), y))
    fx_tail = act.apply(f, act.pi_inv(x))
    lhs = act.pi_mul(fx_twist, fx_tail)
    part1 = act.apply(f, act.apply(gi, x))
    part2 = act.apply(f, y)
    part3 = act.apply(f, act.pi_inv(x))
    steps = {}
    steps["s1_gamma_conj"] = ext.gamma_level(
        act.gamma_mul(act.gamma_mul(f, g), act.gamma_inv(f))
    ) >= greq
    steps["s2_action_hom"] = act.pi_eq(lhs, act.pi_mul(act.pi_mul(part1, part2), part3))
    steps["s3_twist_pair"] = ext.pi_level(act.pi_mul(part1, part3)) >= preq
    steps["s4_f_of_y"] = ext.pi_level(part2) >= preq
    steps["s5_conjugated_y"] = ext.pi_level(
        act.pi_mul(act.pi_mul(act.apply(f, x), part2), part3)
    ) >= preq
    recombined = act.pi_mul(
        act.pi_mul(part1, part3),
        act.pi_mul(act.pi_mul(act.apply(f, x), part2), part3),
    )
    steps["s6_recombination"] = act.pi_eq(act.pi_mul(act.pi_mul(part1, part2), part3), recombined)
    conj = semi_conj(SemiElem(f, x), SemiElem(g, y), act)
    steps["s7_conj_in_subgroup"] = (
        ext.gamma_level(conj.f) >= greq and ext.pi_level(conj.x) >= preq
    )
    steps["s8_closed_form_agrees"] = semi_eq(
        conj, conj_via_mul(SemiElem(f, x), SemiElem(g, y), act), act
    )
    return all(steps.values()), {"required": t, "steps": steps}


def _eval_stably_lie_like_gamma(ext, elems):
    act = ext.act
    f, g = elems["f"], elems["g"]
    required = _gamma_req(ext, ext.gamma_level(f) + ext.gamma_level(g))
    observed = ext.gamma_level(act.gamma_comm(f, g))
    return observed >= required, {"required": required, "observed": observed}


def _eval_stably_lie_like_mixed(ext, elems):
    act = ext.act
    f, x, g, y = elems["f"], elems["x"], elems["g"], elems["y"]
    required = _pi_req(ext, ext.pi_level(x), ext.pi_level(y))
    observed = ext.pi_level(act.apply(f, act.pi_mul(x, act.apply(g, y))))
    return observed >= required, {"required": required, "observed": observed}


def _eval_stably_lie_like_pi(ext, elems):
    act = ext.act
    x, y = elems["x"], elems["y"]
    required = _pi_req(ext, ext.pi_level(x) + ext.pi_level(y))
    observed = ext.pi_level(act.pi_comm(x, y))
    return observed >= required, {"required": required, "observed": observed}


def _eval_g_lie_like(ext, elems):
    act = ext.act
    a = SemiElem(elems["f"], elems["x"])
    b = SemiElem(elems["g"], elems["y"])
    ta = min(ext.gamma_level(a.f), ext.pi_level(a.x))
    tb = min(ext.gamma_level(b.f), ext.pi_level(b.x))
    comm = semi_comm(a, b, act)
    got_gamma = ext.gamma_level(comm.f)
    got_pi = ext.pi_level(comm.x)
    ok = (
        got_gamma >= _gamma_req(ext, ta + tb)
        and got_pi >= _pi_req(ext, ta + tb)
        and semi_eq(comm, comm_via_mul(a, b, act), act)
    )
    return ok, {"required": ta + tb, "gamma": got_gamma, "pi": got_pi}


_EVALS = {
    "stable_condition1": _eval_stable_condition1,
    "stable_condition2": _eval_stable_condition2,
    "twist_biconditional": _eval_twist_biconditional,
    "product_closure": _eval_closure,
    "product_normality": _eval_normality,
    "stably_lie_like_gamma": _eval_stably_lie_like_gamma,
    "stably_lie_like_mixed": _eval_stably_lie_like_mixed,
    "stably_lie_like_pi": _eval_stably_lie_like_pi,
    "g_lie_like_commutator": _eval_g_lie_like,
}

_ELEMENT_SIDES = {"f": "gamma", "g": "gamma", "x": "pi", "y": "pi"}


def _record_failure(report, ext, kind, cell, elems, detail):
    entry = {"kind": kind, "cell": list(cell), "elements": {}, "detail": _jsonify(detail)}
    for key, value in elems.items():
        text = ext.gamma_text(value) if _ELEMENT_SIDES[key] == "gamma" else ext.pi_text(value)
        entry["elements"][key] = text
    report.failures.append(entry)


def _jsonify(value):
    if value is TOP:
        return "top"
    if isinstance(value, float):
        return "top" if value == TOP else value
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def replay_failure(ext: ExtensionSpec, failure: dict) -> bool:
    """Re-parse a serialized counterexample and confirm it still violates
    its condition.  Returns True when the failure reproduces."""
    elems = {}
    for key, text in failure["elements"].items():
        parse = ext.gamma_parse if _ELEMENT_SIDES[key] == "gamma" else ext.pi_parse
        elems[key] = parse(text)
    ok, _ = _EVALS[failure["kind"]](ext, elems)
    return not ok


def _cells(r_max, s_max, cap):
    return [(r, s) for r in range(r_max + 1) for s in range(s_max + 1) if r + s <= cap]


def _sample_cap(ext):
    return min(ext.gamma_cap, ext.pi_cap)


def check_stable(ext: ExtensionSpec, r_max: int, s_max: int, count: int, seed=0) -> CheckReport:
    """Depth compatibility of the action: for (f, x) at measured level r and
    (g, y) at measured level t >= r, f(y) and g^-1(x) x^-1 must sit at
    level >= t."""
    report = CheckReport("stable")
    for r, s in _cells(r_max, s_max, _sample_cap(ext)):
        rng = _cell_rng(ext, "stable", seed, r, s)
        fs = sample_level(ext, "gamma", r, count, rng)
        xs = sample_level(ext, "pi", r, count, rng)
        gs = sample_level(ext, "gamma", r + s, count, rng)
        ys = sample_level(ext, "pi", r + s, count, rng)
        for f, x, g, y in zip(fs, xs, gs, ys):
            elems = {"f": f, "x": x, "g": g, "y": y}
            report.samples += 1
            ok1, detail1 = _eval_stable_condition1(ext, elems)
            if not ok1:
                _record_failure(report, ext, "stable_condition1", (r, s), elems, detail1)
            ok2, detail2 = _eval_stable_condition2(ext, elems)
            if not ok2:
                _record_failure(report, ext, "stable_condition2", (r, s), elems, detail2)
    return report


def check_twist_equivalence(ext: ExtensionSpec, count: int, seed=0,
                            r_max: int = None, s_max: int = None) -> CheckReport:
    """The two phrasings of depth compatibility for the twist condition are
    equivalent on every sample: g(x) differs from x by depth t iff
    g^-1(x) does."""
    cap = _sample_cap(ext)
    r_max = cap if r_max is None else r_max
    s_max = cap if s_max is None else s_max
    report = CheckReport("twist_equivalence")
    for r, s in _cells(r_max, s_max, cap):
        rng = _cell_rng(ext, "twist_eq", seed, r, s)
        xs = sample_level(ext, "pi", r, count, rng)
        gs = sample_level(ext, "gamma", r + s, count, rng)
        ys = sample_level(ext, "pi", r + s, count, rng)
        for x, g, y in zip(xs, gs, ys):
            elems = {"x": x, "g": g, "y": y}
            report.samples += 1
            ok, detail = _eval_twist_biconditional(ext, elems)
            if not ok:
                _record_failure(report, ext, "twist_biconditional", (r, s), elems, detail)
    return report


def product_filtration_check(ext: ExtensionSpec, r: int, s: int, count: int, seed=0,
                             constructive_limit: int = 10 ** 5) -> CheckReport:
    """The product filtration at (r, s): closure of the level-(r+s) pairs,
    normality of depth r+s under conjugation by depth r (with the six-step
    decomposition checked), and the c+d generator bound on the finite
    quotient."""
    from .filtration import GuardError

    if r < 0 or s < 0 or r + s > _sample_cap(ext):
        raise GuardError("cell (%d,%d) exceeds the depth cap %d" % (r, s, _sample_cap(ext)))
    report = CheckReport("product_filtration[%d,%d]" % (r, s))
    rng = _cell_rng(ext, "product", seed, r, s)
    deep_f = sample_level(ext, "gamma", r + s, count, rng)
    deep_x = sample_level(ext, "pi", r + s, count, rng)
    deep_g = sample_level(ext, "gamma", r + s, count, rng)
    deep_y = sample_level(ext, "pi", r + s, count, rng)
    for f, x, g, y in zip(deep_f, deep_x, deep_g, deep_y):
        elems = {"f": f, "x": x, "g": g, "y": y}
        report.samples += 1
        ok, detail = _eval_closure(ext, elems)
        if not ok:
            _record_failure(report, ext, "product_closure", (r, s), elems, detail)
    outer_f = sample_level(ext, "gamma", r, count, rng)
    outer_x = sample_level(ext, "pi", r, count, rng)
    inner_g = sample_level(ext, "gamma", r + s, count, rng)
    inner_y = sample_level(ext, "pi", r + s, count, rng)
    for f, x, g, y in zip(outer_f, outer_x, inner_g, inner_y):
        elems = {"f": f, "x": x, "g": g, "y": y}
        report.samples += 1
        ok, detail = _eval_normality(ext, elems)
        if not ok:
            _record_failure(report, ext, "product_normality", (r, s), elems, detail)
    bound = _generator_bound(ext, r, s, constructive_limit)
    if bound is not None:
        report.meta["generator_bound"] = bound
        if not bound.get("pass", True):
            report.failures.append({"kind": "generator_bound", "cell": [r, s],
                                    "elements": {}, "detail": bound})
    return report


def _generator_bound(ext, r, s, limit):
    if ext.quotient_tables is None:
        return None
    tables = ext.quotient_tables(r, s)
    if tables is None:
        return None
    gamma_table, pi_table = tables
    c = gamma_table.minimal_generators()
    d = pi_table.minimal_generators()
    out = {
        "c": c,
        "d": d,
        "bound": c + d,
        "gamma_order": gamma_table.order,
        "pi_order": pi_table.order,
    }
    total = gamma_table.order * pi_table.order
    if total > limit or gamma_table.modulus.m < pi_table.modulus.m:
        out["constructive"] = None
        return out
    mp = pi_table.modulus.m
    gens = [(u, pi_table.identity) for u in gamma_table.generating_set()]
    gens += [(gamma_table.identity, v) for v in pi_table.generating_set()]

    def pair_mul(a, b):
        u1, v1 = a
        u2, v2 = b
        u2red = tuple(e % mp for e in u2)
        twisted = _flat_mul(_flat_mul(_flat_inv(u2red, mp), v1, mp), u2red, mp)
        return (gamma_table.mul(u1, u2), pi_table.mul(pi_table.canon(twisted), v2))

    seen = {(gamma_table.identity, pi_table.identity)}
    frontier = list(seen)
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = pair_mul(cur, g)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    out["constructive"] = {"generators_used": len(gens), "generated": len(seen), "target": total}
    out["pass"] = len(seen) == total
    return out


def check_stably_lie_like(ext: ExtensionSpec, r_max: int, s_max: int, count: int, seed=0) -> CheckReport:
    """Bracket compatibility: commutators on the Gamma side add levels, the
    mixed expression f(x * g(y)) with both inner elements at depth r+s stays
    at depth r+s, and commutators on the pi side add levels."""
    report = CheckReport("stably_lie_like")
    for r, s in _cells(r_max, s_max, _sample_cap(ext)):
        rng = _cell_rng(ext, "stably_lie_like", seed, r, s)
        fs = sample_level(ext, "gamma", r, count, rng)
        gs = sample_level(ext, "gamma", s, count, rng)
        xs = sample_level(ext, "pi", r + s, count, rng)
        ys = sample_level(ext, "pi", r + s, count, rng)
        xr = sample_level(ext, "pi", r, count, rng)
        ys_s = sample_level(ext, "pi", s, count, rng)
        for f, g, x, y, xa, yb in zip(fs, gs, xs, ys, xr, ys_s):
            report.samples += 1
            elems = {"f": f, "g": g}
            ok, detail = _eval_stably_lie_like_gamma(ext, elems)
            if not ok:
                _record_failure(report, ext, "stably_lie_like_gamma", (r, s), elems, detail)
            elems = {"f": f, "x": x, "g": g, "y": y}
            ok, detail = _eval_stably_lie_like_mixed(ext, elems)
            if not ok:
                _record_failure(report, ext, "stably_lie_like_mixed", (r, s), elems, detail)
            elems = {"x": xa, "y": yb}
            ok, detail = _eval_stably_lie_like_pi(ext, elems)
            if not ok:
                _record_failure(report, ext, "stably_lie_like_pi", (r, s), elems, detail)
    return report


def check_G_lie_like(ext: ExtensionSpec, r_max: int, s_max: int, count: int, seed=0) -> CheckReport:
    """Commutators of pairs add levels in the product filtration: for
    a at measured level ta and b at tb, both components of [a, b] sit at
    level >= ta + tb (saturated at the caps); the closed form is also
    cross-checked against the four-factor product on every sample."""
    report = CheckReport("G_lie_like")
    for r, s in _cells(r_max, s_max, _sample_cap(ext)):
        rng = _cell_rng(ext, "g_lie_like", seed, r, s)
        fs = sample_level(ext, "gamma", r, count, rng)
        xs = sample_level(ext, "pi", r, count, rng)
        gs = sample_level(ext, "gamma", s, count, rng)
        ys = sample_level(ext, "pi", s, count, rng)
        for f, x, g, y in zip(fs, xs, gs, ys):
            elems = {"f": f, "x": x, "g": g, "y": y}
            report.samples += 1
            ok, detail = _eval_g_lie_like(ext, elems)
            if not ok:
                _record_failure(report, ext, "g_lie_like_commutator", (r, s), elems, detail)
    return report


def run_congruence_suite(p: int, r0: int, s0: int, r_max: int, s_max: int,
                         count: int = 500, seed=42,
                         constructive_limit: int = 10 ** 5):
    """All five checks on the congruence extension, over the cells
    r <= r_max, s <= s_max, r + s <= max(r_max, s_max); returns (reports, ok)."""
    ext = congruence_extension(p, r0, s0, cap=max(r_max, s_max))
    reports = [
        check_stable(ext, r_max, s_max, count, seed),
        check_twist_equivalence(ext, count, seed, r_max, s_max),
    ]
    for r, s in _cells(r_max, s_max, _sample_cap(ext)):
        reports.append(product_filtration_check(ext, r, s, count, seed, constructive_limit))
    reports.append(check_stably_lie_like(ext, r_max, s_max, count, seed))
    reports.append(check_G_lie_like(ext, r_max, s_max, count, seed))
    return reports, all(rep.ok for rep in reports)


def run_poison_suite(count: int = 200, seed=1):
    """The contrast fixture: the depth-compatibility check is expected to
    fail on its twist condition while the two-phrasing equivalence holds on
    every sample.  Returns (reports, ok) where ok means 'behaved as a
    counterexample', i.e. the run carries replayable twist failures."""
    ext = poison_extension()
    stable = check_stable(ext, 1, 1, count, seed)
    lemma = check_twist_equivalence(ext, count, seed, 1, 1)
    reports = [stable, lemma]
    return reports, all(rep.ok for rep in reports)
