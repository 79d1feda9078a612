import hashlib
import json
import os
import random
import threading
from dataclasses import replace

import pytest

import filtra.split
from filtra.exactmat import MatrixError, parse_matrix
from filtra.freegroup import poison_action
from filtra.filtration import flat_congruence_basis
from filtra.holomorph import FreeGroupAction, Group, MatrixConjugation, verify_holomorph_identities
from filtra.stability import (
    EXAMPLES,
    _G_LIE_LIKE,
    _ELEMENT_SIDES,
    _KINDS,
    _PRODUCT,
    _STABLE,
    _STABLY_LIE_LIKE,
    _TWIST,
    CheckReport,
    _run_cells,
    check_G_lie_like,
    check_twist_equivalence,
    check_stable,
    check_stably_lie_like,
    congruence_extension,
    poison_extension,
    product_filtration_check,
    replay_failure,
    run_suite,
    sample_level,
)

COUNT = 60


@pytest.fixture(scope="module")
def cong():
    return congruence_extension(3, 1, 1, cap=2)


@pytest.fixture(scope="module")
def poison():
    return poison_extension()


def test_sample_level_contract(cong):
    rng = random.Random(0)
    sample = sample_level(cong, "pi", 0, 1, rng)
    assert sample == [(cong.act.pi.identity, cong.pi.cap + 1)]
    assert cong.pi.gens(1)[0] == cong.pi.parse("1,9;0,1")
    for level in (0, 1, 2):
        for side in ("gamma", "pi"):
            measure = getattr(cong, side).level
            for el, measured in sample_level(cong, side, level, 25, random.Random(level)):
                assert measure(el) == measured >= level
    xs = [x for x, _ in sample_level(cong, "pi", 1, 20, random.Random(7))]
    for a, b in zip(xs, reversed(xs)):
        assert cong.pi.level(cong.act.pi.mul(a, b)) >= 1


def test_sample_level_errors(cong, poison):
    with pytest.raises(ValueError):
        sample_level(cong, "sideways", 0, 1, random.Random(0))
    with pytest.raises(ValueError):
        sample_level(poison, "pi", 2, 1, random.Random(0))


def test_congruence_checks_pass(cong):
    assert check_stable(cong, 2, 2, COUNT, seed=9).ok
    assert check_twist_equivalence(cong, 2, 2, COUNT, seed=9).ok
    rep = product_filtration_check(cong, 1, 1, COUNT, seed=9)
    assert rep.ok
    bound = rep.meta["generator_bound"]
    assert bound["c"] == 3 and bound["d"] == 3 and bound["bound"] == 6
    assert bound["constructive"]["generated"] == bound["constructive"]["target"]
    assert check_stably_lie_like(cong, 2, 2, COUNT, seed=9).ok
    assert check_G_lie_like(cong, 2, 2, COUNT, seed=9).ok


def test_generator_bound_builds_no_table(cong):
    bound = product_filtration_check(cong, 0, 2, 5, seed=0).meta["generator_bound"]
    assert bound["constructive"] is None
    assert (bound["c"], bound["d"], bound["gamma_order"], bound["pi_order"]) == (3, 3, 3 ** 6, 3 ** 6)
    bound = product_filtration_check(cong, 1, 1, 5, seed=0).meta["generator_bound"]
    assert bound["constructive"] == {"generators_used": 6, "generated": 3 ** 6, "target": 3 ** 6}
    assert bound["pass"]
    p2 = congruence_extension(2, 1, 1, cap=3)
    bound = product_filtration_check(p2, 0, 3, 5, seed=0).meta["generator_bound"]
    assert bound["constructive"] == {"generators_used": 5, "generated": 2 ** 16, "target": 2 ** 16}


def test_poison_fails_condition2_only(poison):
    report = check_stable(poison, 1, 1, 150, seed=1)
    assert not report.ok
    kinds = {f["kind"] for f in report.failures}
    assert kinds == {"stable_condition2"}
    # the equivalence of the two phrasings holds even on failing samples
    assert check_twist_equivalence(poison, 1, 1, 150, seed=1).ok


def test_poison_handmade_counterexample(poison):
    act = poison.act
    phi1 = poison.gamma.parse("phi1")
    a3 = poison.pi.parse("a3")
    assert poison.gamma.level(phi1) == 1
    assert poison.pi.level(a3) == 0
    twisted = act.pi.mul(act.apply(act.gamma.inv(phi1), a3), act.pi.inv(a3))
    assert poison.pi.level(twisted) == 0  # nonzero exponent sum: depth 0 < 1


def test_replay_failures(poison):
    report = check_stable(poison, 1, 1, 80, seed=3)
    assert report.failures
    for failure in report.failures[:10]:
        assert replay_failure(poison, failure)


def test_replay_rejects_fixed_sample(cong):
    fake = {
        "kind": "stable_condition2",
        "cell": [0, 1],
        "elements": {"f": "1,3;0,1", "g": "1,9;0,1", "x": "1,3;0,1", "y": "1,9;0,1"},
    }
    assert not replay_failure(cong, fake)  # congruence samples satisfy the condition


def test_determinism(cong):
    a = check_stable(cong, 1, 1, 40, seed=5).to_dict()
    b = check_stable(cong, 1, 1, 40, seed=5).to_dict()
    assert a == b
    c = check_stable(cong, 1, 1, 40, seed=6).to_dict()
    assert c["samples"] == a["samples"]


def test_poison_suite_shape():
    reports, ok, _ = run_suite("poison", count=60, seed=1)
    assert not ok
    assert reports[0].condition == "stable" and not reports[0].ok
    assert reports[1].condition == "twist_equivalence" and reports[1].ok


def test_congruence_suite_small():
    reports, ok, _ = run_suite("congruence", count=40, seed=12, p=3, r0=1, s0=1, rmax=2, smax=2)
    assert ok
    names = [rep.condition for rep in reports]
    assert "stable" in names and "G_lie_like" in names
    assert any(name.startswith("product_filtration") for name in names)


def test_trivial_action_always_stable():
    from filtra.filtration import FiltrationSpec, flat_congruence_basis, level_of
    from filtra.stability import ExtensionSpec, Side
    from test_holomorph import TrivialConjugation

    gamma_spec = FiltrationSpec("gamma", 3, 1, 2)
    pi_spec = FiltrationSpec("pgamma", 3, 1, 2)
    gens = lambda level: flat_congruence_basis(3, 1 + level)
    ext = ExtensionSpec(
        name="trivial",
        act=TrivialConjugation(),
        gamma=Side(lambda f: level_of(f, gamma_spec), gens, 2, str, None),
        pi=Side(lambda x: level_of(x, pi_spec), gens, 2, str, None),
    )
    assert check_stable(ext, 2, 2, 30, seed=3).ok
    assert check_twist_equivalence(ext, 2, 2, 30, seed=3).ok


def test_product_filtration_cap_guard(cong):
    from filtra.filtration import GuardError

    with pytest.raises(GuardError):
        product_filtration_check(cong, 2, 2, 5, seed=0)


def test_top_levels_saturate(cong, poison):
    ident = cong.act.gamma.identity
    deep = cong.gamma.parse("1,%d;0,1" % 3 ** 9)
    for level, cap in ((cong.gamma.level(ident), cong.gamma.cap),
                       (cong.gamma.level(deep), cong.gamma.cap),
                       (cong.pi.level(deep), cong.pi.cap),
                       (poison.gamma.level(poison.act.gamma.identity), poison.gamma.cap),
                       (poison.pi.level(poison.act.pi.identity), poison.pi.cap)):
        assert type(level) is int and level == cap + 1


def test_poison_sampler_stream_pinned():
    # The poison report's failure texts depend on the exact draw order of
    # the word sampler; these values pin that stream.
    (stable, lemma), _, _ = run_suite("poison", count=200, seed=1)
    assert stable.samples == 600 and len(stable.failures) == 103
    assert {f["kind"] for f in stable.failures} == {"stable_condition2"}
    first = stable.failures[0]
    assert first["cell"] == [0, 0]
    assert first["elements"] == {"f": "1", "x": "a2 a2 a3 a1^-1", "g": "phi2 phi1", "y": "1"}
    assert first["detail"] == {"required": 1, "observed": 0}
    assert lemma.samples == 600 and not lemma.failures


_CONGRUENCE_DIGEST = "8d076b003f381dfc1e30a9bab284388b9aaed2ae62c307e06ffc63b706f46b7a"


def test_congruence_suite_payload_pinned():
    # sha256 of the suite's report payload, taken with the generic 2x2 matrix backend;
    # the flat SL2(Z) backend must reproduce it byte for byte.
    reports, ok, _ = run_suite("congruence", count=40, seed=12, p=3, r0=1, s0=1, rmax=2, smax=2)
    payload = json.dumps([rep.to_dict() for rep in reports], sort_keys=True)
    assert ok
    assert hashlib.sha256(payload.encode()).hexdigest() == _CONGRUENCE_DIGEST


def test_a_fixture_is_one_table_entry(monkeypatch):
    # the congruence entry under a second name runs with no other edit and
    # reproduces the pinned payload
    monkeypatch.setitem(EXAMPLES, "congruence-copy", EXAMPLES["congruence"])
    reports, ok, _ = run_suite("congruence-copy", 40, 12, p=3, r0=1, s0=1, rmax=2, smax=2)
    payload = json.dumps([rep.to_dict() for rep in reports], sort_keys=True)
    assert ok
    assert hashlib.sha256(payload.encode()).hexdigest() == _CONGRUENCE_DIGEST


def test_replay_round_trips_flat_texts(cong):
    rng = random.Random("round-trip")
    fs = sample_level(cong, "gamma", 0, 30, rng)
    xs = sample_level(cong, "pi", 0, 30, rng)
    gs = sample_level(cong, "gamma", 1, 30, rng)
    ys = sample_level(cong, "pi", 1, 30, rng)
    for f, x, g, y in zip(fs, xs, gs, ys):
        elems = {"f": f[0], "x": x[0], "g": g[0], "y": y[0]}
        texts = {key: (cong.gamma if key in ("f", "g") else cong.pi).text(el) for key, el in elems.items()}
        for key, text in texts.items():
            parse = (cong.gamma if key in ("f", "g") else cong.pi).parse
            assert parse(text) == elems[key]
            assert text == str(parse_matrix(text))
        for kind in ("stable_condition1", "stable_condition2", "product_normality",
                     "stably_lie_like_mixed", "g_lie_like_commutator"):
            # every condition holds on the congruence extension
            assert not replay_failure(cong, {"kind": kind, "cell": [0, 1], "elements": texts})


@pytest.mark.parametrize("text", ["1,0,0;0,1,0;0,0,1", "2,0;0,1", "1,1;1,1", "1,3;0"])
def test_flat_parse_rejects_non_sl2_texts(cong, text):
    with pytest.raises(MatrixError):
        cong.gamma.parse(text)
    with pytest.raises(MatrixError):
        cong.pi.parse(text)
    fake = {"kind": "stable_condition2", "cell": [0, 1],
            "elements": {"g": "1,9;0,1", "x": text, "y": "1,9;0,1"}}
    with pytest.raises(MatrixError):
        replay_failure(cong, fake)


_SL2_TEXTS = {"f": "1,3;0,1", "x": "1,3;0,1", "g": "1,9;0,1", "y": "1,9;0,1"}


@pytest.mark.parametrize("kind, elements, problem", [
    ("nope", _SL2_TEXTS, "unknown failure kind 'nope'"),
    ("stable_condition1", {**_SL2_TEXTS, "z": "1,0;0,1"}, "unknown role 'z'"),
    ("stable_condition1", {key: _SL2_TEXTS[key] for key in "xgy"}, "needs element f"),
    ("stably_lie_like_pi", {"x": "1,3;0,1"}, "needs element y"),
])
def test_replay_rejects_malformed_failures(cong, kind, elements, problem):
    # a failure that names no known condition, or not its elements, is
    # refused rather than evaluated
    with pytest.raises(ValueError, match=problem):
        replay_failure(cong, {"kind": kind, "cell": [0, 1], "elements": elements})


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_a_passing_sample_returns_none(cong, kind):
    # an evaluator returns None for a passing sample, and only then: the
    # identity in every role passes every kind, so its replay reproduces
    # nothing and a run of one sample a cell (sample_level's identity) records
    # nothing.  action_hom fails with the empty detail {}, so a caller that
    # read the detail's truth would miss its failures
    evaluate, roles = _KINDS[kind]
    ident = {"gamma": cong.act.gamma.identity, "pi": cong.act.pi.identity}
    elems = tuple((ident[_ELEMENT_SIDES[name[0]]], cong.gamma.cap + 1) for name in roles)
    assert evaluate(cong, elems) is None
    texts = {name[0]: "1,0;0,1" for name in roles}
    assert replay_failure(cong, {"kind": kind, "cell": [0, 1], "elements": texts}) is False
    cells = [(0, 0), (1, 0), (0, 1), (1, 1)]
    phases = [(tuple((name, 1, 0) for name in roles), (kind,))]
    report = _run_cells(cong, CheckReport(kind), kind, cells, phases, 1, 0)
    assert report.samples == len(cells) and report.failures == []


# -- injected faults: every failure kind occurs and replays --------------------

class _ApplyFxF(MatrixConjugation):
    """f x f in place of f x f^-1."""

    def apply(self, f, x):
        return self.pi.mul(self.pi.mul(f, x), f)


class _Lopsided(MatrixConjugation):
    """Conjugation by f when its upper corner is >= 0, else x times a matrix
    outside the chain, so g and g^-1 act differently."""

    def apply(self, f, x):
        return super().apply(f, x) if f[1] >= 0 else self.pi.mul(x, (1, 1, 0, 1))


class _ConjugateForCommutator(Group):
    """The commutator returns the conjugate u v u^-1."""

    def comm(self, a, b):
        return self.mul(self.mul(a, b), self.inv(a))


class _ConjugatingCommutators(MatrixConjugation):
    """Conjugation, with both sides' commutators replaced by conjugates."""

    gamma = _ConjugateForCommutator(**vars(MatrixConjugation.gamma))
    pi = _ConjugateForCommutator(**vars(MatrixConjugation.pi))


_BROKEN_PRODUCT = {"inverse_formula", "conjugation_by_inverse", "associativity"}

# fault -> (action, failure kinds, failing holomorph laws, sha256 of the
# reports); the digests pin each check's draw order and the draws each
# failure kind reads, which a passing run's payload cannot show
_FAULTS = {
    "apply f x f": (_ApplyFxF, {"stable_condition1", "action_hom", "product_normality",
                                "stably_lie_like_mixed", "g_lie_like_commutator"}, _BROKEN_PRODUCT,
                    "9a91c356a4b3dfa4b6c4de24a68234fc55624269442e7f37e3b1fae717a7a999"),
    "lopsided action": (_Lopsided, {"stable_condition1", "stable_condition2", "action_hom",
                                    "twist_biconditional", "product_closure", "product_normality",
                                    "stably_lie_like_mixed", "g_lie_like_commutator"}, _BROKEN_PRODUCT,
                        "9c1e98e0e86b717a5e7b14b62b2de14bf6c5e74cd37090f4e2a6699729f27158"),
    "conjugate for commutator": (_ConjugatingCommutators, {"stably_lie_like_gamma", "stably_lie_like_pi",
                                                           "g_lie_like_commutator"}, {"commutator_closed_form"},
                                 "1e02ec871bf43c24ebf34d1a8c82eaa8f978d6b88d885dfecd97a8ea3944b56a"),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_injected_faults_replay(fault):
    action, kinds, _, digest = _FAULTS[fault]
    ext = replace(congruence_extension(3, 1, 1, cap=2), act=action())
    reports = [check_stable(ext, 2, 2, 30, 0), check_twist_equivalence(ext, 2, 2, 30, 0)]
    reports += [product_filtration_check(ext, r, s, 30, 0) for r in range(3) for s in range(3 - r)]
    reports += [check_stably_lie_like(ext, 2, 2, 30, 0), check_G_lie_like(ext, 2, 2, 30, 0)]
    failures = [failure for rep in reports for failure in rep.failures]
    assert {failure["kind"] for failure in failures} == kinds
    assert all(replay_failure(ext, failure) for failure in failures)
    payload = json.dumps([rep.to_dict() for rep in reports], sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


def test_every_failure_kind_is_reached():
    phases = _STABLE + _TWIST + _PRODUCT + _STABLY_LIE_LIKE + _G_LIE_LIKE
    named = [kind for _, kinds in phases for kind in kinds]
    assert sorted(named) == sorted(_KINDS)
    assert set().union(*(kinds for _, kinds, _, _ in _FAULTS.values())) == set(_KINDS)


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_holomorph_laws_catch_each_fault(fault):
    # the stability checks test levels only; the closed forms they take as
    # given are checked in holomorph._LAWS, which fails under every fault
    action, _, laws, _ = _FAULTS[fault]
    basis = flat_congruence_basis(3, 1)
    report = verify_holomorph_identities(action(), basis, basis, 300, 0, radius=4)
    assert {check["id"] for check in report["checks"] if check["failures"]} == laws


class _ReverseComposing(FreeGroupAction):
    """phi(w a) = phi(a) o phi(w): the leftmost letter acts first, so
    Gamma acts by an anti-homomorphism."""

    def _compose(self, letters):
        endo = self._phi[letters[:1]]
        for k in range(2, len(letters) + 1):
            endo = self._phi[letters[:k]] = self._phi[letters[k - 1:k]].compose(endo)
        return endo


def test_anti_homomorphic_action_fails_action_hom():
    # the level conditions pass an anti-homomorphism on the poison fixture
    # (its failures stay stable_condition2); the homomorphism kind does not
    ext = replace(poison_extension(), act=_ReverseComposing(2, 3, poison_action()))
    failures = check_stable(ext, 1, 1, 200, 1).failures
    hom = [failure for failure in failures if failure["kind"] == "action_hom"]
    assert len(hom) == 365
    assert {failure["kind"] for failure in failures} == {"action_hom", "stable_condition2"}
    assert all(replay_failure(ext, failure) for failure in hom)
    assert not any(replay_failure(poison_extension(), failure) for failure in hom)


# -- the suite's units split over processes -------------------------------------

def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _split_run(monkeypatch, cpus, *args, **flags):
    """``run_suite(*args, **flags)`` as if this process could use ``cpus``
    CPUs: (report dicts, ok, stats), after checking that no child is left."""
    monkeypatch.setattr(filtra.split, "_cpu_count", lambda: cpus)
    try:
        reports, ok, stats = run_suite(*args, **flags)
    finally:
        _no_child_left()
    return [rep.to_dict() for rep in reports], ok, stats


def _digest(reports):
    return hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()


def _fault_entry(action):
    return EXAMPLES["congruence"]._replace(
        build=lambda: (replace(congruence_extension(3, 1, 1, cap=2), act=action()), 2, 2), flags={})


_SPLIT_RUNS = {
    "congruence": (("congruence", 40, 12), {"p": 3, "r0": 1, "s0": 1, "rmax": 2, "smax": 2}),
    "poison": (("poison", 40, 1), {}),
    **{fault: (("fault: " + fault, 30, 0), {}) for fault in _FAULTS},
}


@pytest.mark.parametrize("run", sorted(_SPLIT_RUNS))
def test_reports_do_not_depend_on_the_process_count(monkeypatch, run):
    # 4 processes are more than the host's cores, and 3 does not divide a
    # congruence check's cells, so each check starts its units on another
    # process; each count gives the one-process reports, failure for failure
    # and in order, and draws as many words
    args, flags = _SPLIT_RUNS[run]
    if run in _FAULTS:
        monkeypatch.setitem(EXAMPLES, args[0], _fault_entry(_FAULTS[run][0]))
    runs = {cpus: _split_run(monkeypatch, cpus, *args, **flags) for cpus in (1, 2, 3, 4)}
    reports, ok, stats = runs[1]
    for cpus, (split_reports, split_ok, split_stats) in runs.items():
        assert split_reports == reports and split_ok == ok
        assert split_stats["samples_drawn"] == stats["samples_drawn"]
        assert split_stats["processes"] == cpus
    failures = [failure for rep in reports for failure in rep["failures"]]
    if run == "congruence":
        assert ok and _digest(reports) == _CONGRUENCE_DIGEST
    elif run == "poison":
        ext = poison_extension()
        assert failures and all(replay_failure(ext, failure) for failure in failures)
    else:
        action, kinds, _, digest = _FAULTS[run]
        ext = replace(congruence_extension(3, 1, 1, cap=2), act=action())
        assert {failure["kind"] for failure in failures} == kinds
        assert all(replay_failure(ext, failure) for failure in failures)
        assert _digest(reports) == digest


def _raise(ext, elems):
    raise ValueError("evaluator fault")


@pytest.mark.parametrize("owner", [0, 1])
def test_an_evaluator_error_reaches_the_caller(monkeypatch, owner):
    # a suite of two units, the first sampled by this process and the second
    # by a child: an evaluator that raises in either unit raises here, as in
    # one process, and leaves no child behind
    monkeypatch.setitem(_KINDS, "raises", (_raise, ("f",)))
    checks = [_STABLE, [((("f", 1, 0),), ("raises",))]]
    if owner == 0:
        checks.reverse()

    def suite(ext, r_max, s_max, count, seed):
        return [_run_cells(ext, CheckReport(str(n)), str(n), [(0, 0)], phases, count, seed)
                for n, phases in enumerate(checks)]

    monkeypatch.setitem(EXAMPLES, "raising", EXAMPLES["congruence"]._replace(
        build=lambda: (congruence_extension(3, 1, 1, cap=2), 0, 0), flags={}, suite=suite))
    for cpus in (1, 2):
        with pytest.raises(ValueError, match="evaluator fault"):
            _split_run(monkeypatch, cpus, "raising", 10, 0)
    checks[:] = [_STABLE]
    assert _split_run(monkeypatch, 2, "raising", 10, 0)[2]["processes"] == 1  # one unit, one process


def test_a_second_thread_keeps_one_process(monkeypatch):
    # a forked child would hold only the calling thread, so the suite runs in
    # this process while another thread is alive
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(60,))
    waiter.start()
    try:
        reports, ok, stats = _split_run(monkeypatch, 4, "poison", 40, 1)
    finally:
        release.set()
        waiter.join(timeout=60)
    assert not waiter.is_alive()
    assert stats["processes"] == 1
    assert (reports, ok) == _split_run(monkeypatch, 4, "poison", 40, 1)[:2]
