"""Acceptance suite: every criterion at its stated sample count and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  All comparisons are exact; the only tolerances are the wall
clock budgets stated inline.
"""

import random
import time

from filtra.cli import main as cli_main
from filtra.exactmat import Mat, Modulus, _flat_inv, _flat_mul
from filtra.filtration import FiltrationSpec, check_p_congruence, flat_congruence_basis
from filtra.freegroup import (
    Word,
    example_shift_action,
    example_shift_inverses,
    poison_action,
    mccool_generator,
    mccool_inverse,
    verify_automorphism,
)
from filtra.graded import (
    GradedClass,
    basis_class,
    bracket,
    bracket_from_lifts,
    class_of,
    lift,
    verify_relation_table,
)
from filtra.holomorph import FreeGroupAction, MatrixConjugation, verify_holomorph_identities
from filtra.linrep import verify_faithful
from filtra.stability import poison_extension, replay_failure, run_suite
from quotient_tables import clear_table_cache, kernel_enumerate
from test_graded import random_kernel_element


def _criterion(num, desc, passed):
    print("criterion %2d  %-58s %s" % (num, desc, "PASS" if passed else "FAIL"))
    assert passed, "criterion %d failed: %s" % (num, desc)


def test_criterion_01_kernel_quotient_structure():
    clear_table_cache()
    ok = True
    for p, order, exponent, d in ((3, 27, 3, 3), (2, 4, 2, 2)):
        for q in (1, 2, 3):
            started = time.monotonic()
            table = kernel_enumerate(p, q, q + 1, "pgamma")
            elapsed = time.monotonic() - started
            ok = ok and elapsed < 1.0
            ok = ok and table.order == order
            ok = ok and table.exponent() == exponent
            ok = ok and table.minimal_generators() == d
            ok = ok and table.is_elementary_abelian()
    _criterion(1, "kernel quotients: order/exponent/d at p=3 and p=2, <1s each", ok)


def test_criterion_02_layer_coordinates():
    ok = True
    for p in (3, 5):
        for q in (1, 2, 3, 4):
            t, m = p ** q, p ** (q + 1)
            a = (1, t, 0, 1)
            b = (1, 0, t, 1)
            c = (1 + t, t, -t, 1 - t)
            d = (1 + t, 0, 0, 1 - t)
            ok = ok and class_of(a, p, q) == basis_class(p, q, "A")
            ok = ok and class_of(b, p, q) == basis_class(p, q, "B")
            ok = ok and class_of(d, p, q) == basis_class(p, q, "D")
            ok = ok and class_of(c, p, q) == GradedClass(p, q, (1, -1, 1))
            bca = _flat_mul(_flat_mul(b, c, m), _flat_inv(a, m), m)
            ok = ok and class_of(bca, p, q) == class_of(d, p, q)
    _criterion(2, "layer coordinates of the four standard matrices, p in {3,5}", ok)


def test_criterion_03_relation_table():
    started = time.monotonic()
    ok = verify_relation_table(3, 5)["ok"]
    ok = ok and verify_relation_table(5, 5)["ok"]
    ok = ok and verify_relation_table(2, 5)["ok"]
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 5.0
    _criterion(3, "bracket/power relation table, p in {2,3,5}, q+s<=5, <5s", ok)


def test_criterion_04_bracket_well_defined():
    rng = random.Random("acceptance-c4")
    p = 3
    ok = True
    for q in range(1, 4):
        for s in range(1, 4):
            if q + s > 4:
                continue
            for _ in range(200):
                c1 = GradedClass(p, q, tuple(rng.randrange(p) for _ in range(3)))
                c2 = GradedClass(p, s, tuple(rng.randrange(p) for _ in range(3)))
                t = q + s + 1
                l1 = _flat_mul(lift(c1, t), random_kernel_element(p, q + 1, t, rng), p ** t)
                l2 = _flat_mul(lift(c2, t), random_kernel_element(p, s + 1, t, rng), p ** t)
                ok = ok and bracket_from_lifts(l1, l2, p, q, s) == bracket(c1, c2)
    _criterion(4, "bracket unchanged under 200 lift perturbations per cell", ok)


def test_criterion_05_holomorph_identities():
    act = MatrixConjugation()
    gens = flat_congruence_basis(3, 1)
    ok = verify_holomorph_identities(act, gens, gens, 1000, seed=42, radius=4)["ok"]
    act2 = FreeGroupAction(2, 3, poison_action())
    gamma_gens = [Word.generator(2, 1), Word.generator(2, 2)]
    pi_gens = [Word.generator(3, i) for i in (1, 2, 3)]
    ok = ok and verify_holomorph_identities(act2, gamma_gens, pi_gens, 1000, seed=42, radius=5)["ok"]
    _criterion(5, "closed forms = first-principles products, 1000/backend", ok)


def test_criterion_06_congruence_stability_suite():
    started = time.monotonic()
    reports, ok, _ = run_suite("congruence", count=500, seed=42, p=3, r0=1, s0=1, rmax=3, smax=3)
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0
    ok = ok and all(rep.ok for rep in reports)
    _criterion(6, "all five stability checks pass, p=3, r+s<=3, 500/cell, <60s", ok)


def test_criterion_07_poison_contrast(capsys):
    (phi1, _), (phi2, _) = poison_action()
    ok = phi1.abelianize() != Mat.identity(3)
    ok = ok and phi2.abelianize() != Mat.identity(3)
    code = cli_main(["stability", "--example", "poison", "--seed", "1", "--count", "200"])
    out = capsys.readouterr().out
    ok = ok and code == 1
    import json

    report = json.loads(out[out.index("{"):])
    stable = next(r for r in report["results"] if r["condition"] == "stable")
    failures = [f for f in stable["failures"] if f["kind"] == "stable_condition2"]
    ok = ok and bool(failures)
    ext = poison_extension()
    ok = ok and all(replay_failure(ext, f) for f in failures[:20])
    _criterion(7, "contrast fixture: homology action nontrivial, exit 1, replays", ok)


def test_criterion_08_bounded_generation():
    ok = True
    for family in ("pgamma", "gamma"):
        spec = FiltrationSpec(family, 3, 1, 3)
        ok = ok and check_p_congruence(spec, 3, 3, seed=2715)["ok"]
    report = check_p_congruence(FiltrationSpec("pgamma", 3, 1, 3), 3, 2, seed=2715)
    failing = [pair for pair in report["pairs"] if not pair["pass"]]
    ok = ok and not report["ok"] and failing and failing[0]["levels"] == [0, 1]
    _criterion(8, "both chains bounded with e=3; e=2 fails at (0,1)", ok)


def test_criterion_09_representation_faithfulness():
    started = time.monotonic()
    ok = True
    for n, modulus in ((2, Modulus(3, 2)), (2, Modulus(3, 3)), (3, Modulus(2, 2))):
        report = verify_faithful(n, modulus, 500, seed=42)
        ok = ok and report["ok"]
        ok = ok and report["hom_failures"] == 0
        ok = ok and report["kernel_probes"]["violations"] == 0
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 10.0
    _criterion(9, "rho homomorphism + kernel probes, 3 rings, 500 pairs, <10s", ok)


def test_criterion_10_automorphism_fixtures():
    ok = True
    for n in (2, 3, 4):
        x, y = example_shift_action(n)
        x_inv, y_inv = example_shift_inverses(n)
        ok = ok and verify_automorphism(x, x_inv)
        ok = ok and verify_automorphism(y, y_inv)
        ok = ok and y.abelianize() == Mat.identity(n + 1)
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                gen = mccool_generator(n, i, j)
                ok = ok and verify_automorphism(gen, mccool_inverse(n, i, j))
                ok = ok and gen.abelianize() == Mat.identity(n)
    _criterion(10, "shift/conjugation and basis-conjugating witnesses, n<=4", ok)
