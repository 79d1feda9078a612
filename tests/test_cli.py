import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import filtra
from filtra.cli import MAX_NMAX, build_parser, main
from filtra.filtration import MAX_JMAX, MAX_MODULUS_BITS
from filtra.holomorph import MAX_IDENTITY_COUNT
from filtra.linrep import MAX_BALL_RADIUS, MAX_FAITHFUL_SAMPLES, MAX_REP_N
from filtra.stability import (
    EXAMPLES, MAX_CELL_BITS, MAX_DEPTH_CAP, MAX_SAMPLE_COUNT, poison_extension, replay_failure, run_suite,
)


def run_cli(capsys, *args):
    # stdout is exactly one JSON document
    code = main(list(args))
    return code, json.loads(capsys.readouterr().out)


def test_quotient_command(capsys):
    code, report = run_cli(capsys, "quotient", "--family", "pgamma", "-p", "2", "-i", "1", "-j", "2")
    assert code == 0
    assert report["results"]["order"] == 4
    assert report["results"]["exponent"] == 2
    assert report["results"]["d"] == 2
    assert report["schema_version"] == 1


def test_quotient_past_the_guard_is_certified(capsys):
    # 3^15 triples, past the enumeration guard: the certificate answers
    code, report = run_cli(capsys, "quotient", "--family", "pgamma", "-p", "3", "-i", "1", "-j", "6")
    assert code == 0
    assert (report["results"]["order"], report["results"]["exponent"], report["results"]["d"]) == (3 ** 15, 243, 3)
    started = time.perf_counter()
    code, report = run_cli(capsys, "quotient", "--family", "pgamma", "-p", "2", "-i", "1", "-j", "40")
    assert time.perf_counter() - started < 1.0
    assert code == 0
    assert (report["results"]["order"], report["results"]["d"]) == (2 ** 117 // 4, 2)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["stability", "--example", "congruence"])  # --seed is mandatory
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc2:
        main(["nonsense"])
    assert exc2.value.code == 2


def test_graded_bracket_output(capsys):
    code, report = run_cli(
        capsys, "graded", "bracket", "-p", "3", "-q", "1", "-s", "1", "--c1", "1,0,0", "--c2", "0,1,0"
    )
    assert code == 0
    assert report["results"] == {"bracket": "0,0,1", "level": 2}


def test_graded_verify(capsys):
    code, report = run_cli(capsys, "graded", "verify", "-p", "3", "--qmax", "3")
    assert code == 0 and report["ok"]
    # distinct pairs bracketed: 12 (p = 2) or 45 in each of the ten cells
    # of --qmax 5
    for p, brackets in (("2", 120), ("3", 450), ("5", 450)):
        code, report = run_cli(capsys, "graded", "verify", "-p", p, "--qmax", "5")
        assert code == 0 and report["timings"]["stats"] == {"brackets": brackets}, p


def test_rep_command(capsys):
    code, report = run_cli(
        capsys, "rep", "--n", "2", "--mod", "9", "--gamma", "1,3;0,1", "--y", "1,0;3,1"
    )
    assert code == 0
    # the golden 4x4 matrix of tests/test_linrep.py::test_rho_golden_matrix
    assert report["results"] == {"rho": "1,0,3,0;6,1,0,3;3,0,1,0;0,3,6,1", "n_squared": 4}


def test_rep_bad_modulus(capsys):
    code = main(["rep", "--mod", "12", "--gamma", "1,0;0,1", "--y", "1,0;0,1"])
    assert code == 2
    assert "prime power" in capsys.readouterr().err


@pytest.mark.parametrize("mod", ["0", "1", "-9"])
def test_rep_modulus_below_two_is_refused(capsys, mod):
    # 0 must not fall through to Z, the ring an omitted --mod selects
    code = main(["rep", "--mod", mod, "--gamma", "1,0;0,1", "--y", "1,0;0,1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "prime power" in captured.err


def test_rep_refuses_modulus_without_small_prime_factor(capsys):
    # 2^61 - 1 is prime, past the bound Modulus puts on p: refused without
    # trial-dividing up to the modulus
    started = time.perf_counter()
    code = main(["rep", "--n", "2", "--mod", "2305843009213693951", "--gamma", "1,0;0,1", "--y", "1,0;0,1"])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "usage error" in captured.err and "prime power" in captured.err
    assert elapsed < 1.0


def test_rep_modulus_bound(capsys):
    # --mod may have MAX_MODULUS_BITS bits; a longer one exits 2 before it
    # is trial-divided
    code, report = run_cli(capsys, "rep", "--mod", str(2 ** 511), "--gamma", "1,3;0,1", "--y", "1,0;3,1")
    assert code == 0 and report["config"]["mod"] == 2 ** 511
    started = time.perf_counter()
    for mod in (2 ** 512, 2 ** 14000):
        assert main(["rep", "--mod", str(mod), "--gamma", "1,3;0,1", "--y", "1,0;3,1"]) == 2
    assert time.perf_counter() - started < 0.5
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("more than %d bits" % MAX_MODULUS_BITS) == 2


def test_bad_inputs_map_to_usage_errors(capsys):
    code = main(["graded", "bracket", "-p", "3", "-q", "1", "-s", "1", "--c1", "1,0", "--c2", "0,1,0"])
    assert code == 2
    code = main(["rep", "--gamma", "1,x;0,1", "--y", "1,0;0,1"])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_out_is_refused_before_the_run(monkeypatch, tmp_path, capsys, where):
    import filtra.linrep

    def run(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(filtra.linrep, "ball_injectivity", run)
    out = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
    code = main(["rep-ball", "-p", "3", "--base", "1", "--target", "3", "--radius", "3", "--seed", "1",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "usage error: cannot write --out %s\n" % out


def test_holomorph_identities_command(capsys):
    code, report = run_cli(
        capsys, "holomorph-identities", "--backend", "free", "--count", "50", "--seed", "4"
    )
    assert code == 0 and report["ok"]


def test_congruence_holomorph_report_pinned(capsys):
    # sha256 of the report without timings and version, taken with the
    # generic 2x2 matrix backend; the flat SL2(Z) backend must reproduce it.
    code, report = run_cli(capsys, "holomorph-identities", "--backend", "congruence",
                              "-p", "3", "--count", "50", "--seed", "7")
    assert code == 0
    report.pop("timings")
    report.pop("version")
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == (
        "873c50a7023ef664b048ce1cd661dc0c4df878e9a7d43fbd890ffcd76babf6d0"
    )


@pytest.mark.parametrize("backend, p", [("congruence", 2), ("congruence", 3), ("congruence", 5), ("free", None)])
def test_holomorph_identities_draw_from_the_fixture_generators(monkeypatch, capsys, backend, p):
    # the report holds failure counts alone, so no digest sees a changed
    # draw: the identities' arguments pin it instead
    import inspect

    import filtra.holomorph
    from filtra.filtration import flat_congruence_basis
    from filtra.freegroup import Word, poison_action
    from filtra.holomorph import FreeGroupAction, MatrixConjugation

    verify = filtra.holomorph.verify_holomorph_identities
    calls = []

    def spy(*args, **kwargs):
        bound = inspect.signature(verify).bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return verify(*args, **kwargs)

    monkeypatch.setattr(filtra.holomorph, "verify_holomorph_identities", spy)
    prime = [] if p is None else ["-p", str(p)]
    code, _ = run_cli(capsys, "holomorph-identities", "--backend", backend, *prime, "--count", "5", "--seed", "1")
    assert code == 0
    [call] = calls
    act = call["act"]
    if backend == "free":
        assert type(act) is FreeGroupAction and act.ranks == (2, 3) and act.pairs == tuple(poison_action())
        want = [Word.generator(2, i) for i in (1, 2)], [Word.generator(3, i) for i in (1, 2, 3)], 5
    else:
        assert type(act) is MatrixConjugation
        want = flat_congruence_basis(p, 1), flat_congruence_basis(p, 1), 4
    assert (call["gamma_gens"], call["pi_gens"], call["radius"]) == want
    assert (call["count"], call["seed"]) == (5, 1)


def _pinned_digest(report):
    report.pop("timings")
    report.pop("version")
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("args, digest", [
    (["rep", "--n", "3", "--mod", "4", "--gamma", "1,1,0;0,1,0;0,0,1", "--y", "1,0,0;1,1,0;0,0,1",
      "--samples", "100", "--seed", "1"],
     "e7dc47b6b62e05f04a8d48fc2f37b722b117b8937fa46a3ad6ad0cf5ae2bf2c3"),
    (["rep", "--n", "2", "--mod", "27", "--gamma", "1,3;0,1", "--y", "1,0;3,1", "--samples", "100", "--seed", "1"],
     "fdc35c25a189cfc3d5ffb892f6f6712d930ecf825643b303ad9f27b83f65d0a2"),
    (["rep-ball", "-p", "3", "--base", "1", "--target", "3", "--radius", "3", "--seed", "1"],
     "d3bbd26c3e26eb6f6b74d54897005cff4b7f994dd26fb0d155ab44b031a61fa5"),
])
def test_rep_reports_pinned(capsys, args, digest):
    # sha256 of the report without timings and version, taken with rho
    # built from matrix units and random_sl from transvection products
    code, report = run_cli(capsys, *args)
    assert code == 0
    assert _pinned_digest(report) == digest


@pytest.mark.parametrize("args, digest", [
    (["graded", "verify", "-p", "2", "--qmax", "5"],
     "24b45d2c04b116b5fc470d7d7c35538f271a7bb03f6a879c0e62f5b57a969b22"),
    (["graded", "verify", "-p", "3", "--qmax", "5"],
     "38ab99991e7239dba025a1528818758417decd80b964ab4bb2459b5d00ae25bd"),
    (["graded", "verify", "-p", "5", "--qmax", "5"],
     "48247854cea054279fee1650f4e54d4b9c97528ed28d5e62a688dea77b41baa4"),
    (["graded", "bracket", "-p", "3", "-q", "1", "-s", "2", "--c1", "1,2,0", "--c2", "0,1,1"],
     "3bf3d14b83828fbe3b882b78bad61cb110840a1677409b4c289709bdb4df4c0e"),
    (["graded", "bracket", "-p", "5", "-q", "2", "-s", "1", "--c1", "1,2,3", "--c2", "4,1,1"],
     "909b507dd97e30ba6d50de8746feb3a4e37f5a188ebd67dfae7fe9e995e08f44"),
])
def test_graded_reports_pinned(capsys, args, digest):
    # sha256 of the report without timings and version, taken with the
    # graded layer maps computed on generic 2x2 matrices mod p^r
    code, report = run_cli(capsys, *args)
    assert code == 0
    assert _pinned_digest(report) == digest


@pytest.mark.parametrize("p", ["0", "1", "4", "-3", "1048583"])
@pytest.mark.parametrize("command", [
    ["graded", "bracket", "-q", "1", "-s", "1", "--c1", "1,0,0", "--c2", "0,1,0"],
    ["graded", "verify", "--qmax", "3"],
])
def test_graded_rejects_bad_primes(capsys, command, p):
    assert main(command + ["-p", p]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err and "Traceback" not in captured.err


HUGE_PRIME = "2305843009213693951"  # 2^61 - 1


@pytest.mark.parametrize("command", [
    ["quotient", "--family", "gamma", "-i", "1", "-j", "2"],
    ["pcongruence", "--family", "gamma", "--jmax", "1", "-e", "3", "--seed", "1"],
    ["stability", "--example", "congruence", "--seed", "1"],
    ["holomorph-identities", "--backend", "congruence", "--seed", "1"],
])
def test_huge_prime_refused_at_once(command):
    # -p past the prime bound is refused before any trial division; a child
    # process with a timeout fails the test instead of hanging it
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(filtra.__file__)))
    proc = subprocess.run([sys.executable, "-m", "filtra.cli", *command, "-p", HUGE_PRIME],
                          capture_output=True, text=True, timeout=10, env=env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "usage error" in proc.stderr and "below 2^20" in proc.stderr


def test_split_stability_run_leaves_nothing_open(monkeypatch):
    # each sampled command runs on one process per CPU, capped at its units;
    # under -X dev and -W error a pipe or file left open would print a
    # ResourceWarning, and a child that wrote to stdout would break its one
    # JSON document
    from filtra.split import _cpu_count

    cpus = _cpu_count()
    # with more CPUs than units, the poison suite runs one process per unit:
    # 3 cells of each of its 2 checks
    monkeypatch.setattr("filtra.split._cpu_count", lambda: 64)
    poison_units = run_suite("poison", 40, 1)[2]["processes"]
    assert poison_units == 6
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(filtra.__file__)))
    for argv, code, units in [
        (["stability", "--example", "poison", "--count", "40", "--seed", "1"], 1, poison_units),
        (["holomorph-identities", "--backend", "free", "--count", "40", "--seed", "1"], 0, 40),
        (["rep", "--n", "2", "--mod", "9", "--gamma", "1,3;0,1", "--y", "1,0;3,1", "--samples", "40",
          "--seed", "1"], 0, 40),
    ]:
        proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "filtra.cli", *argv],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == code, argv
        assert "ResourceWarning" not in proc.stderr and "Traceback" not in proc.stderr, argv
        assert json.loads(proc.stdout)["timings"]["stats"]["processes"] == min(cpus, units), argv


def test_rep_n4_is_cheap(capsys):
    started = time.perf_counter()
    code, report = run_cli(capsys, "rep", "--n", "4", "--mod", "5",
                              "--gamma", "1,1,0,0;0,1,0,0;0,0,1,0;0,0,0,1",
                              "--y", "1,0,0,0;0,1,0,0;0,0,1,0;0,0,1,1", "--samples", "100", "--seed", "1")
    elapsed = time.perf_counter() - started
    assert code == 0
    assert report["results"]["faithfulness"]["hom_failures"] == 0
    assert report["results"]["faithfulness"]["kernel_probes"] == {"center_order": 4, "hits": 4, "violations": 0}
    assert _pinned_digest(report) == "9e3d9b983108256b732ed0300e5b5a9ac5752e2f359a5804ea9af25634d7e445"
    assert elapsed < 1.0


def test_rep_ball_deep_target_is_cheap(capsys):
    # the center of SL(2, Z/3^40) is found by lifting roots, not by
    # trying each of the 3^40 residues
    started = time.perf_counter()
    code, report = run_cli(capsys, "rep-ball", "-p", "3", "--base", "1", "--target", "40",
                           "--radius", "2", "--seed", "1")
    elapsed = time.perf_counter() - started
    assert code == 0
    assert report["results"] == {"ball_size": 37, "pairs": 1369, "collisions": 0, "ok": True}
    assert elapsed < 1.0


@pytest.mark.parametrize("args, exit_code, digest", [
    (["holomorph-identities", "--backend", "free", "--count", "200", "--seed", "1"], 0,
     "cd39e2383e1699954e031438bbaa1e7caabeaeb2c47ab475da7a415ce465b359"),
    (["stability", "--example", "poison", "--count", "200", "--seed", "1"], 1,
     "dd1b002ada3920b3dbe8a6f9f573e752cac240cda58bf48831e3172408edbc2e"),
])
def test_free_group_payloads_pinned(capsys, args, exit_code, digest):
    # sha256 of the report without timings and version, taken when
    # FreeGroupAction applied the automorphism of each letter in turn
    code, report = run_cli(capsys, *args)
    assert code == exit_code
    assert _pinned_digest(report) == digest


def test_freegroup_fixtures_command(capsys):
    code, report = run_cli(capsys, "freegroup-fixtures", "--nmax", "3")
    assert code == 0 and report["ok"]
    ids = [c["id"] for c in report["results"]]
    assert "fp_generator_1" in ids and "shift_action_n3" in ids


def test_pcongruence_command(capsys):
    code, report = run_cli(
        capsys, "pcongruence", "--family", "gamma", "-p", "3", "--jmax", "2", "-e", "3", "--seed", "2"
    )
    assert code == 0 and report["ok"]
    code2, report2 = run_cli(
        capsys, "pcongruence", "--family", "gamma", "-p", "3", "--jmax", "2", "-e", "2", "--seed", "2"
    )
    assert code2 == 1 and not report2["ok"]


@pytest.mark.parametrize("family, p, jmax, e, digest", [
    ("gamma", 2, 4, 3, "1555c4da4899ac763f11713474f34ac6cf9baa2cac2e2232b40efb753a37a985"),
    ("pgamma", 2, 4, 3, "a773d04fe4dadd9073c96da5177e7737e6d3a25ed53e0b1c8f29557111789432"),
    ("gamma", 3, 3, 3, "77a2f77438e22f354d53eb0ce67eff786e6e025c7d609d99163e136f9784a429"),
    ("pgamma", 3, 3, 3, "48b46edcfce35a898ec27811f75041eae4e17e6023cfa020434458e994c476cd"),
    ("gamma", 5, 2, 3, "21ad95bafa9d0998cb8e6da24e29248580da5374cd7ba360ac6766c951d4b8c2"),
    ("pgamma", 5, 2, 3, "9c66e0b05ca9f6fe3bb52e004eb7a457f601af91786cdc0b906194e065b7fce0"),
    ("gamma", 3, 2, 2, "41e247368c1ad2d3d0609883a1adbf5f3643bd98a29a9323b1ce50682b6650bb"),
    ("pgamma", 2, 3, 1, "e5e39a673c45368f9be21e4daa857f7a144290731990739d1048effba40e3fb2"),
])
def test_pcongruence_payload_pinned(capsys, family, p, jmax, e, digest):
    # sha256 of the report without timings, taken when every pair was
    # enumerated; the tower certificate must reproduce it byte for byte
    code, report = run_cli(capsys, "pcongruence", "--family", family, "-p", str(p),
                              "--jmax", str(jmax), "-e", str(e), "--seed", "4")
    assert code == (0 if e == 3 else 1)
    assert report["timings"]["stats"] == {"pairs_certified": jmax * (jmax + 1) // 2}
    assert _pinned_digest(report) == digest


def test_pcongruence_truncation_check_reads_past_64(capsys):
    # levels reach exponent r0 + jmax + 1 = 66: the exact exponent the
    # sample is checked against must not saturate below it
    code, report = run_cli(capsys, "pcongruence", "--family", "gamma", "-p", "3", "--r0", "60",
                           "--jmax", "5", "-e", "3", "--seed", "1")
    assert code == 0 and report["ok"]
    assert report["results"]["truncation_check"] == {"samples": 60, "failures": []}


@pytest.mark.parametrize("args, digest", [
    (["quotient", "--family", "pgamma", "-p", "2", "-i", "1", "-j", "5"],
     "6d4f87a5bfbdaabaf6d7ef60953534d02af642d432190328de2b6e0230dcee38"),
    (["quotient", "--family", "gamma", "-p", "2", "-i", "1", "-j", "4"],
     "dd2f0eef85c890a2ddcbe6e0f4e433975d9adbad2196e30a27940e78c6b07339"),
    (["quotient", "--family", "gamma", "-p", "3", "-i", "1", "-j", "3"],
     "02ecb01ecbe3586bc86f23912c0bae96d5cb7b380652faef68c0162652d11e25"),
    (["quotient", "--family", "pgamma", "-p", "5", "-i", "1", "-j", "3"],
     "530c14a16fe51797b01ed52295c34c73061e998a03d8e02b30cd1b55aa439b5e"),
    (["stability", "--example", "congruence", "-p", "2", "--rmax", "2", "--smax", "2", "--count", "20",
      "--seed", "1"],
     "30a3a9d7035c50ff593cd5e33a02b69149e8031b13ef3a82160498dfa6485e11"),
])
def test_table_payloads_pinned(capsys, args, digest):
    # sha256 of the report without timings and version, taken when d(G) and
    # the generating set came from a coset map and a vector space span and
    # the stability run closed pgamma p = 2 tables for its constructive
    # check; the tower certificate must reproduce it without a table
    code, report = run_cli(capsys, *args)
    assert code == 0
    assert _pinned_digest(report) == digest


def test_pcongruence_deep_tower_builds_no_table(capsys):
    # 3^24 elements in the deepest quotient, far past the enumeration guard
    started = time.perf_counter()
    code, report = run_cli(capsys, "pcongruence", "--family", "gamma", "-p", "3", "--r0", "1",
                              "--jmax", "8", "-e", "3", "--seed", "1")
    elapsed = time.perf_counter() - started
    assert code == 0 and report["ok"]
    deepest = report["results"]["pairs"][7]
    assert deepest["levels"] == [0, 8] and deepest["order"] == 3 ** 24 and deepest["exponent"] == 3 ** 8
    assert all(pair["d"] == 3 for pair in report["results"]["pairs"])
    assert report["timings"]["stats"] == {"pairs_certified": 36}
    assert elapsed < 1.0


def test_stability_poison_command(capsys):
    code, report = run_cli(
        capsys, "stability", "--example", "poison", "--seed", "1", "--count", "80"
    )
    assert code == 1
    stable = next(r for r in report["results"] if r["condition"] == "stable")
    assert stable["verdict"] == "fail"
    failure = stable["failures"][0]
    assert failure["kind"] == "stable_condition2"
    assert replay_failure(poison_extension(), failure)


@pytest.mark.parametrize("flag, value", [("-p", "4"), ("--r0", "1"), ("--s0", "2"), ("--rmax", "9"),
                                         ("--smax", "3")])
def test_stability_poison_refuses_congruence_flags(capsys, flag, value):
    assert main(["stability", "--example", "poison", "--count", "5", "--seed", "1", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage error" in captured.err


def test_stability_congruence_flags_default(capsys):
    code, report = run_cli(capsys, "stability", "--example", "congruence", "--count", "1", "--seed", "1")
    assert code == 0
    assert report["config"] == {"example": "congruence", "seed": 1, "count": 1,
                                "p": 3, "r0": 1, "s0": 1, "rmax": 3, "smax": 3}


def test_a_fixture_is_one_entry_for_the_cli(monkeypatch, capsys):
    # an entry added to the table alone is a --example choice and a
    # --backend choice, with its flags, and runs as the entry it copies
    copy = EXAMPLES["congruence"]._replace(backend="congruence-copy")
    monkeypatch.setitem(EXAMPLES, "congruence-copy", copy)
    runs = {}
    for name in ("congruence", "congruence-copy"):
        runs[name] = [run_cli(capsys, "stability", "--example", name, "-p", "2", "--rmax", "1", "--smax", "1",
                              "--count", "20", "--seed", "3"),
                      run_cli(capsys, "holomorph-identities", "--backend", name, "-p", "5", "--count", "20",
                              "--seed", "3")]
    for (code, report), (copy_code, copy_report) in zip(runs["congruence"], runs["congruence-copy"]):
        assert code == copy_code == 0
        assert copy_report["results"] == report["results"]


@pytest.mark.parametrize("argv", [
    ["holomorph-identities", "--backend", "free", "--count", "5", "--seed", "1", "-p", "3"],
    ["rep", "--gamma", "1,3;0,1", "--y", "1,0;3,1", "--seed", "1"],
    ["rep", "--gamma", "1,3;0,1", "--y", "1,0;3,1", "--samples", "0", "--seed", "1"],
    ["graded", "verify", "-p", "3", "--qmax", "2", "--seed", "1"],
])
def test_ignored_flags_are_refused(capsys, argv):
    # -p means nothing to the free backend, --seed nothing to rep without
    # its faithfulness suite or to the exhaustive relation table
    try:
        code = main(argv)
    except SystemExit as exc:   # argparse refuses a flag the command lacks
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


def _subparsers(parser):
    """A parser's subcommand names and their parsers."""
    return next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction)).choices


def _flags(*words):
    """The dests of a subcommand's flags other than --help and --out."""
    parser = build_parser()
    for word in words:
        parser = _subparsers(parser)[word]
    return {action.dest for action in parser._actions if action.option_strings} - {"help", "out"}


def _outcome(capsys, parse, argv):
    """Exit code, stdout and stderr of parse(argv) or of an argparse exit."""
    try:
        code = parse(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_one_subparser_matches_the_full_parser(capsys):
    # a command builds its own subparser alone; it and the usage and help
    # a user can reach are those of the full parser
    full = _subparsers(build_parser())
    for name, parser in full.items():
        one = _subparsers(build_parser(name))
        assert list(one) == [name]
        assert one[name].format_help() == parser.format_help(), name
    for name in ("bracket", "verify"):
        one = _subparsers(_subparsers(build_parser("graded"))["graded"])[name]
        assert one.format_help() == _subparsers(full["graded"])[name].format_help(), name
    quotient = ["quotient", "--family", "gamma", "-p", "3", "-i", "1", "-j", "2"]
    for argv in ([], ["-h"], ["bogus"], ["quotient"], quotient + ["--bogus", "1"], ["graded"],
                 ["graded", "verify", "-p", "3"]):
        want = _outcome(capsys, build_parser().parse_args, argv)
        assert want[0] == (0 if argv == ["-h"] else 2)
        assert _outcome(capsys, main, argv) == want, argv


_CONGRUENCE_FLAGS = {"p", "r0", "s0", "rmax", "smax"}


@pytest.mark.parametrize("words, rest, absent, values", [
    (["quotient"], ["--family", "gamma", "-p", "3", "-i", "1", "-j", "2"], set(), {}),
    (["pcongruence"], ["--family", "gamma", "-p", "3", "--jmax", "2", "-e", "3", "--seed", "2"], set(), {}),
    (["stability"], ["--example", "congruence", "--rmax", "1", "--count", "1", "--seed", "1"], set(),
     {"p": 3, "r0": 1, "s0": 1, "rmax": 1, "smax": 3}),
    (["stability"], ["--example", "poison", "--count", "1", "--seed", "1"], _CONGRUENCE_FLAGS, {}),
    (["graded", "bracket"], ["-p", "3", "-q", "1", "-s", "1", "--c1", "1,0,0", "--c2", "0,1,0"], set(), {}),
    (["graded", "verify"], ["-p", "3", "--qmax", "2"], set(), {"seed": 0}),
    (["rep"], ["--gamma", "1,3;0,1", "--y", "1,0;3,1"], set(), {"mod": None, "seed": 0}),
    (["rep-ball"], ["-p", "3", "--base", "1", "--target", "2", "--radius", "1", "--seed", "1"], set(), {}),
    (["holomorph-identities"], ["--backend", "free", "--count", "2", "--seed", "1"], set(), {"p": 3}),
    (["freegroup-fixtures"], ["--nmax", "2"], set(), {}),
])
def test_config_is_the_parsed_flags(tmp_path, capsys, words, rest, absent, values):
    # config holds each flag of the command but --out, absent ones under
    # their defaults, and only the values a handler fills besides; no other
    # namespace entry (func, command, graded_command) reaches the report
    code, report = run_cli(capsys, *words, *rest, "--out", str(tmp_path / "report.json"))
    assert code == 0 or words == ["stability"]
    config = report["config"]
    assert set(config) == (_flags(*words) - absent) | set(values)
    assert values.items() <= config.items()
    assert report["command"] == "-".join(words)


def test_absent_flags_keep_their_config_values(capsys):
    code, report = run_cli(capsys, "holomorph-identities", "--backend", "free", "--count", "5", "--seed", "1")
    assert code == 0 and report["config"]["p"] == 3
    code, report = run_cli(capsys, "rep", "--gamma", "1,3;0,1", "--y", "1,0;3,1")
    assert code == 0 and report["config"]["seed"] == 0
    code, report = run_cli(capsys, "rep", "--gamma", "1,3;0,1", "--y", "1,0;3,1", "--samples", "3")
    assert code == 0 and report["config"]["seed"] == 0
    code, report = run_cli(capsys, "graded", "verify", "-p", "3", "--qmax", "2")
    assert code == 0 and report["config"]["seed"] == 0


def test_stability_reports_sampler_stats(capsys, monkeypatch):
    # three cells, with 4 sample_level calls each in the stable check and 3
    # in the twist check, draw count - 1 words per call; the poison tables
    # answer some words whole.  The suite runs on one process per CPU
    monkeypatch.setattr("filtra.split._cpu_count", lambda: 2)
    code, report = run_cli(capsys, "stability", "--example", "poison", "--count", "40", "--seed", "1")
    stats = report["timings"]["stats"]
    assert code == 1
    assert stats["samples_drawn"] == (3 * 4 + 3 * 3) * 39
    assert 0 < stats["short_word_hits"] < stats["samples_drawn"]
    assert stats["processes"] == 2
    code, report = run_cli(capsys, "stability", "--example", "congruence", "--count", "1", "--seed", "1")
    assert code == 0 and report["timings"]["stats"] == {"samples_drawn": 0, "short_word_hits": 0, "processes": 2}


def test_sampled_commands_report_their_processes(capsys, monkeypatch):
    # holomorph-identities and rep --samples split their samples over one
    # process per CPU and report their number as stability does, and
    # holomorph-identities the words its samplers built; one sample runs on
    # one process, and rep without samples runs no suite
    monkeypatch.setattr("filtra.split._cpu_count", lambda: 2)
    rep = ["rep", "--gamma", "1,3;0,1", "--y", "1,0;3,1"]
    for argv, stats in [
        (["holomorph-identities", "--backend", "free", "--count", "5", "--seed", "1"],
         {"samples_drawn": 30, "processes": 2}),
        (["holomorph-identities", "--backend", "congruence", "--count", "1", "--seed", "1"],
         {"samples_drawn": 6, "processes": 1}),
        (rep + ["--samples", "5", "--seed", "1"], {"processes": 2}),
    ]:
        code, report = run_cli(capsys, *argv)
        assert code == 0 and report["timings"]["stats"] == stats, argv
    code, report = run_cli(capsys, *rep, "--samples", "0")
    assert code == 0 and "stats" not in report["timings"]


@pytest.mark.parametrize("backend", ["congruence", "free"])
def test_holomorph_identities_build_each_sample_once(capsys, monkeypatch, backend):
    # a sample is six words, built by the one process that owns it; the
    # others only advance the stream, so the words built summed over the
    # processes stay six a sample on any CPU count, as does the payload
    argv = ["holomorph-identities", "--backend", backend, "--count", "7", "--seed", "1"]
    payloads = []
    for cpus in (1, 2, 4):
        monkeypatch.setattr("filtra.split._cpu_count", lambda: cpus)
        code, report = run_cli(capsys, *argv)
        assert code == 0 and report.pop("timings")["stats"] == {"samples_drawn": 6 * 7, "processes": cpus}
        payloads.append(report)
    assert payloads[0] == payloads[1] == payloads[2]


def test_stability_congruence_command_deterministic(capsys):
    args = ["stability", "--example", "congruence", "-p", "3", "--r0", "1", "--s0", "1",
            "--rmax", "1", "--smax", "1", "--count", "30", "--seed", "42"]
    code1, report1 = run_cli(capsys, *args)
    code2, report2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    report1.pop("timings")
    report2.pop("timings")
    assert report1 == report2


def test_out_path(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["quotient", "--family", "gamma", "-p", "3", "-i", "1", "-j", "2", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    saved = json.loads(target.read_text())
    assert saved["results"]["order"] == 27


@pytest.mark.parametrize("argv", [
    ["stability", "--example", "congruence", "--count", "0", "--seed", "1"],
    ["holomorph-identities", "--backend", "congruence", "--count", "0", "--seed", "1"],
    ["rep", "--gamma", "1,3;0,1", "--y", "1,0;3,1", "--samples", "-1", "--seed", "1"],
    ["graded", "verify", "-p", "3", "--qmax", "1"],
    ["rep-ball", "-p", "3", "--base", "1", "--target", "3", "--radius", "0", "--seed", "1"],
    ["rep-ball", "-p", "3", "--base", "0", "--target", "3", "--seed", "1"],
    ["rep-ball", "-p", "3", "--base", "2", "--target", "2", "--seed", "1"],
    ["freegroup-fixtures", "--nmax", "1"],
    ["holomorph-identities", "--backend", "congruence", "-p", "4", "--seed", "1"],
    ["stability", "--example", "congruence", "--rmax", "-1", "--smax", "0", "--count", "5", "--seed", "1"],
    ["stability", "--example", "congruence", "--rmax", "0", "--smax", "-1", "--count", "5", "--seed", "1"],
    ["pcongruence", "--family", "gamma", "-p", "3", "--jmax", "0", "-e", "3", "--seed", "1"],
])
def test_vacuous_sizes_are_refused(capsys, argv):
    # each size one short of checking anything exits 2 instead of reporting
    # "ok" on no samples; the congruence backend keeps its prime check
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage error" in captured.err


def _largest_exponent(p):
    j = 1
    while (p ** (j + 1)).bit_length() <= MAX_MODULUS_BITS:
        j += 1
    return j


@pytest.mark.parametrize("p", [2, 3, 1048573])
def test_tower_modulus_bound(capsys, p):
    # p^j may have MAX_MODULUS_BITS bits; one level deeper exits 2 at once
    j = _largest_exponent(p)
    assert (p ** j).bit_length() <= MAX_MODULUS_BITS < (p ** (j + 1)).bit_length()
    quotient = ["quotient", "--family", "pgamma", "-p", str(p), "-i", "1"]
    pcongruence = ["pcongruence", "--family", "gamma", "-p", str(p), "--jmax", "1", "-e", "3", "--seed", "1"]
    assert main(quotient + ["-j", str(j)]) == 0
    assert main(pcongruence + ["--r0", str(j - 1)]) == 0
    capsys.readouterr()
    started = time.perf_counter()
    assert main(quotient + ["-j", str(j + 1)]) == 2
    assert main(pcongruence + ["--r0", str(j)]) == 2
    assert main(quotient + ["-j", str(10 ** 9)]) == 2
    assert main(pcongruence + ["--r0", str(10 ** 9)]) == 2
    assert time.perf_counter() - started < 0.5
    captured = capsys.readouterr()
    assert captured.out == "" and "more than %d bits" % MAX_MODULUS_BITS in captured.err


def test_pcongruence_jmax_bound(capsys):
    args = ["pcongruence", "--family", "gamma", "-p", "3", "-e", "3", "--seed", "1", "--jmax"]
    code, report = run_cli(capsys, *args, str(MAX_JMAX))
    assert code == 0 and report["timings"]["stats"] == {"pairs_certified": MAX_JMAX * (MAX_JMAX + 1) // 2}
    started = time.perf_counter()
    for jmax in (MAX_JMAX + 1, 10 ** 9):
        assert main(args + [str(jmax)]) == 2
    assert time.perf_counter() - started < 0.5
    captured = capsys.readouterr()
    assert captured.out == "" and "--jmax must be at most %d" % MAX_JMAX in captured.err


def test_stability_count_bound(capsys):
    # sample_level holds whole columns, so --count is bounded; the
    # benchmark's counts (500 congruence, 200 poison) stay accepted
    assert 500 <= MAX_SAMPLE_COUNT
    args = ["stability", "--seed", "1", "--count"]
    started = time.perf_counter()
    for example in EXAMPLES:
        for count in (MAX_SAMPLE_COUNT + 1, 10 ** 7):
            assert main(args + [str(count), "--example", example]) == 2
    assert time.perf_counter() - started < 0.5
    captured = capsys.readouterr()
    assert captured.out == "" and "--count must be at most %d" % MAX_SAMPLE_COUNT in captured.err


def _identity_literal(n):
    return ";".join(",".join("1" if i == j else "0" for j in range(n)) for i in range(n))


def test_sample_size_bounds(capsys):
    # holomorph-identities --count, rep --samples and rep's matrix size are
    # bounded; the benchmark's sizes (1000, 500, n <= 3) stay accepted
    assert (MAX_IDENTITY_COUNT, MAX_FAITHFUL_SAMPLES, MAX_REP_N) >= (1000, 500, 4)
    edge = _identity_literal(MAX_REP_N)
    code, report = run_cli(capsys, "rep", "--n", str(MAX_REP_N), "--gamma", edge, "--y", edge,
                           "--samples", "1", "--seed", "1")
    assert code == 0 and report["results"]["n_squared"] == MAX_REP_N ** 2
    started = time.perf_counter()
    for backend in ("congruence", "free"):
        for count in (MAX_IDENTITY_COUNT + 1, 10 ** 9):
            assert main(["holomorph-identities", "--backend", backend, "--count", str(count), "--seed", "1"]) == 2
    rep = ["rep", "--mod", "9", "--gamma", "1,3;0,1", "--y", "1,0;3,1", "--seed", "1", "--samples"]
    for samples in (MAX_FAITHFUL_SAMPLES + 1, 10 ** 9):
        assert main(rep + [str(samples)]) == 2
    wide = _identity_literal(MAX_REP_N + 1)
    assert main(["rep", "--n", str(MAX_REP_N + 1), "--gamma", wide, "--y", wide]) == 2
    assert main(["rep", "--n", "1000000", "--gamma", "1,3;0,1", "--y", "1,0;3,1"]) == 2
    assert time.perf_counter() - started < 0.5
    err = capsys.readouterr().err
    assert err.count("--count must be at most %d" % MAX_IDENTITY_COUNT) == 4
    assert err.count("--samples must be between 0 and %d" % MAX_FAITHFUL_SAMPLES) == 2
    assert err.count("--n must be at most %d" % MAX_REP_N) == 2


def test_stability_depth_bound(capsys):
    # the congruence suite measures exponents up to max(r0, s0) + max(rmax, smax) + 1,
    # bounded as quotient and pcongruence bound theirs
    j = _largest_exponent(3)
    args = ["stability", "--example", "congruence", "--rmax", "1", "--smax", "0", "--count", "2", "--seed", "1"]
    assert main(args + ["--r0", str(j - 2), "--s0", str(j - 2)]) == 0
    capsys.readouterr()
    started = time.perf_counter()
    assert main(args + ["--r0", str(j - 1)]) == 2
    assert main(args + ["--s0", str(j - 1)]) == 2
    assert main(["stability", "--example", "congruence", "--r0", "3000", "--count", "5", "--seed", "1"]) == 2
    assert time.perf_counter() - started < 0.5
    captured = capsys.readouterr()
    assert captured.out == "" and "more than %d bits" % MAX_MODULUS_BITS in captured.err


def test_stability_cap_bound(capsys):
    # the congruence suite runs (cap + 1)(cap + 2)/2 cells at cap =
    # max(rmax, smax), so both are bounded; the default 3 stays accepted
    assert 3 <= MAX_DEPTH_CAP
    args = ["stability", "--example", "congruence", "--count", "1", "--seed", "1"]
    code, report = run_cli(capsys, *args, "--rmax", str(MAX_DEPTH_CAP), "--smax", str(MAX_DEPTH_CAP))
    assert code == 0 and report["config"]["rmax"] == MAX_DEPTH_CAP
    started = time.perf_counter()
    for flag in ("--rmax", "--smax"):
        for cap in (MAX_DEPTH_CAP + 1, 400, 10 ** 9):
            assert main(args + [flag, str(cap)]) == 2
    assert time.perf_counter() - started < 0.5
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("rmax and smax must be at most %d" % MAX_DEPTH_CAP) == 6


def test_stability_cell_bits_bound(capsys):
    # the suite's cells times the bit length of p^(max(r0, s0) + cap + 1)
    # is bounded: cap 6 at r0 = s0 = 316 (28 cells at 512 bits) ran 36.7 s
    # at count 200.  The deepest flags test_stability_depth_bound runs
    # (2 cells at 512 bits) and the default flags at every prime below 2^20
    # (10 cells at 100 bits or fewer: 1048573 is the largest prime below 2^20)
    # stay accepted
    assert 2 * MAX_MODULUS_BITS <= MAX_CELL_BITS and 10 * (1048573 ** 5).bit_length() <= MAX_CELL_BITS
    args = ["stability", "--example", "congruence", "--rmax", "6", "--smax", "6", "--count", "1", "--seed", "1"]
    code, report = run_cli(capsys, *args, "--r0", "15", "--s0", "15")   # 28 cells at 35 bits
    assert code == 0 and report["ok"]
    started = time.perf_counter()
    assert main(args + ["--r0", "16", "--s0", "16"]) == 2   # 28 cells at 37 bits
    assert main(args[:-4] + ["--r0", "316", "--s0", "316", "--count", "200", "--seed", "1"]) == 2
    assert main(args[:-4] + ["--r0", "316", "--s0", "316", "--count", "10", "--seed", "1"]) == 2
    assert time.perf_counter() - started < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "28 cells at a 37-bit modulus: cells x bits must be at most %d" % MAX_CELL_BITS in captured.err
    assert captured.err.count("28 cells at a 512-bit modulus") == 2


def test_graded_verify_qmax_bound(capsys):
    code, report = run_cli(capsys, "graded", "verify", "-p", "2", "--qmax", str(MAX_JMAX))
    assert code == 0 and report["ok"]
    started = time.perf_counter()
    for qmax in (MAX_JMAX + 1, 10 ** 6):
        assert main(["graded", "verify", "-p", "3", "--qmax", str(qmax)]) == 2
    assert time.perf_counter() - started < 0.5
    captured = capsys.readouterr()
    assert captured.out == "" and "--qmax must be between 2 and %d" % MAX_JMAX in captured.err


def test_graded_bracket_depth_bound(capsys):
    # the bracket lifts both classes mod p^(q+s+1), bounded as the tower
    # commands bound their moduli; a layer below 1 is refused too
    j = _largest_exponent(3)
    args = ["graded", "bracket", "-p", "3", "-s", "1", "--c1", "1,0,0", "--c2", "0,1,0", "-q"]
    code, report = run_cli(capsys, *args, str(j - 2))
    assert code == 0 and report["results"] == {"bracket": "0,0,1", "level": j - 1}
    started = time.perf_counter()
    for q in (j - 1, 10 ** 6):
        assert main(args + [str(q)]) == 2
    assert time.perf_counter() - started < 0.5
    captured = capsys.readouterr()
    assert captured.out == "" and "more than %d bits" % MAX_MODULUS_BITS in captured.err
    assert main(args + ["0"]) == 2
    assert main(["graded", "bracket", "-p", "3", "-q", "1", "-s", "0", "--c1", "1,0,0", "--c2", "0,1,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("level must be >= 1") == 2


def test_rep_ball_bounds(capsys):
    # --radius is bounded, and the modulus p^target follows the 512-bit rule
    j = _largest_exponent(3)
    args = ["rep-ball", "-p", "3", "--base", "1", "--seed", "1"]
    code, report = run_cli(capsys, *args, "--target", "3", "--radius", str(MAX_BALL_RADIUS))
    assert code == 0 and report["results"]["ball_size"] == 3 ** 6
    code, report = run_cli(capsys, *args, "--target", str(j), "--radius", "1")
    assert code == 0 and report["results"]["ball_size"] == 7
    started = time.perf_counter()
    for radius in (MAX_BALL_RADIUS + 1, 10 ** 6):
        assert main(args + ["--target", "3", "--radius", str(radius)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("1 <= --radius <= %d" % MAX_BALL_RADIUS) == 2
    for target in (j + 1, 8000):
        assert main(args + ["--target", str(target), "--radius", "1"]) == 2
    assert time.perf_counter() - started < 0.5
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("more than %d bits" % MAX_MODULUS_BITS) == 2


def test_freegroup_fixtures_nmax_bound(capsys):
    code, report = run_cli(capsys, "freegroup-fixtures", "--nmax", str(MAX_NMAX))
    assert code == 0 and report["ok"]
    started = time.perf_counter()
    for nmax in (MAX_NMAX + 1, 10 ** 6):
        assert main(["freegroup-fixtures", "--nmax", str(nmax)]) == 2
    assert time.perf_counter() - started < 0.5
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("--nmax must be between 2 and %d" % MAX_NMAX) == 2


_TOWER_MODULES = {"filtra", "filtra.cli", "filtra.exactmat", "filtra.graded", "filtra.filtration"}

_LOADED_MODULES = """
import contextlib, io, json, sys
import filtra.cli
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert filtra.cli.main(argv) in (0, 1)
print(json.dumps(sorted(name for name in sys.modules if name.partition(".")[0] == "filtra")))
"""


@pytest.mark.parametrize("argv, added", [
    ([], set()),
    (["quotient", "--family", "gamma", "-p", "3", "-i", "1", "-j", "2"], set()),
    (["pcongruence", "--family", "pgamma", "-p", "3", "--jmax", "2", "-e", "3", "--seed", "1"], set()),
    (["graded", "verify", "-p", "3", "--qmax", "2"], set()),
    (["graded", "bracket", "-p", "3", "-q", "1", "-s", "1", "--c1", "1,0,0", "--c2", "0,1,0"], set()),
    (["rep", "--gamma", "1,3;0,1", "--y", "1,0;3,1", "--samples", "2", "--seed", "1"],
     {"linrep", "holomorph", "split"}),
    (["rep-ball", "-p", "3", "--base", "1", "--target", "2", "--radius", "1", "--seed", "1"],
     {"linrep", "holomorph", "split"}),
    (["holomorph-identities", "--backend", "congruence", "--count", "2", "--seed", "1"],
     {"holomorph", "stability", "split"}),
    (["holomorph-identities", "--backend", "free", "--count", "2", "--seed", "1"],
     {"holomorph", "freegroup", "stability", "split"}),
    (["stability", "--example", "congruence", "--rmax", "1", "--smax", "1", "--count", "2", "--seed", "1"],
     {"stability", "holomorph", "split"}),
    (["stability", "--example", "poison", "--count", "2", "--seed", "1"],
     {"stability", "holomorph", "freegroup", "split"}),
    (["freegroup-fixtures", "--nmax", "2"], {"freegroup"}),
])
def test_commands_load_only_their_modules(argv, added):
    # importing the CLI loads the tower layer alone, the tower commands load
    # nothing more, and every other command adds just the modules it runs
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(filtra.__file__)))
    proc = subprocess.run([sys.executable, "-c", _LOADED_MODULES, json.dumps(argv)],
                          capture_output=True, text=True, timeout=30, env=env)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) == _TOWER_MODULES | {"filtra." + name for name in added}


def test_no_module_enumerates_quotients():
    # the enumerated quotient tables are the test oracle alone: no filtra
    # module defines or imports them, so no command can build one
    import importlib
    import pkgutil

    import quotient_tables

    names = {"kernel_enumerate", "QuotientTable", "_enumerate"}
    assert names <= set(vars(quotient_tables))
    for info in pkgutil.iter_modules(filtra.__path__):
        module = vars(importlib.import_module("filtra." + info.name))
        assert not (names | {"quotient_tables"}) & set(module), info.name
        assert quotient_tables not in module.values(), info.name


def test_rep_ball_command(capsys):
    code, report = run_cli(
        capsys, "rep-ball", "-p", "3", "--base", "1", "--target", "3", "--radius", "2", "--seed", "1"
    )
    assert code == 0 and report["ok"]


def test_emit_rejects_non_finite_floats(tmp_path, capsys):
    from filtra.cli import _emit

    out = tmp_path / "report.json"
    with pytest.raises(ValueError):
        _emit({"results": {"level": float("inf")}}, str(out))
    assert capsys.readouterr().out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["rep", "--n", "2", "--mod", "9", "--gamma", "2,0;0,1", "--y", "1,0;0,1"],
    ["rep", "--n", "3", "--mod", "9", "--gamma", "1,3;0,1", "--y", "1,0;3,1"],
])
def test_rep_rejects_non_sl_and_size_mismatch(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage error" in captured.err


def test_rep_ball_p2_has_no_false_collisions(capsys):
    code, report = run_cli(
        capsys, "rep-ball", "-p", "2", "--base", "1", "--target", "3", "--radius", "3", "--seed", "1"
    )
    assert code == 0 and report["results"]["collisions"] == 0


def _benchmark_workloads():
    import importlib.util
    import pathlib
    import sys

    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module.WORKLOADS


def test_benchmark_commands_run(capsys):
    # every command of the benchmark, with its sample counts capped, still
    # parses and exits as the benchmark expects
    for name, commands in _benchmark_workloads().items():
        for command in commands:
            argv = command.argv(1, count_cap=5)
            assert main(argv) == command.expect_code, (name, argv)
            capsys.readouterr()


def test_benchmark_payloads_match_their_digests(capsys):
    # every command of the benchmark at seed 1, uncapped, exits as the
    # benchmark expects and keeps the payload digest perfbench/digests.json
    # records for it: the SHA-256 of the report without timings, compact
    import pathlib

    digests = json.loads((pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text())
    for name, commands in _benchmark_workloads().items():
        for index, command in enumerate(commands):
            argv = command.argv(1)
            assert main(argv) == command.expect_code, (name, argv)
            report = json.loads(capsys.readouterr().out)
            report.pop("timings")
            text = json.dumps(report, sort_keys=True, separators=(",", ":"))
            assert hashlib.sha256(text.encode()).hexdigest() == digests[name]["1"][index], (name, argv)


def test_benchmark_reads_existing_names():
    # every function a per-layer metric of perfbench/run.py wraps, and the
    # guard perfbench/layers.py imports, is a name in filtra, apart from the
    # keys layers.py builds itself and the names ROADMAP item 5 retires
    import importlib
    import pathlib
    import re

    text = (pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "run.py").read_text()
    names = {"filtration.enum_guard_limit", re.search(r'^_KE = "([\w.]+)"', text, re.M).group(1)}
    for args in re.findall(r"\b_(?:calls|self|total)\(([^)]*)\)", text):
        names.update(re.findall(r'"([\w.]+)"', args))

    def resolves(name):
        module, *path = name.split(".")
        obj = importlib.import_module("filtra." + module)
        for part in path:
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True

    built_by_layers = {"exactmat.det", "exactmat.mul2", "exactmat.inv2", "exactmat.mulN", "exactmat.invN"}
    retired = {"filtration.kernel_enumerate", "filtration.QuotientTable.minimal_generators",
               "filtration.QuotientTable.generating_set", "filtration.QuotientTable.exponent",
               "filtration.minimal_generators", "linrep.delta_mul"}
    assert {name for name in names if not resolves(name)} == built_by_layers | retired


def test_benchmark_replay_child_reproduces_poison_failures(tmp_path, capsys):
    # the benchmark calls the library directly in one place, its replay
    # child: every stable_condition2 failure of a poison report reproduces
    report = tmp_path / "poison.json"
    argv = ["stability", "--example", "poison", "--count", "200", "--seed", "1", "--out", str(report)]
    assert main(argv) == 1
    capsys.readouterr()
    child = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "child.py")
    result = tmp_path / "replay.json"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(filtra.__file__)))
    proc = subprocess.run([sys.executable, child, "replay", str(result), str(report)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(result.read_text())
    assert counts["replayed"] == counts["reproduced"] == 103


@pytest.mark.parametrize("example, checks", [
    (["congruence", "--rmax", "1", "--smax", "1"], ["check_stable", "check_twist_equivalence",
                                                    "product_filtration_check", "check_stably_lie_like",
                                                    "check_G_lie_like"]),
    (["poison"], ["check_stable", "check_twist_equivalence"]),
])
def test_benchmark_trace_spans_every_check(tmp_path, example, checks):
    # the benchmark's tracer rebinds module globals, so the fixture table
    # must call each check by its name when it runs for the check's span to
    # record anything
    child = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "child.py")
    result = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(filtra.__file__)))
    argv = ["stability", "--example", *example, "--count", "5", "--seed", "1"]
    proc = subprocess.run([sys.executable, child, "trace", str(result), "--", *argv],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode in (0, 1), proc.stderr
    spans = json.loads(result.read_text())["layers"]["spans"]
    assert {"stability." + name for name in checks} <= spans.keys()


# -- the CLI boundary under arbitrary arguments -------------------------------

def _argv(words, required, optional=()):
    """The command words, every required flag, and each optional flag whose
    drawn value is not None (argparse's missing-flag exit is covered by
    ``test_usage_error_exit_code``)."""
    strategies = [values.map(lambda v, f=flag: [f, str(v)]) for flag, values in required]
    strategies += [st.one_of(st.none(), values).map(lambda v, f=flag: [] if v is None else [f, str(v)])
                   for flag, values in optional]
    return st.tuples(*strategies).map(lambda drawn: list(words) + [a for pair in drawn for a in pair])


# each value strategy draws valid and invalid values about equally often
SMALL = st.one_of(st.integers(1, 3), st.integers(-1, 4))
SEEDS = st.integers(-3, 10 ** 20)
PRIMES = st.one_of(st.sampled_from([2, 3, 5, 7]), st.sampled_from([-3, 0, 1, 4, 1048583]))
MATRICES = st.one_of(
    st.sampled_from(["1,0;0,1", "1,3;0,1", "1,0;3,1", "2,0;0,1", "-1,0;0,-1", "1", "1,1,0;0,1,0;0,0,1",
                     "1,0,0,0;0,1,0,0;0,0,1,0;0,0,1,1", _identity_literal(MAX_REP_N + 1)]),
    st.text(alphabet="0123456789,; x", max_size=12),
)
MODULI = st.one_of(
    st.sampled_from([0, 1, 2, 4, 9, 12, 27, 3 ** 40, 1048573, 1048583, 1048583 ** 2, 2 ** 61 - 1, 10 ** 30,
                     2 ** 512, 2 ** 14000]),
    st.integers(-10, 10 ** 40),
)
# stability exponents and relation-table depths, within and past their bounds
DEPTHS = st.one_of(st.integers(-1, 3), st.just(10 ** 4))
QMAX = st.one_of(SMALL, st.sampled_from([17, 10 ** 6]))
# graded layers, rep-ball targets and radii, and fixture ranks, within and past their bounds
LAYERS = st.one_of(SMALL, st.sampled_from([400, 10 ** 6]))
TARGETS = st.one_of(SMALL, st.sampled_from([600, 10 ** 5]))
RADII = st.one_of(st.integers(-1, 2), st.sampled_from([MAX_BALL_RADIUS + 1, 10 ** 6]))
NMAX = st.one_of(st.integers(-1, 3), st.sampled_from([MAX_NMAX + 1, 10 ** 6]))
# stability sample counts, within and past their bound
COUNTS = st.one_of(st.integers(-1, 5), st.sampled_from([MAX_SAMPLE_COUNT + 1, 10 ** 7]))
IDENTITY_COUNTS = st.one_of(st.integers(-1, 5), st.sampled_from([MAX_IDENTITY_COUNT + 1, 10 ** 9]))
SAMPLES = st.one_of(st.integers(-1, 3), st.sampled_from([MAX_FAITHFUL_SAMPLES + 1, 10 ** 9]))
# rep's matrix sizes, within and past their bound, with literals to match
SIZES = st.one_of(SMALL, st.sampled_from([MAX_REP_N + 1, 10 ** 6]))
COORDS = st.one_of(st.lists(st.integers(0, 9), min_size=2, max_size=3).map(lambda v: ",".join(map(str, v))),
                   st.text(alphabet="0123456789, x", max_size=8))

# sizes stay small: the sample counts a command accepts stay below 6
CLI_ARGV = {
    "quotient": _argv(["quotient"], [("--family", st.sampled_from(["pgamma", "gamma"])), ("-p", PRIMES),
                                     ("-i", SMALL), ("-j", st.one_of(st.integers(2, 5), SMALL))]),
    "pcongruence": _argv(["pcongruence"], [("--family", st.sampled_from(["pgamma", "gamma"])), ("-p", PRIMES),
                                           ("--jmax", SMALL), ("-e", SMALL), ("--seed", SEEDS)],
                         [("--r0", SMALL)]),
    "stability": _argv(["stability"], [("--example", st.sampled_from(list(EXAMPLES))), ("--seed", SEEDS),
                                       ("--count", COUNTS)],
                       [("-p", st.sampled_from([2, 3, -1, 0, 4])), ("--r0", DEPTHS), ("--s0", DEPTHS),
                        ("--rmax", st.integers(-1, 2)), ("--smax", st.integers(-1, 2))]),
    "graded-bracket": _argv(["graded", "bracket"], [("-p", PRIMES), ("-q", LAYERS), ("-s", LAYERS),
                                                    ("--c1", COORDS), ("--c2", COORDS)]),
    "graded-verify": _argv(["graded", "verify"], [("-p", PRIMES), ("--qmax", QMAX)], [("--seed", SEEDS)]),
    "rep": _argv(["rep"], [("--gamma", MATRICES), ("--y", MATRICES)],
                 [("--n", SIZES), ("--mod", MODULI), ("--samples", SAMPLES), ("--seed", SEEDS)]),
    "rep-ball": _argv(["rep-ball"], [("-p", PRIMES), ("--base", SMALL), ("--target", TARGETS), ("--seed", SEEDS)],
                      [("--radius", RADII)]),
    "holomorph-identities": _argv(["holomorph-identities"], [
        ("--backend", st.sampled_from([entry.backend for entry in EXAMPLES.values() if entry.backend])),
        ("--seed", SEEDS), ("--count", IDENTITY_COUNTS)],
        [("-p", PRIMES)]),
    "freegroup-fixtures": _argv(["freegroup-fixtures"], [], [("--nmax", NMAX)]),
}

def _reject_constant(name):
    raise ValueError("non-finite number %s in the report" % name)


@pytest.mark.parametrize("command", sorted(CLI_ARGV))
def test_cli_exit_codes_and_strict_json(command):
    # any arguments: an exit code in {0, 1, 2} (argparse's SystemExit
    # included), a strict JSON report on stdout whenever the code is 0 or 1,
    # and no exception or traceback escaping main

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(CLI_ARGV[command])
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue()
        text = out.getvalue()
        if code in (0, 1):
            report = json.loads(text, parse_constant=_reject_constant)
            assert report["ok"] is (code == 0)
        else:
            assert text == ""

    check()
