import json

import pytest

from filtra.cli import main
from filtra.stability import poison_extension, replay_failure


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    start = out.index("{")
    return code, out[:start], json.loads(out[start:])


def test_quotient_command(capsys):
    code, _, report = run_cli(capsys, "quotient", "--family", "pgamma", "-p", "2", "-i", "1", "-j", "2")
    assert code == 0
    assert report["results"]["order"] == 4
    assert report["results"]["exponent"] == 2
    assert report["results"]["d"] == 2
    assert report["schema_version"] == 1


def test_quotient_guard_exit_code(capsys):
    code = main(["quotient", "--family", "pgamma", "-p", "3", "-i", "1", "-j", "6"])
    err = capsys.readouterr().err
    assert code == 3
    assert "guard" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["stability", "--example", "congruence"])  # --seed is mandatory
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc2:
        main(["nonsense"])
    assert exc2.value.code == 2


def test_graded_bracket_output(capsys):
    code, before, report = run_cli(
        capsys, "graded", "bracket", "-p", "3", "-q", "1", "-s", "1", "--c1", "1,0,0", "--c2", "0,1,0"
    )
    assert code == 0
    assert before.strip() == "0,0,1"
    assert report["results"]["bracket"] == "0,0,1"


def test_graded_verify(capsys):
    code, _, report = run_cli(capsys, "graded", "verify", "-p", "3", "--qmax", "3")
    assert code == 0 and report["ok"]


def test_rep_command(capsys):
    code, before, report = run_cli(
        capsys, "rep", "--n", "2", "--mod", "9", "--gamma", "1,3;0,1", "--y", "1,0;3,1"
    )
    assert code == 0
    assert before.strip() == report["results"]["rho"]
    rows = report["results"]["rho"].split(";")
    assert len(rows) == 4 and all(len(r.split(",")) == 4 for r in rows)


def test_rep_bad_modulus(capsys):
    code = main(["rep", "--mod", "12", "--gamma", "1,0;0,1", "--y", "1,0;0,1"])
    assert code == 2
    assert "prime power" in capsys.readouterr().err


def test_bad_inputs_map_to_usage_errors(capsys):
    code = main(["graded", "bracket", "-p", "3", "-q", "1", "-s", "1", "--c1", "1,0", "--c2", "0,1,0"])
    assert code == 2
    code = main(["rep", "--gamma", "1,x;0,1", "--y", "1,0;0,1"])
    assert code == 2
    capsys.readouterr()


def test_holomorph_identities_command(capsys):
    code, _, report = run_cli(
        capsys, "holomorph-identities", "--backend", "free", "--count", "50", "--seed", "4"
    )
    assert code == 0 and report["ok"]


def test_freegroup_fixtures_command(capsys):
    code, _, report = run_cli(capsys, "freegroup-fixtures", "--nmax", "3")
    assert code == 0 and report["ok"]
    ids = [c["id"] for c in report["results"]]
    assert "fp_generator_1" in ids and "shift_action_n3" in ids


def test_pcongruence_command(capsys):
    code, _, report = run_cli(
        capsys, "pcongruence", "--family", "gamma", "-p", "3", "--jmax", "2", "-e", "3", "--seed", "2"
    )
    assert code == 0 and report["ok"]
    code2, _, report2 = run_cli(
        capsys, "pcongruence", "--family", "gamma", "-p", "3", "--jmax", "2", "-e", "2", "--seed", "2"
    )
    assert code2 == 1 and not report2["ok"]


def test_stability_poison_command(capsys):
    code, _, report = run_cli(
        capsys, "stability", "--example", "poison", "--seed", "1", "--count", "80"
    )
    assert code == 1
    stable = next(r for r in report["results"] if r["condition"] == "stable")
    assert stable["verdict"] == "fail"
    failure = stable["failures"][0]
    assert failure["kind"] == "stable_condition2"
    assert replay_failure(poison_extension(), failure)


def test_stability_congruence_command_deterministic(capsys):
    args = ["stability", "--example", "congruence", "-p", "3", "--r0", "1", "--s0", "1",
            "--rmax", "1", "--smax", "1", "--count", "30", "--seed", "42"]
    code1, _, report1 = run_cli(capsys, *args)
    code2, _, report2 = run_cli(capsys, *args)
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


def test_rep_ball_command(capsys):
    code, _, report = run_cli(
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
