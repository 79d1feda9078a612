"""The filtra benchmark: real CLI commands, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --record-digests

Each command of a workload runs in a fresh interpreter that imports
``filtra`` from the checkout's ``src/``; commands run one at a time (a closed
loop with a single client).  A pass runs every command of the workload once.
Passes repeat while another one fits into ``--seconds``; a run makes at
least two plain passes, so that a slow spell of a shared host weighs less
on the median.

With ``--trace 0`` the run reports the end-to-end metrics:

- ``wall_s``: time inside ``filtra.cli.main`` summed over a pass's commands,
  median over the passes;
- ``setup_s``: interpreter start plus importing ``filtra.cli`` (every
  module), as the median over all start-ups of the run (the commands and
  eight start-ups without a command) times the number of commands in a pass;
- ``peak_rss_mb``: the highest peak RSS of any command in a pass, median
  over the passes;
- ``verified_ops``: verified commands / commands attempted.

Both times are taken at the reference speed of the host: ``child.py``
samples a fixed probe while it runs and rescales what it measured by the
probe's speed, so that a host slowed by its neighbours does not read as a
slower filtra.  The progress lines on stderr show the raw times as well.

With ``--trace 1`` the first half of ``--seconds`` runs plain passes and the
second half traced ones, in which ``layers.Tracer`` wraps every public
``filtra`` function; the run reports the per-layer metrics (counts from the
first traced pass, times as medians over the traced passes) and
``trace_overhead_s``, the traced minus the plain median ``wall_s``, both
raw, since traced commands take no probe samples.

A command is verified when it exits with its expected code, its ``--out``
report parses as strict JSON (no NaN or Infinity) with the expected ``ok``,
and the SHA-256 of the report without ``timings`` matches the digest in
``digests.json`` for this seed; on a seed without recorded digests it must
match the command's first digest of the run.  The poison command must carry
``stable_condition2`` failures, which a separate child replays with
``filtra.stability.replay_failure`` after the timed passes.

The last line on stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"
WORK_PARENT = ROOT / ".perfbench_work"

#: Seeds whose payload digests ``--record-digests`` writes.
DIGEST_SEEDS = tuple(range(0, 13))
#: Plain passes per run of the end-to-end metrics, however long they take.
MIN_PLAIN_PASSES = 2
#: Start-ups without a command per run, after one that fills the bytecode cache.
EXTRA_STARTUPS = 8
#: Every run, its commands included, ends within this many seconds.
RUN_LIMIT_S = 170.0
#: The value the self-check gives to every ``--count`` and ``--samples``.
SELF_CHECK_COUNT = 20
#: How often the parent looks whether its running child has ended.
POLL_S = 0.005


class BenchError(Exception):
    """The benchmark cannot run here (for example, no ``src/filtra``)."""


# --- children -----------------------------------------------------------------

@dataclass
class Child:
    code: int | None
    timed_out: bool
    result: dict | None
    rss_mb: float
    spawned: float
    stderr: str


class Runner:
    """Runs the commands of one workload and verifies every report."""

    def __init__(self, workload: str, seed: int, count_cap: int | None = None,
                 expected: list | None = None):
        if not (SRC / "filtra" / "cli.py").is_file():
            raise BenchError("no filtra sources at %s" % SRC)
        self.workload = workload
        self.commands = WORKLOADS[workload]
        self.seed = seed
        self.count_cap = count_cap
        self.expected = expected
        self.first_digest = {}
        self.attempted = 0
        self.failures = []
        self.replay_reports = {}
        self.deadline = time.monotonic() + RUN_LIMIT_S
        WORK_PARENT.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_PARENT))
        self.env = dict(os.environ)
        self.env.pop("FILTRA_MAX_ENUM", None)
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PYTHONHASHSEED"] = "0"

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK_PARENT.rmdir()
        except OSError:
            pass

    def spawn(self, args) -> Child:
        result_path = self.work / "child.json"
        err_path = self.work / "stderr.txt"
        if result_path.exists():
            result_path.unlink()
        with open(err_path, "w") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(CHILD), args[0], str(result_path)] + args[1:],
                                    stdout=subprocess.DEVNULL, stderr=err, env=self.env, cwd=ROOT)
            timed_out = False
            try:
                while True:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if time.monotonic() > self.deadline:
                        timed_out = True
                        proc.kill()
                        pid, status, usage = os.wait4(proc.pid, 0)
                        break
                    time.sleep(POLL_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        result = None
        if result_path.exists():
            result = json.loads(result_path.read_text())
        return Child(proc.returncode, timed_out, result, usage.ru_maxrss / 1024.0, spawned,
                     err_path.read_text()[-2000:])

    def startup(self) -> float:
        """Start a child that only imports filtra; its set-up time."""
        child = self.spawn(["startup"])
        if child.code != 0 or child.result is None:
            raise BenchError("start-up failed:\n" + child.stderr)
        return (child.result["ready"] - child.spawned) * child.result["setup_factor"]

    def fail(self, what, reason, stderr=""):
        """Record a failure of ``what``: a command index or a check's name."""
        self.failures.append("%s[%s]: %s" % (self.workload, what, reason))
        print("FAILED %s[%s]: %s %s" % (self.workload, what, reason, stderr.strip()), file=sys.stderr)

    # -- one pass ------------------------------------------------------------

    def run_pass(self, traced: bool) -> "Pass":
        out = Pass()
        started = time.monotonic()
        for index, command in enumerate(self.commands):
            if time.monotonic() > self.deadline:
                out.aborted = True
                break
            self.attempted += 1
            report_path = self.work / ("report%d.json" % index)
            if report_path.exists():
                report_path.unlink()
            argv = command.argv(self.seed, self.count_cap) + ["--out", str(report_path)]
            child = self.spawn(["trace" if traced else "run", "--"] + argv)
            out.peak_rss_mb = max(out.peak_rss_mb, child.rss_mb)
            res = child.result
            if res is not None:
                out.setups.append((res["ready"] - child.spawned) * res["setup_factor"])
            reason = self._verify(index, command, child, report_path, out)
            if reason:
                self.fail(index, reason, child.stderr)
                out.failed += 1
                if child.timed_out:
                    out.aborted = True
                    break
                continue
            raw = res["end"] - res["start"] - res["probe_s"]
            out.raw_wall_s += raw
            out.wall_s += raw * res["factor"]
            if traced:
                out.add_layers(res["layers"])
        out.elapsed = time.monotonic() - started
        return out

    def _verify(self, index, command, child, report_path, out):
        if child.timed_out:
            return "timed out"
        if child.result is None:
            return "crashed with exit code %s" % child.code
        if child.code != command.expect_code:
            return "exit code %s, expected %s" % (child.code, command.expect_code)
        try:
            text = report_path.read_text()
            report = json.loads(text, parse_constant=_reject_constant)
        except (OSError, ValueError) as exc:
            return "report is not strict JSON: %s" % exc
        if report.get("ok") is not command.expect_ok:
            return "ok is %r, expected %r" % (report.get("ok"), command.expect_ok)
        out.report_bytes += len(text.encode())
        if report.get("command") == "stability":
            out.stability_samples += sum(check["samples"] for check in report["results"])
            out.stability_failures += sum(len(check["failures"]) for check in report["results"])
        if command.replay:
            kinds = [f["kind"] for check in report["results"] for f in check["failures"]]
            if "stable_condition2" not in kinds:
                return "no stable_condition2 failure to replay"
            self.replay_reports.setdefault(index, text)
        report.pop("timings", None)
        digest = hashlib.sha256(_canonical(report).encode()).hexdigest()
        out.digests.append(digest)
        want = self.expected[index] if self.expected else self.first_digest.setdefault(index, digest)
        if digest != want:
            return "payload digest %s, expected %s" % (digest[:16], want[:16])
        return None

    def replay(self):
        """Replay the kept poison failures outside the timed passes."""
        for index, text in self.replay_reports.items():
            self.attempted += 1
            path = self.work / ("replay%d.json" % index)
            path.write_text(text)
            child = self.spawn(["replay", str(path)])
            res = child.result
            if child.code != 0 or res is None:
                self.fail(index, "replay crashed", child.stderr)
            elif res["replayed"] == 0 or res["reproduced"] != res["replayed"]:
                self.fail(index, "%d of %d failures replayed" % (res["reproduced"], res["replayed"]))

    def timed_passes(self, until: float, traced: bool, least: int = 1) -> list:
        """Passes while another one fits before ``until``; at least ``least``."""
        passes = []
        while True:
            passes.append(self.run_pass(traced))
            last = passes[-1]
            scaled = "" if traced else " wall_s=%.3f" % last.wall_s
            print("pass %d%s:%s raw=%.3f elapsed=%.3f" % (
                len(passes), " traced" if traced else "", scaled, last.raw_wall_s, last.elapsed),
                file=sys.stderr)
            if passes[-1].aborted:
                return passes
            typical = statistics.median(p.elapsed for p in passes)
            if len(passes) >= least and time.monotonic() + typical > until:
                return passes


def _reject_constant(name):
    raise ValueError("non-finite number %s" % name)


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


@dataclass
class Pass:
    """What one pass over a workload's commands measured."""

    wall_s: float = 0.0        # at the reference speed
    raw_wall_s: float = 0.0
    elapsed: float = 0.0
    peak_rss_mb: float = 0.0
    setups: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    failed: int = 0
    aborted: bool = False
    report_bytes: int = 0
    stability_samples: int = 0
    stability_failures: int = 0
    spans: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    max_candidates: int = 0
    guard: int = 1

    def add_layers(self, layers):
        for key, (calls, self_s, total_s) in layers["spans"].items():
            agg = self.spans.setdefault(key, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += self_s
            agg[2] += total_s
        for key, value in layers["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + value
        self.max_candidates = max(self.max_candidates, layers["max_candidates"])
        self.guard = layers["guard"]


# --- metrics --------------------------------------------------------------------

def end_to_end(runner: Runner, passes: list, setups: list) -> dict:
    attempted = max(runner.attempted, 1)
    return {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "setup_s": (len(runner.commands) * statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in passes), "MB"),
        "verified_ops": ((attempted - len(runner.failures)) / attempted, "ratio"),
    }


def _calls(*keys):
    return lambda p: sum(p.spans.get(k, (0, 0.0, 0.0))[0] for k in keys)


def _self(*keys):
    return lambda p: sum(p.spans.get(k, (0, 0.0, 0.0))[1] for k in keys)


def _total(key):
    return lambda p: p.spans.get(key, (0, 0.0, 0.0))[2]


def _module_self(module):
    return lambda p: sum(v[1] for k, v in p.spans.items() if k.startswith(module + "."))


def _counter(key):
    return lambda p: p.counters.get(key, 0)


def _ratio(num, den):
    return lambda p: num(p) / den(p) if den(p) else 0.0


_KE = "filtration.kernel_enumerate"

#: Per-layer metric -> (unit, value of one traced pass).  Counts and ratios
#: repeat exactly from pass to pass; times and sizes are medians over the
#: traced passes.
LAYER_METRICS = {
    "exactmat.mul2.calls": ("count", _calls("exactmat.mul2")),
    "exactmat.mul2.self_s": ("s", _self("exactmat.mul2")),
    "exactmat.inv2.calls": ("count", _calls("exactmat.inv2")),
    "exactmat.inv2.self_s": ("s", _self("exactmat.inv2")),
    "exactmat.mulN.calls": ("count", _calls("exactmat.mulN")),
    "exactmat.mulN.self_s": ("s", _self("exactmat.mulN")),
    "exactmat.invN.calls": ("count", _calls("exactmat.invN")),
    "exactmat.invN.self_s": ("s", _self("exactmat.invN")),
    "exactmat.det.calls": ("count", _calls("exactmat.det")),
    "exactmat.self_s": ("s", _module_self("exactmat")),
    "filtration.level_of.calls": ("count", _calls("filtration.level_of")),
    "filtration.level_of.self_s": ("s", _self("filtration.level_of")),
    _KE + ".calls": ("count", _calls(_KE)),
    _KE + ".cache_hits": ("count", _counter(_KE + ".cache_hits")),
    _KE + ".candidates": ("count", _counter(_KE + ".candidates")),
    _KE + ".elements": ("count", _counter(_KE + ".elements")),
    _KE + ".self_s": ("s", _self(_KE)),
    _KE + ".yield": ("ratio", _ratio(_counter(_KE + ".elements"), _counter(_KE + ".candidates"))),
    "filtration.guard_headroom": ("ratio", lambda p: p.max_candidates / p.guard),
    "filtration.minimal_generators.self_s": (
        "s", _self("filtration.QuotientTable.minimal_generators", "filtration.minimal_generators")),
    "filtration.generating_set.self_s": ("s", _self("filtration.QuotientTable.generating_set")),
    "filtration.exponent.self_s": ("s", _self("filtration.QuotientTable.exponent")),
    "holomorph.semi_mul.calls": ("count", _calls("holomorph.semi_mul")),
    "holomorph.semi_inv.calls": ("count", _calls("holomorph.semi_inv")),
    "holomorph.semi_conj.calls": ("count", _calls("holomorph.semi_conj")),
    "holomorph.semi_comm.calls": ("count", _calls("holomorph.semi_comm")),
    "holomorph.apply.matrix.calls": ("count", _calls("holomorph.MatrixConjugation.apply")),
    "holomorph.apply.matrix.self_s": ("s", _self("holomorph.MatrixConjugation.apply")),
    "holomorph.apply.word.calls": ("count", _calls("holomorph.FreeGroupAction.apply")),
    "holomorph.apply.word.self_s": ("s", _self("holomorph.FreeGroupAction.apply")),
    "holomorph.self_s": ("s", _module_self("holomorph")),
    "stability.sample_level.calls": ("count", _calls("stability.sample_level")),
    "stability.sample_level.elements": ("count", _counter("stability.sample_level.elements")),
    "stability.sample_level.self_s": ("s", _self("stability.sample_level")),
    "stability.check_stable.wall_s": ("s", _total("stability.check_stable")),
    "stability.check_twist_equivalence.wall_s": ("s", _total("stability.check_twist_equivalence")),
    "stability.product_filtration_check.wall_s": ("s", _total("stability.product_filtration_check")),
    "stability.check_stably_lie_like.wall_s": ("s", _total("stability.check_stably_lie_like")),
    "stability.check_G_lie_like.wall_s": ("s", _total("stability.check_G_lie_like")),
    "stability.samples": ("count", lambda p: p.stability_samples),
    "stability.failures": ("count", lambda p: p.stability_failures),
    "freegroup.word_mul.calls": ("count", _calls("freegroup.Word.__mul__")),
    "freegroup.word_mul.self_s": ("s", _self("freegroup.Word.__mul__")),
    "freegroup.endo_apply.calls": ("count", _calls("freegroup.EndoSpec.apply")),
    "freegroup.endo_apply.self_s": ("s", _self("freegroup.EndoSpec.apply")),
    "freegroup.endo_apply.letters_out": ("count", _counter("freegroup.endo_apply.letters_out")),
    "freegroup.lcs_depth2.calls": ("count", _calls("freegroup.lcs_depth2")),
    "graded.bracket.calls": ("count", _calls("graded.bracket")),
    "graded.bracket.self_s": ("s", _self("graded.bracket")),
    "graded.lift.calls": ("count", _calls("graded.lift")),
    "graded.class_of.calls": ("count", _calls("graded.class_of")),
    "graded.power_map.calls": ("count", _calls("graded.power_map")),
    "graded.self_s": ("s", _module_self("graded")),
    "linrep.rho.calls": ("count", _calls("linrep.rho")),
    "linrep.rho.self_s": ("s", _self("linrep.rho")),
    "linrep.random_sl.calls": ("count", _calls("linrep.random_sl")),
    "linrep.random_sl.self_s": ("s", _self("linrep.random_sl")),
    "linrep.delta_mul.calls": ("count", _calls("linrep.delta_mul")),
    "linrep.act.calls": ("count", _calls("linrep.act")),
    "linrep.self_s": ("s", _module_self("linrep")),
    "cli.self_s": ("s", _module_self("cli")),
    "cli.report_bytes": ("bytes", lambda p: p.report_bytes),
}


def per_layer(runner: Runner, plain: list, traced: list) -> dict:
    metrics = {}
    for name, (unit, value) in LAYER_METRICS.items():
        if unit in ("s", "bytes"):
            # Report sizes carry the digits of the report's own timings.
            metrics[name] = (statistics.median(value(p) for p in traced), unit)
            continue
        values = {value(p) for p in traced}
        if len(values) > 1:
            runner.fail("trace", "%s differs between traced passes: %s" % (name, sorted(values)))
        metrics[name] = (value(traced[0]), unit)
    overhead = (statistics.median(p.raw_wall_s for p in traced)
                - statistics.median(p.raw_wall_s for p in plain))
    metrics["trace_overhead_s"] = (overhead, "s")
    return metrics


def _as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


# --- modes ------------------------------------------------------------------------

def _load_digests() -> dict:
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text())
    return {}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    expected = _load_digests().get(workload, {}).get(str(seed))
    runner = Runner(workload, seed, expected=expected)
    try:
        runner.startup()  # fills the bytecode cache
        if trace:
            start = time.monotonic()
            plain = runner.timed_passes(start + seconds / 2, traced=False)
            traced = runner.timed_passes(start + seconds, traced=True)
            runner.replay()
            ok_passes = [p for p in traced if not p.failed]
            metrics = per_layer(runner, plain, ok_passes or traced)
        else:
            setups = [runner.startup() for _ in range(EXTRA_STARTUPS)]
            start = time.monotonic()
            passes = runner.timed_passes(start + seconds, traced=False, least=MIN_PLAIN_PASSES)
            runner.replay()
            setups += [s for p in passes for s in p.setups]
            metrics = end_to_end(runner, passes, setups)
    finally:
        runner.close()
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": _as_json(metrics),
    }


def record_digests() -> int:
    """Write the payload digests of every workload at DIGEST_SEEDS."""
    table = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for seed in DIGEST_SEEDS:
            runner = Runner(workload, seed)
            try:
                one = runner.run_pass(traced=False)
                runner.replay()
            finally:
                runner.close()
            if runner.failures:
                print("not recording: %s" % runner.failures, file=sys.stderr)
                return 1
            table[workload][str(seed)] = one.digests
            print("recorded %s seed %d" % (workload, seed), file=sys.stderr)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def self_check() -> int:
    """Small counts: every metric of BENCHMARK.json is emitted with its unit,
    traced counts repeat exactly, and tracing changes no payload digest."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        # One runner, so every pass must repeat the first pass's digests.
        runner = Runner(workload, DEFAULT_SEED, count_cap=SELF_CHECK_COUNT)
        try:
            setups = [runner.startup() for _ in range(2)]
            plain = [runner.run_pass(traced=False)]
            traced = [runner.run_pass(traced=True), runner.run_pass(traced=True)]
            runner.replay()
            e2e = end_to_end(runner, plain, setups)
            layers = per_layer(runner, plain, traced)
        finally:
            runner.close()
        problems += runner.failures
        if plain[0].digests != traced[0].digests:
            problems.append("%s: traced digests differ from plain ones" % workload)
        for got, want, kind in ((e2e, want_e2e, "end_to_end"), (layers, want_layer, "per_layer")):
            emitted = {name: unit for name, (_, unit) in got.items()}
            if emitted != want:
                problems.append("%s: %s metrics %s do not match BENCHMARK.json %s"
                                % (workload, kind, emitted, want))
        print("self-check %s: %d commands run" % (workload, runner.attempted), file=sys.stderr)
    for problem in problems:
        print("SELF-CHECK FAILED: %s" % problem, file=sys.stderr)
    print(json.dumps({"self_check": "fail" if problems else "pass", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    # A terminated run still kills its running child and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.self_check:
            return self_check()
        if args.record_digests:
            return record_digests()
        if args.workload is None:
            parser.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
