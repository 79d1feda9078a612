"""One child process of the benchmark.

    python child.py run    RESULT_JSON -- CLI ARGS...   run one filtra command
    python child.py trace  RESULT_JSON -- CLI ARGS...   the same, with layer spans
    python child.py startup RESULT_JSON                 start up and exit
    python child.py replay RESULT_JSON REPORT_JSON      replay poison failures

``filtra`` is imported from ``PYTHONPATH``, which the parent points at the
``src/`` of the checkout under test.  The result file holds CLOCK_MONOTONIC
readings, which the parent compares with its own: ``ready`` is taken once
``filtra.cli`` (and so every module) is imported, ``start`` and ``end``
bracket ``filtra.cli.main``, which has written the report when it returns.
The result file is written only when the command returns, so a crash
leaves none.

The speed of a shared host changes with its neighbours' load, by tens of
percent and for minutes at a time.  So that the benchmark measures filtra
and not the neighbours, the child times a fixed pure-Python probe, which
does the kind of work filtra does (small frozen matrices built from
generator expressions, hashed into a set): ten times right after start-up,
and in ``run`` mode every ``PROBE_INTERVAL_S`` while the command runs, from
a SIGALRM handler.  ``setup_factor`` and ``factor`` are the means of
``REF_PROBE_S / probe time`` over those samples: multiplied by a measured
time they give it at the reference speed.  ``probe_s`` is the time the
handler took inside ``main``, which the parent subtracts.  Traced runs take
no samples while the command runs, so that the spans time filtra alone.
"""

import gc
import json
import signal
import sys
import time
from dataclasses import dataclass

#: The probe's duration at the reference speed.  A constant: it only sets
#: the scale of the rescaled times, the same for every run and commit.
REF_PROBE_S = 1e-4
PROBE_INTERVAL_S = 0.02
SETUP_PROBES = 10


@dataclass(frozen=True)
class _Mat:
    entries: tuple

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        for row in rows:
            for e in row:
                if not isinstance(e, int):
                    raise TypeError("entries must be integers")
        object.__setattr__(self, "entries", rows)

    def __mul__(self, other):
        a, b = self.entries, other.entries
        return _Mat(tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
                          for i in range(2)))


_LEFT = _Mat(((1, 3), (0, 1)))
_RIGHT = _Mat(((1, 0), (3, 1)))


class SpeedProbe:
    """Samples of the probe's duration, and the time spent taking them."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def sample(self):
        entered = time.perf_counter()
        # A collection started by the probe's allocations would time the
        # command's garbage, not the host.
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        m, seen = _LEFT, set()
        for _ in range(10):
            m = m * _RIGHT
            seen.add(m.entries)
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.samples.append(end - start)
        self.spent += time.perf_counter() - entered

    def factor(self):
        return sum(REF_PROBE_S / s for s in self.samples) / len(self.samples)

    def _on_alarm(self, signum, frame):
        self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _write(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


def _replay(report_path):
    """Re-verify every stable_condition2 failure of a poison report."""
    from filtra.stability import poison_extension, replay_failure

    with open(report_path) as fh:
        report = json.load(fh)
    ext = poison_extension()
    failures = [f for check in report["results"] for f in check["failures"]
                if f["kind"] == "stable_condition2"]
    return {"replayed": len(failures),
            "reproduced": sum(1 for f in failures if replay_failure(ext, f))}


def main(argv):
    mode, result_path = argv[0], argv[1]
    import filtra.cli

    out = {"ready": time.monotonic()}
    probe = SpeedProbe()
    for _ in range(SETUP_PROBES):
        probe.sample()
    out["setup_factor"] = probe.factor()
    if mode == "startup":
        _write(result_path, out)
        return 0
    if mode == "replay":
        out.update(_replay(argv[2]))
        _write(result_path, out)
        return 0
    if mode not in ("run", "trace") or argv[2] != "--":
        raise SystemExit("unknown child invocation: %r" % (argv,))
    tracer = None
    if mode == "trace":
        from layers import Tracer

        tracer = Tracer.install()
    cli_args = argv[3:]
    probe.spent = 0.0
    out["start"] = time.monotonic()
    if tracer is None:
        probe.start()
    try:
        code = filtra.cli.main(cli_args)
    finally:
        probe.stop()
    out["end"] = time.monotonic()
    out["code"] = code
    out["probe_s"] = probe.spent
    out["factor"] = probe.factor()
    if tracer is not None:
        out["layers"] = tracer.snapshot()
    _write(result_path, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
