import os
import signal

import pytest

import filtra.split
from filtra.split import _process_count, run_split


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` makes this process look as if it could use n CPUs; the
    test then checks that no child is left."""
    yield lambda n: monkeypatch.setattr(filtra.split, "_cpu_count", lambda: n)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _owned(units, ran_here=None):
    """A run that returns the units its share owns, appending them to
    ``ran_here`` when it runs in this process."""
    caller = os.getpid()

    def run(mine):
        owned = [unit for unit in range(units) if mine(unit)]
        if ran_here is not None and os.getpid() == caller:
            ran_here.append(owned)
        return owned

    return run


@pytest.mark.parametrize("processes", range(1, 6))
def test_the_shares_split_the_units(cpus, processes):
    # every unit belongs to exactly one share, and share i owns i, i + P, ...
    cpus(processes)
    for units in range(1, 8):
        results, used = run_split(_owned(units), units)
        assert used == min(processes, units)
        assert sorted(unit for owned in results for unit in owned) == list(range(units))
        assert results == [list(range(index, units, used)) for index in range(used)]


def test_one_process_per_cpu_capped_at_the_units(cpus):
    for n in range(1, 6):
        cpus(n)
        for units in range(8):
            assert _process_count(units) == (1 if units < 2 else min(n, units))


def test_a_child_that_cannot_start_runs_here(cpus, monkeypatch):
    cpus(4)
    expected, _ = run_split(_owned(7), 7)
    fork, forks = os.fork, []

    def failing_fork():
        forks.append(None)
        if len(forks) == 2:   # the child for share 2
            raise OSError("no process")
        return fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    ran_here = []
    results, processes = run_split(_owned(7, ran_here), 7)
    assert (results, processes) == (expected, 4)
    assert ran_here == [expected[0], expected[2]]


def test_a_killed_child_has_its_share_run_here(cpus):
    cpus(3)
    caller, ran_here = os.getpid(), []
    owned = _owned(5, ran_here)

    def run(mine):
        if os.getpid() != caller and mine(1):
            os.kill(os.getpid(), signal.SIGKILL)
        return owned(mine)

    results, processes = run_split(run, 5)
    assert (results, processes) == ([[0, 3], [1, 4], [2]], 3)
    assert ran_here == [[0, 3], [1, 4]]


def test_no_fork_keeps_one_process(cpus, monkeypatch):
    cpus(4)
    monkeypatch.delattr(os, "fork")
    assert run_split(_owned(5), 5) == ([[0, 1, 2, 3, 4]], 1)
