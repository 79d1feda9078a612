"""One sampled run split over the CPUs the process may use.

``run_split(run, units)`` splits ``units`` independent units, numbered from
0, over P processes and returns ([run(mine) for each share], P).  P is the
number of CPUs the process may run on (its affinity mask, else
``os.cpu_count()``), capped at ``units``; it is 1, in process and with no
fork, on one CPU, where ``os.fork`` is missing, while another thread is
alive, or for fewer than two units.

A share is its ``mine``: ``mine(n)`` is true for the units n that the
share owns, those with n mod P equal to its index, so every unit belongs to
exactly one share.  This is the one place that rule is written; a caller's
``run`` sees only ``mine``.

Every caller splits its work the same way.  Every process advances the
whole seeded stream and builds only the samples it owns: for a unit of
another share it makes the same draws, in the same order, and builds and
checks nothing, so a unit's result does not depend on the process that
computed it.  The caller then assembles its report from the results of
every unit, as one process would, so what it reports does not depend on P.
``stability.run_suite`` splits a suite's cells (a unit is one cell of one
check call, seeded by its own RNG, so a process that does not own a cell
draws nothing for it) and builds its reports in a last pass over the suite
in which every unit is known and none is sampled;
``holomorph.verify_holomorph_identities`` and ``linrep.verify_faithful``
split their samples (a unit is one sample, advanced past with
``WordSampler.advance`` or ``linrep._transvections``) and sum the counts
of the shares.

The split forks P - 1 children before any work; child i runs share i and
sends its result back as JSON over a pipe (so its tuples read as lists),
while this process runs share 0 itself.  A child that does not finish its
share has that share re-run in this process, so an exception reaches the
caller as it would in one process.  Every child is killed and reaped before
``run_split`` returns or raises.
"""

from __future__ import annotations

import json
import os
import signal
import threading


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _process_count(units: int) -> int:
    """P: one process per CPU this process may use, capped at ``units``;
    1 without ``os.fork`` or while another thread is alive, since a forked
    child holds only the calling thread."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(_cpu_count(), units))


def _share(index, processes):
    """``mine`` of share ``index`` of ``processes``."""
    return lambda unit: unit % processes == index


def _fork(run, mine, index, children):
    """Start a process that runs ``run(mine)``, share ``index``, and sends
    its result back as JSON, and set ``children[index]`` to (pid, the read
    end of its pipe), or to None when no process could be started.

    The share runs in a forked copy of this process, not in a fresh
    interpreter (the ``spawn`` start method): filtra starts no thread, and
    a split runs in one process while another thread is alive; a fresh
    interpreter that imports ``filtra.cli`` took 65 ms (median of 40 runs,
    2 shared vCPUs), a large share of each process's half of the 0.5 s
    default congruence suite and more than the 0.08 s poison suite; and it
    would lose any action, law or evaluator the caller has rebound in
    process, such as an injected fault."""
    read, write = os.pipe()
    # SIGINT stays blocked until the child is inside its try and the parent
    # has recorded it, so the child never raises into the caller's stack
    # and the parent never loses a child it started
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        try:
            pid = os.fork()
        except OSError:
            children[index] = None
            os.close(read)
            return
        if pid == 0:
            code = 1
            try:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                os.close(read)
                result = run(mine)
                with open(write, "w") as pipe:
                    json.dump(result, pipe)
                code = 0
            finally:
                # leave without unwinding into the caller, flushing stdout
                # or running exit handlers; the parent re-runs a failed share
                os._exit(code)
        children[index] = pid, open(read)
    finally:
        os.close(write)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _collect(children, index):
    """Read child ``index``'s pipe to its end, reap the child, and return
    its JSON text, or None when it did not finish its share."""
    if children[index] is None:
        del children[index]
        return None
    pid, pipe = children[index]
    with pipe:
        data = pipe.read()
    status = os.waitpid(pid, 0)[1]
    del children[index]
    return data if status == 0 else None


def _stop(children):
    """Kill and reap every child not yet collected."""
    for child in children.values():
        if child is not None:
            pid, pipe = child
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # reaped already
                pass
    children.clear()


def run_split(run, units: int):
    """([run(mine) for the P shares, by index], P) for ``units`` units,
    each share run in its own process."""
    processes = _process_count(units)
    shares = [_share(index, processes) for index in range(processes)]
    children = {}
    try:
        for index in range(1, processes):
            _fork(run, shares[index], index, children)
        results = [run(shares[0])]
        for index in range(1, processes):
            data = _collect(children, index)
            results.append(run(shares[index]) if data is None else json.loads(data))
    finally:
        _stop(children)
    return results, processes
