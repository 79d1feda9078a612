import os

import pytest

import filtra.split


@pytest.fixture
def on_cpus(monkeypatch):
    """``on_cpus(cpus, verify, *args)``: ``verify(*args, stats=stats)`` as if
    this process could use ``cpus`` CPUs, returning (its result, the
    process count it reported) after checking that no child is left."""
    def call(cpus, verify, *args):
        monkeypatch.setattr(filtra.split, "_cpu_count", lambda: cpus)
        stats = {}
        try:
            result = verify(*args, stats=stats)
        finally:
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        return result, stats["processes"]

    return call
