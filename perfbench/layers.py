"""Span tracing of ``filtra`` from outside the package.

``Tracer.install()`` wraps the public functions of every ``filtra`` module
and the public methods (plus ``__mul__``, ``__pow__``, ``__neg__``) of every
class those modules define.  A module-level function is rebound in every
``filtra`` module that holds it, because callers look names up in their own
module (``stability`` calls its imported ``level_of``, ``cli`` its imported
``run_congruence_suite``); methods are patched on the class, which every
caller shares.  Private helpers stay unwrapped, so their time is self time
of the public function that called them.

Each span adds its duration to its parent's child time, so a key's
``self_s`` is its duration minus the part its child spans cover.  Spans are
kept as aggregates in memory and written out once, by ``snapshot``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time

#: Dunder methods that carry arithmetic worth a span of their own.
_ARITH_DUNDERS = ("__mul__", "__pow__", "__neg__")


def _public(name: str) -> bool:
    return not name.startswith("_") or name in _ARITH_DUNDERS


class Tracer:
    """Aggregated spans (calls, self time, total time) and extra counters."""

    def __init__(self):
        self.spans = {}        # key -> [calls, self_s, total_s]
        self.counters = {}     # key -> int
        self.max_candidates = 0
        self._stack = []
        self._seen_tables = set()

    # -- wrapping --------------------------------------------------------

    def _span(self, key):
        return self.spans.setdefault(key, [0, 0.0, 0.0])

    def wrap(self, fn, key, pick=None, observe=None):
        """A wrapper recording a span under ``key``; ``pick(args)`` may
        choose another key per call and ``observe(args, result)`` runs
        after the span has closed."""
        stack = self._stack
        clock = time.perf_counter
        fixed = self._span(key)
        span_of = self._span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = span_of(pick(args)) if pick is not None else fixed
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stats[0] += 1
                stats[1] += elapsed - child
                stats[2] += elapsed
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    @classmethod
    def install(cls) -> "Tracer":
        import filtra

        tracer = cls()
        modules = [importlib.import_module("filtra." + info.name)
                   for info in pkgutil.iter_modules(filtra.__path__)
                   if info.name != "__main__"]
        wrapped = {}   # id(original function) -> wrapper
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for name, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module.__name__ or name.startswith("_"):
                    continue
                if inspect.isclass(value):
                    if not issubclass(value, BaseException):
                        tracer._wrap_class(value, short)
                elif inspect.isfunction(value) and not inspect.isgeneratorfunction(value):
                    wrapped[id(value)] = tracer._wrap_function(value, short)
        for module in modules:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrapped:
                    setattr(module, name, wrapped[id(value)])
        return tracer

    def _wrap_function(self, fn, short):
        key = "%s.%s" % (short, fn.__name__)
        observe = None
        if key == "filtration.kernel_enumerate":
            observe = self._observe_kernel_enumerate
        elif key == "stability.sample_level":
            observe = self._count_result("stability.sample_level.elements", len)
        return self.wrap(fn, key, observe=observe)

    def _wrap_class(self, klass, short):
        for name, raw in list(vars(klass).items()):
            if not _public(name):
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                fn = raw.__func__
            elif inspect.isfunction(raw):
                fn = raw
            else:
                continue
            if getattr(fn, "__isabstractmethod__", False) or inspect.isgeneratorfunction(fn):
                continue
            key = "%s.%s.%s" % (short, klass.__name__, name)
            pick = observe = None
            if short == "exactmat" and name in ("__mul__", "inverse") and klass.__name__ in ("IntMat", "ModMat"):
                base = "exactmat.mul" if name == "__mul__" else "exactmat.inv"
                pick = functools.partial(_pick_by_size, base + "2", base + "N")
            elif short == "exactmat" and name == "det":
                key = "exactmat.det"
            elif key == "freegroup.EndoSpec.apply":
                observe = self._count_result("freegroup.endo_apply.letters_out", lambda w: len(w.letters))
            wrapper = self.wrap(fn, key, pick=pick, observe=observe)
            if isinstance(raw, staticmethod):
                wrapper = staticmethod(wrapper)
            elif isinstance(raw, classmethod):
                wrapper = classmethod(wrapper)
            setattr(klass, name, wrapper)

    # -- counters read from results ----------------------------------------

    def _count_result(self, key, size):
        counters = self.counters
        counters.setdefault(key, 0)

        def observe(args, result):
            counters[key] += size(result)

        return observe

    def _observe_kernel_enumerate(self, args, table):
        # A table object handed out before is the module cache answering.
        for key in ("cache_hits", "candidates", "elements"):
            self.counters.setdefault("filtration.kernel_enumerate." + key, 0)
        if id(table) in self._seen_tables:
            self.counters["filtration.kernel_enumerate.cache_hits"] += 1
            return
        self._seen_tables.add(id(table))
        candidates = table.p ** (4 * (table.j - table.i))
        self.counters["filtration.kernel_enumerate.candidates"] += candidates
        self.counters["filtration.kernel_enumerate.elements"] += table.order
        self.max_candidates = max(self.max_candidates, candidates)

    def snapshot(self) -> dict:
        from filtra.filtration import enum_guard_limit

        spans = {k: list(v) for k, v in self.spans.items() if v[0]}
        return {
            "spans": spans,
            "counters": dict(self.counters),
            "max_candidates": self.max_candidates,
            "guard": enum_guard_limit(),
        }


def _pick_by_size(two, other, args):
    return two if len(args[0].entries) == 2 else other
