"""Spans around the calls into each layer of the program, recorded from
outside it.

Family methods are timed through ``TracedInstance``, a delegating proxy
handed to ``multistart`` in place of the instance.  ``draw_starts``,
``classify``, ``dedup`` and the ``serialize`` entry points are wrapped at
the module attributes the program resolves them through, for the duration
of a ``Tracer.patched`` block.  Spans are folded into per-name totals as
they close, so memory stays flat however many calls a round makes.  Single
threaded only: one stack of open spans.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

FAMILY_METHODS = ("residual", "residual_jacobian", "hessian", "energy",
                  "gradient", "sample_start")
FAMILY_MODULES = ("lattices", "clusters", "games", "puzzles")


class Tracer:
    def __init__(self):
        self._stack = []  # open spans: [name, time spent in child spans]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls_under = defaultdict(int)  # (parent name, name) -> calls

    def wrap(self, name, fn):
        """``fn`` with a span called ``name`` around every call."""
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            stack.append([name, 0.0])
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()[1]
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - child
                self.calls_under[(parent, name)] += 1
                if stack:
                    stack[-1][1] += dt
            return out

        return traced

    @contextlib.contextmanager
    def patched(self, sb):
        """Wrap the module attributes that ``multistart`` and
        ``check_result`` look up at call time; restore them on exit."""
        targets = [
            (sb.solvers, "multistart", "solvers.multistart"),
            (sb.solvers, "draw_starts", "solvers.draw_starts"),
            (sb.solvers, "classify", "core.classify"),
            (sb.solvers, "dedup", "core.dedup"),
            (sb.core, "classify", "core.classify"),
            (sb.serialize, "save_result", "serialize.save_result"),
            (sb.serialize, "load_result", "serialize.load_result"),
            (sb.serialize, "check_result", "serialize.check_result"),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
        try:
            for module, attr, name in targets:
                setattr(module, attr, self.wrap(name, getattr(module, attr)))
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)


class TracedInstance:
    """Delegating proxy whose family methods run inside spans named
    ``<module>.<method>``; everything else passes through untouched."""

    def __init__(self, instance, tracer):
        self._instance = instance
        module = type(instance).__module__.rsplit(".", 1)[-1]
        for method in FAMILY_METHODS:
            setattr(self, method, tracer.wrap(f"{module}.{method}",
                                              getattr(instance, method)))

    def __getattr__(self, name):
        return getattr(self._instance, name)
