"""Span recorder and the layer boundaries it hooks, from outside the library.

A span is ``[name, parent, start, end]``.  The benchmark drives the library
from one thread, so spans nest: a layer's *self time* is its span's duration
minus the durations of its direct child spans, and the self times of all
spans add up to the duration of the root span.

:func:`install` wraps the public function at every layer boundary and returns
an undo callable; nothing is wrapped while end-to-end metrics are measured.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable

import repro.analysis
import repro.exec.runner
import repro.schedulers.base
import repro.sim.executor
from repro.exec.cache import ResultCache
from repro.schedulers.base import AttentionScheduler
from repro.schedulers.registry import ALL_SCHEDULERS
from repro.search.autotuner import AutoTuner
from repro.search.objective import SchedulerObjective
from repro.store.sqlite import SqliteStore

#: The clock of every span, pass and set-up (host wall time).
clock = time.perf_counter

#: Name of the benchmark's own root span; its self time is what no layer covers.
ROOT = "bench.pass"


class Recorder:
    """In-memory spans plus counters recorded at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, clock(), 0.0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][3] = clock()
        self._stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def totals(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls", "self_s", "total_s"}}`` over every closed span;
        a name with no span reads as zeros."""
        children = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        for (name, _, start, end), child in zip(self.spans, children):
            entry = totals[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - child
            entry["total_s"] += end - start
        return totals


def _spanned(
    rec: Recorder,
    name: str,
    original: Callable,
    count: Callable | None = None,
    when: Callable[[], bool] | None = None,
) -> Callable:
    """``original`` inside a span; ``count(args, result)`` runs inside it too."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if when is not None and not when():
            return original(*args, **kwargs)
        index = rec.open(name)
        try:
            result = original(*args, **kwargs)
            if count is not None:
                count(args, result)
            return result
        finally:
            rec.close(index)

    return wrapper


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every layer boundary so it records into ``rec``; returns the undo."""
    undo: list[Callable[[], None]] = []

    def patch(owner, attr: str, name: str, **options) -> None:
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        setattr(owner, attr, _spanned(rec, name, original, **options))
        undo.append(
            (lambda: setattr(owner, attr, original)) if had_own else (lambda: delattr(owner, attr))
        )

    def add(key: str, amount: Callable) -> Callable:
        def count(args, result) -> None:
            rec.counts[key] += amount(args, result)

        return count

    def lookup_done(args, result) -> None:
        rec.counts["store.hits" if result[1] == "hit" else "store.misses"] += 1

    for harness in ("run_table2", "run_table3"):
        patch(repro.analysis, harness, "analysis.tables")
    # ``execute_pair`` and ``simulate_graph`` are imported by name into the
    # modules that call them, and the executor facade into the scheduler base.
    patch(repro.exec.runner, "execute_pair", "exec.pair")
    patch(
        AttentionScheduler,
        "simulate",
        "exec.final_sim",
        when=lambda: rec.parent_name() == "exec.pair",
    )
    patch(ResultCache, "load", "exec.codec")
    patch(ResultCache, "store", "exec.codec")
    patch(SqliteStore, "lookup", "store.lookup", count=lookup_done)
    patch(SqliteStore, "put", "store.put")
    patch(SqliteStore, "close", "store.close")
    patch(AutoTuner, "tune", "search.strategy")
    patch(SchedulerObjective, "evaluate", "search.objective")
    patch(SchedulerObjective, "evaluate_batch", "search.objective")
    patch(
        AttentionScheduler,
        "analytic_bounds",
        "core.analytic",
        count=add("core.analytic.candidates", lambda args, result: len(result.cycles)),
    )
    # ``build`` is abstract: every registered dataflow defines its own.
    for cls in ALL_SCHEDULERS.values():
        patch(
            cls,
            "build",
            "schedulers.build",
            count=add("schedulers.build.tasks", lambda args, result: len(result.graph)),
        )
    patch(repro.schedulers.base, "simulate", "sim.result")
    patch(
        repro.sim.executor,
        "simulate_graph",
        "sim.engine",
        count=add("sim.engine.tasks", lambda args, result: len(args[0])),
    )

    def uninstall() -> None:
        while undo:
            undo.pop()()

    return uninstall
