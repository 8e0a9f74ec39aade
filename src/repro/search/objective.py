"""Candidate evaluation for the tiling search.

Every candidate tiling is evaluated by building the scheduler's task graph and
running the analytical simulator — the same "evaluate with Timeloop/Accelergy
and feed the result back to the search" loop the paper describes.  Candidates
whose on-chip footprint cannot run at all (even the non-evictable residency
exceeds L1) are reported as infeasible and receive an infinite objective so
the searchers steer away from them.

Batch evaluation (:meth:`SchedulerObjective.evaluate_batch`) runs a
**vectorized analytic pre-pass** first
(:meth:`~repro.schedulers.base.AttentionScheduler.analytic_bounds`): the whole
batch's feasibility masks come from a few numpy expressions, so infeasible
candidates are marked without ever building a task graph, and the survivors
are simulated one after another.  When ``$MAS_ANALYTIC_PRUNE`` is enabled,
candidates whose provable lower bound on the objective already loses to the
incumbent skip their simulation entirely.  The pre-pass replicates the serial
feasibility rules exactly, so with pruning disabled (the default) the memo
table, the evaluation counts and every returned value are bit-identical to
calling :meth:`SchedulerObjective.evaluate` on each candidate in turn.

An evaluation keeps only the candidate's cycles, energy and objective value,
never the :class:`~repro.sim.trace.SimulationResult` it came from: the task
graph behind a result is large, and the runner re-simulates the winning
tiling anyway (determinism makes that identical).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from repro.core.analytic import AnalyticBounds
from repro.core.overwrite import InfeasibleTilingError
from repro.core.tiling import TilingConfig
from repro.obs import trace as obs_trace
from repro.schedulers.base import AttentionScheduler
from repro.sim.trace import SimulationResult
from repro.utils import env
from repro.utils.validation import require
from repro.workloads.attention import AttentionWorkload

__all__ = [
    "TilingEvaluation",
    "SchedulerObjective",
    "analytic_prune_enabled",
]

Metric = Literal["cycles", "energy", "edp"]

#: Candidates per pruning wave in :meth:`SchedulerObjective.evaluate_batch`.
#: A wave's candidates are simulated without re-checking the incumbent;
#: between waves it is re-checked.  A *fixed* wave size keeps pruned sweeps
#: deterministic while still letting early winners prune the rest of a large
#: batch.
PRUNE_WAVE = 8


def analytic_prune_enabled() -> bool:
    """Whether bound-dominated candidates are pruned against the incumbent.

    Off by default: pruning skips simulations whose outcome provably cannot
    beat the incumbent, which changes evaluation counts and history contents
    (never the best tiling's optimality) — so it is opt-in and excluded from
    the bit-identity guarantee.
    """
    return env.value("MAS_ANALYTIC_PRUNE") != "0"


@dataclass(frozen=True)
class TilingEvaluation:
    """Outcome of evaluating one tiling candidate."""

    tiling: TilingConfig
    feasible: bool
    cycles: int
    energy_pj: float
    value: float
    #: True when the candidate was never simulated because its analytic lower
    #: bound already lost to the incumbent.  ``value`` then holds that bound —
    #: a finite underestimate that keeps ranking signals for the stochastic
    #: searchers while remaining >= the incumbent (and therefore >= the final
    #: best), so a pruned candidate can never be reported as the winner.
    pruned: bool = False

    def better_than(self, other: "TilingEvaluation | None") -> bool:
        """Whether this evaluation improves on ``other`` (``None`` counts as worse)."""
        if other is None:
            return True
        return self.value < other.value


class SchedulerObjective:
    """Callable objective: tiling -> simulated cost for one scheduler/workload pair.

    Parameters
    ----------
    scheduler:
        The dataflow being tuned.
    workload:
        The attention shape being tuned for.
    metric:
        ``"cycles"`` (the paper's objective), ``"energy"`` or ``"edp"``
        (energy-delay product).
    allow_overflow:
        If false, tilings whose scheduler footprint exceeds L1 are marked
        infeasible outright.  MAS-Attention sets this to true because the
        proactive overwrite strategy handles the overflow (at extra DRAM
        cost); the baselines keep the strict check.
    analytic_prune:
        Prune candidates whose analytic lower bound on the metric already
        loses to the incumbent; ``None`` resolves to ``$MAS_ANALYTIC_PRUNE``
        (default off).
    """

    def __init__(
        self,
        scheduler: AttentionScheduler,
        workload: AttentionWorkload,
        metric: Metric = "cycles",
        allow_overflow: bool | None = None,
        analytic_prune: bool | None = None,
    ) -> None:
        require(metric in ("cycles", "energy", "edp"), f"unknown metric {metric!r}")
        self.scheduler = scheduler
        self.workload = workload
        self.metric = metric
        if allow_overflow is None:
            allow_overflow = scheduler.name == "mas"
        self.allow_overflow = allow_overflow
        if analytic_prune is None:
            analytic_prune = analytic_prune_enabled()
        self.analytic_prune = analytic_prune
        self._cache: dict[tuple, TilingEvaluation] = {}
        #: Non-memoized evaluations performed, feasible or not: every distinct
        #: candidate the search actually paid for (infeasible candidates cost
        #: a footprint check or a failed simulation — real search work).
        self.num_evaluations = 0
        #: Where those evaluations went: ``num_simulated`` full simulations,
        #: ``num_infeasible`` candidates rejected without simulating (footprint
        #: or hard-infeasibility), ``num_pruned`` candidates skipped because
        #: their analytic lower bound lost to the incumbent.  ``"analytic"``
        #: is always 1 (the pre-pass is unconditional); it stays so stored
        #: tunings keep one payload layout.
        self.analytic_stats: dict[str, int] = {
            "analytic": 1,
            "prune": int(self.analytic_prune),
            "num_simulated": 0,
            "num_infeasible": 0,
            "num_pruned": 0,
        }
        #: Best feasible objective value seen so far — the pruning incumbent.
        self._incumbent = float("inf")

    # ------------------------------------------------------------------ #
    def _key(self, tiling: TilingConfig) -> tuple:
        return (tiling.bb, tiling.hh, tiling.nq, tiling.nkv, tiling.kv_resident)

    def _value(self, result: SimulationResult) -> float:
        if self.metric == "cycles":
            return float(result.cycles)
        if self.metric == "energy":
            return float(result.energy_pj)
        return float(result.cycles) * float(result.energy_pj)

    def evaluate_uncached(self, tiling: TilingConfig) -> TilingEvaluation:
        """Evaluate one candidate directly: no memo lookup, no accounting.

        Pure with respect to ``self``.  The memoizing callers
        (:meth:`evaluate`, :meth:`evaluate_batch`) own the cache insert and
        the ``num_evaluations`` count.
        """
        tiling = tiling.clamp_to(self.workload)
        if not self.allow_overflow and not self.scheduler.fits(self.workload, tiling):
            return self._infeasible(tiling)
        try:
            result = self.scheduler.simulate(self.workload, tiling)
        except InfeasibleTilingError:
            return self._infeasible(tiling)
        return TilingEvaluation(
            tiling=tiling,
            feasible=True,
            cycles=result.cycles,
            energy_pj=result.energy_pj,
            value=self._value(result),
        )

    def _note(self, evaluation: TilingEvaluation) -> None:
        """Account for one fresh (non-memoized) evaluation outcome."""
        if evaluation.feasible:
            self.analytic_stats["num_simulated"] += 1
        else:
            self.analytic_stats["num_infeasible"] += 1
        if evaluation.feasible and evaluation.value < self._incumbent:
            self._incumbent = evaluation.value

    @staticmethod
    def _infeasible(tiling: TilingConfig) -> TilingEvaluation:
        """The evaluation of a rejected (footprint or hard-infeasible) candidate."""
        return TilingEvaluation(
            tiling=tiling, feasible=False, cycles=0, energy_pj=0.0, value=float("inf")
        )

    def _pruned(self, tiling: TilingConfig, bound: float) -> TilingEvaluation:
        self.analytic_stats["num_pruned"] += 1
        return TilingEvaluation(
            tiling=tiling, feasible=False, cycles=0, energy_pj=0.0, value=bound, pruned=True
        )

    def _value_bound(self, bounds: AnalyticBounds) -> np.ndarray:
        """Per-candidate analytic lower bound on the objective metric."""
        if self.metric == "cycles":
            return bounds.cycles.astype(float)
        if self.metric == "energy":
            return bounds.energy_pj.astype(float)
        return bounds.cycles.astype(float) * bounds.energy_pj.astype(float)

    def evaluate(self, tiling: TilingConfig) -> TilingEvaluation:
        """Evaluate one candidate (memoized on the tiling factors)."""
        tiling = tiling.clamp_to(self.workload)
        key = self._key(tiling)
        if key in self._cache:
            return self._cache[key]
        evaluation = self.evaluate_uncached(tiling)
        self._note(evaluation)
        self._cache[key] = evaluation
        self.num_evaluations += 1
        return evaluation

    def evaluate_batch(self, tilings: Sequence[TilingConfig]) -> list[TilingEvaluation]:
        """Evaluate many candidates at once (memoized).

        Returns one evaluation per input, aligned with the input order.  Only
        distinct not-yet-memoized tilings are evaluated — analytic pre-pass
        first, then a simulation per survivor — and merged into the memo
        table in first-occurrence order, so the resulting cache state,
        evaluation count and returned values are identical to calling
        :meth:`evaluate` on each tiling in turn (pruning disabled).
        """
        clamped = [tiling.clamp_to(self.workload) for tiling in tilings]
        pending: dict[tuple, TilingConfig] = {}
        for tiling in clamped:
            key = self._key(tiling)
            if key not in self._cache and key not in pending:
                pending[key] = tiling
        if pending:
            fresh = self._evaluate_pending(list(pending.values()))
            for key, evaluation in zip(pending, fresh):
                self._cache[key] = evaluation
                self.num_evaluations += 1
        return [self._cache[self._key(tiling)] for tiling in clamped]

    def _simulate(self, tilings: list[TilingConfig]) -> list[TilingEvaluation]:
        """Simulate ``tilings`` in order and account for each outcome.

        Each call is one "search.generation" span (no-op unless tracing is
        on): a GA generation, an MCTS rollout round, a grid slab, or one
        pruning wave of them.
        """
        with obs_trace.span("search.generation", layer="search", batch=len(tilings)):
            evaluations = [self.evaluate_uncached(tiling) for tiling in tilings]
        for evaluation in evaluations:
            self._note(evaluation)
        return evaluations

    def _evaluate_pending(self, tilings: list[TilingConfig]) -> list[TilingEvaluation]:
        """Analytic pre-pass + (pruned) simulation for deduplicated candidates.

        The feasibility mask replicates :meth:`evaluate_uncached` exactly —
        footprint overflow when the scheduler forbids it, hard infeasibility
        (the simulator's :class:`InfeasibleTilingError`) always — so the
        short-circuited rejects are indistinguishable from simulated ones.
        """
        bounds = self.scheduler.analytic_bounds(self.workload, tilings)
        infeasible = np.asarray(bounds.hard_infeasible, dtype=bool).copy()
        if not self.allow_overflow:
            infeasible |= bounds.footprint_bytes > self.scheduler.hardware.l1_bytes
        results: list[TilingEvaluation | None] = [None] * len(tilings)
        survivors: list[int] = []
        for index, tiling in enumerate(tilings):
            if infeasible[index]:
                results[index] = self._infeasible(tiling)
                self.analytic_stats["num_infeasible"] += 1
            else:
                survivors.append(index)

        if not self.analytic_prune:
            fresh = self._simulate([tilings[i] for i in survivors])
            for index, evaluation in zip(survivors, fresh):
                results[index] = evaluation
            return results

        # Simulate survivors in ascending-bound order, in fixed-size waves:
        # candidates whose bound already loses to the incumbent are pruned as
        # each wave is formed, and every completed wave tightens the incumbent
        # for the next one.  The wave size is a constant and the order is
        # fully deterministic, so pruned results are reproducible while early
        # winners still prune the rest of a large batch.
        value_bound = self._value_bound(bounds)
        order = sorted(survivors, key=lambda i: (float(value_bound[i]), i))
        for start in range(0, len(order), PRUNE_WAVE):
            wave = []
            for index in order[start : start + PRUNE_WAVE]:
                if value_bound[index] >= self._incumbent:
                    results[index] = self._pruned(tilings[index], float(value_bound[index]))
                else:
                    wave.append(index)
            fresh = self._simulate([tilings[i] for i in wave])
            for index, evaluation in zip(wave, fresh):
                results[index] = evaluation
        return results

    __call__ = evaluate

    @property
    def cache_size(self) -> int:
        """Number of distinct tilings evaluated so far."""
        return len(self._cache)
