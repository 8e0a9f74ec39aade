"""Workloads, the measured sweep pass, and the checks on its outputs.

Every workload is a list of (suite, entries) sweeps driven through the public
API: :class:`~repro.exec.runner.ExperimentRunner` with one search worker and
the Table 2 / Table 3 harnesses, over a SQLite result store.  The workload
seed draws the device's energy coefficients; the tiling search itself always
runs with :data:`SEARCH_SEED`, so every seed does the same search work (the
cycles objective never reads an energy coefficient) while every energy
figure, Table 3 and every store key depend on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

import repro.analysis
from repro.analysis import ExperimentRunner, geometric_mean
from repro.hardware.config import HardwareConfig
from repro.hardware.presets import simulated_edge_device
from repro.schedulers.registry import make_scheduler

#: Base seed of every tiling search (see the module docstring).
SEARCH_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``(suite, entry names)``; ``None`` sweeps every entry of the suite.
    sweeps: tuple[tuple[str, tuple[str, ...] | None], ...]
    budget: int
    #: ``None`` is the device default (``mcts+ga`` on the edge device).
    strategy: str | None = None
    #: Regenerate from a store that set-up filled with a cold tune.
    warm: bool = False
    methods: tuple[str, ...] | None = None
    #: Keep only the first ``limit`` entries of each sweep (smoke-test size).
    limit: int | None = None

    def tiny(self) -> "Workload":
        """The same workload at smoke-test size."""
        return replace(self, budget=min(self.budget, 2), methods=("flat", "fusemax", "mas"), limit=1)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "table1-cold",
            (("table1", ("BERT-Base & T5-Base", "ViT-B/14", "XLM")),),
            budget=10,
        ),
        Workload("longctx-cold", (("long-context", ("BERT-Base @n2048",)),), budget=6, strategy="grid"),
        Workload("regen-warm", (("table1", None), ("decode-step", None)), budget=1, warm=True),
    )
}


def seeded_hardware(seed: int) -> HardwareConfig:
    """The simulated edge device with energy coefficients drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    hardware = simulated_edge_device()

    def scaled(value: float) -> float:
        return value * float(rng.uniform(0.8, 1.25))

    levels = {
        level: replace(
            getattr(hardware, level),
            read_pj_per_byte=scaled(getattr(hardware, level).read_pj_per_byte),
            write_pj_per_byte=scaled(getattr(hardware, level).write_pj_per_byte),
        )
        for level in ("dram", "l1", "l0")
    }
    return replace(
        hardware,
        **levels,
        mac_pj_per_op=scaled(hardware.mac_pj_per_op),
        vec_pj_per_op=scaled(hardware.vec_pj_per_op),
        leakage_pj_per_cycle=scaled(hardware.leakage_pj_per_cycle),
    )


def sweep(workload: Workload, hardware: HardwareConfig, store_uri: str) -> list[tuple]:
    """Regenerate Table 2 and Table 3 for every sweep of ``workload``.

    This is the measured pass.  The harnesses are called through the
    ``repro.analysis`` namespace so the traced run can wrap them.
    """
    runners = []
    methods = list(workload.methods) if workload.methods else None
    for suite, entries in workload.sweeps:
        runner = ExperimentRunner(
            hardware=hardware,
            search_budget=workload.budget,
            search_strategy=workload.strategy,
            seed=SEARCH_SEED,
            cache_uri=store_uri,
            search_workers=1,
            suite=suite,
        )
        networks = runner.networks(list(entries) if entries else None)[: workload.limit]
        repro.analysis.run_table2(runner, networks, methods)
        repro.analysis.run_table3(runner, networks, methods)
        runners.append((runner, networks, methods))
    return runners


@dataclass(frozen=True)
class Outcome:
    """What one (suite, entry, method) pair of a pass produced."""

    cycles: int
    energy_pj: float
    tiling: tuple
    best_value: float | None
    #: Objective value of the heuristic default tiling (tuned pairs only).
    default_value: float | None
    proposed: int = 0
    candidates: int = 0
    simulated: int = 0
    infeasible: int = 0
    pruned: int = 0

    def same_result(self, other: "Outcome") -> bool:
        return (self.cycles, self.energy_pj, self.tiling, self.best_value) == (
            other.cycles,
            other.energy_pj,
            other.tiling,
            other.best_value,
        )


def collect(runners) -> dict[tuple[str, str, str], tuple]:
    """``{(suite, entry, method): (workload, MethodRun)}`` of a finished pass."""
    runs = {}
    for runner, networks, methods in runners:
        for network in networks:
            for method in runner.methods(methods):
                runs[(runner.suite_name, network, method)] = (
                    runner.workload_for(network),
                    runner.run(method, network),
                )
    return runs


def outcome(run) -> Outcome:
    tuning = run.tuning
    tiling = tuple(sorted(run.result.metadata["tiling"].items()))
    if tuning is None:
        return Outcome(run.cycles, run.energy_pj, tiling, None, None)
    defaults = [rec.value for rec in tuning.history.records if rec.phase == "default"]
    stats = tuning.analytic_stats or {}
    fresh = not run.cached
    return Outcome(
        run.cycles,
        run.energy_pj,
        tiling,
        tuning.best_value,
        defaults[0] if defaults else None,
        proposed=len(tuning.history.records) if fresh else 0,
        candidates=(tuning.objective_evaluations or 0) if fresh else 0,
        simulated=stats.get("num_simulated", 0) if fresh else 0,
        infeasible=stats.get("num_infeasible", 0) if fresh else 0,
        pruned=stats.get("num_pruned", 0) if fresh else 0,
    )


def outcomes(runs) -> dict[tuple[str, str, str], Outcome]:
    return {key: outcome(run) for key, (_, run) in runs.items()}


def check_pairs(hardware: HardwareConfig, runs, warm: bool) -> dict[tuple, str]:
    """Re-check every pair of one pass; returns ``{key: first failed check}``.

    * re-simulating the reported tiling reproduces its cycles and energy.  A
      tuned pair's final simulation is a separate ``simulate`` call on the
      search's best, so the search's own evaluation of it (on a warm pair,
      the one the cold tune stored) is the reference; an untuned pair is
      re-simulated here by a fresh scheduler;
    * the cycles are no lower than the analytic lower bound for that tiling;
    * on a warm workload every searchable pair was served by the store.
    """
    failures = {}
    for key, (workload, run) in runs.items():
        scheduler = make_scheduler(run.scheduler, hardware)
        if run.tuning is not None:
            tiling, reference = run.tuning.best_tiling, run.tuning.history.best
        else:
            tiling = scheduler.default_tiling(workload)
            reference = scheduler.simulate(workload, tiling)
        bound = scheduler.analytic_bounds(workload, [tiling]).cycles[0]
        if (reference.cycles, reference.energy_pj) != (run.cycles, run.energy_pj):
            failures[key] = "re-simulation differs"
        elif run.cycles < bound:
            failures[key] = f"cycles {run.cycles} below analytic bound {int(bound)}"
        elif warm and scheduler.searchable and not run.cached:
            failures[key] = "warm pair was not served by the store"
    return failures


def mas_speedup_geomean(results: dict[tuple, Outcome]) -> float:
    """Geomean of MAS cycle speedups over every baseline on every entry."""
    speedups = []
    for (suite, network, method), result in results.items():
        mas = results.get((suite, network, "mas"))
        if method != "mas" and mas is not None:
            speedups.append(result.cycles / mas.cycles)
    return geometric_mean(speedups) if speedups else math.nan


def tuned_gain_geomean(results: dict[tuple, Outcome]) -> float:
    """Geomean of default-tiling value over best value, over tuned pairs."""
    gains = [
        r.default_value / r.best_value
        for r in results.values()
        if r.best_value is not None and r.default_value is not None and math.isfinite(r.default_value)
    ]
    return geometric_mean(gains) if gains else math.nan

