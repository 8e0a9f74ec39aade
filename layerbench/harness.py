"""One benchmark run: set-up, measured passes, checks and metrics.

Every timing is host wall time (``spans.clock``); the benchmark drives the
library from one process and one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

import spans
import workloads
from repro.store import open_store

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Untraced passes per ``--trace 0`` run, and untraced/traced pass pairs per
#: ``--trace 1`` run, made even when ``--seconds`` is shorter.
MIN_PASSES = 2
#: Set-ups per run; regen-warm sets up once, since its set-up is a cold tune.
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "sweep_s": "s",
    "sims_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim.mas_speedup_geomean": "x",
    "search.tuned_gain_geomean": "x",
}

PER_LAYER_UNITS = {
    "schedulers.build.calls": "count",
    "schedulers.build.self_s": "s",
    "schedulers.build.tasks": "count",
    "schedulers.build.us_per_task": "us",
    "sim.engine.calls": "count",
    "sim.engine.self_s": "s",
    "sim.engine.us_per_task": "us",
    "sim.result.self_s": "s",
    "core.analytic.calls": "count",
    "core.analytic.candidates": "count",
    "core.analytic.self_s": "s",
    "search.strategy.self_s": "s",
    "search.objective.self_s": "s",
    "search.proposed": "count",
    "search.memo_hits": "count",
    "search.simulated": "count",
    "search.infeasible": "count",
    "search.pruned": "count",
    "search.useful_ratio": "ratio",
    "exec.pair.self_s": "s",
    "exec.final_sim_s": "s",
    "exec.codec.self_s": "s",
    "store.lookup.calls": "count",
    "store.lookup.self_s": "s",
    "store.lookup.p50_ms": "ms",
    "store.lookup.p90_ms": "ms",
    "store.hits": "count",
    "store.misses": "count",
    "store.put.calls": "count",
    "store.put.self_s": "s",
    "store.close.self_s": "s",
    "store.payload_kb": "KB",
    "analysis.tables.self_s": "s",
    "unaccounted_s": "s",
    "traced_sweep_s": "s",
    "traced_overhead_ratio": "ratio",
    "traced_overhead_iqr": "ratio",
}


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def per(amount: float, count: float) -> float:
    return amount / count if count else 0.0


class Bench:
    """One benchmark run: set-up, measured passes, checks and metrics."""

    def __init__(self, args: argparse.Namespace, scratch: Path) -> None:
        self.args = args
        self.workload = workloads.WORKLOADS[args.workload]
        if args.size == "tiny":
            self.workload = self.workload.tiny()
        self.scratch = scratch
        self.hardware = None
        self.warm_uri: str | None = None
        self.cold: dict | None = None
        self.reference: dict | None = None
        self.base_failures: dict = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.store_count = 0

    # ------------------------------------------------------------------ #
    def new_store(self) -> str:
        self.store_count += 1
        return f"sqlite:///{self.scratch}/store-{self.store_count}.db"

    def set_up(self) -> float:
        """One set-up: import the library in a fresh interpreter, then bring
        the workload to its start state (for regen-warm: a cold tune)."""
        start = spans.clock()
        subprocess.run(
            [sys.executable, "-c", "import repro.analysis"],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            check=True,
        )
        self.hardware = workloads.seeded_hardware(self.args.seed)
        if self.workload.warm:
            self.warm_uri = self.new_store()
            runs = workloads.collect(workloads.sweep(self.workload, self.hardware, self.warm_uri))
            self.cold = workloads.outcomes(runs)
        return spans.clock() - start

    def timed_pass(self, rec=None) -> tuple[float, dict, str]:
        """One measured sweep; traced into ``rec`` when given."""
        uri = self.warm_uri or self.new_store()
        uninstall = spans.install(rec) if rec is not None else None
        start = spans.clock()
        root = rec.open(spans.ROOT) if rec is not None else None
        try:
            runners = workloads.sweep(self.workload, self.hardware, uri)
        finally:
            if rec is not None:
                rec.close(root)
            wall = spans.clock() - start
            if uninstall is not None:
                uninstall()
        runs = workloads.collect(runners)
        results = workloads.outcomes(runs)
        self.check(runs, results)
        return wall, results, uri

    def check(self, runs: dict, results: dict) -> None:
        """Count the pass's failed pairs against the first pass and the cold tune."""
        if self.reference is None:
            self.reference = results
            self.base_failures = workloads.check_pairs(self.hardware, runs, self.workload.warm)
            for key, result in results.items():
                if self.cold is not None and not result.same_result(self.cold[key]):
                    self.base_failures.setdefault(key, "warm result differs from the cold tune")
            self.failures += [f"{key}: {why}" for key, why in self.base_failures.items()]
        bad = set(self.base_failures) | (set(self.reference) ^ set(results))
        for key, result in results.items():
            if key in self.reference and not result.same_result(self.reference[key]):
                bad.add(key)
                self.failures.append(f"{key}: differs from the first pass")
        self.attempted += len(results)
        self.failed += len(bad)

    # ------------------------------------------------------------------ #
    def end_to_end(self, setups: list[float]) -> tuple[dict, dict]:
        walls: list[float] = []
        rates: list[float] = []
        while len(walls) < MIN_PASSES or sum(walls) + statistics.median(walls) <= self.args.seconds:
            wall, results, _ = self.timed_pass()
            walls.append(wall)
            rates.append((len(results) + sum(r.simulated for r in results.values())) / wall)
        metrics = {
            "setup_s": statistics.median(setups),
            "sweep_s": statistics.median(walls),
            "sims_per_s": statistics.median(rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "sim.mas_speedup_geomean": workloads.mas_speedup_geomean(self.reference),
            "search.tuned_gain_geomean": workloads.tuned_gain_geomean(self.reference),
        }
        return metrics, {"untraced_walls": walls}

    def per_layer(self) -> tuple[dict, dict]:
        layer_runs: list[dict] = []
        ratios: list[float] = []
        pair_walls: list[float] = []
        while (
            len(ratios) < MIN_PASSES
            or sum(pair_walls) + statistics.median(pair_walls) <= self.args.seconds
        ):
            # Alternate which side goes first, so drift hits both equally.
            walls = {}
            for traced in (False, True) if len(ratios) % 2 == 0 else (True, False):
                rec = spans.Recorder() if traced else None
                wall, results, uri = self.timed_pass(rec)
                walls[traced] = wall
                if traced:
                    layer_runs.append(self.layer_metrics(rec, wall, results, uri))
            ratios.append(walls[True] / walls[False])
            pair_walls.append(walls[True] + walls[False])
        metrics = {
            name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]
        }
        metrics["traced_overhead_ratio"] = statistics.median(ratios)
        metrics["traced_overhead_iqr"] = quartile_spread(ratios)
        return metrics, {"pair_walls": pair_walls, "overhead_ratios": ratios}

    def layer_metrics(self, rec, wall: float, results: dict, uri: str) -> dict:
        totals = rec.totals()

        def self_s(name: str) -> float:
            return totals[name]["self_s"]

        def calls(name: str) -> int:
            return totals[name]["calls"]

        accounted = sum(entry["self_s"] for entry in totals.values())
        if abs(accounted - wall) > 0.05 * wall:
            self.failures.append(f"span self times sum to {accounted:.3f}s of {wall:.3f}s traced")
        lookups_ms = [1e3 * (end - start) for name, _, start, end in rec.spans if name == "store.lookup"]
        store = open_store(uri)
        try:
            stats = store.stats()
        finally:
            store.close()
        build_tasks = rec.counts["schedulers.build.tasks"]
        engine_tasks = rec.counts["sim.engine.tasks"]
        proposed = sum(r.proposed for r in results.values())
        candidates = sum(r.candidates for r in results.values())
        simulated = sum(r.simulated for r in results.values())
        return {
            "schedulers.build.calls": calls("schedulers.build"),
            "schedulers.build.self_s": self_s("schedulers.build"),
            "schedulers.build.tasks": build_tasks,
            "schedulers.build.us_per_task": 1e6 * per(self_s("schedulers.build"), build_tasks),
            "sim.engine.calls": calls("sim.engine"),
            "sim.engine.self_s": self_s("sim.engine"),
            "sim.engine.us_per_task": 1e6 * per(self_s("sim.engine"), engine_tasks),
            "sim.result.self_s": self_s("sim.result"),
            "core.analytic.calls": calls("core.analytic"),
            "core.analytic.candidates": rec.counts["core.analytic.candidates"],
            "core.analytic.self_s": self_s("core.analytic"),
            "search.strategy.self_s": self_s("search.strategy"),
            "search.objective.self_s": self_s("search.objective"),
            "search.proposed": proposed,
            "search.memo_hits": proposed - candidates,
            "search.simulated": simulated,
            "search.infeasible": sum(r.infeasible for r in results.values()),
            "search.pruned": sum(r.pruned for r in results.values()),
            "search.useful_ratio": per(simulated, proposed),
            "exec.pair.self_s": self_s("exec.pair"),
            "exec.final_sim_s": totals["exec.final_sim"]["total_s"],
            "exec.codec.self_s": self_s("exec.codec"),
            "store.lookup.calls": calls("store.lookup"),
            "store.lookup.self_s": self_s("store.lookup"),
            "store.lookup.p50_ms": statistics.median(lookups_ms) if lookups_ms else 0.0,
            "store.lookup.p90_ms": (
                statistics.quantiles(lookups_ms, n=10)[8] if len(lookups_ms) > 1 else 0.0
            ),
            "store.hits": rec.counts["store.hits"],
            "store.misses": rec.counts["store.misses"],
            "store.put.calls": calls("store.put"),
            "store.put.self_s": self_s("store.put"),
            "store.close.self_s": self_s("store.close"),
            "store.payload_kb": per(stats.total_bytes, stats.entries) / 1024,
            "analysis.tables.self_s": self_s("analysis.tables"),
            "unaccounted_s": self_s(spans.ROOT),
            "traced_sweep_s": wall,
        }

    # ------------------------------------------------------------------ #
    def run(self) -> dict:
        repeats = 1 if self.workload.warm else SETUP_REPEATS
        setups = [self.set_up() for _ in range(repeats)]
        if self.args.trace:
            metrics, samples = self.per_layer()
            units = PER_LAYER_UNITS
        else:
            metrics, samples = self.end_to_end(setups)
            units = END_TO_END_UNITS

        record = {
            "record": "layerbench",
            "workload": self.workload.name,
            "size": self.args.size,
            "seed": self.args.seed,
            "trace": self.args.trace,
            "host": {
                "cores": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "git_sha": git_sha(),
            },
            "samples": {"setups": len(setups), "pairs_per_pass": len(self.reference), **samples},
            "failures": self.failures[:20],
            "metrics": metrics,
        }
        print(json.dumps(record))
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
