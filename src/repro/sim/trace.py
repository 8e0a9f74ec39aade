"""Simulation trace and result containers."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.hardware.config import HardwareConfig
from repro.hardware.energy import AccessCounters, EnergyBreakdown
from repro.sim.tasks import Task, TaskGraph, TaskKind
from repro.utils.units import cycles_to_seconds


@dataclass(frozen=True)
class TaskRecord:
    """Scheduled timing of one task."""

    task: Task
    start: int
    finish: int

    @property
    def duration(self) -> int:
        return self.finish - self.start


class Trace:
    """Full schedule produced by the simulator.

    The engine hands over the scheduled graph plus per-task start/finish
    lists; the :class:`TaskRecord` list is built on the first read of
    :attr:`records` (timelines, figures and tests), so a simulation whose
    caller needs only cycles and counters never creates one.
    """

    def __init__(
        self,
        graph: TaskGraph | None = None,
        start: Sequence[int] = (),
        finish: Sequence[int] = (),
    ) -> None:
        self._graph = graph if graph is not None else TaskGraph()
        self._start = start
        self._finish = finish
        self._records: list[TaskRecord] | None = None
        #: Makespan of the schedule in cycles.
        self.total_cycles: int = max(finish, default=0)
        self._counters = self._graph.counters(self.total_cycles)

    @property
    def records(self) -> list[TaskRecord]:
        """Scheduled timing of every task, in program order."""
        if self._records is None:
            self._records = [
                TaskRecord(task, s, f) for task, s, f in zip(self._graph, self._start, self._finish)
            ]
        return self._records

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.records == other.records

    __hash__ = None  # type: ignore[assignment]  # mutable, compared by value

    def records_on(self, resource: str) -> list[TaskRecord]:
        """Records of tasks bound to ``resource``, ordered by start time."""
        return sorted(
            (r for r in self.records if r.task.resource == resource), key=lambda r: r.start
        )

    def busy_cycles(self, resource: str) -> int:
        """Total occupied cycles of ``resource``."""
        return sum(r.duration for r in self.records if r.task.resource == resource)

    def utilization(self, resource: str) -> float:
        """Busy fraction of ``resource`` over the makespan (0 if the trace is empty)."""
        total = self.total_cycles
        if total == 0:
            return 0.0
        return self.busy_cycles(resource) / total

    def resources(self) -> list[str]:
        """Distinct non-empty resources appearing in the trace."""
        seen: dict[str, None] = {}
        for r in self.records:
            if r.task.resource and r.task.resource not in seen:
                seen[r.task.resource] = None
        return list(seen)

    def counters(self) -> AccessCounters:
        """Access/operation counters of the whole schedule.

        The graph summed them as its tasks were added; only ``total_cycles``
        comes from the schedule.
        """
        return replace(self._counters)

    def count_kind(self, kind: TaskKind) -> int:
        """Number of tasks of ``kind`` in the trace."""
        return sum(1 for r in self.records if r.task.kind == kind)

    def overlap_cycles(self, resource_a: str, resource_b: str) -> int:
        """Cycles during which both resources are simultaneously busy.

        Used to verify that MAS-Attention actually overlaps MAC and VEC work
        while FLAT does not.
        """
        intervals_a = [(r.start, r.finish) for r in self.records_on(resource_a) if r.duration > 0]
        intervals_b = [(r.start, r.finish) for r in self.records_on(resource_b) if r.duration > 0]
        overlap = 0
        i = j = 0
        while i < len(intervals_a) and j < len(intervals_b):
            a_start, a_end = intervals_a[i]
            b_start, b_end = intervals_b[j]
            overlap += max(0, min(a_end, b_end) - max(a_start, b_start))
            if a_end <= b_end:
                i += 1
            else:
                j += 1
        return overlap


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of simulating one dataflow on one workload and device."""

    scheduler: str
    workload_name: str
    hardware_name: str
    trace: Trace
    counters: AccessCounters
    energy: EnergyBreakdown
    frequency_hz: float
    metadata: dict[str, object] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        """Total execution cycles (makespan)."""
        return self.counters.total_cycles

    @property
    def latency_seconds(self) -> float:
        """Wall-clock latency in seconds at the device clock."""
        return cycles_to_seconds(self.cycles, self.frequency_hz)

    @property
    def energy_pj(self) -> float:
        """Total energy in picojoules."""
        return self.energy.total_pj

    @property
    def dram_reads(self) -> int:
        return self.counters.dram_bytes_read

    @property
    def dram_writes(self) -> int:
        return self.counters.dram_bytes_written

    def summary(self) -> dict[str, object]:
        """Compact dictionary summary used by reports and benches."""
        return {
            "scheduler": self.scheduler,
            "workload": self.workload_name,
            "hardware": self.hardware_name,
            "cycles": self.cycles,
            "latency_ms": self.latency_seconds * 1e3,
            "energy_pj": self.energy_pj,
            "dram_bytes_read": self.dram_reads,
            "dram_bytes_written": self.dram_writes,
            "mac_ops": self.counters.mac_ops,
            "vec_ops": self.counters.vec_ops,
        }


def make_result(
    scheduler: str,
    workload_name: str,
    hardware: HardwareConfig,
    trace: Trace,
    counters: AccessCounters,
    energy: EnergyBreakdown,
    metadata: dict[str, object] | None = None,
) -> SimulationResult:
    """Assemble a :class:`SimulationResult` from a trace, its counters and energy."""
    return SimulationResult(
        scheduler=scheduler,
        workload_name=workload_name,
        hardware_name=hardware.name,
        trace=trace,
        counters=counters,
        energy=energy,
        frequency_hz=hardware.frequency_hz,
        metadata=dict(metadata or {}),
    )
