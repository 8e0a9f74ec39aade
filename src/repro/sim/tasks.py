"""Task and task-graph definitions for the tile-granularity simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

from repro.hardware.energy import AccessCounters


class TaskKind(str, Enum):
    """Kind of a tile-level task."""

    LOAD = "load"          # DRAM -> L1 DMA transfer
    STORE = "store"        # L1 -> DRAM DMA transfer
    MATMUL = "matmul"      # tile MatMul on the MAC unit
    SOFTMAX = "softmax"    # row-wise softmax tile on the VEC unit
    VECOP = "vecop"        # generic element-wise kernel on the VEC unit
    BARRIER = "barrier"    # zero-cost synchronization marker


class Resource(str, Enum):
    """Classes of hardware resources a task may occupy."""

    MAC = "mac"
    VEC = "vec"
    DMA = "dma"
    NONE = "none"


def mac_resource(core: int) -> str:
    """Resource name of the MAC unit of ``core``."""
    return f"core{core}.mac"


def vec_resource(core: int) -> str:
    """Resource name of the VEC unit of ``core``."""
    return f"core{core}.vec"


def dma_resource() -> str:
    """Resource name of the shared DRAM DMA channel.

    The channel is a single resource (the paper's 30 GB/s DRAM interface) but,
    unlike the in-order compute units, the scheduling engine services its
    descriptors out of order: a store whose data is not yet produced never
    blocks an independent load that was enqueued later (see
    :func:`repro.sim.engine.simulate_graph`).
    """
    return "dma"


#: Per-task access/operation counters, in :class:`Task` field order.
COUNTER_FIELDS: tuple[str, ...] = (
    "dram_bytes_read",
    "dram_bytes_written",
    "l1_bytes_read",
    "l1_bytes_written",
    "l0_bytes_read",
    "l0_bytes_written",
    "mac_ops",
    "vec_ops",
)


@dataclass(slots=True)
class Task:
    """One tile-level unit of work bound to a hardware resource.

    Tasks are created and validated by :meth:`TaskGraph.add`.

    Attributes
    ----------
    tid:
        Integer id, unique within a graph (assigned by :class:`TaskGraph`).
    name:
        Human-readable label (used in traces and debugging).
    kind:
        The :class:`TaskKind`.
    resource:
        Resource the task occupies, e.g. ``"core0.mac"``, ``"core1.vec"``,
        ``"dma"``; ``""`` for zero-cost barriers.
    cycles:
        Occupancy of the resource in cycles.
    deps:
        Task ids that must finish before this task may start.
    dram_bytes_read / dram_bytes_written:
        Off-chip traffic attributed to this task (normally only LOAD/STORE).
    l1_bytes_read / l1_bytes_written / l0_bytes_read / l0_bytes_written:
        On-chip traffic attributed to this task.
    mac_ops / vec_ops:
        Arithmetic work attributed to this task.
    tags:
        Free-form metadata (round index, operand names, ...), used by analyses
        such as the overwrite accounting.
    """

    tid: int
    name: str
    kind: TaskKind
    resource: str
    cycles: int
    deps: tuple[int, ...] = ()
    dram_bytes_read: int = 0
    dram_bytes_written: int = 0
    l1_bytes_read: int = 0
    l1_bytes_written: int = 0
    l0_bytes_read: int = 0
    l0_bytes_written: int = 0
    mac_ops: int = 0
    vec_ops: int = 0
    tags: dict[str, object] = field(default_factory=dict)


class TaskGraph:
    """A DAG of :class:`Task` objects with per-resource program order.

    Tasks are added in *program order*; for tasks sharing a resource this
    insertion order is the order in which the resource executes them, exactly
    like a statically scheduled instruction stream per engine.

    :meth:`add` is the one place a task is validated, and the graph sums every
    task's access counters as it is appended (:meth:`counters`), so a
    simulation result needs no second pass over the tasks.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._tasks: list[Task] = []
        self._totals: dict[str, int] = dict.fromkeys(COUNTER_FIELDS, 0)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add(
        self,
        name: str,
        kind: TaskKind,
        resource: str,
        cycles: int,
        deps: Iterable[int] | Iterable[Task] = (),
        tags: dict[str, object] | None = None,
        **counters: int,
    ) -> Task:
        """Append a task and return it.  ``deps`` may be task ids or tasks.

        Raises ``ValueError`` unless every dependency is an earlier task and
        ``cycles`` and every counter (a :data:`COUNTER_FIELDS` name) are
        non-negative.
        """
        tid = len(self._tasks)
        dep_ids = tuple([d.tid if isinstance(d, Task) else int(d) for d in deps])
        for dep in dep_ids:
            if not 0 <= dep < tid:
                raise ValueError(f"task {name!r}: unknown dependency id {dep}")
        cycles = int(cycles)
        if cycles < 0:
            raise ValueError(f"task {name!r}: cycles must be >= 0")
        for attr, value in counters.items():
            value = counters[attr] = int(value)
            if value < 0:
                raise ValueError(f"task {name!r}: {attr} must be >= 0")
        task = Task(tid, name, kind, resource, cycles, dep_ids, tags=dict(tags or ()), **counters)
        totals = self._totals
        for attr, value in counters.items():
            totals[attr] += value
        self._tasks.append(task)
        return task

    def add_barrier(self, name: str, deps: Iterable[int] | Iterable[Task]) -> Task:
        """Add a zero-cost synchronization task depending on ``deps``."""
        return self.add(name, TaskKind.BARRIER, resource="", cycles=0, deps=deps)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __getitem__(self, tid: int) -> Task:
        return self._tasks[tid]

    @property
    def tasks(self) -> list[Task]:
        """All tasks in program order."""
        return list(self._tasks)

    def resources(self) -> list[str]:
        """Distinct non-empty resources referenced by the graph, in first-use order."""
        seen: dict[str, None] = {}
        for task in self._tasks:
            if task.resource and task.resource not in seen:
                seen[task.resource] = None
        return list(seen)

    def tasks_on(self, resource: str) -> list[Task]:
        """Tasks bound to ``resource``, in program order."""
        return [t for t in self._tasks if t.resource == resource]

    def by_kind(self, kind: TaskKind) -> list[Task]:
        """Tasks of a given kind, in program order."""
        return [t for t in self._tasks if t.kind == kind]

    def counters(self, total_cycles: int = 0) -> AccessCounters:
        """Access/operation counters summed over every task added so far."""
        return AccessCounters(**self._totals, total_cycles=total_cycles)

    def total_cycles_lower_bound(self) -> int:
        """Max over resources of the summed occupancy — a lower bound on the makespan."""
        totals: dict[str, int] = {}
        for task in self._tasks:
            if task.resource:
                totals[task.resource] = totals.get(task.resource, 0) + task.cycles
        return max(totals.values(), default=0)
