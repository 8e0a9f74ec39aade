"""MAS-Attention task-graph builder.

This is the paper's primary contribution assembled into an executable form:
given an attention workload, a hardware configuration and a tiling, build the
semi-synchronous MAC/VEC pipeline of Algorithm 1 (with the fine-grained tile
dependencies of Algorithms 2-4) including, when the on-chip buffer would
overflow, the proactive overwrite events of Section 4.3.

The builder emits one :class:`~repro.sim.tasks.TaskGraph` covering all cores:
(batch, head) groups are distributed round-robin over cores, each core runs
its own MAC/VEC pipeline, and all cores share the DMA channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.costs import Block, TaskCost, TileCosts, partition_blocks
from repro.core.overwrite import OverwriteEvent, OverwritePlan, OverwritePlanner
from repro.core.tiling import TilingConfig, default_tiling, mas_footprint_bytes
from repro.hardware.config import HardwareConfig
from repro.sim.tasks import Task, TaskGraph, TaskKind, dma_resource, mac_resource, vec_resource
from repro.utils.validation import require
from repro.workloads.attention import AttentionWorkload


@dataclass
class MASBuildInfo:
    """Metadata about one built MAS-Attention graph."""

    tiling: TilingConfig
    footprint_bytes: int
    l1_bytes: int
    overwrite_enabled: bool
    overwrite_events: list[OverwriteEvent] = field(default_factory=list)
    extra_dram_bytes: int = 0
    blocks_per_core: list[int] = field(default_factory=list)
    serialized_blocks: int = 0

    @property
    def num_overwrites(self) -> int:
        return len(self.overwrite_events)

    @property
    def overflowed(self) -> bool:
        """Whether the steady-state residency exceeded the L1 capacity."""
        return self.footprint_bytes > self.l1_bytes


class _MASCoreEmitter:
    """Emits the MAS pipeline tasks for one core, one chunk at a time.

    Chunk ``0`` is the warm-up ``C_1``; chunk ``1`` is ``C_2 || P_1``; chunk
    ``c`` for ``2 <= c <= T-1`` is a regular round (``O_{c-2}``, ``P_{c-1}``,
    ``C_c`` in 0-based block indices); chunks ``T`` and ``T+1`` are the
    finalize rounds.  Emitting cores chunk-by-chunk keeps their DMA requests
    interleaved on the shared channel.
    """

    def __init__(
        self,
        graph: TaskGraph,
        costs: TileCosts,
        blocks: list[Block],
        core: int,
        plan: OverwritePlan,
        serialize_on_overflow: bool,
    ) -> None:
        self.graph = graph
        self.costs = costs
        self.blocks = blocks
        self.core = core
        self.plan = plan
        self.serialize_on_overflow = serialize_on_overflow
        self.mac = mac_resource(core)
        self.vec = vec_resource(core)
        self.dma = dma_resource()
        # Per-block task references.
        self._qk: dict[int, list[Task]] = {}
        self._softmax: dict[int, Task] = {}
        self._pv: dict[int, list[Task]] = {}
        self._store: dict[int, Task] = {}
        # Resident K/V loads per head group (for kv_resident ordering).
        self._group_k_loads: dict[int, list[Task]] = {}
        self._group_v_loads: dict[int, list[Task]] = {}
        self.serialized_blocks = 0
        self.extra_dram_bytes = 0

    # ------------------------------------------------------------------ #
    @property
    def num_chunks(self) -> int:
        return len(self.blocks) + 2 if self.blocks else 0

    def emit_chunk(self, chunk: int) -> None:
        t = len(self.blocks)
        if t == 0 or chunk >= self.num_chunks:
            return
        if chunk == 0:
            self._emit_qk_phase(0)
            return
        if t == 1:
            if chunk == 1:
                self._emit_softmax(0)
            else:
                self._emit_pv_phase(0)
            return
        if chunk == 1:
            self._emit_softmax(0)
            self._emit_qk_phase(1)
            return
        if chunk <= t - 1:
            # Regular round: P_{c-1} on VEC, O_{c-2} then C_c on MAC.  The PV
            # phase is emitted first so the softmax of the round can reference
            # it when the overflow fallback serializes the pipeline.
            self._emit_pv_phase(chunk - 2)
            self._emit_softmax(chunk - 1)
            self._emit_qk_phase(chunk)
            return
        if chunk == t:
            self._emit_pv_phase(t - 2)
            self._emit_softmax(t - 1)
            return
        self._emit_pv_phase(t - 1)

    # ------------------------------------------------------------------ #
    # Phase emitters
    # ------------------------------------------------------------------ #
    def _add(self, name: str, kind: TaskKind, resource: str, cost: TaskCost, deps, **tags) -> Task:
        return self.graph.add(
            name,
            kind,
            resource,
            cost.cycles,
            deps=deps,
            tags={"core": self.core, **tags},
            **cost.counters,
        )

    def _kv_loads(self, block: Block, which: str) -> list[Task]:
        """Emit (or reuse) the K or V tile loads for ``block``."""
        resident = self.costs.tiling.kv_resident
        cache = self._group_k_loads if which == "K" else self._group_v_loads
        if resident and block.head_group in cache:
            return cache[block.head_group]
        loads = []
        for tile in range(self.costs.num_kv_tiles):
            cost = self.costs.load_kv_tile(block, tile)
            loads.append(
                self._add(
                    f"c{self.core}.load_{which}{tile}.{block.label()}",
                    TaskKind.LOAD,
                    self.dma,
                    cost,
                    deps=(),
                    operand=which,
                    block=block.index,
                )
            )
        if resident:
            cache[block.head_group] = loads
        return loads

    def _emit_qk_phase(self, b: int) -> None:
        """Loads of Q_b and K plus the stream of QK^T tile MatMuls for block ``b``."""
        block = self.blocks[b]
        q_load = self._add(
            f"c{self.core}.load_Q.{block.label()}",
            TaskKind.LOAD,
            self.dma,
            self.costs.load_q(block),
            deps=(),
            operand="Q",
            block=b,
        )
        k_loads = self._kv_loads(block, "K")
        event = self._event_for(b, "QK")
        serialize = self._serialize_dep(b)
        qk_tasks: list[Task] = []
        for tile, k_load in enumerate(k_loads):
            deps = [q_load, k_load]
            if serialize is not None:
                deps.append(serialize)
            qk_tasks.append(
                self._add(
                    f"c{self.core}.QK{tile}.{block.label()}",
                    TaskKind.MATMUL,
                    self.mac,
                    self.costs.qk_tile(block, tile),
                    deps=deps,
                    op="QK",
                    block=b,
                    tile=tile,
                )
            )
        if event is not None:
            qk_tasks.extend(self._emit_overwrite(block, event, qk_tasks[-1], "QK"))
        self._qk[b] = qk_tasks

    def _emit_softmax(self, b: int) -> None:
        """Row-wise softmax of block ``b`` on the VEC unit (Algorithm 3)."""
        block = self.blocks[b]
        deps = list(self._qk[b])
        if self.serialize_on_overflow and b >= 1 and (b - 1) in self._pv:
            # Overflow without the overwrite strategy: P_b has no buffer space
            # until the previous block's PV stream has drained and freed its
            # score block, so the softmax stalls behind the MAC (FLAT-like).
            deps.append(self._pv[b - 1][-1])
            self.serialized_blocks += 1
        task = self._add(
            f"c{self.core}.SM.{block.label()}",
            TaskKind.SOFTMAX,
            self.vec,
            self.costs.softmax(block),
            deps=deps,
            op="SM",
            block=b,
        )
        self._softmax[b] = task

    def _emit_pv_phase(self, b: int) -> None:
        """Loads of V plus the PV tile MatMuls and the O_b store (Algorithm 4)."""
        block = self.blocks[b]
        v_loads = self._kv_loads(block, "V")
        softmax = self._softmax[b]
        event = self._event_for(b, "PV")
        pv_tasks: list[Task] = []
        for tile, v_load in enumerate(v_loads):
            pv_tasks.append(
                self._add(
                    f"c{self.core}.PV{tile}.{block.label()}",
                    TaskKind.MATMUL,
                    self.mac,
                    self.costs.pv_tile(block, tile),
                    deps=[softmax, v_load],
                    op="PV",
                    block=b,
                    tile=tile,
                )
            )
        if event is not None:
            pv_tasks.extend(self._emit_overwrite(block, event, pv_tasks[-1], "PV"))
        self._pv[b] = pv_tasks
        store = self._add(
            f"c{self.core}.store_O.{block.label()}",
            TaskKind.STORE,
            self.dma,
            self.costs.store_o(block),
            deps=pv_tasks,
            operand="O",
            block=b,
        )
        self._store[b] = store

    # ------------------------------------------------------------------ #
    # Overwrite / overflow handling
    # ------------------------------------------------------------------ #
    def _event_for(self, b: int, op: str) -> OverwriteEvent | None:
        event = self.plan.event_for_block(b)
        if event is not None and event.interrupted_op == op:
            return event
        return None

    def _serialize_dep(self, b: int) -> Task | None:
        """Without overwriting, an overflowing round degrades to sequential execution.

        The QK MatMul of block ``b`` then waits for the previous block's PV
        stream to drain (freeing its score block) before it may start.
        """
        if not self.serialize_on_overflow or b < 2:
            return None
        prev_pv = self._pv.get(b - 2)
        if prev_pv:
            self.serialized_blocks += 1
            return prev_pv[-1]
        return None

    def _emit_overwrite(
        self, block: Block, event: OverwriteEvent, interrupted: Task, op: str
    ) -> list[Task]:
        """Materialize one overwrite event: reload the victim and redo the tile.

        The softmax that triggered the overwrite is the one running in the same
        round as the interrupted MatMul: ``P_{b+1}`` when ``O_b`` is interrupted
        (Figure 2) and ``P_{b-1}`` when ``C_b`` is interrupted (Figure 3).
        """
        trigger_index = block.index + 1 if op == "PV" else block.index - 1
        trigger = self._softmax.get(trigger_index)
        deps: list[Task] = [interrupted]
        if trigger is not None:
            deps.append(trigger)
        reload = self._add(
            f"c{self.core}.reload_{event.victim}.{block.label()}",
            TaskKind.LOAD,
            self.dma,
            self.costs._load(event.reload_bytes),
            deps=deps,
            operand=event.victim,
            block=block.index,
            overwrite=True,
        )
        self.extra_dram_bytes += event.reload_bytes
        redo_tasks: list[Task] = []
        for r in range(event.redo_tiles):
            cost = self.costs.qk_tile(block, 0) if op == "QK" else self.costs.pv_tile(block, 0)
            redo_tasks.append(
                self._add(
                    f"c{self.core}.redo_{op}{r}.{block.label()}",
                    TaskKind.MATMUL,
                    self.mac,
                    cost,
                    deps=[reload] + deps,
                    op=op,
                    block=block.index,
                    redo=True,
                )
            )
        return redo_tasks


def build_mas_graph(
    workload: AttentionWorkload,
    hardware: HardwareConfig,
    tiling: TilingConfig | None = None,
    enable_overwrite: bool = True,
) -> tuple[TaskGraph, MASBuildInfo]:
    """Build the MAS-Attention pipeline task graph for one attention layer.

    Parameters
    ----------
    workload:
        Attention shape to schedule.
    hardware:
        Target device (clock, PE arrays, memory hierarchy).
    tiling:
        Tiling factors; when omitted a heuristic default is used (the search
        module finds better ones).
    enable_overwrite:
        Whether the proactive buffer-overwrite strategy is active.  When
        disabled and the steady-state residency overflows L1, overflowing
        rounds are serialized instead (the ablation baseline).

    Returns
    -------
    (graph, info):
        The task graph ready for :func:`repro.sim.simulate` and build metadata
        (footprint, overwrite events, extra DRAM traffic).
    """
    if tiling is None:
        tiling = default_tiling(workload, hardware, mas_footprint_bytes)
    tiling = tiling.clamp_to(workload)
    tiling.validate_for(workload)

    costs = TileCosts(workload, hardware, tiling)
    planner = OverwritePlanner(workload, hardware, tiling, enabled=enable_overwrite)
    planner.check_feasible()
    overflow = planner.overflow_bytes() > 0

    per_core_blocks = partition_blocks(workload, tiling, hardware.num_cores)
    graph = TaskGraph(name="mas-attention")

    emitters: list[_MASCoreEmitter] = []
    all_events: list[OverwriteEvent] = []
    for core, blocks in enumerate(per_core_blocks):
        plan = planner.plan(blocks, costs) if enable_overwrite else OverwritePlan()
        all_events.extend(plan.events)
        emitters.append(
            _MASCoreEmitter(
                graph,
                costs,
                blocks,
                core,
                plan,
                serialize_on_overflow=(not enable_overwrite) and overflow,
            )
        )

    max_chunks = max((e.num_chunks for e in emitters), default=0)
    for chunk in range(max_chunks):
        for emitter in emitters:
            emitter.emit_chunk(chunk)

    info = MASBuildInfo(
        tiling=tiling,
        footprint_bytes=planner.steady_state_bytes(),
        l1_bytes=hardware.l1_bytes,
        overwrite_enabled=enable_overwrite,
        overwrite_events=all_events,
        extra_dram_bytes=sum(e.extra_dram_bytes for e in emitters),
        blocks_per_core=[len(b) for b in per_core_blocks],
        serialized_blocks=sum(e.serialized_blocks for e in emitters),
    )
    return graph, info


def mas_max_seq_len(hardware: HardwareConfig, emb: int = 64, dtype_bytes: int = 2) -> int:
    """Maximum self-attention sequence length MAS-Attention can handle (Section 5.6).

    With row-granularity softmax at least one full row of ``P_i`` plus one full
    row of either ``P_{i-1}`` or ``C_{i+1}`` must fit on-chip simultaneously
    (two score rows), alongside minimal Q/O tiles.
    """
    require(emb > 0, "emb must be positive")
    require(dtype_bytes > 0, "dtype_bytes must be positive")
    reserved = 4 * emb * dtype_bytes  # one-row Q and O tiles, double buffered
    available = hardware.l1_bytes - reserved
    if available <= 0:
        return 0
    return available // (2 * dtype_bytes)
