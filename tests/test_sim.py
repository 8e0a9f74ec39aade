"""Unit tests for :mod:`repro.sim` (task graphs, scheduling engine, traces)."""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest

from repro.core.costs import TileCosts, partition_blocks
from repro.core.tiling import TilingConfig
from repro.hardware.energy import EnergyModel
from repro.schedulers.registry import ALL_SCHEDULERS, make_scheduler
from repro.sim.engine import OUT_OF_ORDER_RESOURCES, critical_path_cycles, simulate_graph
from repro.sim.executor import simulate
from repro.sim.tasks import (
    COUNTER_FIELDS,
    TaskGraph,
    TaskKind,
    dma_resource,
    mac_resource,
    vec_resource,
)
from repro.sim.trace import Trace


def build_diamond() -> TaskGraph:
    """load -> (matmul, softmax in parallel on different units) -> store."""
    g = TaskGraph(name="diamond")
    load = g.add("load", TaskKind.LOAD, dma_resource(), 10, dram_bytes_read=80)
    mm = g.add("mm", TaskKind.MATMUL, mac_resource(0), 100, deps=[load], mac_ops=1000)
    sm = g.add("sm", TaskKind.SOFTMAX, vec_resource(0), 60, deps=[load], vec_ops=500)
    g.add("store", TaskKind.STORE, dma_resource(), 10, deps=[mm, sm], dram_bytes_written=80)
    return g


class TestTaskGraph:
    def test_add_assigns_ids_and_deps(self):
        g = build_diamond()
        assert len(g) == 4
        assert [t.tid for t in g] == [0, 1, 2, 3]
        assert g[3].deps == (1, 2)

    def test_add_accepts_tasks_or_ids(self):
        g = TaskGraph()
        a = g.add("a", TaskKind.LOAD, dma_resource(), 1)
        b = g.add("b", TaskKind.MATMUL, mac_resource(0), 1, deps=[a])
        c = g.add("c", TaskKind.STORE, dma_resource(), 1, deps=[b.tid])
        assert b.deps == (0,) and c.deps == (1,)

    def test_unknown_dependency_rejected(self):
        g = TaskGraph()
        with pytest.raises(ValueError):
            g.add("bad", TaskKind.LOAD, dma_resource(), 1, deps=[5])

    def test_negative_cycles_rejected(self):
        g = TaskGraph()
        with pytest.raises(ValueError):
            g.add("bad", TaskKind.LOAD, dma_resource(), -1)

    def test_negative_counters_rejected(self):
        g = TaskGraph()
        with pytest.raises(ValueError):
            g.add("bad", TaskKind.LOAD, dma_resource(), 1, dram_bytes_read=-5)

    def test_negative_counter_error_names_the_counter(self):
        g = TaskGraph()
        with pytest.raises(ValueError, match="'bad': l1_bytes_written must be >= 0"):
            g.add("bad", TaskKind.LOAD, dma_resource(), 1, dram_bytes_read=5, l1_bytes_written=-1)
        # A rejected task leaves neither a task nor counter totals behind.
        assert len(g) == 0 and g.counters().dram_bytes_read == 0

    def test_negative_cycles_error_message(self):
        with pytest.raises(ValueError, match="'bad': cycles must be >= 0"):
            TaskGraph().add("bad", TaskKind.LOAD, dma_resource(), -1)

    @pytest.mark.parametrize("dep", [1, 7, -1])
    def test_out_of_range_or_negative_dependency_rejected(self, dep):
        g = TaskGraph()
        g.add("a", TaskKind.LOAD, dma_resource(), 1)
        with pytest.raises(ValueError, match=f"'bad': unknown dependency id {dep}"):
            g.add("bad", TaskKind.MATMUL, mac_resource(0), 1, deps=[dep])
        assert len(g) == 1

    def test_counters_summed_as_tasks_are_added(self):
        counters = build_diamond().counters(total_cycles=7)
        assert counters.dram_bytes_read == 80 and counters.dram_bytes_written == 80
        assert counters.mac_ops == 1000 and counters.vec_ops == 500
        assert counters.l1_bytes_read == 0 and counters.total_cycles == 7

    def test_barrier_is_zero_cost(self):
        g = TaskGraph()
        a = g.add("a", TaskKind.LOAD, dma_resource(), 5)
        barrier = g.add_barrier("sync", deps=[a])
        assert barrier.cycles == 0 and barrier.resource == ""

    def test_resources_and_filters(self):
        g = build_diamond()
        assert g.resources() == [dma_resource(), mac_resource(0), vec_resource(0)]
        assert len(g.tasks_on(dma_resource())) == 2
        assert len(g.by_kind(TaskKind.MATMUL)) == 1

    def test_lower_bound(self):
        g = build_diamond()
        assert g.total_cycles_lower_bound() == 100  # the MAC is the busiest resource


class TestEngine:
    def test_dependencies_and_resource_serialization(self):
        g = build_diamond()
        trace = simulate_graph(g)
        recs = {r.task.name: r for r in trace.records}
        assert recs["load"].start == 0 and recs["load"].finish == 10
        # Both compute tasks start after the load, on different units, in parallel.
        assert recs["mm"].start == 10 and recs["sm"].start == 10
        # The store waits for the slower of the two.
        assert recs["store"].start == 110
        assert trace.total_cycles == 120

    def test_same_resource_serializes_in_program_order(self):
        g = TaskGraph()
        a = g.add("a", TaskKind.MATMUL, mac_resource(0), 10)
        b = g.add("b", TaskKind.MATMUL, mac_resource(0), 10)
        trace = simulate_graph(g)
        recs = {r.task.name: r for r in trace.records}
        assert recs["a"].start == 0 and recs["b"].start == 10

    def test_inorder_unit_respects_program_order_even_if_later_task_ready_first(self):
        g = TaskGraph()
        slow_load = g.add("slow_load", TaskKind.LOAD, dma_resource(), 50)
        first = g.add("first", TaskKind.MATMUL, mac_resource(0), 10, deps=[slow_load])
        second = g.add("second", TaskKind.MATMUL, mac_resource(0), 10)  # ready at t=0
        trace = simulate_graph(g)
        recs = {r.task.name: r for r in trace.records}
        # "second" was emitted after "first" on the same MAC, so it must not jump ahead.
        assert recs["first"].start == 50
        assert recs["second"].start == 60

    def test_dma_is_served_out_of_order(self):
        g = TaskGraph()
        mm = g.add("mm", TaskKind.MATMUL, mac_resource(0), 100)
        g.add("store", TaskKind.STORE, dma_resource(), 10, deps=[mm])
        g.add("load", TaskKind.LOAD, dma_resource(), 10)  # independent, enqueued later
        trace = simulate_graph(g)
        recs = {r.task.name: r for r in trace.records}
        # The store is not ready until t=100; the load must not be blocked behind it.
        assert recs["load"].start == 0
        assert recs["store"].start == 100
        assert trace.total_cycles == 110

    def test_barrier_completes_at_dependency_finish(self):
        g = TaskGraph()
        a = g.add("a", TaskKind.MATMUL, mac_resource(0), 25)
        barrier = g.add_barrier("sync", deps=[a])
        b = g.add("b", TaskKind.SOFTMAX, vec_resource(0), 5, deps=[barrier])
        trace = simulate_graph(g)
        recs = {r.task.name: r for r in trace.records}
        assert recs["sync"].start == 25 and recs["sync"].finish == 25
        assert recs["b"].start == 25

    def test_empty_graph(self):
        assert simulate_graph(TaskGraph()).total_cycles == 0

    def test_critical_path_ignores_resources(self):
        g = TaskGraph()
        a = g.add("a", TaskKind.MATMUL, mac_resource(0), 10)
        b = g.add("b", TaskKind.MATMUL, mac_resource(0), 10)
        c = g.add("c", TaskKind.MATMUL, mac_resource(0), 10, deps=[a, b])
        assert critical_path_cycles(g) == 20       # a and b in parallel on infinite units
        assert simulate_graph(g).total_cycles == 30  # but they share one MAC

    def test_makespan_never_beats_critical_path_or_busiest_resource(self):
        g = build_diamond()
        trace = simulate_graph(g)
        assert trace.total_cycles >= critical_path_cycles(g)
        assert trace.total_cycles >= g.total_cycles_lower_bound()


class TestTrace:
    def test_busy_cycles_and_utilization(self):
        trace = simulate_graph(build_diamond())
        assert trace.busy_cycles(mac_resource(0)) == 100
        assert trace.busy_cycles(dma_resource()) == 20
        assert trace.utilization(mac_resource(0)) == pytest.approx(100 / 120)
        assert Trace().utilization("anything") == 0.0

    def test_counters_aggregate_all_tasks(self):
        trace = simulate_graph(build_diamond())
        counters = trace.counters()
        assert counters.dram_bytes_read == 80
        assert counters.dram_bytes_written == 80
        assert counters.mac_ops == 1000 and counters.vec_ops == 500
        assert counters.total_cycles == trace.total_cycles

    def test_overlap_cycles(self):
        trace = simulate_graph(build_diamond())
        # mm spans [10, 110), sm spans [10, 70) -> 60 cycles of overlap.
        assert trace.overlap_cycles(mac_resource(0), vec_resource(0)) == 60
        assert trace.overlap_cycles(mac_resource(0), "unused") == 0

    def test_count_kind(self):
        trace = simulate_graph(build_diamond())
        assert trace.count_kind(TaskKind.LOAD) == 1
        assert trace.count_kind(TaskKind.BARRIER) == 0


class TestExecutorFacade:
    def test_simulate_produces_result_with_energy(self, edge_hw):
        graph = build_diamond()
        result = simulate(graph, edge_hw, scheduler="diamond", workload_name="unit")
        assert result.cycles == 120
        assert result.scheduler == "diamond"
        assert result.hardware_name == edge_hw.name
        expected = EnergyModel(edge_hw).compute(result.counters).total_pj
        assert result.energy_pj == pytest.approx(expected)
        assert result.latency_seconds == pytest.approx(120 / edge_hw.frequency_hz)
        summary = result.summary()
        assert summary["cycles"] == 120 and summary["scheduler"] == "diamond"


#: Tile-cost primitives taking a block, and those taking a block and a K/V tile.
BLOCK_PRIMITIVES = ("load_q", "load_score", "store_score", "store_o", "softmax", "output_normalize")
TILE_PRIMITIVES = (
    "load_kv_tile",
    "load_score_tile",
    "store_score_tile",
    "qk_tile",
    "pv_tile",
    "softmax_tile",
)

#: Tilings with ragged last row-blocks / K/V tiles and more than one head group.
MEMO_TILINGS = (
    TilingConfig(nq=32, nkv=32),
    TilingConfig(bb=1, hh=3, nq=48, nkv=40, kv_resident=True),
    TilingConfig(hh=2, nq=128, nkv=24),
)


class TestTileCostMemo:
    @pytest.mark.parametrize("tiling", MEMO_TILINGS)
    def test_memoized_primitives_equal_fresh_computation(self, edge_hw, small_workload, tiling):
        costs = TileCosts(small_workload, edge_hw, tiling)
        calls = 0
        for blocks in partition_blocks(small_workload, tiling, edge_hw.num_cores):
            for block in blocks:
                shapes = [(name, (block,)) for name in BLOCK_PRIMITIVES]
                shapes += [
                    (name, (block, tile))
                    for name in TILE_PRIMITIVES
                    for tile in range(costs.num_kv_tiles)
                ]
                for name, args in shapes:
                    memoized = getattr(costs, name)(*args)
                    # A new instance prices the shape from scratch.
                    fresh = getattr(TileCosts(small_workload, edge_hw, tiling), name)(*args)
                    assert memoized == fresh, (name, block, args[1:])
                    assert getattr(costs, name)(*args) is memoized
                    calls += 1
        assert len(costs._memo) < calls  # shapes repeat across blocks and tiles

    def test_task_cost_counters_are_read_only(self, edge_hw, small_workload, small_tiling):
        costs = TileCosts(small_workload, edge_hw, small_tiling)
        block = partition_blocks(small_workload, small_tiling, edge_hw.num_cores)[0][0]
        cost = costs.qk_tile(block, 0)
        with pytest.raises(TypeError):
            cost.counters["mac_ops"] = 0
        with pytest.raises(TypeError):
            del cost.counters["mac_ops"]
        with pytest.raises(FrozenInstanceError):
            cost.counters = {}
        assert costs.qk_tile(block, 0).counters["mac_ops"] > 0


def reference_schedule(graph: TaskGraph) -> tuple[dict[int, int], dict[int, int]]:
    """A direct O(n^2) reading of the engine's dispatch rules (module docstring).

    Barriers complete when their dependencies do; an in-order unit offers its
    next task in program order, the DMA channel its earliest-ready enqueued
    task; the earliest-startable offer wins, the lowest task id among equals.
    """
    start: dict[int, int] = {}
    finish: dict[int, int] = {}
    free: dict[str, int] = {}

    def ready(task) -> int | None:
        if not all(dep in finish for dep in task.deps):
            return None
        return max((finish[dep] for dep in task.deps), default=0)

    while len(finish) < len(graph):
        for task in graph:
            at = ready(task)
            if not task.resource and task.tid not in finish and at is not None:
                start[task.tid], finish[task.tid] = at, at + task.cycles
        offers = []
        for resource in graph.resources():
            waiting = [t for t in graph.tasks_on(resource) if t.tid not in finish]
            if resource not in OUT_OF_ORDER_RESOURCES:
                waiting = waiting[:1]
            issuable = [(ready(t), t.tid) for t in waiting if ready(t) is not None]
            if issuable:
                at, tid = min(issuable)
                offers.append((max(at, free.get(resource, 0)), tid, resource))
        if offers:
            at, tid, resource = min(offers)
            start[tid], finish[tid] = at, at + graph[tid].cycles
            free[resource] = finish[tid]
    return start, finish


def scheduler_graphs(hardware, workload):
    tiling = TilingConfig(nq=16, nkv=16)
    for name in ALL_SCHEDULERS:
        yield name, make_scheduler(name, hardware).build(workload, tiling).graph


class TestLazyTrace:
    @pytest.mark.parametrize("hw_fixture", ["edge_hw", "tiny_hw"])
    def test_records_match_an_explicit_schedule(self, request, hw_fixture, tiny_workload):
        hardware = request.getfixturevalue(hw_fixture)
        for name, graph in scheduler_graphs(hardware, tiny_workload):
            trace = simulate_graph(graph)
            start, finish = reference_schedule(graph)
            assert [r.task for r in trace.records] == list(graph), name
            assert [(r.start, r.finish) for r in trace.records] == [
                (start[tid], finish[tid]) for tid in range(len(graph))
            ], name
            assert trace.total_cycles == max(finish.values())

    def test_counters_equal_per_record_sum(self, edge_hw, tiny_workload):
        for name, graph in scheduler_graphs(edge_hw, tiny_workload):
            trace = simulate_graph(graph)
            counters = trace.counters()
            for field in COUNTER_FIELDS:
                assert getattr(counters, field) == sum(
                    getattr(r.task, field) for r in trace.records
                ), (name, field)
            assert counters.total_cycles == max(r.finish for r in trace.records)
            assert trace.counters() is not counters  # callers get their own copy
