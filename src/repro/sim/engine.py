"""Dependency- and resource-aware scheduling engine.

The engine computes, for every task of a :class:`~repro.sim.tasks.TaskGraph`,
its start and finish cycle under the constraints:

1. a task starts no earlier than the finish of all its data dependencies;
2. every resource executes one task at a time (non-preemptive, single server);
3. **compute units** (MAC, VEC) issue their tasks strictly in program order —
   the order the scheduler emitted them — modelling the in-order instruction
   streams of the accelerator's engines;
4. the **DMA channel** services whichever enqueued descriptor is ready first:
   a store whose producing compute has not finished never blocks an
   independent load that was enqueued later.  Ties are broken by program
   order, so the behaviour is deterministic.

The schedule is produced by an event-driven list scheduler: at every step the
earliest-startable candidate across all resources is dispatched.  Candidates
are the head of the program-order queue for in-order resources and the
earliest-ready enqueued task for out-of-order resources; zero-cost barrier
tasks (no resource) complete as soon as their dependencies do.
"""

from __future__ import annotations

import heapq

from repro.sim.tasks import TaskGraph
from repro.sim.trace import Trace

__all__ = ["simulate_graph", "critical_path_cycles", "OUT_OF_ORDER_RESOURCES"]

#: Resource names served out of order (readiness order) rather than program order.
OUT_OF_ORDER_RESOURCES: tuple[str, ...] = ("dma",)

#: Start time that loses to every real candidate.
_NEVER = float("inf")


def simulate_graph(
    graph: TaskGraph, out_of_order_resources: tuple[str, ...] = OUT_OF_ORDER_RESOURCES
) -> Trace:
    """Schedule ``graph`` and return the resulting :class:`Trace`.

    Tasks were validated when they were added to the graph.  The per-task
    inputs (cycles, integer resource id, deduplicated deps) are flattened into
    lists once, so the dispatch loop touches no :class:`Task` object.
    """
    tasks = graph.tasks
    n = len(tasks)

    # Resource ids in first-use order; -1 marks a zero-cost barrier.
    resource_ids: dict[str, int] = {}
    res_of = [
        resource_ids.setdefault(t.resource, len(resource_ids)) if t.resource else -1
        for t in tasks
    ]
    cycles = [t.cycles for t in tasks]
    ooo = [name in out_of_order_resources for name in resource_ids]
    rids = range(len(resource_ids))

    # ``n`` closes every program-order queue; it never becomes dependency-free.
    remaining_deps = [0] * n + [1]
    dependents: list[list[int]] = [[] for _ in range(n)]
    for tid, task in enumerate(tasks):
        deps = task.deps
        if len(deps) > 1:
            deps = dict.fromkeys(deps)
        remaining_deps[tid] = len(deps)
        for dep in deps:
            dependents[dep].append(tid)

    ready_time = [0] * n          # max finish over resolved deps
    start = [0] * n
    finish = [0] * n

    # In-order units issue from a program-order queue (read at ``head``),
    # out-of-order units from a heap of (ready_time, tid).
    queues: list[list[int]] = [[] for _ in rids]
    for tid, rid in enumerate(res_of):
        if rid >= 0 and not ooo[rid]:
            queues[rid].append(tid)
    for queue in queues:
        queue.append(n)
    head = [0 for _ in rids]
    heaps: list[list[tuple[int, int]]] = [[] for _ in rids]
    free = [0 for _ in rids]
    inorder = [(rid, queues[rid]) for rid in rids if not ooo[rid]]
    ooo_heaps = [(rid, heaps[rid]) for rid in rids if ooo[rid]]

    # ``finished`` holds tasks whose dependents have not been counted down
    # yet.  A barrier completes the moment its dependencies do; a DMA task
    # joins its heap then; an in-order task waits to reach its queue head.
    done = 0
    finished: list[int] = []
    for tid in range(n):
        if remaining_deps[tid] == 0:
            rid = res_of[tid]
            if rid < 0:
                finish[tid] = cycles[tid]
                done += 1
                finished.append(tid)
            elif ooo[rid]:
                heapq.heappush(heaps[rid], (0, tid))

    while True:
        while finished:
            tid = finished.pop()
            at = finish[tid]
            for d in dependents[tid]:
                if ready_time[d] < at:
                    ready_time[d] = at
                remaining_deps[d] -= 1
                if remaining_deps[d] == 0:
                    rid = res_of[d]
                    if rid < 0:
                        start[d] = ready_time[d]
                        finish[d] = ready_time[d] + cycles[d]
                        done += 1
                        finished.append(d)
                    elif ooo[rid]:
                        heapq.heappush(heaps[rid], (ready_time[d], d))
        if done == n:
            break

        # One candidate per resource; dispatch the earliest-startable, the
        # lowest task id first among equals.
        best_start, best_tid, best_rid = _NEVER, n, -1
        for rid, queue in inorder:
            tid = queue[head[rid]]
            if remaining_deps[tid]:
                continue
            at = ready_time[tid]
            if at < free[rid]:
                at = free[rid]
            if at < best_start or (at == best_start and tid < best_tid):
                best_start, best_tid, best_rid = at, tid, rid
        for rid, heap in ooo_heaps:
            if not heap:
                continue
            at, tid = heap[0]
            if at < free[rid]:
                at = free[rid]
            if at < best_start or (at == best_start and tid < best_tid):
                best_start, best_tid, best_rid = at, tid, rid
        if best_rid < 0:  # unreachable while deps only name earlier tasks
            raise RuntimeError(f"scheduling deadlock: {n - done} tasks left, none issuable")
        if ooo[best_rid]:
            heapq.heappop(heaps[best_rid])
        else:
            head[best_rid] += 1
        start[best_tid] = best_start
        finish[best_tid] = free[best_rid] = best_start + cycles[best_tid]
        done += 1
        finished.append(best_tid)

    return Trace(graph, start, finish)


def critical_path_cycles(graph: TaskGraph) -> int:
    """Length of the pure data-dependency critical path, ignoring resource contention.

    Useful as an idealized lower bound: a schedule can never beat the critical
    path even with infinitely many compute units.
    """
    finish: list[int] = [0] * len(graph)
    for task in graph:
        ready = max((finish[d] for d in task.deps), default=0)
        finish[task.tid] = ready + task.cycles
    return max(finish, default=0)
