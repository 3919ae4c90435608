"""DualHP: the dual-approximation scheduler of Bleuse et al. [15].

For a guess ``lambda`` on the optimal makespan, the algorithm either
produces a schedule of length at most ``2 lambda`` or proves
``lambda < C_max_opt``:

1. any task longer than ``lambda`` on one resource class is *forced* on
   the other class (if a task exceeds ``lambda`` on both, the guess is
   infeasible);
2. remaining tasks are assigned to the GPUs by decreasing acceleration
   factor while the resulting GPU makespan stays within ``2 lambda``;
3. the rest goes to the CPUs; the guess is accepted if every CPU also
   finishes within ``2 lambda``.

A binary search on ``lambda`` then yields a 2-approximation.  Within a
class, tasks are packed greedily on the least-loaded worker, processing
tasks by decreasing priority first (the ``avg``/``min``/``fifo`` ranking
schemes of Section 6.2 set those priorities).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

from repro.bounds.simple import makespan_lower_bound
from repro.core.platform import Platform, ResourceKind, Worker
from repro.core.schedule import Schedule
from repro.core.task import Instance, Task

__all__ = ["DualHPResult", "dualhp_try", "dualhp_schedule"]

#: Relative precision of the binary search on ``lambda``.
SEARCH_RTOL = 1e-9


@dataclass
class DualHPResult:
    """Outcome of DualHP: the schedule and the accepted guess."""

    schedule: Schedule
    lam: float

    @property
    def makespan(self) -> float:
        return self.schedule.makespan


def _pack_class(
    tasks: list[Task],
    loads: dict[Worker, float],
    kind: ResourceKind,
    limit: float,
) -> list[Task]:
    """Greedy least-loaded packing; returns tasks that would exceed *limit*.

    Tasks are attempted in the given order; each either lands on the
    least-loaded worker of the class or is returned as an overflow.
    """
    overflow: list[Task] = []
    for task in tasks:
        worker = min(loads, key=lambda w: (loads[w], w.index))
        duration = task.time_on(kind)
        if loads[worker] + duration <= limit:
            loads[worker] += duration
        else:
            overflow.append(task)
    return overflow


def dualhp_try(
    instance: Instance,
    platform: Platform,
    lam: float,
    *,
    initial_loads: dict[Worker, float] | None = None,
) -> Schedule | None:
    """One dual-approximation round: a ``<= 2*lam`` schedule, or ``None``.

    ``initial_loads`` lets the online DAG adaptation account for work
    already running on each worker (Section 6.2).
    """
    limit = 2.0 * lam
    cpu_loads = {w: 0.0 for w in platform.workers(ResourceKind.CPU)}
    gpu_loads = {w: 0.0 for w in platform.workers(ResourceKind.GPU)}
    if initial_loads:
        for worker, load in initial_loads.items():
            target = cpu_loads if worker.kind is ResourceKind.CPU else gpu_loads
            if worker in target:
                target[worker] = load

    forced_cpu: list[Task] = []
    forced_gpu: list[Task] = []
    optional: list[Task] = []
    for task in instance:
        too_long_cpu = task.cpu_time > lam
        too_long_gpu = task.gpu_time > lam
        if too_long_cpu and too_long_gpu:
            return None
        if too_long_cpu:
            forced_gpu.append(task)
        elif too_long_gpu:
            forced_cpu.append(task)
        else:
            optional.append(task)

    if forced_gpu and not gpu_loads:
        return None
    if forced_cpu and not cpu_loads:
        return None

    # Priority first inside each phase; acceleration governs the split.
    by_priority = lambda t: (-t.priority, t.uid)  # noqa: E731
    forced_gpu.sort(key=by_priority)
    forced_cpu.sort(key=by_priority)
    optional.sort(key=lambda t: (-t.acceleration, -t.priority, t.uid))

    assignment: dict[Task, ResourceKind] = {}
    if _pack_class(forced_gpu, gpu_loads, ResourceKind.GPU, limit):
        return None
    if _pack_class(forced_cpu, cpu_loads, ResourceKind.CPU, limit):
        return None
    for task in forced_gpu:
        assignment[task] = ResourceKind.GPU
    for task in forced_cpu:
        assignment[task] = ResourceKind.CPU

    if gpu_loads:
        leftover = _pack_class(optional, gpu_loads, ResourceKind.GPU, limit)
    else:
        leftover = list(optional)
    leftover_set = set(leftover)
    placed_on_gpu = [t for t in optional if t not in leftover_set]
    for task in placed_on_gpu:
        assignment[task] = ResourceKind.GPU
    if not cpu_loads and leftover:
        return None
    leftover.sort(key=by_priority)
    if _pack_class(leftover, cpu_loads, ResourceKind.CPU, limit):
        return None
    for task in leftover:
        assignment[task] = ResourceKind.CPU

    # Materialise the schedule by replaying the packing per class.
    schedule = Schedule(platform)
    replay_loads: dict[Worker, float] = {}
    for worker in platform.workers():
        replay_loads[worker] = (initial_loads or {}).get(worker, 0.0)
    ordered = (
        forced_gpu
        + forced_cpu
        + [t for t in optional if assignment[t] is ResourceKind.GPU]
        + leftover
    )
    for task in ordered:
        kind = assignment[task]
        candidates = {w: replay_loads[w] for w in platform.workers(kind)}
        worker = min(candidates, key=lambda w: (candidates[w], w.index))
        schedule.add(task, worker, replay_loads[worker])
        replay_loads[worker] += task.time_on(kind)
    return schedule


def _feasible(
    lam: float,
    by_priority: list[tuple[float, float]],
    by_acceleration: list[tuple[float, float, int]],
    floor: float,
    num_cpus: int,
    num_gpus: int,
) -> bool:
    """Whether :func:`dualhp_try` accepts *lam*, from presorted task times.

    *by_priority* holds ``(p, q)`` in ``(-priority, uid)`` order and
    *by_acceleration* holds ``(p, q, rank)`` in the optional-task order
    of :func:`dualhp_try`, where ``rank`` indexes *by_priority*.
    Filtering those two fixed orders by *lam* yields exactly the forced,
    optional and leftover lists that :func:`dualhp_try` sorts per call.
    Class loads live in ``(load, slot)`` heaps: the heap minimum is the
    worker ``_pack_class`` picks (least load, ties to the lowest index)
    and each load is the same float sum.  *floor* is ``max min(p, q)``:
    below it some task exceeds *lam* on both classes.
    """
    if lam < floor:
        return False
    limit = 2.0 * lam
    cpu = [(0.0, slot) for slot in range(num_cpus)]
    gpu = [(0.0, slot) for slot in range(num_gpus)]
    heapreplace = heapq.heapreplace
    # Forced tasks, priority first; the two classes pack independently.
    for p, q in by_priority:
        if p > lam:
            if not gpu:
                return False
            load, slot = gpu[0]
            if load + q > limit:
                return False
            heapreplace(gpu, (load + q, slot))
        elif q > lam:
            if not cpu:
                return False
            load, slot = cpu[0]
            if load + p > limit:
                return False
            heapreplace(cpu, (load + p, slot))
    # Optional tasks by acceleration onto the GPUs; the rest overflows.
    leftover: list[int] = []
    for p, q, rank in by_acceleration:
        if p > lam or q > lam:
            continue
        if gpu:
            load, slot = gpu[0]
            if load + q <= limit:
                heapreplace(gpu, (load + q, slot))
                continue
        leftover.append(rank)
    if not leftover:
        return True
    if not cpu:
        return False
    # The overflow goes to the CPUs, re-sorted by priority.
    leftover.sort()
    for rank in leftover:
        p = by_priority[rank][0]
        load, slot = cpu[0]
        if load + p > limit:
            return False
        heapreplace(cpu, (load + p, slot))
    return True


def _feasibility_test(instance: Instance, platform: Platform) -> Callable[[float], bool]:
    """``lam -> dualhp_try(instance, platform, lam) is not None``, floats only.

    The instance is sorted once, in the two orders :func:`dualhp_try`
    sorts on every call.  Both sorts are stable over the instance order,
    so filtering them per guess gives the same lists, ties included.
    """
    tasks = instance.tasks
    priority_order = sorted(
        range(len(tasks)), key=lambda i: (-tasks[i].priority, tasks[i].uid)
    )
    rank = [0] * len(tasks)
    for position, i in enumerate(priority_order):
        rank[i] = position
    acceleration_order = sorted(
        range(len(tasks)),
        key=lambda i: (-tasks[i].acceleration, -tasks[i].priority, tasks[i].uid),
    )
    by_priority = [(tasks[i].cpu_time, tasks[i].gpu_time) for i in priority_order]
    by_acceleration = [
        (tasks[i].cpu_time, tasks[i].gpu_time, rank[i]) for i in acceleration_order
    ]
    floor = max((t.min_time() for t in tasks), default=0.0)
    return lambda lam: _feasible(
        lam, by_priority, by_acceleration, floor, platform.num_cpus, platform.num_gpus
    )


def dualhp_schedule(
    instance: Instance,
    platform: Platform,
    *,
    rtol: float = SEARCH_RTOL,
) -> DualHPResult:
    """Binary search on ``lambda`` down to relative precision *rtol*.

    Each step only tests feasibility (:func:`_feasibility_test`); the
    schedule is built once, by :func:`dualhp_try` at the converged guess.
    """
    if len(instance) == 0:
        return DualHPResult(schedule=Schedule(platform), lam=0.0)
    lo = makespan_lower_bound(instance, platform) / 2.0
    hi = max(
        makespan_lower_bound(instance, platform),
        instance.total_cpu_work() / max(platform.num_cpus, 1)
        if platform.num_cpus
        else 0.0,
        instance.total_gpu_work() / max(platform.num_gpus, 1)
        if platform.num_gpus
        else 0.0,
        max(t.min_time() for t in instance),
    )
    feasible = _feasibility_test(instance, platform)
    while not feasible(hi):  # enlarge until feasible (degenerate platforms)
        hi *= 2.0
    while hi - lo > rtol * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    schedule = dualhp_try(instance, platform, hi)
    assert schedule is not None, "_feasible mirrors dualhp_try"
    return DualHPResult(schedule=schedule, lam=hi)
