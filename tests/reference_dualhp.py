"""Frozen DualHP bisection (differential oracle for the offline scheduler).

Verbatim snapshot of ``_pack_class``, ``dualhp_try`` and
``dualhp_schedule`` from ``repro.schedulers.dualhp`` as they stood
before the feasibility-only bisection: this ``dualhp_schedule`` builds a
full ``Schedule`` on every step of the search on ``lambda``.
``tests/test_dualhp_differential.py`` requires the live scheduler to
return the same ``lam``, makespan and placements, which is what keeps
Figure 6 cache entries valid.

Do not "fix" or optimise this module: its only job is to stay identical
to the old behaviour.
"""

from __future__ import annotations

from repro.bounds.simple import makespan_lower_bound
from repro.core.platform import Platform, ResourceKind, Worker
from repro.core.schedule import Schedule
from repro.core.task import Instance, Task
from repro.schedulers.dualhp import SEARCH_RTOL, DualHPResult

__all__ = ["dualhp_try", "dualhp_schedule"]


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


def dualhp_schedule(
    instance: Instance,
    platform: Platform,
    *,
    rtol: float = SEARCH_RTOL,
) -> DualHPResult:
    """Binary search on ``lambda`` down to relative precision *rtol*."""
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
    best = dualhp_try(instance, platform, hi)
    while best is None:  # enlarge until feasible (degenerate platforms)
        hi *= 2.0
        best = dualhp_try(instance, platform, hi)
    best_lam = hi
    while hi - lo > rtol * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        trial = dualhp_try(instance, platform, mid)
        if trial is None:
            lo = mid
        else:
            hi = mid
            best, best_lam = trial, mid
    return DualHPResult(schedule=best, lam=best_lam)
