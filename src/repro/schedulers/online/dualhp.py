"""DualHP as an online DAG policy (Section 6.2).

Every time tasks become ready, the dual-approximation assignment of
Bleuse et al. is recomputed over the *whole* pool of ready-but-unstarted
tasks, taking the remaining work of currently executing tasks into
account as initial class loads.  Workers then consume the pool of their
own class in priority order (``fifo`` ranking keeps arrival order).
DualHP never spoliates; its conservatism on nearly-empty ready sets is
precisely what Figure 9 exposes as CPU idle time.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Mapping, Sequence

from repro.core.platform import Platform, ResourceKind, Worker
from repro.core.task import Task
from repro.schedulers.dualhp import OutcomeMemo, verdict_span
from repro.schedulers.online.base import Action, OnlinePolicy, RunningView, StartTask

__all__ = ["DualHPPolicy"]

#: Relative precision of the online binary search; coarser than the
#: offline scheduler since the assignment is recomputed continuously.
ONLINE_RTOL = 1e-3


class DualHPPolicy(OnlinePolicy):
    """Pool-based DualHP with per-ready-event reassignment."""

    name = "dualhp"

    def __init__(self) -> None:
        self._platform: Platform | None = None
        self._pool: dict[Task, int] = {}  # task -> arrival index
        self._arrival = itertools.count()
        self._dirty = True
        self._class_queues: dict[ResourceKind, list[Task]] = {
            ResourceKind.CPU: [],
            ResourceKind.GPU: [],
        }

    def prepare(self, platform: Platform) -> None:
        self._platform = platform
        self._pool = {}
        self._arrival = itertools.count()
        self._dirty = True
        self._class_queues = {ResourceKind.CPU: [], ResourceKind.GPU: []}

    def tasks_ready(self, tasks: Sequence[Task], time: float) -> None:
        for task in tasks:
            self._pool[task] = next(self._arrival)
        if tasks:
            self._dirty = True

    def pick(
        self,
        worker: Worker,
        time: float,
        running: Mapping[Worker, RunningView],
    ) -> Action | None:
        if self._dirty:
            self._reassign(time, running)
        queue = self._class_queues[worker.kind]
        if queue:
            task = queue.pop()
            del self._pool[task]
            return StartTask(task)
        return None

    # -- assignment ------------------------------------------------------------

    def _reassign(self, time: float, running: Mapping[Worker, RunningView]) -> None:
        """Binary-search the smallest feasible guess and split the pool."""
        assert self._platform is not None
        platform = self._platform
        tasks = sorted(
            self._pool,
            key=lambda t: (-t.acceleration, -t.priority, self._pool[t]),
        )
        cpu_init = [0.0] * platform.num_cpus
        gpu_init = [0.0] * platform.num_gpus
        # repro-lint: disable=unordered-iteration -- each Worker key occurs
        # once, so every slot receives exactly one += and the per-queue
        # sorts below are independent; iteration order is immaterial.
        for view in running.values():
            remaining = max(view.end - time, 0.0)
            if view.worker.kind is ResourceKind.CPU:
                cpu_init[view.worker.index] += remaining
            else:
                gpu_init[view.worker.index] += remaining
        self._dirty = False
        if not tasks:
            self._class_queues = {ResourceKind.CPU: [], ResourceKind.GPU: []}
            return

        cpu_times = [t.cpu_time for t in tasks]
        gpu_times = [t.gpu_time for t in tasks]
        min_times = [t.min_time() for t in tasks]
        floor = max(min_times)
        cpu_heap = [(load, slot) for slot, load in enumerate(cpu_init)]
        gpu_heap = [(load, slot) for slot, load in enumerate(gpu_init)]
        heapq.heapify(cpu_heap)
        heapq.heapify(gpu_heap)

        feasible = OutcomeMemo(
            lambda lam: _outcome(lam, cpu_times, gpu_times, floor, cpu_heap, gpu_heap)
        )

        base = max(max(cpu_init, default=0.0), max(gpu_init, default=0.0))
        hi = base + max(sum(min_times), floor)
        while not feasible(hi):  # pragma: no cover - hi is always feasible
            hi *= 2.0
        lo = 0.0
        while hi - lo > ONLINE_RTOL * hi:
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                hi = mid
            else:
                lo = mid
        # _try is deterministic in lambda, so this is the assignment of
        # the last feasible trial.
        assignment = self._try(tasks, hi, cpu_init, gpu_init)
        assert assignment is not None, "_outcome mirrors _try"
        queues: dict[ResourceKind, list[Task]] = {
            ResourceKind.CPU: [],
            ResourceKind.GPU: [],
        }
        for task, kind in assignment.items():
            queues[kind].append(task)
        # Workers pop from the tail: lowest (priority, arrival) last.
        for queue in queues.values():
            queue.sort(key=lambda t: (t.priority, -self._pool[t]))
        self._class_queues = queues

    def _try(
        self,
        tasks_by_rho: list[Task],
        lam: float,
        cpu_init: list[float],
        gpu_init: list[float],
    ) -> dict[Task, ResourceKind] | None:
        """One dual round on the pool; ``None`` when *lam* is infeasible.

        Follows :func:`repro.schedulers.dualhp.dualhp_try` but only
        yields the class split (the runtime decides actual workers), and
        accounts for the initial class loads of running work.  Unlike
        the offline round, every task is packed in the given
        acceleration order: forced tasks interleave with the optional
        ones, and the CPU overflow keeps acceleration order where
        ``dualhp_try`` re-sorts its leftovers by priority.

        Class loads are kept in binary heaps of ``(load, slot)`` so each
        pack is O(log m) instead of a linear argmin over the class; the
        heap minimum is the exact element the old scan chose (smallest
        load, ties to the smallest slot index).
        """
        assert self._platform is not None
        limit = 2.0 * lam
        cpu_loads = [(load, slot) for slot, load in enumerate(cpu_init)]
        gpu_loads = [(load, slot) for slot, load in enumerate(gpu_init)]
        heapq.heapify(cpu_loads)
        heapq.heapify(gpu_loads)
        has_cpu = bool(cpu_loads)
        has_gpu = bool(gpu_loads)
        assignment: dict[Task, ResourceKind] = {}
        cpu_overflow: list[Task] = []

        def pack(loads: list[tuple[float, int]], duration: float) -> bool:
            load, slot = loads[0]
            if load + duration <= limit:
                heapq.heapreplace(loads, (load + duration, slot))
                return True
            return False

        for task in tasks_by_rho:
            forced_gpu = task.cpu_time > lam
            forced_cpu = task.gpu_time > lam
            if forced_gpu and forced_cpu:
                return None
            if forced_gpu:
                if not (has_gpu and pack(gpu_loads, task.gpu_time)):
                    return None
                assignment[task] = ResourceKind.GPU
            elif forced_cpu:
                if not (has_cpu and pack(cpu_loads, task.cpu_time)):
                    return None
                assignment[task] = ResourceKind.CPU
            else:
                if has_gpu and pack(gpu_loads, task.gpu_time):
                    assignment[task] = ResourceKind.GPU
                else:
                    cpu_overflow.append(task)
        for task in cpu_overflow:
            if not (has_cpu and pack(cpu_loads, task.cpu_time)):
                return None
            assignment[task] = ResourceKind.CPU
        return assignment


def _outcome(
    lam: float,
    cpu_times: list[float],
    gpu_times: list[float],
    floor: float,
    cpu_heap: list[tuple[float, int]],
    gpu_heap: list[tuple[float, int]],
) -> tuple[bool, float, float]:
    """``DualHPPolicy._try(...) is not None``, floats only, and where it holds.

    The times are those of the ``_try`` task list, in its order; the
    heaps hold the initial ``(load, slot)`` pairs and are copied, not
    mutated.  *floor* is ``max min(p, q)``: below it some task exceeds
    *lam* on both classes, which ``_try`` rejects.  The verdict comes
    with the interval ``[lo, hi)`` of guesses on which every comparison
    made comes out the same, as in
    :func:`repro.schedulers.dualhp._outcome`.
    """
    if lam < floor:
        return False, -math.inf, floor
    lo, hi = floor, math.inf
    limit = 2.0 * lam
    lo2, hi2 = -math.inf, math.inf
    cpu = list(cpu_heap)
    gpu = list(gpu_heap)
    heapreplace = heapq.heapreplace
    overflow: list[float] = []
    for p, q in zip(cpu_times, gpu_times):
        if p > lam:
            if p < hi:
                hi = p
            if not gpu:
                return verdict_span(False, lo, hi, lo2, hi2)
            load, slot = gpu[0]
            end = load + q
            if end > limit:
                return verdict_span(False, lo, hi, lo2, min(hi2, end))
            if end > lo2:
                lo2 = end
            heapreplace(gpu, (end, slot))
            continue
        if p > lo:
            lo = p
        if q > lam:
            if q < hi:
                hi = q
            if not cpu:
                return verdict_span(False, lo, hi, lo2, hi2)
            load, slot = cpu[0]
            end = load + p
            if end > limit:
                return verdict_span(False, lo, hi, lo2, min(hi2, end))
            if end > lo2:
                lo2 = end
            heapreplace(cpu, (end, slot))
            continue
        if q > lo:
            lo = q
        if gpu:
            load, slot = gpu[0]
            end = load + q
            if end <= limit:
                if end > lo2:
                    lo2 = end
                heapreplace(gpu, (end, slot))
                continue
            if end < hi2:
                hi2 = end
        overflow.append(p)
    if overflow and not cpu:
        return verdict_span(False, lo, hi, lo2, hi2)
    for p in overflow:
        load, slot = cpu[0]
        end = load + p
        if end > limit:
            return verdict_span(False, lo, hi, lo2, min(hi2, end))
        if end > lo2:
            lo2 = end
        heapreplace(cpu, (end, slot))
    return verdict_span(True, lo, hi, lo2, hi2)
