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
import math
from dataclasses import dataclass
from typing import Callable

from repro.bounds.simple import makespan_lower_bound
from repro.core.platform import Platform, ResourceKind, Worker
from repro.core.schedule import Schedule
from repro.core.task import Instance, Task

__all__ = [
    "DualHPResult",
    "OutcomeMemo",
    "dualhp_try",
    "dualhp_schedule",
    "verdict_span",
]

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
    heap: list[tuple[float, int, Worker]],
    kind: ResourceKind,
    limit: float,
    placed: list[tuple[Task, Worker, float]],
) -> list[Task]:
    """Greedy least-loaded packing; returns tasks that would exceed *limit*.

    Tasks are attempted in the given order; each either lands on the
    least-loaded worker of the class — the minimum of the
    ``(load, index, worker)`` *heap*, ties to the lowest index — and is
    recorded in *placed* as ``(task, worker, start)``, or is returned as
    an overflow.
    """
    overflow: list[Task] = []
    heapreplace = heapq.heapreplace
    for task in tasks:
        load, index, worker = heap[0]
        end = load + task.time_on(kind)
        if end <= limit:
            heapreplace(heap, (end, index, worker))
            placed.append((task, worker, load))
        else:
            overflow.append(task)
    return overflow


def _load_heap(
    platform: Platform, kind: ResourceKind, initial: dict[Worker, float]
) -> list[tuple[float, int, Worker]]:
    """``(load, index, worker)`` of every *kind* worker, heapified."""
    heap = [(initial.get(w, 0.0), w.index, w) for w in platform.workers(kind)]
    heapq.heapify(heap)
    return heap


def dualhp_try(
    instance: Instance,
    platform: Platform,
    lam: float,
    *,
    initial_loads: dict[Worker, float] | None = None,
) -> Schedule | None:
    """One dual-approximation round: a ``<= 2*lam`` schedule, or ``None``.

    ``initial_loads`` lets the online DAG adaptation account for work
    already running on each worker (Section 6.2); loads of workers not
    on *platform* are ignored.  Each task starts at the load of the
    worker it is packed on, so the schedule is the packing record, in
    packing order, built only once every class has been packed.
    """
    limit = 2.0 * lam
    cpu_loads = _load_heap(platform, ResourceKind.CPU, initial_loads or {})
    gpu_loads = _load_heap(platform, ResourceKind.GPU, initial_loads or {})

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

    placed: list[tuple[Task, Worker, float]] = []
    if _pack_class(forced_gpu, gpu_loads, ResourceKind.GPU, limit, placed):
        return None
    if _pack_class(forced_cpu, cpu_loads, ResourceKind.CPU, limit, placed):
        return None
    if gpu_loads:
        leftover = _pack_class(optional, gpu_loads, ResourceKind.GPU, limit, placed)
    else:
        leftover = optional
    if not cpu_loads and leftover:
        return None
    leftover.sort(key=by_priority)
    if _pack_class(leftover, cpu_loads, ResourceKind.CPU, limit, placed):
        return None

    schedule = Schedule(platform)
    for task, worker, start in placed:
        schedule.add(task, worker, start)
    return schedule


def _half(limit: float) -> float:
    """The least float ``c`` with ``limit > 2*lam`` iff ``lam < c``, for float ``lam``.

    ``2*lam`` is exact, so the test is ``lam < limit/2``; ``0.5*limit``
    is that bound unless *limit* is subnormal, where it may round down.
    """
    c = 0.5 * limit
    return c if c + c >= limit else math.nextafter(c, math.inf)


def verdict_span(
    verdict: bool, lo: float, hi: float, lo2: float, hi2: float
) -> tuple[bool, float, float]:
    """*verdict* on ``lo <= lam < hi`` and ``lo2 <= 2*lam < hi2``, as one interval."""
    return verdict, max(lo, _half(lo2)), min(hi, _half(hi2))


def _outcome(
    lam: float,
    by_priority: list[tuple[float, float]],
    by_acceleration: list[tuple[float, float, int]],
    floor: float,
    num_cpus: int,
    num_gpus: int,
) -> tuple[bool, float, float]:
    """Whether :func:`dualhp_try` accepts *lam*, and where that holds.

    Returns ``(verdict, lo, hi)``: every comparison with *lam* made on
    the way comes out the same for any guess in ``[lo, hi)``, so the
    verdict does too (see :class:`OutcomeMemo`).  ``p > lam``,
    ``q > lam`` and ``lam < floor`` bound *lam* directly; a pack test
    ``load + t > 2*lam`` bounds ``2*lam`` by the sum itself, converted
    once at the end (:func:`verdict_span`).

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
        return False, -math.inf, floor
    lo, hi = floor, math.inf
    limit = 2.0 * lam
    lo2, hi2 = -math.inf, math.inf
    cpu = [(0.0, slot) for slot in range(num_cpus)]
    gpu = [(0.0, slot) for slot in range(num_gpus)]
    heapreplace = heapq.heapreplace
    # Forced tasks, priority first; the two classes pack independently.
    # This loop compares every task's p (and q when p <= lam) with lam,
    # so the optional phase below only repeats comparisons bounded here.
    for p, q in by_priority:
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
        elif q > lo:
            lo = q
    # Optional tasks by acceleration onto the GPUs; the rest overflows.
    leftover: list[int] = []
    for p, q, rank in by_acceleration:
        if p > lam or q > lam:
            continue
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
        leftover.append(rank)
    if not leftover:
        return verdict_span(True, lo, hi, lo2, hi2)
    if not cpu:
        return verdict_span(False, lo, hi, lo2, hi2)
    # The overflow goes to the CPUs, re-sorted by priority.
    leftover.sort()
    for rank in leftover:
        p = by_priority[rank][0]
        load, slot = cpu[0]
        end = load + p
        if end > limit:
            return verdict_span(False, lo, hi, lo2, min(hi2, end))
        if end > lo2:
            lo2 = end
        heapreplace(cpu, (end, slot))
    return verdict_span(True, lo, hi, lo2, hi2)


class OutcomeMemo:
    """``lam -> verdict`` of a bisection test, reusing known outcomes.

    *outcome* maps a guess to ``(verdict, lo, hi)``, a verdict that
    holds for every guess in ``[lo, hi)``.  A guess inside an interval
    already returned is answered from it, without packing; the verdicts
    are those of *outcome*, so a bisection visits the same guesses and
    converges to the same bound.  ``packs`` counts the calls of
    *outcome*.
    """

    def __init__(self, outcome: Callable[[float], tuple[bool, float, float]]) -> None:
        self.outcome = outcome
        self._known: list[tuple[float, float, bool]] = []
        self.packs = 0

    def __call__(self, lam: float) -> bool:
        for lo, hi, verdict in self._known:
            if lo <= lam < hi:
                return verdict
        verdict, lo, hi = self.outcome(lam)
        self._known.append((lo, hi, verdict))
        self.packs += 1
        return verdict


def _feasibility_test(instance: Instance, platform: Platform) -> OutcomeMemo:
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
    return OutcomeMemo(
        lambda lam: _outcome(
            lam,
            by_priority,
            by_acceleration,
            floor,
            platform.num_cpus,
            platform.num_gpus,
        )
    )


def dualhp_schedule(
    instance: Instance,
    platform: Platform,
    *,
    rtol: float = SEARCH_RTOL,
) -> DualHPResult:
    """Binary search on ``lambda`` down to relative precision *rtol*.

    Each step only tests feasibility (:func:`_feasibility_test`, which
    answers a guess inside an already-packed outcome interval without
    packing); the schedule is built once, by :func:`dualhp_try` at the
    converged guess.
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
    assert schedule is not None, "_outcome mirrors dualhp_try"
    return DualHPResult(schedule=schedule, lam=hi)
