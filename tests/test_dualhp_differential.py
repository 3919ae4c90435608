"""Differential tests: the feasibility-only DualHP bisection vs the old one.

``repro.schedulers.dualhp.dualhp_schedule`` tests each guess on
``lambda`` with the float-only ``_feasible`` and builds the schedule once
at the converged guess.  :mod:`tests.reference_dualhp` freezes the old
search, which built a full schedule on every feasible step.  Both must
return the same ``lam``, makespan and placements on random tie-heavy
instances (CPU-only and GPU-only platforms included) and on the Figure 6
grid's DualHP instances.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from reference_dualhp import dualhp_schedule as reference_dualhp_schedule
from repro.core.platform import Platform
from repro.core.task import Instance, Task
from repro.experiments import fig6
from repro.experiments.workloads import build_compiled
from repro.schedulers.dualhp import (
    SEARCH_RTOL,
    _feasibility_test,
    dualhp_schedule,
    dualhp_try,
)

#: Platforms of the random cases: mixed, CPU-only and GPU-only.
PLATFORMS = (
    Platform(3, 2),
    Platform(1, 1),
    Platform(5, 1),
    Platform(2, 3),
    Platform(4, 0),
    Platform(1, 0),
    Platform(0, 3),
    Platform(0, 1),
)

RTOLS = (SEARCH_RTOL, 1e-3)


def _random_times(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tie-heavy ``(p, q)``: neutral, GPU-friendly and CPU-friendly tasks.

    Long times occur on one class only, so ``max min(p, q)`` stays small
    and a wide range of guesses forces tasks onto one class.
    """
    short = (1.0, 2.0, 3.0, 4.0)
    long = (6.0, 8.0, 12.0)
    kind = rng.integers(0, 3, size=n)
    cpu = np.where(kind == 1, rng.choice(long, size=n), rng.choice(short, size=n))
    gpu = np.where(kind == 2, rng.choice(long, size=n), rng.choice(short, size=n))
    return cpu, gpu


def _random_instance(seed: int) -> Instance:
    """Tie-heavy durations and priorities drawn from small integer sets."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    cpu, gpu = _random_times(rng, n)
    priorities = rng.integers(-2, 3, size=n)
    return Instance(
        Task(cpu_time=float(p), gpu_time=float(q), priority=float(prio))
        for p, q, prio in zip(cpu, gpu, priorities)
    )


def _placements(schedule) -> list[tuple]:
    return [
        (p.task.uid, p.worker.kind, p.worker.index, p.start, p.end)
        for p in schedule.placements
    ]


def _assert_same(instance: Instance, platform: Platform, rtol: float) -> None:
    new = dualhp_schedule(instance, platform, rtol=rtol)
    old = reference_dualhp_schedule(instance, platform, rtol=rtol)
    assert new.lam == old.lam
    assert new.makespan == old.makespan
    assert _placements(new.schedule) == _placements(old.schedule)


@pytest.mark.parametrize("seed", range(240))
def test_random_instances_match_reference(seed):
    instance = _random_instance(seed)
    platform = PLATFORMS[seed % len(PLATFORMS)]
    _assert_same(instance, platform, RTOLS[(seed // len(PLATFORMS)) % 2])


@pytest.mark.parametrize("kernel", ["cholesky", "qr", "lu"])
def test_fig6_grid_instances_match_reference(kernel):
    specs = [
        s
        for s in fig6.sweep_specs(kernel, n_values=(4, 8, 12, 16))
        if s.algorithm == "dualhp"
    ]
    assert len(specs) == 4
    for spec in specs:
        instance = build_compiled(spec.workload, spec.size).to_instance()
        for task in instance:
            task.priority = 0.0  # as execute_spec runs Figure 6
        _assert_same(instance, spec.platform, SEARCH_RTOL)


@pytest.mark.parametrize("seed", range(60))
def test_feasible_agrees_with_dualhp_try(seed):
    instance = _random_instance(1000 + seed)
    platform = PLATFORMS[seed % len(PLATFORMS)]
    feasible = _feasibility_test(instance, platform)
    floor = max(t.min_time() for t in instance)
    candidates = {floor, math.nextafter(floor, 0.0)}
    for t in instance:
        for value in (t.cpu_time, t.gpu_time):
            candidates.update((value, value / 2.0, math.nextafter(value, 0.0)))
    candidates.update(np.linspace(0.25, 2.0 * max(candidates), 40).tolist())
    for lam in sorted(candidates):
        expected = dualhp_try(instance, platform, lam) is not None
        assert feasible(lam) == expected, lam
