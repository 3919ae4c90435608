"""Differential tests: the feasibility-only DualHP bisection vs the old one.

``repro.schedulers.dualhp.dualhp_schedule`` tests each guess on
``lambda`` with the float-only ``_outcome`` and builds the schedule once
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
from reference_dualhp import dualhp_try as reference_dualhp_try
from repro.core.platform import Platform, ResourceKind, Worker
from repro.core.task import Instance, Task
from repro.experiments import fig6
from repro.experiments.workloads import build_compiled
from repro.schedulers import dualhp as dualhp_module
from repro.schedulers.dualhp import (
    SEARCH_RTOL,
    _feasibility_test,
    _half,
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


def _critical_guesses(instance: Instance) -> list[float]:
    """Every threshold a comparison can flip at, its neighbours, and a sweep."""
    floor = max(t.min_time() for t in instance)
    guesses = {floor, math.nextafter(floor, 0.0)}
    for t in instance:
        for value in (t.cpu_time, t.gpu_time):
            guesses.update((value, value / 2.0, math.nextafter(value, 0.0)))
    guesses.update(np.linspace(0.25, 2.0 * max(guesses), 40).tolist())
    return sorted(guesses)


@pytest.mark.parametrize("seed", range(60))
def test_dualhp_try_with_initial_loads_matches_reference(seed):
    """``dualhp_try`` packs from heaps and records placements as it goes;
    the frozen version replayed the packing per task.  Both must agree
    on every guess, with running work preloaded on some workers and a
    load for a worker the platform does not have (ignored by both)."""
    instance = _random_instance(2000 + seed)
    platform = PLATFORMS[seed % len(PLATFORMS)]
    rng = np.random.default_rng(seed)
    loads = {
        worker: float(rng.choice((0.0, 0.5, 2.0, 7.0)))
        for worker in platform.workers()
        if rng.random() < 0.7
    }
    loads[Worker(ResourceKind.GPU, platform.num_gpus)] = 3.0  # not on the platform
    loads[Worker(ResourceKind.CPU, platform.num_cpus + 2)] = 1.0
    for lam in _critical_guesses(instance):
        new = dualhp_try(instance, platform, lam, initial_loads=loads)
        old = reference_dualhp_try(instance, platform, lam, initial_loads=loads)
        assert (new is None) == (old is None), lam
        if new is not None:
            assert _placements(new) == _placements(old), lam


@pytest.mark.parametrize("seed", range(60))
def test_outcome_interval_holds_its_verdict(seed):
    """Every guess inside the interval an outcome returns gets its verdict."""
    instance = _random_instance(3000 + seed)
    platform = PLATFORMS[seed % len(PLATFORMS)]
    outcome = _feasibility_test(instance, platform).outcome
    rng = np.random.default_rng(seed)
    for lam in _critical_guesses(instance):
        verdict, lo, hi = outcome(lam)
        assert lo <= lam < hi
        assert verdict == (dualhp_try(instance, platform, lam) is not None)
        top = hi if math.isfinite(hi) else 4.0 * lam + 10.0
        bottom = lo if math.isfinite(lo) else 0.0
        inside = [bottom, math.nextafter(top, -math.inf)]
        inside += rng.uniform(bottom, top, size=8).tolist()
        for other in inside:
            if lo <= other < hi:
                assert outcome(other)[0] == verdict, (lam, other, lo, hi)


@pytest.mark.parametrize("seed", range(20))
def test_memo_answers_like_the_direct_test(seed):
    """Random guesses, answered from the memo or packed, equal ``_outcome``."""
    instance = _random_instance(4000 + seed)
    platform = PLATFORMS[seed % len(PLATFORMS)]
    memo = _feasibility_test(instance, platform)
    rng = np.random.default_rng(seed)
    guesses = rng.uniform(0.0, 2.0 * max(_critical_guesses(instance)), size=200)
    for lam in guesses.tolist():
        assert memo(lam) == memo.outcome(lam)[0], lam
    assert memo.packs < len(guesses)


class _Unmemoised:
    """Drop-in for ``OutcomeMemo`` that packs every guess."""

    def __init__(self, outcome):
        self.outcome = outcome

    def __call__(self, lam):
        return self.outcome(lam)[0]


@pytest.mark.parametrize("seed", range(40))
def test_memoised_bisection_converges_like_the_plain_one(seed, monkeypatch):
    instance = _random_instance(5000 + seed)
    platform = PLATFORMS[seed % len(PLATFORMS)]
    rtol = RTOLS[seed % 2]
    memoised = dualhp_schedule(instance, platform, rtol=rtol)
    monkeypatch.setattr(dualhp_module, "OutcomeMemo", _Unmemoised)
    plain = dualhp_schedule(instance, platform, rtol=rtol)
    assert memoised.lam == plain.lam
    assert _placements(memoised.schedule) == _placements(plain.schedule)


def test_half_is_the_exact_threshold():
    """``limit > 2*lam`` iff ``lam < _half(limit)``, subnormals included."""
    tiny = math.ulp(0.0)
    for limit in (tiny, 3 * tiny, 5 * tiny, 1e-310, 1.0, 3.0, 7.5, 1e300):
        c = _half(limit)
        for lam in (
            math.nextafter(c, -math.inf),
            c,
            math.nextafter(c, math.inf),
            0.0,
        ):
            assert (limit > 2.0 * lam) == (lam < c), (limit, lam)
