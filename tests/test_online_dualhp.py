"""Focused tests for the online DualHP policy internals."""

import json
import math

import numpy as np
import pytest

from repro.core.platform import Platform, ResourceKind, Worker
from repro.core.task import Task
from repro.dag.graph import TaskGraph
from repro.schedulers.online import DualHPPolicy
from repro.campaign.executor import execute_spec
from repro.experiments.dags import sweep_specs
from repro.schedulers.online import dualhp as online_dualhp
from repro.schedulers.online.dualhp import _outcome
from repro.schedulers.online.base import RunningView, StartTask
from repro.simulator import simulate

CPU0 = Worker(ResourceKind.CPU, 0)
GPU0 = Worker(ResourceKind.GPU, 0)


def _policy(platform: Platform) -> DualHPPolicy:
    policy = DualHPPolicy()
    policy.prepare(platform)
    return policy


def _t(name: str, p: float, q: float, priority: float = 0.0) -> Task:
    return Task(cpu_time=p, gpu_time=q, name=name, priority=priority)


class TestPoolMechanics:
    def test_empty_pool_yields_nothing(self):
        policy = _policy(Platform(1, 1))
        assert policy.pick(CPU0, 0.0, {}) is None

    def test_forced_split_by_lambda_rules(self):
        policy = _policy(Platform(1, 1))
        cpu_task = _t("c", p=1.0, q=50.0)
        gpu_task = _t("g", p=50.0, q=1.0)
        policy.tasks_ready([cpu_task, gpu_task], 0.0)
        action = policy.pick(GPU0, 0.0, {})
        assert isinstance(action, StartTask) and action.task is gpu_task
        action = policy.pick(CPU0, 0.0, {})
        assert isinstance(action, StartTask) and action.task is cpu_task

    def test_worker_with_empty_class_pool_stays_idle(self):
        policy = _policy(Platform(1, 1))
        policy.tasks_ready([_t("g", p=50.0, q=1.0)], 0.0)
        # The single GPU-friendly task is assigned to the GPU class; the
        # CPU finds nothing and must idle (DualHP never spoliates).
        assert policy.pick(CPU0, 0.0, {}) is None
        assert isinstance(policy.pick(GPU0, 0.0, {}), StartTask)

    def test_priority_order_within_class(self):
        policy = _policy(Platform(0, 1))
        lo = _t("lo", p=9.0, q=1.0, priority=0.0)
        hi = _t("hi", p=9.0, q=1.0, priority=5.0)
        policy.tasks_ready([hi, lo], 0.0)
        first = policy.pick(GPU0, 0.0, {})
        assert first.task is hi

    def test_fifo_order_on_equal_priorities(self):
        policy = _policy(Platform(0, 1))
        first_in = _t("first", p=9.0, q=1.0)
        second_in = _t("second", p=9.0, q=1.0)
        policy.tasks_ready([first_in], 0.0)
        policy.tasks_ready([second_in], 1.0)
        assert policy.pick(GPU0, 1.0, {}).task is first_in

    def test_running_work_counts_as_initial_load(self):
        # A long task already running on the GPU pushes a borderline task
        # to the CPU class.
        policy = _policy(Platform(1, 1))
        running_task = _t("busy", p=100.0, q=10.0)
        running = {
            GPU0: RunningView(task=running_task, worker=GPU0, start=0.0, end=10.0)
        }
        borderline = _t("edge", p=1.5, q=1.0)
        policy.tasks_ready([borderline], 0.0)
        action = policy.pick(CPU0, 0.0, running)
        assert isinstance(action, StartTask) and action.task is borderline

    def test_reassignment_can_move_unstarted_tasks(self):
        # First alone, a middling task goes to the GPU; once a flood of
        # strongly accelerated work arrives, the recomputed assignment
        # sends it to the CPU instead.
        policy = _policy(Platform(1, 1))
        middling = _t("mid", p=2.0, q=1.5)
        policy.tasks_ready([middling], 0.0)
        policy._reassign(0.0, {})
        first_home = [
            kind
            for kind, queue in policy._class_queues.items()
            if middling in queue
        ][0]
        assert first_home is ResourceKind.GPU
        flood = [_t(f"f{i}", p=30.0, q=1.0) for i in range(8)]
        policy.tasks_ready(flood, 0.0)
        policy._reassign(0.0, {})
        new_home = [
            kind
            for kind, queue in policy._class_queues.items()
            if middling in queue
        ][0]
        assert new_home is ResourceKind.CPU


class TestEndToEnd:
    def test_all_tasks_run_once(self):
        g = TaskGraph("mix")
        for i in range(12):
            g.add_task(_t(f"m{i}", p=1.0 + i, q=1.0))
        platform = Platform(3, 2)
        s = simulate(g, platform, DualHPPolicy())
        s.validate()
        assert len(s.completed_placements()) == 12

    def test_no_spoliation_ever_occurs(self):
        g = TaskGraph("nospol")
        for i in range(10):
            g.add_task(_t(f"m{i}", p=100.0, q=1.0))
        s = simulate(g, Platform(4, 1), DualHPPolicy())
        assert not s.aborted_placements()


class TestFeasibility:
    """``_outcome`` is the bisection's stand-in for ``_try(...) is not None``."""

    PLATFORMS = (Platform(3, 2), Platform(1, 1), Platform(4, 0), Platform(0, 2))

    @pytest.mark.parametrize("seed", range(80))
    def test_agrees_with_try_for_every_lambda(self, seed):
        rng = np.random.default_rng(seed)
        platform = self.PLATFORMS[seed % len(self.PLATFORMS)]
        policy = _policy(platform)
        n = int(rng.integers(1, 40))
        # Long times on one class only keep max min(p, q) small, so many
        # guesses force tasks onto a class.
        kind = rng.integers(0, 3, size=n)
        short = rng.choice((1.0, 2.0, 3.0), size=(2, n))
        long = rng.choice((5.0, 8.0, 12.0), size=(2, n))
        cpu = np.where(kind == 1, long[0], short[0])
        gpu = np.where(kind == 2, long[1], short[1])
        tasks = [
            _t(f"t{i}", p=float(p), q=float(q), priority=float(prio))
            for i, (p, q, prio) in enumerate(zip(cpu, gpu, rng.integers(0, 3, size=n)))
        ]
        tasks.sort(key=lambda t: (-t.acceleration, -t.priority))
        cpu_init = rng.choice((0.0, 0.5, 2.0, 7.0), size=platform.num_cpus).tolist()
        gpu_init = rng.choice((0.0, 0.5, 2.0, 7.0), size=platform.num_gpus).tolist()
        cpu_heap = sorted((load, slot) for slot, load in enumerate(cpu_init))
        gpu_heap = sorted((load, slot) for slot, load in enumerate(gpu_init))
        floor = max(t.min_time() for t in tasks)
        lams = {floor, math.nextafter(floor, 0.0), 0.0}
        for t in tasks:
            for value in (t.cpu_time, t.gpu_time):
                lams.update((value, value / 2.0, math.nextafter(value, 0.0)))
        lams.update(np.linspace(0.1, 2.0 * max(lams) + 10.0, 50).tolist())
        for lam in sorted(lams):
            expected = policy._try(tasks, lam, cpu_init, gpu_init) is not None
            got, _lo, _hi = _outcome(
                lam,
                [t.cpu_time for t in tasks],
                [t.gpu_time for t in tasks],
                floor,
                cpu_heap,
                gpu_heap,
            )
            assert got == expected, lam
        # The heaps are the caller's and must survive every trial intact.
        assert cpu_heap == sorted((load, slot) for slot, load in enumerate(cpu_init))
        assert gpu_heap == sorted((load, slot) for slot, load in enumerate(gpu_init))

    def test_rejects_exactly_below_max_min_time(self):
        platform = Platform(2, 2)
        policy = _policy(platform)
        tasks = [_t("a", p=4.0, q=6.0), _t("b", p=1.0, q=1.0)]
        floor = 4.0
        below = math.nextafter(floor, 0.0)
        heap = [(0.0, 0), (0.0, 1)]
        assert policy._try(tasks, below, [0.0, 0.0], [0.0, 0.0]) is None
        assert not _outcome(below, [4.0, 1.0], [6.0, 1.0], floor, heap, heap)[0]
        assert policy._try(tasks, floor, [0.0, 0.0], [0.0, 0.0]) is not None
        assert _outcome(floor, [4.0, 1.0], [6.0, 1.0], floor, heap, heap)[0]


def _random_pool(seed: int):
    """Tie-heavy pool in ``_try`` order, with random initial class heaps."""
    rng = np.random.default_rng(seed)
    platform = TestFeasibility.PLATFORMS[seed % len(TestFeasibility.PLATFORMS)]
    n = int(rng.integers(1, 40))
    kind = rng.integers(0, 3, size=n)
    short = rng.choice((1.0, 2.0, 3.0), size=(2, n))
    long = rng.choice((5.0, 8.0, 12.0), size=(2, n))
    cpu = np.where(kind == 1, long[0], short[0]).tolist()
    gpu = np.where(kind == 2, long[1], short[1]).tolist()
    cpu_init = rng.choice((0.0, 0.5, 2.0, 7.0), size=platform.num_cpus).tolist()
    gpu_init = rng.choice((0.0, 0.5, 2.0, 7.0), size=platform.num_gpus).tolist()
    cpu_heap = sorted((load, slot) for slot, load in enumerate(cpu_init))
    gpu_heap = sorted((load, slot) for slot, load in enumerate(gpu_init))
    floor = max(min(p, q) for p, q in zip(cpu, gpu))
    return rng, (cpu, gpu, floor, cpu_heap, gpu_heap)


class TestOutcomeMemo:
    """The verdict intervals behind the memoised bisection of ``_reassign``."""

    @pytest.mark.parametrize("seed", range(60))
    def test_interval_holds_its_verdict(self, seed):
        rng, pool = _random_pool(seed)
        cpu, gpu, floor = pool[0], pool[1], pool[2]
        guesses = {floor, math.nextafter(floor, 0.0)}
        for value in cpu + gpu:
            guesses.update((value, value / 2.0, math.nextafter(value, 0.0)))
        guesses.update(np.linspace(0.1, 2.0 * max(guesses) + 10.0, 40).tolist())
        for lam in sorted(guesses):
            verdict, lo, hi = _outcome(lam, *pool)
            assert lo <= lam < hi
            top = hi if math.isfinite(hi) else 4.0 * lam + 10.0
            bottom = lo if math.isfinite(lo) else 0.0
            inside = [bottom, math.nextafter(top, -math.inf)]
            inside += rng.uniform(bottom, top, size=8).tolist()
            for other in inside:
                if lo <= other < hi:
                    assert _outcome(other, *pool)[0] == verdict, (lam, other)

    @pytest.mark.parametrize("seed", range(20))
    def test_memo_answers_like_the_direct_test(self, seed):
        rng, pool = _random_pool(seed)
        memo = online_dualhp.OutcomeMemo(lambda lam: _outcome(lam, *pool))
        guesses = rng.uniform(0.0, 40.0, size=200).tolist()
        for lam in guesses:
            assert memo(lam) == _outcome(lam, *pool)[0], lam
        assert memo.packs < len(guesses)

    @pytest.mark.parametrize("kernel", ["cholesky", "qr", "lu"])
    def test_bisection_converges_like_the_plain_one(self, kernel, monkeypatch):
        """Every reassignment settles on the same guess with and without
        the memo, so the payloads are equal too."""
        specs = [
            spec
            for spec in sweep_specs(kernel, n_values=(4, 8))
            if spec.algorithm.startswith("dualhp")
        ]
        assert len(specs) == 6

        def run():
            guesses = []
            real_try = DualHPPolicy._try

            def recording(policy, tasks, lam, cpu_init, gpu_init):
                guesses.append(lam)
                return real_try(policy, tasks, lam, cpu_init, gpu_init)

            with monkeypatch.context() as patch:
                patch.setattr(DualHPPolicy, "_try", recording)
                payloads = [execute_spec(spec) for spec in specs]
            return guesses, payloads

        memoised = run()

        class Unmemoised:
            def __init__(self, outcome):
                self.outcome = outcome

            def __call__(self, lam):
                return self.outcome(lam)[0]

        monkeypatch.setattr(online_dualhp, "OutcomeMemo", Unmemoised)
        plain = run()
        assert memoised[0] and memoised[0] == plain[0]
        # json, not ==: the payloads carry NaN accelerations.
        assert json.dumps(memoised[1], sort_keys=True) == json.dumps(
            plain[1], sort_keys=True
        )
