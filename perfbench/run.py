"""Run one benchmark workload and print its metrics (see README.md).

    python3 perfbench/run.py --workload fig7-cold --seed 1 --seconds 15 --trace 0

Prints the environment, one ``name = value unit`` line per metric, and
as its last line a JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs the traced replay and reports the
per-layer ones.  Exits 1 when any output check fails, 2 when the
checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from calibrate import INTERVAL_S, Calibrator
from common import (
    GRIDS,
    ROOT,
    WORK,
    check_payloads,
    child_env,
    environment,
    grid_specs,
    load_reference,
    median,
    sources_present,
    use_sources,
)

WORKLOADS = ("fig7-cold", "fig7-warm", "fig6-par", "service-mix")
#: Fewest timed passes per run, however short ``--seconds`` is.
MIN_PASSES = 3
#: Cache fills per fig7-warm run (its set-up is a whole cold grid).
WARM_FILLS = 2
#: In-process warm passes per fresh-interpreter rerun (a pass is ~20 ms).
WARM_PASSES = 5
#: Server set-ups per service-mix run.
SERVER_SETUPS = 3
CHILD_TIMEOUT_S = 150


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


class Run:
    """Accumulates one run's counts, problems and human-readable extras."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.extras: dict[str, tuple[float, str]] = {}
        self.notes: list[str] = []

    def outcome(self, operations: int, problems: list[str]) -> None:
        """Count *operations*; all of them fail when *problems* is non-empty."""
        self.attempted += operations
        if problems:
            self.failed += operations
            self.problems += problems

    def child(self, *args: str) -> tuple[dict, float]:
        """Run ``child.py`` in a fresh interpreter; returns (output, spawn time)."""
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("child.py")), *args],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"child {args[0]} failed:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1]), spawned


# -- grid workloads -----------------------------------------------------------


def grid_pass(
    run: Run, cache_dir: Path, expect: str, reference: dict
) -> tuple[dict, float]:
    out, spawned = run.child("pass", run.workload, str(cache_dir), expect)
    expected = len(grid_specs(GRIDS[run.workload]["figures"]))
    problems = out["problems"] + check_payloads(out["payloads"], reference)
    if len(out["payloads"]) != expected:
        problems.append(f"{len(out['payloads'])} payloads, expected {expected}")
    run.outcome(expected, problems)
    return out, spawned


def ref_setup_s(out: dict, spawned: float) -> float:
    """Spawn to ready: interpreter boot as measured, the rest calibrated."""
    return out["calibrated_at"] - spawned + out["setup_ref_s"]


def cold_grid(run: Run) -> dict[str, float]:
    """fig7-cold / fig6-par: fresh interpreter + fresh cache dir per pass."""
    reference = load_reference()
    setups, grids, walls, rss = [], [], [], []
    instances = 0
    started = time.perf_counter()
    while len(grids) < MIN_PASSES or time.perf_counter() - started < run.seconds:
        cache_dir = run.work / f"pass{len(grids)}"
        out, spawned = grid_pass(run, cache_dir, "cold", reference)
        shutil.rmtree(cache_dir, ignore_errors=True)
        setups.append(ref_setup_s(out, spawned))
        grids.append(out["grid_ref_s"])
        walls.append(out["grid_s"])
        rss.append(out["maxrss_mb"])
        instances += len(out["payloads"])
    run.extras["grid_s"] = (median(grids), "s")
    run.extras["grid_wall_s"] = (median(walls), "s")
    run.extras["passes"] = (len(grids), "count")
    return {
        "setup_s": median(setups),
        "op_p50_ms": median(grids) * 1e3,
        "ops_per_s": instances / sum(grids),
        "peak_rss_mb": median(rss),
    }


def fill_warm_cache(run: Run, reference: dict) -> tuple[Path, dict, list[float]]:
    """fig7-warm set-up: cold passes into fresh dirs; the last one is kept."""
    fills = []
    for i in range(WARM_FILLS):
        cache_dir = run.work / f"fill{i}"
        out, spawned = grid_pass(run, cache_dir, "cold", reference)
        fills.append(ref_setup_s(out, spawned) + out["grid_ref_s"])
        if i < WARM_FILLS - 1:
            shutil.rmtree(cache_dir, ignore_errors=True)
    return cache_dir, out["payloads"], fills


def warm_pass(run: Run, cache_dir: Path, cold: dict) -> tuple[float, float]:
    """One in-process pass of the drivers on a fresh ResultCache object;
    returns the ``perf_counter`` interval the drivers ran in."""
    import child
    from repro.campaign.cache import ResultCache
    from repro.experiments import dags, fig6, fig7

    dags.clear_cache()  # the sweep memo would skip the cache entirely
    cache = ResultCache(cache_dir)
    started = time.perf_counter()
    results, _, _, _ = child.run_figures(
        run.workload, cache, {"fig6": fig6, "fig7": fig7}
    )
    interval = started, time.perf_counter()
    problems = child.stats_problems(results, "warm")
    problems += child.driver_problems(results, cold)
    if cache.stats.disk_hits != len(cold):
        problems.append(f"{cache.stats.disk_hits} disk-tier hits, expected {len(cold)}")
    run.outcome(len(cold), problems)
    return interval


def warm_grid(run: Run) -> dict[str, float]:
    """fig7-warm: fresh-interpreter reruns and in-process passes on a full cache."""
    reference = load_reference()
    cache_dir, cold, fills = fill_warm_cache(run, reference)
    warm_pass(run, cache_dir, cold)  # first-call costs of this interpreter
    reruns, walls, passes, rss, executed = [], [], [], [], []
    started = time.perf_counter()
    while len(reruns) < MIN_PASSES or time.perf_counter() - started < run.seconds:
        out, spawned = run.child("pass", run.workload, str(cache_dir), "warm")
        problems = out["problems"] + check_payloads(out["payloads"], reference)
        if out["payloads"] != cold:
            problems.append("warm payloads are not byte-identical to the cold ones")
        if out["executed"] != 0:
            problems.append(f"warm rerun executed {out['executed']} instances")
        run.outcome(len(cold), problems)
        executed.append(out["executed"])
        reruns.append(ref_setup_s(out, spawned) + out["grid_ref_s"])
        walls.append(out["done_at"] - spawned)
        rss.append(out["maxrss_mb"])
        # A pass is shorter than the calibration period: normalise each
        # one after the block, with the chunks around it.
        with Calibrator() as calibrator:
            intervals = [warm_pass(run, cache_dir, cold) for _ in range(WARM_PASSES)]
            time.sleep(2 * INTERVAL_S)
        passes += [calibrator.normalise(*interval) for interval in intervals]
    run.extras["warm_pass_s"] = (median(passes), "s")
    run.extras["warm_rerun_s"] = (median(reruns), "s")
    run.extras["warm_rerun_wall_s"] = (median(walls), "s")
    run.extras["executed_per_warm_rerun"] = (max(executed), "count")
    return {
        "setup_s": median(fills),
        "op_p50_ms": median(reruns) * 1e3,
        "ops_per_s": len(cold) / median(passes),
        "peak_rss_mb": median(rss),
    }


def import_probe(run: Run) -> float:
    return median([run.child("import")[0]["import_s"] for _ in range(3)])


def traced_grid(run: Run) -> dict[str, float]:
    reference = load_reference()
    if run.workload == "fig7-warm":
        cache_dir, _, _ = fill_warm_cache(run, reference)
    cycles: list[dict] = []
    started = time.perf_counter()
    while not cycles or time.perf_counter() - started < run.seconds:
        if run.workload != "fig7-warm":
            cache_dir = run.work / f"trace{len(cycles)}"
        scratch = run.work / f"scratch{len(cycles)}"
        out, _ = run.child(
            "trace", run.workload, str(cache_dir), str(scratch),
            str(WORK / f"trace-{run.workload}.json"),
        )
        shutil.rmtree(scratch, ignore_errors=True)
        problems = out["problems"] + check_payloads(out["payloads"], reference)
        run.outcome(len(out["payloads"]), problems)
        cycles.append(out["metrics"])
    metrics = {name: median([c[name] for c in cycles]) for name in cycles[0]}
    metrics["cli.import_s"] = import_probe(run)
    run.notes.append(f"trace written to {WORK / f'trace-{run.workload}.json'}")
    return metrics


# -- the service --------------------------------------------------------------


def binned_rate(
    finished: list[float], window: tuple[float, float], calibrator: Calibrator
) -> float:
    """Median, over the window's whole seconds, of requests completed in
    that second at reference speed.  A second that holds a batch sweep or
    a cold execution is an outlier the median ignores."""
    start, end = window
    rates = []
    for i in range(int(end - start)):
        low, high = start + i, start + i + 1
        done = sum(1 for t in finished if low <= t < high)
        rates.append(done * calibrator.speed(low, high))
    return median(rates)


def service(run: Run, traced: bool) -> dict[str, float]:
    import service_mix as mix
    from spans import Tracer

    mix.pin_to_one_cpu()
    # The server is another process: the client's chunks only sample the
    # speed of the vCPU both run on, so service timings are scaled by it,
    # not subtracted.
    setups, walls = [], []
    for i in range(SERVER_SETUPS):
        with Calibrator() as calibrator:
            started = time.perf_counter()
            proc, port, spent = mix.setup(run.work / f"server{i}", run.seed)
            speed = calibrator.speed(started, time.perf_counter())
        setups.append(spent / speed)
        walls.append(spent)
        if i < SERVER_SETUPS - 1:
            mix.stop_server(proc)
    try:
        if traced:
            windows = [("untraced", run.seconds / 2), ("traced", run.seconds / 2)]
        else:
            windows = [("untraced", run.seconds)]
        results = {}
        for stream, (label, seconds) in enumerate(windows):
            tracer = Tracer(enabled=label == "traced")
            before = mix.stats(port)
            load = mix.Mix(port, run.seed, tracer, stream)
            load.rss_probe = lambda: mix.peak_rss_mb(proc)
            with Calibrator() as calibrator:
                window = load.run(seconds)
            after = mix.stats(port)
            counters = mix.counters(before, after)
            results[label] = (load, window, counters, tracer, calibrator)
        rss = results["untraced"][0].rss_mb or mix.peak_rss_mb(proc)
    finally:
        mix.stop_server(proc)
    for load, _, counters, _, _ in results.values():
        problems = load.tally.failures + mix.verify(load.tally)
        if counters["service.dispatch.errors"]:
            problems.append(f"{counters['service.dispatch.errors']} dispatch errors")
        run.outcome(load.tally.attempted, problems)
    if not traced:
        load, window, counters, _, calibrator = results["untraced"]
        summary = mix.summary(load.tally, window[1] - window[0])
        speed = calibrator.speed(*window)
        for name in ("req_p50_ms", "req_p99_ms", "hit_p50_ms", "miss_p50_ms"):
            run.extras[name] = (summary[name], "ms")
        run.extras["batch_p50_ms"] = (summary["batch_p50_ms"], "ms")
        run.extras["req_per_s"] = (summary["req_per_s"], "1/s")
        run.extras["coalesced"] = (counters["service.dispatch.coalesced"], "count")
        run.extras["prefetched"] = (counters["service.dispatch.prefetched"], "count")
        run.extras["setup_wall_s"] = (median(walls), "s")
        run.extras["speed"] = (speed, "x")
        return {
            "setup_s": median(setups),
            "op_p50_ms": summary["req_p50_ms"] / speed,
            "ops_per_s": binned_rate(load.tally.finished, window, calibrator),
            "peak_rss_mb": rss,
        }
    load, window, counters, tracer, _ = results["traced"]
    summary = mix.summary(load.tally, window[1] - window[0])
    plain_load, plain_window = results["untraced"][:2]
    plain = mix.summary(plain_load.tally, plain_window[1] - plain_window[0])
    tracer.write(WORK / f"trace-{run.workload}.json")
    own = [
        t
        for span, t in zip(tracer.spans, tracer.self_times())
        if span.name == "service.request"
    ]
    metrics = {name: 0 for name in metric_units("per_layer")}
    metrics.update(counters)
    metrics.update(
        {
            "service.accept_ms_p50": summary["accept_ms_p50"],
            "service.exec_ms_p50": summary["exec_ms_p50"],
            "service.client.req_p99_ms": summary["req_p99_ms"],
            "service.client.hit_p50_ms": summary["hit_p50_ms"],
            "service.client.miss_p50_ms": summary["miss_p50_ms"],
            "service.client.batch_p50_ms": summary["batch_p50_ms"],
            "trace.unattributed_s": sum(own),
            "trace.overhead_frac": summary["req_p50_ms"] / plain["req_p50_ms"] - 1,
            "cli.import_s": import_probe(run),
        }
    )
    run.notes.append(f"trace written to {WORK / f'trace-{run.workload}.json'}")
    return metrics


# -- entry point --------------------------------------------------------------


def measure(run: Run, traced: bool) -> tuple[dict[str, float], dict[str, str]]:
    if run.workload == "service-mix":
        values = service(run, traced)
    elif traced:
        values = traced_grid(run)
    elif run.workload == "fig7-warm":
        values = warm_grid(run)
    else:
        values = cold_grid(run)
    units = metric_units("per_layer" if traced else "end_to_end")
    return {name: values.get(name, 0) for name in units}, units


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not sources_present():
        print("perfbench: no src/repro in this checkout to measure", file=sys.stderr)
        return 2
    use_sources()
    work = WORK / f"{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    run = Run(args.workload, args.seed, args.seconds, work)
    try:
        values, units = measure(run, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    print(
        f"# workload {args.workload} seed {args.seed} "
        f"seconds {args.seconds:g} trace {args.trace}"
    )
    for name, (value, unit) in run.extras.items():
        print(f"{name} = {value:.6g} {unit}")
    for note in run.notes:
        print(f"# {note}")
    print(f"failed_frac = {run.failed / max(1, run.attempted):.6g} frac")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for problem in run.problems[:20]:
        print(f"# FAILED {problem}")
    print(
        json.dumps(
            {
                "correct": not run.problems and run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0 if not run.problems and run.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
