"""Fresh-interpreter passes, spawned by ``run.py`` (one process per pass).

    python3 perfbench/child.py pass  WORKLOAD CACHE_DIR {cold|warm}
    python3 perfbench/child.py trace WORKLOAD CACHE_DIR SCRATCH_DIR TRACE_FILE
    python3 perfbench/child.py import

Each prints one JSON object on its last stdout line.  A new interpreter
per pass keeps the engine's per-process memos (compiled graphs, the LP
bound, the Figure 7-9 sweep memo) from leaking into the next pass.
Timestamps named ``*_at`` are ``time.monotonic()`` readings, which
share one clock with the parent on Linux.  A ``pass`` runs under a
:class:`calibrate.Calibrator` and also reports its set-up and grid
times at reference speed (``*_ref_s``).
"""

from __future__ import annotations

import time

SPAWNED_AT = time.monotonic()

import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from common import (  # noqa: E402
    GRIDS,
    KERNELS,
    canonical,
    grid_specs,
    spec_id,
    use_sources,
)

use_sources()


def _import_figures():
    started = time.perf_counter()
    from repro.campaign.cache import ResultCache
    from repro.experiments import fig6, fig7

    return ResultCache, {"fig6": fig6, "fig7": fig7}, time.perf_counter() - started


def run_figures(workload, cache, figures_mod):
    """One pass of the figure drivers over *workload*'s grid + rendering."""
    grid = GRIDS[workload]
    results = []
    started = time.perf_counter()
    for kernel in KERNELS:
        for figure, n_values in grid["figures"].items():
            results.append(
                figures_mod[figure].run(
                    kernel, n_values=n_values, jobs=grid["jobs"], cache=cache
                )
            )
    run_s = time.perf_counter() - started
    texts = [result.render() for result in results]
    render_s = time.perf_counter() - started - run_s
    return results, texts, run_s, render_s


def driver_problems(results, payloads: dict[str, str]) -> list[str]:
    """The drivers' tables must show exactly what the cache holds."""
    from repro.experiments import dags, fig6

    problems = []
    for result in results:
        kernel = result.data["kernel"]
        if result.data.get("campaign_stats") is None:
            problems.append(f"{result.experiment}/{kernel}: no campaign stats")
        if result.experiment == "fig6":
            for spec in fig6.sweep_specs(kernel, n_values=tuple(result.x_values)):
                column = result.x_values.index(spec.size)
                shown = result.data["ratios"][spec.algorithm][column]
                stored = json.loads(payloads[spec_id(spec)])["ratio"]
                if shown != stored:
                    problems.append(
                        f"{spec_id(spec)}: fig6 shows {shown!r}, cache {stored!r}"
                    )
        else:
            for spec in dags.sweep_specs(kernel, n_values=tuple(result.x_values)):
                run = result.data["metrics"][(spec.algorithm, spec.size)]
                shown = dataclasses.asdict(run)
                shown["ratio"] = run.ratio
                if canonical(shown) != payloads[spec_id(spec)]:
                    problems.append(f"{spec_id(spec)}: fig7 table differs from cache")
    return problems


def stats_problems(results, expect: str) -> list[str]:
    """Cold passes execute everything; warm passes execute nothing."""
    problems = []
    for result in results:
        stats = result.data.get("campaign_stats")
        if stats is None:
            continue
        where = f"{result.experiment}/{result.data['kernel']}"
        counts = f"{stats.hits} hits, {stats.executed}/{stats.total} executed"
        if expect == "cold" and (stats.hits != 0 or stats.executed != stats.total):
            problems.append(f"{where}: cold pass had {counts}")
        if expect == "warm" and (stats.executed != 0 or stats.hits != stats.total):
            problems.append(f"{where}: warm pass had {counts}")
    return problems


def cmd_pass(workload: str, cache_dir: str, expect: str) -> dict:
    from calibrate import Calibrator

    calibrator = Calibrator().start()
    calibrated_at = time.monotonic()
    begin = time.perf_counter()
    ResultCache, figures_mod, import_s = _import_figures()
    ready_at = time.monotonic()
    ready = time.perf_counter()
    results, _texts, run_s, render_s = run_figures(
        workload, ResultCache(cache_dir), figures_mod
    )
    done = time.perf_counter()
    done_at = time.monotonic()
    calibrator.stop()
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reader = ResultCache(cache_dir)
    specs = grid_specs(GRIDS[workload]["figures"])
    payloads = {}
    for spec in specs:
        entry = reader.get(spec)
        if entry is not None:
            payloads[spec_id(spec)] = canonical(entry["metrics"])
    problems = stats_problems(results, expect)
    if len(payloads) == len(specs):
        problems += driver_problems(results, payloads)
    else:
        problems.append(f"cache holds {len(payloads)} payloads after the pass")
    return {
        "spawned_at": SPAWNED_AT,
        "calibrated_at": calibrated_at,
        "ready_at": ready_at,
        "done_at": done_at,
        "import_s": import_s,
        "grid_s": run_s + render_s,
        # [calibrated_at, ready_at] and [ready_at, done_at] at reference speed
        "setup_ref_s": calibrator.normalise(begin, ready),
        "grid_ref_s": calibrator.normalise(ready, done),
        "calibration_samples": len(calibrator.samples),
        "render_s": render_s,
        "maxrss_mb": maxrss_mb,
        "executed": sum(
            r.data["campaign_stats"].executed
            for r in results
            if r.data.get("campaign_stats")
        ),
        "payloads": payloads,
        "problems": problems,
    }


def cache_replay(payloads: dict, root: Path, tracer) -> dict[str, str]:
    """Put every payload into a fresh cache, read it back from disk, then memory."""
    from repro.campaign.cache import ResultCache

    writer = ResultCache(root)
    for spec, metrics in payloads.items():
        with tracer.span("campaign.cache.put", spec.spec_hash()):
            writer.put(spec, metrics, elapsed_s=0.0)
    reader = ResultCache(root)
    read = {}
    for spec in payloads:
        with tracer.span("campaign.cache.get_disk", spec.spec_hash()):
            entry = reader.get(spec)
        read[spec_id(spec)] = canonical(entry["metrics"])
    for spec in payloads:
        with tracer.span("campaign.cache.get_memory", spec.spec_hash()):
            entry = reader.get(spec)
        if canonical(entry["metrics"]) != read[spec_id(spec)]:
            read[spec_id(spec)] = "memory tier differs from disk tier"
    hits = (reader.stats.disk_hits, reader.stats.memory_hits)
    if hits != (len(payloads), len(payloads)):
        read = {key: "cache tiers missed" for key in read}
    return read


def cmd_trace(workload: str, cache_dir: str, scratch: str, trace_file: str) -> dict:
    """One traced cycle: engine pass, untraced and traced replays, checks."""
    from replay import LAYER_SPANS, check_against_engine, layer_metrics, replay
    from spans import Tracer

    ResultCache, figures_mod, _ = _import_figures()
    grid = GRIDS[workload]
    specs = grid_specs(grid["figures"])
    tracer = Tracer(enabled=True)

    # The engine pass: what the workload itself runs, with spans around
    # the driver calls only.
    cache = ResultCache(cache_dir)
    with tracer.span("engine"):
        results, _texts, _run_s, render_s = run_figures(workload, cache, figures_mod)
    stats = [r.data["campaign_stats"] for r in results]
    jobs = grid["jobs"]
    exec_s = sum(s.exec_s for s in stats)
    wall_s = sum(s.wall_s for s in stats)
    lookups = cache.stats.memory_hits + cache.stats.disk_hits + cache.stats.misses
    problems = stats_problems(results, "warm" if workload == "fig7-warm" else "cold")

    simulate = workload != "fig7-warm"
    # Untraced and traced replays in ABBA order, so warm-up and drift
    # do not pose as tracing overhead.
    walls = {False: 0.0, True: 0.0}
    traced = []
    for i, on in enumerate((False, True, True, False)):
        active = tracer if i == 1 else Tracer(enabled=on)
        started = time.perf_counter()
        if simulate:
            payloads, counters = replay(specs, active)
            by_spec = {spec: json.loads(payloads[spec_id(spec)]) for spec in specs}
        else:
            # Nothing runs on a warm pass: replay the cache tier only.
            counters = {"events": 0, "stale_events": 0, "picks": 0}
            reader = ResultCache(cache_dir)
            by_spec = {spec: reader.get(spec)["metrics"] for spec in specs}
            payloads = {spec_id(s): canonical(m) for s, m in by_spec.items()}
        read = cache_replay(by_spec, Path(scratch) / str(i), active)
        walls[on] += time.perf_counter() - started
        if on:
            traced.append(active)
        if read != payloads:
            problems.append(f"replay {i}: cache round trip changed payloads")
    if simulate:
        problems += check_against_engine(specs, payloads)
    tracer.write(Path(trace_file))

    per_replay = [t.self_time_by_name() for t in traced]
    own = {
        name: sum(times.get(name, 0.0) for times in per_replay) / len(per_replay)
        for name in set().union(*per_replay)
    }
    metrics = layer_metrics(own, counters, walls[True] / 2, walls[False] / 2)
    metrics.update(
        {
            "campaign.cache.get_disk_s": own.get("campaign.cache.get_disk", 0.0),
            "campaign.cache.get_memory_s": own.get("campaign.cache.get_memory", 0.0),
            "campaign.cache.put_s": own.get("campaign.cache.put", 0.0),
            "campaign.cache.hit_ratio": (
                (cache.stats.memory_hits + cache.stats.disk_hits) / lookups
                if lookups
                else 0.0
            ),
            "campaign.executor.executed": sum(s.executed for s in stats),
            "campaign.executor.overhead_s": wall_s - exec_s / jobs,
            "campaign.backends.busy_frac": exec_s / (jobs * wall_s),
            "campaign.backends.steals": sum(s.steals for s in stats),
            "experiments.render_s": render_s,
        }
    )
    unknown = sorted(set(own) - set(LAYER_SPANS) - {"engine"})
    if unknown:
        problems.append(f"spans outside every layer: {unknown}")
    return {"metrics": metrics, "payloads": payloads, "problems": problems}


def cmd_import() -> dict:
    started = time.perf_counter()
    import repro.cli  # noqa: F401

    return {"import_s": time.perf_counter() - started}


def main(argv: list[str]) -> int:
    command, args = argv[0], argv[1:]
    if command == "pass":
        out = cmd_pass(*args)
    elif command == "trace":
        out = cmd_trace(*args)
    elif command == "import":
        out = cmd_import()
    else:
        raise SystemExit(f"unknown command {command!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
