"""Per-layer replay of a grid, built only from the program's public calls.

The campaign engine runs a spec as: build (or reuse) the compiled graph,
assign priorities, compute the lower bound once per graph, simulate (or
schedule offline), compute the metrics.  :func:`replay` makes the same
calls in the same order, each inside a span named after its layer, so a
trace shows where a grid's time goes without instrumenting the program.
:func:`check_against_engine` asserts the replay still equals
``execute_spec`` byte for byte, so a replay that drifts from the engine
fails loudly instead of timing the wrong code.
"""

from __future__ import annotations

import dataclasses

from common import canonical, spec_id
from spans import Tracer

#: Span names of the offline schedulers (Figure 6 pipeline).
OFFLINE_SPANS = {
    "heteroprio": "core.heteroprio",
    "dualhp": "schedulers.dualhp",
    "heft": "schedulers.heft",
}

#: Spans that wrap other spans rather than a layer's own work.
WRAPPER_SPANS = ("replay", "instance")

#: Every span a replay records, wrappers included.
LAYER_SPANS = WRAPPER_SPANS + (
    "dag.build",
    "dag.priorities",
    "bounds.dag_lp",
    "bounds.area",
    "simulator.simulate.dualhp",
    "simulator.simulate.heteroprio",
    "simulator.simulate.heft",
    "simulator.metrics",
    "campaign.cache.put",
    "campaign.cache.get_disk",
    "campaign.cache.get_memory",
) + tuple(OFFLINE_SPANS.values())


def _offline(algorithm: str):
    from repro.core.heteroprio import heteroprio_schedule
    from repro.schedulers.dualhp import dualhp_schedule
    from repro.schedulers.heft import heft_schedule

    if algorithm == "heteroprio":
        return lambda inst, platform: heteroprio_schedule(
            inst, platform, compute_ns=False
        )
    return {"dualhp": dualhp_schedule, "heft": heft_schedule}[algorithm]


def replay(specs, tracer: Tracer) -> tuple[dict[str, str], dict[str, int]]:
    """Run *specs* layer by layer; returns (canonical payloads, sim counters)."""
    from repro.bounds.area import area_bound
    from repro.bounds.dag_lp import dag_lower_bound
    from repro.dag.priorities import assign_priorities
    from repro.experiments.workloads import build_compiled
    from repro.schedulers.online import make_policy
    from repro.simulator import RuntimeSimulator, compute_metrics

    graphs: dict[tuple, object] = {}
    bounds: dict[tuple, float] = {}
    counters = {"events": 0, "stale_events": 0, "picks": 0}
    payloads: dict[str, str] = {}
    with tracer.span("replay"):
        for spec in specs:
            with tracer.span("instance", spec.spec_hash()):
                platform = spec.platform
                key = (spec.workload, spec.size)
                if key not in graphs:
                    with tracer.span("dag.build"):
                        graphs[key] = build_compiled(spec.workload, spec.size)
                graph = graphs[key]
                if spec.mode == "independent":
                    instance = graph.to_instance()
                    # execute_spec resets priorities: they break
                    # acceleration-factor ties in the offline schedulers.
                    for task in instance:
                        task.priority = 0.0
                    with tracer.span("bounds.area"):
                        bound = area_bound(instance, platform).value
                    with tracer.span(OFFLINE_SPANS[spec.algorithm]):
                        makespan = _offline(spec.algorithm)(instance, platform).makespan
                    payload = {
                        "makespan": makespan,
                        "lower_bound": bound,
                        "ratio": makespan / bound if bound > 0 else float("inf"),
                    }
                else:
                    prefix, _, scheme = spec.algorithm.partition("-")
                    with tracer.span("dag.priorities"):
                        assign_priorities(graph, platform, scheme or "avg")
                    bound_key = key + (spec.num_cpus, spec.num_gpus, spec.bound)
                    if bound_key not in bounds:
                        with tracer.span("bounds.dag_lp"):
                            bounds[bound_key] = dag_lower_bound(
                                graph.as_task_graph(), platform, method=spec.bound
                            )
                    with tracer.span(f"simulator.simulate.{prefix}"):
                        simulator = RuntimeSimulator(
                            graph, platform, make_policy(spec.algorithm)
                        )
                        schedule = simulator.run()
                    stats = simulator.last_stats
                    counters["events"] += stats.events
                    counters["stale_events"] += stats.stale_events
                    counters["picks"] += stats.picks
                    with tracer.span("simulator.metrics"):
                        run = compute_metrics(
                            schedule, platform, lower_bound=bounds[bound_key]
                        )
                    payload = dataclasses.asdict(run)
                    payload["ratio"] = run.ratio
                payloads[spec_id(spec)] = canonical(payload)
    return payloads, counters


def check_against_engine(specs, payloads: dict[str, str]) -> list[str]:
    """Problems where the replay's payload is not ``execute_spec``'s."""
    from repro.campaign.executor import execute_spec

    problems = []
    for spec in specs:
        if canonical(execute_spec(spec)) != payloads.get(spec_id(spec)):
            problems.append(f"{spec_id(spec)}: replay differs from execute_spec")
    return problems


def layer_metrics(
    own: dict[str, float], counters: dict[str, int], traced_s: float, untraced_s: float
) -> dict[str, float]:
    """Per-layer metrics from span self times (*own*, by name) and counters."""
    metrics = {
        "simulator.simulate_s.dualhp": own.get("simulator.simulate.dualhp", 0.0),
        "simulator.simulate_s.heteroprio": own.get("simulator.simulate.heteroprio", 0.0),
        "simulator.simulate_s.heft": own.get("simulator.simulate.heft", 0.0),
        "simulator.events": counters["events"],
        "simulator.picks": counters["picks"],
        "simulator.stale_frac": (
            counters["stale_events"] / counters["events"] if counters["events"] else 0.0
        ),
        "simulator.metrics_s": own.get("simulator.metrics", 0.0),
        "bounds.dag_lp_s": own.get("bounds.dag_lp", 0.0),
        "bounds.area_s": own.get("bounds.area", 0.0),
        "dag.build_s": own.get("dag.build", 0.0),
        "dag.priorities_s": own.get("dag.priorities", 0.0),
        "schedulers.dualhp_s": own.get("schedulers.dualhp", 0.0),
        "core.heteroprio_s": own.get("core.heteroprio", 0.0),
        "schedulers.heft_s": own.get("schedulers.heft", 0.0),
    }
    attributed = sum(
        t for name, t in own.items() if name in LAYER_SPANS and name not in WRAPPER_SPANS
    )
    metrics["trace.unattributed_s"] = traced_s - attributed
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return metrics
