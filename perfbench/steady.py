"""Steadiness runner: repeat one workload K times and summarise each metric.

    python3 perfbench/steady.py --workload fig7-cold --runs 10 [--trace 0]

Each run gets its own seed (``--first-seed``, then +1, ...).  For every
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``),
the sample count and the spread ``(q3 - q1) / median`` against the
metric's bound in ``BENCHMARK.json``.  The runs, their environment and
the summary are also written to ``.perfbench/steady-<workload>.json``.
Exits 1 if any run fails or reports wrong outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import ROOT, WORK, environment, use_sources


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_sources()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    runs, ok = [], True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [sys.executable, *spec["command"][1:], "--workload", args.workload]
        command += ["--seed", str(seed), "--seconds", str(args.seconds)]
        command += ["--trace", str(args.trace)]
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=300
        )
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            ok = False
            print(f"seed {seed}: exit {proc.returncode}")
            print(proc.stdout[-1500:] + proc.stderr[-1500:])
            continue
        runs.append({"seed": seed, **result})
        values = ", ".join(
            f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()
        )
        print(f"seed {seed}: {values}", flush=True)

    summary = {}
    if len(runs) >= 2:
        print(f"\n{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}", end="")
        print(f" {'spread':>8} {'bound':>6}")
        for name, first in runs[0]["metrics"].items():
            values = [run["metrics"][name]["value"] for run in runs]
            q1, mid, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / mid if mid else float("nan")
            bound = bounds.get(name)
            summary[name] = {"median": mid, "q1": q1, "q3": q3, "n": len(values),
                             "spread": spread, "bound": bound, "unit": first["unit"]}
            if bound is None:
                flag = ""
            elif spread <= bound / 3:
                flag = "  ok"
            else:
                flag = "  <bound" if spread <= bound else "  OVER"
            print(
                f"{name:34} {mid:12.6g} {q1:12.6g} {q3:12.6g} {len(values):3d} "
                f"{spread:8.4f} {'' if bound is None else bound:>6}{flag}"
            )
    env = environment()
    print(f"\n# env {json.dumps(env, sort_keys=True)}")
    WORK.mkdir(exist_ok=True)
    out = WORK / f"steady-{args.workload}{'-trace' if args.trace else ''}.json"
    record = {"environment": env, "args": vars(args), "runs": runs, "summary": summary}
    out.write_text(json.dumps(record, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
