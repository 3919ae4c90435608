"""Shared definitions of the benchmark: paths, grids, output checks, stats.

Imported by the orchestrator (``run.py``), the fresh-interpreter passes
(``child.py``) and the helpers beside them.  Nothing here imports
``repro`` at module level, so ``run.py`` can refuse to run (exit code 2)
in a checkout that lacks the program's sources before touching them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform as _platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch area for cache dirs and trace files (git-ignored).
WORK = ROOT / ".perfbench"
REFERENCE_FILE = BENCH_DIR / "reference.json"
KERNELS = ("cholesky", "qr", "lu")

#: The grids.  Every workload sweeps all three factorization kernels on
#: the paper's 20 CPU + 4 GPU node; see README.md for why N stops where
#: it does.
GRIDS = {
    "fig7-cold": {"figures": {"fig7": (4, 8, 12)}, "jobs": 1},
    "fig6-par": {"figures": {"fig6": (4, 8, 12, 16)}, "jobs": 2},
    # Serial, so the set-up's fill runs where its calibrator samples; a
    # warm pass executes nothing, whatever its jobs.
    "fig7-warm": {"figures": {"fig6": (4, 8, 12), "fig7": (4, 8, 12)}, "jobs": 1},
}


def sources_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict[str, str]:
    """Environment for a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def use_sources() -> None:
    """Make this process import ``repro`` from the checkout only."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def grid_specs(figures: dict[str, tuple[int, ...]]) -> list:
    """The campaign specs of *figures* in the order the drivers run them."""
    from repro.experiments import dags, fig6

    specs = []
    for kernel in KERNELS:
        for figure, n_values in figures.items():
            if figure == "fig6":
                specs += fig6.sweep_specs(kernel, n_values=n_values)
            else:
                specs += dags.sweep_specs(kernel, n_values=n_values)
    return specs


def spec_id(spec) -> str:
    return f"{spec.label()}/{spec.bound}"


def canonical(payload: dict) -> str:
    """Canonical JSON of a metrics payload (NaN/inf tunnelled)."""
    from repro.campaign.cache import encode_value
    from repro.io import canonical_dumps

    return canonical_dumps(encode_value(payload))


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def payload_problems(payload: dict) -> list[str]:
    """The paper's run-time invariants every payload must satisfy."""
    makespan = payload.get("makespan")
    lower = payload.get("lower_bound")
    if not isinstance(makespan, float) or not math.isfinite(makespan):
        return [f"makespan {makespan!r} is not finite"]
    if not isinstance(lower, float) or makespan < lower * (1 - 1e-9):
        return [f"makespan {makespan!r} below lower bound {lower!r}"]
    return []


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE_FILE.read_text())


def check_payloads(payloads: dict[str, str], reference: dict[str, str]) -> list[str]:
    """Check canonical payloads (by spec id) against invariants + reference."""
    problems = []
    for key, text in payloads.items():
        for problem in payload_problems(json.loads(text)):
            problems.append(f"{key}: {problem}")
        expected = reference.get(key)
        if expected is None:
            problems.append(f"{key}: no reference payload")
        elif sha(text) != expected:
            problems.append(f"{key}: payload differs from the reference")
    return problems


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of *values*."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def environment() -> dict[str, object]:
    """Where the numbers were taken: cores, interpreter, libraries, code."""
    import numpy
    import scipy

    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            # Never report the revision of a repository around the checkout.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        revision = ""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": _platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": revision or "unknown",
        "src_sha256": digest.hexdigest()[:16],
    }
