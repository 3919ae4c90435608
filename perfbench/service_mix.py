"""The ``service-mix`` workload: ``repro serve`` under a closed loop.

The client sends a request, waits for its last response line, then
sends the next (a closed loop of one request in flight: a slower server
gets less load).  With two such loops the latency of a hit depended on
whether the loops fell in step, waiting for each other's request, or
out of step, and that phase held for whole runs: the hit median read
~1.5 ms in some runs and ~2.0 ms in others.  The mix, drawn from the
workload seed:

* hot singles — ``/v1/schedule`` on a key set warmed during set-up, so
  the dispatcher answers from the memory tier;
* cold singles — a layered DAG (8 layers) under HeteroPrio, HEFT or
  DualHP with a seed never sent before: a miss, executed inline;
* coalesced pairs — two threads meet at a barrier and send the same
  cold key on two connections at once, so the second rides the first's
  execution (single-flight coalescing);
* batch sweeps — a ``/v1/batch`` of 32 independent layered instances
  with distinct seeds, which the dispatcher prefetches through the
  lockstep batch engine.

The server speaks one request per connection with NDJSON bodies: an
``accepted`` line, then ``result``/``error`` lines.  Every distinct
response is checked after the timed window against ``execute_spec`` of
the same spec.
"""

from __future__ import annotations

import json
import os
import random
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import canonical, child_env, median, payload_problems, percentile
from spans import Tracer

HOT_KEYS = 16
COLD_FRAC = 0.003
COALESCE_EVERY = 1000
BATCH_EVERY = 5000
BATCH_ROWS = 32
LAYERS = 8
DAG_ALGORITHMS = ("heteroprio-avg", "heft-avg", "dualhp-avg")
OFFLINE_ALGORITHMS = ("heteroprio", "heft", "dualhp")
TIMEOUT_S = 60.0
#: The server's peak RSS is read once this many requests have completed:
#: its job registry grows with every request served, so a reading at the
#: end of the window would grow with throughput.
RSS_AFTER_REQUESTS = 5000


def dag_request(seed: int, algorithm: str) -> dict:
    return {
        "workload": {"family": "layered", "size": LAYERS, "seed": seed},
        "policy": {"algorithm": algorithm, "mode": "dag", "bound": "auto"},
        "platform": {"num_cpus": 20, "num_gpus": 4},
    }


def batch_request(seeds: list[int], algorithm: str) -> dict:
    policy = {"algorithm": algorithm, "mode": "independent", "bound": "area"}
    return {
        "kind": "batch",
        "continue_on_error": True,
        "requests": [
            {
                "workload": {"family": "layered", "size": LAYERS, "seed": seed},
                "policy": policy,
                "platform": {"num_cpus": 20, "num_gpus": 4},
            }
            for seed in seeds
        ],
    }


# -- the server process -------------------------------------------------------


def pin_to_one_cpu() -> int:
    """Pin the calling thread (and the threads it starts) to one vCPU.

    The server and the client share that vCPU, so a round trip is two
    context switches on it.  Across two vCPUs it is two wake-ups of an
    idle vCPU, whose latency on a shared VM varies with the host's load.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def start_server(cache_dir: Path) -> tuple[subprocess.Popen, int]:
    """Spawn ``repro serve`` (inline execution) and wait until it listens.
    It inherits the caller's CPU affinity."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"]
        + ["--cache-dir", str(cache_dir)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    deadline = time.monotonic() + TIMEOUT_S
    seen = b""
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stderr], [], [], 0.5)
        if ready:
            chunk = os.read(proc.stderr.fileno(), 4096)
            if not chunk:
                break
            seen += chunk
            match = re.search(rb"listening on http://[^:]+:(\d+)", seen)
            if match:
                return proc, int(match.group(1))
    stop_server(proc)
    raise RuntimeError(f"server did not start: {seen.decode(errors='replace')}")


def peak_rss_mb(proc: subprocess.Popen) -> float:
    """The server's peak resident set (``VmHWM``), in MiB."""
    status = Path(f"/proc/{proc.pid}/status").read_text()
    kib = int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
    return kib / 1024


def stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stderr is not None:
        proc.stderr.close()


# -- one HTTP exchange --------------------------------------------------------


@dataclass
class Exchange:
    status: int = 0
    events: list = field(default_factory=list)
    accept_s: float = 0.0
    total_s: float = 0.0
    error: str = ""


def call(
    port: int, method: str, path: str, body: bytes, tracer: Tracer, request_id=None
) -> Exchange:
    """One request; timestamps the ``accepted`` line and the last line."""
    out = Exchange()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    started = time.perf_counter()
    try:
        with tracer.span("service.request", request_id):
            address = ("127.0.0.1", port)
            with socket.create_connection(address, timeout=TIMEOUT_S) as sock:
                with tracer.span("service.accept"):
                    sock.sendall(head + body)
                    stream = sock.makefile("rb")
                    out.status = int(stream.readline().split()[1])
                    ndjson = False
                    while True:
                        line = stream.readline()
                        if line in (b"\r\n", b""):
                            break
                        ndjson |= line.lower().startswith(
                            b"content-type: application/x-ndjson"
                        )
                    if not ndjson:
                        out.events.append(json.loads(stream.read() or b"null"))
                        out.total_s = time.perf_counter() - started
                        return out
                    out.events.append(json.loads(stream.readline()))
                    out.accept_s = time.perf_counter() - started
                with tracer.span("service.exec"):
                    for line in stream:
                        out.events.append(json.loads(line))
        out.total_s = time.perf_counter() - started
    except (OSError, ValueError, IndexError) as exc:
        out.error = f"{type(exc).__name__}: {exc}"
    return out


# -- the closed loop ----------------------------------------------------------


@dataclass
class Tally:
    latency_ms: dict = field(
        default_factory=lambda: {"hit": [], "miss": [], "pair": [], "batch": []}
    )
    accept_ms: list = field(default_factory=list)
    exec_ms: list = field(default_factory=list)
    #: ``perf_counter`` time each successful request completed at
    finished: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    #: spec body (canonical request JSON) -> set of canonical payloads seen
    responses: dict = field(default_factory=dict)


class Mix:
    def __init__(self, port: int, seed: int, tracer: Tracer, stream: int = 0):
        """*stream* picks the cold keys: each window of one server draws
        its own, so a later window's misses are not an earlier one's hits."""
        self.port = port
        self.seed = seed
        self.stream = stream
        self.tracer = tracer
        rng = random.Random(seed)
        self.hot = [
            dag_request(rng.getrandbits(31), DAG_ALGORITHMS[i % len(DAG_ALGORITHMS)])
            for i in range(HOT_KEYS)
        ]
        self.tally = Tally()
        self.lock = threading.Lock()
        self.barrier = threading.Barrier(2, timeout=TIMEOUT_S)
        self._hashes: dict[str, str] = {}
        #: Called once, after RSS_AFTER_REQUESTS requests; sets ``rss_mb``.
        self.rss_probe = None
        self.rss_mb = None

    def _request_id(self, body: str) -> str:
        from repro.service.models import load_request_text

        if body not in self._hashes:
            self._hashes[body] = load_request_text(body).to_instance_spec().spec_hash()
        return self._hashes[body]

    def single(self, request: dict, kind: str) -> None:
        body = json.dumps(request, sort_keys=True)
        with self.lock:
            request_id = self._request_id(body) if self.tracer.enabled else None
        ex = call(
            self.port, "POST", "/v1/schedule", body.encode(), self.tracer, request_id
        )
        self._record(ex, kind, [body])

    def batch(self, request: dict) -> None:
        bodies = [json.dumps(item, sort_keys=True) for item in request["requests"]]
        body = json.dumps(request).encode()
        ex = call(self.port, "POST", "/v1/batch", body, self.tracer)
        self._record(ex, "batch", bodies)

    def _record(self, ex: Exchange, kind: str, bodies: list[str]) -> None:
        with self.lock:
            tally = self.tally
            tally.attempted += 1
            if tally.attempted == RSS_AFTER_REQUESTS and self.rss_probe:
                self.rss_mb = self.rss_probe()
            names = [e.get("event") if isinstance(e, dict) else None for e in ex.events]
            results = [e for e, name in zip(ex.events, names) if name == "result"]
            if (
                ex.error
                or ex.status != 200
                or len(results) != len(bodies)
                or {"error", "cancelled"} & set(names)
            ):
                tally.failures.append(
                    f"{kind}: status {ex.status} {ex.error} {ex.events[-1:]}"
                )
                return
            tally.latency_ms[kind].append(ex.total_s * 1e3)
            tally.finished.append(time.perf_counter())
            if kind != "batch":
                tally.accept_ms.append(ex.accept_s * 1e3)
                tally.exec_ms.append((ex.total_s - ex.accept_s) * 1e3)
            for body, result in zip(bodies, results):
                wire = json.dumps(result["metrics"], sort_keys=True)
                tally.responses.setdefault(body, set()).add(wire)

    def pair(self, request: dict) -> None:
        """The same request on two connections at once."""
        def send() -> None:
            try:
                self.barrier.wait()
            except threading.BrokenBarrierError:
                return
            self.single(request, "pair")

        threads = [threading.Thread(target=send) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=3 * TIMEOUT_S)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a coalesced pair did not finish")

    def run(self, seconds: float) -> tuple[float, float]:
        """Drive the loop for *seconds*; returns the window's
        ``perf_counter`` (start, end)."""
        rng = random.Random(f"{self.seed}/{self.stream}")
        started = time.perf_counter()
        deadline = started + seconds
        op = 0
        while time.perf_counter() < deadline:
            op += 1
            if op % COALESCE_EVERY == 0:
                self.pair(dag_request(rng.getrandbits(31), "dualhp-avg"))
            elif op % BATCH_EVERY == BATCH_EVERY // 2 + 1:
                seeds = [rng.getrandbits(31) for _ in range(BATCH_ROWS)]
                self.batch(batch_request(seeds, rng.choice(OFFLINE_ALGORITHMS)))
            elif rng.random() < COLD_FRAC:
                request = dag_request(rng.getrandbits(31), rng.choice(DAG_ALGORITHMS))
                self.single(request, "miss")
            else:
                self.single(rng.choice(self.hot), "hit")
        return started, time.perf_counter()


def stats(port: int) -> dict:
    ex = call(port, "GET", "/v1/stats", b"", Tracer(enabled=False))
    if ex.status != 200:
        raise RuntimeError(f"/v1/stats answered {ex.status} {ex.error}")
    return ex.events[0]


def setup(root: Path, seed: int) -> tuple[subprocess.Popen, int, float]:
    """Start a server on a fresh cache dir and warm the hot keys."""
    started = time.perf_counter()
    proc, port = start_server(root)
    warm = Mix(port, seed, Tracer(enabled=False))
    for request in warm.hot:
        warm.single(request, "miss")
    if warm.tally.failures:
        stop_server(proc)
        raise RuntimeError(f"warming the hot keys failed: {warm.tally.failures[:3]}")
    return proc, port, time.perf_counter() - started


def verify(tally: Tally) -> list[str]:
    """Compare every distinct response with ``execute_spec`` of its spec."""
    from repro.campaign.cache import decode_value
    from repro.campaign.executor import execute_spec
    from repro.service.models import load_request_text

    problems = []
    for body, seen in tally.responses.items():
        expected = canonical(execute_spec(load_request_text(body).to_instance_spec()))
        wire = {canonical(decode_value(json.loads(text))) for text in seen}
        if wire != {expected}:
            problems.append(f"{body}: served {len(wire)} payload(s) != execute_spec")
        problems += [f"{body}: {p}" for p in payload_problems(json.loads(expected))]
    return problems


def counters(before: dict, after: dict) -> dict[str, float]:
    """Per-layer service counters over the measured window."""
    def delta(section: str, key: str) -> float:
        return after[section][key] - before[section][key]

    tiers_after = after["dispatcher"]["cache_tiers"]
    tiers_before = before["dispatcher"]["cache_tiers"]
    hits = sum(tiers_after[k] - tiers_before[k] for k in ("memory_hits", "disk_hits"))
    lookups = hits + tiers_after["misses"] - tiers_before["misses"]
    dispatch = ("cache_hits", "executed", "coalesced", "prefetched", "errors")
    out = {f"service.dispatch.{k}": delta("dispatcher", k) for k in dispatch}
    out.update({f"service.jobs.{k}": delta("queue", k) for k in ("retries", "rejected")})
    out["campaign.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    return out


def summary(tally: Tally, wall_s: float) -> dict[str, float]:
    latency = tally.latency_ms
    singles = latency["hit"] + latency["miss"] + latency["pair"]
    done = len(singles) + len(latency["batch"])
    return {
        "req_p50_ms": median(singles),
        "req_p99_ms": percentile(singles, 99),
        "hit_p50_ms": median(latency["hit"]),
        "miss_p50_ms": median(latency["miss"]),
        "batch_p50_ms": median(latency["batch"]),
        "req_per_s": done / wall_s,
        "accept_ms_p50": median(tally.accept_ms),
        "exec_ms_p50": median(tally.exec_ms),
    }
