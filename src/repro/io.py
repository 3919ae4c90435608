"""Workload serialization: instances and task graphs as JSON.

Lets users snapshot generated workloads (or craft their own outside
Python) and replay them bit-for-bit.  Graphs serialise their edges *and*
their data accesses/handle sizes, so communication-aware runs replay
identically too.  Handles are serialised with ``repr`` and restored as
opaque strings — dependency structure only needs handle *identity*.

Format (version 1)::

    {"version": 1, "kind": "instance",
     "tasks": [{"name": ..., "cpu_time": ..., "gpu_time": ...,
                "kind": ..., "priority": ...}, ...]}

    {"version": 1, "kind": "graph", "name": ...,
     "tasks": [...same...],
     "edges": [[pred_index, succ_index], ...],
     "accesses": {task_index: [[handle_repr, "R"|"W"|"RW"], ...]},
     "handle_bytes": {handle_repr: int}}
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterator

from repro.core.task import Instance, Task
from repro.dag.dataflow import Access, AccessMode
from repro.dag.graph import TaskGraph

__all__ = [
    "atomic_write",
    "canonical_dumps",
    "instance_to_json",
    "instance_from_json",
    "graph_to_json",
    "graph_from_json",
    "save",
    "load",
]

FORMAT_VERSION = 1


def _canonicalise(obj: Any) -> Any:
    """Normalise a JSON payload so equal values serialise to equal bytes.

    Floats must be finite (NaN/Infinity have no canonical JSON spelling)
    and negative zero collapses to zero; integral floats stay floats
    (``repr`` keeps the ``.0``, so the type survives a round trip).
    """
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {obj!r} has no canonical JSON form")
        return 0.0 if obj == 0.0 else obj
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"canonical JSON requires string keys, got {key!r}")
        return {key: _canonicalise(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonicalise(item) for item in obj]
    if obj is None or isinstance(obj, (str, int, bool)):
        return obj
    raise TypeError(f"cannot canonically serialise {type(obj).__name__}")


def canonical_dumps(payload: Any, *, indent: int | None = None) -> str:
    """Serialise *payload* to byte-stable JSON.

    Keys are sorted, separators fixed, floats emitted via ``repr``
    (shortest exact round trip) with ``-0.0`` normalised and non-finite
    values rejected — so equal payloads always produce identical bytes,
    the property the content-addressed result cache
    (:mod:`repro.campaign`) hashes rely on.
    """
    separators = (",", ":") if indent is None else (",", ": ")
    return json.dumps(
        _canonicalise(payload),
        sort_keys=True,
        indent=indent,
        separators=separators,
        allow_nan=False,
    )


@contextmanager
def atomic_write(
    path: str | Path, mode: str = "w", *, suffix: str = ""
) -> Iterator[IO[Any]]:
    """Write *path* atomically: a temp file beside it, renamed over it.

    Yields the open temp file (``mode`` ``"w"`` for UTF-8 text, ``"wb"``
    for bytes), named ``.tmp-<random hex><suffix>`` in *path*'s
    directory.  When the block exits cleanly the file is closed and
    moved onto *path* with ``os.replace``, so readers see the old file
    or the whole new one; on any exception it is removed and the exception
    propagates.  The file is created with mode ``0o666`` less the
    process umask — what ``open(path, "w")`` gives — not ``mkstemp``'s
    owner-only ``0o600``, so a cache directory shared between accounts
    stays readable by all of them.
    """
    path = Path(path)
    tmp = path.parent / f".tmp-{os.urandom(8).hex()}{suffix}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        encoding = None if "b" in mode else "utf-8"
        with os.fdopen(fd, mode, encoding=encoding) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _task_to_dict(task: Task) -> dict[str, Any]:
    return {
        "name": task.name,
        "cpu_time": task.cpu_time,
        "gpu_time": task.gpu_time,
        "kind": task.kind,
        "priority": task.priority,
    }


def _task_from_dict(data: dict[str, Any]) -> Task:
    return Task(
        cpu_time=float(data["cpu_time"]),
        gpu_time=float(data["gpu_time"]),
        name=str(data.get("name", "")),
        kind=str(data.get("kind", "")),
        priority=float(data.get("priority", 0.0)),
    )


def instance_to_json(instance: Instance, *, indent: int | None = 2) -> str:
    """Serialise an independent-task instance."""
    payload = {
        "version": FORMAT_VERSION,
        "kind": "instance",
        "tasks": [_task_to_dict(t) for t in instance],
    }
    return json.dumps(payload, indent=indent, sort_keys=True, allow_nan=False)


def instance_from_json(text: str) -> Instance:
    """Restore an instance; task identities are fresh, attributes equal."""
    payload = json.loads(text)
    _check(payload, "instance")
    return Instance(_task_from_dict(d) for d in payload["tasks"])


def graph_to_json(graph: TaskGraph, *, indent: int | None = 2) -> str:
    """Serialise a task graph with edges, accesses and handle sizes."""
    index = {task: i for i, task in enumerate(graph.tasks)}
    payload: dict[str, Any] = {
        "version": FORMAT_VERSION,
        "kind": "graph",
        "name": graph.name,
        "tasks": [_task_to_dict(t) for t in graph.tasks],
        "edges": sorted([index[p], index[s]] for p, s in graph.edges()),
        "accesses": {
            str(index[task]): [[repr(a.handle), a.mode.value] for a in accesses]
            for task, accesses in graph.accesses.items()
        },
        "handle_bytes": {
            repr(handle): size for handle, size in graph.handle_bytes.items()
        },
    }
    return json.dumps(payload, indent=indent, sort_keys=True, allow_nan=False)


def graph_from_json(text: str) -> TaskGraph:
    """Restore a task graph (handles come back as their repr strings)."""
    payload = json.loads(text)
    _check(payload, "graph")
    graph = TaskGraph(name=payload.get("name", "graph"))
    tasks = [_task_from_dict(d) for d in payload["tasks"]]
    for task in tasks:
        graph.add_task(task)
    for pred_i, succ_i in payload.get("edges", ()):
        graph.add_edge(tasks[pred_i], tasks[succ_i])
    for index_str, access_list in payload.get("accesses", {}).items():
        task = tasks[int(index_str)]
        graph.accesses[task] = tuple(
            Access(handle=handle_repr, mode=AccessMode(mode))
            for handle_repr, mode in access_list
        )
    graph.handle_bytes = {
        handle: int(size) for handle, size in payload.get("handle_bytes", {}).items()
    }
    return graph


def save(obj: Instance | TaskGraph, path: str | Path) -> None:
    """Write an instance or graph to a JSON file."""
    if isinstance(obj, Instance):
        text = instance_to_json(obj)
    elif isinstance(obj, TaskGraph):
        text = graph_to_json(obj)
    else:
        raise TypeError(f"cannot serialise {type(obj).__name__}")
    Path(path).write_text(text)


def load(path: str | Path) -> Instance | TaskGraph:
    """Read an instance or graph back from a JSON file."""
    text = Path(path).read_text()
    payload = json.loads(text)
    kind = payload.get("kind")
    if kind == "instance":
        return instance_from_json(text)
    if kind == "graph":
        return graph_from_json(text)
    raise ValueError(f"unknown payload kind {kind!r}")


def _check(payload: dict[str, Any], expected_kind: str) -> None:
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version!r}")
    if payload.get("kind") != expected_kind:
        raise ValueError(
            f"expected a {expected_kind!r} payload, got {payload.get('kind')!r}"
        )
