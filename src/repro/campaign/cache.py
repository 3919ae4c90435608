"""Tiered (memory + disk), content-addressed result cache for campaigns.

Each cached entry is one JSON file at ``<root>/<hh>/<hash>.json`` where
``hash`` is :meth:`InstanceSpec.spec_hash` under the entry's *effective*
salt and ``hh`` its first two hex digits (a fan-out shard so directories
stay small at production scale).  Entries are written atomically (temp
file + rename), so concurrent campaigns sharing a cache directory can
only ever observe complete entries.

Two tiers sit in front of the executor:

* a bounded in-process **memory tier** (LRU over decoded entries) that
  turns repeat warm hits from a disk read + JSON parse into a dict
  copy — the tier every long-lived service and every warm re-render
  hits;
* the **disk tier**, optionally capped (``disk_cap_bytes``) with
  deterministic LRU eviction: reads refresh an entry's mtime, so
  :meth:`prune` drops the least-recently-used files first, ties broken
  by file name.

**Selective salts** — with ``selective=True`` (the default) the
effective salt of a spec is derived from the dependency closure of the
modules its execution path reaches
(:func:`repro.campaign.salts.salt_for_spec`), so editing one scheduler
re-keys only the entries that executed it.  Entries written before this
scheme (salt exactly the base ``CODE_VERSION``) are honoured by a
**migration shim**: when a selective lookup misses but the spec's
closure still fingerprints identically to the frozen snapshot in
``analysis/legacy_fingerprints.json``, the legacy entry is served and
promoted to its selective key (counted in ``stats.migrated``).

The payload stores the spec and its effective salt verbatim, and a read
verifies both against the requester — a hash collision or a stale salt
can therefore never leak a wrong result.  Non-finite metric values are
tunnelled through JSON as tagged strings, keeping the files canonical.

The tables the selective salts are derived from live beside the
entries, in ``<table_root>/salts/<digest>.json`` (see
:mod:`repro.campaign.salts`): the first selective cache that needs a
salt binds the process-wide tables to its ``table_root``, so a fresh
interpreter reads one small file instead of parsing every salted
module.  ``salts/`` is not a shard: no maintenance operation counts or
evicts it, and :meth:`ResultCache.gc` drops tables of other trees.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Iterator

from repro.campaign.salts import (
    TABLE_DIR,
    bind_table_root,
    closure_is_pristine,
    live_tree_digest,
    salt_for_spec,
    spec_roots,
)
from repro.campaign.spec import CODE_VERSION, InstanceSpec
from repro.io import atomic_write, canonical_dumps

__all__ = [
    "CacheStats",
    "ResultCache",
    "CACHE_FORMAT_VERSION",
    "DEFAULT_MEMORY_ENTRIES",
    "encode_value",
    "decode_value",
]

CACHE_FORMAT_VERSION = 1

#: Memory-tier capacity when the caller does not choose one.  Entries
#: are small decoded dicts (~10 scalars), so the default costs well
#: under a megabyte while covering every figure grid in one tier.
DEFAULT_MEMORY_ENTRIES = 512

_NONFINITE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def _encode_value(value: Any) -> Any:
    """Replace non-finite floats with a tagged marker (JSON-canonical)."""
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return {"$float": "nan"}
        return {"$float": "inf" if value > 0 else "-inf"}
    if isinstance(value, dict):
        return {key: _encode_value(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {"$float"}:
            return _NONFINITE[value["$float"]]
        return {key: _decode_value(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_decode_value(v) for v in value]
    return value


#: Public names for the NaN/inf tunnelling codec: metrics payloads that
#: must cross a JSON boundary (cache files, the service's NDJSON wire
#: format) encode with :func:`encode_value` and restore with
#: :func:`decode_value`.
encode_value = _encode_value
decode_value = _decode_value


@lru_cache(maxsize=65536)
def _spec_key(spec: InstanceSpec, salt: str) -> str:
    """Memoised content address — a memory-tier hit must not pay the
    canonical-JSON + SHA-256 cost of :meth:`InstanceSpec.spec_hash`."""
    return spec.spec_hash(salt=salt)


def _entry_copy(entry: dict[str, Any]) -> dict[str, Any]:
    """A mutation-safe copy of a cached entry (metrics re-dicted)."""
    copied = dict(entry)
    copied["metrics"] = dict(entry.get("metrics", {}))
    return copied


@dataclass
class CacheStats:
    """Tier counters of one :class:`ResultCache` (per process)."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0
    memory_evictions: int = 0
    disk_evictions: int = 0
    migrated: int = 0

    def snapshot(self) -> "CacheStats":
        """A frozen copy (for before/after deltas around a campaign)."""
        return dataclasses.replace(self)

    def to_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


class ResultCache:
    """Tiered, sharded, content-addressed store of per-instance metrics.

    Parameters
    ----------
    root:
        Directory of the disk tier (created if missing).
    salt:
        Base code-version salt.  With ``selective=True`` it is mixed
        with each spec's module-closure digest into the effective salt;
        with ``selective=False`` it is the effective salt verbatim (the
        pre-PR-8 behaviour — also how legacy entries were written).
    memory_entries:
        Memory-tier capacity in entries; ``0`` disables the tier.
    disk_cap_bytes:
        Soft cap on the disk tier.  Checked every
        :data:`PRUNE_CHECK_INTERVAL` puts (a full prune scans the tier),
        and enforceable on demand via :meth:`prune` / ``repro cache``.
    selective:
        Derive per-spec salts from module closures (see module
        docstring) and honour the legacy-entry migration shim.
    table_root:
        Directory whose ``salts/`` subdirectory stores the salt tables
        (default: *root*).  Tenant namespaces pass their server's base
        root, so every tenant shares one table.
    """

    #: Puts between automatic cap checks (prune scans the whole tier,
    #: so enforcing on every put would be quadratic).
    PRUNE_CHECK_INTERVAL = 32

    def __init__(
        self,
        root: str | Path,
        *,
        salt: str = CODE_VERSION,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
        disk_cap_bytes: int | None = None,
        selective: bool = True,
        table_root: str | Path | None = None,
    ):
        self.root = Path(root)
        self.table_root = self.root if table_root is None else Path(table_root)
        self.salt = salt
        self.memory_entries = max(0, int(memory_entries))
        self.disk_cap_bytes = disk_cap_bytes
        self.selective = bool(selective)
        self.stats = CacheStats()
        self._memory: "OrderedDict[str, dict[str, Any]]" = OrderedDict()
        self._memory_lock = threading.Lock()
        self._puts_since_check = 0
        self._tables_bound = False
        self.root.mkdir(parents=True, exist_ok=True)

    # The executor pickles caches into spawn/fork workers (mp pool,
    # work-stealing fabric); locks do not pickle and per-child tiers and
    # counters start fresh — parent-side state is parent-only.
    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        state["_memory"] = OrderedDict()
        state["_memory_lock"] = None
        state["stats"] = CacheStats()
        state["_puts_since_check"] = 0
        state["_tables_bound"] = False
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._memory_lock = threading.Lock()

    # -- addressing ----------------------------------------------------------

    def salt_for(self, spec: InstanceSpec) -> str:
        """The effective salt of *spec* under this cache."""
        if not self.selective:
            return self.salt
        if not self._tables_bound:
            bind_table_root(self.table_root)
            self._tables_bound = True
        return salt_for_spec(spec, base=self.salt)

    def key(self, spec: InstanceSpec) -> str:
        """The content address of *spec* under its effective salt."""
        return _spec_key(spec, self.salt_for(spec))

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def path_for(self, spec: InstanceSpec) -> Path:
        """Where *spec*'s entry lives (whether or not it exists yet)."""
        return self._path(self.key(spec))

    # -- memory tier ---------------------------------------------------------

    def _memory_get(self, key: str) -> dict[str, Any] | None:
        if self.memory_entries <= 0:
            return None
        with self._memory_lock:
            entry = self._memory.get(key)
            if entry is None:
                return None
            self._memory.move_to_end(key)
            return _entry_copy(entry)

    def _memory_put(self, key: str, entry: dict[str, Any]) -> None:
        if self.memory_entries <= 0:
            return
        with self._memory_lock:
            self._memory[key] = _entry_copy(entry)
            self._memory.move_to_end(key)
            while len(self._memory) > self.memory_entries:
                self._memory.popitem(last=False)
                self.stats.memory_evictions += 1

    def _memory_drop(self, key: str) -> None:
        with self._memory_lock:
            self._memory.pop(key, None)

    # -- read/write ----------------------------------------------------------

    def _load_disk(
        self, path: Path, *, salt: str, spec: InstanceSpec
    ) -> dict[str, Any] | None:
        """Read + validate one disk entry; any mismatch is a miss."""
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if (
            payload.get("version") != CACHE_FORMAT_VERSION
            or payload.get("salt") != salt
            or payload.get("spec") != spec.to_dict()
        ):
            return None
        entry: dict[str, Any] = _decode_value(payload)
        entry["metrics"] = dict(entry.get("metrics", {}))
        return entry

    def get(self, spec: InstanceSpec) -> dict[str, Any] | None:
        """The stored entry for *spec*, or ``None`` on a miss.

        Lookup order: memory tier, disk tier (read refreshes the LRU
        mtime and feeds the memory tier), then — selective caches only —
        the legacy global-salt entry via the migration shim.  Corrupt or
        mismatched entries (wrong salt, wrong spec) count as misses
        rather than errors; the executor recomputes and overwrites them.
        """
        effective = self.salt_for(spec)
        key = _spec_key(spec, effective)
        entry = self._memory_get(key)
        if entry is not None:
            self.stats.memory_hits += 1
            return entry
        path = self._path(key)
        entry = self._load_disk(path, salt=effective, spec=spec)
        if entry is not None:
            self.stats.disk_hits += 1
            try:
                os.utime(path)  # refresh LRU recency for prune()
            except OSError:
                pass
            self._memory_put(key, entry)
            return entry
        entry = self._migrate_legacy(spec, effective)
        if entry is not None:
            self.stats.disk_hits += 1
            self.stats.migrated += 1
            return entry
        self.stats.misses += 1
        return None

    def _migrate_legacy(
        self, spec: InstanceSpec, effective: str
    ) -> dict[str, Any] | None:
        """Serve + promote a pre-selective entry when provably fresh.

        A legacy entry (written under the plain base salt) is valid iff
        every module in the spec's closure still fingerprints exactly as
        frozen in ``analysis/legacy_fingerprints.json`` — byte-equivalent
        code, so the stored result is what a recompute would produce.
        """
        if not self.selective or effective == self.salt:
            return None
        if not closure_is_pristine(spec_roots(spec), base=self.salt):
            return None
        legacy_key = _spec_key(spec, self.salt)
        entry = self._load_disk(self._path(legacy_key), salt=self.salt, spec=spec)
        if entry is None:
            return None
        # Promote: rewrite under the selective key (and into the memory
        # tier) so the next lookup is a first-class hit.
        self.put(spec, entry["metrics"], elapsed_s=float(entry.get("elapsed_s", 0.0)))
        return entry

    def put(
        self,
        spec: InstanceSpec,
        metrics: dict[str, Any],
        *,
        elapsed_s: float = 0.0,
    ) -> Path:
        """Store *metrics* for *spec* atomically; returns the entry path.

        Feeds both tiers: the memory tier receives the JSON round-trip
        of the payload, so a memory hit is bit-identical to the disk
        read it replaces.
        """
        effective = self.salt_for(spec)
        key = _spec_key(spec, effective)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "salt": effective,
            "spec": spec.to_dict(),
            "metrics": _encode_value(dict(metrics)),
            "elapsed_s": float(elapsed_s),
        }
        text = canonical_dumps(payload, indent=1)
        with atomic_write(path, suffix=".json") as handle:
            handle.write(text + "\n")
        self.stats.puts += 1
        entry: dict[str, Any] = _decode_value(json.loads(text))
        entry["metrics"] = dict(entry.get("metrics", {}))
        self._memory_put(key, entry)
        if self.disk_cap_bytes is not None:
            self._puts_since_check += 1
            if self._puts_since_check >= self.PRUNE_CHECK_INTERVAL:
                self._puts_since_check = 0
                self.prune(max_bytes=self.disk_cap_bytes)
        return path

    # -- maintenance ---------------------------------------------------------

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_paths())

    def iter_paths(self) -> Iterator[Path]:
        """All entry files currently stored (any salt)."""
        if not self.root.exists():
            return
        for shard in sorted(self.root.iterdir()):
            if shard.is_dir() and len(shard.name) == 2:
                yield from sorted(shard.glob("*.json"))

    def disk_usage(self) -> tuple[int, int]:
        """``(entries, bytes)`` of the disk tier right now."""
        entries = 0
        total = 0
        for path in self.iter_paths():
            try:
                total += path.stat().st_size
            except OSError:
                continue
            entries += 1
        return entries, total

    def prune(
        self, *, max_bytes: int | None = None, max_entries: int | None = None
    ) -> int:
        """Evict least-recently-used disk entries down to the caps.

        Deterministic: candidates are ordered by ``(mtime_ns, name)``
        oldest first — reads refresh mtime, so recently served entries
        survive.  Evicted entries also leave the memory tier (an entry
        the operator pruned must actually be gone).  Returns the number
        of files removed.
        """
        if max_bytes is None and max_entries is None:
            max_bytes = self.disk_cap_bytes
        if max_bytes is None and max_entries is None:
            return 0
        entries: list[tuple[int, str, Path, int]] = []
        total = 0
        for path in self.iter_paths():
            try:
                st = path.stat()
            except OSError:
                continue
            entries.append((st.st_mtime_ns, path.name, path, st.st_size))
            total += st.st_size
        count = len(entries)

        def within_caps() -> bool:
            if max_bytes is not None and total > max_bytes:
                return False
            if max_entries is not None and count > max_entries:
                return False
            return True

        if within_caps():
            return 0
        entries.sort()
        removed = 0
        for _mtime, name, path, size in entries:
            if within_caps():
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            count -= 1
            removed += 1
            self.stats.disk_evictions += 1
            self._memory_drop(name[: -len(".json")])
        return removed

    def gc(self) -> int:
        """Drop entries no longer readable under the current salts.

        Keeps entries stored under their current effective salt, plus
        legacy (base-salt) entries the migration shim still honours;
        removes everything else — foreign salts, superseded closures,
        corrupt files, entries filed under the wrong name.  Salt tables
        of other trees and interrupted table writes (``.tmp-`` files)
        under ``<table_root>/salts/`` go too.  Returns the number of
        files removed.
        """
        doomed = [path for path in self.iter_paths() if not self._gc_keep(path)]
        doomed += self._stale_salt_tables()
        removed = 0
        for path in doomed:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def _stale_salt_tables(self) -> list[Path]:
        """Files under ``salts/`` that no lookup of this tree can read."""
        directory = self.table_root / TABLE_DIR
        if not directory.is_dir():
            return []
        live = f"{live_tree_digest()}.json"
        return [
            path
            for path in sorted(directory.iterdir())
            if path.name.startswith(".tmp-")
            or (path.suffix == ".json" and path.name != live)
        ]

    def _gc_keep(self, path: Path) -> bool:
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return False
        if (
            not isinstance(payload, dict)
            or payload.get("version") != CACHE_FORMAT_VERSION
        ):
            return False
        try:
            spec = InstanceSpec.from_dict(payload.get("spec", {}))
        except (KeyError, TypeError, ValueError):
            return False
        stored_salt = payload.get("salt")
        if not isinstance(stored_salt, str):
            return False
        if path.stem != _spec_key(spec, stored_salt):
            return False  # unreachable: filed under the wrong address
        if stored_salt == self.salt_for(spec):
            return True
        return (
            self.selective
            and stored_salt == self.salt
            and closure_is_pristine(spec_roots(spec), base=self.salt)
        )

    def clear(self) -> int:
        """Delete every entry (any salt, both tiers); returns disk count."""
        with self._memory_lock:
            self._memory.clear()
        removed = 0
        for path in list(self.iter_paths()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
