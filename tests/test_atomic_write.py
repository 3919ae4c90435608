"""Atomic writes of cache entries, salt tables and stored graphs.

Every file the campaign cache writes goes through
:func:`repro.io.atomic_write`: readers see the old file or the whole new
one, a failed write leaves no temp file behind, and the file gets the
mode ``open(path, "w")`` would give (``0o666`` less the umask), so a
cache directory shared between accounts stays readable by all of them.
"""

from __future__ import annotations

import os
import stat

import pytest

from repro.campaign import InstanceSpec, ResultCache, salts
from repro.campaign.graph_store import GraphStore
from repro.dag.cholesky import cholesky_compiled
from repro.io import atomic_write

UMASKS = (0o022, 0o002, 0o077)


@pytest.fixture(params=UMASKS, ids=lambda mask: f"umask{mask:03o}")
def umask(request):
    """Run the test under each process umask, restoring the old one."""
    old = os.umask(request.param)
    try:
        yield request.param
    finally:
        os.umask(old)


@pytest.fixture(autouse=True)
def _fresh_tables():
    salts.set_fingerprint_override(None)
    yield
    salts.set_fingerprint_override(None)


def mode(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


def temp_files(root) -> list:
    return sorted(root.rglob(".tmp-*"))


class TestAtomicWrite:
    def test_text_and_bytes(self, tmp_path, umask):
        with atomic_write(tmp_path / "a.json", suffix=".json") as handle:
            handle.write("é\n")
        with atomic_write(tmp_path / "b.bin", "wb") as handle:
            handle.write(b"\x00\x01")
        assert (tmp_path / "a.json").read_bytes() == "é\n".encode("utf-8")
        assert (tmp_path / "b.bin").read_bytes() == b"\x00\x01"
        assert mode(tmp_path / "a.json") == 0o666 & ~umask
        assert mode(tmp_path / "b.bin") == 0o666 & ~umask
        assert temp_files(tmp_path) == []

    def test_replaces_the_old_file_and_takes_the_umask_mode(self, tmp_path, umask):
        target = tmp_path / "entry.json"
        target.write_text("old")
        target.chmod(0o600)
        with atomic_write(target) as handle:
            handle.write("new")
        assert target.read_text() == "new"
        assert mode(target) == 0o666 & ~umask

    def test_an_exception_keeps_the_old_file_and_removes_the_temp(self, tmp_path):
        target = tmp_path / "entry.json"
        target.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_write(target) as handle:
                handle.write("half")
                raise RuntimeError("killed mid-write")
        assert target.read_text() == "old"
        assert temp_files(tmp_path) == []

    def test_a_failed_rename_removes_the_temp(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            with atomic_write(tmp_path / "entry.json") as handle:
                handle.write("x")
        assert list(tmp_path.iterdir()) == []


class TestCacheFileModes:
    """The three writers of a cache root all leave shareable files."""

    def test_result_entry_and_salt_table(self, tmp_path, umask):
        cache = ResultCache(tmp_path)
        entry = cache.put(
            InstanceSpec(workload="qr", size=4, algorithm="heft-avg"),
            {"makespan": 1.0},
        )
        table = tmp_path / salts.TABLE_DIR / f"{salts.live_tree_digest()}.json"
        assert table.is_file()
        assert mode(entry) == 0o666 & ~umask
        assert mode(table) == 0o666 & ~umask
        assert temp_files(tmp_path) == []

    def test_stored_graph(self, tmp_path, umask):
        store = GraphStore(tmp_path / "graphs")
        path = store.put(cholesky_compiled(4), "cholesky", 4)
        assert mode(path) == 0o666 & ~umask
        assert store.get("cholesky", 4) is not None
        assert temp_files(tmp_path) == []
