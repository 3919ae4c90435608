"""Tests for the stored salt tables (``<cache root>/salts/<digest>.json``).

A fresh interpreter reads the fingerprint table and the import graph
from one content-addressed file instead of parsing every salted module.
The contract: salts and cache keys are bit-identical whichever way the
tables were obtained, a stale or damaged table is never trusted, and no
failure to read or write a table can fail a run.
"""

from __future__ import annotations

import ast
import errno
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.fingerprint import compute_fingerprints
from repro.campaign import InstanceSpec, ResultCache, salts
from repro.campaign.spec import CODE_VERSION
from repro.experiments import dags, fig6
from repro.service.dispatch import namespaced_cache

SRC = Path(salts.__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def _fresh_tables():
    """Every test starts and ends with unloaded, unbound tables."""
    salts.set_fingerprint_override(None)
    yield
    salts.set_fingerprint_override(None)


@pytest.fixture
def derivations(monkeypatch):
    """Counts calls of :func:`salts.derive_tables` (the parse path)."""
    calls = []
    real = salts.derive_tables

    def counting(sources):
        calls.append(len(sources))
        return real(sources)

    monkeypatch.setattr(salts, "derive_tables", counting)
    return calls


def grid_specs() -> list[InstanceSpec]:
    """The fig6 + fig7 grid specs for N = 4..12 (90 specs)."""
    specs: list[InstanceSpec] = []
    for kernel in ("cholesky", "qr", "lu"):
        specs += fig6.sweep_specs(kernel, n_values=(4, 8, 12))
        specs += dags.sweep_specs(kernel, n_values=(4, 8, 12))
    return specs


def in_memory_keys(specs) -> dict[InstanceSpec, str]:
    """Cache keys from tables derived in memory (no table root bound)."""
    salts.reset_salt_caches()
    keys = {
        spec: spec.spec_hash(salt=salts.salt_for_spec(spec, base=CODE_VERSION))
        for spec in specs
    }
    salts.reset_salt_caches()
    return keys


def table_path(root: Path) -> Path:
    return root / salts.TABLE_DIR / f"{salts.live_tree_digest()}.json"


def spec() -> InstanceSpec:
    return InstanceSpec(workload="qr", size=4, algorithm="heft-avg")


def reference_import_graph(src: Path, modules) -> dict:
    """The import graph as derived before the tables were merged: one
    more ``ast.parse`` per module, after the fingerprint pass."""
    modules = frozenset(modules)
    graph = {}
    for rel in sorted(modules):
        if rel.endswith("__init__.py"):
            graph[rel] = ()
            continue
        tree = ast.parse((src / rel).read_text(encoding="utf-8"))
        edges = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                edges.update(salts._resolve_import(node, rel, modules))
        edges.discard(rel)
        graph[rel] = tuple(sorted(edges))
    return graph


class TestDerivation:
    def test_one_pass_equals_the_two_separate_derivations(self, monkeypatch):
        sources = salts._read_sources(SRC)
        parses = []
        real_parse = ast.parse
        monkeypatch.setattr(
            salts.ast, "parse", lambda *a, **k: parses.append(1) or real_parse(*a, **k)
        )
        fingerprints, graph = salts.derive_tables(sources)
        monkeypatch.undo()
        assert len(parses) == len(sources)  # one parse per salted module
        expected = compute_fingerprints(SRC)
        assert list(fingerprints.items()) == list(expected.items())
        assert graph == reference_import_graph(SRC, expected)
        assert any(graph.values())  # the graph is not trivially empty

    def test_crlf_sources_fingerprint_like_read_text(self, tmp_path):
        module = tmp_path / "repro" / "core" / "m.py"
        module.parent.mkdir(parents=True)
        module.write_bytes(b'"""Doc."""\r\nimport repro.core.n\r\nX = "a\\r\\nb"\r\n')
        (tmp_path / "repro" / "core" / "n.py").write_bytes(b"Y = 1\r")
        fingerprints, graph = salts.derive_tables(salts._read_sources(tmp_path))
        assert fingerprints == compute_fingerprints(tmp_path)
        assert graph["repro/core/m.py"] == ("repro/core/n.py",)


class TestStoredTable:
    def test_cold_then_warm_keys_equal_in_memory_keys(self, tmp_path, derivations):
        specs = grid_specs()
        assert len(specs) == 90
        expected = in_memory_keys(specs)
        derivations.clear()

        cold = ResultCache(tmp_path)
        assert {s: cold.key(s) for s in specs} == expected
        assert table_path(tmp_path).is_file()
        assert derivations == [len(salts._read_sources(SRC))]

        salts.reset_salt_caches()  # a fresh interpreter, as far as salts go
        warm = ResultCache(tmp_path)
        assert {s: warm.key(s) for s in specs} == expected
        assert len(derivations) == 1  # served from the stored table

    def test_table_holds_exactly_the_live_tables(self, tmp_path):
        ResultCache(tmp_path).key(spec())
        payload = json.loads(table_path(tmp_path).read_text())
        assert payload["fingerprints"] == salts.live_fingerprints()
        assert payload["imports"] == {
            rel: list(edges) for rel, edges in salts.import_graph().items()
        }
        assert sorted(p.name for p in (tmp_path / "salts").iterdir()) == [
            table_path(tmp_path).name
        ]

    def test_legacy_shim_and_graph_salts_agree(self, tmp_path):
        roots = salts.spec_roots(InstanceSpec("cholesky", 4, "buckets-avg"))
        salts.bind_table_root(tmp_path)
        pristine = salts.closure_is_pristine(roots, base=CODE_VERSION)
        graph_salt = salts.workload_salt("qr", base="x")
        salts.reset_salt_caches()
        assert salts.closure_is_pristine(roots, base=CODE_VERSION) == pristine
        assert salts.workload_salt("qr", base="x") == graph_salt

    def test_tenants_share_the_servers_base_root(self, tmp_path):
        tenant = namespaced_cache(ResultCache(tmp_path), "alice")
        assert tenant.root == tmp_path / "tenants" / "alice"
        assert tenant.table_root == tmp_path
        tenant.key(spec())
        assert table_path(tmp_path).is_file()
        assert not (tenant.root / salts.TABLE_DIR).exists()


def _damage(path: Path, how: str) -> None:
    payload = json.loads(path.read_text())
    fps, imports = payload["fingerprints"], payload["imports"]
    first = sorted(fps)[0]
    if how == "truncated":
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        return
    if how == "not-json":
        path.write_bytes(b"\x00\xff garbage")
        return
    if how == "missing-module":
        del fps[first]
    elif how == "extra-module":
        fps["repro/core/ghost.py"] = "0" * 64
    elif how == "graph-keys-differ":
        del imports[first]
    elif how == "short-fingerprint":
        fps[first] = "abc"
    elif how == "upper-hex":
        fps[first] = fps[first].upper()
    elif how == "unknown-edge":
        imports[first] = ["repro/core/ghost.py"]
    path.write_text(json.dumps(payload))


class TestNeverTrustADamagedTable:
    @pytest.mark.parametrize(
        "how",
        [
            "truncated",
            "not-json",
            "missing-module",
            "extra-module",
            "graph-keys-differ",
            "short-fingerprint",
            "upper-hex",
            "unknown-edge",
        ],
    )
    def test_damaged_table_is_rederived_and_rewritten(self, tmp_path, derivations, how):
        expected = in_memory_keys([spec()])[spec()]
        ResultCache(tmp_path).key(spec())
        path = table_path(tmp_path)
        good = path.read_bytes()
        _damage(path, how)
        assert path.read_bytes() != good

        salts.reset_salt_caches()
        derivations.clear()
        assert ResultCache(tmp_path).key(spec()) == expected
        assert len(derivations) == 1  # re-derived, not trusted
        assert path.read_bytes() == good  # and rewritten
        assert not list((tmp_path / "salts").glob(".tmp-*"))

    def test_table_of_another_tree_is_never_looked_up(self, tmp_path, derivations):
        # A well-formed table whose values are all wrong, filed under a
        # digest the live tree does not have, must not be read.
        ResultCache(tmp_path).key(spec())
        path = table_path(tmp_path)
        payload = json.loads(path.read_text())
        payload["fingerprints"] = {rel: "0" * 64 for rel in payload["fingerprints"]}
        (path.parent / ("f" * 64 + ".json")).write_text(json.dumps(payload))
        path.unlink()
        salts.reset_salt_caches()
        derivations.clear()
        ResultCache(tmp_path).key(spec())
        assert len(derivations) == 1
        assert "0" * 64 not in salts.live_fingerprints().values()


class TestFailuresNeverFailARun:
    def test_read_only_root_runs_with_in_memory_salts(self, tmp_path, monkeypatch):
        expected = in_memory_keys([spec()])

        def read_only(path, *args, **kwargs):
            raise OSError(errno.EROFS, "Read-only file system", str(path))

        # Table writes fail as on a read-only mount; entry writes do not
        # go through this seam, so the cache itself keeps working.
        monkeypatch.setattr(salts, "_write_table", read_only)
        cache = ResultCache(tmp_path)
        assert cache.key(spec()) == expected[spec()]
        cache.put(spec(), {"makespan": 1.0})
        assert cache.get(spec())["metrics"] == {"makespan": 1.0}
        assert not table_path(tmp_path).exists()

    @pytest.mark.skipif(
        hasattr(os, "geteuid") and os.geteuid() == 0,
        reason="permission bits do not bind root",
    )
    def test_read_only_salts_directory(self, tmp_path):
        expected = in_memory_keys([spec()])
        directory = tmp_path / salts.TABLE_DIR
        directory.mkdir()
        directory.chmod(0o555)
        try:
            assert ResultCache(tmp_path).key(spec()) == expected[spec()]
            assert list(directory.iterdir()) == []
        finally:
            directory.chmod(0o755)

    def test_full_disk_leaves_no_temp_file(self, tmp_path, monkeypatch):
        expected = in_memory_keys([spec()])

        def full(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "replace", full)
        assert ResultCache(tmp_path).key(spec()) == expected[spec()]
        assert list((tmp_path / "salts").iterdir()) == []

    def test_salts_path_blocked_by_a_file(self, tmp_path):
        expected = in_memory_keys([spec()])
        (tmp_path / salts.TABLE_DIR).write_text("not a directory")
        assert ResultCache(tmp_path).key(spec()) == expected[spec()]

    def test_override_neither_reads_nor_writes_a_table(self, tmp_path, derivations):
        ResultCache(tmp_path).key(spec())
        path = table_path(tmp_path)
        before = path.read_bytes()
        heft = "repro/schedulers/online/heft.py"
        salts.set_fingerprint_override({heft: "f" * 64})
        derivations.clear()
        ResultCache(tmp_path).key(spec())
        assert len(derivations) == 1  # derived in memory, table not read
        assert salts.live_fingerprints()[heft] == "f" * 64
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_override_on_a_fresh_root_writes_nothing(self, tmp_path):
        salts.set_fingerprint_override({"repro/dag/qr.py": "e" * 64})
        ResultCache(tmp_path).key(spec())
        assert not (tmp_path / salts.TABLE_DIR).exists()

    def test_no_cache_run_writes_no_table(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        writes = []
        monkeypatch.setattr(salts, "_write_table", lambda *a: writes.append(a))
        monkeypatch.chdir(tmp_path)
        assert main(["fig6", "--kernel", "qr", "--fast", "--jobs", "1", "--no-cache"]) == 0
        capsys.readouterr()
        assert writes == []
        assert list(tmp_path.iterdir()) == []

    def test_unselective_cache_binds_no_table(self, tmp_path):
        cache = ResultCache(tmp_path, selective=False)
        cache.put(spec(), {"makespan": 1.0})
        assert not (tmp_path / salts.TABLE_DIR).exists()


def _race_table_writer(path: str, rounds: int) -> None:
    """Child process body: rewrite the same table *rounds* times."""
    tables = salts.derive_tables(salts._read_sources(SRC))
    for _ in range(rounds):
        salts._write_table(Path(path), tables)


class TestConcurrentWriters:
    def test_racing_writers_leave_one_valid_table(self, tmp_path):
        # More writers than this suite's usual two cores, so the
        # replaces really interleave.
        ctx = multiprocessing.get_context("spawn")
        path = tmp_path / salts.TABLE_DIR / f"{salts.live_tree_digest()}.json"
        procs = [
            ctx.Process(target=_race_table_writer, args=(str(path), 40))
            for _ in range(3)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert not proc.is_alive() and proc.exitcode == 0
        assert [p.name for p in path.parent.iterdir()] == [path.name]
        order = [rel for rel, _raw in salts._read_sources(SRC)]
        assert salts._read_table(path, order) == salts.derive_tables(
            salts._read_sources(SRC)
        )


class TestDigest:
    @pytest.fixture
    def tree(self, tmp_path) -> Path:
        copy = tmp_path / "src"
        shutil.copytree(
            SRC / "repro", copy / "repro", ignore=shutil.ignore_patterns("__pycache__")
        )
        return copy

    def test_editing_a_salted_module_changes_the_digest(self, tree):
        before = salts.tree_digest(salts._read_sources(tree))
        target = tree / "repro" / "core" / "task.py"
        target.write_text(target.read_text() + "\n# a comment is an edit too\n")
        assert salts.tree_digest(salts._read_sources(tree)) != before

    def test_adding_a_salted_module_changes_the_digest(self, tree):
        before = salts.tree_digest(salts._read_sources(tree))
        (tree / "repro" / "dag" / "extra.py").write_text("X = 1\n")
        assert salts.tree_digest(salts._read_sources(tree)) != before

    def test_unsalted_edits_and_touches_keep_the_digest(self, tree):
        before = salts.tree_digest(salts._read_sources(tree))
        (tree / "repro" / "service" / "models.py").write_text("# unsalted\n")
        (tree / "repro" / "core" / "task.py").touch()
        assert salts.tree_digest(salts._read_sources(tree)) == before

    def test_interpreter_version_is_part_of_the_digest(self, tree, monkeypatch):
        before = salts.tree_digest(salts._read_sources(tree))
        monkeypatch.setattr(salts.sys, "version", sys.version + " (other build)")
        assert salts.tree_digest(salts._read_sources(tree)) != before


class TestImportCost:
    def test_cache_import_leaves_the_lint_and_flow_stack_unloaded(self):
        code = (
            "import sys, repro.campaign.cache\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.analysis')))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        ).stdout
        assert out.strip() == "['repro.analysis', 'repro.analysis.fingerprint']"

    def test_rules_register_wherever_lint_runs(self):
        code = (
            "from repro.analysis.lint import all_rules\n"
            "print(len(all_rules()))\n"
        )
        count = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        ).stdout.strip()
        from repro.analysis import all_rules

        assert int(count) == len(all_rules()) > 0
