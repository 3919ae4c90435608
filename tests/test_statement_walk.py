"""The statement-level salt derivation against the frozen ``ast.walk`` one.

:func:`repro.analysis.fingerprint.iter_statements` walks only statement
blocks: every def, class and import is a statement, so docstring
stripping and the salt import graph need no expression node.  These
tests pin that claim: on every Python file of the repository and on a
synthetic corpus of nesting shapes, the fingerprints and import edges
equal those of :mod:`tests.reference_fingerprint` (the old two-walk
derivation), and the walk reaches exactly the statements ``ast.walk``
reaches.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import reference_fingerprint as frozen
from repro.analysis.fingerprint import iter_statements, tree_fingerprint
from repro.campaign import salts

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Every ``src``-relative module under ``src/repro``: import targets.
MODULES = frozenset(
    path.relative_to(SRC).as_posix() for path in (SRC / "repro").rglob("*.py")
)

CORPUS = {
    "nested_blocks": '''
"""Module docstring."""
import repro.core.task
if True:
    """Not a docstring: an if body has none."""
    def in_if():
        """Stripped."""
        import repro.core.platform
elif False:
    def in_elif():
        """Stripped."""
        from repro.core import schedule
else:
    class InElse:
        """Stripped."""
for i in range(2):
    def in_for():
        """Stripped."""
else:
    def in_for_else():
        """Stripped."""
        from repro.bounds.simple import makespan_lower_bound
while False:
    def in_while():
        """Stripped."""
else:
    import repro.dag.graph
with open(__file__) as handle:
    def in_with():
        """Stripped."""
        import repro.dag.compiled as compiled
try:
    def in_try():
        """Stripped."""
except ImportError as exc:
    def in_except():
        """Stripped."""
        import repro.timing
else:
    def in_try_else():
        """Stripped."""
finally:
    def in_finally():
        """Stripped."""
        from repro.simulator import runtime
''',
    "match": '''
def dispatch(command):
    """Stripped."""
    match command:
        case {"kind": "a"}:
            def in_case():
                """Stripped."""
                import repro.schedulers.heft
        case [first, *rest]:
            class InCase:
                """Stripped."""
                def method(self):
                    """Stripped."""
                    from repro.schedulers import dualhp
        case _:
            pass
''',
    "async_and_nesting": '''
async def outer():
    """Stripped."""
    async with lock:
        async def inner():
            """Stripped."""
            import repro.core.heteroprio
    async for item in stream:
        class Local:
            """Stripped."""
            class Deeper:
                """Stripped."""
                async def method(self):
                    """Stripped."""
                    from ..core import task
    def function_in_async():
        class InFunction:
            """Stripped."""
        return InFunction
''',
    "docstring_shapes": '''
def only_docstring():
    """The whole body: stripping leaves it empty."""
class OnlyDocstring:
    """The whole body."""
def second_string():
    x = 1
    """Not leading: kept."""
    "also kept"
def two_strings():
    """Stripped."""
    """Second string statement: kept."""
def bytes_first():
    b"bytes are not docstrings"
def fstring_first():
    f"{1} is not a docstring"
def number_first():
    42
square = lambda x: x * x
values = [(lambda: "lambda bodies are expressions")() for _ in range(2)]
choice = "a" if values else "b"
''',
    "relative_imports": '''
from . import heteroprio
from .. import bounds
from ..schedulers.online import dualhp as online
from ...repro import io
def lazy():
    from .ready_queue import ReadyQueue
    import repro.core.task, repro.core.platform
''',
}

#: ``except*`` (Python 3.11+): parsed only where the grammar has it.
EXCEPT_STAR = '''
try:
    def in_try_star():
        """Stripped."""
except* ValueError:
    def in_except_star():
        """Stripped."""
        import repro.core.schedule
else:
    pass
finally:
    from repro.core import platform
'''


def _python_files() -> list[Path]:
    files = []
    for top in ("src", "tests", "examples", "benchmarks"):
        files += [
            path
            for path in sorted((ROOT / top).rglob("*.py"))
            if "__pycache__" not in path.parts
        ]
    return files


def _rel(path: Path) -> str:
    """Import-resolution name: ``src``-relative inside ``src``, else repo-relative."""
    base = SRC if SRC in path.parents else ROOT
    return path.relative_to(base).as_posix()


def _assert_same_derivation(source: str, rel: str) -> None:
    new_tree, old_tree = ast.parse(source), ast.parse(source)
    walked = {id(node) for node in ast.walk(new_tree) if isinstance(node, ast.stmt)}
    statements = list(iter_statements(new_tree))
    assert {id(node) for node in statements if isinstance(node, ast.stmt)} == walked
    assert salts._module_imports(statements, rel, MODULES) == frozen.module_imports(
        old_tree, rel, MODULES
    )
    assert tree_fingerprint(new_tree, statements) == frozen.tree_fingerprint(old_tree)
    # Stripping leaves the same trees, not only the same hashes.
    assert ast.dump(new_tree) == ast.dump(old_tree)


FILES = _python_files()


def test_repository_is_covered():
    tops = {path.relative_to(ROOT).parts[0] for path in FILES}
    assert tops == {"src", "tests", "examples", "benchmarks"}
    assert len(FILES) > 100


@pytest.mark.parametrize("path", FILES, ids=lambda path: _rel(path))
def test_repository_file(path):
    _assert_same_derivation(path.read_text(encoding="utf-8"), _rel(path))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus(name):
    _assert_same_derivation(CORPUS[name], "repro/core/corpus.py")


@pytest.mark.skipif(sys.version_info < (3, 11), reason="except* needs Python 3.11")
def test_except_star():
    _assert_same_derivation(EXCEPT_STAR, "repro/core/corpus.py")


def test_corpus_exercises_every_shape():
    """The corpus has edges, stripped docstrings and kept strings."""
    tree = ast.parse(CORPUS["nested_blocks"])
    edges = salts._module_imports(iter_statements(tree), "repro/core/c.py", MODULES)
    nested = {  # one import under each kind of block
        "repro/core/platform.py",
        "repro/core/schedule.py",
        "repro/bounds/simple.py",
        "repro/dag/graph.py",
        "repro/dag/compiled.py",
        "repro/timing/__init__.py",
        "repro/simulator/runtime.py",
    }
    assert nested <= set(edges)
    tree = ast.parse(CORPUS["docstring_shapes"])
    before = ast.dump(tree)
    frozen.strip_docstrings(tree)
    stripped = {
        node.name: node.body
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert stripped["only_docstring"] == [] and stripped["OnlyDocstring"] == []
    assert len(stripped["two_strings"]) == 1 and len(stripped["second_string"]) == 3
    assert ast.dump(tree) != before


def test_derive_tables_equals_the_two_walk_derivation():
    sources = salts._read_sources(SRC)
    modules = frozenset(rel for rel, _raw in sources)
    fingerprints, graph = salts.derive_tables(sources)
    expected_fps, expected_graph = {}, {}
    for rel, raw in sources:
        tree = ast.parse(raw.decode("utf-8"))
        expected_graph[rel] = frozen.module_imports(tree, rel, modules)
        expected_fps[rel] = frozen.tree_fingerprint(tree)
    assert fingerprints == expected_fps
    assert graph == expected_graph
