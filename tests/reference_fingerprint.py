"""Frozen ``ast.walk`` salt derivation (differential oracle for the salts).

Verbatim snapshot of ``_strip_docstrings``/``tree_fingerprint`` from
``repro.analysis.fingerprint`` and ``_module_imports`` from
``repro.campaign.salts`` as they stood when both walked every node of
the tree.  ``tests/test_statement_walk.py`` requires the statement-level
derivation to give the same fingerprints and import edges, which is what
keeps every cache key unchanged.

Do not "fix" or optimise this module: its only job is to stay identical
to the old behaviour.
"""

from __future__ import annotations

import ast
import hashlib
from typing import Tuple

from repro.campaign.salts import _resolve_import

__all__ = ["module_imports", "strip_docstrings", "tree_fingerprint"]


def strip_docstrings(tree: ast.Module) -> ast.Module:
    """Drop the docstring expression of the module and every def/class."""
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            del body[0]
    return tree


def tree_fingerprint(tree: ast.Module) -> str:
    """SHA-256 of the docstring-stripped, position-free dump of *tree*."""
    dump = ast.dump(
        strip_docstrings(tree), annotate_fields=True, include_attributes=False
    )
    return hashlib.sha256(dump.encode("utf-8")).hexdigest()


def module_imports(tree: ast.Module, rel: str, modules: frozenset) -> Tuple[str, ...]:
    """The sorted import-graph edges out of module *rel*."""
    if rel.endswith("__init__.py"):
        return ()
    edges: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            edges.update(_resolve_import(node, rel, modules))
    edges.discard(rel)
    return tuple(sorted(edges))
