"""The determinism-lint engine: AST visitors, rule registry, suppressions.

A :class:`Rule` is a class with an id, a severity, a one-line
description and a fix hint; its :meth:`Rule.check` walks one parsed
file and yields :class:`Violation` records.  Rules register themselves
with :func:`register_rule`, so the shipped ruleset
(:mod:`repro.analysis.rules`) and any project-local additions share one
catalog.

Suppressions are **per-file** and **must carry a reason**::

    # repro-lint: disable=wall-clock -- SimStats wall_s is telemetry only

A ``disable=`` comment anywhere in a file silences that rule for the
whole file.  A suppression without a ``-- reason`` trailer, or naming
an unknown rule id, is itself reported as a ``bad-suppression``
violation — the acceptance bar is *zero unsuppressed violations, every
suppression justified*.

The engine never imports the code it checks: everything is
``ast``/``tokenize`` over the source text, so linting cannot perturb
the modules under analysis (and cannot be perturbed by them).
"""

from __future__ import annotations

import abc
import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

__all__ = [
    "Violation",
    "Suppression",
    "Rule",
    "ImportMap",
    "LintedFile",
    "LintReport",
    "register_rule",
    "register_rule_ids",
    "all_rules",
    "lint_paths",
    "iter_python_files",
    "DEFAULT_LINT_PATHS",
]

#: Directories ``repro lint`` scans when no explicit paths are given.
#: ``tests/`` is deliberately excluded: the differential tests assert
#: *exact* float equality on purpose (bit-determinism is the property
#: under test), and test fixtures seed ad-hoc RNGs freely.
DEFAULT_LINT_PATHS: Tuple[str, ...] = ("src", "examples", "benchmarks")

_SKIP_DIR_NAMES = {"__pycache__", ".git", ".repro-cache"}

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<rules>[A-Za-z0-9_,\- ]+?)"
    r"(?:\s*--\s*(?P<reason>\S.*?))?\s*$"
)


@dataclass(frozen=True)
class Violation:
    """One finding: a rule fired at a location."""

    rule_id: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    fix_hint: str = ""

    def render(self) -> str:
        hint = f"  [hint: {self.fix_hint}]" if self.fix_hint else ""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity} [{self.rule_id}] {self.message}{hint}"
        )

    def payload(self) -> Dict[str, object]:
        """JSON-ready record (stable key set, CI annotation contract)."""
        return {
            "rule": self.rule_id,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fix_hint": self.fix_hint,
        }


@dataclass(frozen=True)
class Suppression:
    """A parsed ``# repro-lint: disable=<rule> -- <reason>`` comment."""

    rule_id: str
    reason: str
    line: int


class ImportMap:
    """Alias table for resolving dotted call targets in one module.

    Maps local names to the dotted module/object they denote:
    ``import numpy as np`` yields ``np -> numpy``; ``import time as
    _time`` yields ``_time -> time``; ``from random import uniform``
    yields ``uniform -> random.uniform``.  :meth:`dotted` then rewrites
    an expression like ``np.random.seed`` to its canonical dotted name
    ``numpy.random.seed`` so rules can match on stable spellings.
    """

    def __init__(self) -> None:
        self.aliases: Dict[str, str] = {}

    @classmethod
    def from_tree(cls, tree: ast.AST) -> "ImportMap":
        table = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    table.aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    table.aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        return table

    def dotted(self, expr: ast.expr) -> str | None:
        """Canonical dotted name of *expr*, or ``None`` if not a name chain."""
        parts: List[str] = []
        node = expr
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = self.aliases.get(node.id, node.id)
        parts.append(head)
        return ".".join(reversed(parts))


@dataclass
class LintedFile:
    """One file under analysis: source, AST and the alias table."""

    path: Path
    rel: str  # repo-relative posix path — what ``Rule.applies_to`` sees
    source: str
    tree: ast.Module
    imports: ImportMap = field(init=False)

    def __post_init__(self) -> None:
        self.imports = ImportMap.from_tree(self.tree)


class Rule(abc.ABC):
    """Base class of lint rules.

    Subclasses define the class attributes and implement :meth:`check`;
    decorating with :func:`register_rule` adds them to the catalog.
    """

    #: Stable kebab-case identifier (used in ``disable=`` comments).
    rule_id: str = ""
    #: ``"error"`` or ``"warning"`` (both fail the run; severity ranks output).
    severity: str = "error"
    #: One-line description for ``repro lint --list-rules``.
    description: str = ""
    #: How to fix a finding (rendered with each violation).
    fix_hint: str = ""

    def applies_to(self, rel: str) -> bool:
        """Whether this rule runs on the file at repo-relative path *rel*."""
        return True

    @abc.abstractmethod
    def check(self, file: LintedFile) -> Iterator[Violation]:
        """Yield the violations found in *file*."""

    def violation(
        self, file: LintedFile, node: ast.AST, message: str
    ) -> Violation:
        """Helper: a :class:`Violation` anchored at *node*."""
        return Violation(
            rule_id=self.rule_id,
            severity=self.severity,
            path=file.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            fix_hint=self.fix_hint,
        )


_REGISTRY: Dict[str, type] = {}

#: Rule ids owned by analyses outside this engine (the whole-program
#: checks in :mod:`repro.analysis.flow`).  They share the per-file
#: suppression-comment contract (``disable=RULE -- reason``), so the
#: engine must treat their suppressions as naming *known* rules rather
#: than flagging ``bad-suppression``.
_EXTERNAL_RULE_IDS: set[str] = set()


def register_rule_ids(rule_ids: Iterable[str]) -> None:
    """Mark *rule_ids* as valid suppression targets of another analysis."""
    _EXTERNAL_RULE_IDS.update(rule_ids)


def register_rule(rule_cls: type) -> type:
    """Class decorator: add *rule_cls* to the rule catalog."""
    rule_id = getattr(rule_cls, "rule_id", "")
    if not rule_id:
        raise ValueError(f"{rule_cls.__name__} has no rule_id")
    if rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_id!r}")
    _REGISTRY[rule_id] = rule_cls
    return rule_cls


def _register_shipped_rules() -> None:
    """Import :mod:`repro.analysis.rules`, which registers the shipped rules.

    Deferred to first use because the rules module imports this one.
    """
    import repro.analysis.rules  # noqa: F401  (registration import)


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, sorted by id."""
    _register_shipped_rules()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def parse_suppressions(source: str) -> Tuple[Dict[str, Suppression], List[Tuple[int, str]]]:
    """Extract per-file suppressions from *source*.

    Returns ``(suppressions, problems)`` where *suppressions* maps rule
    id -> :class:`Suppression` and *problems* is a list of
    ``(line, message)`` pairs for malformed comments (missing reason,
    unknown rule id is checked by the caller against the registry).
    """
    suppressions: Dict[str, Suppression] = {}
    problems: List[Tuple[int, str]] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (tok.start[0], tok.string)
            for tok in tokens
            if tok.type == tokenize.COMMENT
        ]
    except tokenize.TokenError:
        comments = []
    for line, text in comments:
        if "repro-lint" not in text:
            continue
        match = _SUPPRESS_RE.search(text)
        if match is None:
            problems.append((line, f"malformed repro-lint comment: {text.strip()!r}"))
            continue
        reason = match.group("reason")
        rule_ids = [r.strip() for r in match.group("rules").split(",") if r.strip()]
        if not reason:
            problems.append(
                (line, "suppression without a reason (use 'disable=RULE -- why')")
            )
            continue
        for rule_id in rule_ids:
            suppressions[rule_id] = Suppression(rule_id=rule_id, reason=reason, line=line)
    return suppressions, problems


@dataclass
class LintReport:
    """Outcome of one lint run."""

    violations: List[Violation] = field(default_factory=list)
    suppressed: List[Tuple[Violation, Suppression]] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self, *, show_suppressed: bool = False) -> str:
        order = {"error": 0, "warning": 1}
        lines = [
            v.render()
            for v in sorted(
                self.violations,
                key=lambda v: (order.get(v.severity, 2), v.path, v.line, v.rule_id),
            )
        ]
        if show_suppressed:
            for violation, sup in self.suppressed:
                lines.append(
                    f"{violation.path}:{violation.line}: suppressed "
                    f"[{violation.rule_id}] ({sup.reason})"
                )
        lines.append(
            f"{len(self.violations)} violation(s), "
            f"{len(self.suppressed)} suppressed, "
            f"{self.files_checked} file(s) checked"
        )
        return "\n".join(lines)

    def to_payload(self) -> Dict[str, object]:
        """Canonical JSON payload: sorted findings, stable key sets."""
        key = lambda v: (v.path, v.line, v.col, v.rule_id, v.message)  # noqa: E731
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "violations": [v.payload() for v in sorted(self.violations, key=key)],
            "suppressed": [
                {**violation.payload(), "reason": sup.reason}
                for violation, sup in sorted(
                    self.suppressed, key=lambda pair: key(pair[0])
                )
            ],
        }


def iter_python_files(root: Path, paths: Sequence[str]) -> Iterator[Path]:
    """All ``.py`` files under ``root/<path>`` for each path, sorted."""
    seen = set()
    for entry in paths:
        base = root / entry
        if base.is_file() and base.suffix == ".py":
            candidates: Iterable[Path] = [base]
        elif base.is_dir():
            candidates = sorted(base.rglob("*.py"))
        else:
            continue
        for path in candidates:
            if any(part in _SKIP_DIR_NAMES for part in path.parts):
                continue
            if path not in seen:
                seen.add(path)
                yield path


def lint_paths(
    root: str | Path,
    paths: Sequence[str] | None = None,
    *,
    rules: Sequence[Rule] | None = None,
) -> LintReport:
    """Lint every Python file under *paths* (relative to *root*).

    Unparseable files surface as a ``syntax-error`` violation rather
    than aborting the run.  Suppression comments are honoured per file;
    malformed or unknown-rule suppressions are violations themselves.
    """
    root = Path(root)
    if paths is None:
        paths = [p for p in DEFAULT_LINT_PATHS if (root / p).exists()]
    _register_shipped_rules()
    active_rules = list(all_rules() if rules is None else rules)
    known_ids = (
        {rule.rule_id for rule in active_rules}
        | set(_REGISTRY)
        | _EXTERNAL_RULE_IDS
    )
    report = LintReport()
    for path in iter_python_files(root, paths):
        rel = path.relative_to(root).as_posix()
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=rel)
        except SyntaxError as exc:
            report.violations.append(
                Violation(
                    rule_id="syntax-error",
                    severity="error",
                    path=rel,
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            report.files_checked += 1
            continue
        file = LintedFile(path=path, rel=rel, source=source, tree=tree)
        suppressions, problems = parse_suppressions(source)
        for line, message in problems:
            report.violations.append(
                Violation(
                    rule_id="bad-suppression",
                    severity="error",
                    path=rel,
                    line=line,
                    col=0,
                    message=message,
                    fix_hint="write '# repro-lint: disable=RULE -- reason'",
                )
            )
        for rule_id in sorted(set(suppressions) - known_ids):
            report.violations.append(
                Violation(
                    rule_id="bad-suppression",
                    severity="error",
                    path=rel,
                    line=suppressions[rule_id].line,
                    col=0,
                    message=f"suppression names unknown rule {rule_id!r}",
                    fix_hint="see 'repro lint --list-rules' for valid ids",
                )
            )
        for rule in active_rules:
            if not rule.applies_to(rel):
                continue
            for violation in rule.check(file):
                sup = suppressions.get(rule.rule_id)
                if sup is not None:
                    report.suppressed.append((violation, sup))
                else:
                    report.violations.append(violation)
        report.files_checked += 1
    return report
