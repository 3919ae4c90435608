"""Static analysis for the repro tree: determinism lint + cache-salt gate.

The package machine-checks the two conventions the repo's correctness
story rests on:

* **Bit-determinism** — every result-producing path must produce
  identical output on identical input (the campaign
  :class:`~repro.campaign.cache.ResultCache` and the differential tests
  assume it).  :mod:`repro.analysis.rules` encodes the known ways this
  codebase can lose determinism (unseeded global RNG state, wall-clock
  reads, unordered-collection iteration, raw float equality) as lint
  rules over the AST.
* **Cache-salt discipline** — any semantic change to a module whose
  behaviour feeds :class:`ResultCache`/:class:`GraphStore` keys must be
  accompanied by a ``CODE_VERSION`` bump, or stale cached results are
  silently served.  :mod:`repro.analysis.fingerprint` hashes the
  normalized AST of every salted module into a committed manifest
  (``analysis/fingerprints.json``); ``repro lint --cache-gate`` fails
  when a fingerprint drifts without a bump.
* **Whole-program flow invariants** — the per-statement rules cannot
  see nondeterminism laundered through helpers or containers, salt
  tables drifting out of sync with the call graph, or concurrency
  hazards that only exist across function boundaries.
  :mod:`repro.analysis.flow` runs interprocedural checks over one
  shared program model (:mod:`repro.analysis.callgraph` +
  :mod:`repro.analysis.summaries`), surfaced as ``repro analyze``.

Entry points: ``repro lint`` and ``repro analyze`` (see
:mod:`repro.analysis.cli`).

The names below resolve lazily (PEP 562): the campaign cache imports
:mod:`repro.analysis.fingerprint` on every run, and must not pay for
loading the lint and flow stack it never uses.  The shipped lint rules
register themselves when :mod:`repro.analysis.lint` first hands out
rules (:func:`~repro.analysis.lint.all_rules`, ``lint_paths``).
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any, Dict

#: Public name -> the submodule that defines it.
_EXPORTS: Dict[str, str] = {
    "AnalysisReport": "flow",
    "Finding": "flow",
    "LintReport": "lint",
    "MANIFEST_PATH": "fingerprint",
    "Rule": "lint",
    "SALTED_PACKAGES": "fingerprint",
    "Suppression": "lint",
    "Violation": "lint",
    "all_rules": "lint",
    "analyze_tree": "flow",
    "check_gate": "fingerprint",
    "compute_fingerprints": "fingerprint",
    "lint_paths": "lint",
    "load_manifest": "fingerprint",
    "normalized_fingerprint": "fingerprint",
    "register_rule": "lint",
    "write_manifest": "fingerprint",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value


if TYPE_CHECKING:
    from repro.analysis.fingerprint import (
        MANIFEST_PATH,
        SALTED_PACKAGES,
        check_gate,
        compute_fingerprints,
        load_manifest,
        normalized_fingerprint,
        write_manifest,
    )
    from repro.analysis.flow import AnalysisReport, Finding, analyze_tree
    from repro.analysis.lint import (
        LintReport,
        Rule,
        Suppression,
        Violation,
        all_rules,
        lint_paths,
        register_rule,
    )
