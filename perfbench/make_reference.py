"""Regenerate ``reference.json``: the sha256 of every grid payload.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter results (it then belongs in
the same commit as that change); the benchmark fails any pass whose
payloads no longer hash to these values.
"""

from __future__ import annotations

import json

from common import GRIDS, REFERENCE_FILE, canonical, grid_specs, sha, spec_id, use_sources

use_sources()


def main() -> int:
    from repro.campaign.executor import execute_spec

    reference = {}
    for grid in GRIDS.values():
        for spec in grid_specs(grid["figures"]):
            if spec_id(spec) not in reference:
                reference[spec_id(spec)] = sha(canonical(execute_spec(spec)))
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} payload hashes to {REFERENCE_FILE.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
