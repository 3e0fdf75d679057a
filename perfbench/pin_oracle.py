"""Recompute ``oracle.json``: each workload's sequential-oracle fingerprints
at the default seed.

Usage: ``python3 perfbench/pin_oracle.py``.  Run it only in a change that
redefines the benchmark; a change to the program that moves these
fingerprints changes committed results, which the benchmark exists to catch.
"""

from __future__ import annotations

import json
from pathlib import Path

from rep import oracle
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> None:
    pinned = {
        "seed": DEFAULT_SEED,
        "workloads": {name: oracle(w, DEFAULT_SEED) for name, w in WORKLOADS.items()},
    }
    path = Path(__file__).resolve().parent / "oracle.json"
    path.write_text(json.dumps(pinned, indent=2) + "\n")


if __name__ == "__main__":
    main()
