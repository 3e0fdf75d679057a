"""Compare two benchmark reports of the same workload, refusing mismatches.

Usage: ``python3 perfbench/compare.py BASE.json NEW.json``, where each file
is a report written by ``run.py --out``.

Two reports are compared only when their config keys are identical and
they were measured on the same kind of host (CPU model, usable cores,
Python).  Anything else is a different workload, not a regression or a
gain, and the comparison exits with status 2 naming what differs.
"""

from __future__ import annotations

import json
import sys

HOST_IDENTITY = ("cpu", "nproc", "python")


def mismatches(base: dict, new: dict) -> list[str]:
    """What makes two reports incomparable (empty when they are comparable)."""
    out = []
    keys = set(base["config"]) | set(new["config"])
    for k in sorted(keys - {"id"}):
        a, b = base["config"].get(k), new["config"].get(k)
        if a != b:
            out.append(f"config {k}: {a!r} != {b!r}")
    for k in HOST_IDENTITY:
        if base["host"][k] != new["host"][k]:
            out.append(f"host {k}: {base['host'][k]!r} != {new['host'][k]!r}")
    if base["trace"] != new["trace"]:
        out.append(f"trace: {base['trace']} != {new['trace']}")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(open(p).read()) for p in argv[1:])
    bad = mismatches(base, new)
    if bad:
        print("not comparable:\n  " + "\n  ".join(bad), file=sys.stderr)
        return 2
    cal = new["host"]["calibration_ms"] / base["host"]["calibration_ms"]
    print(f"workload {base['workload']}  config {base['config']['id']}  "
          f"host calibration new/base {cal:.3f}")
    for name, a in base["summary"].items():
        b = new["summary"].get(name)
        if a is None or b is None:
            print(f"{name:28s} missing")
            continue
        ratio = b["median"] / a["median"] if a["median"] else float("nan")
        print(f"{name:28s} {a['median']:14.6g} -> {b['median']:14.6g}  x{ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
