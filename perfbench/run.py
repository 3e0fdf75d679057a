"""The repository's benchmark: one workload, checked against the sequential oracle.

Usage::

    python3 perfbench/run.py --workload tw-n64 --seed 7 --seconds 25 --trace 0

Every repetition runs in a fresh process (``rep.py``), and every
repetition's committed result is checked against the sequential oracle:
pinned in ``oracle.json`` for the default seed, computed by the
sequential engine in its own process for any other seed.

With ``--trace 0`` the repetitions are timed with tracing off and the
end-to-end metrics are printed; with ``--trace 1`` each untraced
repetition is paired with a traced one and the per-layer metrics are
printed.  The second-to-last line of standard output is the full report
(host fingerprint, config key, every repetition, every failure); the last
line is the result: ``{"correct", "attempted", "failed", "metrics"}``.
See ``README.md`` for the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import host_speed  # noqa: E402

#: Repetitions per run at least, whatever ``--seconds`` says: timed
#: repetitions with ``--trace 0``, untraced/traced pairs with ``--trace 1``.
MIN_REPS = {0: 3, 1: 1}
#: Every run ends within this many seconds of its start.
RUN_BUDGET_S = 170.0


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_fingerprint() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_revision": _git_revision(),
        "src_sha256": _src_digest(),
        "calibration_ms": host_speed() * 1e3,
    }


class Runner:
    """Launches repetitions in fresh processes within the run's time budget."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.failures: list[dict] = []

    def rep(self, mode: str) -> dict | None:
        """Run one repetition; returns its output, or None if it failed."""
        spec = json.dumps({"workload": self.workload, "seed": self.seed, "mode": mode})
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "rep.py"), spec],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            self.fail(mode, "Timeout", "repetition overran the run's time budget")
            return None
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if proc.returncode == 0 else None
        except (IndexError, json.JSONDecodeError):
            result = None
        if result is None:
            tail = err.strip().splitlines()[-1:] or ["no output"]
            self.fail(mode, "ChildDied", f"exit code {proc.returncode}: {tail[0]}")
            return None
        if "error" in result:
            e = result["error"]
            self.fail(mode, e["type"], e["message"], e["traceback"])
            return None
        return result

    def fail(self, mode: str, kind: str, message: str, tb: str = "") -> None:
        self.failures.append(
            {"mode": mode, "type": kind, "message": message, "traceback": tb}
        )

    def has_time_for(self, rep_s: float) -> bool:
        return time.monotonic() + 1.5 * rep_s < self.deadline


def _mismatch(points: list[dict], oracle: list[dict]) -> str:
    """Describe how a repetition's committed results differ from the oracle."""
    for got, want in zip(points, oracle):
        for k in ("committed", "stats_sha256"):
            if got[k] != want[k]:
                return f"load {got['load']}: {k} {got[k]} != oracle {want[k]}"
    return ""


def _summary(values: list[float]) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def _end_to_end(timed: list[dict]) -> dict:
    """End-to-end metrics over timed repetitions, times in reference seconds.

    The event rate is all committed events over all event seconds (full
    run less set-up), so it weighs every point alike; set-up time and
    memory are the median over repetitions.
    """
    points = [p for rep in timed for p in rep["points"]]
    run_s = sum(p["wall_ref_s"] - p["setup_ref_s"] for p in points)
    return {
        "events_per_s": sum(p["committed"] for p in points) / run_s,
        "setup_s": statistics.median(
            sum(p["setup_ref_s"] for p in rep["points"]) for rep in timed
        ),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in timed),
    }


def _host_seconds(timed: list[dict]) -> dict:
    """The same rate and set-up time in host seconds, for the report."""
    points = [p for rep in timed for p in rep["points"]]
    return {
        "events_per_host_s": sum(p["committed"] for p in points)
        / sum(p["wall_s"] - p["setup_s"] for p in points),
        "setup_host_s": statistics.median(
            sum(p["setup_s"] for p in rep["points"]) for rep in timed
        ),
        "burst_s": statistics.median(rep["burst_s"] for rep in timed),
    }


def _per_layer(traced: dict, untraced_wall: float) -> dict:
    s = traced["self_s"]
    c = traced["counters"]
    ph = traced["phases"]
    cum = traced["cumulative"]
    calls = traced["calls"]
    processed = c["processed"] or 1
    sends = (c["local_sends"] + c["remote_sends"]) or 1
    multiprocess = traced["procs"] > 1
    inline_tw = traced["engine"] == "optimistic" and not multiprocess
    m = {f"{layer}.self_s": v for layer, v in s.items()}
    m.update(
        {
            "hotpotato.routes": c["routes"],
            # The model runs in unprofiled workers in process mode.
            "hotpotato.us_per_route": (
                0.0 if multiprocess else s["hotpotato"] / max(c["routes"], 1) * 1e6
            ),
            "net.route_info_calls": calls.get("repro.net.torus:route_info", 0),
            "event.pool_hit_rate": c["pool_hits"] / ((c["pool_hits"] + c["pool_allocs"]) or 1),
            "event.pool_allocs": c["pool_allocs"],
            "queue.peak_pending": max(c["peak_pending"], c["sampled_peak_pending"]),
            "timewarp.exec_s": ph["exec"] if inline_tw else 0.0,
            "timewarp.remote_frac": c["remote_sends"] / sends,
            "setup.population_s": cum["setup.population_s"],
            "setup.compile_s": cum["setup.compile_s"],
            "rollback.s": ph["rollback"],
            "antimsg.s": ph["antimsg"],
            "rollback.events": c["events_rolled_back"],
            "rollback.episodes": c["rollbacks"],
            "rollback.committed_ratio": c["committed"] / processed,
            "gvt.s": ph["gvt"],
            "gvt.rounds": c["gvt_rounds"],
            "fossil.s": ph["fossil"],
            "fossil.collected": c["fossil_collected"],
            "fossil.peak_processed": c["peak_processed"],
            "mp.ring_messages": c["ring_messages"],
            "mp.ring_bytes": c["ring_bytes"],
            "mp.ring_full_stalls": c["ring_full_stalls"],
            "mp.gvt_token_rounds": c["gvt_token_rounds"],
            "mp.transport_s": ph["transport"] if multiprocess else 0.0,
            "mp.worker_busy_s": ph["exec"] if multiprocess else 0.0,
            "mp.committed_ratio": c["committed"] / processed if multiprocess else 0.0,
            "trace.overhead": traced["wall_s"] / untraced_wall,
        }
    )
    return m


def measure(args, runner: Runner, oracle: list[dict]) -> tuple[list, list, int]:
    """Run repetitions for ``args.seconds``; returns (reps, metric rows, attempted)."""
    rows: list[dict] = []
    reps: list[dict] = []
    attempted = 0
    start = time.monotonic()
    rep_s = 0.0
    while runner.has_time_for(rep_s):
        # After the minimum, start a repetition only if it ends in the window.
        if attempted >= MIN_REPS[args.trace] and (
            time.monotonic() - start + rep_s > args.seconds
        ):
            break
        t0 = time.monotonic()
        attempted += 1
        timed = runner.rep("timed")
        traced = runner.rep("traced") if timed is not None and args.trace else None
        rep_s = max(rep_s, time.monotonic() - t0)
        outputs = [o for o in (timed, traced) if o is not None]
        if len(outputs) < 1 + args.trace:
            continue
        bad = [_mismatch(o["points"], oracle) for o in outputs]
        bad = [b for b in bad if b]
        if bad:
            runner.fail("check", "OracleMismatch", bad[0])
            continue
        if args.trace:
            untraced_wall = sum(p["wall_s"] for p in timed["points"])
            row = _per_layer(traced, untraced_wall)
            del traced["calls"]
        else:
            row = _end_to_end([timed])
        rows.append(row)
        reps.append({"timed": timed, "traced": traced, "metrics": row})
    return reps, rows, attempted


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="also write the full report here")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    from workloads import DEFAULT_SEED, WORKLOADS, config_key

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"
    ]
    runner = Runner(args.workload, seed)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "host": host_fingerprint(),
        "config": config_key(WORKLOADS[args.workload], seed),
    }

    pinned = json.loads((HERE / "oracle.json").read_text())
    if seed == pinned["seed"]:
        oracle = pinned["workloads"][args.workload]["points"]
        report["oracle"] = "pinned"
    else:
        computed = runner.rep("oracle")
        oracle = computed["points"] if computed is not None else None
        report["oracle"] = "computed"

    if oracle is None:
        reps, rows, attempted = [], [], 1
    else:
        reps, rows, attempted = measure(args, runner, oracle)
    failed = attempted - len(reps)
    if rows and not args.trace:
        values = _end_to_end([r["timed"] for r in reps])
        report["host_seconds"] = _host_seconds([r["timed"] for r in reps])
    else:
        values = {
            m["name"]: statistics.median(row[m["name"]] for row in rows) if rows else 0.0
            for m in declared
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    summary = {
        m["name"]: _summary([row[m["name"]] for row in rows]) if rows else None
        for m in declared
    }
    report.update(
        {
            "attempted": attempted,
            "failed": failed,
            "fail_rate": failed / attempted,
            "failures": runner.failures,
            "summary": summary,
            "reps": reps,
        }
    )
    line = json.dumps(report)
    if args.out is not None:
        args.out.write_text(line + "\n")
    print(line)
    correct = failed == 0 and not runner.failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
