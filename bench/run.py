"""The bmbounds benchmark: seeded CLI workloads, checked, with per-layer traces.

    python3 bench/run.py --workload search --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each run starts fresh interpreters (bench/worker.py), one at a time:
several that only set up, for the median ``setup_s``, then one that also
runs the workload.  That worker is a closed loop with one client that
calls ``bmbounds.cli.main(argv)`` in-process, repeating whole passes of the
workload's operations, as many as take ``--seconds`` at nominal machine
speed (a fixed count per workload, see workloads.PASS_SECONDS), and checks
every output after the timed phase.  Op and set-up times are scaled to
nominal machine speed by a speed probe sampled on a timer during each op
(worker.py); the raw wall-clock figures are printed alongside.  With
``--trace 1`` the worker instead wraps the program's public functions
(bench/spans.py) and reports per-layer metrics.

Workloads (see bench/workloads.py):
  search     bisection searches; FM on small systems whose t gains bits
  dichotomy  every branch assignment decided; larger FM systems, big reports
  audit      verify-cert on documents written by the other commands, plus
             tampered copies; no FM, only parsing, rebuilds and substitution
  upper      the (T, S) optimizer, exact scans and closed-form tables

The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it show every metric with its
unit, ``fail_ratio`` and the reasons of any failed check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import SETUPS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUDGET_S = 170      # a run ends within this many seconds or fails


class BenchError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return the JSON object it printed."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} did not finish in time")
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(durations: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With fewer than eleven
    samples no percentile has ten beyond, and it is the maximum.
    """
    xs = sorted(durations)
    if len(xs) < 11:
        return xs[-1], 100.0, 0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs), 10


UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def _timings(ops: list[float], setups: list[float]) -> dict:
    return {"ops_per_s": len(ops) / sum(ops), "op_p50_ms": statistics.median(ops) * 1000,
            "op_tail_ms": tail(ops)[0] * 1000, "setup_s": statistics.median(setups)}


def end_to_end(report: dict, setups: list[dict]) -> tuple[dict, dict, list[str]]:
    """Metrics from op and set-up times scaled to nominal machine speed (see
    worker.py), the same timings from the raw wall clock, and printed lines."""
    scaled = _timings(report["scaled"], [s["setup_scaled_s"] for s in setups])
    wall = _timings(report["durations"], [s["setup_s"] for s in setups])
    metrics = {**scaled, "peak_rss_mb": report["peak_rss_mb"]}
    n = len(report["scaled"])
    _, pct, beyond = tail(report["scaled"])
    notes = {
        "ops_per_s": f"{n} ops in {report['passes']} passes of {report['pass_ops']}; ",
        "op_tail_ms": f"p{pct:.1f} of {n} samples, {beyond} beyond; ",
        "setup_s": f"median of {len(setups)} fresh interpreters; ",
    }
    lines = [f"{name:<12} {value:.6g} {UNITS[name]}"
             + (f"  ({notes.get(name, '')}wall clock {wall[name]:.6g})" if name in wall else "")
             for name, value in metrics.items()]
    lines.append(f"{'fail_ratio':<12} {report['failed'] / n:.6g} ratio  ({report['failed']} of {n} failed)")
    return {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}, wall, lines


def per_layer(report: dict) -> tuple[dict, list[str]]:
    metrics = {name: {"value": value, "unit": spans.unit_of(name)}
               for name, value in report["layers"].items()}
    # Scaled like the untraced ops_per_s, so the two give the tracing overhead.
    metrics["traced_ops_per_s"] = {"value": len(report["scaled"]) / sum(report["scaled"]), "unit": "1/s"}
    lines = [f"{name:<30} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"spans written to {report['trace_file']}")
    lines += [f"trace: {place} not found in the program" for place in report["trace_missing"]]
    return metrics, lines


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run: the result object, the raw wall-clock timings (untraced runs
    only) and the lines to print before the result.  Raises BenchError."""
    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [] if trace else [
        spawn([*common, "--seconds", "0", "--setup-only"], deadline) for _ in range(SETUPS[workload] - 1)
    ]
    report = spawn([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)

    wall: dict = {}
    if trace:
        metrics, lines = per_layer(report)
    else:
        metrics, wall, lines = end_to_end(report, setups + [report])
    lines = [f"workload {workload}  seed {seed}  trace {trace}"] + ["  " + line for line in lines]
    forged = report.get("forgeries")
    if forged:
        lines.append(f"  headline forgeries accepted by verify-cert: {len(forged['accepted'])} of"
                     f" {forged['total']} {forged['accepted']} (a sound verifier exits 1 on each)")
    lines += [f"  FAILED {reason}" for reason in report["reasons"]]
    result = {"correct": report["failed"] == 0, "attempted": len(report["durations"]),
              "failed": report["failed"], "metrics": metrics}
    return {"result": result, "wall_clock": wall, "lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bmbounds" / "cli.py").is_file():
        print(f"error: no bmbounds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run = bench(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in run["lines"]:
        print(line)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
