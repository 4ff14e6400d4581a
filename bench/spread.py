"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads search upper --seeds 1-10
    python3 bench/spread.py --baseline bench/baseline.json

For every workload and end-to-end metric it prints the median of the runs
and the interquartile spread (third quartile minus first, from
``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound in BENCHMARK.json, and the same spread of the raw
wall-clock timings that the reported ones are scaled from.  ``--baseline``
also runs the first three seeds traced, and writes the medians, spreads,
per-layer medians, tracing overhead and environment to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        a, b = text.split("-", 1)
        return list(range(int(a), int(b) + 1))
    return [int(x) for x in text.split(",")]


def environment() -> dict:
    """What the numbers depend on besides the code: interpreter, mpmath, CPUs."""
    import os
    import platform

    import mpmath

    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def _row(values: list[float], unit: str) -> dict:
    return {"median": statistics.median(values), "spread": spread(values), "unit": unit, "values": values}


def measure(workloads: list[str], seed_list: list[int], seconds: int, trace: int,
            bounds: dict) -> dict:
    summary: dict = {"environment": environment(), "seconds": seconds, "seeds": seed_list,
                     "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seed_list:
            out = run.bench(workload, seed, seconds, trace)
            result = out["result"]
            if not result["correct"]:
                sys.stderr.write("\n".join(out["lines"]) + "\n")
            runs.append({"seed": seed, **result, "wall_clock": out["wall_clock"],
                         "notes": [line.strip() for line in out["lines"] if "forgeries" in line]})
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']}"
                  f" failed={result['failed']}", flush=True)
        rows = {name: _row([r["metrics"][name]["value"] for r in runs], runs[0]["metrics"][name]["unit"])
                for name in runs[0]["metrics"]}
        wall = {name: _row([r["wall_clock"][name] for r in runs], rows[name]["unit"])
                for name in runs[0]["wall_clock"]}
        for name, row in rows.items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound:.2f}" + (
                "  OVER" if row["spread"] > bound else "  over a third" if row["spread"] > bound / 3 else "")
            raw = f"  (wall clock: median {wall[name]['median']:.6g}, spread {wall[name]['spread'] * 100:.1f}%)" \
                if name in wall else ""
            print(f"  {name:<30} median {row['median']:<12.6g} {row['unit']:<9}"
                  f" spread {row['spread'] * 100:5.1f}%{flag}{raw}", flush=True)
        summary["workloads"][workload] = {"runs": runs, "metrics": rows, "wall_clock": wall}
    return summary


def baseline(e2e: dict, traced: dict) -> dict:
    """Medians and spreads per workload, the same of the raw wall-clock
    timings, per-layer medians and tracing overhead."""
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    out = {"commit": git.stdout.strip() or "unknown", "environment": e2e["environment"],
           "run_seconds": e2e["seconds"], "seeds": e2e["seeds"], "trace_seeds": traced["seeds"],
           "workloads": {}}
    for workload, data in e2e["workloads"].items():
        runs, rows = data["runs"], data["metrics"]
        layers = traced["workloads"][workload]["metrics"]
        untraced_ops, traced_ops = rows["ops_per_s"]["median"], layers["traced_ops_per_s"]["median"]
        out["workloads"][workload] = {
            "end_to_end": {name: {k: row[k] for k in ("median", "spread", "unit")}
                           for name, row in rows.items()},
            "wall_clock": {name: {k: row[k] for k in ("median", "spread", "unit")}
                           for name, row in data["wall_clock"].items()},
            "fail_ratio": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "notes": sorted({note for r in runs for note in r["notes"]}),
            "per_layer": {name: {k: row[k] for k in ("median", "unit")} for name, row in layers.items()},
            "tracing_overhead": {"ops_per_s": untraced_ops, "traced_ops_per_s": traced_ops,
                                 "traced_over_untraced": traced_ops / untraced_ops},
        }
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    try:
        e2e = measure(args.workloads, args.seeds, args.seconds, 0, bounds)
        if args.baseline:
            traced = measure(args.workloads, args.seeds[:3], args.seconds, 1, bounds)
            args.baseline.write_text(json.dumps(baseline(e2e, traced), indent=1) + "\n")
    except run.BenchError as exc:
        raise SystemExit(f"error: {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
