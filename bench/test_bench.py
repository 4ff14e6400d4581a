"""Tests of the benchmark itself:  python3 -m pytest -q bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

SEED = 3
# Operations of one pass that the smoke run executes, to keep it short.
SMOKE_OPS = {"search": 2, "dichotomy": 3, "upper": None, "audit": None}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_every_check(workload, tmp_path):
    cli = worker.import_program()
    ops, forgeries = worker.build_ops(workload, SEED, tmp_path, cli)
    ops = ops[:SMOKE_OPS[workload]]
    with worker.SpeedProbe() as probe:
        result = worker.run_passes(cli, ops, 1, probe)
    failed, reasons = worker.check_ops(ops, result)
    assert (failed, reasons) == (0, [])
    # The headline forgeries are run and reported, not required to be rejected:
    # the verifier does not yet check that headline claims follow from the parts.
    assert len(forgeries) == (3 if workload == "audit" else 0)
    for path in forgeries:
        assert worker.run_cli(cli, ["verify-cert", str(path)])[0] in (0, 1)


def test_tampered_documents_are_rejected_and_genuine_ones_accepted(tmp_path):
    cli = worker.import_program()
    ops, _ = worker.build_ops("audit", SEED, tmp_path, cli)
    tampered = [op for op in ops if "-tampered-" in Path(op.argv[-1]).name]
    assert len(tampered) == len(ops) // 2
    assert {Path(op.argv[-1]).stem.rsplit("-", 1)[1] for op in tampered} == set(workloads.TAMPER_KINDS)
    for op in ops:
        code, _ = worker.run_cli(cli, op.argv)
        assert code == (1 if op in tampered else 0), op.argv


def _argv(workload: str, seed: int) -> list:
    if workload == "audit":
        return workloads.audit_documents(seed)
    return [op.argv for op in getattr(workloads, f"{workload}_ops")(seed)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_decide_the_inputs(workload):
    assert _argv(workload, 1) == _argv(workload, 1)
    assert _argv(workload, 1) != _argv(workload, 2)


WORK_COUNTERS = ("_calls", "fm_input_rows", "cert_bits_max", "report_bytes", "_ratio", "_share",
                 "_per_fm")


def _traced(workload: str) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["failed"] == 0 and report["trace_missing"] == []
    return {k: v for k, v in report["layers"].items() if k.endswith(WORK_COUNTERS)}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_work_counters_repeat_exactly(workload):
    first = _traced(workload)
    assert any(first.values())
    assert _traced(workload) == first


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(1, 101)])
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    assert run.tail([2.0, 3.0, 1.0]) == (3.0, 100.0, 0)


def _pass_ops(workload: str) -> int:
    if workload == "audit":
        return 2 * len(workloads.audit_documents(SEED))  # each document and its tampered copy
    return len(getattr(workloads, f"{workload}_ops")(SEED))


def test_runs_have_a_fixed_pass_count_with_a_tail_percentile():
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for workload in workloads.WORKLOADS:
        assert workloads.passes(workload, seconds) * _pass_ops(workload) >= 21, workload
    assert workloads.passes("search", 0) == 1


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "upper", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
