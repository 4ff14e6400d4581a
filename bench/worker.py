"""One workload in one fresh interpreter: set up, run timed passes, check.

Started by run.py as ``python3 bench/worker.py --workload W --seed N
--seconds S --trace 0|1 [--setup-only]``; prints one JSON line.  Set-up
time runs from the first line of this file, before ``bmbounds.cli`` is
imported, to the point where the first timed operation could start.  All
times exclude the speed probe's own sampling; span times in traced runs
include it (about 2%).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402

# The machine's speed drifts by up to 2x within a second (other tenants share
# the cores), so a timer samples it while the program runs: every PERIOD_S a
# signal handler times a fixed tiny loop.  An op's time, less the handler's,
# is scaled to nominal speed by NOMINAL_PROBE_S / (mean loop time around and
# during the op).  The loop never changes with the program; NOMINAL_PROBE_S
# is a round figure near its time on a 2.0 GHz Xeon when the cores are busy.
PERIOD_S = 0.02
NOMINAL_PROBE_S = 3.0e-4


def _probe_loop() -> float:
    t = time.perf_counter()
    x = Fraction(1, 3)
    for i in range(1, 30):
        x = x * Fraction(i, i + 7) + Fraction(1, i)
        x = Fraction(x.numerator % 100003, x.denominator % 100019 + 1)
    return time.perf_counter() - t


class SpeedProbe:
    """Samples of the machine's speed, taken on a timer and on demand."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0          # seconds spent taking samples
        self._sampling = False

    def sample(self, *_signal) -> None:
        if self._sampling:        # the timer fired during an on-demand sample
            return
        self._sampling = True
        t = time.perf_counter()
        self.samples.append(min(_probe_loop(), _probe_loop()))
        self.spent += time.perf_counter() - t
        self._sampling = False

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, wall: float, spent_before: float) -> tuple[float, float]:
        """(busy, scaled) for an interval that began with the last sample taken
        before it: wall time less sampling, and the same at nominal speed.
        Samples one more time, and drops all but that last sample."""
        busy = wall - (self.spent - spent_before)
        self.sample()
        scaled = busy * NOMINAL_PROBE_S / statistics.fmean(self.samples)
        del self.samples[:-1]
        return busy, scaled


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Call ``cli.main(argv)`` in-process; returns (exit code, stdout+stderr)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects argv by raising SystemExit(2)
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def import_program():
    import bmbounds.cli as cli

    where = Path(cli.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise RuntimeError(f"bmbounds was imported from {where}, not from this checkout")
    return cli


def build_ops(workload: str, seed: int, workdir: Path, cli):
    """The workload's pass and, for audit, the headline forgery documents."""
    if workload == "audit":
        return workloads.audit_setup(seed, workdir, lambda argv: run_cli(cli, argv))
    return {"search": workloads.search_ops, "dichotomy": workloads.dichotomy_ops,
            "upper": workloads.upper_ops}[workload](seed), []


def run_passes(cli, ops, passes: int, probe: SpeedProbe, tracer=None) -> dict:
    """Closed loop, one client: run every op of the pass, ``passes`` times.

    Returns per-op wall durations (less sampling), the same scaled to nominal
    machine speed, exit codes and, per op of the pass, the output of its
    first run and whether any later run printed different bytes.
    """
    durations, scaled, codes = [], [], []
    first_out: list = [None] * len(ops)
    changed = [False] * len(ops)
    for _ in range(passes):
        for i, op in enumerate(ops):
            span = tracer.begin_op(len(durations)) if tracer else None
            spent = probe.spent
            t = time.perf_counter()
            try:
                code, out = run_cli(cli, op.argv)
            except Exception as exc:  # an op that raises counts as failed
                code, out = None, f"{type(exc).__name__}: {exc}"
            busy, at_nominal = probe.scale(time.perf_counter() - t, spent)
            durations.append(busy)
            scaled.append(at_nominal)
            if tracer:
                tracer.end_op(span, len(out.encode("utf-8")))
            codes.append(code)
            if first_out[i] is None:
                first_out[i] = out
            elif out != first_out[i]:
                changed[i] = True
    return {"durations": durations, "scaled": scaled, "codes": codes, "first_out": first_out,
            "changed": changed}


def check_ops(ops, result: dict) -> tuple[int, list[str]]:
    """Failed op runs and one reason per failing op of the pass."""
    n = len(ops)
    bad: dict[int, str] = {}
    for i, op in enumerate(ops):
        out = result["first_out"][i]
        if result["changed"][i]:
            bad[i] = "output differs between passes"
            continue
        codes = set(result["codes"][i::n])
        if None in codes:
            bad[i] = out.strip().splitlines()[-1]
            continue
        try:
            reason = op.check(result["codes"][i], out)
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
        if reason is None and len(codes) > 1:
            reason = f"exit codes differ between passes: {sorted(codes)}"
        if reason is not None:
            bad[i] = reason
    failed = sum(1 for k in range(len(result["codes"])) if k % n in bad)
    return failed, [f"{' '.join(ops[i].argv)}: {why}" for i, why in sorted(bad.items())]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        with SpeedProbe() as probe:
            report = measure(args, workdir, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def measure(args, workdir: Path, probe: SpeedProbe) -> dict:
    cli = import_program()
    ops, forgeries = build_ops(args.workload, args.seed, workdir, cli)
    setup_s, setup_scaled_s = probe.scale(time.perf_counter() - T0, 0.0)
    report = {"setup_s": setup_s, "setup_scaled_s": setup_scaled_s}
    if args.setup_only:
        return report

    tracer = None
    if args.trace:
        import spans
        from bmbounds import bounds, certify, exactlp, rationals, systems, upperiso

        tracer = spans.Tracer()
        tracer.install({"exactlp": exactlp, "certify": certify, "systems": systems,
                        "rationals": rationals, "upperiso": upperiso, "bounds": bounds, "cli": cli})
    passes = workloads.passes(args.workload, args.seconds)
    result = run_passes(cli, ops, passes, probe, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, reasons = check_ops(ops, result)
    report.update(durations=result["durations"], scaled=result["scaled"], passes=passes,
                  failed=failed, reasons=reasons,
                  peak_rss_mb=peak_rss_mb, pass_ops=len(ops))
    if forgeries:
        accepted = [p.stem for p in forgeries if run_cli(cli, ["verify-cert", str(p)])[0] == 0]
        report["forgeries"] = {"total": len(forgeries), "accepted": accepted}
    if tracer:
        report["layers"] = spans.layer_metrics(tracer, len(result["durations"]))
        report["trace_missing"] = tracer.missing
        out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(out)
        report["trace_file"] = str(out.relative_to(ROOT))
    return report


if __name__ == "__main__":
    sys.exit(main())
