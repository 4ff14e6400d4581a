"""Seeded workloads: the argv of every operation and the check of its output.

A workload is built from ``--seed`` alone and yields one *pass*: a fixed
list of operations, each a ``bmbounds`` argv plus a check of the exit code
and the captured output.  The runner repeats whole passes, so every run of
a workload executes the same mix of operations.  Each pass is stratified:
the input properties that set an operation's cost (iteration counts,
branch-function sets, scan lengths, document kinds) take every planned
value once per pass, and the seed picks the remaining inputs and the order.
That keeps a run's totals close across seeds while the argv differ.

Checks run outside the timed region.  They use exact arithmetic where the
program claims exact results and reference values the benchmark computes
itself where the program reports floating-point readings.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

# A check returns None when the output is correct, else a one-line reason.
Check = Callable[[int, str], Optional[str]]


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Check


def _fmt(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def rationals_between(lo: Fraction, hi: Fraction, max_den: int) -> list[Fraction]:
    """Every rational in [lo, hi] whose lowest-terms denominator is at most max_den."""
    found = set()
    for den in range(1, max_den + 1):
        for num in range(math.ceil(lo * den), math.floor(hi * den) + 1):
            found.add(Fraction(num, den))
    return sorted(found)


def guarded_policies() -> list[tuple[int, int, int]]:
    """Affine c-policies (p*t+q)/r with 1<=p<=4, -3<=q<=4, 1<=r<=8 that pass
    the guards c > 1 and t/2 <= c <= t at both ends of the bracket [3, 5]."""
    out = []
    for p in range(1, 5):
        for q in range(-3, 5):
            for r in range(1, 9):
                if all(Fraction(p * t + q, r) > 1 and Fraction(t, 2) <= Fraction(p * t + q, r) <= t
                       for t in (3, 5)):
                    out.append((p, q, r))
    return out


def _verify_text(text: str) -> int:
    from bmbounds.certify import verify_certificate_text

    return verify_certificate_text(text)[0]


# ---------------------------------------------------------------------------
# search: bisection with certificates at both ends
# ---------------------------------------------------------------------------

SEARCH_ITERS = range(12, 25)
PAPER_PIN = ("2,1,4", 6, Fraction(113, 32))


def _search_check(iters: int, expect_t_lo: Optional[Fraction]) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"search exited {code}"
        doc = json.loads(out)
        t_lo, t_hi = Fraction(doc["t_lo"]), Fraction(doc["t_hi"])
        if t_hi - t_lo != Fraction(2, 2 ** iters):
            return f"t_hi - t_lo = {t_hi - t_lo}, expected 2/2^{iters}"
        if doc["lower_report"]["t"] != doc["t_lo"] or doc["upper_report"]["t"] != doc["t_hi"]:
            return "headline t_lo/t_hi differ from the reports they cite"
        if expect_t_lo is not None and t_lo != expect_t_lo:
            return f"t_lo = {t_lo}, expected {expect_t_lo}"
        if _verify_text(out) != 0:
            return "search document fails verify-cert"
        return None

    return check


def _search_argv(policy: str, iters: int) -> tuple[str, ...]:
    return ("search", "--lo", "3", "--hi", "5", "--iters", str(iters),
            "--c-policy", policy, "--format", "structured")


def search_ops(seed: int) -> list[Op]:
    """The paper's pin, then every iteration count in 12..24 once, each with a
    distinct guarded policy, in seeded order."""
    rng = random.Random(seed)
    iters = list(SEARCH_ITERS)
    rng.shuffle(iters)
    policies = rng.sample(guarded_policies(), len(iters))
    pin_policy, pin_iters, pin_t_lo = PAPER_PIN
    ops = [Op(_search_argv(pin_policy, pin_iters), _search_check(pin_iters, pin_t_lo))]
    for n, (p, q, r) in zip(iters, policies):
        ops.append(Op(_search_argv(f"{p},{q},{r}", n), _search_check(n, None)))
    return ops


# ---------------------------------------------------------------------------
# dichotomy: every branch assignment decided, no early stop possible
# ---------------------------------------------------------------------------

DICHOTOMY_TS = rationals_between(Fraction(3), Fraction(4), 4)
FULL_FUNCTIONS = (0, 1, 2)
PAIRS = ((0, 1), (0, 2), (1, 2))
SINGLES = ((0,), (1,), (2,))


def _dichotomy_check(functions: tuple[int, ...]) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        doc = json.loads(out)
        statuses = [e["status"] for a in doc["assignments"] for e in a["cases"]]
        if len(doc["assignments"]) != 2 ** len(functions):
            return f"{len(doc['assignments'])} assignments, expected {2 ** len(functions)}"
        if doc["certified"] != all(s == "infeasible" for s in statuses):
            return "certified flag contradicts the case statuses"
        if code != (0 if doc["certified"] else 1):
            return f"exit {code} disagrees with certified = {doc['certified']}"
        if _verify_text(out) != 0:
            return "dichotomy document fails verify-cert"
        return None

    return check


def dichotomy_ops(seed: int) -> list[Op]:
    """Per pass: the full function set at every T in [3,4] with denominator
    <= 4 (so certified and uncertified verdicts both occur), plus one seeded
    pair and one seeded singleton at seeded T; seeded order."""
    rng = random.Random(seed)
    plan = [(t, FULL_FUNCTIONS) for t in DICHOTOMY_TS]
    plan += [(rng.choice(DICHOTOMY_TS), rng.choice(subsets)) for subsets in (PAIRS, SINGLES)]
    rng.shuffle(plan)
    return [
        Op(("dichotomy", "--t", _fmt(t), "--functions", *map(str, f), "--format", "structured"),
           _dichotomy_check(f))
        for t, f in plan
    ]


# ---------------------------------------------------------------------------
# upper: the (T, S) optimizer, exact scans and closed-form tables
# ---------------------------------------------------------------------------

# Optimizer tolerances in pairs whose golden-section step counts sum to the
# same total, and scan steps fixed, so a pass costs about the same for every seed.
OPT_TOL_PAIRS = (("1e-8", "1e-14"), ("1e-9", "1e-13"), ("1e-10", "1e-12"), ("1e-11", "1e-11"))
SCAN_STEPS = (Fraction(1, 100), Fraction(1, 200), Fraction(1, 400))
SCAN_POINTS = 51
TABLE_ROWS = 12
NEAR = 1e-9


def cubic_root() -> float:
    """The real root of t^3 - 4t^2 + t - 2 in [3, 4], by bisection."""
    lo, hi = 3.0, 4.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid ** 3 - 4 * mid ** 2 + mid - 2 < 0:
            lo = mid
        else:
            hi = mid
    return lo


def _optimize_check(code: int, out: str) -> Optional[str]:
    if code != 0:
        return f"upper --optimize exited {code}"
    doc = json.loads(out)
    t_star = float(doc["t_star"])
    root = cubic_root()
    if abs(t_star - root) >= NEAR:
        return f"t* = {t_star} is not within {NEAR} of the cubic root {root}"
    if abs(float(doc["normT"]) - t_star) >= NEAR or abs(float(doc["normS"]) - 1) >= NEAR:
        return "normT != t* or normS != 1 at the optimum"
    if doc["closed_form"]["matching"] != "corrected":
        return f"closed form matching = {doc['closed_form']['matching']!r}"
    return None


def _scan_check(code: int, out: str) -> Optional[str]:
    if code != 0:
        return f"upper --scan exited {code}"
    rows = json.loads(out)["rows"]
    if len(rows) != SCAN_POINTS:
        return f"{len(rows)} scan rows, expected {SCAN_POINTS}"
    optimum = cubic_root()
    low = min(r["distortion"] for r in rows)
    if low < optimum - NEAR:
        return f"scan distortion {low} is below the optimum {optimum}"
    return None


def height_bound(m: int) -> float:
    return m + math.sqrt((m - 1) * (m + 3))


def copies_bound(k: int) -> float:
    return (math.sqrt(3 * k * k - 2 * k + 1) + 2 * k - 1) / k


def _bounds_check(ms: range, ks: range) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"bounds exited {code}"
        want = [("height", m, height_bound(m)) for m in ms]
        want += [("copies", k, copies_bound(k)) for k in ks]
        rows = json.loads(out)["rows"]
        got = [(r["kind"], r["parameter"], float(r["value"])) for r in rows]
        if [g[:2] for g in got] != [w[:2] for w in want]:
            return "bounds rows do not match the requested parameters"
        for (kind, param, value), (_, _, ref) in zip(got, want):
            if not math.isclose(value, ref, rel_tol=1e-12):
                return f"{kind}({param}) = {value}, expected {ref}"
        return None

    return check


def upper_ops(seed: int) -> list[Op]:
    """Per pass: two optimizer runs (a seeded tolerance pair), three 51-point
    exact scans at seeded places inside [3,4] and two closed-form tables of
    12 rows each over seeded ranges, in seeded order."""
    rng = random.Random(seed)
    ops = [Op(("upper", "--optimize", "--tol", tol, "--format", "structured"), _optimize_check)
           for tol in rng.choice(OPT_TOL_PAIRS)]
    for step in SCAN_STEPS:
        span = step * (SCAN_POINTS - 1)
        lo = 3 + step * rng.randrange(int((1 - span) / step) + 1)
        spec = f"{_fmt(lo)}:{_fmt(lo + span)}:{_fmt(step)}"
        ops.append(Op(("upper", "--scan", spec, "--format", "structured"), _scan_check))
    for _ in range(2):
        m0, k0 = rng.randint(1, 20), rng.randint(2, 20)
        ms, ks = range(m0, m0 + TABLE_ROWS // 2), range(k0, k0 + TABLE_ROWS // 2)
        argv = ("bounds", "--m", f"{ms.start}..{ms.stop - 1}", "--k", f"{ks.start}..{ks.stop - 1}",
                "--format", "structured")
        ops.append(Op(argv, _bounds_check(ms, ks)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# audit: verify-cert on documents written by certify, search and dichotomy
# ---------------------------------------------------------------------------

def _expect_exit(expected: int) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        return None if code == expected else f"verify-cert exited {code}, expected {expected}"

    return check


def _entries(doc: dict) -> list[dict]:
    """Every case entry of a document, in the order the verifier visits them."""
    if doc["kind"] == "certify":
        return doc["cases"]
    if doc["kind"] == "search":
        return doc["lower_report"]["cases"] + doc["upper_report"]["cases"]
    return [e for a in doc["assignments"] for e in a["cases"]]


def _bump(text: str) -> str:
    return _fmt(Fraction(text) + 1)


def tamper(doc: dict, kind: str, rng: random.Random) -> dict:
    """A copy of doc with one entry changed so that its certificate is invalid.

    The last entry the change applies to is edited, so the verifier does
    all the work before it.  ``coefficient`` adds 1 to one coefficient of
    the echoed system, ``farkas`` adds 1 to a nonzero multiplier (the
    combination then no longer cancels that row's direction) and
    ``witness`` makes one coordinate negative (every variable is nonneg).
    """
    doc = json.loads(json.dumps(doc))
    if kind == "farkas":
        entry = [e for e in _entries(doc) if e["status"] == "infeasible"][-1]
        nonzero = [i for i, x in enumerate(entry["farkas"]) if Fraction(x) != 0]
        i = rng.choice(nonzero)
        entry["farkas"][i] = _bump(entry["farkas"][i])
    elif kind == "witness":
        entry = [e for e in _entries(doc) if e["status"] == "feasible"][-1]
        var = rng.choice(sorted(entry["witness"]))
        entry["witness"][var] = _fmt(-1 - Fraction(entry["witness"][var]))
    else:
        entry = _entries(doc)[-1]
        ineq = rng.choice(entry["system"]["inequalities"])
        var = rng.choice(sorted(ineq["coeffs"]))
        ineq["coeffs"][var] = _bump(ineq["coeffs"][var])
    return doc


TAMPER_KINDS = ("coefficient", "farkas", "witness")


def audit_documents(seed: int) -> list[tuple[str, tuple[str, ...]]]:
    """(name, argv) of the genuine documents the audit set-up writes.

    Three certify documents (two at t <= 7/2, one at t >= 15/4; both
    variants occur), three searches with 4, 6 and 8 iterations, and two
    dichotomy documents: the full function set at T <= 7/2, which certifies,
    and a pair at T >= 11/3, which does not.  All go through the CLI with
    --format structured.  With the tampered copies, the cheap certify checks
    fill the first third of a pass's sorted op times, so the median falls
    among the searches.
    """
    rng = random.Random(seed)
    low = rationals_between(Fraction(3), Fraction(7, 2), 16)
    high = rationals_between(Fraction(15, 4), Fraction(4), 16)
    variants = ["printed", "symmetrized", rng.choice(("printed", "symmetrized"))]
    rng.shuffle(variants)
    docs = []
    for i, (t, variant) in enumerate(zip(rng.sample(low, 2) + [rng.choice(high)], variants)):
        docs.append((f"certify{i}", ("certify", "--t", _fmt(t), "--variant", variant)))
    iters = [4, 6, 8]
    rng.shuffle(iters)
    for i, ((p, q, r), n) in enumerate(zip(rng.sample(guarded_policies(), 3), iters)):
        docs.append((f"search{i}", ("search", "--lo", "3", "--hi", "5", "--iters", str(n),
                                    "--c-policy", f"{p},{q},{r}")))
    half = Fraction(7, 2)
    docs.append(("dichotomy0", ("dichotomy", "--t", _fmt(rng.choice([t for t in DICHOTOMY_TS if t <= half])),
                                "--functions", *map(str, FULL_FUNCTIONS))))
    docs.append(("dichotomy1", ("dichotomy", "--t", _fmt(rng.choice([t for t in DICHOTOMY_TS if t > half])),
                                "--functions", *map(str, rng.choice(PAIRS)))))
    return [(name, argv + ("--format", "structured")) for name, argv in docs]


def headline_forgeries(docs: dict[str, dict], certify_t5: dict) -> dict[str, dict]:
    """Documents whose headline claim does not follow from their verified parts:
    t_lo edited, the feasible cases dropped, the assignments emptied.  A sound
    verifier rejects each."""
    search = json.loads(json.dumps(docs["search0"]))
    search["t_lo"] = "4"
    coverage = json.loads(json.dumps(certify_t5))
    coverage["cases"] = [e for e in coverage["cases"] if e["status"] != "feasible"]
    coverage["certified"] = True
    empty = json.loads(json.dumps(docs["dichotomy0"]))
    empty["assignments"] = []
    return {"forged-search-t_lo": search, "forged-certify-coverage": coverage,
            "forged-dichotomy-empty": empty}


def audit_setup(seed: int, workdir: Path,
                run_cli: Callable[[list[str]], tuple[int, str]]) -> tuple[list[Op], list[Path]]:
    """Write the genuine documents through the CLI, then one tampered copy of
    each (tamper kinds in seeded rotation) and the headline forgeries.  Returns the
    pass of verify-cert ops and the paths of the forgeries."""
    rng = random.Random(seed + 1)
    workdir.mkdir(parents=True, exist_ok=True)
    docs: dict[str, dict] = {}
    for name, argv in audit_documents(seed) + [("certify_t5", ("certify", "--t", "5", "--format", "structured"))]:
        path = workdir / f"{name}.json"
        code, _ = run_cli([*argv, "--out", str(path)])
        doc = json.loads(path.read_text(encoding="utf-8"))
        certified = doc.get("certified", True)
        if code != (0 if certified else 1):
            raise RuntimeError(f"set-up command {' '.join(argv)} exited {code}")
        docs[name] = doc
    certify_t5 = docs.pop("certify_t5")
    genuine = [workdir / f"{name}.json" for name in docs]
    tampered = []
    start = rng.randrange(len(TAMPER_KINDS))
    for i, (name, doc) in enumerate(docs.items()):
        statuses = {e["status"] for e in _entries(doc)}
        kind = TAMPER_KINDS[(start + i) % len(TAMPER_KINDS)]
        if (kind == "farkas" and "infeasible" not in statuses) or (
                kind == "witness" and "feasible" not in statuses):
            kind = "coefficient"
        path = workdir / f"{name}-tampered-{kind}.json"
        path.write_text(json.dumps(tamper(doc, kind, rng), indent=2) + "\n", encoding="utf-8")
        tampered.append(path)
    forgeries = []
    for name, doc in headline_forgeries(docs, certify_t5).items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        forgeries.append(path)
    ops = [Op(("verify-cert", str(p)), _expect_exit(0)) for p in genuine]
    ops += [Op(("verify-cert", str(p)), _expect_exit(1)) for p in tampered]
    rng.shuffle(ops)
    return ops, forgeries


WORKLOADS = ("search", "dichotomy", "audit", "upper")

# Seconds one pass takes at nominal machine speed (see worker.py), measured at
# the seed commit.  A run makes round(--seconds / PASS_SECONDS) passes, so the
# number of op samples, and the percentile behind op_tail_ms, depends on
# --seconds alone and never on how fast the program is.
PASS_SECONDS = {"search": 10.45, "dichotomy": 8.74, "audit": 0.401, "upper": 0.574}

# Fresh interpreters per run whose set-up time is measured; setup_s is their
# median.  Audit set-up writes its documents through the CLI (about 3 s).
SETUPS = {"search": 9, "dichotomy": 9, "audit": 3, "upper": 9}


def passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))
