"""Certification pipeline: per-t case reports, bisection, sweeps, audits.

A probe at rational t builds the four case systems and decides each
exactly; the solver re-verifies every certificate it emits.  Bisection
over a bracket [lo, hi] relies on the monotonicity of feasibility in t
(valid for affine c-policies) and returns a CertifiedBound whose endpoint
reports hold all four cases with machine-checkable certificates: Farkas
vectors at t_lo, a witness at t_hi.  A midpoint probe stops at its first
feasible case.  A dichotomy builds its four base systems once per t and
shares them across the branch assignments.  Certificate files are
self-contained JSON documents that an auditor re-verifies by substitution
alone; each echoed system must equal the rebuilt one value for value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

from . import __version__
from .exactlp import (
    FeasibilityResult,
    LinearSystem,
    SystemError_,
    check_feasibility,
    verify_certificate,
)
from .rationals import format_rational, parse_int, parse_rational
from .systems import (
    ALL_CASES,
    CPolicy,
    DEFAULT_DICHOTOMY_FUNCTIONS,
    DEFAULT_POLICY,
    JCase,
    SystemFormatError,
    Variant,
    branch_strings,
    build_all_cases,
    build_case_system,
    build_dichotomy_systems,
    parse_system_file,  # unused here, like serialize_system: bench/spans.py wraps both here
    serialize_system,
    system_doc,
    system_from_doc,
)

TOOL_VERSION = f"bmbounds-{__version__}"

EXIT_CERTIFIED = 0
EXIT_NOT_CERTIFIED = 1
EXIT_INPUT_ERROR = 2


class BracketError(ValueError):
    """A bisection bracket precondition failed; the message names the end."""


@dataclass(frozen=True)
class CaseReport:
    """Feasibility verdicts for all four case systems at one probe t.

    (Inside ``binary_search_bound`` a probe's report may hold only the
    systems and verdicts up to its first feasible case; no such report
    leaves it.)

    ``branches`` names the dichotomy branch assignment the systems carry
    (one "a"/"b" per function); it is empty for the plain case systems.
    """

    t: Fraction
    c: Fraction
    policy: CPolicy
    variant: Variant
    results: dict[JCase, FeasibilityResult]
    systems: dict[JCase, LinearSystem]
    branches: str = ""

    @property
    def all_infeasible(self) -> bool:
        return all(not r.feasible for r in self.results.values())

    @property
    def feasible_cases(self) -> tuple[JCase, ...]:
        return tuple(c for c in ALL_CASES if self.results[c].feasible)


@dataclass(frozen=True)
class CertifiedBound:
    """A bracket [t_lo, t_hi]: certified infeasible at t_lo, witnessed at t_hi."""

    t_lo: Fraction
    t_hi: Fraction
    report_lo: CaseReport
    report_hi: CaseReport
    trace: tuple[tuple[Fraction, bool], ...]
    policy: CPolicy
    variant: Variant


def _decide(
    t: Fraction,
    policy: CPolicy,
    variant: Variant,
    systems: Iterable[tuple[JCase, LinearSystem]],
    branches: str = "",
    stop_at_feasible: bool = False,
) -> CaseReport:
    """Decide the (case, system) pairs in order.

    With ``stop_at_feasible`` it stops after the first feasible case, so a
    lazy iterable of pairs builds no system past it.
    """
    built = {}
    results = {}
    for case, system in systems:
        built[case] = system
        results[case] = check_feasibility(system)
        if stop_at_feasible and results[case].feasible:
            break
    return CaseReport(t, policy.c_at(t), policy, variant, results, built, branches)


def _completed(report: CaseReport) -> CaseReport:
    """The report with every case built and decided, keeping what it already has."""
    systems = {
        case: report.systems[case] if case in report.systems
        else build_case_system(case, report.t, report.policy, report.variant)
        for case in ALL_CASES
    }
    results = {
        case: report.results[case] if case in report.results else check_feasibility(system)
        for case, system in systems.items()
    }
    return replace(report, results=results, systems=systems)


def certify_at(
    t: Fraction,
    policy: CPolicy = DEFAULT_POLICY,
    variant: Variant = Variant.SYMMETRIZED,
) -> CaseReport:
    """Build and decide all four case systems at t; certificates verified."""
    t = Fraction(t)
    return _decide(t, policy, variant, build_all_cases(t, policy, variant).items())


def binary_search_bound(
    lo: Fraction,
    hi: Fraction,
    iters: int,
    policy: CPolicy = DEFAULT_POLICY,
    variant: Variant = Variant.SYMMETRIZED,
) -> CertifiedBound:
    """Bisect the feasibility threshold, keeping certificates at both ends.

    Preconditions: lo < hi, all four cases infeasible at lo, and at least
    one feasible at hi.  After ``iters`` bisections, t_hi - t_lo equals
    (hi - lo) / 2**iters exactly.

    The check at hi and every midpoint probe build and decide the cases in
    ``ALL_CASES`` order and stop at the first feasible one; an
    all-infeasible probe has decided all four.  The lo end is decided in
    full, so its error names every feasible case, and after the loop the
    report at t_hi gets the systems and verdicts it still lacks: both
    reports of the result hold all four cases.
    """
    def probe(t: Fraction) -> CaseReport:
        # Each case system is built only when the probe reaches it.
        cases = ((case, build_case_system(case, t, policy, variant)) for case in ALL_CASES)
        return _decide(t, policy, variant, cases, stop_at_feasible=True)

    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise BracketError(
            f"inverted bracket: lo = {format_rational(lo)} must be below hi = {format_rational(hi)}"
        )
    report_lo = certify_at(lo, policy, variant)
    if not report_lo.all_infeasible:
        raise BracketError(
            f"bracket end lo = {format_rational(lo)} is not all-infeasible"
            f" (feasible: {', '.join(c.value for c in report_lo.feasible_cases)})"
        )
    report_hi = probe(hi)
    if report_hi.all_infeasible:
        raise BracketError(f"bracket end hi = {format_rational(hi)} has no feasible case")
    trace = [(lo, True), (hi, False)]
    for _ in range(iters):
        mid = (lo + hi) / 2
        report_mid = probe(mid)
        trace.append((mid, report_mid.all_infeasible))
        if report_mid.all_infeasible:
            lo, report_lo = mid, report_mid
        else:
            hi, report_hi = mid, report_mid
    return CertifiedBound(lo, hi, report_lo, _completed(report_hi), tuple(trace), policy, variant)


def sweep_policies(
    policies: Sequence[CPolicy],
    lo: Fraction,
    hi: Fraction,
    iters: int,
    variant: Variant = Variant.SYMMETRIZED,
) -> tuple[list[tuple[CPolicy, CertifiedBound]], list[tuple[CPolicy, str]]]:
    """Independent bisections per policy, ranked by certified t_lo.

    Returns (ranked, skipped): ranked is sorted by t_lo descending with
    ties broken by (p, q, r) lexicographic order; policies whose guards or
    bracket preconditions fail end up in skipped with the reason.
    """
    ranked: list[tuple[CPolicy, CertifiedBound]] = []
    skipped: list[tuple[CPolicy, str]] = []
    for policy in policies:
        try:
            bound = binary_search_bound(lo, hi, iters, policy, variant)
        except (BracketError, ValueError) as exc:
            skipped.append((policy, str(exc)))
            continue
        ranked.append((policy, bound))
    ranked.sort(key=lambda item: (-item[1].t_lo, (item[0].p, item[0].q, item[0].r)))
    return ranked, skipped


# ---------------------------------------------------------------------------
# Dichotomy mode
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DichotomyReport:
    """Feasibility over every branch assignment of the dichotomy split."""

    t: Fraction
    policy: CPolicy
    variant: Variant
    functions: tuple[int, ...]
    assignments: tuple[CaseReport, ...]

    @property
    def certified(self) -> bool:
        return all(a.all_infeasible for a in self.assignments)


def certify_dichotomy(
    t: Fraction,
    policy: CPolicy = DEFAULT_POLICY,
    functions: Sequence[int] = DEFAULT_DICHOTOMY_FUNCTIONS,
    variant: Variant = Variant.SYMMETRIZED,
) -> DichotomyReport:
    """Decide all 2**b branch assignments; certified iff all infeasible."""
    t = Fraction(t)
    assignments = tuple(
        _decide(t, policy, variant, zip(ALL_CASES, systems), branches)
        for branches, systems in build_dichotomy_systems(t, policy, functions, variant)
    )
    return DichotomyReport(t, policy, variant, tuple(functions), assignments)


# ---------------------------------------------------------------------------
# Certificate files
# ---------------------------------------------------------------------------

def _result_json(result: FeasibilityResult) -> dict:
    doc: dict = {"status": result.status}
    if result.witness is not None:
        doc["witness"] = {v: format_rational(x) for v, x in result.witness.items()}
    if result.farkas is not None:
        doc["farkas"] = [format_rational(x) for x in result.farkas]
    return doc


def _case_entries(report: CaseReport) -> list[dict]:
    return [
        {"case": case.value, **_result_json(report.results[case]),
         "system": system_doc(report.systems[case])}
        for case in ALL_CASES
    ]


def _report_json(report: CaseReport) -> dict:
    return {
        "t": format_rational(report.t),
        "c": format_rational(report.c),
        "cases": _case_entries(report),
    }


def certify_report_doc(report: CaseReport) -> dict:
    return {
        "tool_version": TOOL_VERSION,
        "kind": "certify",
        "variant": report.variant.value,
        "policy": report.policy.key(),
        **_report_json(report),
        "certified": report.all_infeasible,
    }


def search_report_doc(bound: CertifiedBound) -> dict:
    return {
        "tool_version": TOOL_VERSION,
        "kind": "search",
        "variant": bound.variant.value,
        "policy": bound.policy.key(),
        "t_lo": format_rational(bound.t_lo),
        "t_hi": format_rational(bound.t_hi),
        "trace": [
            {"t": format_rational(t), "all_infeasible": ok} for t, ok in bound.trace
        ],
        "lower_report": _report_json(bound.report_lo),
        "upper_report": _report_json(bound.report_hi),
    }


def dichotomy_report_doc(report: DichotomyReport) -> dict:
    return {
        "tool_version": TOOL_VERSION,
        "kind": "dichotomy",
        "variant": report.variant.value,
        "policy": report.policy.key(),
        "t": format_rational(report.t),
        "functions": list(report.functions),
        "certified": report.certified,
        "assignments": [
            {"branches": a.branches, "cases": _case_entries(a)} for a in report.assignments
        ],
    }


class _Rejected(Exception):
    """A certificate or headline claim of a document does not hold (exit 1)."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise _Rejected(message)


def _entry_result(entry: dict) -> FeasibilityResult:
    status = entry["status"]
    if status == "feasible":
        witness = {v: parse_rational(s) for v, s in entry["witness"].items()}
        return FeasibilityResult("feasible", witness=witness)
    if status == "infeasible":
        farkas = tuple(parse_rational(s) for s in entry["farkas"])
        return FeasibilityResult("infeasible", farkas=farkas)
    raise SystemFormatError(f"unknown status {status!r}")


def _check_cases(entries: list, expected: dict[JCase, LinearSystem], where: str) -> None:
    """Re-verify case entries by substitution alone; raise _Rejected on the first failure.

    The entries must name exactly the cases of ``expected``, in order.  Each
    entry's certificate is checked against its echoed system, which must
    equal the system the builders give for that case value for value
    (variables, labelled rows, nonneg set, metadata); a rational may be
    written in any p/q form.  No solver is invoked.
    """
    cases = [JCase(entry["case"]) for entry in entries]
    _require(cases == list(expected),
             f"{where}cases [{', '.join(c.value for c in cases)}] are not the expected"
             f" [{', '.join(c.value for c in expected)}]")
    for entry, (case, built) in zip(entries, expected.items()):
        system = system_from_doc(entry["system"])
        _require(verify_certificate(system, _entry_result(entry)) and built == system,
                 f"{where}case {case.value} failed re-verification")


def _check_report(rep: dict, policy: CPolicy, variant: Variant,
                  cases: Sequence[JCase] = ALL_CASES) -> None:
    """Check one certify-style report: its c at its t, then its case entries."""
    t = parse_rational(rep["t"])
    where = f"t={rep['t']}: "
    _require(parse_rational(rep["c"]) == policy.c_at(t),
             f"{where}c = {rep['c']} is not c(t) = {format_rational(policy.c_at(t))}")
    expected = {case: build_case_system(case, t, policy, variant) for case in cases}
    _check_cases(rep["cases"], expected, where)


def _check_trace(trace: list, t_lo: Fraction, t_hi: Fraction) -> None:
    """Replay the bisection a search trace records; it must end at (t_lo, t_hi).

    The first two entries are the bracket ends (lo all-infeasible, hi not);
    each later probe is the midpoint of the current bracket and moves the
    end its verdict names.  Every all-infeasible verdict then lies at or
    below t_lo and every other verdict at or above t_hi, so the reports at
    t_lo and t_hi back them all by the monotonicity of feasibility in t.
    """
    probes = []
    for entry in trace:
        verdict = entry["all_infeasible"]
        if not isinstance(verdict, bool):
            raise SystemFormatError(f"trace verdict {verdict!r} is not a boolean")
        probes.append((parse_rational(entry["t"]), verdict))
    _require(len(probes) >= 2 and probes[0][1] and not probes[1][1],
             "trace does not open with the bracket ends (lo all-infeasible, hi not)")
    lo, hi = probes[0][0], probes[1][0]
    for t, all_infeasible in probes[2:]:
        _require(t == (lo + hi) / 2,
                 f"trace probe t={format_rational(t)} is not the midpoint of"
                 f" [{format_rational(lo)}, {format_rational(hi)}]")
        if all_infeasible:
            lo = t
        else:
            hi = t
    _require((lo, hi) == (t_lo, t_hi),
             f"trace ends at [{format_rational(lo)}, {format_rational(hi)}], not at [t_lo, t_hi]")


def _all_infeasible(rep: dict) -> bool:
    return all(e["status"] == "infeasible" for e in rep["cases"])


def _check_doc(doc: dict) -> None:
    """Re-verify every part of a document and bind its headline claims to them."""
    if not isinstance(doc, dict):
        raise SystemFormatError("top-level value must be an object")
    kind = doc["kind"]
    variant = Variant(doc["variant"])
    policy = CPolicy(*(parse_int(x) for x in doc["policy"].split(",")))
    if kind == "certify":
        # A document written by ``certify --case X`` records X and holds that case only.
        _check_report(doc, policy, variant, (JCase(doc["case"]),) if "case" in doc else ALL_CASES)
        _require(doc["certified"] is _all_infeasible(doc),
                 "certified flag contradicts case statuses")
    elif kind == "search":
        lower, upper = doc["lower_report"], doc["upper_report"]
        _check_report(lower, policy, variant)
        _check_report(upper, policy, variant)
        _require(_all_infeasible(lower), f"report at t={lower['t']} is not all-infeasible")
        _require(not _all_infeasible(upper), f"report at t={upper['t']} has no feasible case")
        t_lo, t_hi = parse_rational(doc["t_lo"]), parse_rational(doc["t_hi"])
        _require(t_lo == parse_rational(lower["t"]) and t_hi == parse_rational(upper["t"]),
                 "t_lo and t_hi are not the t of lower_report and upper_report")
        _require(t_lo < t_hi, "t_lo is not below t_hi")
        _check_trace(doc["trace"], t_lo, t_hi)
    elif kind == "dichotomy":
        t = parse_rational(doc["t"])
        functions = tuple(doc["functions"])
        if not all(type(m) is int for m in functions):
            raise SystemFormatError(f"functions must be integers, got {doc['functions']!r}")
        assignments = doc["assignments"]
        # Checked before any build: 2**len(functions) assignments are built.
        _require(len(assignments) == 2 ** len(functions)
                 and all(a["branches"] == b
                         for a, b in zip(assignments, branch_strings(len(functions)))),
                 f"assignments are not the {2 ** len(functions)} branch combinations"
                 f" of functions {list(functions)} in order")
        built = build_dichotomy_systems(t, policy, functions, variant)
        for assignment, (branches, systems) in zip(assignments, built):
            _check_cases(assignment["cases"], dict(zip(ALL_CASES, systems)),
                         f"branches {branches}: ")
        _require(doc["certified"] is all(_all_infeasible(a) for a in assignments),
                 "certified flag contradicts assignment statuses")
    else:
        raise SystemFormatError(f"unknown certificate kind {kind!r}")


def verify_certificate_text(text: str) -> tuple[int, str]:
    """Audit a certificate document; returns (exit code, message).

    0: every embedded certificate re-verifies and the headline claims
    (``certified``, ``t_lo``/``t_hi`` and the search trace, ``c``, the
    cases and branch assignments present) follow from them; 1: some
    certificate or claim does not hold; 2: the document cannot be parsed
    or is malformed.
    """
    try:
        _check_doc(json.loads(text))
    except _Rejected as exc:
        return EXIT_NOT_CERTIFIED, str(exc)
    except KeyError as exc:
        return EXIT_INPUT_ERROR, f"malformed certificate: missing field {exc}"
    except (TypeError, AttributeError, ValueError, SystemError_) as exc:
        return EXIT_INPUT_ERROR, f"malformed certificate: {exc}"
    return EXIT_CERTIFIED, "all certificates verified"


def verify_cert_file(path: str) -> tuple[int, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return EXIT_INPUT_ERROR, f"cannot read {path}: {exc}"
    return verify_certificate_text(text)
