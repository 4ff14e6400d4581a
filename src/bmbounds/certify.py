"""Certification pipeline: per-t case reports, bisection, sweeps and documents.

``certify_at`` is the one producer of a case report: it decides the four
plain case systems at a rational t exactly from their integer row tables
(``systems.case_rows``) and re-verifies each certificate (``exactlp.verified``)
on the pair rows of its system's echo (``systems.case_echoes``), the
lookup ``verify-cert`` checks it on too.  A report keeps those echoes for
its document.  A bisection over a bracket [lo, hi] runs over a verdict alone: a
probe decides the cases from their row tables and stops at its first
feasible case.  It relies on the monotonicity of feasibility in t (valid
for affine c-policies) and returns a CertifiedBound whose endpoint reports
hold all four cases with machine-checkable certificates: Farkas vectors at
t_lo, a witness at t_hi.  Reports, probes and dichotomy assignments
settle each case in one step (``_settle``): by the verdict (the five rows
an infeasible run ended on), made alone, else, on all its base rows, by
the basis that last decided it, and by one ``exactlp.pivot`` run, from the
origin, only where neither holds, so every Farkas vector comes from a
verdict's weights (``exactlp.support_farkas``) and every witness is a
basis vertex.  A row of one formula is made once per point, and a search's
end reports reuse their probes' base rows.  A dichotomy decides its four
base systems once per t, as ``certify_at`` does, then each case over every
branch assignment, whose echoes share the plain ones' rows: a
plain-infeasible case carries its Farkas vector, zero-padded on the branch
rows, to every assignment, checked once, as the zeros leave every
assignment's check reading the same rows; a plain-feasible case is settled
per assignment as a probe settles it, or, with no functions, carries its
plain result.  All four document kinds are built here, with the echoes
each report keeps; ``audit`` re-verifies them with no solver.  No producer
loads ``audit`` or ``reference``: their names here load on first use.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import NamedTuple, Sequence

from . import __version__, exactlp
from .exactlp import (
    FeasibilityResult,
    SELF_CHECK_FAILED,
    feasible_at,
    infeasible_on,
    support_farkas,
    verified,
)
# parse_rational is unused here: bench/spans.py counts it in this module.
from .rationals import InputError, format_rational, parse_rational
# The exit codes are re-exported; MAX_ITERS and _repeated apply here too.
from .systems import EXIT_CERTIFIED, EXIT_INPUT_ERROR, EXIT_NOT_CERTIFIED, MAX_ITERS, _repeated
from .systems import (
    ALL_CASES,
    BRANCH_ROWS,
    CPolicy,
    DEFAULT_DICHOTOMY_FUNCTIONS,
    DEFAULT_POLICY,
    VARIABLES,
    DomainError,
    JCase,
    Variant,
    branch_strings,
    case_echoes,
    case_metas,
    case_point,
    case_rows,
    check_functions,
    with_branches,
)

TOOL_VERSION = f"bmbounds-{__version__}"


def __getattr__(name: str):  # the audit's entry points, and the names bench/spans.py wraps here
    if name in ("verify_cert_file", "verify_certificate_text"):
        from .audit import verify_cert_file, verify_certificate_text
    elif name in ("build_all_cases", "build_case_system", "build_dichotomy_systems", "check_feasibility",
                  "parse_system_file", "serialize_system", "verify_certificate"):
        from .reference import (build_all_cases, build_case_system, build_dichotomy_systems,
                                check_feasibility, parse_system_file, serialize_system, verify_certificate)
    else:  # a dunder too, which importing probes (``__path__``): it loads nothing
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return locals()[name]


class BracketError(InputError):
    """A bisection bracket precondition failed; the message names the end."""


class IterationsError(InputError):
    """A bisection asks for a negative number of steps or more than MAX_ITERS."""


class CaseReport(NamedTuple):
    """Feasibility verdicts for all four case systems at one t.

    Every report comes from ``_certify_at`` (a dichotomy assignment is one
    with branch rows added, and a search's end reports take certificates
    from the probes' verdicts and bases): it holds all four cases, in
    ``ALL_CASES`` order, each with a certificate verified against the pair
    rows of its system.  ``functions`` and ``branches`` name the dichotomy branch
    assignment (one "a"/"b" per function); a plain report has functions
    None and no branches.  A case's rows are those of its plain system with
    the ``BRANCH_ROWS[m, br]`` of each (m, br) in ``zip(functions,
    branches)`` spliced in.  ``echoes`` (``systems.case_echoes``) holds each
    case's pair rows, its certificate's check, and the echo its document
    writes; None on a hand-built report, whose document makes them afresh.
    """

    t: Fraction
    c: Fraction
    policy: CPolicy
    variant: Variant
    results: dict[JCase, FeasibilityResult]
    functions: tuple[int, ...] | None = None
    branches: str = ""
    echoes: dict | None = None

    @property
    def all_infeasible(self) -> bool:
        return all(not r.feasible for r in self.results.values())

    @property
    def feasible_cases(self) -> tuple[JCase, ...]:
        return tuple(c for c, r in self.results.items() if r.feasible)


class CertifiedBound(NamedTuple):
    """A bracket [t_lo, t_hi]: certified infeasible at t_lo, witnessed at t_hi."""

    t_lo: Fraction
    t_hi: Fraction
    report_lo: CaseReport
    report_hi: CaseReport
    trace: tuple[tuple[Fraction, bool], ...]
    policy: CPolicy
    variant: Variant


def certify_at(
    t: Fraction,
    policy: CPolicy = DEFAULT_POLICY,
    variant: Variant = Variant.SYMMETRIZED,
) -> CaseReport:
    """Decide all four case systems at t from their row tables.

    The one place a ``CaseReport`` is made.  Each case is settled on
    ``case_rows`` with nothing stored (``_certificate``), so by
    ``exactlp.pivot`` from the origin, and its certificate must pass
    ``verified`` on the pair rows of the case's echo (``case_echoes``), the
    rows ``verify-cert`` checks the echo on, as in ``check_feasibility``.
    Both come from one formula per row, so a wrong certificate, or base rows
    that disagree with the pair rows, raise AssertionError here instead of
    writing a document.  No system is built.  The echoes are formatted here,
    so a t whose rows hold a number past ``int()``'s digit limit raises
    InputError (``rationals.format_pair``).
    """
    return _certify_at(t, policy, variant, {})[0]


def _certify_at(t: Fraction, policy: CPolicy, variant: Variant, bases: dict, memo: dict | None = None,
                weights: dict | None = None, made: dict | None = None) -> tuple[CaseReport, dict]:
    """``certify_at``, and its memo of base rows at t (``case_rows``).  The
    echoes are made once, on ``made`` (``case_echoes``); each case is settled
    as a probe settles it (``_certificate``) on ``bases`` and ``memo``, a
    probe's at t or fresh, unless ``weights`` holds its verdict and weights."""
    t = Fraction(t)
    point, metas = case_metas(t, policy, variant)
    echoes = case_echoes({} if made is None else made, point, metas, variant)
    memo, results = {} if memo is None else memo, {}
    for case, (pairs, _) in echoes.items():
        result = _certificate(bases, case, partial(case_rows, case, point, variant, memo),
                              weights[case] if weights else None)
        results[case] = verified(VARIABLES, pairs, result)
    return CaseReport(t, Fraction(point[1], point[2]), policy, variant, results, echoes=echoes), memo


def _settle(bases: dict, key, rows_at) -> tuple:
    """The one settle step of a case decision: (y, vertex).  ``rows_at(indices)``
    makes the case's base rows there, or all for None (``case_rows``).

    (y, None) if the weights y of the five rows ``bases`` holds for ``key``
    prove them infeasible (``infeasible_on``), made alone; else (None,
    vertex) if the vertex (xs, D) of the basis held satisfies all rows
    (``feasible_at``); both by Cramer's rule.  Else ``exactlp.pivot``
    decides the rows from the origin; the five rows or the basis it ends at
    must pass the same check (else AssertionError), replace the ones held
    for ``key`` and that verdict, and give what that check returns."""
    verdict = bases.get((key, False))
    y = infeasible_on(rows_at(verdict), verdict) if verdict else None
    if y:
        return y, None
    rows = rows_at(None)
    basis = bases.get((key, True))
    vertex = feasible_at(rows, basis)
    if vertex:
        return None, vertex
    feasible, found, _ = exactlp.pivot(rows)
    checked = feasible_at(rows, found) if feasible else infeasible_on(rows, found)
    if not checked:
        raise AssertionError(SELF_CHECK_FAILED)
    bases[key, feasible] = found
    return (None, checked) if feasible else (checked, None)


def _certificate(bases: dict, key, rows_at, held: tuple | None = None) -> FeasibilityResult:
    """The unverified certificate that ``_settle`` gives on ``rows_at``: the
    Farkas vector (``support_farkas``) of the five rows held and their
    weights, or the basis vertex as the witness; given ``held``, a verdict
    and the weights its check gave, no settle runs."""
    verdict, y = held or (None, None)
    y, vertex = (y, None) if y else _settle(bases, key, rows_at)
    if y:
        verdict = verdict or bases[key, False]
        return FeasibilityResult("infeasible", farkas=support_farkas(rows_at(verdict), verdict, y))
    xs, D = vertex
    return FeasibilityResult("feasible", witness={v: Fraction(x, D) for v, x in zip(VARIABLES, xs)})


def _first_feasible(t: Fraction, policy: CPolicy, variant: Variant, order: Sequence[JCase],
                    bases: dict, memo: dict, weights: dict) -> JCase | None:
    """The first case in ``order`` whose base rows are feasible at t, or None
    if all four are infeasible; each case is decided by ``_settle`` on ``memo``,
    and ``weights`` gets each infeasible case's verdict and weights."""
    point = case_point(t, policy)
    for case in order:
        y, vertex = _settle(bases, case, partial(case_rows, case, point, variant, memo))
        if vertex:
            return case
        weights[case] = bases[case, False], y
    return None


def _check_iters(iters: int) -> None:
    if iters < 0:
        raise IterationsError(f"--iters {iters} is negative")
    if iters > MAX_ITERS:
        raise IterationsError(f"--iters {iters} exceeds the limit of {MAX_ITERS}")


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
    (hi - lo) / 2**iters exactly.  ``iters`` below 0 or above
    ``MAX_ITERS`` raises IterationsError before anything is decided.

    Bisection runs over a verdict, ``_first_feasible``: the checks at lo
    and hi and every midpoint probe decide the cases one at a time from
    their row tables and stop at the first feasible one, so an
    all-infeasible probe has decided all four.  A probe tries the case at
    which the latest feasible probe stopped first, then the others in
    ``ALL_CASES`` order; the checks at lo and hi use ``ALL_CASES`` order.
    When lo is not all-infeasible, the error names every feasible case,
    each settled alone on its base rows, so no report is made there.

    Probes are warm-started: one dict, kept across the probes, holds per
    case the last verdict and the last basis a pivot run ended at for it,
    which ``_settle`` tries at the new t, in that order, before it runs
    ``exactlp.pivot`` from the origin; a verdict that holds makes its own
    rows alone (``case_rows``), each once per probe.  Each check accepts a
    verdict only after exact integer substitution, so a verdict never
    depends on the bases or on the order, and neither does the trace.

    The two reports take their base rows from their probes (``_certify_at``):
    the report at t_hi its certificates from that dict as the search leaves
    it, the report at t_lo from the verdicts and weights of the last
    all-infeasible probe, so it makes no base row and settles no case.
    Their verdicts are those of ``certify_at``, and each keeps the echoes
    it was verified on (``CaseReport.echoes``).
    """
    _check_iters(iters)
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise BracketError(
            f"inverted bracket: lo = {format_rational(lo)} must be below hi = {format_rational(hi)}"
        )
    bases: dict = {}
    lower, upper = ({}, {}), ({}, {})  # the row memos and the weights of the probes at lo and hi
    if _first_feasible(lo, policy, variant, ALL_CASES, bases, *lower) is not None:
        feasible = [c.value for c in ALL_CASES if _first_feasible(lo, policy, variant, (c,), {}, {}, {})]
        raise BracketError(
            f"bracket end lo = {format_rational(lo)} is not all-infeasible (feasible: {', '.join(feasible)})"
        )
    first = _first_feasible(hi, policy, variant, ALL_CASES, bases, *upper)
    if first is None:
        raise BracketError(f"bracket end hi = {format_rational(hi)} has no feasible case")
    trace = [(lo, True), (hi, False)]
    orders = {case: (case, *(c for c in ALL_CASES if c != case)) for case in ALL_CASES}
    for _ in range(iters):
        mid = (lo + hi) / 2
        at = {}, {}
        found = _first_feasible(mid, policy, variant, orders[first], bases, *at)
        trace.append((mid, found is None))
        if found is None:
            lo, lower = mid, at
        else:
            hi, first, upper = mid, found, at
    report_lo = _certify_at(lo, policy, variant, {}, *lower)[0]
    report_hi = _certify_at(hi, policy, variant, bases, upper[0])[0]
    return CertifiedBound(lo, hi, report_lo, report_hi, tuple(trace), policy, variant)


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
    ``iters`` below 0 or above ``MAX_ITERS`` raises IterationsError, and a
    repeated policy InputError, before any policy is searched.
    """
    _check_iters(iters)
    repeated = _repeated(policies)
    if repeated:
        raise InputError(f"policies must be distinct, got {repeated.key()} more than once")
    ranked: list[tuple[CPolicy, CertifiedBound]] = []
    skipped: list[tuple[CPolicy, str]] = []
    for policy in policies:
        try:
            bound = binary_search_bound(lo, hi, iters, policy, variant)
        except (BracketError, DomainError) as exc:
            skipped.append((policy, str(exc)))
            continue
        ranked.append((policy, bound))
    ranked.sort(key=lambda item: (-item[1].t_lo, (item[0].p, item[0].q, item[0].r)))
    return ranked, skipped


# ---------------------------------------------------------------------------
# Dichotomy mode
# ---------------------------------------------------------------------------

class DichotomyReport(NamedTuple):
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
    """Decide all 2**b branch assignments; certified iff all infeasible.

    Each plain case system is decided once, as ``certify_at`` does; then
    each case over every assignment, whose rows are the plain ones with the
    branch rows spliced in.  Each assignment's echoes are made on the memo
    of the plain ones (``case_echoes``), so a row is made once, and each
    assignment is checked on its own echoes' pair rows; ``with_branches``
    splices base rows and Farkas vectors only.  Adding rows cannot make an
    infeasible system feasible, so every assignment of a plain-infeasible
    case carries one object, checked once, on the first assignment's pair
    rows: the plain Farkas vector with a zero on every branch row.  A check
    reads the vector's length and the rows of its nonzero entries only, and
    the zeros make both the same for every assignment.  Without functions
    the one assignment carries the plain result of every case.  Otherwise
    the assignments of a plain-feasible case are settled as probes settle a
    case (``_certificate``), on one fresh dict shared across them.  Raises
    FunctionsError, before any case is decided, unless the functions are
    distinct indices 0-2.
    """
    functions = check_functions(functions)
    made: dict = {}
    report, memo = _certify_at(t, policy, variant, {}, made=made)
    point, metas = case_metas(report.t, policy, variant)
    branch = {key: row.make(point) for key, row in BRANCH_ROWS.items() if key[0] in functions}
    strings = branch_strings(len(functions))
    extras = [[branch[key] for key in zip(functions, branches)] for branches in strings]
    echoes = [case_echoes(made, point, metas, variant, functions, branches) for branches in strings]
    columns = []
    for case, plain in report.results.items():
        if not (plain.feasible and functions):
            carried = plain if plain.feasible else plain._replace(
                farkas=with_branches(plain.farkas, (Fraction(0),) * len(functions)))
            columns.append([verified(VARIABLES, echoes[0][case][0], carried)] * len(strings))
            continue
        bases: dict = {}
        rows = case_rows(case, point, variant, memo)
        columns.append([verified(VARIABLES, echo[case][0], _certificate(
            bases, case, lambda _, got=with_branches(rows, extra): got)) for extra, echo in zip(extras, echoes)])
    return DichotomyReport(report.t, policy, variant, functions, tuple(
        [report._replace(results=dict(zip(ALL_CASES, got)), functions=functions, branches=branches, echoes=echo)
         for branches, echo, got in zip(strings, echoes, zip(*columns))]))


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


def _case_entries(report: CaseReport, certs: dict, cases: Sequence[JCase] = ALL_CASES) -> list[dict]:
    """The case entries of a report for ``cases``, with the echoes it keeps,
    or, for a hand-built report, those ``case_echoes`` makes afresh.  The
    assignments of a dichotomy document share ``certs``, which maps each
    result object (by id) to its formatted fields: a certificate that
    several assignments share is formatted once and held as one object, as
    is a row their echoes share."""
    echoes = report.echoes or case_echoes({}, *case_metas(report.t, report.policy, report.variant, cases),
                                          report.variant, report.functions, report.branches)
    entries = []
    for case in cases:
        result = report.results[case]
        cert = certs.get(id(result))
        if cert is None:
            cert = certs[id(result)] = _result_json(result)
        entries.append({"case": case.value, **cert, "system": echoes[case][1]})
    return entries


def _report_json(report: CaseReport, cases: Sequence[JCase] = ALL_CASES) -> dict:
    return {
        "t": format_rational(report.t),
        "c": format_rational(report.c),
        "cases": _case_entries(report, {}, cases),
    }


def certify_report_doc(report: CaseReport, case: JCase | None = None) -> dict:
    """With ``case``, the document holds that case's entry alone, ``certified``
    covers that case only, and a last ``case`` field records it.  Its case
    echoes hold shared objects (``case_echoes``): copy it before editing
    one in place."""
    cases = ALL_CASES if case is None else (case,)
    doc = {
        "tool_version": TOOL_VERSION,
        "kind": "certify",
        "variant": report.variant.value,
        "policy": report.policy.key(),
        **_report_json(report, cases),
        "certified": all(not report.results[c].feasible for c in cases),
    }
    return doc if case is None else {**doc, "case": case.value}


def search_report_doc(bound: CertifiedBound) -> dict:
    """The search document.  The case echoes of each of its reports hold
    shared objects (``case_echoes``): copy it before editing one in place."""
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


def sweep_report_doc(ranked, skipped, variant: Variant, iters: int) -> dict:
    """The sweep document of the (ranked, skipped) pair that ``sweep_policies`` returns.

    Each ranked entry embeds the search document of its bisection, so the
    ranking can be audited; a skipped entry holds its reason only.  A
    ranked bound of another variant raises ``ValueError``: the document
    would contradict the search it embeds.
    """
    for policy, bound in ranked:
        if bound.variant is not variant:
            raise ValueError(f"policy {policy.key()} was searched in the {bound.variant.value}"
                             f" variant, not the {variant.value} one")
    return {
        "tool_version": TOOL_VERSION,
        "kind": "sweep",
        "variant": variant.value,
        "iters": iters,
        "results": [
            {"policy": policy.key(), "t_lo": format_rational(bound.t_lo),
             "t_hi": format_rational(bound.t_hi), "search": search_report_doc(bound)}
            for policy, bound in ranked
        ],
        "skipped": [{"policy": policy.key(), "reason": reason} for policy, reason in skipped],
    }


def dichotomy_report_doc(report: DichotomyReport) -> dict:
    """The dichotomy document.  Its assignments hold shared rows and
    certificates as shared objects: copy it before editing one in place."""
    certs: dict = {}
    return {
        "tool_version": TOOL_VERSION,
        "kind": "dichotomy",
        "variant": report.variant.value,
        "policy": report.policy.key(),
        "t": format_rational(report.t),
        "functions": list(report.functions),
        "certified": report.certified,
        "assignments": [
            {"branches": a.branches, "cases": _case_entries(a, certs)}
            for a in report.assignments
        ],
    }
