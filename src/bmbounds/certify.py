"""Certification pipeline: per-t case reports, bisection, sweeps, audits.

``certify_at`` is the one producer of a case report: it decides the four
plain case systems at a rational t exactly from their integer row tables
(``systems.case_rows``) and re-verifies each certificate on the pair rows
of the same row formulas (``exactlp.verified``).  A report holds verdicts;
``CaseReport.systems`` builds its systems on access, for tests and library
callers.  A bisection over a bracket [lo, hi] runs over a verdict alone: a
probe decides the cases from their row tables and stops at its first
feasible case.  It relies on the monotonicity of feasibility in t (valid
for affine c-policies) and returns a CertifiedBound whose endpoint reports
hold all four cases with machine-checkable certificates: Farkas vectors at
t_lo, a witness at t_hi.  Reports and probes settle each case in one step
(``_settle``) on its full list of base rows: by the verdict (the five rows
an infeasible run ended on), else the basis, that last decided it, and by
one ``exactlp.pivot`` run only where neither holds, so every Farkas vector
comes from a verdict's weights (``exactlp.support_farkas``) and every
witness is a basis vertex.  A dichotomy decides its four base systems once
per t, as ``certify_at`` does, then each case over every branch
assignment: a plain-infeasible case carries its Farkas vector,
zero-padded on the branch rows, to every assignment, checked once, as
the zeros leave every assignment's check reading the same rows;
a plain-feasible case is settled per assignment, starting from the basis
its plain run ended at, or, with no functions, carries its plain result.
All four document kinds (certify, search, sweep, dichotomy) are built
here.  Certificate files are self-contained JSON documents that an
auditor re-verifies by substitution alone; each echoed system must equal
the expected one value for value.
Documents and the audit render each echo through one function, ``_echo``,
from the rows and meta ``_tables`` gives a case, so no command builds a
system.  Only an echo that differs from that rendering is parsed, and it
must render (``system_doc``) to that same canonical echo; every
certificate is then checked once, on the pair rows of the expected rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from . import __version__, exactlp
from .exactlp import (
    FeasibilityResult,
    LinearSystem,
    SELF_CHECK_FAILED,
    SystemError_,
    feasible_at,
    infeasible_on,
    support_farkas,
    verified,
    verify_pairs,
    # Unused here: bench/spans.py wraps these names in this module.
    check_feasibility,
    verify_certificate,
)
from .rationals import InputError, format_rational, parse_rational
from .systems import (
    ALL_CASES,
    BRANCH_ROWS,
    CASE_TABLES,
    CPolicy,
    DEFAULT_DICHOTOMY_FUNCTIONS,
    DEFAULT_POLICY,
    NONNEG_PAIRS,
    VARIABLES,
    CasePoint,
    JCase,
    SystemFormatError,
    TableRow,
    Variant,
    branch_strings,
    case_meta,
    case_pairs,
    case_point,
    case_rows,
    check_functions,
    row_entry,
    system_doc,
    system_from_doc,
    table_system,
    # Unused here: bench/spans.py wraps these five names in this module.
    build_all_cases,
    build_case_system,
    build_dichotomy_systems,
    parse_system_file,
    serialize_system,
)

TOOL_VERSION = f"bmbounds-{__version__}"

EXIT_CERTIFIED = 0
EXIT_NOT_CERTIFIED = 1
EXIT_INPUT_ERROR = 2


MAX_ITERS = 1000  # the most bisection steps one search takes, which bounds its work


class BracketError(InputError):
    """A bisection bracket precondition failed; the message names the end."""


class IterationsError(InputError):
    """A bisection asks for a negative number of steps or more than MAX_ITERS."""


@dataclass(frozen=True)
class CaseReport:
    """Feasibility verdicts for all four case systems at one t.

    Every report comes from ``_certify_at`` (a dichotomy assignment is one
    with branch rows added, and a search's end reports take certificates
    from the probes' verdicts and bases): it holds all four cases, in
    ``ALL_CASES`` order, each with a certificate verified against the pair
    rows of its system.  ``functions`` and ``branches`` name the dichotomy branch
    assignment (one "a"/"b" per function); a plain report has functions
    None and no branches.  A case's table rows are ``CASE_TABLES[case]``
    plus the ``BRANCH_ROWS[m, br]`` of each (m, br) in
    ``zip(functions, branches)`` (``_tables``).
    """

    t: Fraction
    c: Fraction
    policy: CPolicy
    variant: Variant
    results: dict[JCase, FeasibilityResult]
    functions: tuple[int, ...] | None = None
    branches: str = ""

    @property
    def all_infeasible(self) -> bool:
        return all(not r.feasible for r in self.results.values())

    @property
    def feasible_cases(self) -> tuple[JCase, ...]:
        return tuple(c for c, r in self.results.items() if r.feasible)

    @property
    def systems(self) -> dict[JCase, LinearSystem]:
        """The case systems, built on each access from the report's table
        rows, for tests and library callers; no command reads them."""
        point, metas = _metas(self.t, self.policy, self.variant)
        return {case: table_system(rows, [row.pairs(point, self.variant) for row in rows], meta)
                for case, (rows, meta) in _tables(metas, self.functions, self.branches).items()}


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


def certify_at(
    t: Fraction,
    policy: CPolicy = DEFAULT_POLICY,
    variant: Variant = Variant.SYMMETRIZED,
) -> CaseReport:
    """Decide all four case systems at t from their row tables.

    The one place a ``CaseReport`` is made.  Each case is settled on
    ``case_rows`` with nothing stored (``_certificate``), so by
    ``exactlp.pivot`` from the origin, and its certificate must pass
    ``verified`` on the case's pair rows (``case_pairs``), the rows
    ``verify-cert`` checks echoes on, as in ``check_feasibility``.  Both
    come from one formula per row, so a wrong certificate, or base rows
    that disagree with the pair rows, raise AssertionError here instead of
    writing a document.  No system is built.
    """
    return _certify_at(t, policy, variant, {})[0]


def _certify_at(t: Fraction, policy: CPolicy, variant: Variant,
                bases: dict) -> tuple[CaseReport, dict, dict]:
    """``certify_at``, and the pair rows and the base rows of each case
    system, by case.

    Each case is settled as a probe settles it (``_certificate``), with the
    verdicts and bases of ``bases``: those a bisection's probes keep
    (``_first_feasible``), or a fresh dict, which this fills with the
    verdict or basis that settles each case.  Every certificate passes
    ``verified`` alike.
    """
    t = Fraction(t)
    point = case_point(t, policy)
    results, pairs, rows = {}, {}, {}
    for case in ALL_CASES:
        pairs[case] = case_pairs(case, point, variant)
        rows[case] = case_rows(case, point, variant)
        results[case] = verified(VARIABLES, pairs[case], _certificate(bases, case, rows[case]))
    return CaseReport(t, Fraction(point[1], point[2]), policy, variant, results), pairs, rows


def _settle(bases: dict, key, rows: list[tuple]) -> tuple:
    """The one settle step of a case decision on its base rows: (y, vertex).

    (y, None) if the weights y of the five rows ``bases`` holds for ``key``
    prove ``rows`` infeasible (``infeasible_on``); else (None, vertex) if
    the vertex (xs, D) of the basis held satisfies them (``feasible_at``);
    both checks use Cramer's rule, on those five rows or the four basis
    rows.  Else ``exactlp.pivot`` decides the rows, starting with the basis
    held swapped in; the five rows or the basis it ends at must pass the
    same check (else AssertionError), replace the ones held for ``key`` and
    that verdict, and give the weights or the vertex that check returns."""
    y = infeasible_on(rows, bases.get((key, False)))
    if y:
        return y, None
    basis = bases.get((key, True))
    vertex = feasible_at(rows, basis)
    if vertex:
        return None, vertex
    feasible, found, _ = exactlp.pivot(rows, basis)
    checked = feasible_at(rows, found) if feasible else infeasible_on(rows, found)
    if not checked:
        raise AssertionError(SELF_CHECK_FAILED)
    bases[key, feasible] = found
    return (None, checked) if feasible else (checked, None)


def _certificate(bases: dict, key, rows: list[tuple]) -> FeasibilityResult:
    """The unverified certificate of ``rows`` that ``_settle`` gives: the
    Farkas vector (``support_farkas``) of the five rows held and their
    weights, or the basis vertex as the witness."""
    y, vertex = _settle(bases, key, rows)
    if y:
        return FeasibilityResult("infeasible", farkas=support_farkas(rows, bases[key, False], y))
    xs, D = vertex
    return FeasibilityResult("feasible", witness={v: Fraction(x, D) for v, x in zip(VARIABLES, xs)})


def _first_feasible(t: Fraction, policy: CPolicy, variant: Variant, order: Sequence[JCase],
                    bases: dict) -> JCase | None:
    """The first case in ``order`` whose base rows are feasible at t, or None
    if all four are infeasible; each case is decided by ``_settle``."""
    point = case_point(t, policy)
    for case in order:
        if _settle(bases, case, case_rows(case, point, variant))[1]:
            return case
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
    When lo is not all-infeasible, ``certify_at(lo)`` names every feasible
    case in the error.

    Probes are warm-started: one dict, kept across the probes, holds per
    case the last verdict and the last basis a pivot run ended at for it,
    which ``_settle`` tries on the case's base rows (``case_rows``) at the
    new t, in that order, before it runs ``exactlp.pivot`` from that
    basis.  Each check accepts a verdict only after exact integer
    substitution, so a verdict never depends on the bases or on the
    order, and neither does the trace.

    The two reports take their certificates from that dict
    (``_certify_at``): the report at t_hi reads it as the search leaves
    it, the report at t_lo a copy taken after the last all-infeasible
    probe, in which every case's verdict holds at t_lo, so it runs no
    pivot.  Their verdicts are those of ``certify_at``.
    """
    _check_iters(iters)
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise BracketError(
            f"inverted bracket: lo = {format_rational(lo)} must be below hi = {format_rational(hi)}"
        )
    bases: dict = {}
    if _first_feasible(lo, policy, variant, ALL_CASES, bases) is not None:
        raise BracketError(
            f"bracket end lo = {format_rational(lo)} is not all-infeasible (feasible: "
            f"{', '.join(c.value for c in certify_at(lo, policy, variant).feasible_cases)})"
        )
    lower = dict(bases)
    first = _first_feasible(hi, policy, variant, ALL_CASES, bases)
    if first is None:
        raise BracketError(f"bracket end hi = {format_rational(hi)} has no feasible case")
    trace = [(lo, True), (hi, False)]
    for _ in range(iters):
        mid = (lo + hi) / 2
        order = (first, *(c for c in ALL_CASES if c != first))
        found = _first_feasible(mid, policy, variant, order, bases)
        trace.append((mid, found is None))
        if found is None:
            lo, lower = mid, dict(bases)
        else:
            hi, first = mid, found
    return CertifiedBound(lo, hi, _certify_at(lo, policy, variant, lower)[0],
                          _certify_at(hi, policy, variant, bases)[0], tuple(trace), policy, variant)


def _repeated(policies: Sequence[CPolicy]) -> CPolicy | None:
    """The first policy that repeats an earlier one, if any."""
    seen: set[CPolicy] = set()
    for policy in policies:
        if policy in seen:
            return policy
        seen.add(policy)
    return None


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
        except ValueError as exc:  # a BracketError or a guard's DomainError
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
    """Decide all 2**b branch assignments; certified iff all infeasible.

    Each plain case system is decided once, as ``certify_at`` does, on a
    fresh dict of verdicts and bases; then each case is decided over every
    assignment, whose branch rows follow its base inequalities, before the
    nonneg rows.  Adding rows cannot make an infeasible system feasible, so
    every assignment of a plain-infeasible case carries one object: the
    plain Farkas vector with a zero on every branch row, checked once, on
    the first assignment's pair rows.  A check reads the vector's length and
    the rows of its nonzero entries only, and the zeros make both the same
    for every assignment.  Without functions the one assignment's rows are
    the plain ones, so it carries the plain result of every case, feasible
    or not, and makes no rows.  With functions, a plain-feasible case is
    settled per assignment as a probe is (``_certificate``), its first
    basis the one its plain run ended at, with the nonneg rows moved past
    the branch rows; an assignment whose vertex is the plain witness
    carries the plain result.  Each result must pass ``verified`` on the
    pair rows of its assignment system.  Raises FunctionsError, before any case is decided, unless the
    functions are distinct indices 0-2.
    """
    functions = check_functions(functions)
    plain_bases: dict = {}
    report, pairs, rows = _certify_at(t, policy, variant, plain_bases)
    point = case_point(report.t, policy)
    made = {key: (row.make(point), row.pairs(point)) for key, row in BRANCH_ROWS.items()
            if key[0] in functions}
    strings = branch_strings(len(functions))
    extras = [[made[key] for key in zip(functions, branches)] for branches in strings]
    columns = []
    for case, plain in report.results.items():
        cut = len(CASE_TABLES[case])
        checks = [pairs[case][:cut] + [pair for _, pair in extra] + pairs[case][cut:] for extra in extras]
        if not (plain.feasible and functions):
            carried = plain if plain.feasible else replace(
                plain, farkas=plain.farkas[:cut] + (Fraction(0),) * len(functions) + plain.farkas[cut:])
            columns.append([verified(VARIABLES, checks[0], carried)] * len(strings))
            continue
        base = rows[case]
        bases = {(case, True): [i + len(functions) * (i >= cut) for i in plain_bases[case, True]]}
        column = []
        for extra, check in zip(extras, checks):
            full = base[:cut] + [ints for ints, _ in extra] + base[cut:]
            result = _certificate(bases, case, full)
            column.append(verified(VARIABLES, check, plain if result.witness == plain.witness else result))
        columns.append(column)
    return DichotomyReport(report.t, policy, variant, functions, tuple(
        [replace(report, results=dict(zip(ALL_CASES, got)), functions=functions, branches=branches)
         for branches, got in zip(strings, zip(*columns))]))


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


def _metas(t: Fraction, policy: CPolicy, variant: Variant,
           cases: Sequence[JCase] = ALL_CASES) -> tuple[CasePoint, dict]:
    """The point of t and policy, and the ``case_meta`` of each case there."""
    point = case_point(t, policy)
    return point, {case: case_meta(case, t, point, policy, variant) for case in cases}


def _tables(metas: dict, functions: tuple[int, ...] | None, branches: str) -> dict:
    """Each case of ``metas`` with its table rows and echo meta: its
    ``CASE_TABLES`` rows, then the ``BRANCH_ROWS`` that ``zip(functions,
    branches)`` names, and its meta with ``branches`` first; plain
    (functions None), its table and meta alone."""
    if functions is None:
        return {case: (CASE_TABLES[case], meta) for case, meta in metas.items()}
    extra = tuple([BRANCH_ROWS[m, br] for m, br in zip(functions, branches)])
    return {case: (CASE_TABLES[case] + extra, {"branches": branches, **meta})
            for case, meta in metas.items()}


def _echo(made: dict, rows: Sequence[TableRow], meta: dict, point: CasePoint,
          variant: Variant) -> tuple[list, dict]:
    """The pair rows of ``rows`` at point and variant, and the canonical echo
    of their system with ``meta``, which documents write and ``verify-cert``
    expects.  ``made`` holds each table row's (pair row, entry) per (point,
    variant): a row several echoes share is made once, as one object."""
    memo = made.setdefault((point, variant), {})
    for row in rows:
        if row not in memo:
            pair = row.pairs(point, variant)
            memo[row] = pair, row_entry(row.label, pair)
    got = [memo[row] for row in rows]
    return [pair for pair, _ in got], {"variables": list(VARIABLES), "nonneg": list(VARIABLES),
                                       "inequalities": [entry for _, entry in got], "meta": meta}


def _case_entries(report: CaseReport, point: CasePoint, metas: dict, made: dict,
                  certs: dict) -> list[dict]:
    """The case entries of a report for the cases of ``metas`` (``_metas``).
    The assignments of a dichotomy document share ``metas``, ``made`` (see
    ``_echo``) and ``certs``, which maps each result object (by id) to its
    formatted fields: a row or certificate that several assignments share
    is formatted once and held as one object."""
    entries = []
    for case, (rows, meta) in _tables(metas, report.functions, report.branches).items():
        result = report.results[case]
        cert = certs.get(id(result))
        if cert is None:
            cert = certs[id(result)] = _result_json(result)
        entries.append({"case": case.value, **cert,
                        "system": _echo(made, rows, meta, point, report.variant)[1]})
    return entries


def _report_json(report: CaseReport, cases: Sequence[JCase] = ALL_CASES) -> dict:
    point, metas = _metas(report.t, report.policy, report.variant, cases)
    return {
        "t": format_rational(report.t),
        "c": format_rational(report.c),
        "cases": _case_entries(report, point, metas, {}, {}),
    }


def certify_report_doc(report: CaseReport, case: JCase | None = None) -> dict:
    """With ``case``, the document holds that case's entry alone, ``certified``
    covers that case only, and a last ``case`` field records it."""
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
    point, metas = _metas(report.t, report.policy, report.variant)
    made: dict = {}
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
            {"branches": a.branches, "cases": _case_entries(a, point, metas, made, certs)}
            for a in report.assignments
        ],
    }


class _Rejected(Exception):
    """A certificate or headline claim of a document does not hold (exit 1)."""


def _farkas_key(rows: Sequence[TableRow], size: int, farkas: Sequence, weights: Sequence) -> tuple:
    """What a check of ``farkas`` on ``size`` pair rows (the table rows ``rows``, then the
    nonneg rows) reads at a point and variant: both lengths, and each row with a nonzero
    multiplier (a table row, or a nonneg row's variable) with its entry of ``weights``.
    The audit's key alone (``_Echoes.verdict``); a dichotomy checks each padded vector
    once by construction."""
    return (size, len(farkas), *[(row, w) for row, w, x in zip((*rows, *VARIABLES), weights, farkas) if x])


class _Echoes:
    """What one audit has made, parsed and checked, each once.

    ``made`` is the memo of ``_echo``, ``numbers`` holds each certificate
    string parsed, and ``farkas`` the verdict of each Farkas check, keyed
    by the point, the variant and ``_farkas_key`` of the strings written.
    Every certificate of the audit is checked through ``verdict``, on the
    pair rows of its expected table rows, so a re-spelled echo shares the
    memo with the canonical ones.  Table rows are module constants, so no
    key outlives what it names."""

    def __init__(self) -> None:
        self.made: dict = {}
        self.numbers: dict = {}
        self.farkas: dict = {}

    def number(self, text) -> Fraction:
        value = self.numbers.get(text) if isinstance(text, str) else None
        if value is None:
            value = self.numbers[text] = parse_rational(text)
        return value

    def verdict(self, entry: dict, rows: Sequence[TableRow], pairs: list,
                point: CasePoint, variant: Variant) -> bool:
        """Whether the certificate of ``entry`` holds on the pair rows
        ``pairs`` of the table rows ``rows`` and the nonneg rows."""
        status = entry["status"]
        if status == "feasible":
            witness = entry["witness"]
            if not isinstance(witness, dict):
                raise SystemFormatError(f"witness must be an object, got {type(witness).__name__}")
            return verify_pairs(VARIABLES, pairs, FeasibilityResult(
                "feasible", witness={v: self.number(s) for v, s in witness.items()}))
        if status != "infeasible":
            raise SystemFormatError(f"unknown status {status!r}")
        farkas = entry["farkas"]
        if not isinstance(farkas, list):  # a string or an object would be read item by item
            raise SystemFormatError(f"farkas must be a list, got {type(farkas).__name__}")
        result = FeasibilityResult("infeasible", farkas=tuple([self.number(s) for s in farkas]))
        key = point, variant, _farkas_key(rows, len(pairs), result.farkas, farkas)
        verdict = self.farkas.get(key)
        if verdict is None:
            verdict = self.farkas[key] = verify_pairs(VARIABLES, pairs, result)
        return verdict


def _check_cases(entries: list, expected: dict, point: CasePoint, variant: Variant, where: str,
                 echoes: _Echoes) -> None:
    """Re-verify case entries by substitution alone; raise _Rejected on the first failure.

    ``expected`` maps each case, in order, to its table rows and echo meta
    (``_tables``); the entries must name exactly those cases.  Each entry's
    certificate is checked against its echoed system, which must equal the
    system those rows give at the point and variant value for value
    (variables, labelled rows, nonneg set, metadata); a rational may be
    written in any p/q form.  An echo that differs from the canonical one
    (``_echo``, which documents are written with) is parsed and must render
    (``system_doc``, one-to-one) to it, else the entry is rejected; an echo
    that passes has the value of the rows' pair rows, so every certificate
    is checked on those (``_Echoes.verdict``), whatever its echo's spelling.
    No solver is invoked.
    """
    cases = [JCase(entry["case"]) for entry in entries]
    if cases != list(expected):
        raise _Rejected(f"{where}cases [{', '.join(c.value for c in cases)}] are not the expected"
                        f" [{', '.join(c.value for c in expected)}]")
    for entry, (case, (rows, meta)) in zip(entries, expected.items()):
        pairs, canonical = _echo(echoes.made, rows, meta, point, variant)
        echo = entry["system"]
        if not ((echo == canonical or system_doc(system_from_doc(echo)) == canonical)
                and echoes.verdict(entry, rows, pairs + NONNEG_PAIRS, point, variant)):
            raise _Rejected(f"{where}case {case.value} failed re-verification")


def _check_report(rep: dict, policy: CPolicy, variant: Variant, echoes: _Echoes,
                  cases: Sequence[JCase] = ALL_CASES) -> None:
    """Check one certify-style report: its c at its t, then its case entries."""
    t = parse_rational(rep["t"])
    where = f"t={rep['t']}: "
    if parse_rational(rep["c"]) != policy.c_at(t):
        raise _Rejected(f"{where}c = {rep['c']} is not c(t) = {format_rational(policy.c_at(t))}")
    point, metas = _metas(t, policy, variant, cases)
    _check_cases(rep["cases"], _tables(metas, None, ""), point, variant, where, echoes)


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
    if not (len(probes) >= 2 and probes[0][1] and not probes[1][1]):
        raise _Rejected("trace does not open with the bracket ends (lo all-infeasible, hi not)")
    lo, hi = probes[0][0], probes[1][0]
    for t, all_infeasible in probes[2:]:
        if t != (lo + hi) / 2:
            raise _Rejected(f"trace probe t={format_rational(t)} is not the midpoint of"
                            f" [{format_rational(lo)}, {format_rational(hi)}]")
        if all_infeasible:
            lo = t
        else:
            hi = t
    if (lo, hi) != (t_lo, t_hi):
        raise _Rejected(f"trace ends at [{format_rational(lo)}, {format_rational(hi)}],"
                        " not at [t_lo, t_hi]")


def _all_infeasible(rep: dict) -> bool:
    return all(e["status"] == "infeasible" for e in rep["cases"])


def _check_sweep(doc: dict, variant: Variant) -> None:
    """Check every ranked entry's embedded search document and bind the entry to it.

    Each entry's ``policy``, ``t_lo`` and ``t_hi`` must be those of its
    search document, which must have the sweep's variant, bisect ``iters``
    times and open with the same bracket ends as the others; the entries
    must be ranked by ``(-t_lo, (p, q, r))``.  Skipped entries claim
    nothing, but no policy may appear twice among the entries of
    ``results`` and ``skipped``, as a sweep searches each policy once.
    """
    iters = doc["iters"]
    if type(iters) is not int or not 0 <= iters <= MAX_ITERS:
        raise SystemFormatError(f"iters must be an integer in 0..{MAX_ITERS}, got {iters!r}")
    repeated = _repeated([CPolicy.parse(entry["policy"])
                          for entry in doc["results"] + doc["skipped"]])
    if repeated:
        raise _Rejected(f"policy {repeated.key()} appears more than once in results and skipped")
    keys, brackets = [], set()
    for entry in doc["results"]:
        search = entry["search"]
        where = f"policy {entry['policy']}: "
        if not (search["kind"] == "search" and Variant(search["variant"]) is variant):
            raise _Rejected(f"{where}the embedded document is not a {variant.value} search")
        _check_doc(search)
        policy = CPolicy.parse(entry["policy"])
        t_lo = parse_rational(entry["t_lo"])
        if not (policy == CPolicy.parse(search["policy"]) and t_lo == parse_rational(search["t_lo"])
                and parse_rational(entry["t_hi"]) == parse_rational(search["t_hi"])):
            raise _Rejected(f"{where}policy, t_lo or t_hi differs from its search document")
        trace = search["trace"]
        if len(trace) != iters + 2:
            raise _Rejected(f"{where}the search does not bisect {iters} times")
        brackets.add((parse_rational(trace[0]["t"]), parse_rational(trace[1]["t"])))
        keys.append((-t_lo, (policy.p, policy.q, policy.r)))
    if len(brackets) > 1:
        raise _Rejected("the searches do not share one bracket")
    if keys != sorted(keys):
        raise _Rejected("results are not ranked by t_lo, then (p, q, r)")


def _check_doc(doc: dict) -> None:
    """Re-verify every part of a document and bind its headline claims to them."""
    if not isinstance(doc, dict):
        raise SystemFormatError("top-level value must be an object")
    if not isinstance(doc["tool_version"], str):
        raise SystemFormatError(f"tool_version must be a string, got {type(doc['tool_version']).__name__}")
    kind = doc["kind"]
    variant = Variant(doc["variant"])
    if kind == "sweep":
        _check_sweep(doc, variant)
        return
    policy = CPolicy.parse(doc["policy"])
    echoes = _Echoes()
    if kind == "certify":
        # A document written by ``certify --case X`` records X and holds that case only.
        _check_report(doc, policy, variant, echoes,
                      (JCase(doc["case"]),) if "case" in doc else ALL_CASES)
        if doc["certified"] is not _all_infeasible(doc):
            raise _Rejected("certified flag contradicts case statuses")
    elif kind == "search":
        lower, upper = doc["lower_report"], doc["upper_report"]
        _check_report(lower, policy, variant, echoes)
        _check_report(upper, policy, variant, echoes)
        if not _all_infeasible(lower):
            raise _Rejected(f"report at t={lower['t']} is not all-infeasible")
        if _all_infeasible(upper):
            raise _Rejected(f"report at t={upper['t']} has no feasible case")
        t_lo, t_hi = parse_rational(doc["t_lo"]), parse_rational(doc["t_hi"])
        if not (t_lo == parse_rational(lower["t"]) and t_hi == parse_rational(upper["t"])):
            raise _Rejected("t_lo and t_hi are not the t of lower_report and upper_report")
        if not t_lo < t_hi:
            raise _Rejected("t_lo is not below t_hi")
        _check_trace(doc["trace"], t_lo, t_hi)
    elif kind == "dichotomy":
        t = parse_rational(doc["t"])
        # Distinct indices 0-2 (exit 2 otherwise), checked before 2**len(functions)
        # is computed: at most 8 assignments are built.
        functions = check_functions(doc["functions"])
        assignments = doc["assignments"]
        if not (len(assignments) == 2 ** len(functions)
                and all(a["branches"] == b
                        for a, b in zip(assignments, branch_strings(len(functions))))):
            raise _Rejected(f"assignments are not the {2 ** len(functions)} branch combinations"
                            f" of functions {list(functions)} in order")
        point, metas = _metas(t, policy, variant)
        for assignment in assignments:
            branches = assignment["branches"]
            _check_cases(assignment["cases"], _tables(metas, functions, branches), point, variant,
                         f"branches {branches}: ", echoes)
        if doc["certified"] is not all(_all_infeasible(a) for a in assignments):
            raise _Rejected("certified flag contradicts assignment statuses")
    else:
        raise SystemFormatError(f"unknown certificate kind {kind!r}")


def verify_certificate_text(text: str) -> tuple[int, str]:
    """Audit a certificate document; returns (exit code, message).

    0: every embedded certificate re-verifies and the headline claims
    (``certified``, ``t_lo``/``t_hi`` and the search trace, ``c``, the
    cases and branch assignments present, a sweep's ranking) follow from
    them; 1: some certificate or claim does not hold; 2: the document
    cannot be parsed or is malformed.
    """
    try:
        _check_doc(json.loads(text))
    except _Rejected as exc:
        return EXIT_NOT_CERTIFIED, str(exc)
    except KeyError as exc:
        return EXIT_INPUT_ERROR, f"malformed certificate: missing field {exc}"
    except RecursionError:  # JSON nested deeper than the parser's recursion limit
        return EXIT_INPUT_ERROR, "malformed certificate: JSON nested too deeply"
    except (TypeError, AttributeError, ValueError, SystemError_) as exc:
        return EXIT_INPUT_ERROR, f"malformed certificate: {exc}"
    return EXIT_CERTIFIED, "all certificates verified"


def verify_cert_file(path: str) -> tuple[int, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return EXIT_INPUT_ERROR, f"cannot read {path}: {exc}"
    except UnicodeDecodeError as exc:
        return EXIT_INPUT_ERROR, f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
    return verify_certificate_text(text)
