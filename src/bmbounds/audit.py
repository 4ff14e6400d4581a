"""The audit behind ``verify-cert``: documents re-verified by substitution alone.

A certify, search, sweep or dichotomy document (written by ``certify``) is
self-contained JSON.  Each echoed system must equal the expected one, its
canonical echo (``systems.case_echoes``), value for value: only an echo
that differs from it is parsed, and it must render (``system_doc``) to it,
which alone loads the ``reference`` layer.  Every certificate is then
checked once on the pair rows of the expected system
(``exactlp.verify_pairs``), and each headline claim is bound to the parts
checked.  No solver is invoked: ``tests/test_audit.py`` checks that this
module imports neither ``certify`` nor a decision procedure, and that
every kind of document is judged alike with the solver made to raise.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

from .exactlp import FeasibilityResult, SystemError_, verify_pairs
from .rationals import format_rational, parse_rational
from .systems import (ALL_CASES, EXIT_CERTIFIED, EXIT_INPUT_ERROR, EXIT_NOT_CERTIFIED, MAX_ITERS, VARIABLES,
                      CPolicy, JCase, SystemFormatError, Variant, _repeated, branch_strings, case_echoes,
                      case_metas, check_functions)


class _Rejected(Exception):
    """A certificate or headline claim of a document does not hold (exit 1)."""


class _Echoes:
    """What one audit has made, parsed and checked, each once.

    ``made`` is the memo of ``case_echoes``, ``numbers`` holds each
    certificate string parsed, and ``farkas`` the verdict of each Farkas
    check, keyed by what ``verify_pairs`` reads of it: both lengths, and
    each pair row whose multiplier is nonzero with that multiplier as
    written.  Every certificate of the audit is checked through
    ``verdict``, on the pair rows of its expected system, so a re-spelled
    echo shares the memo with the canonical ones, and a key names the rows
    themselves, so no check on other rows can match it."""

    def __init__(self) -> None:
        self.made: dict = {}
        self.numbers: dict = {}
        self.farkas: dict = {}

    def number(self, text) -> Fraction:
        value = self.numbers.get(text) if isinstance(text, str) else None
        if value is None:
            value = self.numbers[text] = parse_rational(text)
        return value

    def verdict(self, entry: dict, pairs: list) -> bool:
        """Whether the certificate of ``entry`` holds on the pair rows ``pairs``."""
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
        key = (len(pairs), len(farkas),
               *[(pair, w) for pair, w, x in zip(pairs, farkas, result.farkas) if x])
        verdict = self.farkas.get(key)
        if verdict is None:
            verdict = self.farkas[key] = verify_pairs(VARIABLES, pairs, result)
        return verdict


def _check_cases(entries: list, expected: dict, where: str, echoes: _Echoes) -> None:
    """Re-verify case entries by substitution alone; raise _Rejected on the first failure.

    ``expected`` maps each case, in order, to the pair rows and the
    canonical echo of its system (``case_echoes``, which documents are
    written with); the entries must name exactly those cases.  Each entry's
    certificate is checked against its echoed system, which must equal that
    system value for value (variables, labelled rows, nonneg set,
    metadata); a rational may be written in any p/q form.  An echo that
    differs from the canonical one is parsed and must render
    (``system_doc``, one-to-one) to it, else the entry is rejected; an echo
    that passes has the value of those pair rows, so every certificate is
    checked on them (``_Echoes.verdict``), whatever its echo's spelling.
    No solver is invoked (``tests/test_audit.py``).
    """
    cases = [JCase(entry["case"]) for entry in entries]
    if cases != list(expected):
        raise _Rejected(f"{where}cases [{', '.join(c.value for c in cases)}] are not the expected"
                        f" [{', '.join(c.value for c in expected)}]")
    for entry, (case, (pairs, canonical)) in zip(entries, expected.items()):
        echo = entry["system"]
        if not ((echo == canonical or _renders_to(echo, canonical)) and echoes.verdict(entry, pairs)):
            raise _Rejected(f"{where}case {case.value} failed re-verification")


def _renders_to(echo, canonical: dict) -> bool:
    """Whether an echo that differs parses and renders to ``canonical``; it loads ``reference``."""
    from .systems import system_doc, system_from_doc

    return system_doc(system_from_doc(echo)) == canonical


def _check_report(rep: dict, policy: CPolicy, variant: Variant, echoes: _Echoes,
                  cases: Sequence[JCase] = ALL_CASES) -> None:
    """Check one certify-style report: its c at its t, then its case entries."""
    t = parse_rational(rep["t"])
    where = f"t={rep['t']}: "
    if parse_rational(rep["c"]) != policy.c_at(t):
        raise _Rejected(f"{where}c = {rep['c']} is not c(t) = {format_rational(policy.c_at(t))}")
    point, metas = case_metas(t, policy, variant, cases)
    _check_cases(rep["cases"], case_echoes(echoes.made, point, metas, variant), where, echoes)


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
        lo, hi = (t, hi) if all_infeasible else (lo, t)
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
        parts, holds = "case", _all_infeasible(doc)
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
        return
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
        point, metas = case_metas(t, policy, variant)
        for assignment in assignments:
            branches = assignment["branches"]
            _check_cases(assignment["cases"], case_echoes(echoes.made, point, metas, variant, functions,
                                                          branches), f"branches {branches}: ", echoes)
        parts, holds = "assignment", all(_all_infeasible(a) for a in assignments)
    else:
        raise SystemFormatError(f"unknown certificate kind {kind!r}")
    if not isinstance(doc["certified"], bool):
        raise SystemFormatError(f"certified flag {doc['certified']!r} is not a boolean")
    if doc["certified"] is not holds:
        raise _Rejected(f"certified flag contradicts {parts} statuses")


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
