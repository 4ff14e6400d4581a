"""Mutation check: every seeded mutant of ``src/bmbounds`` must fail the tests named for it.

Run from anywhere, with pytest and hypothesis installed::

    python tests/mutants.py          # every mutant
    python tests/mutants.py NAME...  # the named mutants only

A mutant replaces one snippet of one module with another; the snippet must
occur exactly once in that module, else the runner stops before running
anything, so a mutant cannot go stale silently.  Each mutant is applied to
its own copy of ``src/`` in a temporary directory, and pytest runs the
test node ids named for it on that copy, in one subprocess at a time.  A
mutant is killed when every one of its node ids fails (a parametrized test
named without its parameters fails when any of its cases does); one that
survives is reported and the runner exits 1.  Before any mutant, the
union of the node ids must pass on an unmutated copy.

pytest reads ``pythonpath = ["src"]`` from ``pyproject.toml`` and would put
the repository's own ``src`` first on ``sys.path``; the runner overrides
it with the copy's ``src`` and loads a plugin that stops the session
unless ``bmbounds`` was imported from the copy.  Nothing is written into
the repository: pytest runs with its cache provider off, from the
temporary directory, where hypothesis keeps its example database, and
bytecode goes to a cache there (``PYTHONPYCACHEPREFIX``).  The cache saves
recompiling and rewriting the test modules for each mutant; each copy of
``src/`` has a path of its own, so no mutant reads another's bytecode.
This file is not named ``test_*.py``, so the test suite does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 120  # seconds a mutant's test run may take

EX = "tests/test_exactlp.py::"
CE = "tests/test_certify.py::"
UP = "tests/test_upperiso.py::"
FEASIBLE_AT = EX + "test_feasible_at_rules[{}]"
INFEASIBLE_ON = EX + "test_infeasible_on_rules[{}]"
ENTERING, LEAVING = EX + "test_pivot_rules[entering]", EX + "test_pivot_rules[leaving]"
AGREEMENT = EX + "test_width4_body_agrees_with_the_generic_body"
REFERENCE = EX + "test_integer_verifier_agrees_with_fraction_reference"
VERIFY = EX + "TestVerifyCertificate::"

FEASIBLE_AT_HEAD = "    if not basis or len(basis) != 4:\n"
FEASIBLE_AT_WIDTH = ("    if len(a) != 4:\n        return None\n"
                     "    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = a, b, c, d\n")
FEASIBLE_AT_ROWS = "    for (r0, r1, r2, r3), num, den, _, _ in rows:\n"
INFEASIBLE_ON_HEAD = "    if not verdict or len(verdict) != 5:\n"
FOUR_BODY_ENTERING = "        for r, ((a0, a1, a2, a3), num, den, _, _) in enumerate(rows):\n"
FOUR_BODY_LEAVING = "            if m > 0 and (k < 0 or b < basis[k]):\n"
GENERIC_ENTERING = "        r = next((r for r, (a, row) in enumerate(zip(scaled, rows))\n"
GENERIC_LEAVING = "        k = min(leaving, key=basis.__getitem__)\n"
CARRY = "farkas=with_branches(plain.farkas, (Fraction(0),) * len(functions)))\n"
HEADLINE = CE + "TestHeadlineClaims::"
TRACE = HEADLINE + "test_forged_search_trace[{}]"
BOUNDARY = ["tests/test_audit.py::test_audit_imports_no_solver",
            "tests/test_audit.py::test_audit_runs_with_the_solver_raising"]
COLD_START = ["tests/test_startup.py::test_lower_bound_commands_load_no_audit_reference_or_dataclasses"]
SEARCH = CE + "TestBinarySearch::"
ROWS_ONCE = SEARCH + "test_rows_are_made_once_per_point"
GUARDS = "tests/test_systems.py::TestCaseRowTables::test_integer_guards_"
VERDICT_CHECK = "    y = infeasible_on(rows_at(verdict), verdict) if verdict else None\n"
MINORS = ("    return [bc * DE - bd * CE + be * CD + cd * BE - ce * BD + de * BC,\n"
          "            -(ac * DE - ad * CE + ae * CD + cd * AE - ce * AD + de * AC),\n"
          "            ab * DE - ad * BE + ae * BD + bd * AE - be * AD + de * AB,\n"
          "            -(ab * CE - ac * BE + ae * BC + bc * AE - be * AC + ce * AB),\n"
          "            ab * CD - ac * BD + ad * BC + bc * AD - bd * AC + cd * AB]\n")

MEMO_KEY = "               *[(pair, w) for pair, w, x in zip(pairs, farkas, result.farkas) if x])\n"
SWEEP_BINDING = ("        if not (policy == CPolicy.parse(search[\"policy\"]) and t_lo == parse_rational(search[\"t_lo\"])\n"
                 "                and parse_rational(entry[\"t_hi\"]) == parse_rational(search[\"t_hi\"])):\n")
FIELDS = "tests/test_audit.py::test_certificate_fields_off_the_status_are_malformed[{}-{}]"


def _fields(edit: str) -> list[str]:
    """The field-rule test's node ids for one edit, one per document kind."""
    return [FIELDS.format(kind, edit) for kind in ("certify", "search", "sweep", "dichotomy")]


# (name, module, snippet, replacement, node ids expected to fail)
MUTANTS = [
    # ``feasible_at``: one rule dropped at a time.
    ("feasible_at: no basis accepted", "exactlp.py", FEASIBLE_AT_HEAD,
     "    if len(basis) != 4:\n", [FEASIBLE_AT.format("no basis")]),
    ("feasible_at: no length rule", "exactlp.py", FEASIBLE_AT_HEAD,
     "    if not basis:\n", [FEASIBLE_AT.format("three rows"), FEASIBLE_AT.format("five rows")]),
    ("feasible_at: no width rule", "exactlp.py", FEASIBLE_AT_WIDTH,
     FEASIBLE_AT_WIDTH.split("\n", 2)[2], [FEASIBLE_AT.format("three variables")]),
    ("feasible_at: singular basis accepted", "exactlp.py",
     "    if not z[4]:\n        return None\n", "", [FEASIBLE_AT.format("singular")]),
    ("feasible_at: D not made positive", "exactlp.py",
     "    x0, x1, x2, x3, D = z if z[4] > 0 else [-x for x in z]\n",
     "    x0, x1, x2, x3, D = z\n", [FEASIBLE_AT.format("accepted")]),
    ("feasible_at: den left out of the kernel columns", "exactlp.py",
     "    z = _signed_minors([[ad * a0, bd * b0, cd * c0, dd * d0], [ad * a1, bd * b1, cd * c1, dd * d1],\n"
     "                        [ad * a2, bd * b2, cd * c2, dd * d2], [ad * a3, bd * b3, cd * c3, dd * d3],\n",
     "    z = _signed_minors([[a0, b0, c0, d0], [a1, b1, c1, d1],\n"
     "                        [a2, b2, c2, d2], [a3, b3, c3, d3],\n", [FEASIBLE_AT.format("accepted")]),
    ("feasible_at: nonneg rows skipped", "exactlp.py", FEASIBLE_AT_ROWS,
     FEASIBLE_AT_ROWS.replace("in rows:", "in rows[:-4]:"), [FEASIBLE_AT.format("violates a nonneg row")]),
    ("feasible_at: table rows skipped", "exactlp.py", FEASIBLE_AT_ROWS,
     FEASIBLE_AT_ROWS.replace("in rows:", "in rows[-4:]:"), [FEASIBLE_AT.format("violates a table row")]),
    ("feasible_at: den left out of the substitution", "exactlp.py",
     "        if den * (r0 * x0 + r1 * x1 + r2 * x2 + r3 * x3) > num * D:\n",
     "        if (r0 * x0 + r1 * x1 + r2 * x2 + r3 * x3) > num * D:\n",
     [FEASIBLE_AT.format("violates a table row")]),
    # ``infeasible_on``: one rule dropped at a time.
    ("infeasible_on: no verdict accepted", "exactlp.py", INFEASIBLE_ON_HEAD,
     "    if len(verdict) != 5:\n", [INFEASIBLE_ON.format("no verdict")]),
    ("infeasible_on: no length rule", "exactlp.py", INFEASIBLE_ON_HEAD,
     "    if not verdict:\n", [INFEASIBLE_ON.format("four rows"), INFEASIBLE_ON.format("six rows")]),
    ("infeasible_on: no width rule", "exactlp.py",
     "    if len(a) != 4:\n        return None\n    y = _signed_minors([a, b, c, d, e])\n",
     "    y = _signed_minors([a, b, c, d, e])\n", [INFEASIBLE_ON.format("five rows over three variables")]),
    ("infeasible_on: no sign rule", "exactlp.py",
     "    if min(y) < 0 < max(y):\n        return None\n", "", [INFEASIBLE_ON.format("mixed sign")]),
    ("infeasible_on: negative kernel not negated", "exactlp.py",
     "    if min(y) < 0:\n        y = [-x for x in y]\n", "", [INFEASIBLE_ON.format("negative minors")]),
    ("infeasible_on: no cancellation check", "exactlp.py",
     "    if (ya * a0 + yb * b0", "    if False and (ya * a0 + yb * b0",
     [EX + "test_infeasible_on_rejects_a_kernel_that_does_not_cancel"]),
    ("infeasible_on: denominators dropped from the rhs", "exactlp.py",
     "    rhs = (ya * an * (L // ad) + yb * bn * (L // bd) + yc * cn * (L // cd)\n"
     "           + yd * dn * (L // dd) + ye * en * (L // ed))\n",
     "    rhs = ya * an + yb * bn + yc * cn + yd * dn + ye * en\n",
     [INFEASIBLE_ON.format("lcm of the denominators")]),
    ("infeasible_on: zero rhs accepted", "exactlp.py",
     "    return y if rhs < 0 else None\n", "    return y if rhs <= 0 else None\n",
     [INFEASIBLE_ON.format("zero rhs"), INFEASIBLE_ON.format("rank below 4")]),
    # ``pivot``: each body's entering and leaving rules; the generic body lives in ``reference``.
    ("pivot, width-4 body: last violated row enters", "exactlp.py", FOUR_BODY_ENTERING,
     FOUR_BODY_ENTERING.replace("enumerate(rows)", "reversed(list(enumerate(rows)))"),
     [ENTERING, AGREEMENT]),
    ("pivot, generic body: last violated row enters", "reference.py", GENERIC_ENTERING,
     GENERIC_ENTERING.replace("enumerate(zip(scaled, rows))", "reversed(list(enumerate(zip(scaled, rows))))"),
     [ENTERING, AGREEMENT]),
    ("pivot, width-4 body: highest-index row leaves", "exactlp.py", FOUR_BODY_LEAVING,
     FOUR_BODY_LEAVING.replace("b < basis[k]", "b > basis[k]"), [ENTERING, LEAVING, AGREEMENT]),
    ("pivot, generic body: highest-index row leaves", "reference.py", GENERIC_LEAVING,
     GENERIC_LEAVING.replace("min(", "max("), [ENTERING, LEAVING, AGREEMENT]),
    ("pivot, width-4 body: leaving row by position", "exactlp.py", FOUR_BODY_LEAVING,
     "            if m > 0 and k < 0:\n", [LEAVING, AGREEMENT]),
    ("pivot, generic body: leaving row by position", "reference.py", GENERIC_LEAVING,
     "        k = leaving[0]\n", [LEAVING, AGREEMENT]),
    # ``verify_pairs``: one rule of the certificate check dropped at a time.
    ("verify_pairs: negative multipliers accepted", "exactlp.py",
     "        if any(x.numerator < 0 for x in lam):\n            return False\n", "",
     [VERIFY + "test_negative_multipliers_cannot_refute_a_feasible_system"]),
    ("verify_pairs: zero rhs accepted", "exactlp.py",
     " and _lcm_sum(rhs) < 0\n", " and _lcm_sum(rhs) <= 0\n", [VERIFY + "test_zero_combination_false"]),
    ("verify_pairs: >= multiplier not negated", "exactlp.py",
     "            if relation == GE:\n                mult = -mult\n", "",
     [VERIFY + "test_farkas_true", REFERENCE]),
    ("verify_pairs: every witness row read as <=", "exactlp.py",
     "            if not (lhs <= bound if relation == LE else lhs >= bound):\n",
     "            if not lhs <= bound:\n", [REFERENCE]),
    # The dichotomy's carry of a plain-infeasible case, and its per-case dict.
    ("carry: zeros after the nonneg entries", "certify.py", CARRY,
     "farkas=plain.farkas + (Fraction(0),) * len(functions))\n",
     [CE + "TestPlainCaseReuse::test_verdicts_and_padded_vectors",
      "tests/test_golden.py::test_structured_output_is_byte_identical[dichotomy --t 113/32 --format structured]"]),
    ("carry: carried vector not checked", "certify.py",
     "            columns.append([verified(VARIABLES, echoes[0][case][0], carried)] * len(strings))\n",
     "            columns.append([carried] * len(strings))\n",
     [CE + "TestWarmAssignments::test_padded_vectors_are_checked_once"]),
    ("assignments: a fresh dict per assignment", "certify.py",
     "            bases, case, lambda _, got=with_branches(rows, extra): got))",
     "            {}, case, lambda _, got=with_branches(rows, extra): got))",
     [CE + "TestWarmAssignments::test_fm_runs", CE + "TestWarmAssignments::test_assignments_are_settled_as_probes_are"]),
    ("assignments: each checked on the first one's echo", "certify.py",
     "        columns.append([verified(VARIABLES, echo[case][0], _certificate(\n",
     "        columns.append([verified(VARIABLES, echoes[0][case][0], _certificate(\n",
     [SEARCH + "test_document_rows_are_made_once[dichotomy-4-19]",
      "tests/test_golden.py::test_structured_output_is_byte_identical[dichotomy --t 4 --format structured]"]),
    # Rows made once per bisection point, where a settle step reads them.
    ("rows: a row key ignores its formula's arguments", "systems.py", "        self.key = formula, args\n",
     "        self.key = formula, ()\n",
     ["tests/test_systems.py::TestCaseRowTables::test_rows_that_share_a_key_share_their_rows",
      SEARCH + "test_warm_probes_cannot_change_a_deep_search"]),
    ("rows: a row key names its label, so no row is shared", "systems.py", "        self.key = formula, args\n",
     "        self.key = label, args\n", [ROWS_ONCE]),
    ("probes: one row memo shared across points", "certify.py", "        at = {}, {}\n",
     "        at = lower[0], {}\n", [SEARCH + "test_warm_probes_cannot_change_a_deep_search", ROWS_ONCE]),
    ("lower report: weights of the probe at t_hi", "certify.py",
     "_certify_at(lo, policy, variant, {}, *lower)", "_certify_at(lo, policy, variant, {}, lower[0], upper[1])",
     [SEARCH + "test_lower_report_certificates_are_supports", ROWS_ONCE]),
    ("dichotomy: a case's rows made again for its assignments", "certify.py",
     "        rows = case_rows(case, point, variant, memo)\n", "        rows = case_rows(case, point, variant)\n",
     [CE + "TestWarmAssignments::test_base_rows_are_made_once"]),
    ("documents: a report's echoes made again", "certify.py", "    echoes = report.echoes or case_echoes(",
     "    echoes = case_echoes(", [SEARCH + "test_document_rows_are_made_once"]),
    ("settle: a stored verdict accepted unchecked", "certify.py", VERDICT_CHECK,
     "    y = [1] * len(verdict) if verdict else None\n",
     [SEARCH + "test_probe_sequence", SEARCH + "test_warm_probes_cannot_change_a_deep_search"]),
    ("settle: the verdict check makes every row", "certify.py", VERDICT_CHECK,
     VERDICT_CHECK.replace("rows_at(verdict)", "rows_at(None)"), [ROWS_ONCE]),
    ("search: the lo end decided before --iters is checked", "certify.py",
     "    _check_iters(iters)\n    lo, hi = Fraction(lo), Fraction(hi)\n",
     "    lo, hi = Fraction(lo), Fraction(hi)\n    _first_feasible(lo, policy, variant, ALL_CASES, {}, {}, {})\n"
     "    _check_iters(iters)\n", ["tests/test_cli.py::TestSearchCommand::test_iters_bounded_before_any_decision[search]"]),
    ("case_point: c = 1 admitted", "systems.py", "    if not (R < C and T <= 2 * C <= 2 * T):\n",
     "    if not (R <= C and T <= 2 * C <= 2 * T):\n",
     [GUARDS + "fail_as_guards_do", GUARDS + "pass_where_guards_do"]),
    ("_signed_minors: every minor negated", "exactlp.py", MINORS,
     MINORS.replace("    return [", "    return [-x for x in [", 1).replace("AB]\n", "AB]]\n"),
     [EX + "test_signed_minors_are_the_cofactor_expansion"]),
    ("_signed_minors: a floor division in one minor", "exactlp.py", "    cd, ce, de = c0 * d1 - d0 * c1,",
     "    cd, ce, de = (c0 * d1 - d0 * c1) // 1,", [EX + "test_signed_minors_are_the_cofactor_expansion[Fraction]"]),
    ("support_farkas: no gcd reduction", "exactlp.py", "    g = math.gcd(*ints)\n", "    g = 1\n",
     [EX + "test_pivot_agrees_over_the_fm_corpus",
      "tests/test_golden.py::test_structured_output_is_byte_identical[search --lo 3 --hi 5 --iters 20 --format structured]"]),
    # ``upperiso``: the lanes' signs, shift and first rows, and the optimizer's tie rule.
    ("upperiso: entry signs read at 7/2", "upperiso.py", "    y = _shift(_shift(c, 3)[::-1], 1)\n",
     "    y = [sum(x * 7 ** (len(c) - 1 - k) * 2 ** k for k, x in enumerate(c))]\n",
     [UP + "TestCompiledTables::test_a_sign_changing_entry_doubles_its_row"]),
    ("upperiso: a lane kept under its last row", "upperiso.py", "            lanes.setdefault(lane, row_id)\n",
     "            lanes[lane] = row_id\n", [UP + "TestOptimizer::test_report_is_exact_at_t_star",
                                        UP + "TestCompiledTables::test_lane_row_ids"]),
    ("upperiso: Taylor shift one step short", "upperiso.py", "    for stop in range(len(c) - 1, 0, -1):\n",
     "    for stop in range(len(c) - 1, 1, -1):\n", [UP + "TestCompiledTables::test_shift_is_the_taylor_shift"]),
    ("optimizer: a tie keeps the right side", "upperiso.py", "            if other_num * den <= num * other_den:\n",
     "            if other_num * den < num * other_den:\n", [UP + "TestOptimizer::test_a_tie_keeps_the_left_side"]),
    # The audit: one rule that binds a headline claim dropped at a time, and the solver reached.
    ("audit, trace: no midpoint rule", "audit.py",
     "        if t != (lo + hi) / 2:\n", "        if False:\n", [TRACE.format("edited-midpoint")]),
    ("audit, trace: no bracket-end rule", "audit.py",
     "    if not (len(probes) >= 2 and probes[0][1] and not probes[1][1]):\n", "    if len(probes) < 2:\n",
     [TRACE.format("flipped-lo-end"), TRACE.format("flipped-hi-end")]),
    ("audit, trace: end not matched", "audit.py", "    if (lo, hi) != (t_lo, t_hi):\n", "    if False:\n",
     [TRACE.format("dropped-last-probe")]),
    ("audit, certify: certified not bound", "audit.py", '        parts, holds = "case", _all_infeasible(doc)\n',
     '        parts, holds = "case", doc["certified"]\n', [HEADLINE + "test_forged_certify_fields[certified]"]),
    ("audit, dichotomy: certified not bound", "audit.py",
     '        parts, holds = "assignment", all(_all_infeasible(a) for a in assignments)\n',
     '        parts, holds = "assignment", doc["certified"]\n', [HEADLINE + "test_forged_dichotomy_fields[certified]"]),
    ("audit: non-boolean certified accepted", "audit.py", "    if not isinstance(doc[\"certified\"], bool):\n",
     "    if False:\n", [HEADLINE + "test_non_boolean_certified_is_malformed"]),
    ("audit, search: lower report not all-infeasible", "audit.py", "        if not _all_infeasible(lower):\n",
     "        if False:\n", [HEADLINE + "test_forged_search_end_report[lower-report-at-4]"]),
    ("audit, search: upper report without a feasible case", "audit.py", "        if _all_infeasible(upper):\n",
     "        if False:\n", [HEADLINE + "test_forged_search_end_report[upper-report-at-7/2]"]),
    ("audit: c not checked at t", "audit.py", '    if parse_rational(rep["c"]) != policy.c_at(t):\n',
     "    if False:\n", [HEADLINE + "test_forged_certify_fields[c]", HEADLINE + "test_forged_search_fields[report-c]"]),
    ("audit, sweep: ranking not checked", "audit.py", "    if keys != sorted(keys):\n", "    if False:\n",
     [CE + "TestSweep::test_forged_sweep_doc[reversed]", CE + "TestSweep::test_forged_sweep_doc[swapped]"]),
    ("audit, sweep: brackets not compared", "audit.py", "    if len(brackets) > 1:\n", "    if False:\n",
     [CE + "TestSweep::test_forged_sweep_bracket"]),
    ("audit: Farkas memo keyed without the written multipliers", "audit.py", MEMO_KEY,
     MEMO_KEY.replace("(pair, w) for", "(pair, None) for"), [CE + "TestAuditWork::test_check_memo_is_sound"]),
    ("audit: an echo that differs accepted unrendered", "audit.py", "or _renders_to(echo, canonical)", "or True",
     [CE + "TestAuditWork::test_tampered_copy_of_a_shared_row", CE + "TestEchoComparison::test_verdict"]),
    ("audit, sweep: bisection count not checked", "audit.py", "        if len(trace) != iters + 2:\n",
     "        if False:\n", [CE + "TestSweep::test_forged_sweep_doc[iters]"]),
    ("audit, sweep: entries not bound to their searches", "audit.py", SWEEP_BINDING, "        if False:\n",
     [CE + "TestSweep::test_forged_sweep_doc[t_hi]", CE + "TestSweep::test_forged_sweep_doc[policy]",
      "tests/test_audit.py::test_sweep_entry_t_lo_is_bound_to_its_search"]),
    ("audit: a certificate field off the entry's status accepted", "audit.py", "        if other in entry:\n",
     "        if False:\n", _fields("farkas-on-feasible") + _fields("witness-on-infeasible")),
    ("audit: a witness variable outside VARIABLES accepted", "audit.py",
     "            if unknown := set(witness).difference(VARIABLES):\n", "            if False:\n",
     _fields("unknown-variable")),
    ("audit: exactlp.pivot called", "audit.py",
     "    cases = [JCase(entry[\"case\"]) for entry in entries]\n",
     "    from . import exactlp\n    exactlp.pivot(exactlp.NONNEG_ROWS)\n    cases = [JCase(entry[\"case\"]) for entry in entries]\n",
     BOUNDARY),
    # Cold start: what a lower-bound command loads.
    ("cold start: systems forwards dunders to reference", "systems.py",
     '                    "serialize_system", "system_doc", "system_from_doc"):',
     '                    "serialize_system", "system_doc", "system_from_doc") and name[:2] != "__":',
     COLD_START),
    ("cold start: certify imports audit at the top", "certify.py", 'TOOL_VERSION = f"bmbounds-{__version__}"\n',
     'from .audit import verify_cert_file  # noqa: F401\nTOOL_VERSION = f"bmbounds-{__version__}"\n', COLD_START),
    ("cold start: cli imports audit at the top", "cli.py", "from .certify import (\n",
     "from .audit import verify_cert_file  # noqa: F401\nfrom .certify import (\n", COLD_START),
]

GUARD = '''import os

import pytest


def pytest_sessionstart(session):
    import bmbounds

    if not bmbounds.__file__.startswith(os.environ["MUTANT_SRC"] + os.sep):
        raise pytest.UsageError(f"bmbounds was imported from {bmbounds.__file__}, not the copy")
'''


def _copy(work: Path, name: str) -> Path:
    """A fresh copy of ``src/`` at ``work/name``; returns the copy's ``src``."""
    src = work / name / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _run(work: Path, src: Path, node_ids: list[str]) -> tuple[int, set[str], str]:
    """pytest on ``node_ids`` against the copy at ``src``: (exit code, failed
    node ids, output tail)."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(work / "pycache"), MUTANT_SRC=str(src),
               PYTHONPATH=os.pathsep.join([str(src), str(work)]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # it would switch the bytecode cache off
    args = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", "-p", "mutant_guard",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT), "-o", f"pythonpath={src}",
            *[str(ROOT / node) for node in node_ids]]
    try:
        done = subprocess.run(args, cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return -1, set(), f"timed out after {TIMEOUT} s"
    failed = set()
    for line in done.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):  # the path part is relative to ``work``
            path, sep, name = line.split(" ", 1)[1].split(" - ", 1)[0].partition("::")
            failed.add(Path(os.path.relpath(work / path, ROOT)).as_posix() + sep + name)
    return done.returncode, failed, "\n".join((done.stdout + done.stderr).splitlines()[-5:])


def _killed(node: str, failed: set[str]) -> bool:
    return node in failed or any(f.startswith(node + "[") for f in failed)


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    for name, module, old, new, _ in chosen:
        count = (ROOT / "src" / "bmbounds" / module).read_text(encoding="utf-8").count(old)
        if count != 1:
            print(f"{name}: its snippet occurs {count} times in {module}, not once")
            return 2
    with tempfile.TemporaryDirectory(prefix="bmbounds-mutants-") as tmp:
        work = Path(tmp)
        (work / "mutant_guard.py").write_text(GUARD, encoding="utf-8")
        union = sorted({node for *_, nodes in chosen for node in nodes})
        code, failed, tail = _run(work, _copy(work, "unmutated"), union)
        if code != 0:
            print(f"the unmutated copy fails (exit {code}):\n{tail}")
            return 2
        survivors = []
        for index, (name, module, old, new, nodes) in enumerate(chosen):
            src = _copy(work, f"mutant-{index}")
            path = src / "bmbounds" / module
            path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
            start = time.perf_counter()
            code, failed, tail = _run(work, src, nodes)
            alive = [node for node in nodes if not _killed(node, failed)]
            verdict = "killed" if code == 1 and not alive else "SURVIVED"
            print(f"{verdict:8} {time.perf_counter() - start:5.1f} s  {name}")
            if verdict != "killed":
                survivors.append(name)
                print(f"         exit {code}; not failed: {alive}\n{tail}")
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
