import functools
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmbounds.certify import (
    EXIT_CERTIFIED,
    EXIT_INPUT_ERROR,
    EXIT_NOT_CERTIFIED,
    BracketError,
    CaseReport,
    CertifiedBound,
    IterationsError,
    binary_search_bound,
    certify_at,
    certify_dichotomy,
    certify_report_doc,
    dichotomy_report_doc,
    search_report_doc,
    sweep_policies,
    sweep_report_doc,
    verify_certificate_text,
)
from bmbounds.exactlp import check_feasibility, verify_certificate
from bmbounds.rationals import InputError, format_rational, parse_rational
from bmbounds.systems import (
    ALL_CASES,
    CPolicy,
    DEFAULT_POLICY,
    FunctionsError,
    JCase,
    Variant,
    build_all_cases,
    build_case_system,
    build_dichotomy_systems,
)
from crosscheck import simplex_feasibility

F = Fraction


def _assignment_systems(report) -> list[dict]:
    """The case systems of each assignment of a dichotomy report, by case, as
    ``build_dichotomy_systems`` builds them."""
    return [dict(zip(ALL_CASES, systems)) for _, systems in
            build_dichotomy_systems(report.t, report.policy, report.functions, report.variant)]


POLICIES = [CPolicy(1, 0, 2), CPolicy(1, 1, 2), CPolicy(2, 1, 4)]
# Policies whose guards hold at both ends of the bracket [3, 5], hence on all of it.
GUARDED_POLICIES = [policy for policy in itertools.starmap(
                        CPolicy, itertools.product(range(0, 5), range(-3, 5), range(1, 9)))
                    if all(1 < policy.c_at(t) and t / 2 <= policy.c_at(t) <= t for t in (3, 5))]


@pytest.fixture
def fm_runs(monkeypatch):
    """The rows of every ``exactlp.pivot`` run, from tables and systems alike.

    The name is kept from when every such run was a Fourier-Motzkin
    elimination; the pins below keep their elimination counts in comments."""
    import bmbounds.exactlp as exactlp

    runs = []
    run = exactlp.pivot

    def counting(rows):
        runs.append(rows)
        return run(rows)

    monkeypatch.setattr(exactlp, "pivot", counting)
    return runs


class TestCertifyAt:
    def test_all_infeasible_at_3(self):
        report = certify_at(F(3))
        assert report.all_infeasible
        for case in ALL_CASES:
            assert report.results[case].farkas is not None

    def test_feasible_at_5(self):
        report = certify_at(F(5))
        assert not report.all_infeasible
        assert len(report.feasible_cases) >= 1

    @pytest.mark.parametrize("variant", [Variant.PRINTED, Variant.SYMMETRIZED])
    def test_all_infeasible_at_113_32(self, variant):
        report = certify_at(F(113, 32), DEFAULT_POLICY, variant)
        assert report.all_infeasible

    def test_certificates_verify(self):
        report = certify_at(F(113, 32))
        for case, system in build_all_cases(F(113, 32)).items():
            assert verify_certificate(system, report.results[case])

    def test_guard_propagates(self):
        from bmbounds.systems import DomainError

        with pytest.raises(DomainError):
            certify_at(F(1))


def _without_certificates(doc):
    """A document with the ``farkas`` and ``witness`` of every case entry left out."""
    if isinstance(doc, dict):
        return {k: _without_certificates(v) for k, v in doc.items() if k not in ("farkas", "witness")}
    if isinstance(doc, list):
        return [_without_certificates(v) for v in doc]
    return doc


def assert_same_search(bound, reference):
    """The search document of ``bound`` is that of ``reference`` in every field
    but the certificate entries, which the end reports take from the probes'
    supports and bases, and it passes ``verify-cert``."""
    doc = search_report_doc(bound)
    assert _without_certificates(doc) == _without_certificates(search_report_doc(reference))
    assert verify_certificate_text(json.dumps(doc)) == (EXIT_CERTIFIED, "all certificates verified")


class TestBinarySearch:
    def test_reproduces_113_32(self):
        bound = binary_search_bound(F(3), F(5), 6)
        assert bound.t_lo == F(113, 32)
        assert bound.t_hi == F(57, 16)
        assert float(bound.t_lo) == 3.53125

    def test_probe_sequence(self):
        bound = binary_search_bound(F(3), F(5), 6)
        probes = [(t, ok) for t, ok in bound.trace[2:]]  # skip endpoint entries
        assert probes == [
            (F(4), False),
            (F(7, 2), True),
            (F(15, 4), False),
            (F(29, 8), False),
            (F(57, 16), False),
            (F(113, 32), True),
        ]

    def test_zero_iters_keeps_bracket(self):
        bound = binary_search_bound(F(3), F(5), 0)
        assert (bound.t_lo, bound.t_hi) == (F(3), F(5))
        # The report at hi holds all four cases, although the check at hi
        # stopped at its first feasible case.  That case's stored basis gives
        # the vertex its pivot run ended at, and the other cases, feasible at
        # 5 with no basis stored, each take one pivot run from the origin, as
        # certify_at(hi) does: it equals certify_at(hi).
        assert list(bound.report_hi.results) == list(ALL_CASES)
        assert bound.report_hi.results == certify_at(F(5)).results
        assert bound.report_hi == certify_at(F(5))

    def test_both_variants_reach_113_32(self):
        """The headline bound reproduces under either reading of the 8d row."""
        for variant in (Variant.PRINTED, Variant.SYMMETRIZED):
            bound = binary_search_bound(F(3), F(5), 6, DEFAULT_POLICY, variant)
            assert bound.t_lo == F(113, 32), variant

    def test_inverted_bracket(self):
        with pytest.raises(BracketError, match="inverted"):
            binary_search_bound(F(5), F(3), 4)

    def test_lo_not_certified_reports_end(self):
        with pytest.raises(BracketError, match="lo = 4"):
            binary_search_bound(F(4), F(5), 2)

    @pytest.mark.parametrize("lo, feasible", [
        (F(57, 16), "not0, in01not2"),
        (F(4), ", ".join(case.value for case in ALL_CASES)),
    ])
    def test_lo_error_names_every_feasible_case(self, lo, feasible):
        """The lo check stops at its first feasible case; the error still
        names every case feasible at lo."""
        message = (f"bracket end lo = {format_rational(lo)} is not all-infeasible"
                   f" (feasible: {feasible})")
        with pytest.raises(BracketError) as excinfo:
            binary_search_bound(lo, F(5), 1)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("iters, message", [
        (-3, "--iters -3 is negative"),
        (1001, "--iters 1001 exceeds the limit of 1000"),
    ])
    def test_iters_out_of_range(self, fm_runs, iters, message):
        with pytest.raises(IterationsError) as excinfo:
            binary_search_bound(F(3), F(5), iters)
        assert str(excinfo.value) == message
        with pytest.raises(IterationsError):
            sweep_policies([CPolicy(2, 1, 4)], F(3), F(5), iters)
        assert fm_runs == []

    def test_hi_without_feasible_case_reports_end(self):
        with pytest.raises(BracketError, match="hi = 27/8"):
            binary_search_bound(F(3), F(27, 8), 2)

    @pytest.mark.parametrize("iters", [1, 2, 3, 5, 8])
    def test_bisection_width_exact(self, iters):
        bound = binary_search_bound(F(3), F(5), iters)
        assert bound.t_hi - bound.t_lo == F(2) / 2**iters

    def test_endpoint_reports_consistent(self):
        bound = binary_search_bound(F(3), F(5), 4)
        assert bound.report_lo.all_infeasible
        assert not bound.report_hi.all_infeasible

    @pytest.mark.parametrize("policy, iters, calls", [
        # 21 and 62 when every probe ran FM; 32 and 88 when every probe decided
        # all four cases; 75 at 20 iterations when every probe began at j012.
        # 16 at 6 iterations when the t_hi = 57/16 report reused the probe's
        # not0 FM run; 17 and 18 when both reports ran FM on all four cases.
        # They then settled a case by a stored support or basis where one
        # held: 10 and 10 FM runs, one of them in the t_hi report at 6
        # iterations.  Each such run is now a pivot run, which may end at
        # another basis or support than elimination's: 12 and 12.
        (CPolicy(2, 1, 4), 6, 12),
        (DEFAULT_POLICY, 20, 12),
    ])
    def test_probes_stop_at_first_feasible_case(self, fm_runs, policy, iters, calls):
        bound = binary_search_bound(F(3), F(5), iters, policy)
        assert len(fm_runs) == calls
        for report in (bound.report_lo, bound.report_hi):
            assert list(report.results) == list(ALL_CASES)

    @pytest.mark.parametrize("policy", [CPolicy(2, 1, 4), CPolicy(3, 1, 5), CPolicy(1, 1, 2),
                                        CPolicy(1, 0, 2), CPolicy(2, 0, 3)], ids=CPolicy.key)
    def test_probe_order_cannot_change_a_search(self, policy):
        """Probes try the last feasible case first; the document is the one a
        bisection that decides every case in ``ALL_CASES`` order writes, but
        for its certificate entries."""
        lo, hi = F(3), F(5)
        report_lo, report_hi = certify_at(lo, policy), certify_at(hi, policy)
        trace = [(lo, True), (hi, False)]
        for _ in range(12):
            mid = (lo + hi) / 2
            report = certify_at(mid, policy)
            trace.append((mid, report.all_infeasible))
            if report.all_infeasible:
                lo, report_lo = mid, report
            else:
                hi, report_hi = mid, report
        reference = CertifiedBound(lo, hi, report_lo, report_hi, tuple(trace), policy,
                                   Variant.SYMMETRIZED)
        bound = binary_search_bound(F(3), F(5), 12, policy)
        assert_same_search(bound, reference)
        for report in (bound.report_lo, bound.report_hi):
            assert list(report.results) == list(ALL_CASES)

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    @pytest.mark.parametrize("policy", [CPolicy(2, 1, 4), CPolicy(3, 1, 5), CPolicy(1, 1, 2),
                                        CPolicy(1, 0, 2), CPolicy(2, 0, 3)], ids=CPolicy.key)
    def test_warm_probes_cannot_change_a_deep_search(self, fm_runs, policy, variant):
        """At 20 iterations most probes are decided by re-solving an earlier
        basis, without a pivot run; the document is still the one a
        bisection writes that calls ``certify_at`` at every probe, but for
        its certificate entries."""
        lo, hi = F(3), F(5)
        report_lo, report_hi = certify_at(lo, policy, variant), certify_at(hi, policy, variant)
        trace = [(lo, True), (hi, False)]
        for _ in range(20):
            mid = (lo + hi) / 2
            report = certify_at(mid, policy, variant)
            trace.append((mid, report.all_infeasible))
            if report.all_infeasible:
                lo, report_lo = mid, report
            else:
                hi, report_hi = mid, report
        reference = CertifiedBound(lo, hi, report_lo, report_hi, tuple(trace), policy, variant)
        del fm_runs[:]
        bound = binary_search_bound(F(3), F(5), 20, policy, variant)
        assert len(fm_runs) < len(trace)  # fewer pivot runs than probes
        assert_same_search(bound, reference)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(GUARDED_POLICIES), st.integers(0, 8), st.sampled_from(list(Variant)),
           st.sampled_from(list(itertools.combinations(
               [F(3), F(13, 4), F(7, 2), F(15, 4), F(4), F(5)], 2))))
    def test_search_equals_reference_bisection(self, policy, iters, variant, bracket):
        """The search document is the one a bisection writes that builds every
        case system at every probe and decides it with ``check_feasibility``,
        but for its certificate entries; where that bisection finds the
        bracket invalid, the search raises."""
        def report(t):
            return CaseReport(t, policy.c_at(t), policy, variant,
                              {case: check_feasibility(build_case_system(case, t, policy, variant))
                               for case in ALL_CASES})

        lo, hi = bracket
        report_lo, report_hi = report(lo), report(hi)
        if not report_lo.all_infeasible or report_hi.all_infeasible:
            with pytest.raises(BracketError):
                binary_search_bound(lo, hi, iters, policy, variant)
            return
        trace = [(lo, True), (hi, False)]
        for _ in range(iters):
            mid = (lo + hi) / 2
            report_mid = report(mid)
            trace.append((mid, report_mid.all_infeasible))
            if report_mid.all_infeasible:
                lo, report_lo = mid, report_mid
            else:
                hi, report_hi = mid, report_mid
        reference = CertifiedBound(lo, hi, report_lo, report_hi, tuple(trace), policy, variant)
        bound = binary_search_bound(*bracket, iters, policy, variant)
        assert_same_search(bound, reference)

    @pytest.mark.parametrize("wrong", ["origin basis", "first row alone"])
    def test_no_wrong_elimination_result_is_accepted(self, monkeypatch, wrong):
        """Should ``exactlp.pivot`` return a wrong basis or support, no probe
        verdict and no report is made from it: the search and both reports
        raise."""
        import bmbounds.exactlp as exactlp

        def run(rows):
            if wrong == "origin basis":  # the nonneg rows, last in every case's rows
                return True, list(range(len(rows) - 4, len(rows))), ([0] * 4, 1)
            # The first row and the four nonneg rows, no certificate: their kernel
            # weighs the first row, whose rhs is >= 0, and nonneg rows of rhs 0.
            return False, [0, *range(len(rows) - 4, len(rows))], [1, 0, 0, 0, 0]

        monkeypatch.setattr(exactlp, "pivot", run)
        for run in (lambda: binary_search_bound(F(3), F(5), 4),
                    lambda: certify_at(F(3)), lambda: certify_at(F(5))):
            with pytest.raises(AssertionError, match="failed verification"):
                run()

    @pytest.mark.parametrize("wrong", ["support", "vertex"])
    def test_no_wrong_warm_certificate_is_accepted(self, monkeypatch, wrong):
        """Should a warm checker accept with a wrong support weight or vertex,
        the probe verdicts stay the same, but the report made from it fails
        ``verified`` and the search raises."""
        import bmbounds.certify as certify_mod

        name = "infeasible_on" if wrong == "support" else "feasible_at"
        check = getattr(certify_mod, name)

        def lying(rows, basis):
            got = check(rows, basis)
            if got is None:
                return None
            if wrong == "support":  # one weight raised: the directions no longer cancel
                return [got[0] + 1, *got[1:]]
            xs, D = got  # th0 = -1 breaks its nonneg row
            return [-D, *xs[1:]], D

        monkeypatch.setattr(certify_mod, name, lying)
        with pytest.raises(AssertionError, match="failed verification") as excinfo:
            binary_search_bound(F(3), F(5), 20)
        assert excinfo.traceback[-1].name == "verified"

    def test_end_reports_run_no_elimination(self, monkeypatch, fm_runs):
        """At 20 iterations the probes' supports and bases settle every case
        of both reports: all 12 pivot runs of the search are in its probes
        (10 when they were FM runs)."""
        import bmbounds.certify as certify_mod

        report, runs = certify_mod._certify_at, []

        def counting(*args):
            start = len(fm_runs)
            out = report(*args)
            runs.append(len(fm_runs) - start)
            return out

        monkeypatch.setattr(certify_mod, "_certify_at", counting)
        binary_search_bound(F(3), F(5), 20)
        assert runs == [0, 0]
        assert len(fm_runs) == 12

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_lower_report_certificates_are_supports(self, monkeypatch, fm_runs, variant):
        """For every guarded policy, the report at t_lo runs no pivot:
        each Farkas vector is a support's, with at most n + 1 = 5 nonzero
        entries, all integers, and the document passes ``verify-cert``."""
        import bmbounds.certify as certify_mod

        report, lower_runs = certify_mod._certify_at, []

        def counting(*args):
            start = len(fm_runs)
            out = report(*args)
            if not out[0].feasible_cases:
                lower_runs.append(len(fm_runs) - start)
            return out

        monkeypatch.setattr(certify_mod, "_certify_at", counting)
        searched = 0
        for policy in GUARDED_POLICIES:
            try:
                bound = binary_search_bound(F(3), F(5), 10, policy, variant)
            except BracketError:
                continue
            searched += 1
            for result in bound.report_lo.results.values():
                nonzero = [x for x in result.farkas if x]
                assert len(nonzero) <= 5 and all(x.denominator == 1 for x in nonzero)
            doc = json.dumps(search_report_doc(bound))
            assert verify_certificate_text(doc) == (EXIT_CERTIFIED, "all certificates verified")
        assert lower_runs == [0] * searched and searched >= 40

    def test_probes_build_only_the_cases_they_decide(self, monkeypatch, fm_runs):
        """Probes decide from the row tables, and so do the two reports of
        the result: no system is built.  Their certificates hold on the case
        systems."""
        import bmbounds.certify as certify_mod
        import bmbounds.reference as reference_mod
        import bmbounds.systems as systems_mod

        built = []

        def building(*args, **kwargs):
            built.append(args)
            return build_case_system(*args, **kwargs)

        for module in (certify_mod, systems_mod, reference_mod):
            monkeypatch.setattr(module, "build_case_system", building)
        bound = binary_search_bound(F(3), F(5), 6, CPolicy(2, 1, 4))
        # 21 when every probe ran FM; 16 when the t_hi = 57/16 report reused
        # the probe's not0 FM run; 17 when both reports ran FM on every case;
        # 10 FM runs before each became a pivot run.
        assert len(fm_runs) == 12
        # 8 when the two reports built their systems, 21 when each FM run
        # built its system, 32 when every probe built all four.
        assert len(built) == 0
        for report in (bound.report_lo, bound.report_hi):
            assert list(report.results) == list(ALL_CASES)
            for case in ALL_CASES:
                assert verify_certificate(build_case_system(case, report.t, CPolicy(2, 1, 4)),
                                          report.results[case])

    def test_warm_infeasible_verdicts_run_no_elimination(self, monkeypatch, fm_runs):
        """A probe verdict its stored Farkas support settles runs no
        pivot: the weights of its n + 1 = 5 rows, re-solved on them, prove
        the case's full row list infeasible."""
        import bmbounds.certify as certify_mod
        from bmbounds.systems import CASE_TABLES, VARIABLES

        settle, first = certify_mod._settle, certify_mod._first_feasible
        settled, probing = [], []

        def recording(bases, key, rows):
            verdict, runs = bases.get((key, False)), len(fm_runs)
            y, _ = out = settle(bases, key, rows)
            if y and probing and len(fm_runs) == runs:  # not a support a pivot run ended at
                assert bases[key, False] is verdict and len(y) == len(verdict) == len(VARIABLES) + 1
                assert len(rows(verdict)) == len(CASE_TABLES[key]) + 4
                settled.append(key)
            return out

        def probe(*args):
            probing.append(args)
            found = first(*args)
            probing.pop()
            return found

        monkeypatch.setattr(certify_mod, "_settle", recording)
        monkeypatch.setattr(certify_mod, "_first_feasible", probe)
        binary_search_bound(F(3), F(5), 20)
        # 18 when both reports ran FM on every case, 10 FM runs before each
        # became a pivot run.
        assert len(fm_runs) == 12
        assert len(settled) == 41  # 43 with elimination's supports

    def test_elimination_supports_are_checked_once(self, monkeypatch):
        """A support a pivot run ends at is checked once, by ``infeasible_on``
        in ``_settle``, which hands its weights on."""
        import bmbounds.certify as certify_mod
        import bmbounds.exactlp as exactlp

        checks, check = [], exactlp.infeasible_on
        for module in (certify_mod, exactlp):
            monkeypatch.setattr(module, "infeasible_on",
                                lambda *args: checks.append(args) or check(*args))
        binary_search_bound(F(3), F(5), 20)
        # 75 when each of 3 such supports was checked twice, 72 with
        # elimination's supports; 74 while the t_lo report checked each
        # verdict again and a case with no verdict got a check of None.
        assert len(checks) == 66

    def test_a_report_writes_its_own_echoes(self):
        """Each report keeps the echoes it was verified on
        (``CaseReport.echoes``): a report of another point put into a bound
        writes its own echoes, which are not the search's, and a hand-built
        report, echoes None, writes the document ``certify_at``'s does."""
        bound = binary_search_bound(F(3), F(5), 6)
        moved = bound._replace(report_lo=certify_at(F(3)))
        lower = search_report_doc(moved)["lower_report"]
        assert lower["cases"] == certify_report_doc(certify_at(F(3)))["cases"]
        assert lower != search_report_doc(bound)["lower_report"]
        for t, case in itertools.product((F(3), F(113, 32), F(5)), (None, *ALL_CASES)):
            report = certify_at(t)
            bare = CaseReport(*report[:-1])
            assert report.echoes is not None and bare.echoes is None
            assert json.dumps(certify_report_doc(bare, case)) == json.dumps(certify_report_doc(report, case))
        report = certify_dichotomy(F(4), functions=(0, 2))
        bare = report._replace(assignments=tuple(a._replace(echoes=None) for a in report.assignments))
        assert json.dumps(dichotomy_report_doc(bare)) == json.dumps(dichotomy_report_doc(report))

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    @pytest.mark.parametrize("policy", [CPolicy(2, 1, 4), CPolicy(3, 1, 5), CPolicy(1, 1, 2),
                                        CPolicy(1, 0, 2), CPolicy(2, 0, 3)], ids=CPolicy.key)
    def test_rows_are_made_once_per_point(self, monkeypatch, fm_runs, policy, variant):
        """Over a 20-iteration search and its document, calls of
        ``TableRow.make`` and ``TableRow.pairs`` grouped by point: no base
        row and no pair row is made twice at one point, rows of one formula
        sharing one; a probe that its stored verdicts settle alone makes
        only those verdicts' table rows; and the report at t_lo makes no
        base row and runs no ``infeasible_on``, since its Farkas vectors
        come from the weights its probe's checks returned."""
        import bmbounds.certify as certify_mod
        import bmbounds.systems as systems_mod
        from bmbounds.systems import CASE_TABLES

        made, paired, checks, probes, reports = [], [], [], [], []
        make, pairs, check = systems_mod.TableRow.make, systems_mod.TableRow.pairs, certify_mod.infeasible_on
        first, report = certify_mod._first_feasible, certify_mod._certify_at

        def formula(row):  # what a row's values depend on at a point, read from the row itself
            return row.formula.func, row.formula.args

        def making(row, point, *args):
            made.append((point, formula(row)))
            return make(row, point, *args)

        def pairing(row, point, *args):
            paired.append((point, formula(row), row.relation, tuple(row.keys)))
            return pairs(row, point, *args)

        def probe(t, policy, variant, order, bases, *memos):
            verdicts = {case: bases.get((case, False)) for case in ALL_CASES}
            start, runs = len(made), len(fm_runs)
            found = first(t, policy, variant, order, bases, *memos)
            if found is None and len(fm_runs) == runs:  # every case settled by its stored verdict
                probes.append((verdicts, made[start:]))
            return found

        def reporting(t, *args):
            start, before = len(made), len(checks)
            out = report(t, *args)
            reports.append((t, made[start:], len(checks) - before))
            return out

        monkeypatch.setattr(systems_mod.TableRow, "make", making)
        monkeypatch.setattr(systems_mod.TableRow, "pairs", pairing)
        monkeypatch.setattr(certify_mod, "infeasible_on", lambda *args: checks.append(args) or check(*args))
        monkeypatch.setattr(certify_mod, "_first_feasible", probe)
        monkeypatch.setattr(certify_mod, "_certify_at", reporting)
        bound = binary_search_bound(F(3), F(5), 20, policy, variant)
        search_report_doc(bound)
        assert len(set(made)) == len(made) and len(set(paired)) == len(paired)
        assert probes
        for verdicts, got in probes:
            keys = [key for _, key in got]
            assert len(set(keys)) == len(keys)
            assert set(keys) == {formula(CASE_TABLES[case][i]) for case, verdict in verdicts.items()
                                 for i in verdict if i < len(CASE_TABLES[case])}
        assert [(made_lo, checks_lo) for t, made_lo, checks_lo in reports if t == bound.t_lo] == [([], 0)]

    # 26 and 38 at 113/32, 38 at 4, while the producer checked a report on
    # pair rows of its own and its document's echoes made them again.
    @pytest.mark.parametrize("kind, t, calls", [("certify", F(113, 32), 13), ("dichotomy", F(113, 32), 19),
                                                ("dichotomy", F(4), 19)], ids=str)
    def test_document_rows_are_made_once(self, monkeypatch, kind, t, calls):
        """A certify or dichotomy document makes each pair row once at its
        point, rows of one formula sharing one: the report is checked on
        its echoes' pair rows and its document writes those echoes."""
        import bmbounds.systems as systems_mod

        paired, pairs = [], systems_mod.TableRow.pairs

        def pairing(row, point, *args):
            paired.append((point, row.formula.func, row.formula.args, row.relation, tuple(row.keys)))
            return pairs(row, point, *args)

        monkeypatch.setattr(systems_mod.TableRow, "pairs", pairing)
        if kind == "certify":
            doc = certify_report_doc(certify_at(t))
        else:
            doc = dichotomy_report_doc(certify_dichotomy(t))
        assert len(set(paired)) == len(paired) == calls
        assert verify_certificate_text(json.dumps(doc)) == (EXIT_CERTIFIED, "all certificates verified")


class TestSweep:
    def test_best_policy_is_2_1_4(self):
        ranked, skipped = sweep_policies(POLICIES, F(3), F(5), 8)
        assert not skipped
        assert ranked[0][0] == CPolicy(2, 1, 4)
        best = ranked[0][1].t_lo
        assert all(best > bound.t_lo for _, bound in ranked[1:])

    def test_singleton_default_policy(self):
        ranked, _ = sweep_policies([CPolicy(2, 1, 4)], F(3), F(5), 6)
        assert ranked[0][1].t_lo == F(113, 32)

    def test_other_policies_strictly_below(self):
        ranked, _ = sweep_policies(POLICIES, F(3), F(5), 6)
        by_policy = {pol: bound.t_lo for pol, bound in ranked}
        assert by_policy[CPolicy(1, 0, 2)] < F(113, 32)
        assert by_policy[CPolicy(1, 1, 2)] < F(113, 32)

    def test_invalid_policy_skipped(self):
        # c(t) = 3t violates c <= t everywhere
        ranked, skipped = sweep_policies([CPolicy(3, 0, 1), CPolicy(2, 1, 4)], F(3), F(5), 4)
        assert len(ranked) == 1 and ranked[0][0] == CPolicy(2, 1, 4)
        assert len(skipped) == 1 and skipped[0][0] == CPolicy(3, 0, 1)


    def test_report_doc(self):
        ranked, skipped = sweep_policies([CPolicy(3, 0, 1), CPolicy(2, 1, 4)], F(3), F(5), 4)
        doc = sweep_report_doc(ranked, skipped, Variant.SYMMETRIZED, 4)
        assert {k: doc[k] for k in ("kind", "variant", "iters")} == {
            "kind": "sweep", "variant": "symmetrized", "iters": 4}
        assert doc["results"] == [{"policy": "2,1,4", "t_lo": format_rational(ranked[0][1].t_lo),
                                   "t_hi": format_rational(ranked[0][1].t_hi),
                                   "search": search_report_doc(ranked[0][1])}]
        assert doc["skipped"] == [{"policy": "3,0,1", "reason": skipped[0][1]}]

    def test_report_doc_rejects_other_variant(self):
        ranked, skipped = sweep_policies([CPolicy(2, 1, 4)], F(3), F(5), 2)
        with pytest.raises(ValueError, match="searched in the symmetrized variant"):
            sweep_report_doc(ranked, skipped, Variant.PRINTED, 2)

    @pytest.fixture(scope="class")
    def sweep_doc(self):
        ranked, skipped = sweep_policies(POLICIES + [CPolicy(3, 0, 1)], F(3), F(5), 3)
        return sweep_report_doc(ranked, skipped, Variant.SYMMETRIZED, 3)

    def test_sweep_doc_verifies(self, sweep_doc):
        assert [r["policy"] for r in sweep_doc["results"]] == ["2,1,4", "1,0,2", "1,1,2"]
        assert [s["policy"] for s in sweep_doc["skipped"]] == ["3,0,1"]
        assert verify_certificate_text(json.dumps(sweep_doc)) == (EXIT_CERTIFIED,
                                                                  "all certificates verified")

    @pytest.mark.parametrize("forge", [
        lambda d: d["results"][1].update(t_lo="7/2"),
        lambda d: d["results"][0].update(t_hi="9/2"),
        lambda d: d["results"][0].update(policy="2,2,8"),
        lambda d: d["results"].reverse(),
        lambda d: d["results"].insert(0, d["results"].pop(1)),
        lambda d: d.update(iters=4),
        lambda d: d.update(variant="printed"),
        lambda d: (d["results"][0].update(t_lo="15/4"), d["results"][0]["search"].update(t_lo="15/4")),
        lambda d: d["results"][1].update(search=d["results"][0]["search"]),
        lambda d: d["results"].insert(1, d["results"][0]),
        lambda d: d["skipped"].append({"policy": "1,0,2", "reason": "guard failed"}),
        lambda d: d["skipped"].append(d["skipped"][0]),
    ], ids=["t_lo", "t_hi", "policy", "reversed", "swapped", "iters", "variant",
            "t_lo-both", "borrowed-search", "repeated-result", "skipped-ranked",
            "repeated-skip"])
    def test_forged_sweep_doc(self, sweep_doc, forge):
        doc = json.loads(json.dumps(sweep_doc))
        forge(doc)
        assert verify_certificate_text(json.dumps(doc))[0] == EXIT_NOT_CERTIFIED

    def test_forged_sweep_bracket(self):
        """A sweep of 1,0,2 and 2,1,4 over [3, 5] whose last entry embeds a
        genuine search over [3, 4] instead, its t_lo and t_hi rebound to
        it: every search verifies and the ranking holds, but the entries
        were not searched over one bracket."""
        ranked, skipped = sweep_policies([CPolicy(1, 0, 2), CPolicy(2, 1, 4)], F(3), F(5), 2)
        doc = sweep_report_doc(ranked, skipped, Variant.SYMMETRIZED, 2)
        entry = doc["results"][-1]
        bound = binary_search_bound(F(3), F(4), 2, CPolicy.parse(entry["policy"]))
        entry.update(search=search_report_doc(bound), t_lo=format_rational(bound.t_lo),
                     t_hi=format_rational(bound.t_hi))
        assert verify_certificate_text(json.dumps(doc)) == (
            EXIT_NOT_CERTIFIED, "the searches do not share one bracket")

    def test_sweep_doc_that_repeats_a_policy(self):
        """A sweep searches each policy once, so a document whose results hold
        the entry of 2,1,4 twice and whose skipped names it too contradicts
        itself, although every embedded search verifies."""
        ranked, skipped = sweep_policies([CPolicy(2, 1, 4)], F(3), F(5), 2)
        doc = sweep_report_doc(ranked, skipped, Variant.SYMMETRIZED, 2)
        doc["results"].append(doc["results"][0])
        doc["skipped"].append({"policy": "2,1,4", "reason": "bracket end lo = 3 is not all-infeasible"})
        assert verify_certificate_text(json.dumps(doc)) == (
            EXIT_NOT_CERTIFIED, "policy 2,1,4 appears more than once in results and skipped")

    def test_repeat_check_is_linear_in_the_policy_count(self, monkeypatch):
        """2,000 distinct skipped policies, then one repeat: finding it compares
        a handful of policies, not every pair of them."""
        policies = [f"{p},{q},1" for p in range(40) for q in range(50)]
        doc = {"tool_version": "x", "kind": "sweep", "variant": "symmetrized", "iters": 0,
               "results": [], "skipped": [{"policy": key, "reason": "r"}
                                          for key in policies + ["7,3,1"]]}
        compared = [0]
        eq = CPolicy.__eq__

        def counting(self, other):
            compared[0] += 1
            return eq(self, other)

        monkeypatch.setattr(CPolicy, "__eq__", counting)
        assert verify_certificate_text(json.dumps(doc)) == (
            EXIT_NOT_CERTIFIED, "policy 7,3,1 appears more than once in results and skipped")
        assert compared[0] < 100

    @pytest.mark.parametrize("iters", [-1, 1001, True, "3"])
    def test_sweep_doc_iters_out_of_range_is_malformed(self, iters):
        """A sweep bisects 0..MAX_ITERS times, even one that ranks nothing."""
        doc = sweep_report_doc([], [], Variant.SYMMETRIZED, iters)
        assert verify_certificate_text(json.dumps(doc)) == (
            EXIT_INPUT_ERROR, f"malformed certificate: iters must be an integer in 0..1000,"
                              f" got {iters!r}")

    def test_sweep_doc_with_a_bad_search_is_malformed(self, sweep_doc):
        doc = json.loads(json.dumps(sweep_doc))
        del doc["results"][0]["search"]
        assert verify_certificate_text(json.dumps(doc)) == (
            EXIT_INPUT_ERROR, "malformed certificate: missing field 'search'")

    @pytest.mark.parametrize("value, message", [
        (True, "tool_version must be a string, got bool"),
        (1, "tool_version must be a string, got int"),
        (None, "tool_version must be a string, got NoneType"),
        (["bmbounds-0"], "tool_version must be a string, got list"),
        (KeyError, "missing field 'tool_version'"),
    ], ids=["true", "1", "null", "list", "missing"])
    @pytest.mark.parametrize("where", ["sweep", "embedded-search"])
    def test_tool_version_must_be_a_string(self, sweep_doc, where, value, message):
        """A document, and each search a sweep embeds, carries its
        ``tool_version`` as a string: any other JSON value, or none, is
        malformed, though every certificate still holds."""
        doc = json.loads(json.dumps(sweep_doc))
        target = doc if where == "sweep" else doc["results"][-1]["search"]
        if value is KeyError:
            del target["tool_version"]
        else:
            target["tool_version"] = value
        assert verify_certificate_text(json.dumps(doc)) == (
            EXIT_INPUT_ERROR, f"malformed certificate: {message}")


def test_monotonicity_100_random_pairs():
    """Per case: feasible at t0 implies feasible at t1 > t0 (default policy)."""
    rng = random.Random(424242)
    pairs = []
    while len(pairs) < 100:
        t0 = F(3) + F(rng.randint(1, 1999), 1000)
        t1 = F(3) + F(rng.randint(1, 1999), 1000)
        if t0 == t1:
            continue
        pairs.append((min(t0, t1), max(t0, t1)))
    for t0, t1 in pairs:
        for case in ALL_CASES:
            f0 = check_feasibility(build_case_system(case, t0, DEFAULT_POLICY)).feasible
            if not f0:
                continue
            f1 = check_feasibility(build_case_system(case, t1, DEFAULT_POLICY)).feasible
            assert f1, f"monotonicity violated for {case} at {t0} -> {t1}"


class TestDichotomy:
    def test_certified_at_113_32(self):
        report = certify_dichotomy(F(113, 32))
        assert report.certified
        assert len(report.assignments) == 8

    def test_not_certified_at_5(self):
        assert not certify_dichotomy(F(5)).certified

    def test_not_certified_at_18_5(self):
        report = certify_dichotomy(F(18, 5))
        assert not report.certified
        # every verdict still carries a verifying certificate
        for assignment, systems in zip(report.assignments, _assignment_systems(report)):
            for case in ALL_CASES:
                assert verify_certificate(systems[case], assignment.results[case])

    def test_improves_on_base_threshold(self):
        # base certification fails between the base and dichotomy thresholds
        t = F(3540, 1000)
        assert not certify_at(t).all_infeasible
        assert certify_dichotomy(t).certified

    def test_empty_config_degenerates(self):
        report = certify_dichotomy(F(113, 32), functions=())
        assert len(report.assignments) == 1
        base = certify_at(F(113, 32))
        only = report.assignments[0]
        assert only.branches == ""
        [assignment] = dichotomy_report_doc(report)["assignments"]
        for entry, plain in zip(assignment["cases"], certify_report_doc(base)["cases"], strict=True):
            assert entry["system"]["inequalities"] == plain["system"]["inequalities"]

    def test_echoes_share_their_variable_lists(self):
        """The four case entries of an assignment hold one ``variables``
        list object and one ``nonneg`` list object, and the two differ."""
        doc = dichotomy_report_doc(certify_dichotomy(F(113, 32)))
        for assignment in doc["assignments"]:
            echoes = [entry["system"] for entry in assignment["cases"]]
            assert len(echoes) == 4
            assert len({id(echo["variables"]) for echo in echoes}) == 1
            assert len({id(echo["nonneg"]) for echo in echoes}) == 1
            assert echoes[0]["variables"] is not echoes[0]["nonneg"]


class TestCertificateFiles:
    def test_certify_doc_verifies(self):
        doc = certify_report_doc(certify_at(F(113, 32)))
        code, msg = verify_certificate_text(json.dumps(doc))
        assert code == EXIT_CERTIFIED, msg

    @pytest.mark.parametrize("case", ALL_CASES, ids=[c.value for c in ALL_CASES])
    def test_single_case_doc(self, case):
        """At 57/16 two cases are feasible: a one-case document holds its entry
        alone, records the case, and its certified flag covers that case only."""
        report = certify_at(F(57, 16))
        full = certify_report_doc(report)
        doc = certify_report_doc(report, case)
        [entry] = [e for e in full["cases"] if e["case"] == case.value]
        assert doc == {**full, "cases": [entry], "certified": not report.results[case].feasible,
                       "case": case.value}
        assert list(doc)[-1] == "case"
        assert verify_certificate_text(json.dumps(doc)) == (EXIT_CERTIFIED,
                                                            "all certificates verified")

    def test_search_doc_verifies(self):
        doc = search_report_doc(binary_search_bound(F(3), F(5), 6))
        code, msg = verify_certificate_text(json.dumps(doc))
        assert code == EXIT_CERTIFIED, msg

    def test_dichotomy_doc_verifies(self):
        doc = dichotomy_report_doc(certify_dichotomy(F(18, 5)))
        code, msg = verify_certificate_text(json.dumps(doc))
        assert code == EXIT_CERTIFIED, msg

    def test_tampered_multiplier_detected(self):
        doc = certify_report_doc(certify_at(F(113, 32)))
        text = json.dumps(doc)
        entry = doc["cases"][0]
        original = entry["farkas"][0]
        entry["farkas"][0] = "9999/7"
        code, msg = verify_certificate_text(json.dumps(doc))
        assert code == EXIT_NOT_CERTIFIED
        entry["farkas"][0] = original
        assert verify_certificate_text(text)[0] == EXIT_CERTIFIED

    def test_tampered_t_detected(self):
        doc = certify_report_doc(certify_at(F(113, 32)))
        doc["t"] = "115/32"
        code, _ = verify_certificate_text(json.dumps(doc))
        assert code in (EXIT_NOT_CERTIFIED, EXIT_INPUT_ERROR)

    @pytest.mark.parametrize("field, value, message", [
        ("farkas", "111111111", "farkas must be a list, got str"),
        ("farkas", {str(i): "1" for i in range(9)}, "farkas must be a list, got dict"),
        ("witness", ["0", "0", "0", "0"], "witness must be an object, got list"),
        ("witness", "0000", "witness must be an object, got str"),
        ("witness", {"th0": "0", "th1": "0", "th2": "0"}, "witness misses variables ['a']"),
        ("status", "maybe", "unknown status 'maybe'"),
    ], ids=["farkas-string", "farkas-object", "witness-list", "witness-string",
            "witness-without-a", "unknown-status"])
    def test_certificate_of_another_json_type_is_malformed(self, field, value, message):
        """A Farkas vector must be a JSON list and a witness a JSON object: a
        string would be read character by character, an object key by key.
        A witness names every variable, and a status is feasible or
        infeasible."""
        doc = certify_report_doc(certify_at(F(57, 16)))
        entry = next(e for e in doc["cases"] if field in e)
        entry[field] = value
        assert verify_certificate_text(json.dumps(doc)) == (
            EXIT_INPUT_ERROR, f"malformed certificate: {message}")

    def test_truncated_file_is_input_error(self):
        doc = certify_report_doc(certify_at(F(113, 32)))
        text = json.dumps(doc)
        code, _ = verify_certificate_text(text[: len(text) // 2])
        assert code == EXIT_INPUT_ERROR


class TestHeadlineClaims:
    """verify-cert binds each headline claim to the parts it re-verified."""

    @pytest.fixture(scope="class")
    def certify_t5(self):
        return certify_report_doc(certify_at(F(5)))

    @pytest.fixture(scope="class")
    def search_doc(self):
        return search_report_doc(binary_search_bound(F(3), F(5), 4))

    @pytest.fixture(scope="class")
    def dichotomy_doc(self):
        return dichotomy_report_doc(certify_dichotomy(F(18, 5), functions=(0, 2)))

    @staticmethod
    def audit(doc):
        return verify_certificate_text(json.dumps(doc))

    def test_genuine_documents_verify(self, certify_t5, search_doc, dichotomy_doc):
        for doc in (certify_t5, search_doc, dichotomy_doc):
            assert self.audit(doc)[0] == EXIT_CERTIFIED

    def test_forged_search_t_lo(self, search_doc):
        doc = json.loads(json.dumps(search_doc))
        doc["t_lo"] = "4"
        assert self.audit(doc)[0] == EXIT_NOT_CERTIFIED

    def test_forged_certify_coverage(self, certify_t5):
        """Dropping the feasible cases of a t = 5 report would forge d >= 5."""
        doc = json.loads(json.dumps(certify_t5))
        doc["cases"] = [e for e in doc["cases"] if e["status"] != "feasible"]
        doc["certified"] = True
        assert self.audit(doc)[0] == EXIT_NOT_CERTIFIED

    def test_forged_dichotomy_empty(self, dichotomy_doc):
        doc = json.loads(json.dumps(dichotomy_doc))
        doc["assignments"] = []
        assert self.audit(doc)[0] == EXIT_NOT_CERTIFIED

    @pytest.mark.parametrize("forge", [
        lambda d: d.update(c="1"),
        lambda d: d.update(certified=True),
        lambda d: d.update(case="J012"),
        lambda d: d["cases"].reverse(),
    ], ids=["c", "certified", "case-field", "case-order"])
    def test_forged_certify_fields(self, certify_t5, forge):
        doc = json.loads(json.dumps(certify_t5))
        forge(doc)
        assert self.audit(doc)[0] == EXIT_NOT_CERTIFIED

    @pytest.mark.parametrize("forge", [
        lambda d: d.update(t_hi="5"),
        lambda d: d["lower_report"].update(c="3"),
    ], ids=["t_hi", "report-c"])
    def test_forged_search_fields(self, search_doc, forge):
        doc = json.loads(json.dumps(search_doc))
        forge(doc)
        assert self.audit(doc)[0] == EXIT_NOT_CERTIFIED

    @pytest.fixture(scope="class")
    def zero_iter_search_doc(self):
        return search_report_doc(binary_search_bound(F(3), F(5), 0, CPolicy(2, 1, 4)))

    @pytest.mark.parametrize("end, t, message", [
        ("lower", "4", "report at t=4 is not all-infeasible"),
        ("upper", "7/2", "report at t=7/2 has no feasible case"),
    ], ids=["lower-report-at-4", "upper-report-at-7/2"])
    def test_forged_search_end_report(self, zero_iter_search_doc, end, t, message):
        """A 0-iteration search whose lower (upper) report is the genuine
        report at t, with t_lo (t_hi) and its trace entry moved to t: every
        certificate verifies, the trace replays and the bracket stays
        ordered, so only the report's own verdict gives the forgery away (the
        lower one claims t_lo = 4, above the paper's U = 3.87513)."""
        doc = json.loads(json.dumps(zero_iter_search_doc))
        report = certify_report_doc(certify_at(parse_rational(t)))
        doc[f"{end}_report"] = {key: report[key] for key in ("t", "c", "cases")}
        doc["t_lo" if end == "lower" else "t_hi"] = t
        doc["trace"][end == "upper"]["t"] = t
        assert self.audit(doc) == (EXIT_NOT_CERTIFIED, message)

    def test_search_fixture_trace(self, search_doc):
        """The trace tamper tests below index into this bisection."""
        assert [(p["t"], p["all_infeasible"]) for p in search_doc["trace"]] == [
            ("3", True), ("5", False), ("4", False), ("7/2", True), ("15/4", False),
            ("29/8", False)]

    @pytest.mark.parametrize("forge", [
        lambda d: d["trace"][2].update(all_infeasible=True),
        lambda d: d["trace"].append({"t": "9", "all_infeasible": True}),
        lambda d: d["trace"].pop(3),
        lambda d: d["trace"][4].update(t="11/3"),
        lambda d: (d["trace"][2].update(all_infeasible=True),
                   d["trace"].append({"t": "9", "all_infeasible": True})),
        lambda d: d["trace"].reverse(),
        lambda d: d["trace"][0].update(all_infeasible=False),
        lambda d: d["trace"][1].update(all_infeasible=True),
        lambda d: d["trace"].pop(),
    ], ids=["flipped-verdict", "appended-probe", "dropped-probe", "edited-midpoint",
            "flipped-and-appended", "reordered", "flipped-lo-end", "flipped-hi-end",
            "dropped-last-probe"])
    def test_forged_search_trace(self, search_doc, forge):
        doc = json.loads(json.dumps(search_doc))
        forge(doc)
        assert self.audit(doc)[0] == EXIT_NOT_CERTIFIED

    def test_non_boolean_trace_verdict_is_malformed(self, search_doc):
        doc = json.loads(json.dumps(search_doc))
        doc["trace"][2]["all_infeasible"] = "false"
        assert self.audit(doc)[0] == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    @pytest.mark.parametrize("kind", ["certify", "dichotomy"])
    def test_non_boolean_certified_is_malformed(self, certify_t5, dichotomy_doc, kind, value):
        """A ``certified`` flag that is not a JSON boolean is malformed, as a
        non-boolean trace verdict is, whatever the statuses say."""
        doc = json.loads(json.dumps(certify_t5 if kind == "certify" else dichotomy_doc))
        doc["certified"] = value
        assert self.audit(doc) == (
            EXIT_INPUT_ERROR, f"malformed certificate: certified flag {value!r} is not a boolean")

    @pytest.mark.parametrize("forge", [
        lambda d: d.update(certified=True),
        lambda d: d["assignments"].reverse(),
        lambda d: d["assignments"].pop(),
    ], ids=["certified", "order", "missing"])
    def test_forged_dichotomy_fields(self, dichotomy_doc, forge):
        doc = json.loads(json.dumps(dichotomy_doc))
        forge(doc)
        assert self.audit(doc)[0] == EXIT_NOT_CERTIFIED

    def test_dichotomy_without_functions_verifies(self):
        doc = dichotomy_report_doc(certify_dichotomy(F(18, 5), functions=()))
        assert self.audit(doc) == (EXIT_CERTIFIED, "all certificates verified")


def _each_number(system, fn):
    for ineq in system["inequalities"]:
        ineq["coeffs"] = {v: fn(s) for v, s in ineq["coeffs"].items()}
        ineq["rhs"] = fn(ineq["rhs"])


def _doubled_terms(s):
    x = parse_rational(s)
    return f"{2 * x.numerator}/{2 * x.denominator}"


def _add_zero_coefficient(system):
    ineq = next(i for i in system["inequalities"] if len(i["coeffs"]) < len(system["variables"]))
    ineq["coeffs"][next(v for v in system["variables"] if v not in ineq["coeffs"])] = "0"


def _flip_first_rel(system):
    first = system["inequalities"][0]
    first["rel"] = ">=" if first["rel"] == "<=" else "<="


# Edits of one echoed system -> exit codes on the certify, search and
# dichotomy documents of TestEchoComparison.
ECHO_EDITS = {
    "coeff-bumped": ((1, 1, 1), lambda s: s["inequalities"][0]["coeffs"].update(
        a=format_rational(parse_rational(s["inequalities"][0]["coeffs"]["a"]) + 1))),
    "doubled-terms": ((0, 0, 0), lambda s: _each_number(s, _doubled_terms)),
    "plus-signed-rhs": ((0, 0, 0), lambda s: [
        i.update(rhs="+" + i["rhs"]) for i in s["inequalities"] if not i["rhs"].startswith("-")]),
    "nonneg-reversed": ((0, 0, 0), lambda s: s["nonneg"].reverse()),
    "nonneg-duplicated": ((0, 0, 0), lambda s: s["nonneg"].append(s["nonneg"][0])),
    "coeff-keys-reversed": ((0, 0, 0), lambda s: [
        i.update(coeffs=dict(reversed(i["coeffs"].items()))) for i in s["inequalities"]]),
    "coeff-dropped": ((1, 1, 1), lambda s: s["inequalities"][0]["coeffs"].popitem()),
    "zero-coeff-added": ((1, 1, 1), _add_zero_coefficient),
    "meta-edited": ((1, 1, 1), lambda s: s["meta"].update(policy="1,0,2")),
    "meta-added": ((1, 1, 1), lambda s: s["meta"].update(note="x")),
    "meta-dropped": ((1, 1, 1), lambda s: s["meta"].pop("variant")),
    "meta-integer": ((1, 1, 1), lambda s: s["meta"].update(t=7)),
    "label-edited": ((1, 1, 1), lambda s: s["inequalities"][0].update(
        label=s["inequalities"][0]["label"] + "x")),
    "variables-reversed": ((1, 1, 1), lambda s: s["variables"].reverse()),
    "extra-key": ((0, 0, 0), lambda s: s.update(comment="x")),
    "rel-flipped": ((1, 1, 1), _flip_first_rel),
    "last-dropped": ((1, 1, 1), lambda s: s["inequalities"].pop()),
}


class TestEchoComparison:
    """verify-cert accepts an echoed system exactly when it has the rebuilt system's value.

    Each edit changes the echo of case not0 in one entry: infeasible in the
    certify document, feasible in the search document's upper report and in
    dichotomy assignment "ab".  Another spelling of a rational, a "+" sign,
    reordered coefficient keys or nonneg names and an unknown key keep the
    value; every other edit is rejected.
    """

    KINDS = ("certify", "search", "dichotomy")

    @pytest.fixture(scope="class")
    def documents(self):
        return {
            "certify": (certify_report_doc(certify_at(F(113, 32))),
                        lambda d: d["cases"][1], "t=113/32: "),
            "search": (search_report_doc(binary_search_bound(F(3), F(5), 4)),
                       lambda d: d["upper_report"]["cases"][1], "t=29/8: "),
            "dichotomy": (dichotomy_report_doc(certify_dichotomy(F(18, 5), functions=(0, 2))),
                          lambda d: d["assignments"][1]["cases"][1], "branches ab: "),
        }

    def test_entries_under_edit(self, documents):
        assert [entry(doc)["case"] for doc, entry, _ in documents.values()] == ["not0"] * 3
        assert [entry(doc)["status"] for doc, entry, _ in documents.values()] == [
            "infeasible", "feasible", "feasible"]
        assert documents["dichotomy"][0]["assignments"][1]["branches"] == "ab"

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("edit", list(ECHO_EDITS))
    def test_verdict(self, documents, kind, edit):
        codes, apply = ECHO_EDITS[edit]
        original, entry, where = documents[kind]
        doc = json.loads(json.dumps(original))
        apply(entry(doc)["system"])
        assert json.dumps(entry(doc)["system"]) != json.dumps(entry(original)["system"])
        code = codes[self.KINDS.index(kind)]
        message = {
            EXIT_CERTIFIED: "all certificates verified",
            EXIT_NOT_CERTIFIED: f"{where}case not0 failed re-verification",
        }[code]
        assert verify_certificate_text(json.dumps(doc)) == (code, message)


class TestAuditWork:
    """A dichotomy builds no system, and neither does an audit of a
    canonical echo; an audit parses each certificate string once, runs each
    Farkas check once and serializes nothing."""

    @pytest.fixture
    def built(self, monkeypatch):
        import bmbounds.certify as certify_mod
        import bmbounds.reference as reference_mod
        import bmbounds.systems as systems_mod

        calls = []

        def building(*args, **kwargs):
            calls.append(args)
            return build_case_system(*args, **kwargs)

        for module in (certify_mod, systems_mod, reference_mod):
            monkeypatch.setattr(module, "build_case_system", building)
        return calls

    def test_dichotomy_builds_each_base_once(self, built):
        report = certify_dichotomy(F(113, 32))
        # 4 when the plain stage built the bases, 32 when every assignment
        # rebuilt them; the cases are decided and checked on their rows.
        assert len(built) == 0
        assert report.certified
        built.clear()
        assert verify_certificate_text(json.dumps(dichotomy_report_doc(report)))[0] == EXIT_CERTIFIED
        # 4 when the audit rebuilt the base systems; a canonical echo is now
        # checked on the pair rows of its table rows, with no system built.
        assert len(built) == 0

    def test_canonical_documents_build_no_system(self, monkeypatch, built):
        """Neither does an audit of an echo that differs: each of the 51
        ECHO_EDITS documents is audited with no table system built.  Where
        the edited echo parses, rendering it back to the canonical echo
        agrees with the comparison the audit made before, with the system
        the builders give."""
        import bmbounds.reference as reference_mod
        from bmbounds.systems import SystemFormatError, system_doc, system_from_doc

        # The not0 echoes TestEchoComparison edits, each with its system as built.
        edited = [
            (certify_report_doc(certify_at(F(113, 32))), lambda d: d["cases"][1],
             build_case_system(JCase.NOT0, F(113, 32))),
            (search_report_doc(binary_search_bound(F(3), F(5), 4)),
             lambda d: d["upper_report"]["cases"][1], build_case_system(JCase.NOT0, F(29, 8))),
            (dichotomy_report_doc(certify_dichotomy(F(18, 5), functions=(0, 2))),
             lambda d: d["assignments"][1]["cases"][1],
             dict(build_dichotomy_systems(F(18, 5), functions=(0, 2)))["ab"][1]),
        ]
        tables = []
        table_system = reference_mod.table_system
        monkeypatch.setattr(reference_mod, "table_system",
                            lambda *args: tables.append(args) or table_system(*args))
        docs = [certify_report_doc(certify_at(F(113, 32))),
                search_report_doc(binary_search_bound(F(3), F(5), 20)),
                dichotomy_report_doc(certify_dichotomy(F(113, 32))),
                dichotomy_report_doc(certify_dichotomy(F(15, 4)))]
        built.clear()
        assert docs[-1]["certified"] is False  # feasible cases are checked too
        for doc in docs:
            assert verify_certificate_text(json.dumps(doc)) == (
                EXIT_CERTIFIED, "all certificates verified")
        compared = 0
        for kind, (original, entry, expected) in enumerate(edited):
            canonical = entry(original)["system"]
            for codes, apply in ECHO_EDITS.values():
                doc = json.loads(json.dumps(original))
                apply(entry(doc)["system"])
                assert verify_certificate_text(json.dumps(doc))[0] == codes[kind]
                try:
                    parsed = system_from_doc(entry(doc)["system"])
                except SystemFormatError:
                    continue
                assert (system_doc(parsed) == canonical) == (expected == parsed)
                compared += 1
        assert compared == 3 * len(ECHO_EDITS) == 51
        assert built == tables == []

    def test_each_string_is_parsed_and_each_check_run_once(self, monkeypatch):
        """The 8 assignments at 113/32 repeat the 4 plain Farkas vectors, 424
        entries written with 19 distinct strings, with zeros on the branch
        rows.  The audit parses t and each distinct string once (425 parses
        when every entry was parsed) and runs each of the 4 distinct Farkas
        checks once (32 when every entry was checked).  So it does with
        every echo re-spelled: each is checked on the expected pair rows, as
        a canonical echo is, and never on its parsed system (32 checks when
        each re-spelled echo's certificate was checked on it)."""
        import bmbounds.audit as audit_mod
        import bmbounds.exactlp as exactlp

        def unused(*args):  # pragma: no cover
            raise AssertionError("the audit checks no certificate on a parsed system")

        parsed, checked = [], []
        parse, check = audit_mod.parse_rational, exactlp.verify_pairs
        monkeypatch.setattr(audit_mod, "parse_rational", lambda text: parsed.append(text) or parse(text))
        for module in (audit_mod, exactlp):
            monkeypatch.setattr(module, "verify_pairs",
                                lambda *args: checked.append(args) or check(*args))
        monkeypatch.setattr(exactlp, "verify_certificate", unused)
        doc = json.loads(json.dumps(dichotomy_report_doc(certify_dichotomy(F(113, 32)))))
        strings = [s for a in doc["assignments"] for e in a["cases"] for s in e["farkas"]]
        assert (len(strings), len(set(strings))) == (424, 19)  # 21 with elimination's vectors
        respelled = json.loads(json.dumps(doc))
        for assignment in respelled["assignments"]:
            for entry in assignment["cases"]:
                _each_number(entry["system"], _doubled_terms)
        for text in (json.dumps(doc), json.dumps(respelled)):
            parsed.clear()
            checked.clear()
            assert verify_certificate_text(text) == (EXIT_CERTIFIED, "all certificates verified")
            assert sorted(parsed) == sorted({doc["t"], *strings})
            assert len(checked) == 4

    @pytest.mark.parametrize("edit", ["multiplier", "branch-row", "zero-appended", "zero-dropped"])
    @pytest.mark.parametrize("index", range(4), ids=[c.value for c in ALL_CASES])
    def test_check_memo_is_sound(self, index, edit):
        """A vector that assignment aba alone changes is checked anew, although
        aaa and aab checked the shared one: one nonzero multiplier plus 1, a
        multiplier of 1 on the first branch row, or a zero appended or
        dropped, which leaves the nonzero entries as they were."""
        from bmbounds.systems import CASE_TABLES

        doc = json.loads(json.dumps(dichotomy_report_doc(certify_dichotomy(F(113, 32)))))
        assignment = doc["assignments"][2]
        assert assignment["branches"] == "aba"
        case, farkas = ALL_CASES[index], assignment["cases"][index]["farkas"]
        expected = (EXIT_NOT_CERTIFIED, f"branches aba: case {case.value} failed re-verification")
        if edit == "multiplier":
            k = next(k for k, x in enumerate(farkas) if parse_rational(x))
            farkas[k] = format_rational(parse_rational(farkas[k]) + 1)
        elif edit == "branch-row":
            k = len(CASE_TABLES[case])
            assert farkas[k] == "0"
            farkas[k] = "1"
        else:
            n = len(farkas)
            if edit == "zero-appended":
                farkas.append("0")
            else:
                assert farkas.pop(len(CASE_TABLES[case])) == "0"
            expected = (EXIT_INPUT_ERROR, "malformed certificate: Farkas vector has length"
                        f" {len(farkas)}, expected {n}")
        assert verify_certificate_text(json.dumps(doc)) == expected

    def test_check_memo_is_keyed_by_point(self):
        """The lower report's Farkas vector of case J012, written into the
        upper report's J012 entry, is checked at the upper t, where it fails,
        although the same rows carried it at the lower t."""
        doc = json.loads(json.dumps(search_report_doc(binary_search_bound(F(3), F(5), 6))))
        lower, upper = doc["lower_report"]["cases"][0], doc["upper_report"]["cases"][0]
        assert (lower["case"], upper["case"], upper["status"]) == ("J012", "J012", "infeasible")
        upper["farkas"] = lower["farkas"]
        assert verify_certificate_text(json.dumps(doc)) == (
            EXIT_NOT_CERTIFIED, "t=57/16: case J012 failed re-verification")

    def test_only_echoes_that_differ_are_parsed(self, monkeypatch):
        """The 8 assignments at 113/32 echo the 25 base rows and 6 branch rows
        32 and 24 times over.  Echoes equal to the canonical rendering are
        not parsed at all (31 rows were, one per distinct row, when every
        echo was); re-spelled echoes of one case in two assignments are each
        parsed whole, one parse per row."""
        import bmbounds.reference as reference_mod

        parsed = []
        parse = reference_mod._inequality_from_doc

        def counting(entry, where):
            parsed.append(entry["label"])
            return parse(entry, where)

        monkeypatch.setattr(reference_mod, "_inequality_from_doc", counting)
        doc = json.loads(json.dumps(dichotomy_report_doc(certify_dichotomy(F(113, 32)))))
        assert verify_certificate_text(json.dumps(doc)) == (EXIT_CERTIFIED, "all certificates verified")
        assert parsed == []
        echoes = [doc["assignments"][index]["cases"][0]["system"] for index in (0, 1)]
        for echo in echoes:
            _each_number(echo, _doubled_terms)
        assert verify_certificate_text(json.dumps(doc)) == (EXIT_CERTIFIED, "all certificates verified")
        labels = [row["label"] for echo in echoes for row in echo["inequalities"]]
        assert {"B2a", "B2b"} <= set(labels)
        assert parsed == labels

    def test_stale_renderings_cannot_match(self, monkeypatch):
        """Rows rendered for one expected system are not taken for another's:
        the upper report's echo of a case holding the lower report's rows,
        or one assignment's echo holding another's branch rows, is rejected
        although its metadata and certificate are genuine.  The renderings
        are memoized by table row, point and variant, and table rows are
        module constants; each Farkas check is memoized by the pair rows it
        reads, those the audit made from the expected table rows, never an
        echo's, so no memo key can be reused for other rows."""
        import bmbounds.audit as audit_mod
        from bmbounds.systems import BRANCH_ROWS, CASE_TABLES, NONNEG_PAIRS

        search = json.loads(json.dumps(search_report_doc(binary_search_bound(F(3), F(5), 4))))
        dichotomy = json.loads(json.dumps(dichotomy_report_doc(certify_dichotomy(F(113, 32)))))
        tables = {row for table in CASE_TABLES.values() for row in table} | set(BRANCH_ROWS.values())
        audits = []

        class Recording(audit_mod._Echoes):
            def __init__(self):
                super().__init__()
                audits.append(self)

        def audit(doc):
            audits.clear()
            verdict = verify_certificate_text(json.dumps(doc))
            [echoes] = audits
            assert all(set(made) <= tables for made in echoes.made.values())
            pairs = {id(pair) for made in echoes.made.values() for pair, _ in made.values()}
            assert echoes.farkas and all(id(pair) in pairs or pair in NONNEG_PAIRS
                                         for key in echoes.farkas for pair, _ in key[2:])
            return verdict

        monkeypatch.setattr(audit_mod, "_Echoes", Recording)
        doc = search
        for index, (lower, upper) in enumerate(zip(doc["lower_report"]["cases"],
                                                   doc["upper_report"]["cases"])):
            forged = json.loads(json.dumps(doc))
            forged["upper_report"]["cases"][index]["system"]["inequalities"] = (
                lower["system"]["inequalities"])
            assert audit(forged) == (
                EXIT_NOT_CERTIFIED, f"t={doc['t_hi']}: case {upper['case']} failed re-verification")
        doc = dichotomy
        for index, other in ((0, 7), (7, 0), (2, 3)):
            forged = json.loads(json.dumps(doc))
            forged["assignments"][index]["cases"][1]["system"]["inequalities"] = (
                doc["assignments"][other]["cases"][1]["system"]["inequalities"])
            branches = doc["assignments"][index]["branches"]
            assert audit(forged) == (
                EXIT_NOT_CERTIFIED, f"branches {branches}: case not0 failed re-verification")
        assert audit(search) == audit(dichotomy) == (EXIT_CERTIFIED, "all certificates verified")

    @pytest.mark.parametrize("index", [0, 5, 7])
    def test_tampered_copy_of_a_shared_row(self, index):
        """A coefficient changed in one assignment's copy of a shared row is
        caught, whichever copy it is: the other copies stay as written."""
        doc = json.loads(json.dumps(dichotomy_report_doc(certify_dichotomy(F(113, 32)))))
        row = doc["assignments"][index]["cases"][0]["system"]["inequalities"][1]
        assert row["label"] == "7b"
        row["coeffs"]["th1"] = "2"
        branches = doc["assignments"][index]["branches"]
        assert verify_certificate_text(json.dumps(doc)) == (
            EXIT_NOT_CERTIFIED, f"branches {branches}: case J012 failed re-verification")

    def test_audit_serializes_nothing(self, monkeypatch):
        import bmbounds.certify as certify_mod
        import bmbounds.reference as reference_mod
        import bmbounds.systems as systems_mod

        docs = [certify_report_doc(certify_at(F(113, 32))),
                search_report_doc(binary_search_bound(F(3), F(5), 4)),
                dichotomy_report_doc(certify_dichotomy(F(18, 5), functions=(0, 2)))]

        def boom(*args, **kwargs):  # pragma: no cover
            raise AssertionError("audit must not serialize a system")

        for module in (certify_mod, systems_mod, reference_mod):
            monkeypatch.setattr(module, "serialize_system", boom)
        for doc in docs:
            assert verify_certificate_text(json.dumps(doc)) == (
                EXIT_CERTIFIED, "all certificates verified")

    def test_functions_list_is_bounded_before_any_build(self, built):
        doc = dichotomy_report_doc(certify_dichotomy(F(18, 5), functions=(0, 2)))
        doc["functions"] = [0, 1, 2, 0] * 10
        built.clear()
        assert verify_certificate_text(json.dumps(doc)) == (
            EXIT_INPUT_ERROR,
            "malformed certificate: functions must be distinct indices 0-2,"
            " got [0, 1, 2, 0, 0, 1, ...]")
        assert built == []

    @pytest.mark.parametrize("functions", [(0, 0), (0, 1, 2, 0), (1, 3), (True,)])
    def test_certify_dichotomy_rejects_functions_before_any_build(self, built, functions):
        with pytest.raises(FunctionsError, match="functions must be distinct indices 0-2"):
            certify_dichotomy(F(113, 32), functions=functions)
        assert issubclass(FunctionsError, InputError)
        assert built == []

    def test_repeated_functions_document_is_malformed(self):
        doc = dichotomy_report_doc(certify_dichotomy(F(113, 32), functions=(0,)))
        doc["functions"] = [0, 0]
        doc["assignments"] = doc["assignments"] * 2  # 4 entries, as 2**2 wants
        assert verify_certificate_text(json.dumps(doc)) == (
            EXIT_INPUT_ERROR,
            "malformed certificate: functions must be distinct indices 0-2, got [0, 0]")


DICHOTOMY_TS = sorted({F(num, den) for den in range(1, 5) for num in range(3 * den, 4 * den + 1)})


class TestPlainCaseReuse:
    """Each plain case system is decided once; only plain-feasible cases are
    decided again per branch assignment."""

    @pytest.mark.parametrize("functions", [(), (0, 2), (0, 1, 2)])
    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("t", DICHOTOMY_TS, ids=str)
    def test_verdicts_and_padded_vectors(self, t, variant, functions):
        report = certify_dichotomy(t, DEFAULT_POLICY, functions, variant)
        plain = {case: check_feasibility(build_case_system(case, t, DEFAULT_POLICY, variant))
                 for case in ALL_CASES}
        for assignment, systems in zip(report.assignments, _assignment_systems(report)):
            for case in ALL_CASES:
                system, result = systems[case], assignment.results[case]
                assert result.feasible is check_feasibility(system).feasible
                assert verify_certificate(system, result)
                if plain[case].feasible:
                    continue
                cut = len(plain[case].farkas) - len(system.nonneg)
                branch_rows = [k for k, ineq in enumerate(system.inequalities)
                               if ineq.label.startswith("B")]
                assert branch_rows == list(range(cut, cut + len(functions)))
                assert result.farkas == (plain[case].farkas[:cut] + (F(0),) * len(functions)
                                         + plain[case].farkas[cut:])

    # At 4 it was 36 while every assignment of a plain-feasible case ran FM,
    # and 11 FM runs before each became a pivot run; 4 and 11 pivot runs while
    # each case's assignments first checked the basis its plain run ended at.
    @pytest.mark.parametrize("t, calls", [(F(113, 32), 4), (F(4), 13)], ids=["113/32", "4"])
    def test_check_feasibility_calls(self, fm_runs, t, calls):
        report = certify_dichotomy(t)
        assert len(fm_runs) == calls  # 32 and 32 when every assignment ran FM
        assert report.certified is (t < 4)

    # 36 at 113/32 while a plain-infeasible case spliced the pair rows of
    # every assignment, though its carry is checked on the first alone; 8, 64
    # and 64 while each case also spliced its assignments' pair rows, before
    # each assignment was checked on the pair rows of its own echoes.
    @pytest.mark.parametrize("t, feasible, calls", [(F(113, 32), 0, 4), (F(4), 4, 32),
                                                   (F(15, 4), 4, 32)], ids=str)
    def test_with_branches_calls(self, monkeypatch, t, feasible, calls):
        """A plain-infeasible case splices its Farkas vector; a plain-feasible
        one, the base rows of each of its 8 assignments.  No pair row is
        spliced: each assignment's are those of its echoes."""
        import bmbounds.certify as certify_mod

        assert len(certify_at(t).feasible_cases) == feasible
        with_branches, spliced = certify_mod.with_branches, []

        def counting(rows, branch):
            spliced.append(branch)
            return with_branches(rows, branch)

        monkeypatch.setattr(certify_mod, "with_branches", counting)
        certify_dichotomy(t)
        assert len(spliced) == calls


# DEFAULT_POLICY is 2,1,4, so 1,0,2 (c = t/2, the band's lower edge) is the
# third policy; 0,759,400 is the constant-c policy whose guards fail at t = 4.
WARM_POLICIES = [DEFAULT_POLICY, CPolicy(1, 0, 2), CPolicy(0, 759, 400)]
FUNCTION_SUBSETS = [subset for k in range(4) for subset in itertools.combinations(range(3), k)]


class TestWarmAssignments:
    """Each branch assignment of a plain-feasible case is settled by the
    support or basis its case last stored, and by a pivot run only when
    neither holds."""

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    @pytest.mark.parametrize("t, policy", [
        (t, policy) for t in DICHOTOMY_TS for policy in WARM_POLICIES
        if 1 < policy.c_at(t) and t / 2 <= policy.c_at(t) <= t], ids=str)
    def test_verdicts_and_certificates(self, t, policy, variant):
        for functions in FUNCTION_SUBSETS:
            report = certify_dichotomy(t, policy, functions, variant)
            for assignment, systems in zip(report.assignments, _assignment_systems(report)):
                for case, system in systems.items():
                    result = assignment.results[case]
                    assert result.feasible is check_feasibility(system).feasible
                    assert verify_certificate(system, result)

    # 4, 11, 18 and 16 FM runs, each seeded with the plain witness's
    # tight basis, before each became a pivot run; 4, 11, 14 and 11 pivot
    # runs while each case's assignments first checked its plain basis.
    @pytest.mark.parametrize("t, runs", [(F(113, 32), 4), (F(4), 13), (F(15, 4), 16),
                                         (F(11, 3), 12)], ids=str)
    def test_fm_runs(self, fm_runs, t, runs):
        """36, 36 and 28 FM runs at 4, 15/4 and 11/3 when every assignment of
        a plain-feasible case ran FM; at 113/32 every case is plain-infeasible."""
        certify_dichotomy(t)
        assert len(fm_runs) == runs

    def test_pivot_runs_depend_on_their_rows_alone(self, monkeypatch):
        """``pivot`` and its generic body take the rows alone, and no stored
        basis is swapped in: whenever ``_settle`` runs a pivot, the basis or
        verdict it stores is the one ``exactlp.pivot(rows)`` ends at.  At 4
        with functions 0 and 1, a run that first swapped in the basis its
        case held ended at another basis for one assignment."""
        import inspect

        import bmbounds.certify as certify_mod
        import bmbounds.exactlp as exactlp
        import bmbounds.reference as reference_mod

        for body in (exactlp.pivot, reference_mod._pivot_n):
            assert list(inspect.signature(body).parameters) == ["rows"]
        assert not hasattr(exactlp, "_swap_in")
        pivot, settle, runs, stored = exactlp.pivot, certify_mod._settle, [], []

        def counting(*args):
            runs.append(args)
            return pivot(*args)

        def checked(bases, key, rows):
            before = len(runs)
            y, vertex = settle(bases, key, rows)
            if len(runs) > before:
                stored.append(bases[key, vertex is not None])
                assert stored[-1] == pivot(rows(None))[1]
            return y, vertex

        monkeypatch.setattr(exactlp, "pivot", counting)
        monkeypatch.setattr(certify_mod, "_settle", checked)
        certify_dichotomy(F(4), functions=(0, 1))
        assert len(stored) == len(runs) == 14  # 12 while assignments first checked the plain basis

    @pytest.mark.parametrize("t, policy", [(F(4), DEFAULT_POLICY), (F(4), CPolicy(1, 0, 2)),
                                           (F(15, 4), DEFAULT_POLICY), (F(11, 3), DEFAULT_POLICY)],
                             ids=str)
    def test_assignments_are_settled_as_probes_are(self, monkeypatch, t, policy):
        """The assignments of a plain-feasible case are settled as bisection
        probes settle a case: on one dict of their own, which holds nothing
        its plain run stored, so the first assignment's settle sees no
        verdict and no basis and each later one only what earlier
        assignments of its case stored.  Each result is the certificate
        ``_certificate`` gave that assignment, never its case's plain one."""
        import bmbounds.certify as certify_mod

        feasible = certify_at(t, policy).feasible_cases
        assert feasible
        settle, certificate, settles, given = certify_mod._settle, certify_mod._certificate, [], []

        def recording(bases, key, rows):
            settles.append((bases, key, dict(bases)))
            return settle(bases, key, rows)

        def giving(*args):
            given.append(certificate(*args))
            return given[-1]

        monkeypatch.setattr(certify_mod, "_settle", recording)
        monkeypatch.setattr(certify_mod, "_certificate", giving)
        report = certify_dichotomy(t, policy)
        plain = settles[:len(ALL_CASES)]
        assert [key for _, key, _ in plain] == list(ALL_CASES)
        assert len(settles) == len(ALL_CASES) + len(feasible) * len(report.assignments)
        for case in feasible:
            mine = [(bases, before) for bases, key, before in settles[len(ALL_CASES):] if key == case]
            assert len({id(bases) for bases, _ in mine}) == 1
            assert mine[0][0] is not plain[0][0]
            assert mine[0][1] == {}
            for (bases, before), (_, after) in zip(mine, mine[1:]):
                assert set(before) <= set(after) <= {(case, False), (case, True)}
            results = {id(a.results[case]) for a in report.assignments}
            assert results <= {id(result) for result in given[len(ALL_CASES):]}

    @pytest.mark.parametrize("t, functions", [
        *itertools.product(DICHOTOMY_TS, [(), (0, 2), (0, 1, 2)]), (F(113, 32), (0, 1, 2))], ids=str)
    def test_padded_vectors_are_checked_once(self, monkeypatch, t, functions):
        """The four plain certificates are checked once each, and so is each
        plain-infeasible case's padded Farkas vector, one object that every
        assignment carries, zero on every branch row; only each assignment
        of a plain-feasible case is checked on its own.  At 113/32 every
        case is plain-infeasible: 8 checks, where checking every padded
        vector on every assignment made 36."""
        import bmbounds.exactlp as exactlp

        plain = certify_at(t).results
        infeasible = [case for case in ALL_CASES if not plain[case].feasible]
        checks, check = [], exactlp.verify_pairs
        monkeypatch.setattr(exactlp, "verify_pairs",
                            lambda *args: checks.append(args) or check(*args))
        report = certify_dichotomy(t, DEFAULT_POLICY, functions)
        feasible = len(ALL_CASES) - len(infeasible)
        assert len(checks) == 4 + len(infeasible) + 2 ** len(functions) * feasible
        for case in infeasible:
            padded = report.assignments[0].results[case]
            for assignment, systems in zip(report.assignments, _assignment_systems(report)):
                assert assignment.results[case] is padded
                labels = [ineq.label for ineq in systems[case].inequalities]
                branch_rows = [k for k, label in enumerate(labels) if label.startswith("B")]
                assert len(branch_rows) == len(functions)
                assert all(padded.farkas[k] == 0 for k in branch_rows)
        if t == F(113, 32):
            assert report.certified and len(checks) == 8

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    @pytest.mark.parametrize("t", DICHOTOMY_TS, ids=str)
    def test_empty_function_list_is_the_plain_report(self, t, variant):
        """Without functions the one assignment's rows are the plain ones, and
        its results are those of ``certify_at``."""
        report = certify_dichotomy(t, DEFAULT_POLICY, (), variant)
        assert [a.branches for a in report.assignments] == [""]
        assert report.assignments[0].results == certify_at(t, DEFAULT_POLICY, variant).results

    @pytest.mark.parametrize("t", DICHOTOMY_TS, ids=str)
    def test_empty_function_list_makes_nothing_past_the_plain_run(self, monkeypatch, t):
        """Without functions every case carries its plain result: past the
        plain run, which ``certify_at`` shares, the dichotomy makes no case
        rows, runs no pivot and makes no ``feasible_at`` check.  (The plain
        run made no ``tight_basis`` and no ``feasible_at`` call while it ran
        elimination; it now settles each case by one pivot run, with a
        ``feasible_at`` call for the basis it does not hold and one check of
        each basis a run ends at.)"""
        import bmbounds.certify as certify_mod
        import bmbounds.exactlp as exactlp

        calls = {}
        for module, name in ((certify_mod, "case_rows"), (exactlp, "pivot"), (certify_mod, "feasible_at")):
            def counting(*args, _name=name, _f=getattr(module, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(module, name, counting)

        def counts(run):
            calls.update(case_rows=0, pivot=0, feasible_at=0)
            return run(), dict(calls)

        plain, at = counts(lambda: certify_at(t))
        report, dichotomy = counts(lambda: certify_dichotomy(t, functions=()))
        feasible = len(plain.feasible_cases)
        # "case_rows": len(ALL_CASES) while a settle took its rows as a list;
        # an infeasible case's Farkas vector now reads its verdict's rows by a
        # second call, which makes no row (``case_rows``' memo).
        assert dichotomy == at == {"case_rows": 2 * len(ALL_CASES) - feasible, "pivot": len(ALL_CASES),
                                   "feasible_at": len(ALL_CASES) + feasible}
        assert report.assignments[0].results == plain.results

    def test_base_rows_are_made_once(self, monkeypatch):
        """At 4 every case is plain-feasible, so each is settled per
        assignment on its base rows, which the plain stage made: across the
        dichotomy, each distinct base row (``TableRow.key``) and each branch
        row is made once, at the point of 4, where making a case's rows
        again for its assignments made each of them again."""
        import bmbounds.systems as systems_mod
        from bmbounds.systems import BRANCH_ROWS, CASE_TABLES, case_point

        assert all(result.feasible for result in certify_at(F(4)).results.values())
        made, make = [], systems_mod.TableRow.make
        monkeypatch.setattr(systems_mod.TableRow, "make",
                            lambda row, point, *args: made.append((point, row.key)) or make(row, point, *args))
        report = certify_dichotomy(F(4))
        assert not report.certified
        rows = [row for table in CASE_TABLES.values() for row in table]
        rows += [BRANCH_ROWS[m, br] for m in report.functions for br in "ab"]
        assert len(set(made)) == len(made)
        assert set(made) == {(case_point(F(4), DEFAULT_POLICY), row.key) for row in rows}


@functools.lru_cache(maxsize=None)
def _dichotomy_text(t: Fraction, functions: tuple[int, ...]) -> str:
    return json.dumps(dichotomy_report_doc(certify_dichotomy(t, DEFAULT_POLICY, functions)))


@functools.lru_cache(maxsize=None)
def _simplex_statuses(t: Fraction, policy: CPolicy, functions: tuple[int, ...],
                      variant: Variant) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """Each branch assignment with the status phase-1 simplex gives each of its systems."""
    return tuple((branches, tuple(simplex_feasibility(system).status for system in systems))
                 for branches, systems in build_dichotomy_systems(t, policy, functions, variant))


def _mutate_entries(draw, doc: dict, entries: list[dict]) -> None:
    """One of the mutations of the ``mutated_*_doc`` strategies, applied in
    place to doc and its case entries: ``certified`` flipped, a status
    flipped, a Farkas entry bumped, zeroed or moved, one of the points
    ``t``, ``t_lo`` and ``t_hi`` the document has moved by 1/64, a witness
    coordinate negated or shifted, a search trace verdict flipped or its t
    moved by 1/64, or one echo changed: a number re-spelled with its value
    kept (2p/2q), a coefficient or rhs moved by 1/64, or a row dropped.  A
    sweep document has one kind: a ranked entry's ``t_lo`` or ``t_hi``
    moved by 1/64 or 1/8 or its policy replaced by a guarded one, ``iters``
    moved by 1, or one of these mutations of the search an entry embeds."""
    shift = st.sampled_from([F(1, 64), F(-1, 64)])
    if "results" in doc:
        entry = draw(st.sampled_from(doc["results"]))
        how = draw(st.sampled_from(["t", "policy", "iters", "search"]))
        if how == "t":
            key = draw(st.sampled_from(["t_lo", "t_hi"]))
            step = draw(st.sampled_from([F(1, 64), F(1, 8)]))
            entry[key] = format_rational(parse_rational(entry[key]) + draw(st.sampled_from([step, -step])))
        elif how == "policy":
            entry["policy"] = draw(st.sampled_from([policy.key() for policy in GUARDED_POLICIES]))
        elif how == "iters":
            doc["iters"] += draw(st.sampled_from([1, -1]))
        else:
            search = entry["search"]
            _mutate_entries(draw, search, search["lower_report"]["cases"] + search["upper_report"]["cases"])
        return
    witnessed = [entry for entry in entries if entry["status"] == "feasible"]
    refuted = [entry for entry in entries if entry["status"] == "infeasible"]
    kinds = (["certified"] * ("certified" in doc) + ["status", "echo"] + ["farkas"] * bool(refuted)
             + ["t"] + ["witness"] * bool(witnessed) + ["trace"] * ("trace" in doc))
    kind = draw(st.sampled_from(kinds))
    if kind == "echo":
        rows = draw(st.sampled_from(entries))["system"]["inequalities"]
        row = rows[draw(st.integers(0, len(rows) - 1))]
        how = draw(st.sampled_from(["respell", "move", "drop"]))
        if how == "drop":
            rows.remove(row)
        else:
            numbers, key = draw(st.sampled_from([(row, "rhs"), *[(row["coeffs"], v) for v in row["coeffs"]]]))
            numbers[key] = (_doubled_terms(numbers[key]) if how == "respell"
                            else format_rational(parse_rational(numbers[key]) + draw(shift)))
    elif kind == "certified":
        doc["certified"] = not doc["certified"]
    elif kind == "status":
        entry = draw(st.sampled_from(entries))
        entry["status"] = "feasible" if entry["status"] == "infeasible" else "infeasible"
    elif kind == "farkas":
        farkas = draw(st.sampled_from(refuted))["farkas"]
        i = draw(st.integers(0, len(farkas) - 1))
        how = draw(st.sampled_from(["bump", "zero", "move"]))
        if how == "bump":
            farkas[i] = format_rational(parse_rational(farkas[i]) + 1)
        elif how == "zero":
            farkas[i] = "0"
        else:
            farkas.insert(draw(st.integers(0, len(farkas) - 1)), farkas.pop(i))
    elif kind == "witness":
        witness = draw(st.sampled_from(witnessed))["witness"]
        v = draw(st.sampled_from(sorted(witness)))
        x = parse_rational(witness[v])
        witness[v] = format_rational(-x if draw(st.booleans())
                                     else x + draw(st.sampled_from([F(1, 64), F(-1, 64), F(1)])))
    elif kind == "trace":
        entry = draw(st.sampled_from(doc["trace"]))
        if draw(st.booleans()):
            entry["all_infeasible"] = not entry["all_infeasible"]
        else:
            entry["t"] = format_rational(parse_rational(entry["t"]) + draw(shift))
    else:
        key = draw(st.sampled_from([key for key in ("t", "t_lo", "t_hi") if key in doc]))
        doc[key] = format_rational(parse_rational(doc[key]) + draw(shift))


@st.composite
def mutated_dichotomy_doc(draw):
    """The 113/32 all-functions or the 4 ``--functions 0 1`` dichotomy
    document with one mutation: ``certified`` or one entry's status flipped,
    one Farkas entry bumped, zeroed or moved, one witness coordinate negated
    or shifted, or t moved by 1/64."""
    t, functions = draw(st.sampled_from([(F(113, 32), (0, 1, 2)), (F(4), (0, 1))]))
    doc = json.loads(_dichotomy_text(t, functions))
    _mutate_entries(draw, doc, [entry for a in doc["assignments"] for entry in a["cases"]])
    return doc


@given(mutated_dichotomy_doc())
@settings(max_examples=60, deadline=None)
def test_accepted_dichotomy_claims_hold(doc):
    """Whenever ``verify-cert`` accepts a mutated dichotomy document, phase-1
    simplex on ``build_dichotomy_systems`` agrees with every status it
    claims, and ``certified`` is whether all of them are infeasible."""
    if verify_certificate_text(json.dumps(doc))[0] != EXIT_CERTIFIED:
        return
    expected = _simplex_statuses(parse_rational(doc["t"]), CPolicy.parse(doc["policy"]),
                                 tuple(doc["functions"]), Variant(doc["variant"]))
    claimed = tuple((a["branches"], tuple(entry["status"] for entry in a["cases"]))
                    for a in doc["assignments"])
    assert claimed == expected
    assert doc["certified"] is all(s == "infeasible" for _, statuses in claimed for s in statuses)


@functools.lru_cache(maxsize=None)
def _certify_text(t: Fraction) -> str:
    return json.dumps(certify_report_doc(certify_at(t)))


@functools.lru_cache(maxsize=None)
def _simplex_case_statuses(t: Fraction, policy: CPolicy, variant: Variant,
                           cases: tuple[JCase, ...]) -> tuple[str, ...]:
    """The status phase-1 simplex gives each case system, in order."""
    return tuple(simplex_feasibility(build_case_system(case, t, policy, variant)).status
                 for case in cases)


@st.composite
def mutated_certify_doc(draw):
    """The 113/32 (all cases infeasible) or the 5 (feasible cases) certify
    document with one mutation: ``certified`` or one case's status flipped,
    one Farkas entry bumped, zeroed or moved, one witness coordinate negated
    or shifted, or t moved by 1/64."""
    t = draw(st.sampled_from([F(113, 32), F(5)]))
    doc = json.loads(_certify_text(t))
    _mutate_entries(draw, doc, doc["cases"])
    return doc


@given(mutated_certify_doc())
@settings(max_examples=60, deadline=None)
def test_accepted_certify_claims_hold(doc):
    """Whenever ``verify-cert`` accepts a mutated certify document, phase-1
    simplex on ``build_case_system`` agrees with every status it claims,
    and ``certified`` is whether all of them are infeasible."""
    if verify_certificate_text(json.dumps(doc))[0] != EXIT_CERTIFIED:
        return
    cases = tuple(JCase(entry["case"]) for entry in doc["cases"])
    expected = _simplex_case_statuses(parse_rational(doc["t"]), CPolicy.parse(doc["policy"]),
                                      Variant(doc["variant"]), cases)
    claimed = tuple(entry["status"] for entry in doc["cases"])
    assert claimed == expected
    assert doc["certified"] is all(status == "infeasible" for status in claimed)


@functools.lru_cache(maxsize=None)
def _search_text(iters: int, policy: CPolicy) -> str:
    return json.dumps(search_report_doc(binary_search_bound(F(3), F(5), iters, policy)))


@st.composite
def mutated_search_doc(draw):
    """The ``search --iters 6 --c-policy 2,1,4`` or the default ``--iters 20``
    search document with one mutation: ``t_lo`` or ``t_hi`` moved by 1/64,
    one trace verdict flipped or trace t moved, one report status flipped,
    one Farkas entry bumped, zeroed or moved, or one witness coordinate
    negated or shifted."""
    doc = json.loads(_search_text(*draw(st.sampled_from([(6, CPolicy(2, 1, 4)), (20, DEFAULT_POLICY)]))))
    _mutate_entries(draw, doc, doc["lower_report"]["cases"] + doc["upper_report"]["cases"])
    return doc


@given(mutated_search_doc())
@settings(max_examples=60, deadline=None)
def test_accepted_search_claims_hold(doc):
    """Whenever ``verify-cert`` accepts a mutated search document, phase-1
    simplex on ``build_case_system`` finds every case infeasible at t_lo and
    some case feasible at t_hi, and agrees with every status each report
    claims."""
    if verify_certificate_text(json.dumps(doc))[0] != EXIT_CERTIFIED:
        return
    policy, variant = CPolicy.parse(doc["policy"]), Variant(doc["variant"])
    lower = _simplex_case_statuses(parse_rational(doc["t_lo"]), policy, variant, ALL_CASES)
    upper = _simplex_case_statuses(parse_rational(doc["t_hi"]), policy, variant, ALL_CASES)
    assert "feasible" not in lower and "feasible" in upper
    for report in (doc["lower_report"], doc["upper_report"]):
        cases = tuple(JCase(entry["case"]) for entry in report["cases"])
        claimed = tuple(entry["status"] for entry in report["cases"])
        assert claimed == _simplex_case_statuses(parse_rational(report["t"]), policy, variant, cases)


@functools.lru_cache(maxsize=None)
def _sweep_text() -> str:
    ranked, skipped = sweep_policies(POLICIES + [CPolicy(3, 0, 1)], F(3), F(5), 4)
    return json.dumps(sweep_report_doc(ranked, skipped, Variant.SYMMETRIZED, 4))


@st.composite
def mutated_sweep_doc(draw):
    """The sweep document of ``POLICIES`` over [3, 5] with 4 iterations, 3,0,1
    skipped, with one mutation: a ranked entry's ``t_lo`` or ``t_hi`` moved
    by 1/64 or by the bracket width 1/8, or its policy replaced by one of
    ``GUARDED_POLICIES``, ``iters`` moved by 1, or one mutation of
    ``mutated_search_doc`` in the search an entry embeds."""
    doc = json.loads(_sweep_text())
    _mutate_entries(draw, doc, [])
    return doc


@given(mutated_sweep_doc())
@settings(max_examples=60, deadline=None)
def test_accepted_sweep_claims_hold(doc):
    """Whenever ``verify-cert`` accepts a mutated sweep document, phase-1
    simplex on ``build_case_system`` finds, for each ranked entry's policy,
    every case infeasible at its t_lo and some case feasible at its t_hi."""
    if verify_certificate_text(json.dumps(doc))[0] != EXIT_CERTIFIED:
        return
    variant = Variant(doc["variant"])
    for entry in doc["results"]:
        policy = CPolicy.parse(entry["policy"])
        lower = _simplex_case_statuses(parse_rational(entry["t_lo"]), policy, variant, ALL_CASES)
        upper = _simplex_case_statuses(parse_rational(entry["t_hi"]), policy, variant, ALL_CASES)
        assert "feasible" not in lower and "feasible" in upper


def test_certify_holds_no_system_layout():
    """What a case or assignment system is lives in ``systems`` alone: the
    producer module defines no table lookup, echo renderer or Farkas key of
    its own, its ``CaseReport`` builds no systems, and it imports none of
    the names that building or rendering a system takes.  The names it
    imports unused, for the benchmark's tracer to wrap, stay."""
    import ast
    import bmbounds.certify as certify_mod

    with open(certify_mod.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined.isdisjoint({"_metas", "_tables", "_echo", "_farkas_key"})
    [report] = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "CaseReport"]
    members = {target.id for node in report.body for target in (
        [node.target] if isinstance(node, ast.AnnAssign) else getattr(node, "targets", []))
        if isinstance(target, ast.Name)}
    members |= {node.name for node in report.body if isinstance(node, ast.FunctionDef)}
    assert "results" in members and "systems" not in members
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert imported.isdisjoint({"LinearSystem", "table_system", "TableRow", "row_entry", "case_meta",
                                "NONNEG_PAIRS", "CASE_TABLES"})
    assert {"check_feasibility", "verify_certificate", "build_all_cases", "build_case_system",
            "build_dichotomy_systems", "parse_system_file", "serialize_system"} <= imported
