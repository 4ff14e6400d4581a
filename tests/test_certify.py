import json
import random
from fractions import Fraction

import pytest

from bmbounds.certify import (
    EXIT_CERTIFIED,
    EXIT_INPUT_ERROR,
    EXIT_NOT_CERTIFIED,
    BracketError,
    binary_search_bound,
    certify_at,
    certify_dichotomy,
    certify_report_doc,
    dichotomy_report_doc,
    search_report_doc,
    sweep_policies,
    verify_certificate_text,
)
from bmbounds.exactlp import check_feasibility, verify_certificate
from bmbounds.rationals import format_rational, parse_rational
from bmbounds.systems import (
    ALL_CASES,
    CPolicy,
    DEFAULT_POLICY,
    JCase,
    Variant,
    build_case_system,
)

F = Fraction

POLICIES = [CPolicy(1, 0, 2), CPolicy(1, 1, 2), CPolicy(2, 1, 4)]


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
        for case in ALL_CASES:
            assert verify_certificate(report.systems[case], report.results[case])

    def test_guard_propagates(self):
        from bmbounds.systems import DomainError

        with pytest.raises(DomainError):
            certify_at(F(1))


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
        # The report at hi, which its bracket check left partial, is completed.
        assert list(bound.report_hi.results) == list(ALL_CASES)
        assert bound.report_hi.results == certify_at(F(5)).results
        assert bound.report_hi.systems == certify_at(F(5)).systems

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
        (CPolicy(2, 1, 4), 6, 21),  # 32 when every probe decided all four cases
        (DEFAULT_POLICY, 20, 75),   # 88 likewise
    ])
    def test_probes_stop_at_first_feasible_case(self, monkeypatch, policy, iters, calls):
        import bmbounds.certify as certify_mod

        decided = []

        def counting(system):
            decided.append(system)
            return check_feasibility(system)

        monkeypatch.setattr(certify_mod, "check_feasibility", counting)
        bound = binary_search_bound(F(3), F(5), iters, policy)
        assert len(decided) == calls
        for report in (bound.report_lo, bound.report_hi):
            assert list(report.results) == list(ALL_CASES)

    def test_probes_build_only_the_cases_they_decide(self, monkeypatch):
        import bmbounds.certify as certify_mod
        import bmbounds.systems as systems_mod

        built, decided = [], []

        def building(*args, **kwargs):
            built.append(args)
            return build_case_system(*args, **kwargs)

        def counting(system):
            decided.append(system)
            return check_feasibility(system)

        for module in (certify_mod, systems_mod):
            monkeypatch.setattr(module, "build_case_system", building)
        monkeypatch.setattr(certify_mod, "check_feasibility", counting)
        bound = binary_search_bound(F(3), F(5), 6, CPolicy(2, 1, 4))
        assert len(built) == len(decided) == 21  # 32 builds when every probe built all four
        for report in (bound.report_lo, bound.report_hi):
            assert list(report.systems) == list(ALL_CASES)
            assert report.systems == {case: build_case_system(case, report.t, CPolicy(2, 1, 4))
                                      for case in ALL_CASES}


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
        for assignment in report.assignments:
            for case in ALL_CASES:
                assert verify_certificate(
                    assignment.systems[case], assignment.results[case]
                )

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
        for case in ALL_CASES:
            assert only.systems[case].inequalities == base.systems[case].inequalities


class TestCertificateFiles:
    def test_certify_doc_verifies(self):
        doc = certify_report_doc(certify_at(F(113, 32)))
        code, msg = verify_certificate_text(json.dumps(doc))
        assert code == EXIT_CERTIFIED, msg

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

    def test_truncated_file_is_input_error(self):
        doc = certify_report_doc(certify_at(F(113, 32)))
        text = json.dumps(doc)
        code, _ = verify_certificate_text(text[: len(text) // 2])
        assert code == EXIT_INPUT_ERROR

    def test_search_audit_is_offline(self, monkeypatch):
        """Re-verification never calls the solver."""
        doc = search_report_doc(binary_search_bound(F(3), F(5), 4))
        import bmbounds.certify as certify_mod

        def boom(*args, **kwargs):  # pragma: no cover
            raise AssertionError("solver must not run during audit")

        monkeypatch.setattr(certify_mod, "check_feasibility", boom)
        code, msg = verify_certificate_text(json.dumps(doc))
        assert code == EXIT_CERTIFIED, msg


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
    ], ids=["flipped-verdict", "appended-probe", "dropped-probe", "edited-midpoint",
            "flipped-and-appended", "reordered"])
    def test_forged_search_trace(self, search_doc, forge):
        doc = json.loads(json.dumps(search_doc))
        forge(doc)
        assert self.audit(doc)[0] == EXIT_NOT_CERTIFIED

    def test_non_boolean_trace_verdict_is_malformed(self, search_doc):
        doc = json.loads(json.dumps(search_doc))
        doc["trace"][2]["all_infeasible"] = "false"
        assert self.audit(doc)[0] == EXIT_INPUT_ERROR

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
    "last-dropped": ((2, 1, 1), lambda s: s["inequalities"].pop()),
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
            EXIT_INPUT_ERROR: "malformed certificate: Farkas vector has length 10, expected 9",
        }[code]
        assert verify_certificate_text(json.dumps(doc)) == (code, message)


class TestAuditWork:
    """Each dichotomy base system is built once per t, and audits serialize nothing."""

    @pytest.fixture
    def built(self, monkeypatch):
        import bmbounds.certify as certify_mod
        import bmbounds.systems as systems_mod

        calls = []

        def building(*args, **kwargs):
            calls.append(args)
            return build_case_system(*args, **kwargs)

        for module in (certify_mod, systems_mod):
            monkeypatch.setattr(module, "build_case_system", building)
        return calls

    def test_dichotomy_builds_each_base_once(self, built):
        report = certify_dichotomy(F(113, 32))
        assert len(built) == 4  # 32 when every assignment rebuilt the bases
        assert report.certified
        built.clear()
        assert verify_certificate_text(json.dumps(dichotomy_report_doc(report)))[0] == EXIT_CERTIFIED
        assert len(built) == 4

    def test_audit_serializes_nothing(self, monkeypatch):
        import bmbounds.certify as certify_mod
        import bmbounds.systems as systems_mod

        docs = [certify_report_doc(certify_at(F(113, 32))),
                search_report_doc(binary_search_bound(F(3), F(5), 4)),
                dichotomy_report_doc(certify_dichotomy(F(18, 5), functions=(0, 2)))]

        def boom(*args, **kwargs):  # pragma: no cover
            raise AssertionError("audit must not serialize a system")

        for module in (certify_mod, systems_mod):
            monkeypatch.setattr(module, "serialize_system", boom)
        for doc in docs:
            assert verify_certificate_text(json.dumps(doc)) == (
                EXIT_CERTIFIED, "all certificates verified")

    def test_functions_list_is_bounded_before_any_build(self, built):
        doc = dichotomy_report_doc(certify_dichotomy(F(18, 5), functions=(0, 2)))
        doc["functions"] = [0, 1, 2, 0] * 10
        built.clear()
        assert verify_certificate_text(json.dumps(doc)) == (
            EXIT_NOT_CERTIFIED,
            f"assignments are not the {2 ** 40} branch combinations of functions"
            f" {doc['functions']} in order")
        assert built == []
