import itertools
import json
import random
from fractions import Fraction

import pytest

from bmbounds.exactlp import GE, LE, LinearSystem
from bmbounds.systems import (
    ALL_CASES,
    CPolicy,
    DEFAULT_POLICY,
    DomainError,
    JCase,
    SystemFormatError,
    Variant,
    branch_row,
    build_case_system,
    build_dichotomy_systems,
    parse_system_file,
    serialize_system,
    system_doc,
    system_from_doc,
)

F = Fraction

EXPECTED_LABELS = {
    JCase.J012: ["7a", "7b", "7c", "7d.1", "7d.2"],
    JCase.NOT0: ["6a", "6b", "6b2", "6c", "6d.1", "6d.2"],
    JCase.IN0_NOT1: ["8a", "8b", "8c", "8d", "8e", "8f.1", "8f.2"],
    JCase.IN01_NOT2: ["9a", "9b", "9c", "9d", "9e", "9f.1", "9f.2"],
}


class TestBuildCaseSystem:
    def test_pair_gap_row_at_113_32(self):
        # policy (8t+1)/16 gives c = 117/64 at t = 113/32
        sys_ = build_case_system(JCase.J012, F(113, 32), CPolicy(8, 1, 16))
        row = next(i for i in sys_.inequalities if i.label == "7a")
        assert row.relation == LE
        assert row.coeffs == {"th2": F(1), "a": F(1)}
        assert row.rhs == F(1921, 2592)

    def test_mass_row_verbatim_in_not0(self):
        sys_ = build_case_system(JCase.NOT0, F(3), DEFAULT_POLICY)
        row = next(i for i in sys_.inequalities if i.label == "6c")
        assert row.relation == GE
        assert row.coeffs == {"th0": F(1), "th1": F(1), "th2": F(1), "a": F(1)}
        assert row.rhs == F(1)

    def test_t_equal_one_domain_error(self):
        with pytest.raises(DomainError, match="t - 1"):
            build_case_system(JCase.J012, F(1), DEFAULT_POLICY)

    def test_c_band_violation(self):
        # c(t) = t + 1 > t for every t
        with pytest.raises(DomainError, match="t/2 <= c <= t"):
            build_case_system(JCase.J012, F(4), CPolicy(1, 1, 1))

    def test_c_below_half(self):
        with pytest.raises(DomainError, match="t/2 <= c <= t"):
            build_case_system(JCase.J012, F(4), CPolicy(1, 0, 3))

    def test_policy_requires_positive_r(self):
        with pytest.raises(DomainError, match="r > 0"):
            CPolicy(1, 0, 0)

    @pytest.mark.parametrize("variant", [Variant.PRINTED, Variant.SYMMETRIZED])
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_label_completeness(self, case, variant):
        sys_ = build_case_system(case, F(113, 32), DEFAULT_POLICY, variant)
        assert [i.label for i in sys_.inequalities] == EXPECTED_LABELS[case]
        assert sys_.variables == ("th0", "th1", "th2", "a")
        assert sys_.nonneg == frozenset(sys_.variables)

    def test_variant_isolation(self):
        """printed vs symmetrized differ exactly in the 8d row."""
        for case in ALL_CASES:
            printed = build_case_system(case, F(113, 32), DEFAULT_POLICY, Variant.PRINTED)
            sym = build_case_system(case, F(113, 32), DEFAULT_POLICY, Variant.SYMMETRIZED)
            for a, b in zip(printed.inequalities, sym.inequalities):
                assert a.label == b.label
                if a.label == "8d":
                    assert a.coeffs != b.coeffs
                else:
                    assert (a.coeffs, a.relation, a.rhs) == (b.coeffs, b.relation, b.rhs)

    def test_ordering_rows(self):
        sys_ = build_case_system(JCase.J012, F(4), DEFAULT_POLICY)
        r1 = next(i for i in sys_.inequalities if i.label == "7d.1")
        assert r1.coeffs == {"th0": F(1), "th1": F(-1)} and r1.rhs == 0
        r2 = next(i for i in sys_.inequalities if i.label == "7d.2")
        assert r2.coeffs == {"th1": F(1), "th2": F(-1)} and r2.rhs == 0


def _display_value(label, t, c, point, variant=Variant.SYMMETRIZED):
    """Independent evaluation of 'RHS of the display minus t' at a point.

    Written from the display expressions directly, as the oracle for the
    rearranged rows the builder emits.
    """
    th0, th1, th2, a = (point[v] for v in ("th0", "th1", "th2", "a"))
    u = (t + c) / 2
    kappa = (t - c - 1) / c
    if label in ("7a", "6a", "8a", "9a"):
        return 2 * t / (t - 1) + th2 + a - t
    if label in ("7b", "8b", "9b"):
        return 2 * (t - th0) / (t - 1) - th0 + th1 + th2 + a - t
    if label == "6b":
        return 2 * (c - th0) / (c - 1) - th0 + th1 + th2 + a - t
    if label == "8c":
        return 2 * (c - th1) / (c - 1) - th1 + th0 + th2 + a - t
    if label == "9c":
        return 2 * (c - th2) / (c - 1) - th2 + th0 + th1 + a - t
    if label == "6b2":
        return 2 * (u - (th0 - (th1 + th2) / 2)) / (u - 1) - th0 + th1 + th2 + a - t
    if label == "8d":
        frac = 2 * (u - (th1 - (th0 + th2) / 2)) / (u - 1)
        if variant == Variant.PRINTED:
            return frac + th2 + a - t
        return frac - th1 + th0 + th2 + a - t
    if label == "9d":
        return 2 * (u - (th2 - (th0 + th1) / 2)) / (u - 1) - th2 + th0 + th1 + a - t
    if label == "7c":
        return 1 - (kappa * (th0 + th1 + th2) + a)
    if label == "6c":
        return 1 - (th0 + th1 + th2 + a)
    if label in ("8e", "9e"):
        return 1 - (th0 + kappa * (th1 + th2) + a)
    raise AssertionError(f"unhandled label {label}")


def test_cleared_rows_match_displays_at_random_points():
    """Row slack == display slack exactly, for 20 random t and random points."""
    rng = random.Random(7)
    for _ in range(20):
        t = F(3) + F(rng.randint(1, 1999), 1000)  # t in (3, 5)
        for variant in (Variant.PRINTED, Variant.SYMMETRIZED):
            for case in ALL_CASES:
                sys_ = build_case_system(case, t, DEFAULT_POLICY, variant)
                c = DEFAULT_POLICY.c_at(t)
                point = {v: F(rng.randint(0, 400), 100) for v in sys_.variables}
                for ineq in sys_.inequalities:
                    if ineq.label.endswith(".1") or ineq.label.endswith(".2"):
                        continue
                    row_slack = ineq.evaluate(point) - ineq.rhs
                    if ineq.relation == GE:
                        row_slack = -row_slack
                    disp = _display_value(ineq.label, t, c, point, variant)
                    assert row_slack == disp, (case, ineq.label, t)


class TestSerialization:
    def test_roundtrip_unit_square(self):
        from bmbounds.exactlp import LinearInequality

        sys_ = LinearSystem(
            ("x", "y"),
            (
                LinearInequality({"x": F(1)}, LE, F(1), "u1"),
                LinearInequality({"y": F(1)}, LE, F(1), "u2"),
            ),
            frozenset(("x", "y")),
        )
        text = serialize_system(sys_)
        back = parse_system_file(text)
        assert back == sys_
        assert serialize_system(back) == text

    def test_roundtrip_case_system(self):
        sys_ = build_case_system(JCase.J012, F(113, 32), DEFAULT_POLICY)
        assert parse_system_file(serialize_system(sys_)) == sys_
        assert system_from_doc(system_doc(sys_)) == sys_

    def test_document_must_be_an_object(self):
        for read in (system_from_doc, lambda doc: parse_system_file(json.dumps(doc))):
            with pytest.raises(SystemFormatError, match="top-level value must be an object"):
                read(["variables"])

    def test_zero_denominator_rejected(self):
        text = serialize_system(build_case_system(JCase.J012, F(4), DEFAULT_POLICY))
        bad = text.replace('"rhs": "1"', '"rhs": "1/0"')
        with pytest.raises(SystemFormatError):
            parse_system_file(bad)

    def test_decimal_rejected(self):
        bad = '{"variables": ["x"], "nonneg": [], "inequalities": [{"label": "r", "coeffs": {"x": "1.5"}, "rel": "<=", "rhs": "1"}]}'
        with pytest.raises(SystemFormatError, match="rational"):
            parse_system_file(bad)

    def test_unknown_relation_rejected(self):
        bad = '{"variables": ["x"], "nonneg": [], "inequalities": [{"label": "r", "coeffs": {"x": "1"}, "rel": "<", "rhs": "1"}]}'
        with pytest.raises(SystemFormatError, match="relation"):
            parse_system_file(bad)

    def test_undeclared_variable_rejected(self):
        bad = '{"variables": ["x"], "nonneg": [], "inequalities": [{"label": "r", "coeffs": {"z": "1"}, "rel": "<=", "rhs": "1"}]}'
        with pytest.raises(SystemFormatError, match="undeclared"):
            parse_system_file(bad)

    def test_invalid_json_reports_line(self):
        with pytest.raises(SystemFormatError, match="line"):
            parse_system_file("{not json")


class TestDichotomy:
    def test_branch_b_row_form(self):
        t = F(113, 32)
        row = branch_row(t, 0, "b")
        two = F(2) / (t - 1)
        assert row.coeffs == {
            "th0": two + 1,
            "th1": 1 - two,
            "th2": 1 - two,
            "a": 1 - two,
        }
        assert row.rhs == t - 2 * t / (t - 1)

    def test_branch_a_row_form(self):
        t = F(4)
        row = branch_row(t, 1, "a")
        two = F(2) / (t - 1)
        assert row.coeffs == {
            "th1": -two - 1,
            "th0": two + 1,
            "th2": two + 1,
            "a": two + 1,
        }

    def test_systems_augment_base(self):
        t = F(113, 32)
        base = build_case_system(JCase.J012, t, DEFAULT_POLICY)
        branches, systems = build_dichotomy_systems(t, DEFAULT_POLICY)[2]
        assert branches == "aba"
        first = systems[0]
        assert first.inequalities[: len(base.inequalities)] == base.inequalities
        assert [i.label for i in first.inequalities[len(base.inequalities):]] == [
            "B0a",
            "B1b",
            "B2a",
        ]

    def test_assignments_in_product_order(self):
        t = F(4)
        for functions in ((0,), (0, 2), (0, 1, 2)):
            assignments = build_dichotomy_systems(t, DEFAULT_POLICY, functions)
            assert len(assignments) == 2 ** len(functions)
            assert [b for b, _ in assignments] == [
                "".join(c) for c in itertools.product("ab", repeat=len(functions))]
            for branches, systems in assignments:
                extra = tuple(branch_row(t, m, br) for m, br in zip(functions, branches))
                for case, sys_ in zip(ALL_CASES, systems):
                    base = build_case_system(case, t, DEFAULT_POLICY)
                    assert sys_.meta == {**base.meta, "branches": branches}
                    assert sys_.inequalities == base.inequalities + extra

    def test_empty_config_degenerates_to_base(self):
        [(branches, systems)] = build_dichotomy_systems(F(4), DEFAULT_POLICY, functions=())
        assert branches == ""
        for case, sys_ in zip(ALL_CASES, systems):
            base = build_case_system(case, F(4), DEFAULT_POLICY)
            assert sys_.inequalities == base.inequalities
            assert sys_.meta == {**base.meta, "branches": ""}
