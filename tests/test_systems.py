import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bmbounds.exactlp import GE, LE, SystemError_
from bmbounds.rationals import format_rational
from bmbounds.reference import LinearSystem, branch_row, system_pairs, system_rows
from bmbounds.systems import (
    ALL_CASES,
    BRANCH_ROWS,
    CASE_TABLES,
    CPolicy,
    DEFAULT_POLICY,
    DomainError,
    JCase,
    SystemFormatError,
    Variant,
    VARIABLES,
    _guards,
    build_case_system,
    case_echoes,
    case_metas,
    case_pairs,
    case_point,
    case_rows,
    build_dichotomy_systems,
    parse_system_file,
    row_entry,
    serialize_system,
    system_doc,
    system_from_doc,
    with_branches,
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
        """So do ``_replace`` and ``_make``, which build through the same guard."""
        assert DEFAULT_POLICY._replace(q=3) == CPolicy(2, 3, 4)
        for make in (lambda: CPolicy(1, 0, 0), lambda: DEFAULT_POLICY._replace(r=0),
                     lambda: CPolicy._make((1, 0, -1))):
            with pytest.raises(DomainError, match="r > 0"):
                make()

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
    if label.endswith((".1", ".2")):  # th_j <= th_{j+1}
        j = int(label[-1]) - 1
        return (th0, th1, th2)[j] - (th0, th1, th2)[j + 1]
    if label[0] == "B":
        # x = th_m, y = a + the other atom masses; branch a, then branch b
        x = (th0, th1, th2)[int(label[1])]
        y = th0 + th1 + th2 + a - x
        if label[2] == "a":
            return 2 * (t - x + y) / (t - 1) - x + y - t
        return 2 * (t + x - y) / (t - 1) + x + y - t
    raise AssertionError(f"unhandled label {label}")


def test_cleared_rows_match_displays_at_random_points():
    """Row slack == display slack exactly, for 20 random t under the default
    policy, the edge points of the row tables and random t under other guarded
    policies, at random points; the branch rows B{m}{a,b} included."""
    rng = random.Random(7)

    def inputs():
        for _ in range(20):
            yield F(3) + F(rng.randint(1, 1999), 1000), DEFAULT_POLICY  # t in (3, 5)
        yield from TestCaseRowTables.EDGE_POINTS
        for policy in (CPolicy(1, 0, 1), CPolicy(1, 0, 2), CPolicy(3, 1, 4), CPolicy(8, 1, 16)):
            for _ in range(3):
                yield F(3) + F(rng.randint(1, 1999), 1000), policy

    for t, policy in inputs():
        c = policy.c_at(t)
        branches = tuple(branch_row(t, m, br) for m in range(3) for br in "ab")
        for variant in (Variant.PRINTED, Variant.SYMMETRIZED):
            for case in ALL_CASES:
                sys_ = build_case_system(case, t, policy, variant)
                point = {v: F(rng.randint(0, 400), 100) for v in sys_.variables}
                for ineq in sys_.inequalities + branches:
                    row_slack = ineq.evaluate(point) - ineq.rhs
                    if ineq.relation == GE:
                        row_slack = -row_slack
                    disp = _display_value(ineq.label, t, c, point, variant)
                    assert row_slack == disp, (case, ineq.label, t, policy)


class TestCaseRowTables:
    """The row tables the probes decide from, proved against the builders:
    each table row is the base row ``system_rows`` clears from the built row
    (primitive direction, reduced rhs pair, leading-coefficient pair)."""

    FACTORS = {"t-1", "c-1", "u-1", "c", "1"}

    @staticmethod
    def assert_rows_match(t, policy):
        point = case_point(t, policy)
        for case in ALL_CASES:
            for variant in Variant:
                built = build_case_system(case, t, policy, variant)
                rows = case_rows(case, point, variant)
                assert len(rows) == len(system_rows(built))
                for label, row, expected in zip(
                        [ineq.label for ineq in built.inequalities] + ["nonneg"] * 4,
                        rows, system_rows(built)):
                    assert row == expected, (format_rational(t), policy.key(), variant, label)

    @pytest.mark.parametrize("case", ALL_CASES, ids=[c.value for c in ALL_CASES])
    def test_labels_and_factors(self, case):
        assert [row.label for row in CASE_TABLES[case]] == EXPECTED_LABELS[case]
        assert {row.factor for row in CASE_TABLES[case]} <= self.FACTORS

    EDGE_POINTS = [
        (F(5, 2), CPolicy(2, 1, 4)),     # t - c = 1: kappa = 0, a zero entry in 7c, 8e, 9e
        (F(7, 2), CPolicy(1, 0, 1)),     # c = t
        (F(7, 2), CPolicy(1, 0, 2)),     # c = t/2
        (3 + F(1, 2**61 + 1), DEFAULT_POLICY),
        (F(2**64 + 3, 2**62 + 1), CPolicy(3, 1, 4)),
    ]
    EDGE_IDS = ["kappa-0", "c-t", "c-half-t", "den-2^61", "den-2^62"]

    @pytest.mark.parametrize("t, policy", EDGE_POINTS, ids=EDGE_IDS)
    def test_edge_points(self, t, policy):
        self.assert_rows_match(t, policy)

    @pytest.mark.parametrize("t, policy", EDGE_POINTS + [
        (F(3), DEFAULT_POLICY),           # t = 3: branch b's entries off th_m vanish
        (F(2**70 + 1, 2**68 + 3), CPolicy(1, 1, 2)),
    ], ids=EDGE_IDS + ["t-3", "t-2^70"])
    def test_branch_rows(self, t, policy):
        """``BRANCH_ROWS[m, branch].make`` gives the base row ``system_rows`` clears
        from ``branch_row``."""
        point = case_point(t, policy)
        for m in range(3):
            for branch in "ab":
                built = LinearSystem(VARIABLES, (branch_row(t, m, branch),))
                assert BRANCH_ROWS[m, branch].make(point) == system_rows(built)[0], (m, branch)
        if t == 3:
            assert BRANCH_ROWS[1, "b"].make(point)[0] == (0, 1, 0, 0)

    def test_kappa_zero_drops_the_entry(self):
        [row_7c] = [row for ineq, row in zip(
            build_case_system(JCase.J012, F(5, 2)).inequalities,
            case_rows(JCase.J012, case_point(F(5, 2), DEFAULT_POLICY))) if ineq.label == "7c"]
        assert row_7c == ((0, 0, 0, -1), -1, 1, 1, 1)

    def test_zero_entries_are_echoed(self):
        """A row echoes every key it writes, zeros included: at t = 5/2 under
        policy 2,1,4 (kappa = 0) the scaled entries of the mass rows 7c, 8e
        and 9e are 0, and at t = 3 branch b's entries off th_m are 0."""
        coeffs = {}
        for case in (JCase.J012, JCase.IN0_NOT1, JCase.IN01_NOT2):
            rows = system_doc(build_case_system(case, F(5, 2), CPolicy(2, 1, 4)))["inequalities"]
            coeffs.update((row["label"], row["coeffs"]) for row in rows)
        assert [coeffs["7c"][v] for v in ("th0", "th1", "th2")] == ["0"] * 3
        for label in ("8e", "9e"):
            assert [coeffs[label][v] for v in ("th1", "th2")] == ["0"] * 2, label
        for m in range(3):
            system = LinearSystem(VARIABLES, (branch_row(F(3), m, "b"),))
            [entry] = system_doc(system)["inequalities"]
            assert [entry["coeffs"][v] for v in VARIABLES if v != VARIABLES[m]] == ["0"] * 3, m

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    @pytest.mark.parametrize("policy", [CPolicy(2, 1, 4), CPolicy(1, 0, 2), CPolicy(0, 759, 400)],
                             ids=CPolicy.key)
    @pytest.mark.parametrize("t", [F(5, 2), F(3), F(113, 32), F(15, 4)], ids=str)
    def test_pair_rendering_cannot_drift(self, t, policy, variant):
        """verify-cert accepts an echo unparsed when it equals the rendering
        of its expected rows' pair rows (``row_entry`` of ``TableRow.pairs``):
        that rendering must be, byte for byte, what ``system_doc`` writes for
        the built case system and for each branch system, and what the
        Fraction coefficients format to, zero entries included (the kappa = 0
        mass rows at t = 5/2 under 2,1,4, branch b's at t = 3).  The whole
        echo documents write and the audit expects (``case_echoes`` of the
        ``case_metas``: variables, nonneg, inequalities and meta, in key
        order) must be ``system_doc``'s too, and the pair rows it gives with
        it those the built system reads (``reference.system_pairs``)."""
        point, metas = case_metas(t, policy, variant)

        def rendered(rows):
            return json.dumps([row_entry(row.label, row.pairs(point, variant)) for row in rows])

        def written(system):
            assert json.dumps(system_doc(system)["inequalities"]) == json.dumps([
                {"label": ineq.label, "coeffs": {v: format_rational(c) for v, c in ineq.coeffs.items()},
                 "rel": ineq.relation, "rhs": format_rational(ineq.rhs)}
                for ineq in system.inequalities])
            return json.dumps(system_doc(system)["inequalities"])

        def echoed(case, system, functions=None, branches=""):
            pairs, echo = case_echoes({}, point, metas, variant, functions, branches)[case]
            assert pairs == system_pairs(system), (case, branches)
            return json.dumps(echo)

        for case in ALL_CASES:
            system = build_case_system(case, t, policy, variant)
            assert case_pairs(case, point, variant) == system_pairs(system)
            assert rendered(CASE_TABLES[case]) == written(system), case
            assert echoed(case, system) == json.dumps(system_doc(system)), case
        for functions in ((), (0, 2), (0, 1, 2)):
            for branches, systems in build_dichotomy_systems(t, policy, functions, variant):
                extra = tuple(BRANCH_ROWS[m, br] for m, br in zip(functions, branches))
                for case, system in zip(ALL_CASES, systems):
                    assert rendered(CASE_TABLES[case] + extra) == written(system), (case, branches)
                    assert echoed(case, system, functions, branches) == json.dumps(system_doc(system)), (
                        case, branches)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_guarded_points(self, data):
        """Guarded (t, policy) pairs: t = n/d in (1, 9] with d up to 2**70, and
        q drawn so that c(t) = (p*t + q)/r > 1 and t/2 <= c(t) <= t."""
        d = data.draw(st.integers(1, 2**70))
        t = F(data.draw(st.integers(d + 1, 9 * d)), d)
        p, r = data.draw(st.integers(-2, 6)), data.draw(st.integers(1, 16))
        q_min = max(math.floor(r - p * t) + 1, math.ceil(r * t / 2 - p * t))
        q_max = math.floor(r * t - p * t)
        assume(q_min <= q_max)
        policy = CPolicy(p, data.draw(st.integers(q_min, q_max)), r)
        self.assert_rows_match(t, policy)

    @pytest.mark.parametrize("t, policy, guard", [
        (F(1), DEFAULT_POLICY, "t - 1 must be positive"),
        (F(1, 2), DEFAULT_POLICY, "t - 1 must be positive"),
        (F(3, 2), CPolicy(0, 1, 1), "c - 1 must be positive"),
        (F(5, 4), CPolicy(1, -1, 1), "c - 1 must be positive"),
        (F(4), CPolicy(1, 1, 1), "t/2 <= c <= t"),
        (F(4), CPolicy(1, 0, 3), "t/2 <= c <= t"),
    ])
    def test_integer_guards_fail_as_guards_do(self, t, policy, guard):
        with pytest.raises(DomainError, match=guard) as by_point:
            case_point(t, policy)
        with pytest.raises(DomainError) as by_guards:
            _guards(t, policy)
        assert str(by_point.value) == str(by_guards.value)

    def test_integer_guards_pass_where_guards_do(self):
        """Over a grid of t and policies, ``case_point`` raises exactly where
        ``_guards`` does, and then with its text."""
        for t, p, q, r in itertools.product(
                [F(k, 4) for k in range(1, 25)], range(-2, 4), range(-4, 5), range(1, 5)):
            policy = CPolicy(p, q, r)
            try:
                _guards(t, policy)
                expected = None
            except DomainError as exc:
                expected = str(exc)
            try:
                case_point(t, policy)
                got = None
            except DomainError as exc:
                got = str(exc)
            assert got == expected, (t, policy)


class TestSerialization:
    def test_roundtrip_unit_square(self):
        from bmbounds.reference import LinearInequality

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
        for m, branch, message in ((3, "a", "tail index must be 0, 1 or 2, got 3"),
                                   (0, "c", "branch must be 'a' or 'b', got 'c'")):
            with pytest.raises(SystemError_, match=message):
                branch_row(t, m, branch)

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

    @pytest.mark.parametrize("t", [F(113, 32), F(4)], ids=str)
    def test_branches_are_spliced_where_the_echo_puts_them(self, t):
        """``with_branches`` puts an assignment's branch entries in one place
        in a case's base rows, pair rows and Farkas vector alike: the base
        rows are those ``system_rows`` clears from the built assignment
        system, the pair rows those ``case_echoes`` gives, and a vector's
        entries land on the branch rows.  The rows it is given are the
        objects it returns, none made again."""
        point, metas = case_metas(t, DEFAULT_POLICY, Variant.SYMMETRIZED)
        for functions in ((), (1,), (0, 2), (0, 1, 2)):
            for branches, systems in build_dichotomy_systems(t, DEFAULT_POLICY, functions):
                keys = list(zip(functions, branches))
                echoes = case_echoes({}, point, metas, Variant.SYMMETRIZED, functions, branches)
                for case, system in zip(ALL_CASES, systems):
                    base, made = case_rows(case, point), [BRANCH_ROWS[key].make(point) for key in keys]
                    rows = with_branches(base, made)
                    assert rows == system_rows(system)
                    assert sorted(map(id, rows)) == sorted(map(id, base + made))
                    pairs = [BRANCH_ROWS[key].pairs(point) for key in keys]
                    assert with_branches(case_pairs(case, point), pairs) == echoes[case][0]
                    marks = with_branches((0,) * len(base), (1,) * len(keys))
                    assert marks == tuple([int(ineq.label.startswith("B")) for ineq in system.inequalities]
                                          + [0] * len(VARIABLES))

    def test_empty_config_degenerates_to_base(self):
        [(branches, systems)] = build_dichotomy_systems(F(4), DEFAULT_POLICY, functions=())
        assert branches == ""
        for case, sys_ in zip(ALL_CASES, systems):
            base = build_case_system(case, F(4), DEFAULT_POLICY)
            assert sys_.inequalities == base.inequalities
            assert sys_.meta == {**base.meta, "branches": ""}
