import hashlib
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bmbounds import upperiso
from bmbounds.cli import main
from bmbounds.upperiso import (
    S_TABLE,
    T_TABLE,
    _S_COMPILED,
    _T_COMPILED,
    CubicFormulaReport,
    IsoDomainError,
    IsoMatrices,
    NormReport,
    ShapeError,
    TransformedSequence,
    TruncatedFunction,
    _mat_mul,
    _row_norms,
    _scaled,
    apply_S,
    apply_T,
    build_matrices,
    cubic_formula_value,
    inverse_closed_form,
    norm_report,
    operator_norm_S,
    operator_norm_T,
    optimize_distortion,
    scan_distortion,
)
from test_golden import GOLDEN

F = Fraction
IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def rand_fraction(rng, lo=-9, hi=9, den=9):
    return F(rng.randint(lo, hi), rng.randint(1, den))


def rand_function(rng, n_levels=10):
    return TruncatedFunction(
        tuple(tuple(rand_fraction(rng) for _ in range(3)) for _ in range(n_levels)),
        tuple(rand_fraction(rng) for _ in range(3)),
    )


def sign_pattern_input(mats: IsoMatrices, row_id: str, n_levels: int = 1) -> TruncatedFunction:
    """A sup-norm-one input whose image under T attains the given row of M or tail_block."""
    def sgn(x):
        return 1 if x > 0 else (-1 if x < 0 else 0)

    kind, idx = row_id.split(":")
    i = int(idx)
    if kind == "M":
        level, limit = (0, 0, 0), tuple(sgn(x) for x in mats.M[i])
    elif kind == "tail":
        signs = tuple(sgn(x) for x in mats.tail_block[i])
        level, limit = signs[:3], signs[3:]
    else:
        raise ShapeError(f"unknown row id {row_id!r}")
    if not any(level + limit):
        raise ShapeError("zero row cannot be attained")
    return TruncatedFunction((level,) * n_levels, limit)


class TestBuildMatrices:
    def test_m_at_3(self):
        mats = build_matrices(F(3))
        assert mats.M == (
            (F(1), F(-1), F(-1)),
            (F(0), F(3, 2), F(-3, 2)),
            (F(1, 3), F(1), F(1)),
        )

    def test_c_at_3(self):
        mats = build_matrices(F(3))
        assert mats.C[0][0] == F(3, 2)
        assert mats.C[1][1] == F(4, 3) and mats.C[2][2] == F(4, 3)
        assert mats.C[0][1] == 0

    def test_inverse_exact_at_7_2(self):
        mats = build_matrices(F(7, 2))
        assert _mat_mul(mats.M, mats.Minv) == IDENTITY
        assert _mat_mul(mats.Minv, mats.M) == IDENTITY

    def test_closed_form_matches_computed(self):
        for t in (F(3), F(7, 2), F(4), F(15, 4)):
            mats = build_matrices(t)
            assert inverse_closed_form(t) == mats.Minv

    def test_closed_form_times_m_is_identity(self):
        assert _mat_mul(build_matrices(F(7, 2)).M, inverse_closed_form(F(7, 2))) == IDENTITY

    @pytest.mark.parametrize("bad", [F(5, 2), F(9, 2), 0])
    def test_domain_guard(self, bad):
        with pytest.raises(IsoDomainError):
            build_matrices(bad)

    def test_blocks_shapes(self):
        mats = build_matrices(F(7, 2))
        assert len(mats.tail_block) == 3 and all(len(r) == 6 for r in mats.tail_block)
        assert len(mats.s_tail_block) == 3 and all(len(r) == 6 for r in mats.s_tail_block)
        assert mats.M3 == mats.M[2]


def poly_mul(a, b):
    """The product of two coefficient tuples, highest power first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def interval_mul(a, b):
    """The exact range of x * y for x in the interval a and y in the interval b."""
    ends = [x * y for x in a for y in b]
    return min(ends), max(ends)


def matrix_rows(table, mats):
    """The matrix-route rows a table stands for, keyed by row id."""
    blocks = mats.M + mats.tail_block if table is T_TABLE else mats.Minv + mats.s_tail_block
    return dict(zip(table.rows, blocks))


def poly_value(coefficients, t):
    """The value at t of a coefficient tuple, highest power first."""
    value = Fraction(0)
    for c in coefficients:
        value = value * t + c
    return value


class TestRowTables:
    """T_TABLE and S_TABLE, which norm_report reads, proved against build_matrices."""

    def test_row_ids_follow_the_blocks(self):
        assert list(T_TABLE.rows) == ["M:0", "M:1", "M:2", "tail:0", "tail:1", "tail:2"]
        assert list(S_TABLE.rows) == ["Minv:0", "Minv:1", "Minv:2",
                                      "stail:0", "stail:1", "stail:2"]

    @pytest.mark.parametrize("table, entries", [(T_TABLE, 20), (S_TABLE, 19)], ids=["T", "S"])
    def test_every_entry_is_its_matrix_entry(self, table, entries):
        """The table lists exactly the nonzero entries of the matrix route, and
        N_e(t)/D(t) equals its entry at degree + 2 distinct t in [3, 4].

        D clears every denominator the construction of the direction brings
        in (t, t+1 and 4 for T; for S also t^2-t+2 and M's determinant
        -(t-2)(t^3-5t^2+2t-4)/4), so N_e(t) - D(t) * entry(t) is a polynomial of
        at most the table's degree; vanishing at more points than that
        degree, it is zero.  So
        each listed entry equals its N_e/D, which is not the zero function,
        and each entry a row leaves out, zero at all those points, is zero.
        """
        degree = len(table.denominator) - 1
        n = degree + 2
        assert sum(len(row) for row in table.rows.values()) == entries
        for row in table.rows.values():
            assert all(len(c) == degree + 1 and any(c) for c in row.values())
        for t in (3 + Fraction(k, n - 1) for k in range(n)):
            denominator = poly_value(table.denominator, t)
            for row_id, matrix_row in matrix_rows(table, build_matrices(t)).items():
                row = table.rows[row_id]
                for j, value in enumerate(matrix_row):
                    expected = poly_value(row[j], t) / denominator if j in row else 0
                    assert value == expected, (row_id, j, t)

    def test_denominators_are_positive_on_the_interval(self):
        """D_T = 4t(t+1) and D_S = -2t(t-2)(t^2-t+2)(t^3-5t^2+2t-4) are positive on [3, 4].

        The tables' denominators are these products, coefficient by
        coefficient.  Each factor's range over t in [3, 4] is bounded by
        exact interval arithmetic: t^2-t+2 = t(t-1) + 2 >= 8, and the cubic
        plus 12 factors as (t-4)(t-2)(t+1) <= 0, so the cubic stays <= -12.
        """
        product = (4,)
        for factor in ((1, 0), (1, 1)):
            product = poly_mul(product, factor)
        assert (0, 0) + product == T_TABLE.denominator
        product = (-2,)
        for factor in ((1, 0), (1, -2), (1, -1, 2), (1, -5, 2, -4)):
            product = poly_mul(product, factor)
        assert product == S_TABLE.denominator
        assert poly_mul(poly_mul((1, -4), (1, -2)), (1, 1)) == (1, -5, 2, 8)  # cubic + 12

        def shifted(lo, hi, c):
            return lo + c, hi + c

        def t_plus(c):  # the range of t + c over [3, 4]
            return shifted(F(3), F(4), c)

        cubic = shifted(*interval_mul(interval_mul(t_plus(-4), t_plus(-2)), t_plus(1)), -12)
        quadratic = shifted(*interval_mul(t_plus(0), t_plus(-1)), 2)
        assert cubic[1] == -12 and quadratic[0] == 8
        d_t = interval_mul(interval_mul((4, 4), t_plus(0)), t_plus(1))
        d_s = interval_mul(interval_mul(interval_mul((-2, -2), t_plus(0)), t_plus(-2)),
                           interval_mul(quadratic, cubic))
        assert d_t[0] > 0 and d_s[0] > 0

    def test_runtime_path_builds_no_matrix(self, monkeypatch, capsys):
        """norm_report, scan_distortion, optimize_distortion and the upper
        commands run with build_matrices gone, and give their usual results."""
        def boom(t):  # pragma: no cover
            raise AssertionError("build_matrices is not on the runtime path")

        monkeypatch.setattr(upperiso, "build_matrices", boom)
        report = norm_report(F(7, 2))
        rows = scan_distortion(F(3), F(4), F(1, 4))
        t_star, at_star = optimize_distortion(tol="1e-6")
        for command in ("upper --t 7/2 --format csv", "upper --scan 3:4:1/2",
                        "upper --optimize --tol 1e-6"):
            code = main(command.split())
            digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
            assert (code, digest) == GOLDEN[command], command
        monkeypatch.undo()

        def matrix_route(t):
            (norm_t, argmax_t), (norm_s, argmax_s) = operator_norm_T(t), operator_norm_S(t)
            return NormReport(t, norm_t, norm_s, norm_t * norm_s, argmax_t, argmax_s)

        assert report == matrix_route(F(7, 2)) and at_star == matrix_route(t_star)
        assert rows == [(r.t, r.norm_t, r.norm_s, r.distortion)
                        for r in map(matrix_route, (3 + F(k, 4) for k in range(5)))]


class TestCompiledTables:
    """The compiled tables norm_report evaluates, checked against T_TABLE and S_TABLE."""

    BOTH = pytest.mark.parametrize("table, compiled",
                                   [(T_TABLE, _T_COMPILED), (S_TABLE, _S_COMPILED)], ids=["T", "S"])

    @BOTH
    def test_entries_index_nine_polynomials(self, table, compiled):
        """Every entry is, up to sign, exactly one of 9 polynomials, no two of
        which agree up to sign, and each row's indices list exactly its entries."""
        *polys, denominator = zip(*compiled.columns)
        assert denominator == table.denominator
        assert len(polys) == 9
        assert len(set(polys) | {tuple(-x for x in c) for c in polys}) == 18
        assert compiled.row_ids == tuple(table.rows)
        for indices, entries in zip(compiled.indices, table.rows.values(), strict=True):
            assert len(indices) == len(entries)
            for i, c in zip(indices, entries.values()):
                assert [k for k, poly in enumerate(polys)
                        if poly in (c, tuple(-x for x in c))] == [i]

    @BOTH
    def test_row_norms_match_the_entries(self, table, compiled):
        """At t = p/q, including the optimizer's grid point at tol 1e-14, each
        row's l1 norm and the denominator are q**degree times their values."""
        t_star, _ = optimize_distortion(tol="1e-14")
        degree = len(table.denominator) - 1
        for t in (F(3), F(7, 2), F(31, 8), F(387513, 100000), F(4), t_star):
            p, q = t.numerator, t.denominator
            norms, denominator = _row_norms(_scaled(compiled, q), p)
            assert denominator == q**degree * poly_value(table.denominator, t)
            assert norms == [q**degree * sum(abs(poly_value(c, t)) for c in entries.values())
                             for entries in table.rows.values()], t


class TestApply:
    def test_zero_maps_to_zero(self):
        mats = build_matrices(F(7, 2))
        f = TruncatedFunction(((F(0),) * 3,) * 4, (F(0),) * 3)
        g = apply_T(f, mats)
        assert g.sup_norm() == 0
        assert apply_S(g, mats).sup_norm() == 0

    def test_constant_one_at_3(self):
        mats = build_matrices(F(3))
        f = TruncatedFunction(((F(1),) * 3,) * 2, (F(1),) * 3)
        g = apply_T(f, mats)
        assert g.head[0] == F(-1)  # (t-2) - 1 - 1 at t = 3
        assert g.head[1] == F(0)
        assert g.omega == F(7, 3)  # row sum of the third row at t = 3

    def test_roundtrip_50_random(self):
        rng = random.Random(99)
        mats = build_matrices(F(7, 2))
        for _ in range(50):
            f = rand_function(rng, n_levels=10)
            assert apply_S(apply_T(f, mats), mats) == f

    def test_roundtrip_random_t(self):
        """Inverse identity at 50 random rational t in (3, 4)."""
        rng = random.Random(7)
        for _ in range(50):
            t = F(3) + F(rng.randint(1, 999), 1000)
            mats = build_matrices(t)
            f = rand_function(rng, n_levels=10)
            assert apply_S(apply_T(f, mats), mats) == f

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            TruncatedFunction((), (F(0),) * 3)
        with pytest.raises(ShapeError):
            TruncatedFunction(((F(0),) * 2,), (F(0),) * 3)
        mats = build_matrices(F(7, 2))
        with pytest.raises(ShapeError):
            apply_S(TransformedSequence((F(0), F(0)), (), F(0)), mats)


class TestOperatorNorms:
    def test_norm_t_at_3(self):
        # Head rows and repeating tail rows 1,2 have l1 norm exactly t; the
        # remaining tail row dominates at t = 3 with 3/2 + 7/6 + 2 = 14/3.
        value, argmax = operator_norm_T(F(3))
        assert value == F(14, 3)
        assert argmax == "tail:0"

    def test_norm_s_at_3(self):
        value, argmax = operator_norm_S(F(3))
        assert value == F(19, 12)

    def test_norm_t_at_4(self):
        value, _ = operator_norm_T(F(4))
        assert value == F(4)

    def test_attainment_by_sign_pattern(self):
        """A sign-pattern input realizes the operator norm exactly."""
        for t in (F(3), F(7, 2), F(4)):
            mats = build_matrices(t)
            value, argmax = operator_norm_T(t)
            f = sign_pattern_input(mats, argmax, n_levels=3)
            assert f.sup_norm() == 1
            g = apply_T(f, mats)
            assert g.sup_norm() == value

    @pytest.mark.parametrize("t", [F(3), F(7, 2), F(4), F(387513, 100000)])
    def test_every_row_attained(self, t):
        """Each of the 12 coefficient rows is attained exactly at its own coordinate.

        T or S applied to the row's sign pattern (sup norm one) gives the
        row's l1 norm at the output coordinate that row defines, on every
        level of the truncation.
        """
        def sgn(x):
            return (x > 0) - (x < 0)

        def l1(row):
            return sum(abs(x) for x in row)

        mats = build_matrices(t)
        n = 3
        for i in range(3):
            g = apply_T(sign_pattern_input(mats, f"M:{i}", n_levels=n), mats)
            assert (*g.head, g.omega)[i] == l1(mats.M[i])

            g = apply_T(sign_pattern_input(mats, f"tail:{i}", n_levels=n), mats)
            assert all(level[i] == l1(mats.tail_block[i]) for level in g.tail)

            s = [sgn(x) for x in mats.Minv[i]]
            f = apply_S(TransformedSequence((s[0], s[1]), ((0, 0, 0),) * n, s[2]), mats)
            assert f.limit[i] == l1(mats.Minv[i])

            s = [sgn(x) for x in mats.s_tail_block[i]]
            f = apply_S(TransformedSequence((s[3], s[4]), (tuple(s[:3]),) * n, s[5]), mats)
            assert all(level[i] == l1(mats.s_tail_block[i]) for level in f.rows)

        assert operator_norm_T(t)[0] == max(map(l1, mats.M + mats.tail_block))
        assert operator_norm_S(t)[0] == max(map(l1, mats.Minv + mats.s_tail_block))

    def test_truncation_independence(self):
        """Attained norms agree for N in {1, 10, 100}."""
        t = F(7, 2)
        mats = build_matrices(t)
        value, argmax = operator_norm_T(t)
        attained = []
        for n in (1, 10, 100):
            f = sign_pattern_input(mats, argmax, n_levels=n)
            attained.append(apply_T(f, mats).sup_norm())
        assert attained[0] == attained[1] == attained[2] == value

    def test_norm_rows_repeat_for_all_levels(self):
        """Every tail level has identical coefficients, so norms ignore N."""
        mats = build_matrices(F(7, 2))
        f1 = rand_function(random.Random(1), n_levels=1)
        f2 = TruncatedFunction(f1.rows * 50, f1.limit)
        g1, g2 = apply_T(f1, mats), apply_T(f2, mats)
        assert set(g1.tail) == set(g2.tail)


def cubic(t):
    """t^3 - 4t^2 + t - 2, whose root r in [3, 4] is the distortion minimizer."""
    return t**3 - 4 * t**2 + t - 2


def root_bracket(bits=80):
    """An exact bracket [a, b] of width 2**-bits around r, by bisection."""
    a, b = F(3), F(4)
    for _ in range(bits):
        mid = (a + b) / 2
        a, b = (mid, b) if cubic(mid) < 0 else (a, mid)
    return a, b


def assert_rows_match_side(report):
    """Right of r, row M:0 gives normT = t exactly and Minv:1 carries normS;
    left of r, rows tail:0 and stail:1 carry the norms and normT > t."""
    if cubic(report.t) > 0:
        assert (report.argmax_t, report.argmax_s) == ("M:0", "Minv:1")
        assert report.norm_t == report.t
    else:
        assert (report.argmax_t, report.argmax_s) == ("tail:0", "stail:1")
        assert report.norm_t > report.t


def reference_optimize(lo=3, hi=4, tol="1e-12"):
    """The Fibonacci search as it stepped in Fractions: each probe at
    lo + j*h with a Fraction step h, read through its own norm_report."""
    lo, hi, tol = F(lo), F(hi), F(tol)
    prev, fib = 1, 2
    while hi - lo > tol * fib:
        prev, fib = fib, prev + fib
    h = (hi - lo) / fib
    left, right = 0, fib
    best, report = prev, norm_report(lo + prev * h)
    while right - left > 2:
        probe = left + right - best
        other = norm_report(lo + probe * h)
        if probe < best:
            if other.distortion <= report.distortion:
                right, best, report = best, probe, other
            else:
                left = probe
        elif report.distortion <= other.distortion:
            right = probe
        else:
            left, best, report = best, probe, other
    return report.t, report


def grid_point(den=st.integers(1, 1000)):
    """A rational in [3, 4] with a denominator of at most 1000."""
    return den.flatmap(lambda d: st.integers(3 * d, 4 * d).map(lambda n: F(n, d)))


@st.composite
def scan_spec(draw):
    """(lo, hi, step, rows): a scan of 1 to 60 rows inside [3, 4] whose hi
    lies from 0 up to one step short of the next grid point."""
    lo = draw(grid_point())
    d = draw(st.integers(1, 1000))
    step = F(draw(st.integers(1, d)), d)
    rows = draw(st.integers(1, min(60, int((4 - lo) / step) + 1)))
    last = lo + (rows - 1) * step
    hi = last + min(step - F(1, 10**6), 4 - last) * F(draw(st.integers(0, 100)), 100)
    return lo, hi, step, rows


class TestIntegerEvaluator:
    """The optimizer and the scan step in integers; each must give what
    stepping in Fractions through norm_report gives, exactly."""

    @given(st.lists(grid_point(), min_size=2, max_size=2, unique=True).map(sorted),
           st.builds(lambda m, k: F(m, 10**k), st.integers(1, 10), st.integers(4, 14)))
    @settings(max_examples=80, deadline=None)
    @example([F(3), F(4)], F(2, 17)).via("(hi - lo)/tol = 8.5, just past F_6 = 8")
    @example([F(3), F(4)], F(1, 8)).via("(hi - lo)/tol = F_6 exactly")
    def test_optimizer_equals_the_fraction_search(self, interval, tol):
        """Over 3 <= lo < hi <= 4 and tolerances from 1e-14 to 1e-3, and
        where (hi - lo)/tol is a Fibonacci number or lies just past one."""
        lo, hi = interval
        assert optimize_distortion(lo, hi, tol) == reference_optimize(lo, hi, tol)

    @given(scan_spec())
    @settings(max_examples=80, deadline=None)
    def test_scan_rows_are_norm_reports(self, spec):
        lo, hi, step, rows = spec
        reports = [norm_report(lo + k * step) for k in range(rows)]
        assert scan_distortion(lo, hi, step) == [(r.t, r.norm_t, r.norm_s, r.distortion) for r in reports]

    def test_norm_report_calls(self, monkeypatch):
        """One norm_report per optimization, at t*, and none per scan: every
        probe and every scan row is read from the integers of _row_norms."""
        calls = []
        report = norm_report
        monkeypatch.setattr(upperiso, "norm_report", lambda t: calls.append(t) or report(t))
        t_star, _ = optimize_distortion(tol="1e-12")
        assert calls == [t_star]
        scan_distortion(F(3), F(4), F(1, 100))
        assert calls == [t_star]


class TestOptimizer:
    def test_reproduces_reported_value(self):
        t_star, report = optimize_distortion()
        assert abs(t_star - F("3.87512")) <= F("1e-4")
        assert abs(report.norm_t - t_star) <= F("1e-9")
        assert abs(report.norm_s - 1) <= F("1e-9")
        assert abs(report.distortion - t_star) <= F("1e-8")

    @pytest.mark.parametrize("t", [F(3), F(7, 2), F(31, 8), F(48439, 12500),
                                   F(387513, 100000), F(969, 250), F(4)])
    def test_norm_t_is_t_only_right_of_the_minimizer(self, t):
        """normT(3) = 14/3 and normT > t up to r = 3.8751297...; normT = t after it."""
        assert_rows_match_side(norm_report(t))

    @pytest.mark.parametrize("tol", ["1e-8", "1e-10", "1e-14"])
    def test_report_is_exact_at_t_star(self, tol):
        """t* is a Fraction and the report is norm_report at t* itself, so its
        argmax rows are the first of each exact tie on t*'s side of r."""
        t_star, report = optimize_distortion(tol=tol)
        assert isinstance(t_star, Fraction) and report.t == t_star
        assert report == norm_report(t_star)
        assert_rows_match_side(report)

    def test_t_star_within_tol_of_the_minimizer(self):
        """The search stops on the centre of a bracket of two steps h <= tol."""
        a, b = root_bracket()
        for tol in (F(1, 10), F(1, 1000), F(1, 10**6)):
            t_star, _ = optimize_distortion(tol=tol)
            assert max(abs(t_star - a), abs(t_star - b)) <= tol

    def test_mirrors_the_benchmark_check(self):
        """The acceptance test of each upper --optimize op in the benchmark, at
        every tolerance it uses: t* and the norm residuals within 1e-9 of the
        exact root r, and the corrected closed form matching t*."""
        near = F(1, 10**9)
        a, b = root_bracket()
        for digits in range(8, 15):
            t_star, report = optimize_distortion(tol=f"1e-{digits}")
            assert max(abs(t_star - a), abs(t_star - b)) < near
            assert abs(report.norm_t - t_star) < near
            assert abs(report.norm_s - 1) < near
            assert cubic_formula_value(t_star).matching == "corrected"

    def test_runs_under_a_second(self):
        start = time.perf_counter()
        optimize_distortion()
        assert time.perf_counter() - start < 1.0

    def test_degenerate_interval(self):
        t, report = optimize_distortion(lo="3.5", hi="3.5")
        assert t == F(7, 2)
        assert report.norm_t == operator_norm_T(F(7, 2))[0]

    @pytest.mark.parametrize("lo, hi, tol", [(F(5, 2), 4, "1e-3"), (4, F(7, 2), "1e-3"),
                                             (3, 4, "0"), (3, 4, "-1e-3")])
    def test_bad_interval_or_tolerance(self, lo, hi, tol):
        with pytest.raises(IsoDomainError):
            optimize_distortion(lo, hi, tol)

    def test_norm_increase_at_optimum(self):
        """T does not shrink: random unit-norm inputs keep norm >= 1 - 1e-9."""
        t_star, _ = optimize_distortion()
        mats = build_matrices(t_star)
        rng = random.Random(5)
        for _ in range(1000):
            f = rand_function(rng, n_levels=3)
            scale = f.sup_norm()
            if scale == 0:
                continue
            g = apply_T(f, mats)
            assert g.sup_norm() / scale >= 1 - F(1, 10**9)

    def test_s_is_contractive_at_optimum(self):
        """S does not expand: 1000 random unit-norm sequences, slack 1e-9."""
        t_star, _ = optimize_distortion()
        mats = build_matrices(t_star)
        rng = random.Random(11)
        for _ in range(1000):
            g = TransformedSequence(
                (rand_fraction(rng), rand_fraction(rng)),
                tuple(tuple(rand_fraction(rng) for _ in range(3)) for _ in range(3)),
                rand_fraction(rng),
            )
            scale = g.sup_norm()
            if scale == 0:
                continue
            f = apply_S(g, mats)
            assert f.sup_norm() / scale <= 1 + F(1, 10**9)

    def test_exact_roundtrip_at_optimum(self):
        """At the optimum t* = 3 + j/F_n, S(T(f)) == f exactly for 200 random
        rational f."""
        t_star, _ = optimize_distortion()
        mats = build_matrices(t_star)
        rng = random.Random(23)
        for _ in range(200):
            f = rand_function(rng, n_levels=3)
            assert apply_S(apply_T(f, mats), mats) == f


class TestCubicFormula:
    def test_variants(self):
        report = cubic_formula_value(optimize_distortion()[0])
        assert abs(report.printed - mp.mpf("3.0487")) < mp.mpf("1e-3")
        assert abs(report.corrected - mp.mpf("3.8751297941627788")) < mp.mpf("1e-12")
        assert report.matching == "corrected"
        assert report.consistent

    def test_exactly_one_variant_matches(self):
        report = cubic_formula_value(optimize_distortion()[0])
        tol = mp.mpf("1e-4")
        matches = [abs(report.printed - report.optimizer_t) <= tol,
                   abs(report.corrected - report.optimizer_t) <= tol]
        assert matches.count(True) == 1


class TestScan:
    def test_scan_rows_exact(self):
        rows = scan_distortion(F(3), F(4), F(1, 4))
        assert [r[0] for r in rows] == [F(3), F(13, 4), F(7, 2), F(15, 4), F(4)]
        assert rows[0][1] == F(14, 3) and rows[0][2] == F(19, 12)
        assert all(isinstance(v, Fraction) for row in rows for v in row)

    def test_scan_guard(self):
        with pytest.raises(IsoDomainError):
            scan_distortion(F(4), F(3), F(1, 4))
        with pytest.raises(IsoDomainError):
            scan_distortion(F(3), F(4), F(0))

    def test_distortion_is_unimodal(self):
        """The exact distortion on the 1/200 grid strictly decreases up to its
        argmin 31/8 and strictly increases after it, so a search needs no
        pre-grid to bracket the minimizer."""
        rows = scan_distortion(F(3), F(4), F(1, 200))
        d = [r[3] for r in rows]
        k = d.index(min(d))
        assert rows[k][0] == F(31, 8)
        assert all(x > y for x, y in zip(d[:k], d[1:k + 1]))
        assert all(x < y for x, y in zip(d[k:], d[k + 1:]))

    def test_distortion_never_below_certified_bound(self):
        rows = scan_distortion(F(3), F(4), F(1, 100))
        assert min(r[3] for r in rows) >= F(113, 32)
