import random
import time
from fractions import Fraction

import mpmath as mp
import pytest

from bmbounds.upperiso import (
    CubicFormulaReport,
    IsoDomainError,
    ShapeError,
    TransformedSequence,
    TruncatedFunction,
    _mat_mul,
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
    sign_pattern_input,
)

F = Fraction
IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def rand_fraction(rng, lo=-9, hi=9, den=9):
    return F(rng.randint(lo, hi), rng.randint(1, den))


def rand_function(rng, n_levels=10):
    return TruncatedFunction(
        tuple(tuple(rand_fraction(rng) for _ in range(3)) for _ in range(n_levels)),
        tuple(rand_fraction(rng) for _ in range(3)),
    )


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

    def test_matrices_must_be_built_at_t(self):
        mats = build_matrices(F(4))
        for norm in (operator_norm_T, operator_norm_S):
            with pytest.raises(IsoDomainError, match="built at t = 4, not at t = 3"):
                norm(F(3), mats)
            assert norm(F(4), mats) == norm(F(4))
        # A float names the binary value it holds, which is not 18/5.
        with pytest.raises(IsoDomainError, match="built at t = 18/5"):
            operator_norm_T(3.6, build_matrices(F(18, 5)))
        assert operator_norm_T(3.5, build_matrices(3.5)) == operator_norm_T(3.5)

    def test_attainment_by_sign_pattern(self):
        """A sign-pattern input realizes the operator norm exactly."""
        for t in (F(3), F(7, 2), F(4)):
            mats = build_matrices(t)
            value, argmax = operator_norm_T(t, mats)
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

        assert operator_norm_T(t, mats)[0] == max(map(l1, mats.M + mats.tail_block))
        assert operator_norm_S(t, mats)[0] == max(map(l1, mats.Minv + mats.s_tail_block))

    def test_truncation_independence(self):
        """Attained norms agree for N in {1, 10, 100}."""
        t = F(7, 2)
        mats = build_matrices(t)
        value, argmax = operator_norm_T(t, mats)
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


class TestPrecision:
    @staticmethod
    def exact(x):
        man, exp = x.man_exp  # man is unsigned
        return int(mp.sign(x)) * F(man) * F(2) ** exp

    def test_mpf_norms_run_at_working_precision(self):
        """At the default mpmath precision, an mpf t gives 40-digit norms.

        3.875 = 31/8 is exact in binary, so the mpf report must agree with
        the exact report far below the default 15-digit precision.
        """
        want = norm_report(F(31, 8))
        with mp.workdps(15):
            got = norm_report(mp.mpf("3.875"))
            value, argmax = operator_norm_S(mp.mpf("3.875"))
        for name in ("norm_t", "norm_s", "distortion"):
            assert abs(self.exact(getattr(got, name)) - getattr(want, name)) <= F(1, 10**30)
        assert abs(self.exact(value) - want.norm_s) <= F(1, 10**30)
        assert argmax == want.argmax_s


class TestOptimizer:
    def test_reproduces_reported_value(self):
        t_star, report = optimize_distortion()
        assert abs(t_star - mp.mpf("3.87512")) <= mp.mpf("1e-4")
        assert abs(report.norm_t - t_star) <= mp.mpf("1e-9")
        assert abs(report.norm_s - 1) <= mp.mpf("1e-9")
        assert abs(report.distortion - t_star) <= mp.mpf("1e-8")

    def test_runs_under_a_second(self):
        start = time.perf_counter()
        optimize_distortion()
        assert time.perf_counter() - start < 1.0

    def test_degenerate_interval(self):
        t, report = optimize_distortion(lo="3.5", hi="3.5")
        assert t == mp.mpf("3.5")
        exact = operator_norm_T(F(7, 2))[0]
        with mp.workdps(40):
            assert abs(report.norm_t - mp.mpf(exact.numerator) / exact.denominator) < mp.mpf("1e-30")

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
            assert g.sup_norm() / scale >= 1 - mp.mpf("1e-9")

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
            assert f.sup_norm() / scale <= 1 + mp.mpf("1e-9")

    def test_mpf_roundtrip_on_rational_inputs(self):
        """At the mpf optimum, S(T(f)) agrees with Fraction input f to 1e-30.

        Runs at the default mpmath precision: the 40-digit agreement holds
        only if the matrices and both maps work at PRECISION_DPS themselves.
        """
        def exact(x):
            man, exp = x.man_exp  # man is unsigned
            return int(mp.sign(x)) * F(man) * F(2) ** exp

        t_star, _ = optimize_distortion()
        mats = build_matrices(t_star)
        rng = random.Random(23)
        for _ in range(200):
            f = rand_function(rng, n_levels=3)
            g = apply_T(f, mats)
            back = apply_S(g, mats)
            g_entries = [*g.head, g.omega, *(x for row in g.tail for x in row)]
            back_entries = [*back.limit, *(x for row in back.rows for x in row)]
            assert all(isinstance(x, mp.mpf) for x in g_entries + back_entries)
            g.sup_norm()
            back.sup_norm()
            expected = [*f.limit, *(x for row in f.rows for x in row)]
            for got, want in zip(back_entries, expected):
                assert abs(exact(got) - want) <= F(1, 10**30)


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

    def test_distortion_never_below_certified_bound(self):
        rows = scan_distortion(F(3), F(4), F(1, 100))
        assert min(r[3] for r in rows) >= F(113, 32)
