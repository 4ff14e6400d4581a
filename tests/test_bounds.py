import mpmath as mp
import pytest

from bmbounds.bounds import (
    BoundDomainError,
    PRECISION_DPS,
    bounds_table,
    check_h_decreasing,
    check_s_increasing,
    gp_lower_bound,
    h_theta,
    lower_bound_height,
    s_theta,
)

TOL = mp.mpf("1e-12")


def close(a, b, tol=TOL):
    return abs(mp.mpf(a) - mp.mpf(b)) <= tol


class TestHeightBound:
    def test_m1_is_one(self):
        assert lower_bound_height(1) == 1

    def test_m2_is_2_plus_sqrt5(self):
        with mp.workdps(PRECISION_DPS):
            assert close(lower_bound_height(2), 2 + mp.sqrt(5))

    def test_m3(self):
        with mp.workdps(PRECISION_DPS):
            assert close(lower_bound_height(3), 3 + 2 * mp.sqrt(3))

    def test_domain(self):
        with pytest.raises(BoundDomainError):
            lower_bound_height(0)

    def test_thirty_digits(self):
        value = lower_bound_height(2)
        with mp.workdps(PRECISION_DPS):
            exact = 2 + mp.sqrt(5)
            assert abs(value - exact) < mp.mpf(10) ** (-30)


class TestCopiesBound:
    def test_k2_is_three(self):
        assert close(gp_lower_bound(2), 3)

    def test_k3(self):
        with mp.workdps(PRECISION_DPS):
            assert close(gp_lower_bound(3), (5 + mp.sqrt(22)) / 3)

    def test_domain(self):
        with pytest.raises(BoundDomainError):
            gp_lower_bound(1)

    def test_increasing_and_bounded(self):
        with mp.workdps(PRECISION_DPS):
            ceiling = 2 + mp.sqrt(3)
            prev = gp_lower_bound(2)
            for k in range(3, 10001):
                cur = gp_lower_bound(k)
                assert cur > prev
                assert cur < ceiling
                prev = cur

    def test_limit_approaches_ceiling(self):
        with mp.workdps(PRECISION_DPS):
            assert close(gp_lower_bound(10**6), 2 + mp.sqrt(3), mp.mpf("1e-5"))

    def test_height_dominates_copies(self):
        for m in range(2, 8):
            for k in range(2, 8):
                assert lower_bound_height(m) > gp_lower_bound(k)


class TestHTheta:
    def test_h_at_one_matches_height(self):
        for m in range(2, 11):
            assert close(h_theta(m, 1), lower_bound_height(m))

    def test_h_at_zero_m2(self):
        with mp.workdps(PRECISION_DPS):
            assert close(h_theta(2, 0), (5 + mp.sqrt(17)) / 2)

    def test_decreasing_m2_to_10(self):
        for m in range(2, 11):
            assert check_h_decreasing(m)

    def test_negative_radicand(self):
        # radicand at m=2, theta=... always positive on [0,1]; force m<2 error instead
        with pytest.raises(BoundDomainError):
            h_theta(1, 0)


class TestSTheta:
    def test_m2_collapses(self):
        for t in (3, 5, 10):
            for theta in (0, 1, 7):
                assert close(s_theta(2, t, theta), (mp.mpf(t) + theta) / 2)

    def test_point_value(self):
        assert close(s_theta(3, 3, 1), mp.mpf(2) / 3)

    def test_increasing_grid(self):
        for m in range(3, 9):
            for t in (3, 5, 10):
                assert check_s_increasing(m, t)

    def test_domain(self):
        with pytest.raises(BoundDomainError):
            s_theta(1, 3, 1)
        with pytest.raises(BoundDomainError):
            s_theta(3, 2, 1)


def test_reproducible_across_runs():
    a = [lower_bound_height(5), gp_lower_bound(7), h_theta(4, mp.mpf("0.25")), s_theta(4, 5, 2)]
    b = [lower_bound_height(5), gp_lower_bound(7), h_theta(4, mp.mpf("0.25")), s_theta(4, 5, 2)]
    assert a == b


def test_table_rows():
    rows = bounds_table([2], [2, 3])
    assert rows[0]["kind"] == "height" and rows[0]["value"].startswith("4.2360679")
    assert rows[1]["value"].startswith("3.0")
    assert rows[2]["value"].startswith("3.2301")
