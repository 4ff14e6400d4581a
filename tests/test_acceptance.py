"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import json
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest

from bmbounds.certify import (
    EXIT_CERTIFIED,
    binary_search_bound,
    certify_at,
    certify_dichotomy,
    dichotomy_report_doc,
    search_report_doc,
    sweep_policies,
    verify_certificate_text,
)
from bmbounds.exactlp import check_feasibility, verify_certificate
from bmbounds.bounds import (
    check_h_decreasing,
    check_s_increasing,
    gp_lower_bound,
    lower_bound_height,
    h_theta,
)
from bmbounds.systems import ALL_CASES, CPolicy, DEFAULT_POLICY, Variant, build_case_system
from bmbounds.upperiso import (
    TruncatedFunction,
    _mat_mul,
    apply_S,
    apply_T,
    build_matrices,
    inverse_closed_form,
    optimize_distortion,
    scan_distortion,
)

F = Fraction
IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def ok(n, message):
    print(f"ACCEPTANCE {n}: PASS - {message}")


def test_criterion_1_lower_bound_reproduction():
    """search [3,5] x6 with policy (2t+1)/4 certifies exactly 113/32, < 5 s."""
    start = time.perf_counter()
    bound = binary_search_bound(F(3), F(5), 6, CPolicy(2, 1, 4), Variant.SYMMETRIZED)
    elapsed = time.perf_counter() - start
    assert bound.t_lo == F(113, 32)
    assert float(bound.t_lo) == 3.53125
    # every Farkas certificate re-verifies offline, by substitution only
    doc = search_report_doc(bound)
    code, msg = verify_certificate_text(json.dumps(doc))
    assert code == EXIT_CERTIFIED, msg
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    ok(1, f"t_lo = 113/32 = 3.53125 (symmetrized variant), certificates verified, {elapsed:.2f}s")


def test_criterion_2_endpoints():
    """All four cases infeasible at t = 3; at least one feasible at t = 5."""
    report3 = certify_at(F(3))
    assert report3.all_infeasible
    report5 = certify_at(F(5))
    assert len(report5.feasible_cases) >= 1
    ok(2, f"t=3 all infeasible; t=5 feasible cases: "
          f"{[c.value for c in report5.feasible_cases]}")


def test_criterion_3_policy_sweep():
    """(2t+1)/4 certifies the strictly largest t_lo at 8 iterations."""
    policies = [CPolicy(1, 0, 2), CPolicy(1, 1, 2), CPolicy(2, 1, 4)]
    ranked, skipped = sweep_policies(policies, F(3), F(5), 8)
    assert not skipped
    assert ranked[0][0] == CPolicy(2, 1, 4)
    best = ranked[0][1].t_lo
    others = [bound.t_lo for pol, bound in ranked[1:]]
    assert all(best > other for other in others)
    ok(3, f"(2t+1)/4 -> t_lo = {best} beats {[str(o) for o in others]}")


def test_criterion_4_monotonicity():
    """100 random rational pairs t0 < t1 in (3,5): feasible(t0) => feasible(t1)."""
    rng = random.Random(20240101)
    pairs = []
    while len(pairs) < 100:
        a = F(3) + F(rng.randint(1, 1999), 1000)
        b = F(3) + F(rng.randint(1, 1999), 1000)
        if a != b:
            pairs.append((min(a, b), max(a, b)))
    violations = 0
    for t0, t1 in pairs:
        for case in ALL_CASES:
            if check_feasibility(build_case_system(case, t0, DEFAULT_POLICY)).feasible:
                if not check_feasibility(build_case_system(case, t1, DEFAULT_POLICY)).feasible:
                    violations += 1
    assert violations == 0
    ok(4, "0 violations over 100 pairs x 4 cases")


def test_criterion_5_closed_forms():
    """height(2) = 2 + sqrt(5); copies(2) = 3; copies(3) = (5 + sqrt(22))/3, 1e-12."""
    with mp.workdps(40):
        tol = mp.mpf("1e-12")
        assert abs(lower_bound_height(2) - (2 + mp.sqrt(5))) <= tol
        assert abs(gp_lower_bound(2) - 3) <= tol
        assert abs(gp_lower_bound(3) - (5 + mp.sqrt(22)) / 3) <= tol
    ok(5, "height(2)=2+sqrt5, copies(2)=3, copies(3)=(5+sqrt22)/3 at 1e-12")


def test_criterion_6_internal_monotonicity():
    """h decreasing for m=2..10; s increasing on the grid; h(1) = height(m)."""
    for m in range(2, 11):
        assert check_h_decreasing(m), f"h not decreasing for m={m}"
    for m in range(3, 9):
        for t in (3, 5, 10):
            assert check_s_increasing(m, t), f"s not increasing for m={m}, t={t}"
    with mp.workdps(40):
        tol = mp.mpf("1e-12")
        for m in range(2, 11):
            assert abs(h_theta(m, 1) - lower_bound_height(m)) <= tol
    ok(6, "h decreasing (m=2..10), s increasing (m=3..8, t in {3,5,10}), h(1)=height")


def test_criterion_7_upper_bound():
    """Distortion minimizer within 1e-4 of 3.87512; norm residuals under 1e-9; < 1 s."""
    start = time.perf_counter()
    t_star, report = optimize_distortion()
    elapsed = time.perf_counter() - start
    # t* and its report are exact (Fractions); compare them in mpf.
    t_star, norm_t, norm_s = (mp.mpf(x.numerator) / x.denominator
                              for x in (t_star, report.norm_t, report.norm_s))
    assert abs(t_star - mp.mpf("3.87512")) <= mp.mpf("1e-4")
    assert abs(norm_t - t_star) <= mp.mpf("1e-9")
    assert abs(norm_s - 1) <= mp.mpf("1e-9")
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    ok(7, f"t* = {mp.nstr(t_star, 12)}, |normT - t*| and |normS - 1| <= 1e-9, {elapsed:.3f}s")


def test_criterion_8_inverse_structure():
    """Exact inverse identity at t = 7/2 and S(T(f)) = f for 50 random f, N = 10."""
    t = F(7, 2)
    mats = build_matrices(t)
    closed = inverse_closed_form(t)
    assert _mat_mul(mats.M, closed) == IDENTITY
    assert mats.Minv == closed
    rng = random.Random(1234)
    for _ in range(50):
        f = TruncatedFunction(
            tuple(tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)) for _ in range(10)),
            tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)),
        )
        assert apply_S(apply_T(f, mats), mats) == f
    ok(8, "M*Minv = I entrywise (closed form) and 50 exact roundtrips at N=10")


def test_criterion_9_cross_consistency():
    """Every distortion on the 1e-3 grid over [3,4] >= the certified 113/32."""
    bound = binary_search_bound(F(3), F(5), 6, CPolicy(2, 1, 4))
    rows = scan_distortion(F(3), F(4), F(1, 1000))
    assert len(rows) == 1001
    worst = min(r[3] for r in rows)
    assert worst >= bound.t_lo  # exact rational comparison
    ok(9, f"min grid distortion {float(worst):.6f} >= certified {bound.t_lo}")


def test_criterion_10_dichotomy():
    """All branch systems infeasible at 113/32; exploratory report at 18/5 verifies."""
    report = certify_dichotomy(F(113, 32))
    assert report.certified
    assert len(report.assignments) == 8
    exploratory = certify_dichotomy(F(18, 5))
    doc = dichotomy_report_doc(exploratory)
    assert len(doc["assignments"]) == 8
    for assignment in doc["assignments"]:
        assert all("status" in c for c in assignment["cases"])
    code, msg = verify_certificate_text(json.dumps(doc))
    assert code == EXIT_CERTIFIED, msg
    verdicts = sum(
        1 for a in exploratory.assignments if a.all_infeasible
    )
    ok(10, f"certified at 113/32; 18/5 report emitted and verified "
           f"({verdicts}/8 assignments infeasible, no fixed target asserted)")
