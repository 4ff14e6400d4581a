"""Closed-form distortion bounds and their monotonicity spot checks.

All evaluations run at 40 significant digits through mpmath so that the
documented 1e-12 reproducibility tolerance has plenty of headroom.  The
derivative checks deliberately use central finite differences instead of
symbolic differentiation; they are numerical audits, not proofs.
"""

from __future__ import annotations

from typing import Sequence

import mpmath as mp

from .rationals import InputError

PRECISION_DPS = 40
TABLE_DIGITS = 15  # significant digits of each bounds_table value

FD_STEP = mp.mpf("1e-6")
FD_TOLERANCE = mp.mpf("1e-9")
H_GRID_STEP = "1e-3"  # theta step of check_h_decreasing, read at PRECISION_DPS
S_GRID_STEP = "1e-2"  # theta step of check_s_increasing, likewise
MAX_TABLE_ROWS = 100_000  # the most rows one bounds_table evaluates, which bounds its work


class BoundDomainError(InputError):
    """Parameter outside the valid range of a bound formula."""


def lower_bound_height(m: int) -> mp.mpf:
    """m + sqrt((m-1)(m+3)) for scattered height m >= 1."""
    if m < 1:
        raise BoundDomainError(f"height parameter must satisfy m >= 1, got {m}")
    with mp.workdps(PRECISION_DPS):
        m_ = mp.mpf(m)
        return m_ + mp.sqrt((m_ - 1) * (m_ + 3))


def gp_lower_bound(k: int) -> mp.mpf:
    """(sqrt(3k^2 - 2k + 1) + 2k - 1)/k for k >= 2 copies."""
    if k < 2:
        raise BoundDomainError(f"copy count must satisfy k >= 2, got {k}")
    with mp.workdps(PRECISION_DPS):
        k_ = mp.mpf(k)
        return (mp.sqrt(3 * k_**2 - 2 * k_ + 1) + 2 * k_ - 1) / k_


def h_theta(m: int, theta) -> mp.mpf:
    """(1/2)(sqrt(4m^2 + 4m(theta+1) + theta^2 - 6 theta - 7) + 2m - theta + 1)."""
    if m < 2:
        raise BoundDomainError(f"h requires m >= 2, got {m}")
    with mp.workdps(PRECISION_DPS):
        m_ = mp.mpf(m)
        th = mp.mpf(theta)
        radicand = 4 * m_**2 + 4 * m_ * (th + 1) + th**2 - 6 * th - 7
        if radicand < 0:
            raise BoundDomainError(f"negative radicand {mp.nstr(radicand)} for m={m}, theta={theta}")
        return (mp.sqrt(radicand) + 2 * m_ - th + 1) / 2


def check_h_decreasing(m: int) -> bool:
    """Finite-difference audit that h(.) is nonincreasing on [0, 1]."""
    with mp.workdps(PRECISION_DPS):
        step = mp.mpf(H_GRID_STEP)
        theta = step
        while theta < 1:
            deriv = (h_theta(m, theta + FD_STEP) - h_theta(m, theta - FD_STEP)) / (2 * FD_STEP)
            if deriv > FD_TOLERANCE:
                return False
            theta += step
        return True


def s_theta(m: int, t, theta) -> mp.mpf:
    """(t-1)/((t+theta)(m-2) + t - 1) * (t+theta)/2."""
    if m < 2:
        raise BoundDomainError(f"s requires m >= 2, got {m}")
    with mp.workdps(PRECISION_DPS):
        t_ = mp.mpf(t)
        th = mp.mpf(theta)
        if t_ < 3:
            raise BoundDomainError(f"s requires t >= 3, got {t}")
        if th < 0:
            raise BoundDomainError(f"s requires theta >= 0, got {theta}")
        denom = (t_ + th) * (m - 2) + t_ - 1
        if denom <= 0:
            raise BoundDomainError(f"nonpositive denominator {mp.nstr(denom)} in s")
        return (t_ - 1) / denom * (t_ + th) / 2


def check_s_increasing(m: int, t) -> bool:
    """Finite-difference audit that s(.) is nondecreasing on theta in [1, 10]."""
    with mp.workdps(PRECISION_DPS):
        step = mp.mpf(S_GRID_STEP)
        theta = mp.mpf(1)
        while theta <= 10:
            deriv = (s_theta(m, t, theta + FD_STEP) - s_theta(m, t, theta - FD_STEP)) / (2 * FD_STEP)
            if deriv < -FD_TOLERANCE:
                return False
            theta += step
        return True


def bounds_table(ms: Sequence[int], ks: Sequence[int]) -> list[dict]:
    """Rows for the CLI table: height bounds for ms, copy bounds for ks.

    The row count, at most MAX_TABLE_ROWS, is checked before any row is
    evaluated.
    """
    count = len(ms) + len(ks)
    if count > MAX_TABLE_ROWS:
        raise BoundDomainError(f"table of {count} rows exceeds the limit of {MAX_TABLE_ROWS}")
    rows = []
    with mp.workdps(PRECISION_DPS):
        for m in ms:
            rows.append({"kind": "height", "parameter": m,
                         "value": mp.nstr(lower_bound_height(m), TABLE_DIGITS)})
        for k in ks:
            rows.append({"kind": "copies", "parameter": k,
                         "value": mp.nstr(gp_lower_bound(k), TABLE_DIGITS)})
    return rows
