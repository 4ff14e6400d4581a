"""The explicit block isomorphism pair and its operator norms.

A parameter t in [3, 4] fixes two 3x3 matrices: M couples the three limit
values into the head coordinates, C couples level m of the domain into
output block m.  Every output coordinate depends on at most six inputs,
and the tail blocks repeat identically for every level, so T and S are
defined by twelve coefficient rows: M and tail_block for T, Minv and
s_tail_block for S.  apply_T and apply_S apply exactly these rows, and the
operator norms over the infinite index set are their largest row l1-norms,
evaluated in norm_report alone.  All computations are exact when t is a
Fraction; for a float/mpf t every number, the norms and their product
included, is computed at 40 significant digits whatever the caller's
mpmath precision.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath as mp

PRECISION_DPS = 40

Matrix = tuple[tuple, ...]


class IsoDomainError(ValueError):
    """t outside [3, 4] or a structural denominator vanished."""


class ShapeError(ValueError):
    """Mismatched truncation shapes."""


def _is_exact(t) -> bool:
    return isinstance(t, (Fraction, int))


def _working_precision(exact: bool):
    """Leave exact arithmetic alone; run mpf arithmetic at PRECISION_DPS digits."""
    return nullcontext() if exact else mp.workdps(PRECISION_DPS)


def _mpf_tuple(values: Sequence) -> tuple:
    """values as mpfs at the working precision.

    mp.mpf rejects a Fraction, and mpmath has no Fraction - mpf, Fraction /
    mpf or ordering between the two, so rationals are converted through
    their numerator and denominator.
    """
    return tuple(mp.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else mp.mpf(x)
                 for x in values)


def _mat_vec(m: Matrix, v: Sequence) -> tuple:
    return tuple(sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m)))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _mat_inverse(m: Matrix) -> Matrix:
    """Gauss-Jordan inverse, generic over exact and high-precision scalars."""
    n = len(m)
    aug = [list(row) + [0] * n for row in m]
    for i in range(n):
        aug[i][n + i] = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise IsoDomainError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [x / scale for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


@dataclass(frozen=True)
class IsoMatrices:
    """All coefficient blocks of the pair (T, S) at one parameter value.

    The twelve rows of M, tail_block, Minv and s_tail_block are the whole
    definition of the pair: apply_T, apply_S and the operator norms read
    nothing else.  C and M3 are the blocks these rows are assembled from.
    """

    t: object
    M: Matrix
    C: Matrix
    M3: tuple
    Minv: Matrix
    tail_block: Matrix      # 3x6: [C | M' - C] acting on (f(m,.), f(omega,.))
    s_tail_block: Matrix    # 3x6: coefficients of Sg(m,.) on (g(3m..3m+2), g(1), g(2), g(omega))


def _read_parameter(t):
    """t as a Fraction or an mpf, checked against every guard of the pair.

    Call inside _working_precision.  Returns t with the quartic and cubic
    denominators d1, d2 of the closed-form inverse.
    """
    t = Fraction(t) if _is_exact(t) else mp.mpf(t)
    if not (3 <= t <= 4):
        raise IsoDomainError(f"parameter must satisfy 3 <= t <= 4, got {t}")
    d1 = t**4 - 7 * t**3 + 12 * t**2 - 8 * t + 8
    d2 = t**3 - 5 * t**2 + 2 * t - 4
    for name, value in (("t", t), ("t+1", t + 1),
                        ("t^4-7t^3+12t^2-8t+8", d1), ("t^3-5t^2+2t-4", d2)):
        if value == 0:
            raise IsoDomainError(f"denominator {name} vanishes at t = {t}")
    return t, d1, d2


def build_matrices(t) -> IsoMatrices:
    """Populate every block at t; exact inverse when t is rational.

    A non-rational t (float, mpf or numeric string) is read and every block
    computed at PRECISION_DPS significant digits, whatever the caller's
    mpmath precision.

    Guards: 3 <= t <= 4 and the quartic/cubic denominators of the inverse
    must not vanish (they are negative on the whole interval).
    """
    with _working_precision(_is_exact(t)):
        t, _, _ = _read_parameter(t)
        q = -(t**2 - 5 * t + 2) / 4
        M = (
            (t - 2, -1 + t * 0, -1 + t * 0),
            (t * 0, t / 2, -t / 2),
            ((t - 2) / t, q, q),
        )
        c0 = 2 * t / (t + 1)
        c1 = (t**2 - t + 2) / (2 * t)
        zero = t * 0
        C = ((c0, zero, zero), (zero, c1, zero), (zero, zero, c1))
        M3 = M[2]
        Minv = _mat_inverse(M)
        shift = tuple(tuple(M3[j] - C[i][j] for j in range(3)) for i in range(3))  # M' - C
        # W = (M' - C) Minv; row i of the S tail couples g(3m+i) and the head values.
        W = _mat_mul(shift, Minv)
        tail, s_tail = [], []
        for i in range(3):
            cinv = 1 / C[i][i]
            level, s_level = [zero] * 3, [zero] * 3
            level[i], s_level[i] = C[i][i], cinv
            tail.append((*level, *shift[i]))
            s_tail.append((*s_level, *(-cinv * w for w in W[i])))
        return IsoMatrices(t, M, C, M3, Minv, tuple(tail), tuple(s_tail))


def inverse_closed_form(t) -> Matrix:
    """The algebraic closed form of M^{-1}, kept as an independent cross-check."""
    with _working_precision(_is_exact(t)):
        t, d1, d2 = _read_parameter(t)
        zero = t * 0
        return (
            (t * (t**2 - 5 * t + 2) / d1, zero, -4 * t / d1),
            (2 / d2, 1 / t, -2 * t / d2),
            (2 / d2, -1 / t, -2 * t / d2),
        )


# ---------------------------------------------------------------------------
# Function-level application
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruncatedFunction:
    """A function on N levels of three tails plus the three limit values."""

    rows: tuple[tuple, ...]   # rows[r] = values at level r+1, one per tail
    limit: tuple              # values at the three limit points

    def __post_init__(self):
        if len(self.rows) < 1:
            raise ShapeError("truncation length must be at least 1")
        if any(len(r) != 3 for r in self.rows) or len(self.limit) != 3:
            raise ShapeError("rows and limit must have width 3")

    def sup_norm(self):
        return max(
            max(abs(x) for x in self.limit),
            max(abs(x) for row in self.rows for x in row),
        )


@dataclass(frozen=True)
class TransformedSequence:
    """The image Tf: two head values, N tail triples, and the limit value."""

    head: tuple               # (Tf(1), Tf(2))
    tail: tuple[tuple, ...]   # tail[r] = (Tf(3m), Tf(3m+1), Tf(3m+2)) at m = r+1
    omega: object

    def sup_norm(self):
        return max(
            max(abs(x) for x in self.head),
            abs(self.omega),
            max(abs(x) for row in self.tail for x in row),
        )


def _apply_rows(mats: IsoMatrices, head_block: Matrix, tail_block: Matrix,
                head: Sequence, levels: Sequence[Sequence]) -> tuple[tuple, tuple]:
    """head_block applied to the head values and tail_block to each level ++ head.

    Entries are coerced to the scalar type of mats: kept as they are when
    mats.t is a Fraction, so the result is exact, and converted to mpf (a
    Fraction exactly through its numerator and denominator) when mats.t is
    an mpf, in which case the result is computed at PRECISION_DPS
    significant digits whatever the caller's precision.
    """
    exact = _is_exact(mats.t)
    with _working_precision(exact):
        head = tuple(head) if exact else _mpf_tuple(head)
        levels = levels if exact else map(_mpf_tuple, levels)
        return (_mat_vec(head_block, head),
                tuple(_mat_vec(tail_block, tuple(level) + head) for level in levels))


def apply_T(f: TruncatedFunction, mats: IsoMatrices) -> TransformedSequence:
    """The image Tf through the rows M and tail_block, in the scalar type of mats."""
    head, tail = _apply_rows(mats, mats.M, mats.tail_block, f.limit, f.rows)
    return TransformedSequence(head[:2], tail, head[2])


def apply_S(g: TransformedSequence, mats: IsoMatrices) -> TruncatedFunction:
    """The preimage Sg through the rows Minv and s_tail_block, in the scalar
    type of mats; for Fraction matrices S(T(f)) == f exactly."""
    if len(g.tail) < 1:
        raise ShapeError("transformed sequence has no tail levels")
    limit, rows = _apply_rows(
        mats, mats.Minv, mats.s_tail_block, (g.head[0], g.head[1], g.omega), g.tail
    )
    return TruncatedFunction(rows, limit)


# ---------------------------------------------------------------------------
# Operator norms and distortion
# ---------------------------------------------------------------------------

_T_ROW_IDS = ("M:0", "M:1", "M:2", "tail:0", "tail:1", "tail:2")
_S_ROW_IDS = ("Minv:0", "Minv:1", "Minv:2", "stail:0", "stail:1", "stail:2")


def _largest_row(head_block: Matrix, tail_block: Matrix, row_ids: tuple):
    """The largest row l1 norm of one direction, with the id of the first row reaching it."""
    norms = [sum(abs(x) for x in row) for row in head_block + tail_block]
    best = max(range(6), key=norms.__getitem__)
    return norms[best], row_ids[best]


def _matrices_at(t, mats: IsoMatrices | None) -> IsoMatrices:
    """mats, which must have been built at t, or the matrices at t."""
    if mats is None:
        return build_matrices(t)
    with _working_precision(_is_exact(t)):
        t, _, _ = _read_parameter(t)
        if t != mats.t:
            raise IsoDomainError(f"matrices were built at t = {mats.t}, not at t = {t}")
    return mats


def operator_norm_T(t, mats: IsoMatrices | None = None):
    """sup over output coordinates of the coefficient-row l1 norm."""
    mats = _matrices_at(t, mats)
    with _working_precision(_is_exact(mats.t)):
        return _largest_row(mats.M, mats.tail_block, _T_ROW_IDS)


def operator_norm_S(t, mats: IsoMatrices | None = None):
    mats = _matrices_at(t, mats)
    with _working_precision(_is_exact(mats.t)):
        return _largest_row(mats.Minv, mats.s_tail_block, _S_ROW_IDS)


@dataclass(frozen=True)
class NormReport:
    t: object
    norm_t: object
    norm_s: object
    distortion: object
    argmax_t: str
    argmax_s: str


def norm_report(t) -> NormReport:
    """normT, normS and their product at t: the one evaluator of the distortion.

    Exact for a rational t; otherwise the matrices, the row norms and the
    product are all computed at PRECISION_DPS significant digits.
    """
    with _working_precision(_is_exact(t)):
        mats = build_matrices(t)
        nt, at = _largest_row(mats.M, mats.tail_block, _T_ROW_IDS)
        ns, as_ = _largest_row(mats.Minv, mats.s_tail_block, _S_ROW_IDS)
        return NormReport(mats.t, nt, ns, nt * ns, at, as_)


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


def scan_distortion(lo: Fraction, hi: Fraction, step: Fraction) -> list[tuple]:
    """Exact (t, normT, normS, distortion) rows on a rational grid."""
    lo, hi, step = Fraction(lo), Fraction(hi), Fraction(step)
    if step <= 0 or lo > hi:
        raise IsoDomainError("scan needs lo <= hi and step > 0")
    out = []
    t = lo
    while t <= hi:
        report = norm_report(t)
        out.append((t, report.norm_t, report.norm_s, report.distortion))
        t += step
    return out


def optimize_distortion(lo=3, hi=4, tol="1e-12") -> tuple[mp.mpf, NormReport]:
    """Minimize normT(t)*normS(t) over [lo, hi] by grid plus golden section."""
    with mp.workdps(PRECISION_DPS):
        lo = mp.mpf(lo)
        hi = mp.mpf(hi)
        tol = mp.mpf(tol)
        if not (3 <= lo <= hi <= 4):
            raise IsoDomainError("optimization interval must stay inside [3, 4]")
        if lo == hi:
            return lo, norm_report(lo)

        def value(t):
            return norm_report(t).distortion

        # Coarse grid to bracket the minimizer.
        ngrid = 64
        xs = [lo + (hi - lo) * k / ngrid for k in range(ngrid + 1)]
        vals = [value(x) for x in xs]
        k = min(range(ngrid + 1), key=lambda i: vals[i])
        a = xs[max(k - 1, 0)]
        b = xs[min(k + 1, ngrid)]

        invphi = (mp.sqrt(5) - 1) / 2
        x1 = b - invphi * (b - a)
        x2 = a + invphi * (b - a)
        f1, f2 = value(x1), value(x2)
        best_x, best_f = min(
            ((xs[k], vals[k]), (x1, f1), (x2, f2)), key=lambda p: p[1]
        )
        while b - a > tol:
            if f1 <= f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - invphi * (b - a)
                f1 = value(x1)
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + invphi * (b - a)
                f2 = value(x2)
            if f1 < best_f:
                best_x, best_f = x1, f1
            if f2 < best_f:
                best_x, best_f = x2, f2
        return best_x, norm_report(best_x)


@dataclass(frozen=True)
class CubicFormulaReport:
    """Both readings of the closed-form minimizer and which one the optimizer confirms."""

    printed: mp.mpf
    corrected: mp.mpf
    optimizer_t: mp.mpf
    matching: str

    @property
    def consistent(self) -> bool:
        return self.matching in ("printed", "corrected")


def cubic_formula_value(t_star, tol="1e-4") -> CubicFormulaReport:
    """Evaluate the closed-form expression as printed and sign-corrected.

    The printed expression repeats the radicand 73 - 6*sqrt(87) under both
    cube roots; the corrected variant flips the second sign.  The report
    flags whichever lies within tol of ``t_star``, the distortion
    minimizer that ``optimize_distortion`` returned.
    """
    with mp.workdps(PRECISION_DPS):
        tol = mp.mpf(tol)
        t_star = mp.mpf(t_star)
        root87 = mp.sqrt(87)
        printed = (4 + 2 * mp.cbrt(73 - 6 * root87)) / 3
        corrected = (4 + mp.cbrt(73 - 6 * root87) + mp.cbrt(73 + 6 * root87)) / 3
        if abs(corrected - t_star) <= tol and abs(printed - t_star) > tol:
            matching = "corrected"
        elif abs(printed - t_star) <= tol and abs(corrected - t_star) > tol:
            matching = "printed"
        else:
            matching = "ambiguous"
        return CubicFormulaReport(printed, corrected, t_star, matching)
