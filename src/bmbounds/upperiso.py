"""The explicit block isomorphism pair and its operator norms.

A parameter t in [3, 4] fixes two 3x3 matrices: M couples the three limit
values into the head coordinates, C couples level m of the domain into
output block m.  Every output coordinate depends on at most six inputs,
and the tail blocks repeat identically for every level, so T and S are
defined by twelve coefficient rows: M and tail_block for T, Minv and
s_tail_block for S.  The operator norms over the infinite index set are
their largest row l1-norms.

The norms are read from T_TABLE and S_TABLE: each nonzero entry is an
integer polynomial over one common denominator per direction.  On [3, 4]
all but three entries keep one sign (Descartes' rule), so a direction's
norm is the largest of its lanes, signed sums of a row's entries: 3 for T
and 4 for S, made at import (_compile).  At t = p/q in [3, 4], reduced or
not, _row_norms evaluates them in one integer Horner pass over coefficients
scaled by powers of q once per q (_scaled), with no abs taken and no matrix
built.  norm_report turns these integers into exact Fractions at one t.
The optimizer and the scan step over a grid (a + j*b)/q of one denominator q
and read the integers directly: the optimizer is an exact Fibonacci search
that compares distortions by cross-multiplication and makes one
norm_report, at t*, and the scan builds each row's Fractions from them.
build_matrices populates the same rows as Fraction matrices (M^{-1} from
its closed form, inverse_closed_form); it, operator_norm_T/S and apply_T/S
are the independent matrix route the tests check the tables against.  Every
parameter is read as a Fraction (an int, a Fraction, a float's binary value
or a numeric string), so every entry, norm and product is exact.  mpmath is
loaded only to display the closed-form minimizer, in cubic_formula_value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .rationals import InputError

if TYPE_CHECKING:
    import mpmath as mp

PRECISION_DPS = 40  # mpmath digits for displaying t*, its norms and the closed forms
# The optimizer takes about 4.8 norm reports per decimal digit of 1/tol (168 at
# 1e-35), so the smallest tolerance it accepts bounds its work.
MIN_TOL = f"1e-{PRECISION_DPS - 5}"
MATCH_TOL = "1e-4"  # how close a closed-form reading must lie to t* to match it
MAX_SCAN_ROWS = 100_000  # the most rows one scan evaluates, which bounds its work

Matrix = tuple[tuple, ...]


class IsoDomainError(InputError):
    """A parameter or interval outside [3, 4], or another input the pair rejects."""


class ShapeError(ValueError):
    """Mismatched truncation shapes."""


def _mat_vec(m: Matrix, v: Sequence) -> tuple:
    return tuple(sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m)))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


class IsoMatrices(NamedTuple):
    """All coefficient blocks of the pair (T, S) at one parameter value.

    The twelve rows of M, tail_block, Minv and s_tail_block are the whole
    definition of the pair: apply_T, apply_S and the operator norms read
    nothing else.  C and M3 are the blocks these rows are assembled from.
    """

    t: Fraction
    M: Matrix
    C: Matrix
    M3: tuple
    Minv: Matrix
    tail_block: Matrix      # 3x6: [C | M' - C] acting on (f(m,.), f(omega,.))
    s_tail_block: Matrix    # 3x6: coefficients of Sg(m,.) on (g(3m..3m+2), g(1), g(2), g(omega))


def _read_parameter(t):
    """t as a Fraction in [3, 4], with its numerator p and denominator q > 0.

    No denominator of the pair vanishes there: t and t+1 are positive, and
    the cubic d2 = t^3-5t^2+2t-4 of the closed-form inverse stays <= -12,
    so the quartic d1 = (t-2)*d2 is negative too.
    """
    t = Fraction(t)
    if not (3 <= t <= 4):
        raise IsoDomainError(f"parameter must satisfy 3 <= t <= 4, got {t}")
    return t, t.numerator, t.denominator


def build_matrices(t) -> IsoMatrices:
    """Populate every block at t, exactly.

    Guard: 3 <= t <= 4, where no denominator vanishes (see _read_parameter).
    """
    t, _, _ = _read_parameter(t)
    zero = Fraction(0)
    q = -(t**2 - 5 * t + 2) / 4
    M = (
        (t - 2, Fraction(-1), Fraction(-1)),
        (zero, t / 2, -t / 2),
        ((t - 2) / t, q, q),
    )
    c0 = 2 * t / (t + 1)
    c1 = (t**2 - t + 2) / (2 * t)
    C = ((c0, zero, zero), (zero, c1, zero), (zero, zero, c1))
    M3 = M[2]
    Minv = inverse_closed_form(t)
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
    """M^{-1} in closed form: the tests check M times it, both ways, is the identity."""
    t, _, _ = _read_parameter(t)
    d1 = t**4 - 7 * t**3 + 12 * t**2 - 8 * t + 8
    d2 = t**3 - 5 * t**2 + 2 * t - 4
    zero = Fraction(0)
    return (
        (t * (t**2 - 5 * t + 2) / d1, zero, -4 * t / d1),
        (2 / d2, 1 / t, -2 * t / d2),
        (2 / d2, -1 / t, -2 * t / d2),
    )


# ---------------------------------------------------------------------------
# Function-level application
# ---------------------------------------------------------------------------

class TruncatedFunction(NamedTuple("TruncatedFunction", [("rows", tuple), ("limit", tuple)])):
    """A function on N levels of three tails (rows[r] at level r+1) plus the three limit values."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # ``_replace`` builds through it: checked too

    def __new__(cls, rows: tuple, limit: tuple):  # a NamedTuple body cannot define __new__
        if len(rows) < 1:
            raise ShapeError("truncation length must be at least 1")
        if any(len(r) != 3 for r in rows) or len(limit) != 3:
            raise ShapeError("rows and limit must have width 3")
        return super().__new__(cls, rows, limit)

    def sup_norm(self):
        return max(
            max(abs(x) for x in self.limit),
            max(abs(x) for row in self.rows for x in row),
        )


class TransformedSequence(NamedTuple):
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


def _apply_rows(head_block: Matrix, tail_block: Matrix,
                head: Sequence, levels: Sequence[Sequence]) -> tuple[tuple, tuple]:
    """head_block applied to the head values and tail_block to each level ++ head."""
    head = tuple(head)
    return (_mat_vec(head_block, head),
            tuple(_mat_vec(tail_block, tuple(level) + head) for level in levels))


def apply_T(f: TruncatedFunction, mats: IsoMatrices) -> TransformedSequence:
    """The image Tf through the rows M and tail_block; exact for rational f."""
    head, tail = _apply_rows(mats.M, mats.tail_block, f.limit, f.rows)
    return TransformedSequence(head[:2], tail, head[2])


def apply_S(g: TransformedSequence, mats: IsoMatrices) -> TruncatedFunction:
    """The preimage Sg through the rows Minv and s_tail_block; S(T(f)) == f exactly."""
    if len(g.tail) < 1:
        raise ShapeError("transformed sequence has no tail levels")
    limit, rows = _apply_rows(mats.Minv, mats.s_tail_block, (g.head[0], g.head[1], g.omega), g.tail)
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


def operator_norm_T(t):
    """sup over output coordinates of the coefficient-row l1 norm."""
    mats = build_matrices(t)
    return _largest_row(mats.M, mats.tail_block, _T_ROW_IDS)


def operator_norm_S(t):
    mats = build_matrices(t)
    return _largest_row(mats.Minv, mats.s_tail_block, _S_ROW_IDS)


class RowTable(NamedTuple):
    """One direction's six coefficient rows as integer polynomials in t.

    Entry j of row r is rows[r][j](t) / denominator(t), and the entries a
    row leaves out are zero.  Every polynomial is its coefficient tuple,
    the t**degree one first, where degree = len(denominator) - 1 for all of
    them, so that at t = p/q each homogeneous form q**degree * N(p/q) is an
    integer.  The denominator is positive on [3, 4].
    """

    denominator: tuple[int, ...]
    rows: dict[str, dict[int, tuple[int, ...]]]


# The rows of M and tail_block over D_T = 4t(t+1).
T_TABLE = RowTable((0, 0, 4, 4, 0), {
    "M:0": {0: (0, 4, -4, -8, 0), 1: (0, 0, -4, -4, 0), 2: (0, 0, -4, -4, 0)},
    "M:1": {1: (0, 2, 2, 0, 0), 2: (0, -2, -2, 0, 0)},
    "M:2": {0: (0, 0, 4, -4, -8), 1: (-1, 4, 3, -2, 0), 2: (-1, 4, 3, -2, 0)},
    "tail:0": {0: (0, 0, 8, 0, 0), 3: (0, 0, -4, -4, -8), 4: (-1, 4, 3, -2, 0),
               5: (-1, 4, 3, -2, 0)},
    "tail:1": {1: (0, 2, 0, 2, 4), 3: (0, 0, 4, -4, -8), 4: (-1, 2, 3, -4, -4),
               5: (-1, 4, 3, -2, 0)},
    "tail:2": {2: (0, 2, 0, 2, 4), 3: (0, 0, 4, -4, -8), 4: (-1, 4, 3, -2, 0),
               5: (-1, 2, 3, -4, -4)},
})

# The rows of Minv and s_tail_block over D_S = -2t(t-2)(t^2-t+2)(t^3-5t^2+2t-4).
S_TABLE = RowTable((-2, 16, -42, 68, -80, 48, -32, 0), {
    "Minv:0": {0: (0, -2, 12, -18, 24, -8, 0, 0), 2: (0, 0, 0, 8, -8, 16, 0, 0)},
    "Minv:1": {0: (0, 0, 0, -4, 12, -16, 16, 0), 1: (0, -2, 16, -42, 68, -80, 48, -32),
               2: (0, 0, 4, -12, 16, -16, 0, 0)},
    "Minv:2": {0: (0, 0, 0, -4, 12, -16, 16, 0), 1: (0, 2, -16, 42, -68, 80, -48, 32),
               2: (0, 0, 4, -12, 16, -16, 0, 0)},
    "stail:0": {0: (-1, 7, -13, 13, -6, -16, 8, -16), 3: (0, -2, 12, -18, 24, -8, 0, 0),
                5: (1, -7, 13, -5, -2, 32, -8, 16)},
    "stail:1": {1: (0, -4, 28, -48, 32, -32, 0, 0), 3: (0, 0, 0, -4, 12, -16, 16, 0),
                4: (0, -2, 16, -42, 68, -80, 48, -32), 5: (0, 4, -24, 36, -16, 16, 0, 0)},
    "stail:2": {2: (0, -4, 28, -48, 32, -32, 0, 0), 3: (0, 0, 0, -4, 12, -16, 16, 0),
                4: (0, 2, -16, 42, -68, 80, -48, 32), 5: (0, 4, -24, 36, -16, 16, 0, 0)},
})


class _CompiledTable(NamedTuple):
    """A RowTable's distinct lanes (see _compile), as coefficient columns."""

    columns: tuple[tuple[int, ...], ...]  # coefficient k of each lane, then of the denominator
    row_ids: tuple[str, ...]  # row_ids[i]: the first row lane i belongs to


def _shift(c: Sequence[int], a: int) -> list[int]:
    """The coefficients of N(t + a) for those of N(t), highest power first (a Taylor shift)."""
    c = list(c)
    for stop in range(len(c) - 1, 0, -1):
        for k in range(1, stop + 1):
            c[k] += a * c[k - 1]
    return c


def _sign_on_3_4(c: Sequence[int]) -> int:
    """s = 1 or -1 with s*N(t) >= 0 on [3, 4], or 0 where Descartes' rule shows none:
    t = 3 + 1/(1 + y) takes y >= 0 onto (3, 4], where (1 + y)**degree * N(t) has
    the coefficients y below; if they share the sign s, s*N >= 0 there and at 3."""
    y = _shift(_shift(c, 3)[::-1], 1)
    return 1 if min(y) >= 0 else -1 if max(y) <= 0 else 0


def _compile(table: RowTable) -> _CompiledTable:
    """Each row's l1 norm at 3 <= t <= 4, where the signs hold, as the largest of its lanes.

    An entry of one sign s (_sign_on_3_4) adds s*N to every lane of its row;
    any other entry A doubles the row's lanes, as |A| = max(A, -A).  Each
    distinct lane is kept once, under the first row it belongs to."""
    lanes: dict[tuple[int, ...], str] = {}
    for row_id, entries in table.rows.items():
        row = [(0,) * len(table.denominator)]
        for c in entries.values():
            signs = [s] if (s := _sign_on_3_4(c)) else [1, -1]
            row = [tuple([x + k * y for x, y in zip(lane, c)]) for lane in row for k in signs]
        for lane in row:
            lanes.setdefault(lane, row_id)
    return _CompiledTable(tuple(zip(*lanes, table.denominator)), tuple(lanes.values()))


_T_COMPILED, _S_COMPILED = _compile(T_TABLE), _compile(S_TABLE)


def _scaled(table: _CompiledTable, q: int) -> _CompiledTable:
    """``table`` with coefficient column k times q**k: the columns _row_norms
    reads at t = p/q, made once per denominator, not once per point."""
    columns, q_k = [table.columns[0]], 1
    for column in table.columns[1:]:
        q_k *= q
        columns.append(tuple([c * q_k for c in column]))
    return table._replace(columns=tuple(columns))


def _row_norms(table: _CompiledTable, p: int) -> tuple[list[int], int]:
    """Each lane and the denominator at t = p/q in [3, 4], times q**degree, in one
    Horner pass over the columns of ``_scaled(table, q)``, with no abs and no row sum.

    Every form is homogeneous of that degree, so p/q need not be reduced:
    scaling p and q by k scales every returned integer by k**degree, and
    each ratio of a lane to the denominator is its exact value at t.
    """
    values = table.columns[0]
    for column in table.columns[1:]:
        values = [v * p + c for v, c in zip(values, column)]
    return values[:-1], values[-1]


def _table_norm(table: _CompiledTable, p: int, q: int) -> tuple[Fraction, str]:
    """The largest row l1 norm of one direction at t = p/q in [3, 4], with the id
    of the first row reaching it: that row holds the first lane reaching it."""
    lanes, denominator = _row_norms(_scaled(table, q), p)
    best = max(lanes)
    return Fraction(best, denominator), table.row_ids[lanes.index(best)]


def _norms_at(q: int):
    """The function p -> (nT, dT, nS, dS), normT = nT/dT and normS = nS/dS at
    t = p/q in [3, 4], unreduced: the largest lane of each table, scaled for q once.

    Both denominators are positive on [3, 4], so distortions nT*nS/(dT*dS)
    compare by cross-multiplication.
    """
    table_t, table_s = _scaled(_T_COMPILED, q), _scaled(_S_COMPILED, q)

    def norms(p: int) -> tuple[int, int, int, int]:
        norms_t, den_t = _row_norms(table_t, p)
        norms_s, den_s = _row_norms(table_s, p)
        return max(norms_t), den_t, max(norms_s), den_s

    return norms


class NormReport(NamedTuple):
    t: Fraction
    norm_t: Fraction
    norm_s: Fraction
    distortion: Fraction
    argmax_t: str
    argmax_s: str


def norm_report(t) -> NormReport:
    """normT, normS and their product at t, exactly, with the first row reaching each norm.

    The norms are read from T_TABLE and S_TABLE on the integers p, q of
    t = p/q; no matrix is built.
    """
    t, p, q = _read_parameter(t)
    nt, at = _table_norm(_T_COMPILED, p, q)
    ns, as_ = _table_norm(_S_COMPILED, p, q)
    return NormReport(t, nt, ns, nt * ns, at, as_)


def scan_distortion(lo: Fraction, hi: Fraction, step: Fraction) -> list[tuple]:
    """Exact (t, normT, normS, distortion) rows on the grid lo, lo + step, ... <= hi.

    The interval and the row count, at most MAX_SCAN_ROWS, are checked
    before any row is evaluated.  Row k is at t = (a + k*b)/q over the one
    denominator q of lo and step, and its Fractions are built from the
    integers of _norms_at(q) there.
    """
    lo, hi, step = Fraction(lo), Fraction(hi), Fraction(step)
    if not (3 <= lo <= hi <= 4) or step <= 0:
        raise IsoDomainError(f"scan needs 3 <= lo <= hi <= 4 and step > 0, got {lo}:{hi}:{step}")
    count = (hi - lo) // step + 1
    if count > MAX_SCAN_ROWS:
        raise IsoDomainError(f"scan of {count} rows exceeds the limit of {MAX_SCAN_ROWS}")
    q = lo.denominator * step.denominator
    a, b = lo.numerator * step.denominator, step.numerator * lo.denominator
    out, norms_at = [], _norms_at(q)
    for p in range(a, a + count * b, b):
        nt, dt, ns, ds = norms_at(p)
        out.append((Fraction(p, q), Fraction(nt, dt), Fraction(ns, ds), Fraction(nt * ns, dt * ds)))
    return out


def optimize_distortion(lo=3, hi=4, tol="1e-12") -> tuple[Fraction, NormReport]:
    """Minimize normT(t)*normS(t) over [lo, hi] by an exact Fibonacci search.

    The search is golden section in exact form.  It probes only the grid
    lo + j*h with h = (hi - lo)/F_n, where F_n is the first Fibonacci number
    of at least 2 with h <= tol.  The bracket [left, right] always spans
    a Fibonacci number of grid steps and holds the best point found so
    far; each step probes that point's mirror image in the bracket and
    keeps the side of the better of the two, the left one on a tie, until
    the bracket spans two steps.  The distortion is unimodal on [3, 4], so
    the minimizer lies in that last bracket and the returned t* at its
    centre is within h <= tol of it.  This takes n - 2 evaluations.

    Every step is in integers: grid point j is (a + j*b)/q over one
    denominator q, evaluated by _norms_at(q) without reducing it, and two
    distortions compare by cross-multiplication.

    Returns t* as a Fraction and norm_report(t*), the one report it makes.
    """
    lo, hi, tol = Fraction(lo), Fraction(hi), Fraction(tol)
    if not (3 <= lo <= hi <= 4):
        raise IsoDomainError("optimization interval must stay inside [3, 4]")
    if tol <= 0:
        raise IsoDomainError(f"tolerance must be positive, got {tol}")
    steps = -((lo - hi) // tol)  # the fewest grid steps of at most tol: ceil((hi - lo)/tol)
    prev, fib = 1, 2  # consecutive Fibonacci numbers F_{n-1}, F_n
    while fib < steps:
        prev, fib = fib, prev + fib
    q = lo.denominator * hi.denominator * fib
    a = lo.numerator * hi.denominator * fib
    b = hi.numerator * lo.denominator - lo.numerator * hi.denominator
    norms_at = _norms_at(q)

    def distortion(j: int) -> tuple[int, int]:  # at grid point j, over a positive denominator
        nt, dt, ns, ds = norms_at(a + j * b)
        return nt * ns, dt * ds

    left, right, best = 0, fib, prev
    num, den = distortion(best)
    while right - left > 2:
        probe = left + right - best
        other_num, other_den = distortion(probe)
        if probe < best:
            if other_num * den <= num * other_den:
                right, best, num, den = best, probe, other_num, other_den
            else:
                left = probe
        elif num * other_den <= other_num * den:
            right = probe
        else:
            left, best, num, den = best, probe, other_num, other_den
    t = Fraction(a + best * b, q)
    return t, norm_report(t)


class CubicFormulaReport(NamedTuple):
    """Both readings of the closed-form minimizer and which one the optimizer confirms."""

    printed: mp.mpf
    corrected: mp.mpf
    optimizer_t: mp.mpf     # t* at PRECISION_DPS digits
    matching: str

    @property
    def consistent(self) -> bool:
        return self.matching in ("printed", "corrected")


def cubic_formula_value(t_star) -> CubicFormulaReport:
    """Evaluate the closed-form expression as printed and sign-corrected.

    The printed expression repeats the radicand 73 - 6*sqrt(87) under both
    cube roots; the corrected variant flips the second sign.  The report
    flags whichever lies within MATCH_TOL of ``t_star``, the Fraction that
    ``optimize_distortion`` returned.  Both readings are irrational, so they
    are displayed at PRECISION_DPS digits through mpmath.
    """
    import mpmath as mp

    with mp.workdps(PRECISION_DPS):
        tol = mp.mpf(MATCH_TOL)
        t_star = mp.fdiv(t_star.numerator, t_star.denominator)
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
