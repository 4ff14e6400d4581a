"""Exact feasibility decisions for rational linear-inequality systems.

The one decision procedure, ``pivot``, is an integer simplex over row bases
with Bland's least-index rule, for rows over four variables, the width of
every case system and dichotomy assignment.  It reads base rows, which
``base_row`` makes and documents: each is a primitive integer direction (ints
with gcd 1) with its right-hand side as a reduced integer pair num/den,
den > 0, and the leading-coefficient pair of the inequality it stands for.
``systems.case_rows`` and the ``make`` of each ``systems.BRANCH_ROWS`` row
make them from the integer formulas the case systems and branch rows are
built from; only ``check_feasibility``, which no command calls, clears a
``LinearSystem`` into them.  A run starts at the basis of the nonneg rows,
whose vertex is the origin, so it depends on its rows alone, and keeps the
adjugate and the determinant of its basis matrix, updated per swap by one
exact division.  It ends at a basis whose vertex satisfies every row, or at
the four rows of its last basis and the entering row, whose integer weights,
some of which may be 0, combine them into 0 <= negative.  Fractions are made
only for a returned witness or Farkas vector.

Every verdict passes one exact check by substitution before it is used.
``verify_pairs`` is the one certificate check: it reads pair rows, each
inequality's own coefficients and rhs as reduced integer pairs, never the
base rows made of them.  A certificate a document carries passes
``verified``, that check as a self-check, in ``check_feasibility`` or in a
caller that decided it from rows or reuses it for another system, on the
pair rows of the system's echo (``systems.case_echoes``);
``verify_certificate`` reads a ``LinearSystem``'s pair rows.  A verdict on
base rows alone passes ``infeasible_on`` or ``feasible_at``: they re-solve
five rows or a basis (four rows) over four variables by Cramer's rule, on
the rows a pivot run ended on or on other rows of the same shape, reject
any other shape, accept only after exact substitution, and return the
weights of the five rows or the basis vertex.  Both read that one shape
directly, each row and entry a local, each sum written out term by
term.  ``support_farkas`` turns those weights into a primitive integer
Farkas vector on the inequalities.  The independent cross-checks, an exact
phase-1 simplex, Fourier-Motzkin elimination, brute-force vertex
enumeration and a Fraction reference verifier, live with the tests
(``tests/crosscheck.py``), which require them to agree with this
module.  ``LinearSystem`` and what reads it, with the any-width body that
``check_feasibility`` runs on other widths, live in ``reference``, whose
``check_feasibility`` and ``verify_certificate`` resolve here on first use.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

ZERO = Fraction(0)

LE = "<="
GE = ">="


SELF_CHECK_FAILED = "internal error: emitted certificate failed verification"


class SystemError_(ValueError):
    """Malformed system or certificate input."""


def __getattr__(name: str):  # bench/spans.py wraps these here; a dunder, probed by importing, loads nothing
    if name not in ("check_feasibility", "verify_certificate"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import reference
    return getattr(reference, name)


class FeasibilityResult(NamedTuple):
    """Either a rational witness point or a Farkas infeasibility certificate.

    For infeasible systems ``farkas`` holds one nonnegative multiplier per
    <=-normalized inequality followed by one per nonnegativity row; the
    combination has all-zero variable coefficients and negative rhs.
    """

    status: str  # "feasible" | "infeasible"
    witness: Optional[dict[str, Fraction]] = None
    farkas: Optional[tuple[Fraction, ...]] = None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def base_row(vec: list[int], scale: int, num: int, den: int) -> tuple:
    """The base row of an inequality, from ``scale`` > 0 times its <=-form:
    ``vec`` holds those integer coefficients, not all zero, and num/den
    (den > 0) that right-hand side.

    A base row is (vec, num, den, q, p): ``vec`` is the primitive integer
    direction of the <=-form (``vec`` divided by its gcd), ``num/den`` its
    right-hand side at the same scale as a reduced pair with den > 0, and
    p/q the absolute value of the inequality's first nonzero coefficient
    as a reduced pair.
    """
    lead = next(filter(None, vec))
    h = math.gcd(lead, scale)
    g = math.gcd(*vec)
    if g != 1:
        vec = [x // g for x in vec]
        den *= g
    r = math.gcd(num, den)
    return tuple(vec), num // r, den // r, scale // h, abs(lead) // h


# ---------------------------------------------------------------------------
# The decision: an integer simplex over row bases
# ---------------------------------------------------------------------------
#
# A basis is a list of n base-row indices whose scaled rows den * direction,
# the rows of the basis matrix M, are independent.  It is kept with integer
# columns c_0..c_{n-1} and a determinant D > 0 such that row i of M times
# c_k is D if i == k and 0 otherwise: the columns of M's adjugate and its
# determinant, both negated if the determinant is negative.  The vertex is
# x = xs / D with xs = sum_k num_k * c_k, where row k of the basis is tight;
# a row (vec, num, den) is violated there when den * (vec . xs) > num * D.
# The expansion of a scaled row a over the basis rows is lam / D, with
# lam_k = a . c_k.


def _swap(cols: list, D: int, k: int, lam: list[int]) -> tuple[list, int]:
    """The columns and determinant once basis position k holds the row whose
    expansion is lam / D, lam[k] != 0.  The determinant becomes lam[k] and
    column k is kept; every other column j becomes (lam[k] * c_j - lam[j] *
    c_k) / D, an exact division, as the new columns are those of an
    adjugate again.  Both are negated if lam[k] < 0.  The four columns of
    four entries are updated term by term."""
    d, (y0, y1, y2, y3) = lam[k], cols[k]
    if d < 0:  # -(d * c_j - lam[j] * c_k) is |d| * c_j - lam[j] * (-c_k)
        d, y0, y1, y2, y3 = -d, -y0, -y1, -y2, -y3
    new = [(y0, y1, y2, y3)] * 4
    for j, ((x0, x1, x2, x3), m) in enumerate(zip(cols, lam)):
        if j != k:
            new[j] = ((d * x0 - m * y0) // D, (d * x1 - m * y1) // D,
                      (d * x2 - m * y2) // D, (d * x3 - m * y3) // D)
    return new, d


# The base rows -x_j <= 0 of four variables, which every case system ends with: at their
# basis D = 1, and its columns are their directions.
NONNEG_ROWS = [(tuple([-int(i == j) for i in range(4)]), 0, 1, 1, 1) for j in range(4)]


def pivot(rows: Sequence[tuple]) -> tuple:
    """Decide the base rows ``rows``, over four variables, by an exact integer
    simplex over row bases.

    ``rows`` must hold the nonneg row -x_j <= 0 of every variable (the base
    row ``base_row([-e_j], 1, 0, 1)``), whose basis has the vertex 0, and
    the run starts there: its columns are those rows' directions, and D = 1.
    Each step follows Bland's least-index rule: the first row the vertex
    violates enters, and the lowest-index basis row with a positive
    coefficient in its expansion leaves.  Without a ratio test this is the
    least-index criss-cross rule for the system's slacks, which ends after
    finitely many steps from any basis (Terlaky, 1985), the origin's too.

    Returns (True, basis, (xs, D)), a basis whose vertex xs / D (D > 0)
    satisfies every row, or (False, verdict, y) when no basis row has a
    positive coefficient: the verdict is the violated row and the four basis
    rows in ascending order, whose base rows the integers y >= 0 combine
    into 0 <= negative, with weight 0 on each basis row whose coefficient is
    0; ``infeasible_on`` re-solves those five rows and accepts with y, up
    to a positive factor.  Unverified: the callers check what they keep.
    Each column entry, vertex coordinate and expansion coefficient is a
    local, each sum written out term by term.
    """
    basis = [rows.index(row) for row in NONNEG_ROWS]
    cols, D = [row[0] for row in NONNEG_ROWS], 1
    while True:
        (p0, p1, p2, p3), (q0, q1, q2, q3), (u0, u1, u2, u3), (w0, w1, w2, w3) = cols
        n0, n1, n2, n3 = [rows[i][1] for i in basis]
        x0, x1 = n0 * p0 + n1 * q0 + n2 * u0 + n3 * w0, n0 * p1 + n1 * q1 + n2 * u1 + n3 * w1
        x2, x3 = n0 * p2 + n1 * q2 + n2 * u2 + n3 * w2, n0 * p3 + n1 * q3 + n2 * u3 + n3 * w3
        for r, ((a0, a1, a2, a3), num, den, _, _) in enumerate(rows):
            if den * (a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3) > num * D:
                break
        else:
            return True, basis, ([x0, x1, x2, x3], D)
        a0, a1, a2, a3 = den * a0, den * a1, den * a2, den * a3
        lam = [a0 * p0 + a1 * p1 + a2 * p2 + a3 * p3, a0 * q0 + a1 * q1 + a2 * q2 + a3 * q3,
               a0 * u0 + a1 * u1 + a2 * u2 + a3 * u3, a0 * w0 + a1 * w1 + a2 * w2 + a3 * w3]
        k = -1
        for j, (b, m) in enumerate(zip(basis, lam)):
            if m > 0 and (k < 0 or b < basis[k]):
                k = j
        if k < 0:
            weights = {r: D, **{basis[j]: -lam[j] for j in range(4)}}
            verdict = sorted(weights)
            return False, verdict, [weights[i] * rows[i][2] for i in verdict]
        cols, D = _swap(cols, D, k, lam)
        basis[k] = r


# ---------------------------------------------------------------------------
# Checks of a stored basis or infeasible verdict on other rows: Cramer's rule
# in the case systems' shape
# ---------------------------------------------------------------------------

def _signed_minors(vectors: list) -> list[int]:
    """y_k = (-1)**k det(the vectors other than v_k), for five integer vectors
    v_0..v_4 of length 4: sum_k y_k v_k = 0, and y != 0 exactly when they
    have rank 4.  Each determinant is one Laplace expansion along
    coordinates 0, 1: with pq the 2x2 minor of vectors p, q on coordinates
    0, 1 and PQ theirs on coordinates 2, 3, each of the ten formed once,
    det(p, q, r, s) = pq*RS - pr*QS + ps*QR + qr*PS - qs*PR + rs*PQ.
    Only +, - and * are used, so entries from any commutative ring (Fractions,
    polynomials) give the same identities."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3), (e0, e1, e2, e3) = vectors
    ab, ac, ad, ae = a0 * b1 - b0 * a1, a0 * c1 - c0 * a1, a0 * d1 - d0 * a1, a0 * e1 - e0 * a1
    bc, bd, be = b0 * c1 - c0 * b1, b0 * d1 - d0 * b1, b0 * e1 - e0 * b1
    cd, ce, de = c0 * d1 - d0 * c1, c0 * e1 - e0 * c1, d0 * e1 - e0 * d1
    AB, AC, AD, AE = a2 * b3 - b2 * a3, a2 * c3 - c2 * a3, a2 * d3 - d2 * a3, a2 * e3 - e2 * a3
    BC, BD, BE = b2 * c3 - c2 * b3, b2 * d3 - d2 * b3, b2 * e3 - e2 * b3
    CD, CE, DE = c2 * d3 - d2 * c3, c2 * e3 - e2 * c3, d2 * e3 - e2 * d3
    return [bc * DE - bd * CE + be * CD + cd * BE - ce * BD + de * BC,
            -(ac * DE - ad * CE + ae * CD + cd * AE - ce * AD + de * AC),
            ab * DE - ad * BE + ae * BD + bd * AE - be * AD + de * AB,
            -(ab * CE - ac * BE + ae * BC + bc * AE - be * AC + ce * AB),
            ab * CD - ac * BD + ad * BC + bc * AD - bd * AC + cd * AB]


def infeasible_on(rows: Sequence[tuple], verdict: Optional[Sequence[int]]) -> Optional[list[int]]:
    """The weights y >= 0 by which the base rows ``verdict``, the n + 1 rows
    an infeasible ``pivot`` run ends on, prove ``rows`` infeasible, or None:
    the kernel generator of their five directions (``_signed_minors``, all
    zero unless they have rank 4) must be of one sign; taken nonnegative, it
    must cancel each of the four variables, one five-term sum each, and
    combine the right-hand sides over the lcm L of their denominators, sum
    y_k * num_k * (L // den_k), into a negative number, which an all-zero y
    does not.  A weight may be 0.  Any shape but five rows over four
    variables gives None."""
    if not verdict or len(verdict) != 5:
        return None
    (a, an, ad, _, _), (b, bn, bd, _, _), (c, cn, cd, _, _), (d, dn, dd, _, _), (e, en, ed, _, _) = [
        rows[i] for i in verdict]
    if len(a) != 4:
        return None
    y = _signed_minors([a, b, c, d, e])
    if min(y) < 0 < max(y):
        return None
    if min(y) < 0:
        y = [-x for x in y]
    ya, yb, yc, yd, ye = y
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3), (e0, e1, e2, e3) = a, b, c, d, e
    if (ya * a0 + yb * b0 + yc * c0 + yd * d0 + ye * e0
            or ya * a1 + yb * b1 + yc * c1 + yd * d1 + ye * e1
            or ya * a2 + yb * b2 + yc * c2 + yd * d2 + ye * e2
            or ya * a3 + yb * b3 + yc * c3 + yd * d3 + ye * e3):
        return None
    L = math.lcm(ad, bd, cd, dd, ed)
    rhs = (ya * an * (L // ad) + yb * bn * (L // bd) + yc * cn * (L // cd)
           + yd * dn * (L // dd) + ye * en * (L // ed))
    return y if rhs < 0 else None


def feasible_at(rows: list[tuple], basis: Optional[Sequence[int]]) -> Optional[tuple[list[int], int]]:
    """The point (xs, D), x = xs / D, where the four base rows ``basis`` are
    tight, if it exists and satisfies every row of ``rows``, the nonneg rows
    included, as den * (vec . xs) <= num * D; else None.  (xs, D) is the
    kernel generator, D > 0, of the columns den * direction and -rhs of
    those rows (``_signed_minors``: Cramer's rule), which has D = 0 if it is
    all zero.  Any shape but four rows over four variables gives None."""
    if not basis or len(basis) != 4:
        return None
    (a, an, ad, _, _), (b, bn, bd, _, _), (c, cn, cd, _, _), (d, dn, dd, _, _) = [rows[i] for i in basis]
    if len(a) != 4:
        return None
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = a, b, c, d
    z = _signed_minors([[ad * a0, bd * b0, cd * c0, dd * d0], [ad * a1, bd * b1, cd * c1, dd * d1],
                        [ad * a2, bd * b2, cd * c2, dd * d2], [ad * a3, bd * b3, cd * c3, dd * d3],
                        [-an, -bn, -cn, -dn]])
    if not z[4]:
        return None
    x0, x1, x2, x3, D = z if z[4] > 0 else [-x for x in z]
    for (r0, r1, r2, r3), num, den, _, _ in rows:
        if den * (r0 * x0 + r1 * x1 + r2 * x2 + r3 * x3) > num * D:
            return None
    return [x0, x1, x2, x3], D


def support_farkas(rows: Sequence[tuple], support: Sequence[int], y: Sequence[int]) -> tuple[Fraction, ...]:
    """The Farkas vector, one multiplier per inequality of ``rows``, of the
    weights ``y`` that ``infeasible_on`` or ``pivot`` gives the base rows
    ``support`` (a verdict; a weight of 0 gives a multiplier of 0).

    y_k weighs base row (vec, num, den, q, p), whose direction has the
    leading entry piv, so it weighs its inequality by y_k * q * |piv| / p;
    the multipliers are scaled to primitive integers, and every row off the
    support gets 0.
    """
    w = [(y_k * q * abs(next(filter(None, vec), 1)), p)
         for y_k, (vec, _, _, q, p) in zip(y, [rows[i] for i in support])]
    scale = math.lcm(*[b // math.gcd(a, b) for a, b in w])
    ints = [a * scale // b for a, b in w]
    g = math.gcd(*ints)
    farkas = [ZERO] * len(rows)
    for i, x in zip(support, ints):
        farkas[i] = Fraction(x // g)
    return tuple(farkas)


# ---------------------------------------------------------------------------
# Certificate verification (pure substitution)
# ---------------------------------------------------------------------------


def nonneg_pair(v: str) -> tuple:
    """The pair row of -v <= 0."""
    return ((v, -1, 1),), LE, (0, 1)


def verified(variables: Sequence[str], rows: Sequence[tuple],
             result: FeasibilityResult) -> FeasibilityResult:
    """``result``, once ``verify_pairs`` accepts it for the pair rows ``rows``.

    The self-check every emitted certificate passes: a failure is an
    internal error and raises AssertionError.
    """
    if not verify_pairs(variables, rows, result):
        raise AssertionError(SELF_CHECK_FAILED)
    return result


def verify_pairs(variables: Sequence[str], rows: Sequence[tuple], result: FeasibilityResult) -> bool:
    """Re-check a feasibility result against pair rows over ``variables`` by
    substitution only: the one certificate check.

    Independent of the solver: it reads the coefficients as written, never
    the integer base rows made of them.  A witness must satisfy every
    row exactly: its coordinates are put over their common denominator, and
    each row, cleared by the lcm of its own denominators, is compared in
    integers.  A Farkas vector, one multiplier per row, must be nonnegative,
    cancel every variable and combine the right-hand sides into a negative
    number: the multipliers are scaled to integers by the lcm of their
    denominators, and each variable column and the rhs are summed over the
    lcm of that column's denominators.
    """
    if result.status == "feasible":
        if result.witness is None:
            raise SystemError_("feasible result lacks a witness")
        missing = set(variables) - set(result.witness)
        if missing:
            raise SystemError_(f"witness misses variables {sorted(missing)}")
        point = [_fraction(result.witness[v]) for v in variables]
        scale = math.lcm(*[x.denominator for x in point])
        xs = {v: x.numerator * (scale // x.denominator) for v, x in zip(variables, point)}
        for coeffs, relation, (num, den) in rows:
            d = math.lcm(den, *[q for _, _, q in coeffs])
            lhs = sum([p * (d // q) * xs[v] for v, p, q in coeffs])
            bound = num * (d // den) * scale
            if not (lhs <= bound if relation == LE else lhs >= bound):
                return False
        return True

    if result.status == "infeasible":
        if result.farkas is None:
            raise SystemError_("infeasible result lacks Farkas multipliers")
        if len(result.farkas) != len(rows):
            raise SystemError_(
                f"Farkas vector has length {len(result.farkas)}, expected {len(rows)}"
            )
        lam = [_fraction(x) for x in result.farkas]
        if any(x.numerator < 0 for x in lam):
            return False
        scale = math.lcm(*[x.denominator for x in lam])
        columns: dict[str, list] = {v: [] for v in variables}
        rhs = []  # (integer numerator, denominator) terms, as in each column
        for x, (coeffs, relation, (num, den)) in zip(lam, rows):
            if not x:
                continue
            mult = x.numerator * (scale // x.denominator)
            if relation == GE:
                mult = -mult
            for v, p, q in coeffs:
                columns[v].append((mult * p, q))
            rhs.append((mult * num, den))
        return all(_lcm_sum(terms) == 0 for terms in columns.values()) and _lcm_sum(rhs) < 0

    raise SystemError_(f"unknown status {result.status!r}")


def _fraction(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


def _lcm_sum(terms: list) -> int:
    """The sum of the fractions p/q in ``terms``, times the lcm of their q."""
    d = math.lcm(*[q for _, q in terms])
    return sum(p * (d // q) for p, q in terms)
