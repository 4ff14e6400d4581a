"""Independent cross-checks for the Fourier-Motzkin decision in exactlp.

An exact phase-1 simplex (Bland's rule) and brute-force enumeration of
basic feasible points decide feasibility by routes that share nothing
with elimination; the tests require all three verdicts to agree.  A
reference certificate verifier does in Fraction arithmetic, over
``LinearSystem.normalized_rows``, what ``exactlp.verify_certificate`` does
in integers; the tests require the two to agree.  It lives with the tests,
outside the package, so no command can reach it.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence

from bmbounds.exactlp import ONE, ZERO, FeasibilityResult, LinearSystem, SystemError_


# ---------------------------------------------------------------------------
# Vertex enumeration (basic feasible points)
# ---------------------------------------------------------------------------

def _solve_square(rows: Sequence[tuple[tuple[Fraction, ...], Fraction]]) -> Optional[list[Fraction]]:
    """Solve an n x n rational linear system by Gaussian elimination.

    Returns None when the matrix is singular.
    """
    n = len(rows)
    a = [list(vec) + [rhs] for vec, rhs in rows]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = ONE / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def enumerate_vertices(system: LinearSystem) -> list[tuple[Fraction, ...]]:
    """All basic feasible points, deduplicated and sorted lexicographically.

    Every subset of n constraints with an invertible coefficient matrix is
    solved as equalities; the solution is kept when it satisfies the whole
    system.  Intended for small systems (<= ~6 variables).
    """
    n = len(system.variables)
    rows = system.normalized_rows()
    if n == 0:
        return []
    points = set()
    for subset in itertools.combinations(range(len(rows)), n):
        sol = _solve_square([rows[i] for i in subset])
        if sol is None:
            continue
        ok = True
        for vec, rhs in rows:
            if sum((c * x for c, x in zip(vec, sol)), ZERO) > rhs:
                ok = False
                break
        if ok:
            points.add(tuple(sol))
    return sorted(points)


# ---------------------------------------------------------------------------
# Exact phase-1 simplex (cross-check path)
# ---------------------------------------------------------------------------

def simplex_feasibility(system: LinearSystem) -> FeasibilityResult:
    """Phase-1 simplex with Bland's rule, exact arithmetic.

    Free variables are split into differences of nonnegative parts.  Used
    as an independent verdict to cross-check Fourier-Motzkin; infeasible
    outcomes carry no certificate (that is the elimination path's job), so
    the returned result for infeasible systems is status-only.
    """
    rows = system.normalized_rows()[: len(system.inequalities)]
    # Columns: one per nonneg var, two (plus/minus) per free var.
    columns: list[tuple[str, int]] = []  # (variable, sign)
    for v in system.variables:
        if v in system.nonneg:
            columns.append((v, +1))
        else:
            columns.append((v, +1))
            columns.append((v, -1))
    var_index = {v: i for i, v in enumerate(system.variables)}

    m = len(rows)
    ncols = len(columns)
    # Tableau rows: coefficients over structural cols + slack cols + artificial cols | rhs
    art_rows = [i for i, (_, rhs) in enumerate(rows) if rhs < 0]
    nart = len(art_rows)
    total = ncols + m + nart
    tab = []
    basis = []
    art_seq = {r: k for k, r in enumerate(art_rows)}
    for i, (vec, rhs) in enumerate(rows):
        row = [ZERO] * (total + 1)
        for ci, (v, sign) in enumerate(columns):
            row[ci] = vec[var_index[v]] * sign
        row[ncols + i] = ONE  # slack
        row[total] = rhs
        if rhs < 0:
            row = [-x for x in row]
            row[ncols + m + art_seq[i]] = ONE
            basis.append(ncols + m + art_seq[i])
        else:
            basis.append(ncols + i)
        tab.append(row)

    if nart == 0:
        witness = {v: ZERO for v in system.variables}
        # slack-basic start is already feasible for the normalized rows;
        # nonneg rows are satisfied by zero as well.
        return FeasibilityResult("feasible", witness=witness)

    # Objective: minimize the sum of artificials.  Cost 1 on artificial
    # columns, minus the artificial-basic rows to express reduced costs.
    obj = [ZERO] * (total + 1)
    for j in range(ncols + m, total):
        obj[j] = ONE
    for i in range(m):
        if basis[i] >= ncols + m:
            for k in range(total + 1):
                obj[k] -= tab[i][k]

    def pivot(row_i: int, col_j: int) -> None:
        inv = ONE / tab[row_i][col_j]
        tab[row_i] = [x * inv for x in tab[row_i]]
        for r in range(m):
            if r != row_i and tab[r][col_j] != 0:
                f = tab[r][col_j]
                tab[r] = [x - f * y for x, y in zip(tab[r], tab[row_i])]
        f = obj[col_j]
        if f != 0:
            for k in range(total + 1):
                obj[k] -= f * tab[row_i][k]
        basis[row_i] = col_j

    while True:
        # Artificial columns are barred from re-entering (Bland's rule on
        # the structural and slack columns only).
        entering = next((j for j in range(ncols + m) if obj[j] < 0), None)
        if entering is None:
            break
        ratios = [
            (tab[r][total] / tab[r][entering], basis[r], r)
            for r in range(m)
            if tab[r][entering] > 0
        ]
        if not ratios:  # unbounded phase-1 cannot happen; defensive
            break
        _, _, leave = min(ratios)
        pivot(leave, entering)

    objective_value = -obj[total]
    if objective_value != 0:
        return FeasibilityResult("infeasible")
    values = [ZERO] * total
    for r, b in enumerate(basis):
        values[b] = tab[r][total]
    witness = {v: ZERO for v in system.variables}
    for ci, (v, sign) in enumerate(columns):
        witness[v] += values[ci] * sign
    return FeasibilityResult("feasible", witness=witness)


# ---------------------------------------------------------------------------
# Reference certificate verifier (Fraction arithmetic)
# ---------------------------------------------------------------------------

def reference_verify_certificate(system: LinearSystem, result: FeasibilityResult) -> bool:
    """``exactlp.verify_certificate`` in Fraction arithmetic over the <=-rows.

    Same checks, in the same order and with the same errors: a witness must
    satisfy every constraint exactly; a Farkas vector must have one entry
    per normalised row, be nonnegative, cancel every variable and combine
    the right-hand sides into a negative number.
    """
    if result.status == "feasible":
        if result.witness is None:
            raise SystemError_("feasible result lacks a witness")
        missing = set(system.variables) - set(result.witness)
        if missing:
            raise SystemError_(f"witness misses variables {sorted(missing)}")
        point = {v: Fraction(result.witness[v]) for v in system.variables}
        if any(point[v] < 0 for v in system.nonneg):
            return False
        return all(ineq.satisfied_by(point) for ineq in system.inequalities)

    if result.status == "infeasible":
        if result.farkas is None:
            raise SystemError_("infeasible result lacks Farkas multipliers")
        rows = system.normalized_rows()
        if len(result.farkas) != len(rows):
            raise SystemError_(
                f"Farkas vector has length {len(result.farkas)}, expected {len(rows)}"
            )
        lam = [Fraction(x) for x in result.farkas]
        if any(x < 0 for x in lam):
            return False
        n = len(system.variables)
        combo = [ZERO] * n
        rhs = ZERO
        for mult, (vec, b) in zip(lam, rows):
            if mult == 0:
                continue
            for k in range(n):
                combo[k] += mult * vec[k]
            rhs += mult * b
        return all(c == 0 for c in combo) and rhs < 0

    raise SystemError_(f"unknown status {result.status!r}")
