"""Independent cross-checks for the pivoting decision in exactlp.

An exact phase-1 simplex (Bland's rule) on a Fraction tableau,
Fourier-Motzkin elimination on integer base rows (``fm_feasibility``) and
brute-force enumeration of basic feasible points decide feasibility by
routes that share nothing with ``exactlp.pivot``; the tests require all
four verdicts to agree.  A
reference certificate verifier does in Fraction arithmetic, over
``LinearSystem.normalized_rows``, what ``exactlp.verify_certificate`` does
in integers; the tests require the two to agree.  It lives with the tests,
outside the package, so no command can reach it.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from fractions import Fraction
from typing import Optional, Sequence

from bmbounds.exactlp import ZERO, FeasibilityResult, SystemError_, verified
from bmbounds.reference import ONE, LinearSystem, system_pairs, system_rows


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
    as an independent verdict to cross-check ``exactlp.pivot``; infeasible
    outcomes carry no certificate, so the returned result for infeasible
    systems is status-only.
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
# Fourier-Motzkin elimination with certificate provenance
# ---------------------------------------------------------------------------
#
# A live row of an elimination is (vec, num, den, node, piv): ``vec`` is a
# primitive integer direction (Python ints with gcd 1), ``num/den`` its
# right-hand side at the same scale as a reduced integer pair with den > 0,
# and ``piv`` the absolute value of the first nonzero entry of ``vec``.  The row stands for its
# normalised form vec/piv <= (num/den)/piv, whose leading coefficient is
# +-1; that form is canonical for a direction exactly when the primitive
# tuple is, so pruning and the certificates see the same rows either way.
#
# ``node`` indexes the run's ``origin`` list, whose entry says how the
# normalised row was made: ``(i, q, p)`` is inequality i times q and
# divided by p, where p/q is the absolute value of its first nonzero
# coefficient as a reduced pair, as its base row records it (1, 1 for an
# all-zero row); ``(p, n, w_p, w_n, d)`` is
# (w_p * row p + w_n * row n) / d for the parent nodes p and n, with
# nonnegative integer weights; "row" here means the normalised row of a
# node.  A pos/neg pair on x_j, with a = vec_p[j] and b = -vec_n[j], has
# weights (b * piv_p, a * piv_n) and d = g * piv for the gcd g and pivot piv
# of its reduced row; a pair that ends in 0 <= negative has d = a * b, which
# gives each parent coefficient +-1 on x_j.  Every division is left to the
# one Farkas rebuild.  A derived row gets a node only when its step keeps
# it, if only until a tighter row replaces it.  Parents are registered
# before their children, so node numbers follow creation order.


def _add(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """a/b + c/d as a reduced pair, for reduced pairs with b, d > 0."""
    g = math.gcd(b, d)
    if g == 1:
        return a * d + b * c, b * d
    s = b // g
    t = a * (d // g) + c * s
    g = math.gcd(t, g)
    return t // g, s * (d // g)


def _rebuild_farkas(origin: list, root: int, nrows: int) -> tuple[Fraction, ...]:
    """Expand node ``root`` into its multipliers on the base rows.

    Weights are pushed from each node to its parents in reverse creation
    order, so every ancestor is expanded once, after all of its children:
    the cost is linear in the number of ancestors (times a heap log), never
    in the number of paths to them.  A weight is a reduced integer pair
    num/den (den > 0); a node's weight is divided by the last entry of its
    record before it is passed on, times an integer weight, to its parents
    or, times q, to its base row.  Fractions are made only for the returned
    vector.
    """
    farkas = {}
    weight = {root: (1, 1)}
    heap = [-root]
    while heap:
        node = -heapq.heappop(heap)
        num, den = weight.pop(node)
        record = origin[node]
        g = math.gcd(num, record[-1])
        num, den = num // g, den * (record[-1] // g)
        if len(record) == 3:
            g = math.gcd(record[1], den)
            farkas[record[0]] = (num * (record[1] // g), den // g)
            continue
        p, n, w_p, w_n, _ = record
        for parent, coef in ((p, w_p), (n, w_n)):
            g = math.gcd(coef, den)
            term = (num * (coef // g), den // g)
            if parent in weight:
                weight[parent] = _add(*weight[parent], *term)
            else:
                weight[parent] = term
                heapq.heappush(heap, -parent)
    return tuple([Fraction(*farkas[i]) if i in farkas else ZERO for i in range(nrows)])


def _witness(n: int, layers: list) -> tuple[list[int], int]:
    """Back-substitute a point through the eliminated layers, last layer first.

    The point is kept as integer numerators over one common denominator D.
    A row of layer j bounds x_j by (num * D - den * rest) / (den * D * vec[j]),
    where rest/D is the row at the values fixed so far (x_j is still 0
    there, and the variables eliminated before j have coefficient 0).  x_j
    takes the largest lower bound, else the smallest upper bound, else 0;
    bounds are compared by cross-multiplication.
    """
    xs = [0] * n
    D = 1
    for j, pos, neg in reversed(layers):
        lo = hi = None  # (numerator, positive denominator)
        for vec, num, den, _, _ in neg:  # vec[j] < 0:  x_j >= bound
            rest = sum(map(operator.mul, vec, xs))
            bound = (den * rest - num * D, -den * D * vec[j])
            if lo is None or bound[0] * lo[1] > lo[0] * bound[1]:
                lo = bound
        if lo is None:
            for vec, num, den, _, _ in pos:  # vec[j] > 0:  x_j <= bound
                rest = sum(map(operator.mul, vec, xs))
                bound = (num * D - den * rest, den * D * vec[j])
                if hi is None or bound[0] * hi[1] < hi[0] * bound[1]:
                    hi = bound
        value = lo or hi
        if value is None:
            continue
        g = math.gcd(*value)
        vnum, vden = value[0] // g, value[1] // g
        scale = vden // math.gcd(D, vden)
        if scale != 1:
            xs = [x * scale for x in xs]
            D *= scale
        xs[j] = vnum * (D // vden)
    return xs, D


def solve_rows(variables: tuple[str, ...], rows: list[tuple]) -> FeasibilityResult:
    """Fourier-Motzkin elimination over base rows, its result unverified.

    ``rows`` are base rows as ``base_row`` makes them, over
    ``variables``; a Farkas vector has one multiplier per base row.  The
    variable with the fewest pairings is eliminated first (ties broken by
    variable order) so the intermediate row count stays small for the
    few-variable systems this targets.  A pos/neg pair on x_j combines as
    b * row_p + a * row_n with a = row_p[j] and b = -row_n[j], on the
    columns not yet eliminated, divided by its gcd g; its rhs is
    (b * num_p * den_n + a * num_n * den_p) / (den_p * den_n * g).  The
    step's rows go into a dict keyed by direction, the rows carried over
    (zero on x_j) first and then the pairs in order: a row replaces the
    one its direction holds only with a strictly smaller rhs, and only
    then is its rhs pair reduced and its parent record kept.  When one
    column is left, a pair gives 0 or s * e_k, so its bound is compared
    before any vector is made.  The first pair that reduces to
    0 <= negative ends the run, and its Farkas vector is rebuilt once from
    its ancestors; a feasible run back-substitutes a witness through the
    eliminated layers in integers.
    """
    n = len(variables)
    origin: list[tuple] = []
    contradiction = None
    best: dict[tuple, tuple] = {}
    for i, (vec, num, den, q, p) in enumerate(rows):
        piv = abs(next(filter(None, vec), 0))
        if not piv:
            if num < 0:
                contradiction = len(origin)
                origin.append((i, q, p))
                break
            continue
        kept = best.get(vec)
        if kept is None or num * kept[2] < kept[1] * den:
            best[vec] = (vec, num, den, len(origin), piv)
        origin.append((i, q, p))
    live = list(best.values())
    remaining = list(range(n))
    layers = []  # (var index, pos rows, neg rows) for witness back-substitution

    while remaining and contradiction is None:
        split = {j: ([r for r in live if r[0][j] > 0], [r for r in live if r[0][j] < 0])
                 for j in remaining}
        # remaining is ascending, so min's first minimum breaks ties by variable order.
        j = min(remaining, key=lambda k: len(split[k][0]) * len(split[k][1]))
        pos, neg = split[j]
        del split  # the other variables' lists, freed before new rows are made (peak RSS)
        layers.append((j, pos, neg))
        remaining.remove(j)
        cols = remaining  # the columns a row of this step can be nonzero on
        # This step's rows keyed by their entries on cols, carried rows first,
        # each direction keeping its tightest rhs (the first on ties).
        best = {tuple([r[0][c] for c in cols]): r for r in live if r[0][j] == 0}
        # With one column k left a pair makes 0 or s * e_k, so no vector is combined.
        k = cols[0] if len(cols) == 1 else None
        for pvec, pnum, pden, pnode, ppiv in pos:
            a = pvec[j]
            for nvec, nnum, nden, nnode, npiv in neg:
                b = -nvec[j]
                num = b * pnum * nden + a * nnum * pden
                if k is None:
                    vals = [b * pvec[c] + a * nvec[c] for c in cols]
                    g = math.gcd(*vals)
                    key = tuple([x // g for x in vals]) if g > 1 else tuple(vals)
                else:
                    s = b * pvec[k] + a * nvec[k]
                    g, key = abs(s), ((1,) if s > 0 else (-1,))
                if g == 0:
                    if num < 0:
                        contradiction = len(origin)
                        origin.append((pnode, nnode, b * ppiv, a * npiv, a * b))
                        break
                    continue
                den = pden * nden * g
                kept = best.get(key)
                if kept is None or num * kept[2] < kept[1] * den:
                    vec = [0] * n
                    for c, x in zip(cols, key):
                        vec[c] = x
                    r = math.gcd(num, den)
                    piv = abs(next(filter(None, key)))
                    best[key] = (tuple(vec), num // r, den // r, len(origin), piv)
                    origin.append((pnode, nnode, b * ppiv, a * npiv, g * piv))
            if contradiction is not None:
                break
        live = list(best.values())

    if contradiction is not None:
        return FeasibilityResult("infeasible", farkas=_rebuild_farkas(origin, contradiction, len(rows)))
    xs, D = _witness(n, layers)
    return FeasibilityResult("feasible", witness={v: Fraction(x, D) for v, x in zip(variables, xs)})


def fm_feasibility(system: LinearSystem) -> FeasibilityResult:
    """``solve_rows`` on the system's base rows (``system_rows``), its
    certificate re-verified on the system's pair rows (``verified``)."""
    return verified(system.variables, system_pairs(system),
                    solve_rows(system.variables, system_rows(system)))



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
