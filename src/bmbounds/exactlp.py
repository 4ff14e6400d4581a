"""Exact feasibility decisions for rational linear-inequality systems.

The one decision procedure, ``solve_rows``, is Fourier-Motzkin elimination
carried out on Python integers.  It reads base rows, which ``base_row``
makes and documents: each is a primitive integer direction (ints with
gcd 1) with its right-hand side as a reduced integer pair num/den, den > 0,
and the leading-coefficient pair of the inequality it stands for.
``system_rows`` clears a ``LinearSystem``'s pair rows (``system_pairs``)
into them, each by the integer lcm of its denominators;
``systems.case_rows`` and the ``make`` of each ``systems.BRANCH_ROWS`` row
make the same rows from the integer formulas the case systems and branch
rows are built from, so only ``check_feasibility`` uses ``system_rows``,
and no command calls it.
A derived row is an integer combination of two rows on the columns still
live, divided by its gcd, with its rhs pair combined over the product of
the two denominators; each step keeps, per direction, the tightest rhs it
makes (the first on ties), and reduces the rhs pair of a kept row only.
Every derived row keeps only a small parent record (the two rows it was
combined from, with nonnegative integer weights, and one divisor), not a
multiplier vector over the original rows.
When a row reduces to 0 <= negative, the Farkas certificate is rebuilt
once, for that row alone, by pushing weights back through its ancestors
as reduced integer pairs; every division waits for that rebuild, and exact
arithmetic makes the result equal, entry for entry, to the combination a
dense multiplier vector would have carried.  A feasible run yields a
witness point by back-substitution, kept as integer numerators over one
common denominator.  Fractions are made only for the returned witness or
Farkas vector.

Every verdict passes one exact check by substitution before it is used.
``verify_pairs`` is the one certificate check: it reads pair rows, each
inequality's own coefficients and rhs as reduced integer pairs, never the
base rows elimination made of them.  A certificate a document carries
passes ``verified``, that check as a self-check, here in
``check_feasibility`` or in a caller that decided it from rows or reuses
it for another system, on the pair rows the system is built from
(``systems.case_pairs``); ``verify_certificate`` reads a ``LinearSystem``'s
pair rows (``system_pairs``).  A verdict on base rows alone passes
``infeasible_on`` or ``feasible_at``: they re-solve, on those rows or on
other rows of the same shape, a Farkas support or a tight basis that
``farkas_support`` and ``tight_basis`` take from a result, accept only
after exact substitution, and return the support's weights or the basis
vertex; ``support_farkas`` turns those weights into an integer Farkas
vector on the inequalities.  Five support rows or four basis rows over
four variables are re-solved by Cramer's rule, other shapes by integer
Gauss-Jordan elimination.  The independent cross-checks, an exact phase-1
simplex, brute-force vertex enumeration and a Fraction reference
verifier, live with the tests (``tests/crosscheck.py``), which require
them to agree with this module.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

LE = "<="
GE = ">="


SELF_CHECK_FAILED = "internal error: emitted certificate failed verification"


class SystemError_(ValueError):
    """Malformed system or certificate input."""


@dataclass(frozen=True)
class LinearInequality:
    """A single inequality  sum(coeffs[v] * v) REL rhs  with REL in {<=, >=}."""

    coeffs: Mapping[str, Fraction]
    relation: str
    rhs: Fraction
    label: str

    def __post_init__(self):
        if self.relation not in (LE, GE):
            raise SystemError_(f"unknown relation {self.relation!r} in {self.label!r}")
        if not self.label:
            raise SystemError_("inequality label must be nonempty")
        # Builders pass Fractions already; only other values are converted.
        object.__setattr__(self, "coeffs", {k: v if type(v) is Fraction else Fraction(v)
                                            for k, v in self.coeffs.items()})
        if type(self.rhs) is not Fraction:
            object.__setattr__(self, "rhs", Fraction(self.rhs))

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        return sum((c * point[v] for v, c in self.coeffs.items()), ZERO)

    def satisfied_by(self, point: Mapping[str, Fraction]) -> bool:
        lhs = self.evaluate(point)
        return lhs <= self.rhs if self.relation == LE else lhs >= self.rhs


@dataclass(frozen=True)
class LinearSystem:
    """A finite list of inequalities over an ordered variable tuple.

    ``nonneg`` lists the variables additionally constrained to be >= 0.
    ``meta`` is a free-form provenance record carried through reports.
    """

    variables: tuple[str, ...]
    inequalities: tuple[LinearInequality, ...]
    nonneg: frozenset[str] = frozenset()
    meta: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "inequalities", tuple(self.inequalities))
        object.__setattr__(self, "nonneg", frozenset(self.nonneg))
        declared = set(self.variables)
        if len(self.variables) != len(declared):
            raise SystemError_("duplicate variable names")
        if not self.nonneg <= declared:
            raise SystemError_(f"nonneg names undeclared variables: {sorted(self.nonneg - declared)}")
        for ineq in self.inequalities:
            undeclared = set(ineq.coeffs) - declared
            if undeclared:
                raise SystemError_(
                    f"inequality {ineq.label!r} references undeclared variables {sorted(undeclared)}"
                )

    @property
    def nonneg_ordered(self) -> tuple[str, ...]:
        return tuple([v for v in self.variables if v in self.nonneg])

    def normalized_rows(self) -> list[tuple[tuple[Fraction, ...], Fraction]]:
        """All constraints as <=-rows: inequalities in order, then -v <= 0 per nonneg var.

        The Fraction view the cross-checks work on; the solver and the
        verifier read the inequalities directly.
        """
        rows = []
        for ineq in self.inequalities:
            vec = [ineq.coeffs.get(v, ZERO) for v in self.variables]
            rhs = ineq.rhs
            if ineq.relation == GE:
                vec = [-c for c in vec]
                rhs = -rhs
            rows.append((tuple(vec), rhs))
        for v in self.nonneg_ordered:
            vec = tuple(-ONE if w == v else ZERO for w in self.variables)
            rows.append((vec, ZERO))
        return rows


@dataclass(frozen=True)
class FeasibilityResult:
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
    den *= g
    r = math.gcd(num, den)
    return tuple([x // g for x in vec]), num // r, den // r, scale // h, abs(lead) // h


def system_rows(system: LinearSystem) -> list[tuple]:
    """The base rows of a system: each pair row (``system_pairs``), its <=-form
    cleared by the lcm of its nonzero entries' denominators, through ``base_row``.

    A row with no nonzero coefficient keeps the zero direction, the rhs of
    its <=-form and p = q = 1.  ``systems.case_rows`` makes the same rows
    for the case systems from integers alone.
    """
    index = {v: k for k, v in enumerate(system.variables)}
    n = len(index)
    # Lists, not generators, feed tuple() and the *-calls here and in the
    # verifiers: a tuple built from a generator is over-allocated and
    # shrunk, and the shrunk tuples pile up in the interpreter's tuple free
    # lists (3% more peak RSS on the search workload).
    rows = []
    for coeffs, relation, (num, den) in system_pairs(system):
        terms = [(index[v], p, q) for v, p, q in coeffs if p]
        sign = -1 if relation == GE else 1
        if not terms:
            rows.append((tuple([0] * n), sign * num, den, 1, 1))
            continue
        scale = math.lcm(*[q for _, _, q in terms])
        vec = [0] * n
        for k, p, q in terms:
            vec[k] = sign * p * (scale // q)
        rows.append(base_row(vec, scale, sign * num * scale, den))
    return rows


def solve_rows(variables: tuple[str, ...], rows: list[tuple]) -> FeasibilityResult:
    """Fourier-Motzkin elimination over base rows: the one solver, its result unverified.

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


# ---------------------------------------------------------------------------
# Warm starts: re-solving a basis, a list of base-row indices, for other rows,
# by Cramer's rule in the case systems' shape and else by elimination
# ---------------------------------------------------------------------------

_PAIRS = list(itertools.combinations(range(5), 2))


def _splits(k: int) -> tuple:
    """For each split of the vectors other than v_k into the pair at positions
    p < q and the other two, pickers of the pair's 2x2 minor from a list in
    ``_PAIRS`` order and of the other two's from that list and its negation,
    as the sign (-1)**(k + p + q + 1) of the term says."""
    rest = [i for i in range(5) if i != k]
    lo, hi = [], []
    for p, q in itertools.combinations(range(4), 2):
        lo.append(_PAIRS.index((rest[p], rest[q])))
        other = tuple([i for j, i in enumerate(rest) if j not in (p, q)])
        hi.append(_PAIRS.index(other) + len(_PAIRS) * ((k + p + q + 1) % 2))
    return operator.itemgetter(*lo), operator.itemgetter(*hi)


_SPLITS = [_splits(k) for k in range(5)]


def _signed_minors(vectors: list) -> list[int]:
    """y_k = (-1)**k det(the vectors other than v_k), for five integer vectors
    v_0..v_4 of length 4: sum_k y_k v_k = 0, and y != 0 exactly when they
    have rank 4.  Each determinant is a Laplace expansion along coordinates
    0, 1, with the sign (-1)**(p + q + 1) for the pair at positions p < q."""
    c0, c1, c2, c3 = zip(*vectors)
    lo = [c0[i] * c1[j] - c0[j] * c1[i] for i, j in _PAIRS]
    hi = [c2[i] * c3[j] - c2[j] * c3[i] for i, j in _PAIRS]
    hi += [-x for x in hi]
    return [sum(map(operator.mul, pick_lo(lo), pick_hi(hi))) for pick_lo, pick_hi in _SPLITS]


def _kernel_vector(vectors: list) -> Optional[list[int]]:
    """A generator of the kernel of ``vectors`` (integer y, sum_k y_k v_k = 0)
    if it is one-dimensional, else None: the nonzero ``_signed_minors`` for
    five vectors of length 4, else ``_eliminate``'s one kernel vector."""
    if len(vectors) == 5 and len(vectors[0]) == 4:
        y = _signed_minors(vectors)
        return y if any(y) else None
    _, kernel = _eliminate(vectors)
    return kernel[0] if len(kernel) == 1 else None


def _eliminate(columns: list) -> tuple[list[int], list[list[int]]]:
    """Gauss-Jordan elimination, in integers, of the matrix with these columns.

    Returns the pivot columns, each independent of the columns before it,
    and one kernel vector per other column f: integers with gcd 1,
    positive at f and zero at every other non-pivot column.
    """
    matrix = [list(row) for row in zip(*columns)]
    pivots = []
    for f in range(len(columns)):
        r = len(pivots)
        i = next((i for i in range(r, len(matrix)) if matrix[i][f]), None)
        if i is None:
            continue
        matrix[r], matrix[i] = matrix[i], matrix[r]
        prow = matrix[r]
        a = prow[f]
        for i, row in enumerate(matrix):
            b = row[f]
            if b and i != r:
                row = [a * x - b * y for x, y in zip(row, prow)]
                g = math.gcd(*row)
                matrix[i] = [x // g for x in row] if g > 1 else row
        pivots.append(f)
    lcm = math.lcm(*[matrix[r][c] for r, c in enumerate(pivots)])
    kernel = []
    for f in [f for f in range(len(columns)) if f not in pivots]:
        z = [0] * len(columns)
        z[f] = lcm
        for r, c in enumerate(pivots):
            z[c] = -matrix[r][f] * (lcm // matrix[r][c])
        g = math.gcd(*z)
        kernel.append([x // g for x in z])
    return pivots, kernel


def infeasible_on(rows: Sequence[tuple], support: Optional[Sequence[int]]) -> Optional[list[int]]:
    """The weights y >= 0 by which the base rows ``support`` prove ``rows``
    infeasible, or None if they do not: their directions must have a
    one-dimensional kernel (``_kernel_vector``, by Cramer's rule for five
    rows over four variables) whose generator has one sign and, taken
    nonnegative as y, cancels every variable and combines the right-hand
    sides into a negative number."""
    if not support:
        return None
    picked = [rows[i] for i in support]
    vecs = [vec for vec, _, _, _, _ in picked]
    y = _kernel_vector(vecs)
    if y is None or min(y) < 0 < max(y):
        return None
    if min(y) < 0:
        y = [-x for x in y]
    ok = (not any([sum(map(operator.mul, y, column)) for column in zip(*vecs)])
          and _lcm_sum([(w * num, den) for w, (_, num, den, _, _) in zip(y, picked)]) < 0)
    return y if ok else None


def feasible_at(rows: list[tuple], basis: Optional[Sequence[int]]) -> Optional[tuple[list[int], int]]:
    """The point (xs, D), x = xs / D, where the n base rows ``basis`` are
    tight, if it exists and satisfies every row of ``rows``, the nonneg rows
    included; else None.  (xs, D) is the kernel generator, D > 0, of the
    columns den * direction and -rhs of those rows (``_kernel_vector``,
    Cramer's rule for four rows)."""
    if not basis:
        return None
    n = len(rows[0][0])
    tight = [rows[i] for i in basis]
    z = _kernel_vector([[den * vec[j] for vec, _, den, _, _ in tight] for j in range(n)]
                       + [[-num for _, num, _, _, _ in tight]])
    if z is None or not z[-1]:
        return None
    *xs, D = z if z[-1] > 0 else [-x for x in z]
    ok = all(den * sum(map(operator.mul, vec, xs)) <= num * D for vec, num, den, _, _ in rows)
    return (xs, D) if ok else None


def support_farkas(rows: Sequence[tuple], support: Sequence[int], y: Sequence[int]) -> tuple[Fraction, ...]:
    """The Farkas vector, one multiplier per inequality of ``rows``, of the
    weights ``y`` that ``infeasible_on`` gives the base rows ``support``.

    y_k weighs base row (vec, num, den, q, p) with pivot piv, so it weighs
    its inequality by y_k * q * piv / p, the inverse of the weight in
    ``farkas_support``; the multipliers are scaled to primitive integers,
    and every row off the support gets 0.
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


def farkas_support(rows: list[tuple], farkas: tuple[Fraction, ...]) -> tuple[list[int], Optional[list[int]]]:
    """A support from a Farkas vector of ``rows``, and the weights by which
    ``infeasible_on`` accepts it (None if it does not).

    A support of at most n + 1 rows that ``infeasible_on`` accepts is
    returned as it is, with the weights that check gave: its columns
    den * (direction, rhs) are independent, since the kernel of its
    directions is one-dimensional and its weights give a nonzero rhs.  Any
    other is reduced (Carathéodory) until those columns are independent, at
    most n + 1: each step subtracts a kernel vector from their weights until
    one weight is zero; the reduced support is then checked.
    """
    support = [i for i, y in enumerate(farkas) if y]
    y = len(support) <= len(rows[0][0]) + 1 and infeasible_on(rows, support)
    if y:
        return support, y
    picked = [rows[i] for i in support]
    columns = [[den * x for x in vec] + [num] for vec, num, den, _, _ in picked]
    # y on an inequality weighs its base row (vec, num, den, q, p) by y * p / (q * piv),
    # and so its column by that over den; the integer pairs are scaled to
    # integers by the lcm of their reduced denominators.
    w = [(farkas[i].numerator * p, farkas[i].denominator * q * abs(next(filter(None, vec), 1)) * den)
         for i, (vec, _, den, q, p) in zip(support, picked)]
    scale = math.lcm(*[b // math.gcd(a, b) for a, b in w])
    w = [a * scale // b for a, b in w]
    while True:
        _, kernel = _eliminate(columns)
        if not kernel:
            return list(support), infeasible_on(rows, support)
        z = kernel[0]
        k = None  # the first index of least w[k] / z[k] over z[k] > 0
        for i, (a, b) in enumerate(zip(w, z)):
            if b > 0 and (k is None or a * z[k] < w[k] * b):
                k = i
        w = [z[k] * a - w[k] * b for a, b in zip(w, z)]
        support, columns, w = zip(*[item for item in zip(support, columns, w) if item[2]])


def tight_basis(rows: list[tuple], witness: Mapping[str, Fraction]) -> Optional[list[int]]:
    """n independent base rows tight at ``witness``, whose values are in the
    rows' variable order (the first such rows first), if there are n.

    There are n for a witness ``solve_rows`` finds on rows that hold
    -x_j <= 0 for every variable, as the case systems do.  Each elimination
    layer then still holds a row of direction -x_j (that one, or a tighter
    one), so back-substitution sets every coordinate at a tight lower
    bound.  Those bound rows are triangular in the elimination order, and
    each is a nonnegative combination of base rows that are tight too, so
    the tight base rows have rank n.
    """
    point = list(witness.values())
    scale = math.lcm(*[x.denominator for x in point])
    xs = [x.numerator * (scale // x.denominator) for x in point]
    tight = [i for i, (vec, num, den, _, _) in enumerate(rows)
             if den * sum(map(operator.mul, vec, xs)) == num * scale]
    pivots, _ = _eliminate([rows[i][0] for i in tight])
    return [tight[c] for c in pivots] if len(pivots) == len(xs) else None


def check_feasibility(system: LinearSystem) -> FeasibilityResult:
    """Exact feasibility verdict with a verifying certificate attached.

    The system is cleared into its base rows by ``system_rows`` and
    decided by ``solve_rows``; the certificate is re-verified by
    substitution into the system's own coefficients before it is returned.
    """
    return verified(system.variables, system_pairs(system),
                    solve_rows(system.variables, system_rows(system)))


# ---------------------------------------------------------------------------
# Certificate verification (pure substitution)
# ---------------------------------------------------------------------------

def pair_row(ineq: LinearInequality, variables: Sequence[str]) -> tuple:
    """The pair row (coeffs, relation, (num, den)) of an inequality: ``coeffs``
    holds (variable, num, den) per coefficient, in ``variables`` order, and
    each num/den is a reduced pair with den > 0."""
    coeffs = ineq.coeffs
    return (tuple([(v, c.numerator, c.denominator) for v in variables
                   if (c := coeffs.get(v)) is not None]),
            ineq.relation, (ineq.rhs.numerator, ineq.rhs.denominator))


def nonneg_pair(v: str) -> tuple:
    """The pair row of -v <= 0."""
    return ((v, -1, 1),), LE, (0, 1)


def system_pairs(system: LinearSystem) -> list[tuple]:
    """The pair rows of a system: its inequalities in order, then -v <= 0 per nonneg variable."""
    variables = system.variables
    return ([pair_row(ineq, variables) for ineq in system.inequalities]
            + [nonneg_pair(v) for v in system.nonneg_ordered])


def verified(variables: Sequence[str], rows: Sequence[tuple],
             result: FeasibilityResult) -> FeasibilityResult:
    """``result``, once ``verify_pairs`` accepts it for the pair rows ``rows``.

    The self-check every emitted certificate passes: a failure is an
    internal error and raises AssertionError.
    """
    if not verify_pairs(variables, rows, result):
        raise AssertionError(SELF_CHECK_FAILED)
    return result


def verify_certificate(system: LinearSystem, result: FeasibilityResult) -> bool:
    """Re-check a feasibility result against the system by substitution only:
    ``verify_pairs`` on the system's pair rows (``system_pairs``)."""
    return verify_pairs(system.variables, system_pairs(system), result)


def verify_pairs(variables: Sequence[str], rows: Sequence[tuple], result: FeasibilityResult) -> bool:
    """Re-check a feasibility result against pair rows over ``variables`` by
    substitution only: the one certificate check.

    Independent of the solver: it reads the coefficients as written, never
    the integer rows elimination made of them.  A witness must satisfy every
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
