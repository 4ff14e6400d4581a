"""The Fraction reference layer: systems built, decided and checked as values.

``LinearSystem`` holds a system as Fractions; the builders make the case and
assignment systems from the row tables, the independent reference the tests
compare ``systems.case_echoes`` with; ``check_feasibility`` decides any width
(``exactlp.pivot`` on four columns, ``_pivot_n`` on any other number),
``verify_certificate`` checks on pair rows, and ``system_doc`` and its inverse
give the system-definition format.  Only ``verify-cert``, on an echo that
differs, loads this module; the package's names, and those the benchmark's
tracer wraps in ``exactlp``, ``systems`` and ``certify``, load it on first use.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Mapping, Sequence

from .exactlp import (GE, LE, ZERO, FeasibilityResult, SystemError_, base_row, nonneg_pair, pivot,
                      support_farkas, verified, verify_pairs)
from .rationals import RationalFormatError, parse_rational
from .systems import (ALL_CASES, CASE_TABLES, BRANCH_ROWS, DEFAULT_DICHOTOMY_FUNCTIONS, DEFAULT_POLICY,
                      VARIABLES, CPolicy, JCase, SystemFormatError, TableRow, Variant, branch_strings,
                      case_meta, case_pairs, case_point, check_functions, row_entry)

ONE = Fraction(1)


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


def pair_row(ineq: LinearInequality, variables: Sequence[str]) -> tuple:
    """The pair row (coeffs, relation, (num, den)) of an inequality: ``coeffs``
    holds (variable, num, den) per coefficient, in ``variables`` order, and
    each num/den is a reduced pair with den > 0."""
    coeffs = ineq.coeffs
    return (tuple([(v, c.numerator, c.denominator) for v in variables
                   if (c := coeffs.get(v)) is not None]),
            ineq.relation, (ineq.rhs.numerator, ineq.rhs.denominator))


def system_pairs(system: LinearSystem) -> list[tuple]:
    """The pair rows of a system: its inequalities in order, then -v <= 0 per nonneg variable."""
    variables = system.variables
    return ([pair_row(ineq, variables) for ineq in system.inequalities]
            + [nonneg_pair(v) for v in system.nonneg_ordered])


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


def _swap_n(cols: list, D: int, k: int, lam: list[int]) -> tuple[list, int]:
    """``exactlp._swap`` for columns of any width."""
    d, ck = lam[k], cols[k]
    s = 1 if d > 0 else -1
    return [[s * x for x in ck] if j == k else [s * (d * x - lam[j] * y) // D for x, y in zip(col, ck)]
            for j, col in enumerate(cols)], abs(d)


def _pivot_n(rows: Sequence[tuple]) -> tuple:
    """``exactlp.pivot`` for rows of any width n, with the same rules and the same swaps."""
    n = len(rows[0][0])
    scaled = [[den * x for x in vec] for vec, _, den, _, _ in rows]
    cols, D = [[-int(i == j) for i in range(n)] for j in range(n)], 1
    basis = [rows.index((tuple(col), 0, 1, 1, 1)) for col in cols]
    while True:
        xs = [sum([rows[i][1] * col[j] for i, col in zip(basis, cols)]) for j in range(n)]
        r = next((r for r, (a, row) in enumerate(zip(scaled, rows))
                  if sum(map(operator.mul, a, xs)) > row[1] * D), None)
        if r is None:
            return True, basis, (xs, D)
        lam = [sum(map(operator.mul, scaled[r], col)) for col in cols]
        leaving = [k for k in range(n) if lam[k] > 0]
        if not leaving:
            weights = {r: D, **{basis[k]: -lam[k] for k in range(n)}}
            verdict = sorted(weights)
            return False, verdict, [weights[i] * rows[i][2] for i in verdict]
        k = min(leaving, key=basis.__getitem__)
        cols, D = _swap_n(cols, D, k, lam)
        basis[k] = r


def check_feasibility(system: LinearSystem) -> FeasibilityResult:
    """Exact feasibility verdict with a verifying certificate attached.

    The system is cleared into its base rows by ``system_rows`` and decided
    by ``exactlp.pivot`` if four columns, as a case system's, else by
    ``_pivot_n``, with each free variable split as x+ - x-: its coefficient
    is repeated, negated, on a column appended for x-, and a nonneg row is
    appended for x+ and for x-.  A Farkas combination gives those appended
    rows weight 0, as the x+ and x- columns cancel; the witness is x+ - x-.
    The certificate is re-verified by substitution into the system's own
    coefficients before it is returned.
    """
    rows = system_rows(system)
    free = [k for k, v in enumerate(system.variables) if v not in system.nonneg]
    n = len(system.variables) + len(free)
    split = [(vec + tuple([-vec[k] for k in free]), num, den, q, p) for vec, num, den, q, p in rows]
    for j in [*free, *range(n - len(free), n)]:  # the nonneg rows of x+ and x-
        split.append((tuple([-int(i == j) for i in range(n)]), 0, 1, 1, 1))
    feasible, found, cert = (pivot if n == 4 else _pivot_n)(split)
    if feasible:
        xs, D = cert
        minus = dict(zip(free, xs[n - len(free):]))
        witness = {v: Fraction(xs[k] - minus.get(k, 0), D) for k, v in enumerate(system.variables)}
        result = FeasibilityResult("feasible", witness=witness)
    else:
        result = FeasibilityResult("infeasible", farkas=support_farkas(split, found, cert)[:len(rows)])
    return verified(system.variables, system_pairs(system), result)


def verify_certificate(system: LinearSystem, result: FeasibilityResult) -> bool:
    """Re-check a feasibility result against the system by substitution only:
    ``verify_pairs`` on the system's pair rows (``system_pairs``)."""
    return verify_pairs(system.variables, system_pairs(system), result)


def _inequality(label: str, pair: tuple) -> LinearInequality:
    """The inequality of a pair row."""
    coeffs, relation, rhs = pair
    return LinearInequality({v: Fraction(p, q) for v, p, q in coeffs}, relation, Fraction(*rhs), label)


def table_system(rows: Sequence[TableRow], pairs: Sequence[tuple], meta: dict) -> LinearSystem:
    """The system over ``VARIABLES``, all nonnegative, whose inequalities
    are the table rows ``rows`` built from their pair rows ``pairs``."""
    return LinearSystem(VARIABLES, tuple([_inequality(row.label, pair) for row, pair in zip(rows, pairs)]),
                        frozenset(VARIABLES), meta)


def build_case_system(
    case: JCase,
    t: Fraction,
    policy: CPolicy = DEFAULT_POLICY,
    variant: Variant = Variant.SYMMETRIZED,
) -> LinearSystem:
    """Instantiate one case system at rational t with denominators cleared.

    Raises DomainError when t <= 1, c(t) <= 1 or the policy leaves the
    band t/2 <= c <= t.
    """
    t = Fraction(t)
    point = case_point(t, policy)
    return table_system(CASE_TABLES[case], case_pairs(case, point, variant),
                        case_meta(case, t, point, policy, variant))


def build_all_cases(
    t: Fraction,
    policy: CPolicy = DEFAULT_POLICY,
    variant: Variant = Variant.SYMMETRIZED,
) -> dict[JCase, LinearSystem]:
    return {case: build_case_system(case, t, policy, variant) for case in ALL_CASES}


def branch_row(t: Fraction, m: int, branch: str) -> LinearInequality:
    """One dichotomy inequality for the indicator of tail m at level t.

    With x = th_m and y = a + sum of the other atom masses, branch "a" is
        t >= 2(t - x + y)/(t-1) - x + y
    and branch "b" is
        t >= 2(t + x - y)/(t-1) + x + y.
    """
    if branch not in ("a", "b"):
        raise SystemError_(f"branch must be 'a' or 'b', got {branch!r}")
    if m not in (0, 1, 2):
        raise SystemError_(f"tail index must be 0, 1 or 2, got {m!r}")
    t = Fraction(t)
    row = BRANCH_ROWS[m, branch]
    return _inequality(row.label, row.pairs((t.numerator, 0, t.denominator)))


def build_dichotomy_systems(
    t: Fraction,
    policy: CPolicy = DEFAULT_POLICY,
    functions: Sequence[int] = DEFAULT_DICHOTOMY_FUNCTIONS,
    variant: Variant = Variant.SYMMETRIZED,
) -> list[tuple[str, list[LinearSystem]]]:
    """Each branch assignment ("a" or "b" per function) with its four extended case systems.

    In product order; each system is its case system at t, built once,
    plus one branch row per function, appended after the base
    inequalities, with ``meta["branches"]`` set.  The rows are built once
    and shared.  Raises FunctionsError, before any system is built, unless
    the functions are distinct indices 0-2; the case systems are built
    before a branch row divides by t - 1, which checks the guards.
    """
    functions = check_functions(functions)
    bases = build_all_cases(t, policy, variant).values()
    t = Fraction(t)
    rows = [{br: branch_row(t, m, br) for br in "ab"} for m in functions]
    out = []
    for branches in branch_strings(len(functions)):
        extra = tuple(row[br] for row, br in zip(rows, branches))
        out.append((branches, [replace(base, inequalities=base.inequalities + extra,
                                       meta={"branches": branches, **base.meta}) for base in bases]))
    return out


def system_doc(system: LinearSystem) -> dict:
    """Canonical JSON-ready form of a LinearSystem; rationals as p/q strings."""
    variables = system.variables
    return {
        "variables": list(variables),
        "nonneg": [v for v in variables if v in system.nonneg],
        "inequalities": [row_entry(ineq.label, pair_row(ineq, variables))
                         for ineq in system.inequalities],
        "meta": {k: str(v) for k, v in sorted(system.meta.items())},
    }


def serialize_system(system: LinearSystem) -> str:
    """Canonical JSON text for a LinearSystem: ``system_doc`` as indented JSON."""
    return json.dumps(system_doc(system), indent=2) + "\n"


def parse_system_file(text: str) -> LinearSystem:
    """Parse the system-definition format; round-trips with serialize_system."""
    try:
        return system_from_doc(json.loads(text))
    except json.JSONDecodeError as exc:
        raise SystemFormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def system_from_doc(doc) -> LinearSystem:
    """Read a decoded system-definition object: the inverse of ``system_doc``.
    An audit reads only an echo that differs from its canonical rendering."""
    if not isinstance(doc, dict):
        raise SystemFormatError("top-level value must be an object")
    try:
        variables = tuple(str(v) for v in doc["variables"])
        nonneg = [str(v) for v in doc.get("nonneg", [])]
        raw_ineqs = doc["inequalities"]
    except KeyError as exc:
        raise SystemFormatError(f"missing field {exc.args[0]!r}") from exc
    inequalities = tuple([_inequality_from_doc(entry, f"inequality #{idx}")
                          for idx, entry in enumerate(raw_ineqs)])
    meta = {str(k): str(v) for k, v in doc.get("meta", {}).items()}
    try:
        return LinearSystem(variables, inequalities, frozenset(nonneg), meta)
    except SystemError_ as exc:
        raise SystemFormatError(str(exc)) from exc


def _inequality_from_doc(entry, where: str) -> LinearInequality:
    try:
        label = str(entry["label"])
        rel = entry["rel"]
        rhs = parse_rational(entry["rhs"])
        coeffs = {str(v): parse_rational(s) for v, s in entry["coeffs"].items()}
    except KeyError as exc:
        raise SystemFormatError(f"{where}: missing field {exc.args[0]!r}") from exc
    except RationalFormatError as exc:
        raise SystemFormatError(f"{where}: {exc}") from exc
    if rel not in (LE, GE):
        raise SystemFormatError(f"{where}: unknown relation {rel!r}")
    return LinearInequality(coeffs, rel, rhs, label)
