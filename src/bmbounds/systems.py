"""Builders and integer row tables for the four-case inequality systems behind the lower bound.

The certification argument splits on how many of the three limit atoms
admit a large point evaluation (threshold c).  Each case yields a small
system of linear inequalities over (th0, th1, th2, a) -- the sorted atom
masses and the residual variation -- parametrized by t and by an affine
c-policy c(t) = (p*t + q)/r.  Joint infeasibility of all four systems at
a given t certifies t as a lower bound for the achievable distortion.

Inequality labels follow the internal numbering 7a-7d (case J012), 6a-6d
plus 6b2 (case not0), 8a-8f (case in0not1) and 9a-9f (case in01not2).
The d-row of case in0not1 exists in two readings ("printed" and
"symmetrized") selected by the variant flag; nothing else depends on it.

``CASE_TABLES`` holds one table per case, each row with two encodings.
A row's ``build`` writes it as a Fraction inequality: ``build_case_system``
assembles those, the encoding documents echo and ``verify-cert`` rebuilds
from.  Its ``make`` computes, from t = n/d and the policy alone, the base
row ``exactlp.solve_rows`` decides from.  ``case_rows`` lists a case's
base rows at the ``case_point`` of t and the policy, which checks the
guards on integers; the tests hold every made row equal to the base row
``exactlp.system_rows`` clears from the built row.
"""

from __future__ import annotations

import enum
import itertools
import json
import reprlib
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Iterable, Mapping, Sequence

from .exactlp import GE, LE, LinearInequality, LinearSystem, SystemError_, base_row
from .rationals import InputError, RationalFormatError, format_rational, parse_int, parse_rational

VARIABLES = ("th0", "th1", "th2", "a")
THETAS = ("th0", "th1", "th2")


class DomainError(InputError):
    """A guard on t or the c-policy failed; the message names the guard."""


class JCase(enum.Enum):
    """The four case tags of the certification split."""

    J012 = "J012"
    NOT0 = "not0"
    IN0_NOT1 = "in0not1"
    IN01_NOT2 = "in01not2"


class Variant(enum.Enum):
    """Which reading of the in0not1 d-row to use."""

    PRINTED = "printed"
    SYMMETRIZED = "symmetrized"


ALL_CASES = (JCase.J012, JCase.NOT0, JCase.IN0_NOT1, JCase.IN01_NOT2)


@dataclass(frozen=True, order=True)
class CPolicy:
    """Affine threshold choice c(t) = (p*t + q)/r with integer p, q, r > 0."""

    p: int
    q: int
    r: int

    def __post_init__(self):
        if self.r <= 0:
            raise DomainError("c-policy requires r > 0")

    def c_at(self, t: Fraction) -> Fraction:
        return (self.p * Fraction(t) + self.q) / self.r

    def key(self) -> str:
        return f"{self.p},{self.q},{self.r}"

    @classmethod
    def parse(cls, text: str) -> CPolicy:
        """The policy ``key`` writes as ``p,q,r``: three ASCII integer literals.

        Any other text raises RationalFormatError, and r <= 0 DomainError.
        """
        parts = text.split(",") if isinstance(text, str) else ()
        if len(parts) != 3:
            raise RationalFormatError(f"c-policy must be p,q,r, got {text!r}")
        return cls(*(parse_int(x) for x in parts))


DEFAULT_POLICY = CPolicy(2, 1, 4)


def _guards(t: Fraction, policy: CPolicy) -> tuple[Fraction, Fraction]:
    """Validate the positivity guards; return (c, u) with u = (t + c)/2."""
    t = Fraction(t)
    if t <= 1:
        raise DomainError(f"guard failed: t - 1 must be positive, got t = {format_rational(t)}")
    c = policy.c_at(t)
    if c <= 1:
        raise DomainError(f"guard failed: c - 1 must be positive, got c = {format_rational(c)}")
    if not (t / 2 <= c <= t):
        raise DomainError(
            f"guard failed: t/2 <= c <= t required, got c = {format_rational(c)}"
            f" for t = {format_rational(t)}"
        )
    return c, (t + c) / 2


def _le(coeffs: Mapping[str, Fraction], rhs: Fraction, label: str) -> LinearInequality:
    return LinearInequality(coeffs, LE, rhs, label)


def _ge(coeffs: Mapping[str, Fraction], rhs: Fraction, label: str) -> LinearInequality:
    return LinearInequality(coeffs, GE, rhs, label)


# ---------------------------------------------------------------------------
# Case rows: Fraction builders and integer makers
# ---------------------------------------------------------------------------
#
# Each kind of row has a builder, which writes it as the documented
# Fraction inequality from (t, c, u) with u = (t + c)/2, and a maker,
# which computes its base row (see ``exactlp.base_row``) from integers
# alone.  At t = n/d the point (T, C, R) holds t = T/R and c = C/R over one
# denominator, R = r*d, T = r*n and C = p*n + q*d, so u is U/(2R) with
# U = T + C.  A maker passes ``base_row`` the documented row times an
# integer M > 0 that leaves integer coefficients and a rhs over R: its
# clearing factor t-1, c-1, u-1 or c times R or 2R (times 1 for the pair
# gap rows, whose factor t-1 divides the rhs only, and for the ordering
# rows; the mass row 6c, factor 1, is multiplied by C like the other mass
# rows).  The arguments of a row's kind come first, in both.

CasePoint = tuple[int, int, int]


def _pair_gap_row(t: Fraction, c: Fraction, u: Fraction, variant: Variant,
                  label: str) -> LinearInequality:
    # t >= 2t/(t-1) + th2 + a   cleared to   th2 + a <= t - 2t/(t-1)
    return _le({"th2": Fraction(1), "a": Fraction(1)}, t - 2 * t / (t - 1), label)


def _pair_gap_ints(point: CasePoint, variant: Variant) -> tuple:
    # th2 + a <= t(t - 3)/(t - 1)
    T, _, R = point
    return base_row([0, 0, 1, 1], 1, T * (T - 3 * R), R * (T - R))


def _single_tail_row(m: int, level: str, t: Fraction, c: Fraction, u: Fraction,
                     variant: Variant, label: str) -> LinearInequality:
    # t >= 2(L - th_m)/(L - 1) - th_m + sum_{j != m} th_j + a, with L = t or c by level
    L = t if level == "t" else c
    coeffs = {"a": Fraction(1)}
    for j, name in enumerate(THETAS):
        coeffs[name] = Fraction(1)
    coeffs[THETAS[m]] = -(L + 1) / (L - 1)
    return _le(coeffs, t - 2 * L / (L - 1), label)


def _single_tail_ints(m: int, level: str, point: CasePoint, variant: Variant) -> tuple:
    # times (L - 1) * R: th_m gets -(L + 1) * R, the rest L*R - R
    T, C, R = point
    L = T if level == "t" else C
    M = L - R
    vec = [M, M, M, M]
    vec[m] = -(L + R)
    return base_row(vec, M, M * T - 2 * R * L, R)


def _mixed_tail_row(m: int, printed_in: Variant | None, t: Fraction, c: Fraction, u: Fraction,
                    variant: Variant, label: str) -> LinearInequality:
    # t >= 2(u - (th_m - (sum others)/2))/(u - 1) + tail
    # symmetrized tail: -th_m + sum others + a ; printed tail, in ``printed_in`` only: th2 + a.
    if variant is printed_in:
        coeffs = {"a": Fraction(1), "th0": Fraction(0), "th1": Fraction(0), "th2": Fraction(0)}
        coeffs[THETAS[m]] += Fraction(-2) / (u - 1)
        for j, name in enumerate(THETAS):
            if j != m:
                coeffs[name] += Fraction(1) / (u - 1)
        coeffs["th2"] += 1
    else:
        coeffs = {"a": Fraction(1)}
        coeffs[THETAS[m]] = -(u + 1) / (u - 1)
        for j, name in enumerate(THETAS):
            if j != m:
                coeffs[name] = u / (u - 1)
    return _le(coeffs, t - 2 * u / (u - 1), label)


def _mixed_tail_ints(m: int, printed_in: Variant | None, point: CasePoint,
                     variant: Variant) -> tuple:
    # times (u - 1) * 2R = U - 2R
    T, C, R = point
    U = T + C
    M = U - 2 * R
    if variant is printed_in:
        vec = [2 * R, 2 * R, 2 * R, M]
        vec[m] = -4 * R
        vec[2] += M
    else:
        vec = [U, U, U, M]
        vec[m] = -(U + 2 * R)
    return base_row(vec, M, M * T - 2 * R * U, R)


def _mass_row(scaled: Sequence[int], t: Fraction, c: Fraction, u: Fraction, variant: Variant,
              label: str) -> LinearInequality:
    # sum th_j (with factor (t-c-1)/c on the scaled indices) + a >= 1
    kappa = (t - c - 1) / c
    coeffs = {"a": Fraction(1)}
    for j, name in enumerate(THETAS):
        coeffs[name] = kappa if j in scaled else Fraction(1)
    return _ge(coeffs, Fraction(1), label)


def _mass_ints(scaled: Sequence[int], point: CasePoint, variant: Variant) -> tuple:
    # times c * R = C, then negated to the <=-form
    T, C, R = point
    vec = [-C, -C, -C, -C]
    for j in scaled:
        vec[j] = C + R - T
    return base_row(vec, C, -C, 1)


def _ordering_row(j: int, t: Fraction, c: Fraction, u: Fraction, variant: Variant,
                  label: str) -> LinearInequality:
    # th_j - th_{j+1} <= 0
    return _le({THETAS[j]: Fraction(1), THETAS[j + 1]: Fraction(-1)}, Fraction(0), label)


def _ordering_ints(j: int, point: CasePoint, variant: Variant) -> tuple:
    vec = [0, 0, 0, 0]
    vec[j], vec[j + 1] = 1, -1
    return base_row(vec, 1, 0, 1)


_PAIR_GAP = (_pair_gap_row, _pair_gap_ints)
_SINGLE_TAIL = (_single_tail_row, _single_tail_ints)
_MIXED_TAIL = (_mixed_tail_row, _mixed_tail_ints)
_MASS = (_mass_row, _mass_ints)
_ORDERING = (_ordering_row, _ordering_ints)


class TableRow:
    """One documented row of a case system, in both encodings.

    ``kind`` is a (builder, maker) pair and ``args`` its arguments:
    ``build(t, c, u, variant, label)`` is the Fraction inequality and
    ``make(point, variant)`` its base row; ``factor`` names what the
    documented coefficients were cleared of.
    """

    __slots__ = ("label", "factor", "build", "make")

    def __init__(self, label: str, factor: str, kind: tuple, *args):
        builder, maker = kind
        self.label, self.factor = label, factor
        self.build, self.make = partial(builder, *args), partial(maker, *args)


CASE_TABLES: dict[JCase, tuple[TableRow, ...]] = {
    JCase.J012: (
        TableRow("7a", "t-1", _PAIR_GAP),
        TableRow("7b", "t-1", _SINGLE_TAIL, 0, "t"),
        TableRow("7c", "c", _MASS, (0, 1, 2)),
        TableRow("7d.1", "1", _ORDERING, 0),
        TableRow("7d.2", "1", _ORDERING, 1),
    ),
    JCase.NOT0: (
        TableRow("6a", "t-1", _PAIR_GAP),
        TableRow("6b", "c-1", _SINGLE_TAIL, 0, "c"),
        TableRow("6b2", "u-1", _MIXED_TAIL, 0, None),
        TableRow("6c", "1", _MASS, ()),
        TableRow("6d.1", "1", _ORDERING, 0),
        TableRow("6d.2", "1", _ORDERING, 1),
    ),
    JCase.IN0_NOT1: (
        TableRow("8a", "t-1", _PAIR_GAP),
        TableRow("8b", "t-1", _SINGLE_TAIL, 0, "t"),
        TableRow("8c", "c-1", _SINGLE_TAIL, 1, "c"),
        TableRow("8d", "u-1", _MIXED_TAIL, 1, Variant.PRINTED),
        TableRow("8e", "c", _MASS, (1, 2)),
        TableRow("8f.1", "1", _ORDERING, 0),
        TableRow("8f.2", "1", _ORDERING, 1),
    ),
    JCase.IN01_NOT2: (
        TableRow("9a", "t-1", _PAIR_GAP),
        TableRow("9b", "t-1", _SINGLE_TAIL, 0, "t"),
        TableRow("9c", "c-1", _SINGLE_TAIL, 2, "c"),
        TableRow("9d", "u-1", _MIXED_TAIL, 2, None),
        TableRow("9e", "c", _MASS, (1, 2)),
        TableRow("9f.1", "1", _ORDERING, 0),
        TableRow("9f.2", "1", _ORDERING, 1),
    ),
}

# -v <= 0 for each variable, all of which are nonnegative
_NONNEG_ROWS = [base_row([-int(j == k) for k in range(4)], 1, 0, 1) for j in range(4)]


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
    c, u = _guards(t, policy)
    rows = [row.build(t, c, u, variant, row.label) for row in CASE_TABLES[case]]
    meta = {
        "case": case.value,
        "t": format_rational(t),
        "c": format_rational(c),
        "policy": policy.key(),
        "variant": variant.value,
    }
    return LinearSystem(VARIABLES, tuple(rows), frozenset(VARIABLES), meta)


def case_point(t: Fraction, policy: CPolicy) -> CasePoint:
    """The point of t and policy, with the guards of ``_guards`` checked on integers.

    A failed guard raises the DomainError of ``_guards``, which names it.
    """
    n, d = t.numerator, t.denominator
    T, C, R = policy.r * n, policy.p * n + policy.q * d, policy.r * d
    if not (R < T and R < C and T <= 2 * C <= 2 * T):
        _guards(t, policy)
        raise AssertionError("internal error: the integer guards passed what _guards fails")
    return T, C, R


def case_rows(case: JCase, point: CasePoint, variant: Variant = Variant.SYMMETRIZED) -> list[tuple]:
    """The base rows of ``build_case_system(case, t, policy, variant)`` at the
    point of t and policy, as ``exactlp.system_rows`` reads them from it."""
    return [row.make(point, variant) for row in CASE_TABLES[case]] + _NONNEG_ROWS


def build_all_cases(
    t: Fraction,
    policy: CPolicy = DEFAULT_POLICY,
    variant: Variant = Variant.SYMMETRIZED,
) -> dict[JCase, LinearSystem]:
    return {case: build_case_system(case, t, policy, variant) for case in ALL_CASES}


# ---------------------------------------------------------------------------
# Dichotomy mode
# ---------------------------------------------------------------------------

DEFAULT_DICHOTOMY_FUNCTIONS = (0, 1, 2)


def branch_row(t: Fraction, m: int, branch: str) -> LinearInequality:
    """One dichotomy inequality for the indicator of tail m at level t.

    With x = th_m and y = a + sum of the other atom masses, branch "a" is
        t >= 2(t - x + y)/(t-1) - x + y
    and branch "b" is
        t >= 2(t + x - y)/(t-1) + x + y.
    """
    t = Fraction(t)
    if branch not in ("a", "b"):
        raise SystemError_(f"branch must be 'a' or 'b', got {branch!r}")
    if m not in (0, 1, 2):
        raise SystemError_(f"tail index must be 0, 1 or 2, got {m!r}")
    two = Fraction(2) / (t - 1)
    if branch == "a":
        coeffs = {THETAS[m]: -two - 1, "a": two + 1}
        for j, name in enumerate(THETAS):
            if j != m:
                coeffs[name] = two + 1
    else:
        coeffs = {THETAS[m]: two + 1, "a": -two + 1}
        for j, name in enumerate(THETAS):
            if j != m:
                coeffs[name] = -two + 1
    return _le(coeffs, t - 2 * t / (t - 1), f"B{m}{branch}")


def branch_ints(m: int, branch: str, point: CasePoint) -> tuple:
    """The base row of ``branch_row(t, m, branch)`` at the point of t.

    Times (t - 1) * R: th_m gets -(T + R) in branch "a" and T + R in "b";
    the other entries get T + R in "a" and T - 3R in "b".
    """
    T, _, R = point
    vec = [T + R] * 4 if branch == "a" else [T - 3 * R] * 4
    vec[m] = -(T + R) if branch == "a" else T + R
    return base_row(vec, T - R, T * (T - 3 * R), R)


def branch_strings(count: int) -> list[str]:
    """The 2**count branch assignments of count functions, in "a"/"b" product order."""
    return ["".join(combo) for combo in itertools.product("ab", repeat=count)]


class FunctionsError(InputError):
    """A dichotomy function list is not made of distinct indices 0, 1, 2."""


def check_functions(functions: Sequence[int]) -> tuple[int, ...]:
    """The functions as a tuple, if they are distinct indices 0-2; else FunctionsError.

    A repeated index would add an assignment dimension that proves nothing,
    so at most 3 functions and 8 assignments pass.
    """
    functions = tuple(functions)
    if not (all(type(m) is int and 0 <= m <= 2 for m in functions)
            and len(set(functions)) == len(functions)):
        raise FunctionsError("functions must be distinct indices 0-2,"
                             f" got {reprlib.repr(list(functions))}")
    return functions


def branch_systems(
    t: Fraction, bases: Iterable[LinearSystem], functions: Sequence[int]
) -> list[tuple[str, list[LinearSystem]]]:
    """Each branch assignment ("a" or "b" per function) with its extended base systems.

    In product order; each system is its base plus one branch row per
    function, appended after the base inequalities, with
    ``meta["branches"]`` set.  The rows are built once and shared.  The
    bases must have been built at t, which checks the guards before a
    branch row divides by t - 1.
    """
    t = Fraction(t)
    bases = list(bases)
    rows = [{br: branch_row(t, m, br) for br in "ab"} for m in functions]
    out = []
    for branches in branch_strings(len(functions)):
        extra = tuple(row[br] for row, br in zip(rows, branches))
        systems = [replace(base, inequalities=base.inequalities + extra,
                           meta={**base.meta, "branches": branches}) for base in bases]
        out.append((branches, systems))
    return out


def build_dichotomy_systems(
    t: Fraction,
    policy: CPolicy = DEFAULT_POLICY,
    functions: Sequence[int] = DEFAULT_DICHOTOMY_FUNCTIONS,
    variant: Variant = Variant.SYMMETRIZED,
) -> list[tuple[str, list[LinearSystem]]]:
    """``branch_systems`` of the four case systems at t, each built once.

    Raises FunctionsError, before any system is built, unless the
    functions are distinct indices 0-2.
    """
    functions = check_functions(functions)
    return branch_systems(t, build_all_cases(t, policy, variant).values(), functions)


# ---------------------------------------------------------------------------
# System-definition files
# ---------------------------------------------------------------------------

class SystemFormatError(ValueError):
    """Malformed system-definition text."""


def system_doc(system: LinearSystem, rows: dict | None = None) -> dict:
    """Canonical JSON-ready form of a LinearSystem; rationals as p/q strings.

    ``rows``, when given, memoizes the inequality entries across calls,
    keyed by the inequality object and the variable order: a row object
    that several systems share is formatted once, and their documents hold
    the same entry dict.  Its systems must outlive it.
    """
    if rows is None:
        rows = {}
    variables = system.variables
    entries = []
    for ineq in system.inequalities:
        key = (id(ineq), variables)
        entry = rows.get(key)
        if entry is None:
            entry = rows[key] = {
                "label": ineq.label,
                "coeffs": {v: format_rational(ineq.coeffs[v]) for v in variables if v in ineq.coeffs},
                "rel": ineq.relation,
                "rhs": format_rational(ineq.rhs),
            }
        entries.append(entry)
    return {
        "variables": list(variables),
        "nonneg": [v for v in variables if v in system.nonneg],
        "inequalities": entries,
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


def system_from_doc(doc, rows: dict | None = None) -> LinearSystem:
    """Read a decoded system-definition object: the inverse of ``system_doc``.

    ``rows``, when given, memoizes the parsed inequalities across calls,
    keyed by an entry's label, relation, rhs and coefficient items as
    written: an echoed row that several systems share is parsed once, and
    their systems hold the same inequality object.
    """
    if not isinstance(doc, dict):
        raise SystemFormatError("top-level value must be an object")
    try:
        variables = tuple(str(v) for v in doc["variables"])
        nonneg = [str(v) for v in doc.get("nonneg", [])]
        raw_ineqs = doc["inequalities"]
    except KeyError as exc:
        raise SystemFormatError(f"missing field {exc.args[0]!r}") from exc
    if rows is None:
        rows = {}
    inequalities = []
    for idx, entry in enumerate(raw_ineqs):
        try:
            key = (str(entry["label"]), entry["rel"], entry["rhs"], *entry["coeffs"].items())
            ineq = rows.get(key)
        except (KeyError, TypeError, AttributeError):  # malformed: _inequality_from_doc says how
            key = ineq = None
        if ineq is None:
            ineq = _inequality_from_doc(entry, f"inequality #{idx}")
            if key is not None:
                rows[key] = ineq
        inequalities.append(ineq)
    meta = {str(k): str(v) for k, v in doc.get("meta", {}).items()}
    try:
        return LinearSystem(variables, tuple(inequalities), frozenset(nonneg), meta)
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
