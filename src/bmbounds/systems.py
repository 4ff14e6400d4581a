"""Integer row formulas for the four-case inequality systems behind the lower bound.

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

``CASE_TABLES`` holds one table per case and ``BRANCH_ROWS`` the
dichotomy's branch rows B{m}{a,b}.  Each row is one integer formula of
the point (T, C, R) of t and the policy, evaluated into two encodings:
``pairs``, the row's coefficients and rhs as reduced integer pairs (the
pair row ``exactlp.verify_pairs`` checks certificates on and the Fraction
inequality is built from), and ``make``, the base row
``exactlp.pivot`` decides from.  ``case_rows`` and ``case_pairs``
list a case's rows at the ``case_point`` of t and the policy, which
checks the guards on integers, ending with the nonneg rows
(``exactlp.NONNEG_ROWS``, ``NONNEG_PAIRS``); ``with_branches`` splices
branch rows in before them.  ``case_echoes`` is the one lookup of what a case
or assignment system is: its table rows in order, its echo meta
(``case_metas``), its full pair rows and its canonical echo, each entry
formatted by ``row_entry``, the one formatter of a row entry, which
``system_doc`` formats a built system's rows with too.  The producer's
self-check, the documents ``certify`` writes and ``verify-cert`` read
their pair rows and echoes from it, so no command builds a system and
``case_pairs`` serves the reference builders alone; the builders
(``build_case_system``, ``build_dichotomy_systems``), which their names
here load from ``reference``, serve the tests, as the independent
reference the lookup is compared with, and library callers, and
``verify-cert`` parses a system only from an echo that differs, which
must render to the same entries.  The tests check each formula against
the display it rearranges.  The exit codes, ``MAX_ITERS`` and
``_repeated`` are here for ``certify`` and ``audit`` alike.
"""

from __future__ import annotations

import enum
import itertools
import math
import reprlib
from fractions import Fraction
from functools import partial
from typing import NamedTuple, Sequence

from .exactlp import GE, LE, NONNEG_ROWS, base_row, nonneg_pair
# parse_rational is unused here: bench/spans.py counts it in this module.
from .rationals import (InputError, RationalFormatError, format_pair, format_rational, parse_int,
                        parse_rational)

VARIABLES = ("th0", "th1", "th2", "a")


class DomainError(InputError):
    """A guard on t or the c-policy failed; the message names the guard."""


class JCase(enum.Enum):
    """The four case tags of the certification split."""

    J012 = "J012"
    NOT0 = "not0"
    IN0_NOT1 = "in0not1"
    IN01_NOT2 = "in01not2"
    __hash__ = object.__hash__  # members are singletons: hash by identity, not by a Python-level name hash


class Variant(enum.Enum):
    """Which reading of the in0not1 d-row to use."""

    PRINTED = "printed"
    SYMMETRIZED = "symmetrized"
    __hash__ = object.__hash__


ALL_CASES = (JCase.J012, JCase.NOT0, JCase.IN0_NOT1, JCase.IN01_NOT2)


class CPolicy(NamedTuple("CPolicy", [("p", int), ("q", int), ("r", int)])):
    """Affine threshold choice c(t) = (p*t + q)/r with integer p, q, r > 0."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # ``_replace`` builds through it: guarded too

    def __new__(cls, p: int, q: int, r: int):  # a NamedTuple body cannot define __new__
        if r <= 0:
            raise DomainError("c-policy requires r > 0")
        return super().__new__(cls, p, q, r)

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

EXIT_CERTIFIED = 0
EXIT_NOT_CERTIFIED = 1
EXIT_INPUT_ERROR = 2

MAX_ITERS = 1000  # the most bisection steps one search takes, which bounds its work


def _repeated(policies: Sequence[CPolicy]) -> CPolicy | None:
    """The first policy that repeats an earlier one, if any."""
    seen: set[CPolicy] = set()
    for policy in policies:
        if policy in seen:
            return policy
        seen.add(policy)
    return None


def __getattr__(name: str):  # bench/spans.py wraps the first five here, and ``audit`` reads the last two
    if name not in ("build_all_cases", "build_case_system", "build_dichotomy_systems", "parse_system_file",
                    "serialize_system", "system_doc", "system_from_doc"):  # a dunder, probed, loads nothing
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import reference
    return getattr(reference, name)


def _guards(t: Fraction, policy: CPolicy) -> None:
    """Raise a DomainError, which names the guard, unless t - 1 > 0, c - 1 > 0
    and t/2 <= c <= t hold for c = c(t)."""
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


# ---------------------------------------------------------------------------
# Row formulas
# ---------------------------------------------------------------------------
#
# At t = n/d the point (T, C, R) holds t = T/R and c = C/R over one
# denominator, R = r*d, T = r*n and C = p*n + q*d, so u = (t + c)/2 is
# U/(2R) with U = T + C.  A formula multiplies the documented row's
# <=-form by an integer M > 0 that leaves integer coefficients and a rhs
# over R: the clearing factor t-1, c-1, u-1 or c times R or 2R (times 1
# for the pair gap rows, whose factor t-1 divides the rhs only, and for
# the ordering rows; the mass row 6c, factor 1, is multiplied by C like
# the other mass rows).  The arguments of a row's kind come first.

CasePoint = tuple[int, int, int]


def _pair_gap(point: CasePoint, variant: Variant) -> tuple:
    # t >= 2t/(t-1) + th2 + a, so th2 + a <= t(t - 3)/(t - 1)
    T, _, R = point
    return [0, 0, 1, 1], 1, T * (T - 3 * R), R * (T - R)


def _single_tail(m: int, level: str, point: CasePoint, variant: Variant) -> tuple:
    # t >= 2(L - th_m)/(L - 1) - th_m + sum_{j != m} th_j + a, with L = t or c by level;
    # times (L - 1) * R: th_m gets -(L + 1) * R, the rest L*R - R
    T, C, R = point
    L = T if level == "t" else C
    M = L - R
    vec = [M, M, M, M]
    vec[m] = -(L + R)
    return vec, M, M * T - 2 * R * L, R


def _mixed_tail(m: int, printed_in: Variant | None, point: CasePoint, variant: Variant) -> tuple:
    # t >= 2(u - (th_m - (sum others)/2))/(u - 1) + tail, times (u - 1) * 2R = U - 2R;
    # symmetrized tail: -th_m + sum others + a ; printed tail, in ``printed_in`` only: th2 + a.
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
    return vec, M, M * T - 2 * R * U, R


def _mass(scaled: Sequence[int], point: CasePoint, variant: Variant) -> tuple:
    # sum th_j (with factor (t-c-1)/c on the scaled indices) + a >= 1,
    # times c * R = C and negated to the <=-form
    T, C, R = point
    vec = [-C, -C, -C, -C]
    for j in scaled:
        vec[j] = C + R - T
    return vec, C, -C, 1


def _ordering(j: int, point: CasePoint, variant: Variant) -> tuple:
    # th_j - th_{j+1} <= 0
    vec = [0, 0, 0, 0]
    vec[j], vec[j + 1] = 1, -1
    return vec, 1, 0, 1


def _branch(m: int, branch: str, point: CasePoint, variant: Variant) -> tuple:
    # The displays of ``branch_row`` times (t - 1) * R: th_m gets -(T + R) in
    # branch "a" and T + R in "b"; the other entries get T + R in "a" and T - 3R in "b".
    T, _, R = point
    vec = [T + R] * 4 if branch == "a" else [T - 3 * R] * 4
    vec[m] = -(T + R) if branch == "a" else T + R
    return vec, T - R, T * (T - 3 * R), R


class TableRow:
    """One documented row, written once as an integer formula.

    ``formula(point, variant)`` gives (vec, M, num, den), the row's <=-form
    times its clearing factor M, which ``factor`` names.  ``make`` is
    ``base_row(vec, M, num, den)``; ``pairs`` is the pair row
    (``reference.pair_row``), with s*vec[k]/M for each index k in ``keys``
    (zeros included) and rhs s*num/(den*M) as reduced pairs, where s = -1
    for a ``>=`` row, and the Fraction row is built from it.  They agree by
    construction, so only the display test checks a formula.  Rows of one
    formula and arguments (7a, 6a, 8a and 9a, say) share ``key``, and also
    ``pair_key`` where relation and ``keys`` agree: row memos make them once.
    """

    __slots__ = ("label", "factor", "relation", "keys", "formula", "key", "pair_key")

    def __init__(self, label: str, factor: str, formula, *args, relation: str = LE,
                 keys: Sequence[int] = (0, 1, 2, 3)):
        self.label, self.factor, self.relation, self.keys = label, factor, relation, keys
        self.formula = partial(formula, *args)
        self.key = formula, args
        self.pair_key = formula, args, relation, tuple(keys)

    def make(self, point: CasePoint, variant: Variant = Variant.SYMMETRIZED) -> tuple:
        return base_row(*self.formula(point, variant))

    def pairs(self, point: CasePoint, variant: Variant = Variant.SYMMETRIZED) -> tuple:
        vec, M, num, den = self.formula(point, variant)
        s = -1 if self.relation == GE else 1
        coeffs = []
        for k in self.keys:
            g = math.gcd(vec[k], M)
            coeffs.append((VARIABLES[k], s * vec[k] // g, M // g))
        den *= M
        g = math.gcd(num, den)
        return tuple(coeffs), self.relation, (s * num // g, den // g)


def _orderings(label: str) -> tuple[TableRow, TableRow]:
    """The rows th0 <= th1 and th1 <= th2, labelled ``label.1`` and ``label.2``."""
    return tuple(TableRow(f"{label}.{j + 1}", "1", _ordering, j, keys=(j, j + 1)) for j in (0, 1))


CASE_TABLES: dict[JCase, tuple[TableRow, ...]] = {
    JCase.J012: (
        TableRow("7a", "t-1", _pair_gap, keys=(2, 3)),
        TableRow("7b", "t-1", _single_tail, 0, "t"),
        TableRow("7c", "c", _mass, (0, 1, 2), relation=GE),
        *_orderings("7d"),
    ),
    JCase.NOT0: (
        TableRow("6a", "t-1", _pair_gap, keys=(2, 3)),
        TableRow("6b", "c-1", _single_tail, 0, "c"),
        TableRow("6b2", "u-1", _mixed_tail, 0, None),
        TableRow("6c", "1", _mass, (), relation=GE),
        *_orderings("6d"),
    ),
    JCase.IN0_NOT1: (
        TableRow("8a", "t-1", _pair_gap, keys=(2, 3)),
        TableRow("8b", "t-1", _single_tail, 0, "t"),
        TableRow("8c", "c-1", _single_tail, 1, "c"),
        TableRow("8d", "u-1", _mixed_tail, 1, Variant.PRINTED),
        TableRow("8e", "c", _mass, (1, 2), relation=GE),
        *_orderings("8f"),
    ),
    JCase.IN01_NOT2: (
        TableRow("9a", "t-1", _pair_gap, keys=(2, 3)),
        TableRow("9b", "t-1", _single_tail, 0, "t"),
        TableRow("9c", "c-1", _single_tail, 2, "c"),
        TableRow("9d", "u-1", _mixed_tail, 2, None),
        TableRow("9e", "c", _mass, (1, 2), relation=GE),
        *_orderings("9f"),
    ),
}

BRANCH_ROWS = {(m, br): TableRow(f"B{m}{br}", "t-1", _branch, m, br) for m in range(3) for br in "ab"}

# -v <= 0 for each variable, all of which are nonnegative; their base rows are ``NONNEG_ROWS``
NONNEG_PAIRS = [nonneg_pair(v) for v in VARIABLES]


def case_meta(case: JCase, t: Fraction, point: CasePoint, policy: CPolicy,
              variant: Variant) -> dict[str, str]:
    """The ``meta`` of ``build_case_system(case, t, policy, variant)``; point is t's.

    Its keys are in sorted order, as ``system_doc`` writes them, so an
    echo made from it needs no sort; a dichotomy meta puts ``branches``
    first.
    """
    return {
        "c": format_rational(Fraction(point[1], point[2])),
        "case": case.value,
        "policy": policy.key(),
        "t": format_rational(t),
        "variant": variant.value,
    }


def case_pairs(case: JCase, point: CasePoint, variant: Variant = Variant.SYMMETRIZED) -> list[tuple]:
    """The pair rows of ``build_case_system(case, t, policy, variant)`` at the
    point of t and policy, as ``reference.system_pairs`` reads them from it."""
    return [row.pairs(point, variant) for row in CASE_TABLES[case]] + NONNEG_PAIRS


def case_point(t: Fraction, policy: CPolicy) -> CasePoint:
    """The point of t and policy, with the guards of ``_guards`` checked on integers.

    A failed guard raises the DomainError of ``_guards``, which names it.
    """
    n, d = t.numerator, t.denominator
    T, C, R = policy.r * n, policy.p * n + policy.q * d, policy.r * d
    if not (R < C and T <= 2 * C <= 2 * T):
        _guards(t, policy)
        raise AssertionError("internal error: the integer guards passed what _guards fails")
    return T, C, R


def case_rows(case: JCase, point: CasePoint, variant: Variant = Variant.SYMMETRIZED,
              memo: dict | None = None, indices: Sequence[int] | None = None) -> list:
    """The base rows of ``build_case_system(case, t, policy, variant)`` at the
    point of t and policy, as ``reference.system_rows`` reads them: the one
    maker of base rows.  ``memo``, the caller's dict for one point and variant,
    holds each row made there by ``TableRow.key`` and the case's list; with
    ``indices``, only those rows are made (one not yet made is None, a nonneg one costs nothing)."""
    table, memo = CASE_TABLES[case], {} if memo is None else memo
    rows = memo.get(case) or memo.setdefault(case, [None] * len(table) + NONNEG_ROWS)
    for i in range(len(table)) if indices is None else indices:
        if i < len(table) and rows[i] is None:
            rows[i] = memo.get(table[i].key) or memo.setdefault(table[i].key, table[i].make(point, variant))
    return rows


def with_branches(rows: Sequence, branch: Sequence) -> Sequence:
    """A case system's ``rows`` (base rows, pair rows or a Farkas vector) with
    an assignment's ``branch`` entries spliced in where ``case_echoes`` puts
    its branch rows, before the nonneg rows; nothing is made again."""
    return rows[:-len(VARIABLES)] + branch + rows[-len(VARIABLES):]


def case_metas(t: Fraction, policy: CPolicy, variant: Variant,
               cases: Sequence[JCase] = ALL_CASES) -> tuple[CasePoint, dict]:
    """The point of t and policy, and the ``case_meta`` of each case of ``cases`` there."""
    point = case_point(t, policy)
    return point, {case: case_meta(case, t, point, policy, variant) for case in cases}


def case_echoes(made: dict, point: CasePoint, metas: dict, variant: Variant,
                functions: tuple[int, ...] | None = None, branches: str = "") -> dict:
    """The one lookup of a case or assignment system, made without building it.

    Each case of ``metas`` (``case_metas``), in order, maps to the full pair
    rows of its system at point and variant, nonneg rows included, and the
    canonical echo of that system, which documents write and ``verify-cert``
    expects.  Its table rows are its ``CASE_TABLES`` rows, then the
    ``BRANCH_ROWS`` that ``zip(functions, branches)`` names, and its echo
    meta puts ``branches`` first; plain (functions None), its table and meta
    alone.  The echo is ``system_doc`` of that case's system of
    ``build_case_system`` or ``build_dichotomy_systems``.  ``made`` holds
    each table row's (pair row, entry) per (point, variant): a row several
    echoes share is made once, as one object, and rows of one ``pair_key``
    share their pair row and their formatted coefficients and rhs.  The
    producer verifies each certificate on these pair rows and keeps the
    echoes for its document (``certify.CaseReport.echoes``); ``verify-cert``
    checks a document's entries on the same lookup.  The echoes of one call
    share one ``variables`` list and one ``nonneg`` list, so a document
    writes each once per call.
    """
    memo = made.setdefault((point, variant), {})
    extra = () if functions is None else tuple([BRANCH_ROWS[m, br] for m, br in zip(functions, branches)])
    variables, nonneg, out, shared = list(VARIABLES), list(VARIABLES), {}, {}
    for case, meta in metas.items():
        rows = CASE_TABLES[case] + extra
        for row in rows:
            if row not in memo:
                got = shared.get(row.pair_key)
                if got is None:
                    pair = row.pairs(point, variant)
                    got = shared[row.pair_key] = pair, row_entry(row.label, pair)
                pair, entry = got
                memo[row] = pair, entry if entry["label"] == row.label else {**entry, "label": row.label}
        got = [memo[row] for row in rows]
        out[case] = [pair for pair, _ in got] + NONNEG_PAIRS, {
            "variables": variables, "nonneg": nonneg,
            "inequalities": [entry for _, entry in got],
            "meta": meta if functions is None else {"branches": branches, **meta}}
    return out


# ---------------------------------------------------------------------------
# Dichotomy mode
# ---------------------------------------------------------------------------

DEFAULT_DICHOTOMY_FUNCTIONS = (0, 1, 2)


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


class SystemFormatError(ValueError):
    """Malformed system-definition text."""


def row_entry(label: str, pair: tuple) -> dict:
    """The canonical entry of a labelled pair row (``reference.pair_row``)."""
    coeffs, relation, rhs = pair
    return {"label": label, "coeffs": {v: format_pair(p, q) for v, p, q in coeffs},
            "rel": relation, "rhs": format_pair(*rhs)}


