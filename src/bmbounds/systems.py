"""Builders for the four-case inequality systems behind the lower bound.

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
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .exactlp import GE, LE, LinearInequality, LinearSystem, SystemError_
from .rationals import RationalFormatError, format_rational, parse_rational

VARIABLES = ("th0", "th1", "th2", "a")
THETAS = ("th0", "th1", "th2")


class DomainError(ValueError):
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


def _pair_gap_row(t: Fraction, label: str) -> LinearInequality:
    # t >= 2t/(t-1) + th2 + a   cleared to   th2 + a <= t - 2t/(t-1)
    return _le({"th2": Fraction(1), "a": Fraction(1)}, t - 2 * t / (t - 1), label)


def _single_tail_row(t: Fraction, m: int, level: Fraction, label: str) -> LinearInequality:
    # t >= 2(level - th_m)/(level - 1) - th_m + sum_{j != m} th_j + a
    coeffs = {"a": Fraction(1)}
    for j, name in enumerate(THETAS):
        coeffs[name] = Fraction(1)
    coeffs[THETAS[m]] = -(level + 1) / (level - 1)
    return _le(coeffs, t - 2 * level / (level - 1), label)


def _mixed_tail_row(
    t: Fraction, m: int, u: Fraction, label: str, printed_tail: bool = False
) -> LinearInequality:
    # t >= 2(u - (th_m - (sum others)/2))/(u - 1) + tail
    # symmetrized tail: -th_m + sum others + a ; printed tail: th2 + a.
    if printed_tail:
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


def _mass_row(t: Fraction, c: Fraction, scaled: Sequence[int], label: str) -> LinearInequality:
    # sum th_j (with factor (t-c-1)/c on the scaled indices) + a >= 1
    kappa = (t - c - 1) / c
    coeffs = {"a": Fraction(1)}
    for j, name in enumerate(THETAS):
        coeffs[name] = kappa if j in scaled else Fraction(1)
    return _ge(coeffs, Fraction(1), label)


def _ordering_rows(prefix: str) -> list[LinearInequality]:
    return [
        _le({"th0": Fraction(1), "th1": Fraction(-1)}, Fraction(0), f"{prefix}.1"),
        _le({"th1": Fraction(1), "th2": Fraction(-1)}, Fraction(0), f"{prefix}.2"),
    ]


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
    rows: list[LinearInequality]
    if case == JCase.J012:
        rows = [
            _pair_gap_row(t, "7a"),
            _single_tail_row(t, 0, t, "7b"),
            _mass_row(t, c, (0, 1, 2), "7c"),
            *_ordering_rows("7d"),
        ]
    elif case == JCase.NOT0:
        rows = [
            _pair_gap_row(t, "6a"),
            _single_tail_row(t, 0, c, "6b"),
            _mixed_tail_row(t, 0, u, "6b2"),
            _mass_row(t, c, (), "6c"),
            *_ordering_rows("6d"),
        ]
    elif case == JCase.IN0_NOT1:
        rows = [
            _pair_gap_row(t, "8a"),
            _single_tail_row(t, 0, t, "8b"),
            _single_tail_row(t, 1, c, "8c"),
            _mixed_tail_row(t, 1, u, "8d", printed_tail=(variant == Variant.PRINTED)),
            _mass_row(t, c, (1, 2), "8e"),
            *_ordering_rows("8f"),
        ]
    elif case == JCase.IN01_NOT2:
        rows = [
            _pair_gap_row(t, "9a"),
            _single_tail_row(t, 0, t, "9b"),
            _single_tail_row(t, 2, c, "9c"),
            _mixed_tail_row(t, 2, u, "9d"),
            _mass_row(t, c, (1, 2), "9e"),
            *_ordering_rows("9f"),
        ]
    else:  # pragma: no cover
        raise SystemError_(f"unknown case {case!r}")
    meta = {
        "case": case.value,
        "t": format_rational(t),
        "c": format_rational(c),
        "policy": policy.key(),
        "variant": variant.value,
    }
    return LinearSystem(VARIABLES, tuple(rows), frozenset(VARIABLES), meta)


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


def branch_strings(count: int) -> list[str]:
    """The 2**count branch assignments of count functions, in "a"/"b" product order."""
    return ["".join(combo) for combo in itertools.product("ab", repeat=count)]


def build_dichotomy_systems(
    t: Fraction,
    policy: CPolicy = DEFAULT_POLICY,
    functions: Sequence[int] = DEFAULT_DICHOTOMY_FUNCTIONS,
    variant: Variant = Variant.SYMMETRIZED,
) -> list[tuple[str, list[LinearSystem]]]:
    """Each branch assignment ("a" or "b" per function) with its four case systems.

    In product order; each system is its base case system plus one branch row
    per function, with ``meta["branches"]`` set.  Bases and rows are built once.
    """
    t = Fraction(t)
    # The base systems check the guards on t and c(t) before a branch row divides by t - 1.
    bases = build_all_cases(t, policy, variant).values()
    rows = [{br: branch_row(t, m, br) for br in "ab"} for m in functions]
    out = []
    for branches in branch_strings(len(functions)):
        extra = tuple(row[br] for row, br in zip(rows, branches))
        systems = [replace(base, inequalities=base.inequalities + extra,
                           meta={**base.meta, "branches": branches}) for base in bases]
        out.append((branches, systems))
    return out


# ---------------------------------------------------------------------------
# System-definition files
# ---------------------------------------------------------------------------

class SystemFormatError(ValueError):
    """Malformed system-definition text."""


def system_doc(system: LinearSystem) -> dict:
    """Canonical JSON-ready form of a LinearSystem; rationals as p/q strings."""
    return {
        "variables": list(system.variables),
        "nonneg": [v for v in system.variables if v in system.nonneg],
        "inequalities": [
            {
                "label": ineq.label,
                "coeffs": {v: format_rational(ineq.coeffs[v]) for v in system.variables if v in ineq.coeffs},
                "rel": ineq.relation,
                "rhs": format_rational(ineq.rhs),
            }
            for ineq in system.inequalities
        ],
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
    """Read a decoded system-definition object: the inverse of ``system_doc``."""
    if not isinstance(doc, dict):
        raise SystemFormatError("top-level value must be an object")
    try:
        variables = tuple(str(v) for v in doc["variables"])
        nonneg = [str(v) for v in doc.get("nonneg", [])]
        raw_ineqs = doc["inequalities"]
    except KeyError as exc:
        raise SystemFormatError(f"missing field {exc.args[0]!r}") from exc
    inequalities = []
    for idx, entry in enumerate(raw_ineqs):
        where = f"inequality #{idx}"
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
        inequalities.append(LinearInequality(coeffs, rel, rhs, label))
    meta = {str(k): str(v) for k, v in doc.get("meta", {}).items()}
    try:
        return LinearSystem(variables, tuple(inequalities), frozenset(nonneg), meta)
    except SystemError_ as exc:
        raise SystemFormatError(str(exc)) from exc
