"""Parsing and canonical formatting of exact rationals.

Every number on the certification path is a ``fractions.Fraction``; the
textual form is a decimal-free ``p/q`` string (plain ``p`` when q == 1).
Decimal literals are rejected on purpose: they would smuggle rounding into
an exact pipeline.  Integer arguments (policies, iteration counts, function
indices) go through ``parse_int``.  Both parsers read ASCII digits only,
where ``int()`` would also take any Unicode decimal digit; a literal past
``int()``'s digit limit is a RationalFormatError too, and a number past it
that is to be printed an InputError.  ``InputError`` is the one base of
the input errors the CLI reports as exit 2; it lives here because every
path through the CLI imports this module.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^([+-]?[0-9]+)(?:/([+-]?[0-9]+))?$")
_INT_RE = re.compile(r"[+-]?[0-9]+")


class InputError(ValueError):
    """An input outside a command's domain; the CLI prints it as one line, exit 2."""


class RationalFormatError(ValueError):
    """A string is not a valid p/q rational (or integer) literal."""


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` into a Fraction in lowest terms.

    Raises RationalFormatError for decimals, zero denominators or any
    other malformed input.
    """
    if not isinstance(text, str):
        raise RationalFormatError(f"expected a rational string, got {type(text).__name__}")
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise RationalFormatError(f"not a p/q rational literal: {text!r}")
    num = _int(m.group(1))
    den = _int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise RationalFormatError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def parse_int(text: str) -> int:
    """Parse an ASCII integer literal ``[+-]?[0-9]+``, with no surrounding space.

    Raises RationalFormatError for anything else.
    """
    if not isinstance(text, str) or _INT_RE.fullmatch(text) is None:
        raise RationalFormatError(f"not an integer literal: {text!r}")
    return _int(text)


def _int(literal: str) -> int:
    """``int`` of a matched literal; past the interpreter's digit limit, a RationalFormatError."""
    try:
        return int(literal)
    except ValueError:
        raise RationalFormatError(f"integer literal too long: {len(literal.lstrip('+-'))} digits") from None


def format_rational(value: Fraction) -> str:
    """Canonical decimal-free string: ``p`` for integers, else ``p/q`` with q > 0."""
    if type(value) is not Fraction:
        value = Fraction(value)
    return format_pair(value.numerator, value.denominator)


def format_pair(num: int, den: int) -> str:
    """``format_rational(num/den)`` of a reduced pair with den > 0.  A number
    past ``int()``'s digit limit cannot be written: an InputError."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        raise InputError(f"a number to print has more than {sys.get_int_max_str_digits()}"
                         " digits, the interpreter's limit") from None
