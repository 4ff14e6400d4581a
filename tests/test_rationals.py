from fractions import Fraction

import pytest

from bmbounds.rationals import RationalFormatError, format_rational, parse_int, parse_rational


def test_parse_integer_and_fraction():
    assert parse_rational("5") == Fraction(5)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("6/4") == Fraction(3, 2)
    assert parse_rational("3/-2") == Fraction(-3, 2)


@pytest.mark.parametrize("bad", ["1.5", "1/0", "", "one", "1/2/3", "1e3", None,
                                 "\u0661\u0661\u0663/\u0663\u0662", "113/\u0663\u0662",
                                 "\uff11\uff11\uff13"])
def test_parse_rejects(bad):
    with pytest.raises(RationalFormatError):
        parse_rational(bad)


def test_format_canonical():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-3, 2)) == "-3/2"
    assert format_rational(Fraction(113, 32)) == "113/32"


def test_roundtrip():
    for s in ["0", "-1", "113/32", "1921/2592", "-5/7"]:
        assert format_rational(parse_rational(s)) == s


def test_parse_int():
    assert parse_int("0") == 0
    assert parse_int("204") == 204
    assert parse_int("-3") == -3
    assert parse_int("+7") == 7


@pytest.mark.parametrize("bad", ["", " 2", "2 ", "1.0", "1/2", "2,1", "one", "--1", None, 2,
                                 "\u0662", "\u0661\u0662", "\uff12", "1_000"])
def test_parse_int_rejects(bad):
    with pytest.raises(RationalFormatError):
        parse_int(bad)


@pytest.mark.parametrize("parse, text, digits", [
    (parse_rational, "1" + "0" * 5000 + "/3", 5001),
    (parse_rational, "3/-" + "9" * 5000, 5000),
    (parse_int, "+" + "9" * 5000, 5000),
], ids=["numerator", "denominator", "integer"])
def test_overlong_literal_rejected(int_digit_limit, parse, text, digits):
    """A literal past int()'s digit limit is a RationalFormatError that gives
    its digit count, not the digits; one at the limit is read."""
    with pytest.raises(RationalFormatError) as exc:
        parse(text)
    assert str(exc.value) == f"integer literal too long: {digits} digits"
    assert parse("9" * int_digit_limit) == 10 ** int_digit_limit - 1
