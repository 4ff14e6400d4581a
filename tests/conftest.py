import sys

import pytest


@pytest.fixture
def int_digit_limit():
    """int() of a decimal string limited to 4300 digits, the interpreter's
    default, for one test; skipped where the interpreter has no such limit."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("int() has no digit limit in this interpreter")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(before)
