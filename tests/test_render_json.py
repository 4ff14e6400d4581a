"""``cli.render_json`` writes exactly what ``json.dumps(x, indent=2)`` writes.

The structured output of every command goes through it, so it is checked
on the document of every structured command of the golden table, on
generated JSON values, among them subclasses of the JSON types, and on
documents that hold one container object in several places.
"""

import collections
import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmbounds import cli
from bmbounds.cli import main, render_json
from test_golden import GOLDEN

# The golden table's structured commands, and the two whose documents it lacks.
STRUCTURED = [c for c in GOLDEN if c.endswith("--format structured")] + [
    "bounds --m 2..3 --k 2..3 --format structured", "upper --t 7/2 --format structured"]


def test_every_structured_command_is_covered():
    assert {c.split()[0] for c in STRUCTURED} == {
        "certify", "search", "sweep", "dichotomy", "upper", "bounds"}
    assert {c.split()[1] for c in STRUCTURED if c.startswith("upper")} == {
        "--scan", "--optimize", "--t"}


@pytest.mark.parametrize("command", STRUCTURED)
def test_command_documents(command, capsys, monkeypatch):
    docs = []

    def recording(doc):
        docs.append(doc)
        return render_json(doc)

    monkeypatch.setattr(cli, "render_json", recording)
    main(command.split())
    out = capsys.readouterr().out
    [doc] = docs
    assert out == json.dumps(doc, indent=2) + "\n"


# Non-ASCII and control characters, a lone surrogate, and floats at the ends of the range.
STRINGS = (st.text() | st.text(st.characters(max_codepoint=0x1f))
           | st.sampled_from(["é", "ü\x00", "\ud800", "\x7f", "\u2028"]))
SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-2**70, 2**70) | st.floats()
           | st.sampled_from([-0.0, 5e-324, 1e300, float("nan"), float("-inf")]) | STRINGS)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(STRINGS, inner, max_size=4),
    max_leaves=20,
)


@given(VALUES)
@settings(max_examples=300, deadline=None)
def test_generated_values(value):
    assert render_json(value) == json.dumps(value, indent=2)


class Rows(list):
    pass


class Label(str):
    pass


class Sign(enum.IntEnum):
    NEG = -1
    POS = 1


# Values json.dumps writes as their base type: an OrderedDict, a list and a
# str subclass, an IntEnum member, and bools inside lists.
SUBCLASS_VALUES = st.recursive(
    SCALARS | STRINGS.map(Label) | st.sampled_from(Sign),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(Rows)
    | st.lists(st.booleans(), max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(STRINGS | STRINGS.map(Label), inner, max_size=4)
    | st.dictionaries(STRINGS, inner, max_size=4).map(collections.OrderedDict),
    max_leaves=20,
)


@given(SUBCLASS_VALUES)
@settings(max_examples=300, deadline=None)
def test_generated_subclass_values(value):
    assert render_json(value) == json.dumps(value, indent=2)


def test_empty_containers():
    for value in ({}, [], (), {"a": {}, "b": [], "c": [[], {}]}):
        assert render_json(value) == json.dumps(value, indent=2)


def test_shared_container_at_two_depths():
    shared = {"rows": [{"label": "7a", "rhs": "3/2"}, [1, 2.5, None]], "empty": []}
    doc = {"first": shared, "second": shared, "deeper": {"third": shared, "list": [shared]}}
    assert render_json(doc) == json.dumps(doc, indent=2)


def test_shared_container_joined_then_reused():
    """``inner`` is met three times at one depth and once at another, inside
    ``outer``, itself met twice: its span is joined at the second meeting
    and reused at the third, and the second ``outer`` reuses its own."""
    inner = Rows([{"label": Label("7a"), "sign": Sign.NEG}, "3/2", 2.5, None, [True, False]])
    outer = collections.OrderedDict(
        first=inner, second=inner, third=inner, deeper={"fourth": inner})
    doc = {"outer": [outer, outer], "inner": inner}
    assert render_json(doc) == json.dumps(doc, indent=2)
    assert render_json([outer, (outer,)]) == json.dumps([outer, (outer,)], indent=2)


def test_shared_empty_container():
    empty, nothing = [], {}
    doc = {"a": empty, "b": [empty, empty, nothing], "c": {"d": empty, "e": nothing}, "f": nothing}
    assert render_json(doc) == json.dumps(doc, indent=2)


def test_values_json_cannot_hold():
    with pytest.raises(TypeError, match="not JSON serializable"):
        render_json({"a": [object()]})
    with pytest.raises(TypeError):
        render_json({1: 0})
