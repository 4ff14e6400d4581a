"""Fuzz the command line and the certificate auditor with junk input.

Every run must end with exit code 0, 1 or 2 and never with a traceback.
Examples are kept cheap: at most two bisection steps, at most two
dichotomy functions, and no ``upper --optimize``.  The exact row norms
that ``norm_report`` reads from its integer tables are also checked
against the matrix route at random rationals.
"""

import contextlib
import io
import json
import os
import tempfile
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from bmbounds.cli import main
from bmbounds.upperiso import norm_report, operator_norm_S, operator_norm_T

# Values a flag accepts (guard boundaries included), then junk.
RATIONALS = ["1", "2", "3", "4", "5", "0", "-3", "113/32", "7/2", "18/5", "+5/2", " 4 ",
             "4/-1", "10000000000000000000000/3", "\u0664"]
JUNK = ["3.5", "1/0", "abc", "", "1e3", "1/", "--1", "nan"]
RATIONAL = st.one_of(st.sampled_from(RATIONALS), st.sampled_from(JUNK), st.text(max_size=6))
TOL = st.one_of(st.sampled_from(["1e-35", "1e-5", "1"]),
                st.sampled_from(["0", "-1", "abc", "1e-45", "nan", "inf", ""]),
                st.text(max_size=5))
ITERS = st.sampled_from(["0", "1", "2", "-1", "x", "1.5", "", "+1", "2e0"])
POLICY = st.one_of(st.sampled_from(["2,1,4", "1,0,2", "1,1,2", "0,0,1", "1,1,0", "-1,0,2",
                                    "2,1,-4", "1,0,1"]),
                   st.sampled_from(["1,2", "a,b,c", ",,", "1,1,2,3"]),
                   st.text(max_size=7))
FUNCTION = st.one_of(st.sampled_from(["0", "1", "2"]), st.sampled_from(["3", "-1", "a", ""]))
JUNK_FLAG = st.sampled_from(["--frobnicate", "--t=", "-x", "--", "--format", "--format=xml",
                             "--variant=weird", "--case", "--case=j9"])

# The flags each fuzzed subcommand draws from; search and sweep always get
# --iters (their defaults bisect 6 and 8 times), dichotomy --functions.
FLAGS = {
    "certify": {"--t": RATIONAL, "--c-policy": POLICY},
    "search": {"--lo": RATIONAL, "--hi": RATIONAL, "--c-policy": POLICY},
    "sweep": {"--lo": RATIONAL, "--policies": POLICY},
    "dichotomy": {"--t": RATIONAL, "--c-policy": POLICY},
    "upper": {"--t": RATIONAL, "--tol": TOL},
    "bounds": {"--m": st.sampled_from(["2..3", "1", "x", "3..2", "-1..2"])},
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, err.getvalue()


@st.composite
def argv(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    args = [command]
    for flag, values in FLAGS[command].items():
        if draw(st.booleans()):
            args += [flag, draw(values)]
    if command in ("search", "sweep"):
        args += ["--iters", draw(ITERS)]
    if command == "dichotomy":
        args += ["--functions", *draw(st.lists(FUNCTION, max_size=2))]
    if draw(st.booleans()):
        args.insert(draw(st.integers(1, len(args))), draw(JUNK_FLAG))
    if command != "upper" and draw(st.booleans()):
        args += ["--format", "structured"]
    return args


@given(argv())
@settings(max_examples=100, deadline=None)
def test_cli_junk_arguments_exit_cleanly(args):
    code, err = _run(args)
    assert code in (0, 1, 2), (args, code, err)
    assert "Traceback" not in err, (args, err)


@lru_cache(maxsize=None)
def _genuine(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(command.split())
    return json.loads(out.getvalue())


DOCUMENTS = [
    "certify --t 4 --format structured",
    "certify --t 4 --case j012 --format structured",
    "search --iters 1 --format structured",
    "dichotomy --t 18/5 --functions 0 --format structured",
    "sweep --iters 1 --policies 2,1,4 1,0,2 --format structured",
]

JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**20) | st.sampled_from(RATIONALS)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6,
)


def _paths(node, path=()):
    """Every (path, value) pair of a JSON tree, root included."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def mutated_document(draw):
    doc = json.loads(json.dumps(_genuine(draw(st.sampled_from(DOCUMENTS)))))
    for _ in range(draw(st.integers(1, 3))):
        # Half of the edits hit a top-level field: the headline claims and parameters.
        top = draw(st.booleans())
        paths = [p for p, _ in _paths(doc) if len(p) == 1 or (p and not top)]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(JSON_VALUE)
        elif isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent.pop(path[-1])
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


@given(mutated_document())
@settings(max_examples=100, deadline=None)
def test_verify_cert_on_mutated_documents_exits_cleanly(text):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, err = _run(["verify-cert", path])
    finally:
        os.unlink(path)
    assert code in (0, 1, 2), (text, code, err)
    assert "Traceback" not in err, (text, err)



@given(st.fractions(min_value=3, max_value=4, max_denominator=2**64))
@settings(max_examples=200, deadline=None)
def test_norm_report_equals_the_matrix_route(t):
    report = norm_report(t)
    norm_t, norm_s = operator_norm_T(t), operator_norm_S(t)
    assert (report.t, report.norm_t, report.argmax_t) == (t, *norm_t)
    assert (report.norm_s, report.argmax_s) == norm_s
    assert report.distortion == norm_t[0] * norm_s[0]
