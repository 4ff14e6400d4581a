"""What a fresh interpreter loads, and that the lazily loaded paths still work.

The lower-bound commands run exact Fraction code only, so importing the CLI
and running ``certify`` must not load mpmath or the upper-bound modules.
``upper`` and ``bounds`` load them when they run, and
mpmath only displays closed forms: ``upper --t`` and ``upper --scan`` are
exact and never load it.  No lower-bound command compiles the audit or the
Fraction reference layer, or creates a dataclass; ``verify-cert`` loads the
audit, and the reference layer only for an echo that differs from its
canonical one.  The names that moved to ``reference`` or ``audit`` still
resolve where they were.  Each case here starts its own interpreter, so
nothing is loaded beforehand.

The package's one dependency is mpmath: every absolute import in its
modules, lazy ones included, names the stdlib or mpmath.
"""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bmbounds
from test_golden import GOLDEN

SRC = str(Path(bmbounds.__file__).resolve().parent.parent)
HEAVY = ("mpmath", "bmbounds.upperiso", "bmbounds.bounds")
LAZY = ("bmbounds.audit", "bmbounds.reference", "dataclasses")

# Module -> the names it forwards to ``reference`` (or, where named, ``audit``) on first use: the
# package's own names, those bench/spans.py wraps and those ``audit`` reads from ``systems``.
FORWARDED = {
    "bmbounds": ("LinearInequality", "LinearSystem", "build_case_system", "build_dichotomy_systems",
                 "check_feasibility", "parse_system_file", "serialize_system", "verify_certificate"),
    "bmbounds.exactlp": ("check_feasibility", "verify_certificate"),
    "bmbounds.systems": ("build_all_cases", "build_case_system", "build_dichotomy_systems",
                         "parse_system_file", "serialize_system", "system_doc", "system_from_doc"),
    "bmbounds.certify": ("build_all_cases", "build_case_system", "build_dichotomy_systems",
                         "check_feasibility", "parse_system_file", "serialize_system",
                         "verify_certificate"),
}
AUDIT_FORWARDED = {"bmbounds": ("verify_cert_file",),
                   "bmbounds.certify": ("verify_cert_file", "verify_certificate_text")}


def python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def test_modules_import_only_the_stdlib_and_mpmath():
    """Each absolute import of each ``src/bmbounds/*.py`` module, read with
    ``ast``, has a top-level name in ``sys.stdlib_module_names`` or mpmath.
    sympy, numpy and scipy may be installed, but are not dependencies."""
    names = {}
    for path in sorted(Path(bmbounds.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found = [node.module]
            else:
                continue
            for name in found:
                names.setdefault(name.partition(".")[0], set()).add(path.name)
    assert {"fractions", "mpmath"} <= set(names)
    assert {name: files for name, files in names.items()
            if name not in sys.stdlib_module_names and name != "mpmath"} == {}


def test_lower_bound_path_loads_no_upper_bound_code():
    script = f"""
import contextlib, io, json, sys
heavy = {HEAVY!r}
import bmbounds.cli
after_import = [m for m in heavy if m in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    code = bmbounds.cli.main(["certify", "--t", "113/32"])
print(json.dumps([code, after_import, [m for m in heavy if m in sys.modules]]))
"""
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, [], []]


def test_lower_bound_commands_load_no_audit_reference_or_dataclasses():
    """Importing the CLI, then ``certify``, ``search`` and ``dichotomy``, loads
    none of ``bmbounds.audit``, ``bmbounds.reference`` and ``dataclasses``: a
    from-import's probe of ``__path__`` must not reach a forwarder's import.
    As the generic body of ``pivot``, ``reference._pivot_n``, lives in
    ``reference``, no lower-bound command reaches it either."""
    script = f"""
import contextlib, io, json, sys
lazy = {LAZY!r}
import bmbounds.cli
loaded = [[m for m in lazy if m in sys.modules]]
for argv in (["certify", "--t", "113/32"], ["search", "--iters", "20", "--format", "structured"],
             ["dichotomy", "--t", "113/32", "--format", "structured"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = bmbounds.cli.main(argv)
    loaded.append([code, [m for m in lazy if m in sys.modules]])
print(json.dumps(loaded))
"""
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], [0, []], [0, []], [0, []]]


def test_verify_cert_loads_the_reference_layer_only_for_a_respelled_echo(tmp_path):
    """``verify-cert`` of a genuine document loads the audit but not the
    reference layer; an echo re-spelled (each rhs written as 2p/2q) is parsed,
    which loads it.  Both documents verify."""
    script = f"""
import contextlib, io, json, sys
from fractions import Fraction
lazy = {LAZY!r}
import bmbounds.cli
path, respelled = {str(tmp_path / "c.json")!r}, {str(tmp_path / "r.json")!r}
out = io.StringIO()
loaded = []
with contextlib.redirect_stdout(out):
    for argv in (["certify", "--t", "113/32", "--format", "structured", "--out", path],
                 ["verify-cert", path], ["verify-cert", respelled]):
        if argv[-1] == respelled:
            with open(path) as fh:
                doc = json.load(fh)
            for row in doc["cases"][1]["system"]["inequalities"]:
                x = Fraction(row["rhs"])
                row["rhs"] = f"{{2 * x.numerator}}/{{2 * x.denominator}}"
            with open(respelled, "w") as fh:
                json.dump(doc, fh)
        loaded.append([bmbounds.cli.main(argv), [m for m in lazy if m in sys.modules]])
print(json.dumps([out.getvalue().splitlines(), loaded]))
"""
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [["all certificates verified"] * 2, [
        [0, []], [0, ["bmbounds.audit"]], [0, list(LAZY)]]]


@pytest.mark.parametrize("module", sorted(FORWARDED))
def test_forwarded_names_are_the_reference_layers(module):
    """Each name that moved resolves, where it was, to the object of
    ``reference`` (or ``audit``) itself; any other missing name, a dunder
    included, is an AttributeError."""
    import importlib

    from bmbounds import audit, reference

    mod = importlib.import_module(module)
    assert {name: getattr(mod, name) for name in FORWARDED[module]} == {
        name: getattr(reference, name) for name in FORWARDED[module]}
    assert all(getattr(mod, name) is getattr(audit, name) for name in AUDIT_FORWARDED.get(module, ()))
    for name in ("__all__", "__wrapped__", "no_such_name"):
        with pytest.raises(AttributeError):
            getattr(mod, name)


@pytest.mark.parametrize("command", ["upper --t 7/2 --format csv", "upper --scan 3:4:1/2"])
def test_exact_upper_commands_load_no_mpmath(command):
    script = f"""
import contextlib, hashlib, io, json, sys
import bmbounds.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = bmbounds.cli.main({command.split()!r})
print(json.dumps([code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
                  "bmbounds.upperiso" in sys.modules, "mpmath" in sys.modules]))
"""
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [*GOLDEN[command], True, False]


@pytest.mark.parametrize("command", ["upper --t 7/2 --format csv", "bounds --m 2..3 --k 2..3",
                                     "upper --optimize --tol 1e-6"])
def test_upper_and_bounds_load_what_they_run(command):
    proc = python("-m", "bmbounds.cli", *command.split())
    expected_code, expected_digest = GOLDEN[command]
    assert (proc.returncode, proc.stderr) == (expected_code, "")
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == expected_digest


@pytest.mark.parametrize("command, stderr", [
    ("upper --t 5", "error: parameter must satisfy 3 <= t <= 4, got 5\n"),
    ("bounds --k 1..2", "error: copy count must satisfy k >= 2, got 1\n"),
])
def test_upper_and_bounds_domain_errors_are_exit_2(command, stderr):
    proc = python("-m", "bmbounds.cli", *command.split())
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", stderr)
