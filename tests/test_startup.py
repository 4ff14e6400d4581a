"""What a fresh interpreter loads, and that the lazily loaded paths still work.

The lower-bound commands run exact Fraction code only, so importing the CLI
and running ``certify`` must not load mpmath, the upper-bound modules or the
cross-check solvers.  ``upper`` and ``bounds`` load them when they run, and
mpmath only displays closed forms: ``upper --t`` and ``upper --scan`` are
exact and never load it.  Each case here starts its own interpreter, so
nothing is loaded beforehand.
"""

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
HEAVY = ("mpmath", "bmbounds.upperiso", "bmbounds.bounds", "bmbounds.crosscheck")


def python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


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
