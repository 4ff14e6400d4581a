"""Byte-identity gate on the structured output of the exact pipeline.

The SHA-256 digests below were recorded from the stdout of each command
while ``exactlp.check_feasibility`` still carried a dense multiplier vector
on every derived Fourier-Motzkin row, before that was replaced by parent
records and a one-time Farkas rebuild.  They pin every Farkas entry,
witness coordinate, echoed system and verdict of these documents, so a
change to any single certificate entry fails this test.  The documents
also carry ``tool_version``; a version bump changes them on purpose and
the digests must then be recomputed (and the diff of the documents read).

The last two digests were recorded later, while ``binary_search_bound``
still decided all four cases at every bisection probe and ``upper
--optimize`` still ran the optimizer a second time for the closed-form
comparison.  The ``--iters 0`` search ends at its bracket end ``hi``, so
its upper report is the one a search completes after the loop.

The last three digests were recorded while ``check_feasibility`` still kept
every Fourier-Motzkin row as a vector of Fractions normalised to a leading
coefficient of +-1, before it moved to primitive integer rows.  The
24-iteration search reaches the largest bit sizes of the benchmark's search
workload, ``t = 10/3`` makes denominator clearing use an lcm other than a
power of two, and the last command covers the printed variant with a
partial function set.

The last three digests were recorded while ``apply_T`` and ``apply_S`` still
rebuilt the tail coupling from ``M3``, ``C`` and ``Cinv`` on every call and
the optimizer's objective took row maxima of its own, before the twelve
coefficient rows became the one definition of the pair (T, S).  They pin
the exact scan at step 1/100, the optimizer at its default tolerance and
the text line of one exact ``upper --t`` report.

The text and CSV digests after those were recorded while every subcommand
of ``cli`` still picked its own rendering and wrote it itself.  They pin
the text and CSV reports of each subcommand, ``certify --case`` selection
and the format aliasing of ``upper`` (``--scan`` prints CSV for ``text``,
``--optimize`` prints text for ``csv``).

The ``upper --optimize --tol 1e-8`` digest was recorded again when the
optimizer's report became exact at the rational value of ``t*``: its
``argmax_rows`` read ``tail:1``/``stail:2`` before, picked by rounding
noise among rows whose norms tie exactly, and read ``M:0``/``Minv:1`` since.

All four ``upper --optimize`` digests (``--tol 1e-8 --format structured``,
``--format structured``, ``--tol 1e-6`` and ``--tol 1e-6 --format csv``)
were recorded again when the 40-digit golden-section optimizer gave way to
an exact Fibonacci search.  Its ``t*`` is a grid point ``3 + j/F_n``, not a
binary float, so the digits of ``t*`` and of its exact norms changed; each
new ``t*`` lies within ``2*tol`` of the old one.  At ``--tol 1e-8`` the new
``t*`` falls just left of the minimizer, where the argmax rows are
``tail:0``/``stail:1``.  The closed-form digits are unchanged.

The ``sweep --iters 2 --format structured`` digest was recorded again when
each ranked entry of a sweep document began to embed the search document
of its bisection, so that ``verify-cert`` can audit the ranking.  With the
``search`` fields removed the document is byte for byte the old one, and
the text and CSV digests of ``sweep`` did not move.

Three structured dichotomy digests, ``dichotomy --t 113/32 --format
structured``, ``dichotomy --t 10/3 --format structured`` and ``dichotomy
--t 7/2 --functions 0 2 --variant printed --format structured``, were
recorded again when ``certify_dichotomy`` began to decide each plain case
system once.  A case that is infeasible without branch rows now carries,
in every assignment, the plain Farkas vector with a zero on each ``B*``
row, where before each assignment ran its own elimination and often used
the branch rows.  The zeros show that the split was not needed for that
case.  Verdicts, echoed systems and witnesses did not change; neither did
``dichotomy --t 4 --format structured``, where every plain case is
feasible, nor any text digest.

The ``sweep --iters 12 --format structured`` digest was recorded while every
bisection probe still ran Fourier-Motzkin elimination, before probes began
to re-solve the basis that last decided each case.  The sweep runs one
bisection per policy in one process, so it fails if a basis leaks from one
policy's search into the certificates of another.

The ``dichotomy --t 11/3 --format structured`` and ``dichotomy --t 15/4
--functions 0 1 --variant printed --format structured`` digests were
recorded while every branch assignment of a plain-feasible case was still
decided from its built ``Fraction`` system, before the branch rows got
integer makers.  Both hold assignments that elimination proves infeasible
with the branch rows, so they pin Farkas vectors that use those rows;
``--t 4`` is the only other command that decides assignments, and most of
its verdicts are feasible.

The ``upper --optimize --tol 1e-14 --format structured`` digest was recorded
while ``norm_report`` still ran one Horner loop per table entry, before it
evaluated each distinct polynomial of a table once per ``t``.  It is the
finest tolerance the benchmark's upper workload uses, so its ``t*`` and
norms carry the largest integers any upper report reaches.

The four structured ``search`` digests and the two structured ``sweep``
digests (``--iters 2`` and ``--iters 12``) were recorded again when the two
end reports of a search began to take their certificates from the supports
and bases its probes keep, running elimination only for a case that none
of them settles.  A Farkas vector at ``t_lo`` is now the primitive integer
multiplier vector of a support of at most five rows, and a witness at
``t_hi`` is often the vertex of a stored basis.  Only ``farkas`` and
``witness`` entries changed: ``t_lo``, ``t_hi``, the trace, every status
and every echo are as before, and so are every text and CSV digest and
every certify and dichotomy digest.

The ``dichotomy --t 4 --format structured``, ``dichotomy --t 11/3 --format
structured`` and ``dichotomy --t 15/4 --functions 0 1 --variant printed
--format structured`` digests were recorded again when each branch
assignment of a plain-feasible case began to try the support and the basis
its case last stored, the first basis being that of the plain witness,
before running elimination.  An assignment the plain witness satisfies now
carries that witness, and others often a stored basis's vertex or a
support's primitive integer Farkas vector, where before each carried the
result of its own elimination.  Only ``farkas`` and ``witness`` entries of
assignment entries changed: every status, echo, ``certified`` flag and exit
code is as before, and so is every other digest.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from bmbounds import certify, exactlp
from bmbounds.certify import (
    EXIT_CERTIFIED,
    binary_search_bound,
    certify_at,
    certify_dichotomy,
    certify_report_doc,
    dichotomy_report_doc,
    search_report_doc,
    verify_certificate_text,
)
from bmbounds.cli import main
from bmbounds.exactlp import LinearSystem

GOLDEN = {
    "dichotomy --t 113/32 --format structured":
        (0, "e798dfe84fae055dec656022268e0396765c3a3878204b9abea7fb4f8766df39"),
    "dichotomy --t 4 --format structured":
        (1, "e54d4abe888ea477598946fee32feb78d900d398a2a61ddea3f921dd3ac8c024"),
    "search --lo 3 --hi 5 --iters 6 --c-policy 2,1,4 --format structured":
        (0, "98556b1bc90ffb174ae851c8ea3e0ed5fcb1471df428f9f7b6b99936b04fc017"),
    "search --lo 3 --hi 5 --iters 20 --format structured":
        (0, "7dc573bb7bc4c71018fe6c4f73bee9abd7db9f9fa844897db0c894d04064cc1d"),
    "certify --t 4 --format structured":
        (1, "a2d7c03f46e72140a3450184d0e0a0663b7dc9ba1acf2e45a74ebfe980a6be4d"),
    "sweep --iters 2 --format structured":
        (0, "cdcfd2526d3b0a98a972eed0d746a600c7449bf04251bf798d09126bd1ee424d"),
    "search --lo 3 --hi 5 --iters 0 --format structured":
        (0, "6474bb0380b7be1248231d1f21835a3c2b3b053595b91882d30bdba0b6b73259"),
    "upper --optimize --tol 1e-8 --format structured":
        (0, "78e84e9172fe3a9d351faff08ee0db37e3641af7804f3fac27a0c2149e51596c"),
    "search --lo 3 --hi 5 --iters 24 --c-policy 3,1,5 --format structured":
        (0, "34da3169aa1fb965e4f3f090e8247d32f1cab498faf4ae56a434ed81ccd987cc"),
    "dichotomy --t 10/3 --format structured":
        (0, "3e128918111f1b370084ffc634bacee9bb3ef1f330da71607837fe7ac906a547"),
    "dichotomy --t 7/2 --functions 0 2 --variant printed --format structured":
        (0, "8c8ba702ccf8fb63e38958462f81ba393fe6626f3a07d4a9d398998cf50f9c04"),
    "upper --scan 3:4:1/100 --format structured":
        (0, "ec50768e62a8f013f7d4c59c660c11c4c3766c251897fe6982b2ab81d0068ce6"),
    "upper --optimize --format structured":
        (0, "21f6c000dfcaa5bfec4c4bf5818451b1e0ba77aa3632ba5cad064cd1396cea56"),
    "upper --t 387513/100000":
        (0, "d1f887b6edef7656b25ccf7560e0371dd29e6f46981367327059f89e3aba7e9e"),
    "certify --t 113/32":
        (0, "45a06e344168fd984f8b7d27f9b000cb3daccf6baf018afd9f57b7b2e5010ca3"),
    "certify --t 4 --case j012":
        (1, "7282d859504591f3b60dbacd56677cece3932cf39bee58860d9cf51cf4f15665"),
    "search --lo 3 --hi 5 --iters 6":
        (0, "f2f9579209a97a414025b59481b32e2be8e795ebfb2014732dd649dbdca46aa0"),
    "search --lo 3 --hi 5 --iters 6 --format csv":
        (0, "48afe9211ceaddf2cd02215d27802a21ba37c1a3b7676cfd223f997805562ae3"),
    "sweep --iters 2":
        (0, "c283b749247cdd9c909a4a379835a121218310feeb5ec973e9c7dea2740e3d19"),
    "sweep --iters 2 --format csv":
        (0, "6ad798de79b5820eb2b56e436de579e91fbbd6bf48132f0e0c3cf291ac31ab19"),
    "dichotomy --t 113/32":
        (0, "a03bf1f6822cf1c01ff8d38b675ed97431d14ecd3fcf3833f59104b9c5da6810"),
    "bounds --m 2..3 --k 2..3":
        (0, "a0f8e62c12f9517c6874fd0a4418f87ea592c4112eb1a3293b95473241ffc1ec"),
    "bounds --m 2..3 --k 2..3 --format csv":
        (0, "52352dbad1180fbe946abd52c8993cd8fc8422d50031c81abd9fbbb9a0e39d36"),
    "upper --scan 3:4:1/2":
        (0, "0e36654304b5d2d5c7cab3189fbb64b6bac354267ee4700f7e0258756b842eb3"),
    "upper --scan 3:4:1/2 --format text":
        (0, "0e36654304b5d2d5c7cab3189fbb64b6bac354267ee4700f7e0258756b842eb3"),
    "upper --optimize --tol 1e-6":
        (0, "19f56c59f21c8130832e00731cdc4fa5666e36ffbad317d9ee8e52a397d33b32"),
    "upper --optimize --tol 1e-6 --format csv":
        (0, "19f56c59f21c8130832e00731cdc4fa5666e36ffbad317d9ee8e52a397d33b32"),
    "upper --t 7/2 --format csv":
        (0, "31165587e1c069cde239a40758b321357447597f2b4c597dc2e324931e77162e"),
    "sweep --iters 12 --format structured":
        (0, "d23f71f8efc94dffeec715ddde8ab0f3744ef42f1933f4efdcee67bd8c6439d1"),
    "dichotomy --t 11/3 --format structured":
        (1, "ef402a54cda65478434c09a0e20ea373ab48095047b789ea1691e7404ec98fdf"),
    "dichotomy --t 15/4 --functions 0 1 --variant printed --format structured":
        (1, "4399331d79e8e8487272b7c665abe844691c7ac300e119432ae9bec9e3ce4a50"),
    "upper --optimize --tol 1e-14 --format structured":
        (0, "32258765d3fadf428d757fba163a46502611b3fb7e06e435117961bc05a886df"),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_structured_output_is_byte_identical(command, capsys):
    expected_code, expected_digest = GOLDEN[command]
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == expected_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected_digest



def test_runtime_path_builds_no_normalized_rows(monkeypatch, capsys):
    """Deciding, reporting and auditing run with ``LinearSystem.normalized_rows``
    gone: the solver and the verifier read each inequality directly, and the
    certify, search and dichotomy documents keep their golden digests."""
    def boom(self):  # pragma: no cover
        raise AssertionError("normalized_rows is not on the runtime path")

    monkeypatch.setattr(LinearSystem, "normalized_rows", boom)
    docs = [certify_report_doc(certify_at(Fraction(57, 16))),
            search_report_doc(binary_search_bound(Fraction(3), Fraction(5), 6)),
            dichotomy_report_doc(certify_dichotomy(Fraction(113, 32)))]
    for doc in docs:
        assert verify_certificate_text(json.dumps(doc)) == (EXIT_CERTIFIED,
                                                            "all certificates verified")
    commands = [c for c in GOLDEN if c.split()[0] in ("certify", "search", "dichotomy")]
    assert len(commands) == 16
    for command in commands:
        code = main(command.split())
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert (code, digest) == GOLDEN[command], command


def test_commands_build_no_system(monkeypatch, capsys):
    """No command builds a ``LinearSystem``: with every construction raising,
    the certify, search and dichotomy documents are produced and audited
    (each echo canonical), and those commands keep their golden digests."""
    def boom(self):  # pragma: no cover
        raise AssertionError("no LinearSystem is built on a command's path")

    monkeypatch.setattr(LinearSystem, "__post_init__", boom)
    docs = [certify_report_doc(certify_at(Fraction(57, 16))),
            search_report_doc(binary_search_bound(Fraction(3), Fraction(5), 6)),
            dichotomy_report_doc(certify_dichotomy(Fraction(113, 32))),
            dichotomy_report_doc(certify_dichotomy(Fraction(15, 4), functions=(0, 2)))]
    for doc in docs:
        assert verify_certificate_text(json.dumps(doc)) == (EXIT_CERTIFIED,
                                                            "all certificates verified")
    commands = [c for c in GOLDEN if c.split()[0] in ("certify", "search", "dichotomy")]
    assert len(commands) == 16
    for command in commands:
        code = main(command.split())
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert (code, digest) == GOLDEN[command], command


def test_dichotomy_decides_from_integer_rows(monkeypatch, capsys):
    """Every branch assignment is decided from integer base rows: with
    ``exactlp.system_rows`` and ``certify.check_feasibility`` gone, every
    dichotomy document keeps its golden digest."""
    def boom(*args):  # pragma: no cover
        raise AssertionError("built systems are not decided on the runtime path")

    monkeypatch.setattr(exactlp, "system_rows", boom)
    monkeypatch.setattr(certify, "check_feasibility", boom)
    commands = [c for c in GOLDEN if c.split()[0] == "dichotomy"]
    assert len(commands) == 7
    for command in commands:
        code = main(command.split())
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert (code, digest) == GOLDEN[command], command
