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

Every structured ``certify``, ``search``, ``sweep`` and ``dichotomy``
digest (13 of them) was recorded again when ``exactlp.pivot``, an exact
integer simplex over row bases, replaced Fourier-Motzkin elimination as
the one decision procedure, and ``certify_at`` and the dichotomy's plain
stage began to settle each case as a probe does.  Every Farkas vector is
now the primitive integer multiplier vector of a support of at most five
rows, and every witness the vertex of a basis of four independent base
rows (``test_certificates_are_supports_and_vertices``).  Only ``farkas``
and ``witness`` entries changed: every status, echo, ``t_lo``, ``t_hi``,
trace, ``certified`` flag and exit code is as before, and so is every
text, CSV, ``upper`` and ``bounds`` digest.

The ``sweep --iters 2 --format structured``, ``search --lo 3 --hi 5 --iters
24 --c-policy 3,1,5 --format structured`` and ``sweep --iters 12 --format
structured`` digests were recorded again when a stored infeasible verdict
became the n + 1 rows its pivot run ended on, accepted at another t
whenever their kernel is one-signed with a negative combined rhs.  Before,
it was also rejected when that kernel weighed a row of weight 0 in the run,
and a new pivot run decided the case.  Five Farkas vectors of these
documents now come from the stored rows, with smaller entries (at most 27
bits, where they reached 54).  Only ``farkas`` entries changed, and every
other digest is as before.

The last two digests were recorded while ``exactlp.pivot`` still ran one
generic body for every row width, before the case systems' four-variable
rows got a body of their own.  They drive long pivot runs off the default
policy: the dichotomy makes 19 runs with 90 swaps, the search 11 runs with
43 swaps.

The ``dichotomy --t 4 --functions 0 1 --format structured`` digest was
recorded when every ``exactlp.pivot`` run began to start at the origin,
where before a run that followed a failed stored-basis check first swapped
that basis in.  Before that change the document read
``e63b50fa6aca4c55e4e409fce2e2bac8770de87e536d1ac0ae49c63a6891129e``.  One
assignment's pivot run now ends at another vertex, so one witness changed,
from ``1/2, 1/2, 1`` to ``5/12, 5/12, 4/3`` (``th0``, ``th1``, ``th2``):
every status, echo, ``certified`` flag and exit code is as before, and so
is every other digest.

The ``dichotomy --t 4 --c-policy 1,0,2 --format structured`` digest was
recorded while each plain-feasible case's assignments still first checked
the basis its plain run ended at, shifted past the branch rows, and an
assignment whose vertex was the plain witness still carried the plain
result object, before the assignments were settled as bisection probes
settle a case.  It then made 23 stored-basis settles, as did its printed
twin, more than any other dichotomy over all three functions with policy
2,1,4, 1,0,2, 0,759,400 or 3,1,5, either variant, at a t in [3, 4] with
denominator <= 8, so it pins the witnesses stored bases give.

The ``search --lo 3 --hi 5 --iters 24 --c-policy 1,0,2 --variant printed
--format structured`` digest was recorded while every bisection probe still
made all the base rows of each case it settled, and each end report made
every pair row of its cases twice, once for its self-check and once for
its echo, before rows of one formula were made once per point.  It is a
deep search in the printed variant, where row 8d reads the variant.
"""

import hashlib
import json
import math
from fractions import Fraction

import pytest

from bmbounds import certify, reference
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
from bmbounds.reference import LinearSystem

GOLDEN = {
    "dichotomy --t 113/32 --format structured":
        (0, "da48a4717dbac4421ea4336df09c573378d95a8e9c827ee973ec66c2ab02a079"),
    "dichotomy --t 4 --format structured":
        (1, "fe641c3b509756512af850843d448bea3a10d7ba64d1dce329f7cc4b7432e678"),
    "search --lo 3 --hi 5 --iters 6 --c-policy 2,1,4 --format structured":
        (0, "5d9a705db0f884536abff32565c8636b0914c34998e0db623be256e02c12bf1a"),
    "search --lo 3 --hi 5 --iters 20 --format structured":
        (0, "f8b153120c1d1c7423694365647fec3b18a2001e814ae7f46f4ce82b517bdba7"),
    "certify --t 4 --format structured":
        (1, "1fc871349386614501111c46b40ddaf7d8647eab1804002d877e818ba1762786"),
    "sweep --iters 2 --format structured":
        (0, "a69239f0e27859ddca4cad9c52f2bc6cd8612996fb2f5e634b53a9a9d7bd51a9"),
    "search --lo 3 --hi 5 --iters 0 --format structured":
        (0, "9e0ba1a9ff3d1381275f5b8ad7dd47a44611ca56cef52bce66bac2b020ca6d54"),
    "upper --optimize --tol 1e-8 --format structured":
        (0, "78e84e9172fe3a9d351faff08ee0db37e3641af7804f3fac27a0c2149e51596c"),
    "search --lo 3 --hi 5 --iters 24 --c-policy 3,1,5 --format structured":
        (0, "0132be1f0f9b9a3e74c3726f6599fc1268bf7a9f9088f5612a11cf621d98dcb1"),
    "dichotomy --t 10/3 --format structured":
        (0, "0faf765f22d4fa1f46466d46fb23741422c171572941895e5dc61d6182cf2e30"),
    "dichotomy --t 7/2 --functions 0 2 --variant printed --format structured":
        (0, "9f7a6fd151a091f352746b6f506c5437320913f096262132d02535c9da4107d0"),
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
        (0, "c00a0129e5e413b0f2f41e8963b3da5c87f1fb38e4bba39a7cde35969f100985"),
    "dichotomy --t 11/3 --format structured":
        (1, "59229d7eccdef43661e5cc86bd05ffd61bc412f924774601b05478d867338630"),
    "dichotomy --t 15/4 --functions 0 1 --variant printed --format structured":
        (1, "3b2797d9001da01c267872fce3f70f9ecb9ce42eacfe2142a9ef212c3ac8e2fd"),
    "upper --optimize --tol 1e-14 --format structured":
        (0, "32258765d3fadf428d757fba163a46502611b3fb7e06e435117961bc05a886df"),
    "dichotomy --t 15/4 --c-policy 1,0,2 --format structured":
        (1, "e64437940d0b66513134575c3e469d76b25dfec56341313647af35aed1fd3c35"),
    "search --lo 3 --hi 4 --iters 16 --c-policy 0,203,100 --variant printed --format structured":
        (0, "fe6395d407d25d0b342964cec7c97f90732f6784f84532d52295f6c477c775a8"),
    "dichotomy --t 4 --functions 0 1 --format structured":
        (1, "00620bb3db651b3e76608897e470a741371ef2c1a6b3ea911bc06ec161aabd72"),
    "dichotomy --t 4 --c-policy 1,0,2 --format structured":
        (1, "e1a30a1764473ca3bf25ad917ae94ea5c4b77319177569c637c18411569b7e54"),
    "search --lo 3 --hi 5 --iters 24 --c-policy 1,0,2 --variant printed --format structured":
        (0, "cd65d4246e5ba662d4916741f41d6167bd4752cd4ead028fb52a445c143d76ec"),
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
    assert len(commands) == 21  # 20 before the printed-variant 24-iteration search
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
    assert len(commands) == 21  # 20 before the printed-variant 24-iteration search
    for command in commands:
        code = main(command.split())
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert (code, digest) == GOLDEN[command], command


def test_dichotomy_decides_from_integer_rows(monkeypatch, capsys):
    """Every branch assignment is decided from integer base rows: with
    ``reference.system_rows`` and ``certify.check_feasibility`` gone, every
    dichotomy document keeps its golden digest."""
    def boom(*args):  # pragma: no cover
        raise AssertionError("built systems are not decided on the runtime path")

    monkeypatch.setattr(reference, "system_rows", boom)
    monkeypatch.setattr(certify, "check_feasibility", boom)
    commands = [c for c in GOLDEN if c.split()[0] == "dichotomy"]
    assert len(commands) == 10
    for command in commands:
        code = main(command.split())
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert (code, digest) == GOLDEN[command], command


def _case_entries(doc):
    """Every case entry of a document, embedded search documents included."""
    if isinstance(doc, dict):
        if "status" in doc and "system" in doc:
            yield doc
        else:
            for value in doc.values():
                yield from _case_entries(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _case_entries(value)


def _rank(vectors):
    """The rank of a list of rational vectors, by Fraction Gaussian elimination."""
    rows, rank = [list(map(Fraction, v)) for v in vectors], 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                factor = rows[i][c] / rows[rank][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_certificates_are_supports_and_vertices(capsys):
    """Every Farkas vector the structured certify, search, sweep and
    dichotomy commands write is a primitive integer vector with at most
    n + 1 = 5 nonzero entries, and every witness has 4 independent base
    rows of its echoed system tight: a support's multipliers and a basis
    vertex, as one pivot run or a stored certificate gives them."""
    from bmbounds.systems import system_from_doc

    commands = [c for c in GOLDEN if c.split()[0] in ("certify", "search", "sweep", "dichotomy")
                and c.endswith("--format structured")]
    assert len(commands) == 18  # 17 before the printed-variant 24-iteration search
    farkas = witnesses = 0
    for command in commands:
        main(command.split())
        for entry in _case_entries(json.loads(capsys.readouterr().out)):
            if entry["status"] == "infeasible":
                nonzero = [Fraction(x) for x in entry["farkas"] if Fraction(x)]
                assert len(nonzero) <= 5 and all(x.denominator == 1 for x in nonzero), command
                assert math.gcd(*map(int, nonzero)) == 1, command
                farkas += 1
                continue
            system = system_from_doc(entry["system"])
            point = [Fraction(entry["witness"][v]) for v in system.variables]
            tight = [vec for vec, num, den, _, _ in reference.system_rows(system)
                     if den * sum(a * x for a, x in zip(vec, point)) == num]
            assert _rank(tight) == len(system.variables) == 4, command
            witnesses += 1
    assert (farkas, witnesses) == (211, 129)  # (204, 128) before the printed-variant 24-iteration search
