import ast
import hashlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bmbounds import exactlp
from bmbounds import reference as reference_mod
from bmbounds.exactlp import (
    GE,
    LE,
    FeasibilityResult,
    SystemError_,
    check_feasibility,
    verify_certificate,
)
from bmbounds.reference import LinearInequality, LinearSystem, system_rows
import crosscheck
from crosscheck import enumerate_vertices, fm_feasibility, reference_verify_certificate, simplex_feasibility
from bmbounds.systems import (ALL_CASES, BRANCH_ROWS, CASE_TABLES, VARIABLES, CPolicy, JCase, Variant,
                              case_point, case_rows)

F = Fraction


def make(variables, rows, nonneg=()):
    ineqs = tuple(
        LinearInequality(coeffs, rel, F(rhs), f"r{i}")
        for i, (coeffs, rel, rhs) in enumerate(rows)
    )
    return LinearSystem(tuple(variables), ineqs, frozenset(nonneg))


CONTRADICTORY = make(["x"], [({"x": F(1)}, GE, 0), ({"x": F(1)}, LE, -1)])
INTERVAL = make(["x"], [({"x": F(1)}, GE, 0), ({"x": F(1)}, LE, 1)])


class TestCheckFeasibility:
    def test_contradictory_pair(self):
        res = check_feasibility(CONTRADICTORY)
        assert res.status == "infeasible"
        assert res.farkas == (F(1), F(1))

    def test_interval_feasible_witness_zero(self):
        res = check_feasibility(INTERVAL)
        assert res.status == "feasible"
        assert res.witness == {"x": F(0)}

    @pytest.mark.parametrize("rows, feasible", [([], True), ([({}, LE, -1)], False), ([({}, LE, 1)], True)],
                             ids=["empty", "0 <= -1", "0 <= 1"])
    def test_no_variables(self, rows, feasible):
        """A system over no variables: the empty one is feasible with an empty
        witness, and a lone inequality 0 <= rhs is feasible iff rhs >= 0."""
        res = check_feasibility(make([], rows))
        assert res.feasible is feasible
        assert res.witness == ({} if feasible else None)
        assert verify_certificate(make([], rows), res)

    def test_undeclared_variable_rejected(self):
        with pytest.raises(SystemError_):
            make(["x"], [({"y": F(1)}, LE, 0)])

    def test_witness_satisfies_exactly(self):
        sys_ = make(
            ["x", "y"],
            [({"x": F(2), "y": F(3)}, LE, F(6)), ({"x": F(1), "y": F(-1)}, GE, F(-1))],
            nonneg=("x", "y"),
        )
        res = check_feasibility(sys_)
        assert res.feasible
        assert verify_certificate(sys_, res)


    @pytest.mark.parametrize("system", [
        INTERVAL,
        CONTRADICTORY,
        make(["x"], [({"x": F(1)}, GE, 0), ({"x": F(0)}, LE, -1)]),
    ], ids=["feasible", "infeasible", "zero-base-row"])
    def test_self_check_runs_on_every_path(self, monkeypatch, system):
        """No certificate leaves check_feasibility without passing verify_pairs."""
        monkeypatch.setattr(exactlp, "verify_pairs", lambda variables, rows, result: False)
        with pytest.raises(AssertionError, match="failed verification"):
            check_feasibility(system)

    def test_self_check_runs_on_the_padded_path(self, monkeypatch):
        """A dichotomy case that is infeasible without branch rows hands each
        assignment its Farkas vector, padded with zeros; that vector passes
        verify_pairs too.  At 113/32 every case is such a case, so the plain
        systems verify here and only the padded vectors, whose rows hold
        branch rows, fail."""
        from bmbounds.certify import certify_dichotomy
        from bmbounds.systems import BRANCH_ROWS, DEFAULT_POLICY, case_point

        point = case_point(F(113, 32), DEFAULT_POLICY)
        branch = {row.pairs(point) for row in BRANCH_ROWS.values()}
        monkeypatch.setattr(exactlp, "verify_pairs",
                            lambda variables, rows, result: not branch.intersection(rows))
        with pytest.raises(AssertionError, match="failed verification"):
            certify_dichotomy(F(113, 32))


class TestVerifyCertificate:
    def test_witness_true(self):
        assert verify_certificate(INTERVAL, FeasibilityResult("feasible", witness={"x": F(0)}))

    def test_farkas_true(self):
        assert verify_certificate(
            CONTRADICTORY, FeasibilityResult("infeasible", farkas=(F(1), F(1)))
        )

    def test_farkas_bad_combination_false(self):
        # (1, 0) leaves a nonzero x coefficient
        assert not verify_certificate(
            CONTRADICTORY, FeasibilityResult("infeasible", farkas=(F(1), F(0)))
        )

    def test_negative_multiplier_false(self):
        assert not verify_certificate(
            CONTRADICTORY, FeasibilityResult("infeasible", farkas=(F(-1), F(-1)))
        )

    def test_negative_multipliers_cannot_refute_a_feasible_system(self):
        # (-1, -1) combines x >= 0 and x <= 1 into 0 <= -1
        assert not verify_certificate(
            INTERVAL, FeasibilityResult("infeasible", farkas=(F(-1), F(-1)))
        )

    def test_zero_combination_false(self):
        # (1, 1) combines x >= 0 and x <= 0 into 0 <= 0, which holds
        point = make(["x"], [({"x": F(1)}, GE, 0), ({"x": F(1)}, LE, 0)])
        assert not verify_certificate(point, FeasibilityResult("infeasible", farkas=(F(1), F(1))))

    def test_missing_witness_raises(self):
        with pytest.raises(SystemError_):
            verify_certificate(INTERVAL, FeasibilityResult("feasible"))

    def test_missing_farkas_raises(self):
        with pytest.raises(SystemError_):
            verify_certificate(CONTRADICTORY, FeasibilityResult("infeasible"))

    def test_wrong_length_farkas_raises(self):
        with pytest.raises(SystemError_):
            verify_certificate(
                CONTRADICTORY, FeasibilityResult("infeasible", farkas=(F(1),))
            )

    def test_wrong_witness_false(self):
        assert not verify_certificate(
            INTERVAL, FeasibilityResult("feasible", witness={"x": F(2)})
        )


class TestVertices:
    def test_unit_square(self):
        sys_ = make(
            ["x", "y"],
            [
                ({"x": F(1)}, LE, 1),
                ({"x": F(1)}, GE, 0),
                ({"y": F(1)}, LE, 1),
                ({"y": F(1)}, GE, 0),
            ],
        )
        assert enumerate_vertices(sys_) == [
            (F(0), F(0)),
            (F(0), F(1)),
            (F(1), F(0)),
            (F(1), F(1)),
        ]

    def test_infeasible_empty(self):
        assert enumerate_vertices(CONTRADICTORY) == []

    def test_simplex_triangle(self):
        sys_ = make(
            ["x", "y"],
            [({"x": F(1), "y": F(1)}, LE, 1)],
            nonneg=("x", "y"),
        )
        assert enumerate_vertices(sys_) == [(F(0), F(0)), (F(0), F(1)), (F(1), F(0))]


class TestEliminationTies:
    """Which row an elimination keeps, or reports, when candidates tie.

    The Farkas vectors were recorded while every step still made each
    derived vector in full and pruned the step's rows afterwards."""

    X, Y, Z = "x", "y", "z"

    @pytest.mark.parametrize("rows, farkas", [
        # Eliminating y leaves x: r0+r1 and 2*r0+r2 both give x <= 1; the first is kept.
        ([({X: 1, Y: 1}, LE, 1), ({X: 1, Y: -1}, LE, 1), ({X: 1, Y: -2}, LE, 1), ({X: 1}, GE, 2)],
         (F(1, 2), F(1, 2), F(0), F(1))),
        # The same with three variables: r0+r1 and r0+r2 both give 2x + y <= 1 while
        # x and y are both still live.
        ([({X: 1, Y: 1, Z: 1}, LE, 1), ({X: 1, Z: -1}, LE, 0), ({X: 3, Y: 1, Z: -1}, LE, 1),
          ({X: 2, Y: 1}, GE, 2), ({Y: -1}, LE, 5)],
         (F(1, 2), F(1, 2), F(0), F(1, 2), F(0))),
        # Eliminating x: pairs (r0, r3) and (r2, r1) both give 0 <= -1; the first
        # pair in (positive row, negative row) order is reported.
        ([({X: 1, Y: 1}, LE, 0), ({X: -1, Y: 1}, LE, 0), ({X: 1, Y: -1}, LE, -1),
          ({X: -1, Y: -1}, LE, -1)],
         (F(1), F(0), F(0), F(1))),
        # r1+r2 gives x <= 1, tying the carried row r0; the carried row is kept.
        ([({X: 1}, LE, 1), ({X: 1, Y: 1}, LE, 0), ({X: 1, Y: -1}, LE, 2), ({X: 1}, GE, 2)],
         (F(1), F(0), F(0), F(1))),
    ], ids=["derived-tie", "derived-tie-3", "zero-slope", "carried-tie"])
    def test_first_row_wins(self, rows, farkas):
        variables = [v for v in (self.X, self.Y, self.Z) if any(v in c for c, _, _ in rows)]
        res = fm_feasibility(make(variables, rows))
        assert res.farkas == farkas


def _random_system(rng):
    nvars = rng.randint(2, 3)
    variables = [f"x{i}" for i in range(nvars)]
    rows = []
    for _ in range(rng.randint(2, 5)):
        coeffs = {v: F(rng.randint(-3, 3)) for v in variables}
        coeffs = {v: c for v, c in coeffs.items() if c != 0}
        if not coeffs:
            coeffs = {variables[0]: F(1)}
        rel = rng.choice([LE, GE])
        rows.append((coeffs, rel, F(rng.randint(-3, 3))))
    return make(variables, rows, nonneg=variables)


def test_dual_method_agreement_1000():
    """Pivoting, phase-1 simplex and vertex enumeration agree on random pointed systems."""
    rng = random.Random(20240613)
    for trial in range(1000):
        sys_ = _random_system(rng)
        fm = check_feasibility(sys_)
        sx = simplex_feasibility(sys_)
        assert fm.feasible == sx.feasible, f"trial {trial}: FM vs simplex disagree"
        has_vertex = bool(enumerate_vertices(sys_))
        assert fm.feasible == has_vertex, f"trial {trial}: FM vs vertices disagree"
        assert verify_certificate(sys_, fm), f"trial {trial}: certificate failed"
        if sx.feasible:
            assert verify_certificate(sys_, sx), f"trial {trial}: simplex witness invalid"


@st.composite
def small_system(draw):
    nvars = draw(st.integers(2, 3))
    variables = [f"x{i}" for i in range(nvars)]
    n_rows = draw(st.integers(1, 4))
    rows = []
    for _ in range(n_rows):
        coeffs = {
            v: F(draw(st.integers(-3, 3))) for v in variables
        }
        coeffs = {v: c for v, c in coeffs.items() if c != 0}
        if not coeffs:
            coeffs = {variables[0]: F(1)}
        rows.append((coeffs, draw(st.sampled_from([LE, GE])), F(draw(st.integers(-3, 3)))))
    return make(variables, rows, nonneg=variables)


def _scaled(ineq, factor):
    """ineq with both sides multiplied by a positive rational (relation unchanged)."""
    assert factor > 0
    return LinearInequality(
        {v: c * factor for v, c in ineq.coeffs.items()}, ineq.relation, ineq.rhs * factor, ineq.label
    )


@given(small_system(), st.integers(1, 9), st.integers(1, 9), st.data())
@settings(max_examples=150, deadline=None)
def test_scale_invariance(sys_, num, den, data):
    """Scaling one inequality by a positive rational never changes the verdict."""
    before = check_feasibility(sys_).feasible
    idx = data.draw(st.integers(0, len(sys_.inequalities) - 1))
    scaled = list(sys_.inequalities)
    scaled[idx] = _scaled(scaled[idx], F(num, den))
    sys2 = LinearSystem(sys_.variables, tuple(scaled), sys_.nonneg)
    assert check_feasibility(sys2).feasible == before


def test_exactness_no_floats():
    """Solver outputs are Fractions end to end."""
    res = check_feasibility(INTERVAL)
    assert all(isinstance(v, Fraction) for v in res.witness.values())
    res2 = check_feasibility(CONTRADICTORY)
    assert all(isinstance(x, Fraction) for x in res2.farkas)


def _random_deep_system(rng):
    """A pointed system in 4-6 variables with sparse rows, 3-6 inequalities."""
    variables = [f"x{i}" for i in range(rng.randint(4, 6))]
    rows = []
    for _ in range(rng.randint(3, 6)):
        coeffs = {v: F(rng.randint(-3, 3)) for v in variables if rng.random() < 0.6}
        coeffs = {v: c for v, c in coeffs.items() if c != 0} or {variables[0]: F(1)}
        rows.append((coeffs, rng.choice([LE, GE]), F(rng.randint(-3, 3))))
    return make(variables, rows, nonneg=variables)


def _dense_farkas(system):
    """Reference Fourier-Motzkin that carries a full multiplier vector on every row.

    Same elimination order, normalisation, pruning and contradiction choice
    as check_feasibility; returns the Farkas vector, or None if feasible.
    """
    base = system.normalized_rows()
    found = []

    def sift(candidates):
        best = {}
        for vec, rhs, prov in candidates:
            if not any(vec):
                if rhs < 0:
                    found.append(prov)
                continue
            pivot = abs(next(c for c in vec if c))
            vec = tuple(c / pivot for c in vec)
            rhs, prov = rhs / pivot, tuple(x / pivot for x in prov)
            if vec not in best or rhs < best[vec][0]:
                best[vec] = (rhs, prov)
        return [(vec, rhs, prov) for vec, (rhs, prov) in best.items()]

    rows = sift([(vec, rhs, tuple(F(int(i == k)) for k in range(len(base))))
                 for i, (vec, rhs) in enumerate(base)])
    remaining = list(range(len(system.variables)))
    while remaining and not found:
        j = min(remaining, key=lambda j: (sum(r[0][j] > 0 for r in rows)
                                          * sum(r[0][j] < 0 for r in rows), remaining.index(j)))
        pos = [r for r in rows if r[0][j] > 0]
        neg = [r for r in rows if r[0][j] < 0]
        new = []
        for pv, pr, pp in pos:
            for nv, nr, np_ in neg:
                a, b = 1 / pv[j], 1 / -nv[j]
                new.append((tuple(x * a + y * b for x, y in zip(pv, nv)), pr * a + nr * b,
                            tuple(x * a + y * b for x, y in zip(pp, np_))))
        zero = [r for r in rows if r[0][j] == 0]
        rows = sift(zero + new)
        remaining.remove(j)
    return found[0] if found else None


def test_deep_elimination_farkas_rebuild(monkeypatch):
    """Random 4-6 variable systems: the Farkas rebuild through several layers.

    FM agrees with the simplex, every certificate verifies, every Farkas
    vector has one entry per normalised row and equals, entry for entry,
    the vector a dense-provenance elimination carries.  The run is checked
    to reach contradictions three or more layers deep and ones whose
    ancestry shares a parent row.
    """
    depths = Counter()
    shared = 0
    rebuild = crosscheck._rebuild_farkas

    def spy(origin, root, nrows):
        nonlocal shared
        visits = Counter()
        stack = [(root, 0)]
        depth = 0
        while stack:
            node, d = stack.pop()
            visits[node] += 1
            depth = max(depth, d)
            if len(origin[node]) == 5:
                stack += [(origin[node][0], d + 1), (origin[node][1], d + 1)]
        depths[depth] += 1
        shared += max(visits.values()) > 1
        return rebuild(origin, root, nrows)

    monkeypatch.setattr(crosscheck, "_rebuild_farkas", spy)
    rng = random.Random(20261018)
    for trial in range(300):
        sys_ = _random_deep_system(rng)
        fm = fm_feasibility(sys_)
        assert fm.feasible == simplex_feasibility(sys_).feasible, f"trial {trial}"
        assert verify_certificate(sys_, fm), f"trial {trial}"
        if not fm.feasible:
            assert len(fm.farkas) == len(sys_.normalized_rows()), f"trial {trial}"
        assert fm.farkas == _dense_farkas(sys_), f"trial {trial}"
    assert sum(k for d, k in depths.items() if d >= 3) >= 20
    assert shared >= 10


def test_farkas_rebuild_is_linear_in_ancestors():
    """The rebuild expands each ancestor once, however many paths lead to it.

    Node k combines nodes k-1 and k-2, so node 401 has about 10**83 paths
    to the base rows; a path-by-path expansion would never return.
    """
    origin = [(0, 1, 1), (1, 1, 1)]
    for k in range(2, 402):
        origin.append((k - 1, k - 2, 1, 1, 2))
    # Dense reference: prov(k) = (prov(k-1) + prov(k-2)) / 2.
    dense = [(F(1), F(0)), (F(0), F(1))]
    for k in range(2, 402):
        dense.append(tuple((x + y) / 2 for x, y in zip(dense[k - 1], dense[k - 2])))
    assert crosscheck._rebuild_farkas(origin, 401, 2) == dense[401]



def _random_big_system(rng):
    """A pointed system in 3-5 variables whose entries are p/q with |p|, q <= 2**30.

    Half of the rows draw every entry independently, so clearing their
    denominators needs a large lcm; the other half are one large rational
    times small integers, so their cleared rows share a large gcd.
    """
    bound = 2 ** 30
    variables = [f"x{i}" for i in range(rng.randint(3, 5))]
    rows = []
    for _ in range(rng.randint(3, 6)):
        if rng.random() < 0.5:
            def entry():
                return F(rng.randint(-bound, bound), rng.randint(1, bound))
        else:
            common = F(rng.randint(1, 2 ** 28), rng.randint(1, bound))

            def entry():
                return common * rng.randint(-3, 3)
        coeffs = {v: entry() for v in variables if rng.random() < 0.6}
        coeffs = {v: c for v, c in coeffs.items() if c != 0} or {variables[0]: F(1, rng.randint(1, bound))}
        rows.append((coeffs, rng.choice([LE, GE]), entry()))
    return make(variables, rows, nonneg=variables)


def test_big_coefficient_farkas():
    """30-bit rational entries: verdicts, certificates and Farkas vectors stay exact."""
    rng = random.Random(20261018)
    infeasible = 0
    for trial in range(200):
        sys_ = _random_big_system(rng)
        fm = fm_feasibility(sys_)
        assert fm.feasible == simplex_feasibility(sys_).feasible, f"trial {trial}"
        assert verify_certificate(sys_, fm), f"trial {trial}"
        assert fm.farkas == _dense_farkas(sys_), f"trial {trial}"
        infeasible += not fm.feasible
    assert infeasible >= 100


def _fm_corpus():
    """A seeded corpus of systems: random small ones and the lower-bound systems.

    100 systems from each random generator above; every case system at 50
    dyadic t in [3, 5] (two numerators per denominator 2**k, k = 0..24)
    under three guarded policies; every dichotomy system, all three
    functions, at each t in [3, 4] with denominator at most 4.
    """
    from bmbounds.systems import ALL_CASES, CPolicy, build_case_system, build_dichotomy_systems

    rng = random.Random(20261019)
    for generator in (_random_system, _random_deep_system, _random_big_system):
        for _ in range(100):
            yield generator(rng)
    ts = sorted({F(3) + F(rng.randint(0, 2 ** (k + 1)), 2 ** k) for k in range(25) for _ in range(2)})
    for policy in (CPolicy(2, 1, 4), CPolicy(3, 1, 5), CPolicy(1, 1, 2)):
        for t in ts:
            for case in ALL_CASES:
                yield build_case_system(case, t, policy)
    for t in sorted({F(num, den) for den in range(1, 5) for num in range(3 * den, 4 * den + 1)}):
        for _, systems in build_dichotomy_systems(t):
            yield from systems


# Recorded while each Fourier-Motzkin row still carried a Fraction rhs and the
# witness was back-substituted in Fractions.
FM_CORPUS_SIZE = 1100
FM_CORPUS_DIGEST = "a4cdd8611763a936d25f0b3765bc6d53730cdce3c1637ffa55c8ff8405cb6798"


def test_fm_corpus_digest():
    """Every verdict, witness coordinate and Farkas entry over the corpus, pinned."""
    digest = hashlib.sha256()
    count = 0
    for system in _fm_corpus():
        res = fm_feasibility(system)
        witness = sorted(res.witness.items()) if res.witness is not None else None
        digest.update(repr((res.status, witness, res.farkas)).encode("ascii"))
        count += 1
    assert count == FM_CORPUS_SIZE
    assert digest.hexdigest() == FM_CORPUS_DIGEST


def _bounded_check(system):
    """``check_feasibility`` of ``system``, with every pivot run held to at
    most as many swaps as the split system has row bases: a least-index
    run never returns to a basis, so a run that cycled would fail here
    instead of running on.  Swaps are counted in both bodies, ``exactlp._swap``
    and ``reference._swap_n``."""
    n = len(system.variables) + sum(v not in system.nonneg for v in system.variables)
    m = len(system_rows(system)) + n - len(system.nonneg)
    swaps = []

    def counting(swap):
        def counted(*args):
            swaps.append(args)
            assert len(swaps) <= math.comb(m, n), "pivot run exceeds the number of row bases"
            return swap(*args)
        return counted

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactlp, "_swap", counting(exactlp._swap))
        patch.setattr(reference_mod, "_swap_n", counting(reference_mod._swap_n))
        return check_feasibility(system), len(swaps)


def _cross_check(system):
    """``check_feasibility`` gives the verdict of phase-1 simplex and of
    Fourier-Motzkin elimination, and a certificate that verifies: a Farkas
    vector with at most n + 1 nonzero entries, primitive integers, over the
    split variables (each free variable counts twice)."""
    res, swaps = _bounded_check(system)
    assert res.feasible == simplex_feasibility(system).feasible == fm_feasibility(system).feasible
    assert verify_certificate(system, res)
    if not res.feasible:
        support = [x for x in res.farkas if x]
        n = len(system.variables) + sum(v not in system.nonneg for v in system.variables)
        assert len(support) <= n + 1 and all(x.denominator == 1 for x in support)
        assert math.gcd(*map(int, support)) == 1
    return res, swaps


def test_pivot_agrees_over_the_fm_corpus():
    """Over the whole FM corpus, every pivot verdict is the simplex's and
    elimination's, and every certificate verifies."""
    feasible = swaps = 0
    for system in _fm_corpus():
        res, steps = _cross_check(system)
        feasible += res.feasible
        swaps += steps
    assert feasible == 542 and swaps == 3678


@st.composite
def degenerate_system(draw):
    """1-4 variables, some of them free, and 1-7 rows: rows through one
    rational point (several tight there), repeated rows, all-zero rows
    (0 <= negative among them) and random rows."""
    variables = [f"x{i}" for i in range(draw(st.integers(1, 4)))]
    small = st.integers(-3, 3)
    point = {v: F(draw(small), draw(st.integers(1, 3))) for v in variables}
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["through", "through", "repeat", "zero", "random"]))
        if kind == "repeat" and rows:
            rows.append(draw(st.sampled_from(rows)))
            continue
        coeffs = {} if kind == "zero" else {v: F(c) for v in variables if (c := draw(small))}
        rhs = (sum((c * point[v] for v, c in coeffs.items()), F(0)) if kind == "through"
               else F(draw(small)))
        rows.append((coeffs, draw(st.sampled_from([LE, GE])), rhs))
    return make(variables, rows, [v for v in variables if draw(st.booleans())])


@settings(max_examples=400, deadline=None)
@given(degenerate_system())
@example(make(["x", "y"], [({"x": F(1), "y": F(1)}, LE, 0), ({"x": F(1)}, GE, 0),
                            ({"x": F(1), "y": F(1)}, LE, 0), ({}, LE, F(-1))], ["y"]))
def test_pivot_agrees_on_degenerate_systems(system):
    _cross_check(system)


def _both_verdicts(system, result):
    """The verdicts of the integer and the Fraction verifier, an error as its text."""
    verdicts = []
    for verify in (verify_certificate, reference_verify_certificate):
        try:
            verdicts.append(verify(system, result))
        except SystemError_ as exc:
            verdicts.append(f"SystemError_: {exc}")
    return verdicts


def _perturbed(result, index, delta):
    """Single-entry edits of a certificate: witness coordinate ``index`` moved
    by +-delta; or Farkas entry ``index`` raised by |delta| or made negative,
    and the Farkas vector one entry short and one entry long."""
    if result.feasible:
        v = list(result.witness)[index]
        return [FeasibilityResult("feasible", witness={**result.witness, v: result.witness[v] + d})
                for d in (delta, -delta)]
    lam = list(result.farkas)
    edits = [lam[index] + abs(delta), -(lam[index] or abs(delta))]
    return [FeasibilityResult("infeasible", farkas=tuple(lam[:index] + [x] + lam[index + 1:]))
            for x in edits] + [FeasibilityResult("infeasible", farkas=tuple(lam[:-1])),
                               FeasibilityResult("infeasible", farkas=tuple(lam + [F(0)]))]


def test_integer_verifier_agrees_with_fraction_reference():
    """Over the whole FM corpus, the integer verifier and the Fraction one give
    the same verdict on every genuine certificate and on single-entry edits,
    and raise the same error on a Farkas vector of the wrong length."""
    rng = random.Random(20261020)
    rejected = raised = 0
    for trial, system in enumerate(_fm_corpus()):
        res = check_feasibility(system)
        assert _both_verdicts(system, res) == [True, True], f"system {trial}"
        size = len(res.witness) if res.feasible else len(res.farkas)
        if not size:
            continue
        index, delta = rng.randrange(size), F(rng.choice((1, -1)), rng.randint(1, 9))
        for edited in _perturbed(res, index, delta):
            ours, reference = _both_verdicts(system, edited)
            assert ours == reference, f"system {trial}: {edited}"
            rejected += ours is False
            raised += isinstance(ours, str)
    assert rejected >= 1500 and raised >= 1000


@st.composite
def rational_system(draw):
    """1-3 variables, some of them free, and 1-5 rows with p/q entries."""
    variables = [f"x{i}" for i in range(draw(st.integers(1, 3)))]
    entry = st.builds(F, st.integers(-4, 4), st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        coeffs = {v: draw(entry) for v in variables if draw(st.booleans())}
        rows.append((coeffs, draw(st.sampled_from([LE, GE])), draw(entry)))
    nonneg = [v for v in variables if draw(st.booleans())]
    return make(variables, rows, nonneg)


@given(rational_system(), st.integers(0, 10 ** 6), st.integers(-9, 9), st.integers(1, 9))
@settings(max_examples=300, deadline=None)
def test_integer_verifier_agrees_on_generated_systems(sys_, pick, num, den):
    res = check_feasibility(sys_)
    assert _both_verdicts(sys_, res) == [True, True]
    size = len(res.witness) if res.feasible else len(res.farkas)
    if size:
        for edited in _perturbed(res, pick % size, F(num or 1, den)):
            ours, reference = _both_verdicts(sys_, edited)
            assert ours == reference


COEFF = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@settings(max_examples=200, deadline=None)
@given(st.lists(COEFF, min_size=4, max_size=4).filter(any), st.sampled_from([LE, GE]), COEFF,
       st.integers(1, 12), st.integers(1, 6))
@example([F(-6, 5), F(0), F(3), F(1, 4)], GE, F(7, 3), 6, 2)  # scale 120, leading entry 144
@example([F(0), F(-4, 3), F(-2), F(0)], LE, F(-5, 2), 2, 3)  # scale 6, leading entry -8
@example([F(1), F(2), F(0), F(3)], LE, F(-5, 2), 1, 1)  # scale 1, direction already primitive
def test_base_row_is_the_row_system_rows_clears(coeffs, relation, rhs, k, common):
    """``base_row`` of a positive integer multiple of an inequality's <=-form is
    the base row ``system_rows`` clears from the inequality, and it keeps the
    format: a primitive direction, a reduced rhs pair with den > 0, p/q the
    absolute leading coefficient in lowest terms, and a positive multiple of
    the <=-form."""
    ineq = LinearInequality(dict(zip("wxyz", coeffs)), relation, rhs, "r")
    [expected] = system_rows(LinearSystem(tuple("wxyz"), (ineq,)))
    sign = -1 if relation == GE else 1
    scale = k * math.lcm(*[c.denominator for c in coeffs])
    row = exactlp.base_row([int(sign * scale * c) for c in coeffs], scale,
                           common * sign * scale * rhs.numerator, common * rhs.denominator)
    assert row == expected
    direction, num, den, q, p = row
    assert type(direction) is tuple  # ``pivot`` finds the nonneg rows by ``rows.index``
    lead = next(c for c in coeffs if c)
    assert math.gcd(*direction) == 1 and den > 0 and math.gcd(num, den) == 1
    assert math.gcd(p, q) == 1 and F(p, q) == abs(lead)
    factor = F(direction[coeffs.index(lead)]) / (sign * lead)
    assert factor > 0
    assert list(direction) == [factor * sign * c for c in coeffs]
    assert F(num, den) == factor * sign * rhs


# Policies whose guards hold at both ends of the bracket [3, 5], hence on all of it.
GUARDED_POLICIES = [policy for policy in itertools.starmap(
                        CPolicy, itertools.product(range(0, 5), range(-3, 5), range(1, 9)))
                    if all(1 < policy.c_at(t) and t / 2 <= policy.c_at(t) <= t for t in (3, 5))]
BRACKET_T = st.fractions(min_value=3, max_value=5, max_denominator=256)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(GUARDED_POLICIES), st.sampled_from(ALL_CASES), st.sampled_from(list(Variant)),
       BRACKET_T, st.fractions(min_value=-F(1, 4), max_value=F(1, 4), max_denominator=256),
       st.lists(st.integers(0, 20), min_size=1, max_size=6, unique=True))
# Rows whose directions have a one-dimensional kernel of mixed sign whose
# combined rhs is negative, in a feasible system.
@example(CPolicy(0, 3, 1), JCase.IN01_NOT2, Variant.SYMMETRIZED, F(1043, 256), F(0), [3, 4, 5, 7, 9])
def test_warm_verdicts_agree_with_pivot(policy, case, variant, t, step, picks):
    """A basis or the n + 1 rows a pivot run ends at at a neighbouring t, or
    a random set of rows: whenever ``infeasible_on`` or ``feasible_at``
    accepts it at t, a pivot run from the origin gives the same verdict.
    At its own t, what a run ends at is always accepted, with the run's
    weights up to a positive factor, or at the run's vertex."""
    rows = case_rows(case, case_point(t, policy), variant)
    feasible = exactlp.pivot(rows)[0]
    near = case_rows(case, case_point(min(max(t + step, F(3)), F(5)), policy), variant)
    near_feasible, found, cert = exactlp.pivot(near)
    if near_feasible:
        xs, D = exactlp.feasible_at(near, found)
        assert [F(x, D) for x in xs] == [F(x, cert[1]) for x in cert[0]]
    else:
        y = exactlp.infeasible_on(near, found)
        assert len(found) == len(VARIABLES) + 1 and y
        k = cert.index(max(cert))  # the entering row's weight, never 0
        assert all(a * cert[k] == b * y[k] for a, b in zip(y, cert)) and y[k] > 0
    for candidate in (found, sorted({i % len(rows) for i in picks})):
        if exactlp.infeasible_on(rows, candidate):
            assert not feasible
        if exactlp.feasible_at(rows, candidate):
            assert feasible


# Signed maximal minors against a Gauss-Jordan reference.

def _cofactor_det(m):
    """The determinant of a square matrix by cofactor expansion along its first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _cofactor_det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)) if m[0][j])


def _kernel(matrix):
    """A basis of the kernel of a matrix, by Gauss-Jordan elimination over Fractions."""
    m = [[F(x) for x in row] for row in matrix]
    pivots = []
    for c in range(len(m[0])):
        r = len(pivots)
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i, row in enumerate(m):
            if i != r and row[c]:
                m[i] = [x - row[c] * y for x, y in zip(row, m[r])]
        pivots.append(c)
    basis = []
    for f in (f for f in range(len(m[0])) if f not in pivots):
        z = [F(0)] * len(m[0])
        z[f] = F(1)
        for row, c in zip(m, pivots):
            z[c] = -row[f]
        basis.append(z)
    return basis


def _reference_infeasible_on(rows, support):
    """The kernel vector of the support's directions, 1 at its free column,
    if it proves the rows infeasible; else None."""
    kernel = _kernel(list(zip(*[rows[i][0] for i in support])))
    if len(kernel) != 1:
        return None
    z = kernel[0]
    ok = min(z) >= 0 and sum(y * F(rows[i][1], rows[i][2]) for y, i in zip(z, support)) < 0
    return z if ok else None


def _reference_feasible_at(rows, basis):
    """The point where the basis rows are tight, if it is one and satisfies the rows; else None."""
    kernel = _kernel([list(rows[i][0]) + [-F(rows[i][1], rows[i][2])] for i in basis])
    if len(kernel) != 1 or not kernel[0][-1]:
        return None
    x = [v / kernel[0][-1] for v in kernel[0][:-1]]
    ok = all(sum(a * b for a, b in zip(vec, x)) <= F(num, den) for vec, num, den, _, _ in rows)
    return x if ok else None


ENTRY = st.one_of(st.integers(-3, 3), st.integers(-2 ** 80, 2 ** 80))


@st.composite
def kernel_rows(draw, sizes=st.integers(1, 5)):
    """n + 1 rows (vec, num, den, 1, 1) over n variables, whose directions
    are random, have a nonnegative kernel vector, or have rank below n."""
    n = draw(sizes)
    kind = draw(st.sampled_from(["random", "one-signed", "rank-deficient"]))
    vecs = [draw(st.lists(ENTRY, min_size=n, max_size=n)) for _ in range(n + (kind == "random"))]
    if kind == "one-signed":  # the last direction is minus a positive combination of the others
        w = draw(st.lists(st.integers(1, 2 ** 80), min_size=n, max_size=n))
        vecs.append([-sum(a * v[j] for a, v in zip(w, vecs)) for j in range(n)])
    elif kind == "rank-deficient":  # the last `drop` coordinates combine the others
        vecs.append(draw(st.lists(ENTRY, min_size=n, max_size=n)))
        drop = draw(st.integers(1, n))
        w = draw(st.lists(ENTRY, min_size=n - drop, max_size=n - drop))
        for v in vecs:
            for j in range(n - drop, n):
                v[j] = sum(a * b for a, b in zip(w, v)) * (j - n + drop + 1)
    rhs = draw(st.lists(st.tuples(ENTRY, st.one_of(st.integers(1, 5), st.integers(1, 2 ** 80))),
                        min_size=n + 1, max_size=n + 1))
    return [(tuple(v), num, den, 1, 1) for v, (num, den) in zip(vecs, rhs)]


_MIXED = case_rows(JCase.IN01_NOT2, case_point(F(1043, 256), CPolicy(0, 3, 1)), Variant.SYMMETRIZED)


@pytest.mark.parametrize("ring", [int, F], ids=["int", "Fraction"])
@settings(max_examples=300, deadline=None)
@given(kernel_rows(st.just(4)))
@example([_MIXED[i] for i in (3, 4, 5, 7, 9)])
def test_signed_minors_are_the_cofactor_expansion(ring, rows):
    """Exactly, each with its cofactor's sign, on integer vectors and on the
    same vectors with row k and coordinate j divided by (k + 2)(j + 3), which
    keeps the rank: ``_signed_minors`` may use only +, - and *, so no floor
    division or int-only builtin; and they stand for the kernel exactly
    when it is one-dimensional."""
    vecs = [list(vec) for vec, _, _, _, _ in rows]
    if ring is F:
        vecs = [[F(x, (k + 2) * (j + 3)) for j, x in enumerate(vec)] for k, vec in enumerate(vecs)]
    cofactors = [(-1) ** k * _cofactor_det(vecs[:k] + vecs[k + 1:]) for k in range(5)]
    assert exactlp._signed_minors(vecs) == cofactors
    assert (not any(exactlp._signed_minors(vecs))) == (len(_kernel(list(zip(*vecs)))) != 1)


def _pivot_end_rows(policy, case, variant, t, step):
    """The n + 1 rows, at t, that an infeasible pivot run at the neighbouring
    t + step (kept in [3, 5]) ends on; None if that run is feasible."""
    near = case_rows(case, case_point(min(max(t + step, F(3)), F(5)), policy), variant)
    feasible, found, _ = exactlp.pivot(near)
    if feasible:
        return None
    rows = case_rows(case, case_point(t, policy), variant)
    return [rows[i] for i in found]


@st.composite
def pivot_end_rows(draw):
    """The rows of ``_pivot_end_rows`` at a guarded policy and a t in [3, 5]."""
    rows = _pivot_end_rows(draw(st.sampled_from(GUARDED_POLICIES)), draw(st.sampled_from(ALL_CASES)),
                           draw(st.sampled_from(list(Variant))), draw(BRACKET_T),
                           draw(st.fractions(min_value=-F(1, 4), max_value=F(1, 4), max_denominator=256)))
    assume(rows is not None)
    return rows


@settings(max_examples=500, deadline=None)
@given(st.one_of(kernel_rows(st.one_of(st.just(4), st.integers(1, 5))), pivot_end_rows()))
# The warm-verdict example above: one-dimensional kernel, mixed sign, negative combined rhs.
@example([_MIXED[i] for i in (3, 4, 5, 7, 9)])
# Five rows a pivot run ends on, whose kernel at t weighs a row of weight 0 in
# that run: one-signed, with a negative combined rhs, so they prove infeasibility.
@example(_pivot_end_rows(CPolicy(4, 0, 8), JCase.J012, Variant.PRINTED, F(407, 128), F(-25, 128)))
def test_minor_verdicts_agree_with_gauss_jordan(rows):
    """``infeasible_on`` on all n + 1 rows and ``feasible_at`` on the first n
    accept exactly when the Fraction Gauss-Jordan reference does, for n = 4;
    the weights they accept with are the reference kernel vector times a
    positive factor, and the vertex is the reference point.  For any other n
    they return None, without raising.  The rows are random, or the rows an
    infeasible pivot run at a neighbouring t ends on, re-checked at t."""
    n = len(rows) - 1
    y, z = exactlp.infeasible_on(rows, range(n + 1)), _reference_infeasible_on(rows, range(n + 1))
    vertex, x = exactlp.feasible_at(rows, range(n)), _reference_feasible_at(rows, range(n))
    if n != 4:
        assert y is None and vertex is None
        return
    assert (y is None) == (z is None)
    if y is not None:
        factor = F(y[z.index(1)])
        assert factor > 0 and [F(x) for x in y] == [factor * x for x in z]
    assert (vertex is None) == (x is None)
    if vertex is not None:
        xs, D = vertex
        assert D > 0 and [F(v, D) for v in xs] == x


def _unit(j, sign, n=4):
    return tuple([sign * int(i == j) for i in range(n)])


_NONNEG = [(_unit(j, -1), 0) for j in range(4)]


def _base(vec, rhs):
    """The base row vec . x <= rhs, rhs an int or a Fraction, with p = q = 1."""
    rhs = F(rhs)
    return vec, rhs.numerator, rhs.denominator, 1, 1


@pytest.mark.parametrize("rows, verdict, weights", [
    ([((1, 1, 1, 1), -1), *_NONNEG], [0, 1, 2, 3, 4], [1, 1, 1, 1, 1]),
    ([((1, 1, 1, 1), -1), (_unit(0, -1), F(2, 3)), *_NONNEG[1:]], [0, 1, 2, 3, 4], [1, 1, 1, 1, 1]),
    ([((1, 1, 1, 0), -1), *_NONNEG], [0, 1, 2, 3, 4], [1, 1, 1, 1, 0]),
    ([((1, 1, 1, 2), -1), *_NONNEG], [0, 1, 2, 3, 4], [1, 1, 1, 1, 2]),
    ([((1, 1, 1, 1), -1), *_NONNEG[:3], (_unit(3, 1), 0)], [0, 1, 2, 3, 4], None),
    ([((1, 1, 1, 1), 0), *_NONNEG], [0, 1, 2, 3, 4], None),
    ([((1, 1, 1, 1), 1), *_NONNEG], [0, 1, 2, 3, 4], None),
    ([((1, 1, 1, 0), -1), *_NONNEG[:3], (_unit(0, 1), 0)], [0, 1, 2, 3, 4], None),
    ([((1, 1, 1, 1), -1), *_NONNEG], [0, 1, 2, 3], None),
    ([((1, 1, 1, 1), -1), *_NONNEG, ((1, 0, 0, 0), 1)], [0, 1, 2, 3, 4, 5], None),
    ([((1, 1, 1), -1), *[(_unit(j, -1, 3), 0) for j in range(3)]], [0, 1, 2, 3], None),
    ([((1, 1, 1), -1), *[(_unit(j, -1, 3), 0) for j in range(3)], ((1, 0, 0), 1)], [0, 1, 2, 3, 4],
     None),
    ([((1, 1, 1, 1), -1), *_NONNEG], None, None),
    ([_NONNEG[0], ((1, 1, 1, 1), -1), *_NONNEG[1:]], [0, 1, 2, 3, 4], [1, 1, 1, 1, 1]),
], ids=["accepted", "lcm of the denominators", "zero weight", "weight on the last row", "mixed sign",
        "zero rhs", "positive rhs", "rank below 4", "four rows", "six rows", "three variables",
        "five rows over three variables", "no verdict", "negative minors"])
def test_infeasible_on_rules(rows, verdict, weights):
    """``infeasible_on`` accepts five rows over four variables exactly when
    their kernel is of one sign and combines the right-hand sides into a
    negative number, with the weights on all five up to a positive factor, a
    zero weight included; any other shape gives None.  The right-hand sides
    are summed over their denominators: the lcm case sums to -1 + 2/3 < 0,
    but to -1 + 2 > 0 with the denominators dropped.  Below rank 4 the
    signed minors are all zero and so is the combined rhs, which is not
    negative.  With the first two rows swapped the signed minors are all
    negative, and are taken with the opposite sign."""
    y = exactlp.infeasible_on([_base(vec, rhs) for vec, rhs in rows], verdict)
    if weights is None:
        assert y is None
    else:
        assert y[0] > 0 and [F(x, y[0]) for x in y] == weights


# x0 <= 1/2 and x1 <= 1, tight with x2 = x3 = 0 at the vertex (1/2, 1, 0, 0).
_TIGHT = [((1, 0, 0, 0), F(1, 2)), ((0, 1, 0, 0), 1)]


@pytest.mark.parametrize("rows, basis, vertex", [
    ([*_TIGHT, ((1, 1, 0, 0), 2), *_NONNEG], [1, 0, 5, 6], ([1, 2, 0, 0], 2)),
    ([*_TIGHT, ((1, 1, 0, 0), 2), *_NONNEG], None, None),
    ([*_TIGHT, ((1, 1, 0, 0), 2), *_NONNEG], [], None),
    ([*_TIGHT, ((1, 1, 0, 0), 2), *_NONNEG], [1, 0, 5], None),
    ([*_TIGHT, ((1, 1, 0, 0), 2), *_NONNEG], [1, 0, 5, 6, 3], None),
    ([((1, 0, 0), F(1, 2)), ((0, 1, 0), 1), ((-1, 0, 0), 0), ((0, 0, -1), 0)], [0, 1, 2, 3], None),
    ([_TIGHT[0], ((1, 0, 0, 0), 1), *_NONNEG], [1, 0, 4, 5], None),
    ([*_TIGHT, ((1, 1, 0, 0), F(4, 3)), *_NONNEG], [1, 0, 5, 6], None),
    ([((1, 0, 0, 0), -1), _TIGHT[1], ((1, 1, 0, 0), 2), *_NONNEG], [1, 0, 5, 6], None),
], ids=["accepted", "no basis", "empty basis", "three rows", "five rows", "three variables",
        "singular", "violates a table row", "violates a nonneg row"])
def test_feasible_at_rules(rows, basis, vertex):
    """``feasible_at`` accepts four rows over four variables exactly when
    they are independent and the point where they are tight satisfies every
    row, the nonneg rows included, and returns it as (xs, D), D > 0: the
    accepted basis has a row of denominator 2, and its determinant is
    negative before it is normalised.  The singular basis has a kernel
    generator, the ray along x1, that satisfies every row with D = 0.  The
    violated table row, x0 + x1 <= 4/3, is read as 3 * (1 + 2) > 4 * 2: with
    its denominator left out of the lhs, 1 + 2 <= 4 * 2 would hold."""
    assert exactlp.feasible_at([_base(vec, rhs) for vec, rhs in rows], basis) == vertex


def test_infeasible_on_rejects_a_kernel_that_does_not_cancel(monkeypatch):
    """Should ``_signed_minors`` return a one-signed vector that does not
    cancel every variable, ``infeasible_on`` rejects it, though it gives a
    negative combined rhs."""
    rows = [(vec, num, 1, 1, 1) for vec, num in [((1, 1, 1, 1), -1), *_NONNEG]]
    assert exactlp.infeasible_on(rows, [0, 1, 2, 3, 4])
    monkeypatch.setattr(exactlp, "_signed_minors", lambda vecs: [1, 1, 1, 1, 2])
    assert exactlp.infeasible_on(rows, [0, 1, 2, 3, 4]) is None


# The width-4 body of ``pivot`` against the generic body, ``_pivot_n``.

def _bodies(rows):
    """The (triple, swaps) of ``pivot`` on ``rows`` and of the generic body,
    ``_pivot_n`` with its swaps made by ``_swap_n``: each swap is recorded
    as (D, k, lam), so the two runs must agree step by step."""
    runs = []
    for body, module, name in ((exactlp.pivot, exactlp, "_swap"),
                               (reference_mod._pivot_n, reference_mod, "_swap_n")):
        swaps, swap = [], getattr(module, name)

        def recording(cols, D, k, lam, swap=swap):
            swaps.append((D, k, list(lam)))
            return swap(cols, D, k, lam)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, name, recording)
            runs.append((body(rows), swaps))
    return runs


@st.composite
def case_pivot_inputs(draw):
    """The case rows of a guarded policy, variant and case at t in [3, 5]."""
    policy, case = draw(st.sampled_from(GUARDED_POLICIES)), draw(st.sampled_from(ALL_CASES))
    variant, t = draw(st.sampled_from(list(Variant))), draw(BRACKET_T)
    return case_rows(case, case_point(t, policy), variant)


def _assignment_rows(policy, case, variant, t, functions, branches):
    """A dichotomy assignment's rows at t: the case's table rows, the branch
    rows of ``functions`` and ``branches``, then the nonneg rows."""
    point = case_point(t, policy)
    base, cut = case_rows(case, point, variant), len(CASE_TABLES[case])
    return base[:cut] + [BRANCH_ROWS[m, br].make(point) for m, br in zip(functions, branches)] + base[cut:]


@st.composite
def assignment_pivot_inputs(draw):
    """A dichotomy assignment's rows at a guarded policy and t in [3, 4]."""
    policy, case = draw(st.sampled_from(GUARDED_POLICIES)), draw(st.sampled_from(ALL_CASES))
    variant = draw(st.sampled_from(list(Variant)))
    t = draw(st.fractions(min_value=3, max_value=4, max_denominator=256))
    functions = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
    branches = draw(st.lists(st.sampled_from("ab"), min_size=len(functions), max_size=len(functions)))
    return _assignment_rows(policy, case, variant, t, functions, branches)


@st.composite
def degenerate_pivot_inputs(draw):
    """Base rows over four variables, the four nonneg rows among them in a
    drawn order: rows through one rational point, repeated rows, rows
    dependent on two earlier ones, zero-direction rows with a negative rhs
    and random rows."""
    small = st.integers(-3, 3)
    point = [F(draw(small), draw(st.integers(1, 3))) for _ in range(4)]
    table = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["through", "through", "repeat", "dependent", "zero", "random"]))
        if kind in ("repeat", "dependent") and len(table) < 2:
            kind = "random"
        if kind == "repeat":
            table.append(draw(st.sampled_from(table)))
            continue
        if kind == "zero":
            rhs = F(-draw(st.integers(1, 3)), draw(st.integers(1, 3)))
            table.append(((0, 0, 0, 0), rhs.numerator, rhs.denominator, 1, 1))
            continue
        if kind == "dependent":
            (u, un, ud, _, _), (v, vn, vd, _, _) = draw(st.permutations(table))[:2]
            vec, rhs = [a + b for a, b in zip(u, v)], F(un, ud) + F(vn, vd)
        else:
            vec = [draw(small) for _ in range(4)]
            rhs = (sum((a * x for a, x in zip(vec, point)), F(0)) if kind == "through"
                   else F(draw(small), draw(st.integers(1, 3))))
        if not any(vec):
            continue
        table.append(exactlp.base_row(vec, 1, rhs.numerator, rhs.denominator))
    nonneg = [(_unit(j, -1), 0, 1, 1, 1) for j in range(4)]
    return draw(st.permutations(table + nonneg))


_RULE_ROWS = {
    # x0 + x1 + x2 + x3 >= 1 and x1 >= 1, both violated at the origin.
    "entering": [((-1, -1, -1, -1), -1), (_unit(1, -1), -1), *_NONNEG],
    # x0 + x1 + x3 >= 1, with the nonneg rows of x2, x3, x0, x1 at rows 1-4:
    # basis positions 0, 1, 3 hold rows 3, 4, 2, and all three leave-eligible.
    "leaving": [((-1, -1, 0, -1), -1), _NONNEG[2], _NONNEG[3], _NONNEG[0], _NONNEG[1]],
    # x0 + x1 <= -1: no coefficient positive, weight 0 on the x2 and x3 rows.
    "infeasible": [((1, 1, 0, 0), -1), *_NONNEG],
}


@settings(max_examples=400, deadline=None)
@given(st.one_of(case_pivot_inputs(), assignment_pivot_inputs(), degenerate_pivot_inputs()))
# A dichotomy assignment of a plain-feasible case.
@example(_assignment_rows(CPolicy(1, 0, 2), JCase.J012, Variant.SYMMETRIZED, F(15, 4), (1, 2), "ab"))
# A repeated row, a zero row with a negative rhs and a row dependent on the first two.
@example([_base((1, 1, 0, 0), 2), _base((1, 1, 0, 0), 2), _base((0, 1, 1, 0), 1), _base((1, 2, 1, 0), 3),
          _base((0, 0, 0, 0), F(-1, 2)), *[_base(vec, rhs) for vec, rhs in _NONNEG]])
@example([_base(vec, rhs) for vec, rhs in _RULE_ROWS["leaving"]])
def test_width4_body_agrees_with_the_generic_body(rows):
    """On rows over four variables, ``pivot``'s width-4 body returns the
    generic body's (flag, basis, cert) and makes the same swaps, (D, k,
    lam) each: on case rows at t in [3, 5], on dichotomy assignment rows
    and on degenerate row sets."""
    (fast, fast_swaps), (generic, generic_swaps) = _bodies(rows)
    assert fast == generic
    assert fast_swaps == generic_swaps


@pytest.mark.parametrize("name, expected", [
    ("entering", (True, [0, 1, 4, 5], ([0, 1, 0, 0], 1))),
    ("leaving", (True, [3, 4, 1, 0], ([0, 0, 0, 1], 1))),
    ("infeasible", (False, [0, 1, 2, 3, 4], [1, 1, 1, 0, 0])),
], ids=["entering", "leaving", "infeasible"])
def test_pivot_rules(name, expected):
    """Both bodies follow one set of rules.  The first violated row enters
    (x0 + x1 + x2 + x3 >= 1 before x1 >= 1; taking x1 >= 1 first would end
    at once at [2, 1, 4, 5]).  The leaving row is the least row index among
    positive coefficients, not the least position (row 2 at position 3,
    where position order gives row 3 and the highest index row 4).  An
    infeasible run weighs the entering row by D and each basis row by minus
    its coefficient, 0 included."""
    rows = [_base(vec, rhs) for vec, rhs in _RULE_ROWS[name]]
    for triple, _ in _bodies(rows):
        assert triple == expected


def test_exactlp_holds_the_width_4_body_alone():
    """``exactlp`` defines neither generic body and imports no ``operator``,
    and neither ``pivot`` nor ``_swap`` calls ``len``: neither tests a
    width.  The generic bodies live in ``reference``."""
    tree = ast.parse(Path(exactlp.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {"pivot", "_swap"} <= set(functions) and not {"_pivot_n", "_swap_n"} & set(functions)
    assert not hasattr(exactlp, "_pivot_n") and not hasattr(exactlp, "_swap_n")
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert "operator" not in {alias.name for node in imports for alias in node.names}
    assert "operator" not in {node.module for node in imports if isinstance(node, ast.ImportFrom)}
    for name in ("pivot", "_swap"):
        assert "len" not in {node.func.id for node in ast.walk(functions[name])
                             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


_XY = ("x", "y")


@pytest.mark.parametrize("system, body, result", [
    (reference_mod.build_case_system(JCase.J012, F(113, 32)), "pivot", None),
    (make(_XY, [({"x": F(2), "y": F(3)}, LE, 6), ({"x": F(1), "y": F(-1)}, GE, 1)], nonneg=_XY), "_pivot_n",
     FeasibilityResult("feasible", witness={"x": F(1), "y": F(0)})),
    (make(_XY, [({"x": F(1), "y": F(1)}, LE, -1)], nonneg=_XY), "_pivot_n",
     FeasibilityResult("infeasible", farkas=(F(1), F(1), F(1)))),
    (make(["x", "y", "z", "w"], [({"x": F(1), "y": F(1)}, GE, 2), ({"w": F(1)}, LE, -3),
                                 ({"x": F(1), "w": F(1), "z": F(-1)}, GE, 1)], nonneg=("x", "y", "z")), "_pivot_n",
     FeasibilityResult("feasible", witness={"x": F(4), "y": F(0), "z": F(0), "w": F(-3)})),
    (make(["x", "y", "z"], [({"x": F(1), "y": F(1)}, GE, 2), ({"z": F(1)}, LE, -3),
                            ({"x": F(1), "z": F(1)}, GE, 1)], nonneg=_XY), "pivot",
     FeasibilityResult("feasible", witness={"x": F(4), "y": F(0), "z": F(-3)})),
], ids=["case-system", "two-variables", "two-variables-infeasible", "four-variables-one-free",
        "three-variables-one-free"])
def test_check_feasibility_picks_the_body_by_split_width(monkeypatch, system, body, result):
    """``check_feasibility`` decides split rows over four variables with
    ``exactlp.pivot``, as a case system's, and rows of any other width with
    ``reference._pivot_n``: a two-variable system, or four variables one of
    which is free (split width 5).  Three variables with one free split into
    four columns and run ``exactlp.pivot``.  Each runs one body once and
    gives the pinned result; the case system's (None) is the one
    ``certify_at`` reports."""
    from bmbounds.certify import certify_at

    if result is None:
        result = certify_at(F(113, 32)).results[JCase.J012]
    assert reference_mod.pivot is exactlp.pivot
    runs = []
    for name in ("pivot", "_pivot_n"):
        def recording(rows, name=name, run=getattr(reference_mod, name)):
            runs.append(name)
            return run(rows)
        monkeypatch.setattr(reference_mod, name, recording)
    assert check_feasibility(system) == result
    assert runs == [body]
