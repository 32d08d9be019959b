from dataclasses import replace

import numpy as np
import pytest

import infodist as inf
from infodist import PLAYER1, PLAYER2, distance, lp
from infodist.config import DIST_TOL, LP_TOL, WITNESS_TOL
from infodist.config import ZERO_TOL
from infodist.distance import _gap_pattern, _gap_problem, _solve_gap
from infodist.errors import NumericalFailure
from infodist.games import guarantee
from infodist.structures import ConditionalQuery, common_embedding, eps_conditional_independence

import gap_oracle
from conftest import random_ci_structure, random_garbling, random_structure


def test_gap_zero_on_equal_structures(rng):
    u = random_structure(rng, 2, 3, 2)
    cert = inf.one_sided_gap(u, u)
    assert cert.gap <= 1e-9
    assert cert.recheck(u, u) <= 1e-7


def test_canonical_examples_one_sided_gaps():
    cat = inf.canonical_examples()
    up = inf.one_sided_gap(cat["u1"], cat["u2"])
    assert up.gap == pytest.approx(0.5, abs=1e-7)
    assert up.recheck(cat["u1"], cat["u2"]) == pytest.approx(up.gap, abs=1e-7)
    down = inf.one_sided_gap(cat["u2"], cat["u1"])
    assert down.gap <= 1e-7


def test_canonical_examples_distances():
    cat = inf.canonical_examples()
    assert inf.value_distance(cat["u1"], cat["u2"]) == pytest.approx(0.5, abs=1e-6)
    assert inf.value_distance(cat["u1"], cat["u2prime"]) == pytest.approx(1.0, abs=1e-6)


def test_certificate_recheck_random(rng):
    for _ in range(10):
        u = random_structure(rng, 2, 3, 2)
        v = random_structure(rng, 2, 2, 3)
        cert = inf.one_sided_gap(u, v)
        assert cert.recheck(u, v) == pytest.approx(cert.gap, abs=1e-7)


def test_witness_attains_a_positive_gap_to_a_garbling(rng):
    # w garbles u's player-1 signal strictly, so player 1 loses in some game
    # moving from u to w: the gap from w to u is positive.
    u = random_structure(rng, 2, 3, 2)
    w = inf.garble(u, PLAYER1, inf.Garbling([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]))
    gap = inf.one_sided_gap(w, u).gap
    assert gap > 10 * DIST_TOL
    g = inf.witness_game(w, u)
    w_emb, u_emb = common_embedding(w, u)
    achieved = inf.value(u_emb, g).value - inf.value(w_emb, g).value
    assert achieved == pytest.approx(gap, abs=WITNESS_TOL)


def test_witness_canonical_examples():
    cat = inf.canonical_examples()
    g = inf.witness_game(cat["u1"], cat["u2"])
    u_emb, v_emb = common_embedding(cat["u1"], cat["u2"])
    achieved = inf.value(v_emb, g).value - inf.value(u_emb, g).value
    assert achieved == pytest.approx(0.5, abs=1e-5)
    assert np.abs(g.payoffs).max() <= 1.0


def test_witness_recheck_random(rng):
    for _ in range(15):
        u = random_structure(rng, 2, 3, 3)
        v = random_structure(rng, 2, 3, 2)
        gap = inf.one_sided_gap(u, v).gap
        g = inf.witness_game(u, v)
        u_emb, v_emb = common_embedding(u, v)
        achieved = inf.value(v_emb, g).value - inf.value(u_emb, g).value
        assert achieved == pytest.approx(gap, abs=1e-5)


def test_witness_solves_the_gap_lp_once(rng, solve_rows):
    # One gap solve gives the target gap, the witness and the garblings that
    # bound the witness's bracket from above; the bracket needs no LP.
    u = random_structure(rng, 2, 3, 3)
    v = random_structure(rng, 2, 3, 2)
    inf.witness_game(u, v)
    assert solve_rows == [3 * 3 + 2 * 3]


def test_calls_on_the_same_pair_share_one_gap_solve(rng, solve_rows):
    u = random_structure(rng, 2, 3, 3)
    v = random_structure(rng, 2, 3, 2)
    d = inf.value_distance(u, v)
    inf.witness_game(u, v)
    ok, better_cert = inf.is_better(u, v)
    cert = inf.one_sided_gap(u, v)
    # (c,e) rows for u's player-1 signals x v's, then (d,f) rows for v's
    # player-2 signals x u's.
    gap_uv = 3 * 3 + 2 * 3
    gap_vu = 3 * 3 + 3 * 2
    assert solve_rows == [gap_uv, gap_vu]
    assert ok == (cert.gap <= DIST_TOL)
    assert d >= cert.gap
    # Every caller shares the cached solution, so it is read-only.
    sol = _solve_gap(u, v).solution
    assert not sol.primal.flags.writeable and not sol.dual.flags.writeable
    # The certificate is built once per solve and shared the same way.
    assert inf.one_sided_gap(u, v) is cert
    assert better_cert is (cert if ok else None)
    assert len(solve_rows) == 2


def test_distances_build_no_garbling(rng, monkeypatch, solve_rows):
    # value_distance and single_agent_distance read the memoised gaps only;
    # the garblings are built when a certificate is asked for, once.
    built = []
    post_init = inf.Garbling.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(inf.Garbling, "__post_init__", counting_post_init)
    u = random_structure(rng, 2, 3, 3, zeros=0.2)
    v = random_structure(rng, 2, 3, 2, zeros=0.2)
    d = inf.value_distance(u, v)
    d1 = inf.single_agent_distance(u, v)
    assert inf.single_agent_distance(u, v) == d1
    assert built == []
    assert len(solve_rows) == 4
    cert = inf.one_sided_gap(u, v)
    back = inf.one_sided_gap(v, u)
    assert len(built) == 4
    assert inf.one_sided_gap(u, v) is cert and inf.one_sided_gap(v, u) is back
    assert len(built) == 4 and len(solve_rows) == 4
    assert d == max(cert.gap, back.gap)
    assert d1 <= d + DIST_TOL


def test_gap_memo_is_keyed_on_identity(rng, solve_rows):
    u = random_structure(rng, 2, 3, 3)
    v = random_structure(rng, 2, 3, 2)
    cert = inf.one_sided_gap(u, v)
    again = inf.one_sided_gap(inf.validate_structure(u.probs.copy()), v)
    assert solve_rows == [15, 15]
    assert again.gap == pytest.approx(cert.gap, abs=1e-12)


def test_mismatched_state_counts_raise_and_solve_nothing(rng, solve_rows):
    # Both pairs have two player-2 signals a side, so the collapse test
    # reads the state counts too.
    u = random_structure(rng, 2, 3, 2)
    v = random_structure(rng, 3, 2, 2)
    distance._gap_memo.clear()
    calls = (inf.value_distance, inf.one_sided_gap, inf.witness_game, inf.single_agent_distance, inf.is_better, inf.dnzs)
    for call in calls:
        for a, b in ((u, v), (v, u)):
            with pytest.raises(inf.ShapeMismatch, match="state counts differ"):
                call(a, b)
    assert solve_rows == [] and distance._gap_memo == {}


def test_gap_memo_does_not_keep_failures(rng, monkeypatch):
    u = random_structure(rng, 2, 3, 3)
    v = random_structure(rng, 2, 3, 2)
    calls = []
    solve = lp.solve

    def fail_first(problem):
        calls.append(problem.n_rows)
        if len(calls) == 1:
            raise NumericalFailure("injected")
        return solve(problem)

    monkeypatch.setattr(lp, "solve", fail_first)
    with pytest.raises(NumericalFailure):
        inf.one_sided_gap(u, v)
    cert = inf.one_sided_gap(u, v)
    assert calls == [15, 15]
    assert cert.recheck(u, v) == pytest.approx(cert.gap, abs=DIST_TOL)


@pytest.mark.parametrize("status", [lp.INFEASIBLE, lp.UNBOUNDED])
def test_a_gap_solve_that_is_not_optimal_raises_and_is_not_kept(rng, monkeypatch, status):
    u = random_structure(rng, 2, 3, 3)
    v = random_structure(rng, 2, 3, 2)
    monkeypatch.setattr(lp, "solve", lambda problem: lp.LpSolution(status))
    with pytest.raises(NumericalFailure, match=f"gap LP ended with status {status}"):
        inf.one_sided_gap(u, v)
    assert distance._recall(u, v) is None


def _dense_pairs(seed, signals=range(5, 10)):
    rng = np.random.default_rng(seed)
    return [(random_structure(rng, 4, n, n), random_structure(rng, 4, n, n)) for n in signals]


def _bits(x):
    return np.float64(x).tobytes()


def test_paired_distance_is_the_max_of_the_serial_gaps(solve_rows, two_cpus):
    # K=4, L=5..9: value_distance solves both directions as one pair; the
    # gaps then come from the pair's memo entries without another solve,
    # and solved again one at a time they are the same bits.
    for u, v in _dense_pairs(20261025):
        d = inf.value_distance(u, v)
        paired = (inf.one_sided_gap(u, v).gap, inf.one_sided_gap(v, u).gap)
        assert len(solve_rows) == 2
        distance._gap_memo.clear()
        serial = (inf.one_sided_gap(u, v).gap, inf.one_sided_gap(v, u).gap)
        assert len(solve_rows) == 4
        assert _bits(d) == _bits(max(serial))
        assert list(map(_bits, paired)) == list(map(_bits, serial))
        solve_rows.clear()


@pytest.mark.parametrize("failing", [0, 1])
def test_a_failed_direction_of_a_pair_is_not_kept(monkeypatch, two_cpus, failing):
    # A NumericalFailure in either direction of a paired solve keeps
    # nothing for that direction, leaves no helper running, and the
    # next call solves again and gets the serial answer.
    u, v = _dense_pairs(20261026, [6])[0]
    want = max(inf.one_sided_gap(u, v).gap, inf.one_sided_gap(v, u).gap)
    distance._gap_memo.clear()
    calls, handoffs = [], []
    solve, handoff = lp.solve, lp._Handoff

    class KeptHandoff(handoff):
        def __init__(self, problem):
            handoffs.append(self)
            super().__init__(problem)

    def fail_once(problem):
        calls.append(problem)
        if len(calls) == failing + 1:
            raise NumericalFailure("injected")
        return solve(problem)

    monkeypatch.setattr(lp, "_Handoff", KeptHandoff)
    monkeypatch.setattr(lp, "solve", fail_once)
    with pytest.raises(NumericalFailure, match="injected"):
        inf.value_distance(u, v)
    failed = (u, v) if failing == 0 else (v, u)
    assert distance._recall(*failed) is None
    # The caller waited for the helper's run before raising.
    assert len(handoffs) == 1 and handoffs[0]._result is not None
    assert lp._THREAD.handoff is None and not handoffs[0].is_alive()
    assert _bits(inf.value_distance(u, v)) == _bits(want)
    # The failed call solved up to its failure; the next one both models.
    assert len(calls) == failing + 3 and len(handoffs) == 2


def test_witness_builds_only_the_certificate_garblings(rng, monkeypatch, solve_rows):
    # The witness bracket's lower end is two einsums on the witness: after
    # value_distance, witness_game builds the certificate's q1 and q2 and
    # no identity garbling.
    built = []
    post_init = inf.Garbling.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(inf.Garbling, "__post_init__", counting_post_init)
    u = random_structure(rng, 2, 3, 3, zeros=0.2)
    v = random_structure(rng, 2, 3, 2, zeros=0.2)
    inf.value_distance(u, v)
    assert built == []
    inf.witness_game(u, v)
    cert = inf.one_sided_gap(u, v)
    assert built == [cert.q1, cert.q2]
    assert len(solve_rows) == 2


def test_distance_to_itself_solves_its_gap_once(rng, solve_rows):
    # Both directions of (u, u) are the same gap LP.
    u = random_structure(rng, 2, 3, 3)
    d = inf.value_distance(u, u)
    assert solve_rows == [18]
    assert _bits(d) == _bits(inf.one_sided_gap(u, u).gap)
    assert solve_rows == [18]


def test_small_distances_never_start_a_helper(rng, monkeypatch, solve_rows):
    # Pairs the size of the acceptance suites' stay on one thread.
    handed = []
    monkeypatch.setattr(lp, "_Handoff", lambda problem: handed.append(problem))
    for _ in range(20):
        shape_u, shape_v = rng.integers(1, 5, (2, 2))
        n_k = int(rng.integers(2, 4))
        u, v = random_structure(rng, n_k, *shape_u), random_structure(rng, n_k, *shape_v)
        inf.value_distance(u, v)
    assert handed == []
    assert len(solve_rows) == 40


def _halve_witness(sol, n_cells):
    return replace(sol, primal=np.concatenate((sol.primal[:n_cells] / 2, sol.primal[n_cells:])))


def _shift_target(sol, n_cells):
    return replace(sol, objective=sol.objective + 2 * WITNESS_TOL)


@pytest.mark.parametrize("corrupt", [_halve_witness, _shift_target])
def test_witness_bracket_rejects_a_bad_gap_solution(rng, monkeypatch, corrupt):
    # A witness that misses the target, or a target that misses the
    # supremum, leaves the target outside the bracket by more than
    # WITNESS_TOL.  The bad solve must not be kept for the next call.
    u = random_structure(rng, 2, 3, 3)
    v = random_structure(rng, 2, 3, 2)
    calls = []
    solve = lp.solve

    def corrupt_first(problem):
        calls.append(problem.n_rows)
        sol = solve(problem)
        return corrupt(sol, 2 * 3 * 3) if len(calls) == 1 else sol

    monkeypatch.setattr(lp, "solve", corrupt_first)
    with pytest.raises(NumericalFailure, match="witness recheck failed"):
        inf.witness_game(u, v)
    g = inf.witness_game(u, v)
    assert calls == [15, 15]
    gap = inf.one_sided_gap(u, v).gap
    assert gap > 4 * WITNESS_TOL
    u_emb, v_emb = common_embedding(u, v)
    achieved = inf.value(v_emb, g).value - inf.value(u_emb, g).value
    assert achieved == pytest.approx(gap, abs=WITNESS_TOL)


def test_gap_lp_row_layout():
    # Witness and garbling extraction slice the gap LP by position, so the
    # layout is pinned.  Variables: g(k,e,f) in [-1,1] over v's player-1
    # and u's player-2 signals, then the free a_c, then the free b_d.  Rows:
    # <u(.,c,.), g(.,e,.)> / m_c - a_c <= 0 for each (c,e), then
    # b_d - <v(.,.,d), g(.,.,f)> / n_d <= 0 for each (d,f), over the signals
    # of positive mass; maximize sum n_d b_d - sum m_c a_c.
    u = inf.validate_structure(
        np.array([[[0.1, 0.2], [0.0, 0.0], [0.05, 0.05]], [[0.25, 0.05], [0.0, 0.0], [0.25, 0.05]]])
    )
    v = inf.validate_structure(
        np.array([[[0.3, 0.0, 0.0], [0.1, 0.05, 0.0]], [[0.05, 0.2, 0.0], [0.1, 0.2, 0.0]]])
    )
    m = u.probs.sum(axis=(0, 2))
    n = v.probs.sum(axis=(0, 1))
    problem, layout = _gap_problem(u, v)
    assert layout.shape == (2, 2, 2)
    assert np.array_equal(layout.live1, [0, 2]) and np.array_equal(layout.mass1, m[[0, 2]])
    assert np.array_equal(layout.live2, [0, 1]) and np.array_equal(layout.mass2, n[[0, 1]])
    expected = np.zeros((8, 12))
    for i, c in enumerate((0, 2)):
        for e in range(2):
            for k in range(2):
                for f in range(2):
                    expected[i * 2 + e, (k * 2 + e) * 2 + f] = u.probs[k, c, f] / m[c]
            expected[i * 2 + e, 8 + i] = -1.0
    for j, d in enumerate((0, 1)):
        for f in range(2):
            for k in range(2):
                for e in range(2):
                    expected[4 + j * 2 + f, (k * 2 + e) * 2 + f] = -v.probs[k, e, d] / n[d]
            expected[4 + j * 2 + f, 10 + j] = 1.0
    matrix = np.zeros((8, 12))
    np.add.at(matrix, (problem.row_idx, problem.col_idx), problem.coefficients)
    assert np.array_equal(matrix, expected)
    assert problem.coefficients.size == np.count_nonzero(expected)
    assert np.array_equal(problem.row_lower, [-np.inf] * 8)
    assert np.array_equal(problem.row_upper, np.zeros(8))
    assert np.array_equal(problem.objective, [0.0] * 8 + [-m[0], -m[2], n[0], n[1]])
    assert np.array_equal(problem.col_lower, [-1.0] * 8 + [-np.inf] * 4)
    assert np.array_equal(problem.col_upper, [1.0] * 8 + [np.inf] * 4)
    assert problem.maximize

    # The garblings have their natural shapes; a dropped signal's row is
    # uniform, and the certificate still rechecks.
    cert = inf.one_sided_gap(u, v)
    assert cert.q1.rows.shape == (3, 2) and cert.q2.rows.shape == (3, 2)
    assert np.array_equal(cert.q1.rows[1], [0.5, 0.5])
    assert np.array_equal(cert.q2.rows[2], [0.5, 0.5])
    assert cert.recheck(u, v) == pytest.approx(cert.gap, abs=DIST_TOL)


def _same_array(have, want):
    return have.dtype == want.dtype and have.shape == want.shape and have.tobytes() == want.tobytes()


def _with_light_signal(rng, probs, axis):
    """``probs`` with one signal on ``axis`` (1 or 2) of mass <= ZERO_TOL."""
    probs = probs.copy()
    index = [slice(None)] * 3
    index[axis] = int(rng.integers(probs.shape[axis]))
    probs[tuple(index)] = 0.0
    cell = [0, 0, 0]
    cell[axis] = index[axis]
    probs[tuple(cell)] = ZERO_TOL / 4
    return probs


def test_gap_problem_matches_the_triplet_reference():
    # The per-shape pattern keeps the triplets of positive beliefs in
    # column-wise order, so every array is the lexsorted reference's bit
    # for bit.
    rng = np.random.default_rng(20261021)
    pairs = []
    for _ in range(60):
        n_k = int(rng.integers(1, 4))
        zeros = float(rng.choice([0.0, 0.3, 0.6]))
        raw = [rng.random((n_k, *rng.integers(1, 5, 2))) for _ in range(2)]
        for probs in raw:
            probs[rng.random(probs.shape) < zeros] = 0.0
            probs.flat[0] += 0.1  # no all-zero tensor
            for axis in (1, 2):
                if probs.shape[axis] > 1 and rng.random() < 0.3:
                    probs[:] = _with_light_signal(rng, probs, axis)
        pairs.append(tuple(inf.validate_structure(p / p.sum()) for p in raw))
    # One shape, two zero patterns: the second call reuses the first's
    # pattern, and must keep its own cells.
    dense = rng.random((3, 3, 2)) + 0.1
    other = rng.random((3, 2, 3)) + 0.1
    for cell in ((0, 1, 0), (2, 0, 1)):
        probs = dense.copy()
        probs[cell] = 0.0
        pairs.append(
            (inf.validate_structure(probs / probs.sum()), inf.validate_structure(other / other.sum()))
        )
    hits = _gap_pattern.cache_info().hits

    for u, v in pairs:
        for a, b in ((u, v), (v, u)):
            problem, layout = _gap_problem(a, b)
            want, want_layout = gap_oracle.triplet_gap_problem(a, b)
            for name in (
                "objective", "row_idx", "col_idx", "coefficients",
                "row_lower", "row_upper", "col_lower", "col_upper",
            ):
                assert _same_array(getattr(problem, name), getattr(want, name)), name
            assert problem.maximize == want.maximize
            assert layout.shape == want_layout[0]
            assert all(_same_array(x, y) for x, y in zip(layout[1:], want_layout[1:]))
    assert _gap_pattern.cache_info().hits > hits
    # Light signals and one-signal players occur among the pairs.
    structures = [p for pair in pairs for p in pair]
    assert any(
        min(p.probs.sum(axis=(0, 2)).min(), p.probs.sum(axis=(0, 1)).min()) <= ZERO_TOL
        for p in structures
    )
    assert any(min(p.probs.shape[1:]) == 1 for p in structures)

    # The cached pattern is shared by every call on its shape, so it is
    # read-only.
    u, v = pairs[-1]
    problem, _ = _gap_problem(u, v)
    pattern = _gap_pattern(3, 3, 2, 3, 2)
    assert problem.row_lower is pattern[2]
    assert not any(array.flags.writeable for array in pattern)
    with pytest.raises(ValueError):
        pattern[0][0] = 0


def test_certificate_meets_witness_lower_bound(rng):
    # Strong duality of the returned pair, with no LP involved: the
    # garblings bound the gap from above, and the witness bounds it from
    # below through the identity strategies.
    for _ in range(20):
        n_k = int(rng.integers(2, 4))
        u = random_structure(rng, n_k, *rng.integers(1, 5, 2), zeros=0.3)
        v = random_structure(rng, n_k, *rng.integers(1, 5, 2), zeros=0.3)
        cert = inf.one_sided_gap(u, v)
        g = inf.witness_game(u, v)
        _, l1, l2 = g.payoffs.shape
        lower = guarantee(v, g, inf.Garbling(np.eye(l1)), PLAYER1) - guarantee(
            u, g, inf.Garbling(np.eye(l2)), PLAYER2
        )
        assert cert.recheck(u, v) == pytest.approx(lower, abs=1e-7)


@pytest.mark.parametrize("n", range(9, 17))
def test_blackwell_members_pass_the_gates(n):
    # HiGHS's default feasibility tolerances (1e-7) let it report points
    # the residual gates reject on these pairs; it must run below the gates.
    # From n = 12 the binomial cells reach 1e-9, and the gap LP and the
    # value LP pass the gates only when scaled by signal mass.  HiGHS
    # solves them as posed, without its own scaling; only the n = 16 gap
    # LP from (18,16) to (16,16) then misses a gate (the gap, 1.6e-8), and
    # lp.solve's scaled re-solve of it passes.  The pairs are conditionally
    # independent with one player-2 marginal, so distance solves them on
    # the single-agent LP; the full gap LPs are solved here directly, and
    # the lifted answers must match them within the gates.
    a = inf.blackwell_structure(inf.BlackwellSpec(n + 2, n, 0.75, 0.75))
    b = inf.blackwell_structure(inf.BlackwellSpec(n, n, 0.75, 0.75))
    d = inf.value_distance(a, b)
    gaps = []
    for u, v in ((a, b), (b, a)):
        full = lp.solve(_gap_problem(u, v)[0])
        assert full.status == lp.OPTIMAL
        cert = inf.one_sided_gap(u, v)
        assert distance._collapses(u, v)
        assert cert.gap == pytest.approx(max(full.objective, 0.0), abs=LP_TOL)
        assert cert.recheck(u, v) == pytest.approx(cert.gap, abs=DIST_TOL)
        g = inf.witness_game(u, v)
        achieved = inf.value(v, g).value - inf.value(u, g).value
        assert achieved == pytest.approx(cert.gap, abs=WITNESS_TOL)
        gaps.append(cert.gap)
    assert d == max(gaps)
    # a garbles into b exactly; the lifted garblings show it within LP_TOL.
    ok, cert = inf.is_better(a, b)
    assert ok and cert.recheck(a, b) <= LP_TOL


def test_is_better_after_garbling(rng):
    u = random_structure(rng, 2, 3, 2)
    worse = inf.garble(u, PLAYER1, random_garbling(rng, 3, 3))
    ok, cert = inf.is_better(u, worse)
    assert ok and cert is not None
    assert cert.gap <= 1e-6


def test_is_better_canonical_examples():
    cat = inf.canonical_examples()
    assert inf.is_better(cat["u2"], cat["u1"])[0]
    assert not inf.is_better(cat["u1"], cat["u2"])[0]


def test_no_information_dominates_exa6():
    noinfo = inf.no_information([0.5, 0.5])
    for n in (0, 1, 3):
        ok, _ = inf.is_better(noinfo, inf.ladder_structure(n))
        assert ok


def test_single_agent_distance_basics(rng):
    u = random_structure(rng, 2, 3, 2)
    assert inf.single_agent_distance(u, u) <= 1e-9
    f3 = inf.counterexample_pairs()["opponent_correlation"]
    assert inf.single_agent_distance(f3["u"], f3["v"]) <= 1e-9
    assert inf.value_distance(f3["u"], f3["v"]) > 1e-3


def test_single_agent_distance_is_the_distance_of_the_validated_marginals(rng):
    # d1 is the value distance of the validated marginals, bit for bit.
    for _ in range(10):
        u = random_structure(rng, 3, 3, 3, zeros=0.2)
        v = random_structure(rng, 3, 4, 2, zeros=0.2)
        marginals = [inf.validate_structure(s.probs.sum(axis=2, keepdims=True)) for s in (u, v)]
        assert inf.single_agent_distance(u, v) == inf.value_distance(*marginals)


def test_single_agent_blackwell_example():
    u2 = inf.blackwell_structure(inf.BlackwellSpec(2, 0, 0.75, 0.75))
    u1 = inf.blackwell_structure(inf.BlackwellSpec(1, 0, 0.75, 0.75))
    assert inf.single_agent_distance(u2, u1) == pytest.approx(0.1875, abs=1e-6)


def test_d1_below_d_and_d_below_l1(rng):
    for _ in range(15):
        u = random_structure(rng, 2, 3, 3)
        v = random_structure(rng, 2, 3, 3)
        d = inf.value_distance(u, v)
        assert inf.single_agent_distance(u, v) <= d + 1e-7
        assert d <= inf.l1_distance(u, v) + 1e-7


def test_metric_axioms(rng):
    for _ in range(5):
        u = random_structure(rng, 2, 2, 2)
        v = random_structure(rng, 2, 2, 2)
        w = random_structure(rng, 2, 2, 2)
        duv = inf.value_distance(u, v)
        dvu = inf.value_distance(v, u)
        assert duv == pytest.approx(dvu, abs=1e-7)
        assert inf.value_distance(u, u) <= 1e-9
        assert inf.value_distance(u, w) <= duv + inf.value_distance(v, w) + 1e-6


def test_diameter_bounds_examples():
    half = inf.StateDistribution(np.array([0.5, 0.5]))
    out = inf.diameter_bounds(half, half)
    assert (out.lower, out.upper) == pytest.approx((0.0, 1.0))

    delta = inf.StateDistribution(np.array([1.0, 0.0]))
    out = inf.diameter_bounds(delta, delta)
    assert (out.lower, out.upper) == pytest.approx((0.0, 0.0))

    other = inf.StateDistribution(np.array([0.0, 1.0]))
    out = inf.diameter_bounds(delta, other)
    assert (out.lower, out.upper) == pytest.approx((2.0, 2.0))


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_state_distribution_rejects_non_finite_entries(entry):
    with pytest.raises(inf.NotNormalized):
        inf.StateDistribution(np.array([0.5, entry]))


def test_diameter_binary_asymmetric():
    p = inf.StateDistribution(np.array([0.7, 0.3]))
    q = inf.StateDistribution(np.array([0.4, 0.6]))
    out = inf.diameter_bounds(p, q)
    best = max(0.4, 0.3, 0.7 * 0.4 + 0.3 * 0.6)
    assert out.upper == pytest.approx(2 * (1 - best))
    assert out.lower == pytest.approx(0.6)


def test_diameter_three_states_is_tight():
    p = inf.StateDistribution(np.array([0.5, 0.3, 0.2]))
    q = inf.StateDistribution(np.array([0.2, 0.5, 0.3]))
    out = inf.diameter_bounds(p, q)
    assert out.lower == pytest.approx(0.6)
    # The optimal vertex is (t_1, t_2, t_3) = (20/19, 30/19, 0), worth 13/38.
    assert out.upper == pytest.approx(25 / 19, abs=1e-12)
    # Player 1 knows the state in u, player 2 in v, and d(u, v) reaches it.
    u = inf.validate_structure(np.diag(p.probs)[:, :, np.newaxis])
    v = inf.validate_structure(np.diag(q.probs)[:, np.newaxis, :])
    assert inf.value_distance(u, v) == pytest.approx(out.upper, abs=1e-9)
    # The bound is at least as tight as every vertex-pair candidate.
    eye = np.eye(3)
    best_vertex = max(
        np.minimum(p.probs * eye[j], eye[i] * q.probs).sum()
        for i in range(3)
        for j in range(3)
    )
    assert out.upper <= 2 * (1 - best_vertex) + 1e-12


def test_diameter_bounds_solve_no_lp(rng, solve_rows):
    for n_k in range(3, 7):
        p, q = rng.dirichlet(np.ones(n_k), size=2)
        inf.diameter_bounds(inf.StateDistribution(p), inf.StateDistribution(q))
    assert solve_rows == []


def test_diameter_bounds_hold_the_distance_of_random_pairs(rng):
    for n_k in (2, 3, 4):
        for _ in range(12):
            u = random_structure(rng, n_k, 2, 2, zeros=0.2)
            v = random_structure(rng, n_k, 2, 2, zeros=0.2)
            out = inf.diameter_bounds(
                inf.StateDistribution(u.state_marginal()), inf.StateDistribution(v.state_marginal())
            )
            assert out.lower > 0.0
            assert out.lower - 1e-9 <= inf.value_distance(u, v) <= out.upper + 1e-9


def test_diameter_is_valid_bound_for_actual_structures(rng):
    p = inf.StateDistribution(np.array([0.5, 0.5]))
    out = inf.diameter_bounds(p, p)
    for _ in range(5):
        u = random_structure(rng, 2, 2, 2)
        v = random_structure(rng, 2, 2, 2)
        # force the same uniform state marginal
        u = inf.validate_structure(0.5 * u.probs / u.probs.sum(axis=(1, 2), keepdims=True))
        v = inf.validate_structure(0.5 * v.probs / v.probs.sum(axis=(1, 2), keepdims=True))
        assert inf.value_distance(u, v) <= out.upper + 1e-7


def test_dw(rng):
    u = random_structure(rng, 2, 2, 2)
    v = random_structure(rng, 2, 2, 2)
    g = inf.ZeroSumGame(rng.uniform(-1, 1, (2, 2, 2)))
    assert inf.dw(u, u, [g]) <= 1e-12
    gap = abs(inf.value(u, g).value - inf.value(v, g).value)
    assert inf.dw(u, v, [g]) == pytest.approx(0.5 * gap, abs=1e-12)


def test_dw_takes_a_list_of_any_length():
    # 2.0 ** (n + 1) overflows from n = 1023 on.  Guessing the state is
    # worth 1 to the informed player and 1/2 to the uninformed one, so
    # 1,100 copies of the game sum to 1/2 (1 - 2^-1100).
    informed = inf.validate_structure(np.array([[[0.5], [0.0]], [[0.0], [0.5]]]))
    uninformed = inf.validate_structure(np.array([[[0.5]], [[0.5]]]))
    guess = inf.ZeroSumGame(np.eye(2)[:, :, None])
    assert inf.dw(informed, uninformed, [guess] * 1100) == pytest.approx(0.5, abs=1e-12)


def test_dw_with_witness_game():
    cat = inf.canonical_examples()
    u, v = cat["u1"], cat["u2"]
    g = inf.witness_game(u, v)
    u_emb, v_emb = common_embedding(u, v)
    gap = inf.one_sided_gap(u, v).gap
    assert inf.dw(u_emb, v_emb, [g]) == pytest.approx(0.5 * gap, abs=1e-5)
    assert inf.dw(u_emb, v_emb, [g]) <= inf.value_distance(u, v) + 1e-6


def _ci_pair_with_one_player2_marginal(rng):
    """u and v conditionally independent with one (state, player-2)
    marginal; u has 3 player-1 signals and v 4."""
    u = random_ci_structure(rng, 2, 3, 2)
    pk = u.state_marginal()
    d_given_k = u.probs.sum(axis=1) / pk[:, None]
    c_given_k = rng.random((2, 4)) + 0.05
    c_given_k /= c_given_k.sum(axis=1, keepdims=True)
    return u, np.einsum("k,kc,kd->kcd", pk, c_given_k, d_given_k)


def test_collapse_on_random_ci_pairs(rng):
    for _ in range(5):
        u, raw_v = _ci_pair_with_one_player2_marginal(rng)
        report = inf.cond_indep_collapse_report(u, inf.validate_structure(raw_v))
        assert report.passed, (report.d, report.d1)


def test_collapse_report_solves_the_full_gap_lps(rng, solve_rows):
    # d comes from the full gap LPs, d1 from the single-agent LPs, so the
    # report checks the collapse that value_distance relies on.
    u, raw_v = _ci_pair_with_one_player2_marginal(rng)
    v = inf.validate_structure(raw_v)
    report = inf.cond_indep_collapse_report(u, v)
    # Full: 3*4 (c,e) rows and 2*2 (d,f) rows each way.  Single-agent: the
    # same (c,e) rows and one (d,f) row.
    assert solve_rows == [16, 16, 13, 13]
    assert report.passed
    # value_distance reads the single-agent LPs that d1 solved, and d1
    # again solves none.
    assert inf.value_distance(u, v) == report.d1
    assert inf.single_agent_distance(u, v) == report.d1
    assert solve_rows == [16, 16, 13, 13]


def test_a_pair_just_outside_the_collapse_solves_the_full_lp(rng):
    # Moving mass between two player-1 signals keeps the (state, player-2)
    # marginal and leaves a CI defect just above ZERO_TOL: the gap LP is
    # the full one, solved bit for bit as the oracle poses it.
    u, raw_v = _ci_pair_with_one_player2_marginal(rng)
    assert distance._collapses(u, inf.validate_structure(raw_v))
    raw_v[0, 0, 0] += 6e-13
    raw_v[0, 1, 0] -= 6e-13
    v = inf.validate_structure(raw_v)
    query = ConditionalQuery((1,), (2,), (0,))
    delta = np.abs(u.probs.sum(axis=1) - v.probs.sum(axis=1)).sum()
    delta += eps_conditional_independence(u.probs, query) + eps_conditional_independence(v.probs, query)
    assert ZERO_TOL < delta < 2 * ZERO_TOL
    # A pair with one player-2 signal is its own single-agent problem and
    # keeps the full LP too.
    two, one = (inf.blackwell_structure(inf.BlackwellSpec(n, 0, 0.75, 0.75)) for n in (2, 1))
    for a, b in ((u, v), (v, u), (two, one)):
        assert not distance._collapses(a, b)
        solve = _solve_gap(a, b)
        want = lp.solve(gap_oracle.triplet_gap_problem(a, b)[0])
        assert solve.solution.objective == want.objective
        assert np.array_equal(solve.solution.primal, want.primal)
        assert np.array_equal(solve.solution.dual, want.dual)


def test_collapse_hypothesis_gate():
    i4 = inf.counterexample_pairs()["split_secret"]["u"]
    with pytest.raises(inf.HypothesisViolated):
        inf.cond_indep_collapse_report(i4, i4)


def test_substitutes_inequality(rng):
    for _ in range(5):
        pk = rng.random(2) + 0.2
        pk /= pk.sum()
        c1_given_k = rng.random((2, 2)) + 0.1
        c1_given_k /= c1_given_k.sum(axis=1, keepdims=True)
        rest = rng.random((2, 2, 2, 2)) + 0.05  # (k, c, c2, d)
        rest /= rest.sum(axis=(1, 2, 3), keepdims=True)
        joint = np.einsum("k,km,kcnd->kcmnd", pk, c1_given_k, rest)
        report = inf.substitutes_report(joint)
        assert report.passed, report


def test_substitutes_hypothesis_gate(rng):
    joint = rng.random((2, 2, 2, 2, 2))
    joint /= joint.sum()
    with pytest.raises(inf.HypothesisViolated):
        inf.substitutes_report(joint)


def test_complements_inequality(rng):
    for _ in range(5):
        pk = rng.random(2) + 0.2
        pk /= pk.sum()
        cc1_given_k = rng.random((2, 2, 2)) + 0.1  # (k, c, c1)
        cc1_given_k /= cc1_given_k.sum(axis=(1, 2), keepdims=True)
        d_given_k = rng.random((2, 2)) + 0.1
        d_given_k /= d_given_k.sum(axis=1, keepdims=True)
        d1_cond = rng.random((2, 2, 2, 2, 2)) + 0.05  # (k, c, c1, d, d1)
        d1_cond /= d1_cond.sum(axis=4, keepdims=True)
        joint = (
            np.einsum("k,kcm,kd->kcmd", pk, cc1_given_k, d_given_k)[..., None]
            * d1_cond
        )
        report = inf.complements_report(joint)
        assert report.passed, report


def test_complements_hypothesis_gate(rng):
    joint = rng.random((2, 2, 2, 2, 2))
    joint /= joint.sum()
    with pytest.raises(inf.HypothesisViolated):
        inf.complements_report(joint)


@pytest.mark.parametrize("report", [inf.substitutes_report, inf.complements_report, inf.joint_information_report])
def test_joint_reports_need_a_five_axis_tensor(report):
    with pytest.raises(inf.ShapeMismatch):
        report(np.full((2, 2, 2, 2), 1 / 16))


def test_collapse_needs_equal_state_signal_marginals(rng):
    u, v = random_ci_structure(rng, 2, 2, 2), random_ci_structure(rng, 2, 2, 2)
    with pytest.raises(inf.HypothesisViolated, match="marginals"):
        inf.cond_indep_collapse_report(u, v)


def test_recheck_needs_matching_garbled_shapes(rng):
    u, v = random_structure(rng, 2, 2, 2), random_structure(rng, 2, 2, 2)
    cert = inf.one_sided_gap(u, v)
    with pytest.raises(inf.ShapeMismatch):
        cert.recheck(random_structure(rng, 2, 2, 3), v)


def test_diameter_bounds_need_equal_state_counts():
    with pytest.raises(inf.ShapeMismatch):
        inf.diameter_bounds(inf.StateDistribution([0.5, 0.5]), inf.StateDistribution([0.2, 0.3, 0.5]))


def test_joint_information_bound(rng):
    for _ in range(5):
        base = random_structure(rng, 2, 2, 2)  # (k, c, d)
        c1_noise = rng.random((2, 2, 2, 2)) + 0.2  # (k, c, d, c1), mostly flat
        c1_noise /= c1_noise.sum(axis=3, keepdims=True)
        d1_noise = rng.random((2, 2, 2, 2)) + 0.2
        d1_noise /= d1_noise.sum(axis=3, keepdims=True)
        joint = np.einsum(
            "kcd,kcdm,kcdn->kcmdn", base.probs, c1_noise, d1_noise
        )
        report = inf.joint_information_report(joint)
        assert report.passed, report
        assert report.eps == pytest.approx(max(report.eps1, report.eps2))


def test_state_distribution_validation():
    with pytest.raises(inf.NotNormalized):
        inf.StateDistribution(np.array([0.5, 0.4]))
    with pytest.raises(inf.NegativeMass):
        inf.StateDistribution(np.array([1.2, -0.2]))
    with pytest.raises(inf.ShapeMismatch):
        inf.StateDistribution(np.array([[0.5], [0.5]]))
