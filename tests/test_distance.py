import numpy as np
import pytest

import infodist as inf
from infodist import PLAYER1, lp
from infodist.distance import _gap_problem
from infodist.structures import common_embedding

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


def test_witness_on_equal_structures(rng):
    u = random_structure(rng, 2, 2, 2)
    g = inf.witness_game(u, u)
    assert abs(inf.value(u, g).value - inf.value(u, g).value) <= 1e-5


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


def test_witness_solves_the_gap_lp_once(rng, monkeypatch):
    # One gap solve gives both the target gap and the witness; the recheck
    # then solves the game on each structure.
    u = random_structure(rng, 2, 3, 3)
    v = random_structure(rng, 2, 3, 2)
    rows = []
    solve = lp.solve

    def counting_solve(problem):
        rows.append(problem.n_rows)
        return solve(problem)

    monkeypatch.setattr(lp, "solve", counting_solve)
    inf.witness_game(u, v)
    gap_rows = 2 * 2 * 3 * 3 + 3 + 2
    value_rows = 3 * 3 + 3
    assert rows == [gap_rows, value_rows, value_rows]


def test_gap_lp_row_layout():
    # witness_game slices the gap-LP duals by position, so the layout is
    # pinned: K*L1*L2 '+diff' rows, then as many '-diff' rows, then the q1
    # and q2 simplex rows.  Variables: t(k,e,f), q1(c,e), q2(d,f).
    u = inf.validate_structure(
        np.array([[[0.1, 0.2], [0.0, 0.1]], [[0.15, 0.05], [0.25, 0.15]]])
    )
    v = inf.validate_structure(
        np.array([[[0.3, 0.0], [0.1, 0.05]], [[0.05, 0.2], [0.1, 0.2]]])
    )
    problem, dims = _gap_problem(u, v)
    assert dims == (2, 2, 2, 8, 4, 4)
    expected = np.zeros((20, 16))
    for k in range(2):
        for e in range(2):
            for f in range(2):
                cell = (k * 2 + e) * 2 + f
                diff = np.zeros(16)
                diff[cell] = -1.0
                for c in range(2):
                    diff[8 + c * 2 + e] = u.probs[k, c, f]
                for d in range(2):
                    diff[12 + d * 2 + f] = -v.probs[k, e, d]
                expected[cell] = diff
                expected[8 + cell] = -diff
                expected[8 + cell, cell] = -1.0
    for s in range(2):
        expected[16 + s, 8 + 2 * s : 10 + 2 * s] = 1.0
        expected[18 + s, 12 + 2 * s : 14 + 2 * s] = 1.0
    assert np.array_equal(problem.matrix().toarray(), expected)
    assert problem.coefficients.size == np.count_nonzero(expected)
    assert problem.senses == ("<=",) * 16 + ("==",) * 4
    assert np.array_equal(problem.rhs, [0.0] * 16 + [1.0] * 4)
    assert np.array_equal(problem.objective, [1.0] * 8 + [0.0] * 8)


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
    assert not out.heuristic

    delta = inf.StateDistribution(np.array([1.0, 0.0]))
    out = inf.diameter_bounds(delta, delta)
    assert (out.lower, out.upper) == pytest.approx((0.0, 0.0))

    other = inf.StateDistribution(np.array([0.0, 1.0]))
    out = inf.diameter_bounds(delta, other)
    assert (out.lower, out.upper) == pytest.approx((2.0, 2.0))


def test_diameter_binary_asymmetric():
    p = inf.StateDistribution(np.array([0.7, 0.3]))
    q = inf.StateDistribution(np.array([0.4, 0.6]))
    out = inf.diameter_bounds(p, q)
    best = max(0.4, 0.3, 0.7 * 0.4 + 0.3 * 0.6)
    assert out.upper == pytest.approx(2 * (1 - best))
    assert out.lower == pytest.approx(0.6)
    assert not out.heuristic


def test_diameter_three_states_heuristic_flag():
    p = inf.StateDistribution(np.array([0.5, 0.3, 0.2]))
    q = inf.StateDistribution(np.array([0.2, 0.5, 0.3]))
    out = inf.diameter_bounds(p, q)
    assert out.heuristic
    assert out.lower <= out.upper <= 2.0
    # the heuristic must at least reach every vertex-pair candidate
    eye = np.eye(3)
    best_vertex = max(
        np.minimum(p.probs * eye[j], eye[i] * q.probs).sum()
        for i in range(3)
        for j in range(3)
    )
    assert out.upper <= 2 * (1 - best_vertex) + 1e-12


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


def test_dw_with_witness_game():
    cat = inf.canonical_examples()
    u, v = cat["u1"], cat["u2"]
    g = inf.witness_game(u, v)
    u_emb, v_emb = common_embedding(u, v)
    gap = inf.one_sided_gap(u, v).gap
    assert inf.dw(u_emb, v_emb, [g]) == pytest.approx(0.5 * gap, abs=1e-5)
    assert inf.dw(u_emb, v_emb, [g]) <= inf.value_distance(u, v) + 1e-6


def test_collapse_on_random_ci_pairs(rng):
    for _ in range(5):
        u = random_ci_structure(rng, 2, 3, 2)
        # same (state, player-2) marginal, fresh player-1 conditional
        pk = u.state_marginal()
        d_given_k = u.probs.sum(axis=1) / pk[:, None]
        c_given_k = rng.random((2, 4)) + 0.05
        c_given_k /= c_given_k.sum(axis=1, keepdims=True)
        v = inf.validate_structure(np.einsum("k,kc,kd->kcd", pk, c_given_k, d_given_k))
        report = inf.cond_indep_collapse_report(u, v)
        assert report.passed, (report.d, report.d1)


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
    with pytest.raises(inf.ShapeMismatch):
        inf.StateDistribution(np.array([0.5, 0.4]))
    with pytest.raises(inf.ShapeMismatch):
        inf.StateDistribution(np.array([[0.5], [0.5]]))
