"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.

Criterion 8b-i (event-E pass rate at N=2000) is implemented exactly as
stated and fails: with alpha = 1/25 the binding ratio statistic has standard
deviation sqrt(8/N) ~ 0.063 at N=2000 against a band of half-width 0.08
(1.26 sigma), so the per-tuple all-conditions pass rate is ~0.69, far below
the 0.99 target; that target needs N >~ 1.3e4.  The red assertion is kept
deliberately; see the decisions ledger for the full analysis.

Criterion 8b-ii (every E-passing tuple passes the truth-telling ratios)
cannot fail: each truth-telling ratio is half of an E-condition ratio r, and
|r/2 - 1/2| > alpha is the negation of the E test |r - 1| <= 2 alpha on the
same ratio, so ``n_violations`` is 0 for every matrix.  It shows that the
two formulas agree, not that the matrix mixes; its ``n_e_pass`` is the
count behind 8b-i's pass rate.
"""

import json
import time

import numpy as np
import pytest

import infodist as inf
from infodist import PLAYER1, markov
from infodist.catalog import parity_coordination_game
from infodist.cli import main
from infodist.payoffs import point_to_polygon_distance
from infodist.structures import common_embedding

from conftest import random_ci_structure, random_game, random_garbling, random_structure


def _report(criterion: str, passed: bool, detail: str = ""):
    flag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {flag}" + (f" ({detail})" if detail else ""))


def test_criterion_1_canonical_examples_reproduction(capsys):
    start = time.perf_counter()
    code = main(["repro-appendix-f", "--format", "json"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    payload = json.loads(out)
    ok = (
        code == 0
        and abs(payload["d(u1,u2)"] - 0.5) <= 1e-6
        and abs(payload["d(u1,u2prime)"] - 1.0) <= 1e-6
        and elapsed < 1.0
    )
    with capsys.disabled():
        _report("1 canonical distance table", ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_2_blackwell_table(capsys):
    start = time.perf_counter()
    worst = 0.0
    for p in (0.6, 0.75, 0.9):
        structures = {
            n: inf.blackwell_structure(inf.BlackwellSpec(n, 0, p, p)) for n in range(5)
        }
        for n in range(1, 5):
            for l in range(n):
                lp_value = inf.single_agent_distance(structures[n], structures[l])
                closed = inf.blackwell_d1_closed_form(n, l, p)
                worst = max(worst, abs(lp_value - closed))
        # spot-check the displayed formulas
        assert abs(
            inf.blackwell_d1_closed_form(2, 1, p) - 2 * p * (1 - p) * (2 * p - 1)
        ) <= 1e-12
        assert abs(
            inf.blackwell_d1_closed_form(4, 3, p) - 6 * p**2 * (1 - p) ** 2 * (2 * p - 1)
        ) <= 1e-12
        assert abs(
            inf.blackwell_d1_closed_form(4, 1, p)
            - 2 * p * (1 - p) * (2 * p - 1) * (1 + 3 * p - 3 * p**2)
        ) <= 1e-12
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    with capsys.disabled():
        _report("2 Blackwell closed forms", ok, f"worst gap {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_3_bexp_collapse(capsys):
    start = time.perf_counter()
    p = 0.75
    worst = 0.0
    for m in range(3):
        for n in range(4):
            for l in range(n):
                unm = inf.blackwell_structure(inf.BlackwellSpec(n, m, p, p))
                ulm = inf.blackwell_structure(inf.BlackwellSpec(l, m, p, p))
                d = inf.value_distance(unm, ulm)
                d1 = inf.blackwell_d1_closed_form(n, l, p)
                worst = max(worst, abs(d - d1))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    with capsys.disabled():
        _report("3 experiments: d equals d1", ok, f"worst gap {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_4_metric_and_bound_suite(capsys):
    rng = np.random.default_rng(4)
    n_instances = 200
    failures = []
    for i in range(n_instances):
        n_k = int(rng.integers(2, 4))
        dims = rng.integers(1, 5, size=4)
        u = random_structure(rng, n_k, dims[0], dims[1], zeros=0.3)
        v = random_structure(rng, n_k, dims[2], dims[3], zeros=0.3)
        gap_uv = inf.one_sided_gap(u, v).gap
        gap_vu = inf.one_sided_gap(v, u).gap
        d = max(gap_uv, gap_vu)
        if abs(inf.value_distance(v, u) - d) > 1e-7:
            failures.append((i, "symmetry"))
        u_emb, v_emb = common_embedding(u, v)
        if d > inf.l1_distance(u_emb, v_emb) + 1e-9:
            failures.append((i, "d <= l1"))
        if inf.single_agent_distance(u, v) > d + 1e-7:
            failures.append((i, "d1 <= d"))
        # triangle through a third structure
        w = random_structure(rng, n_k, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        if inf.value_distance(u, w) > d + inf.value_distance(v, w) + 1e-6:
            failures.append((i, "triangle"))
        # witness recheck
        g_star = inf.witness_game(u, v)
        achieved = inf.value(v_emb, g_star).value - inf.value(u_emb, g_star).value
        if abs(achieved - gap_uv) > 1e-5:
            failures.append((i, "witness"))
        # garbling monotonicity of the value
        g = random_game(rng, n_k, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        base = inf.value(u, g).value
        q1 = random_garbling(rng, u.signals1_count, int(rng.integers(1, 4)))
        q2 = random_garbling(rng, u.signals2_count, int(rng.integers(1, 4)))
        if inf.value(inf.garble(u, "player1", q1), g).value > base + 1e-7:
            failures.append((i, "monotonicity p1"))
        if inf.value(inf.garble(u, "player2", q2), g).value < base - 1e-7:
            failures.append((i, "monotonicity p2"))
    ok = not failures
    with capsys.disabled():
        _report("4 metric and bound suite", ok, f"{n_instances} instances, failures: {failures[:5]}")
    assert ok


def test_criterion_5_game_value_oracle(capsys):
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        n_k = int(rng.integers(2, 4))
        u = random_structure(rng, n_k, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        g = random_game(rng, n_k, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        worst = max(worst, abs(inf.value(u, g).value - inf.value_normal_form(u, g)))
    ok = worst <= 1e-6
    with capsys.disabled():
        _report("5 normal-form value oracle", ok, f"worst gap {worst:.2e}")
    assert ok


def test_criterion_6_joint_information_and_approx_knowledge(capsys):
    rng = np.random.default_rng(6)
    worst_slack = -np.inf
    passed = True
    for i in range(50):
        base = random_structure(rng, 2, 2, 2)
        sharpness = 0.1 + 0.8 * rng.random()
        c1_noise = rng.random((2, 2, 2, 2)) + sharpness
        c1_noise /= c1_noise.sum(axis=3, keepdims=True)
        d1_noise = rng.random((2, 2, 2, 2)) + sharpness
        d1_noise /= d1_noise.sum(axis=3, keepdims=True)
        joint = np.einsum("kcd,kcdm,kcdn->kcmdn", base.probs, c1_noise, d1_noise)
        report = inf.joint_information_report(joint)
        passed &= report.distance <= report.eps + 1e-6
        worst_slack = max(worst_slack, report.distance - report.eps)
    for eps in (0.01, 0.05, 0.1):
        pair = inf.approx_knowledge_pair(eps)
        d = inf.value_distance(pair.u, pair.v)
        passed &= d <= 20 * pair.eps_prime + 1e-6
    with capsys.disabled():
        _report("6 joint information + approximate knowledge", passed, f"worst slack {worst_slack:.2e}")
    assert passed


def test_criterion_7_dnzs(capsys):
    cat = inf.canonical_examples()
    two = inf.dnzs(cat["u2"], cat["u2prime"])
    a = inf.mix([(0.3, cat["u2"]), (0.7, cat["u2prime"])])
    b = inf.mix([(0.5, cat["u2"]), (0.5, cat["u2prime"])])
    mixture = inf.dnzs(a, b)
    # redundant copy: reduce must leave the value distance at zero
    doubled = np.zeros((2, 3, 1))
    doubled[:, :2, :] = cat["u2"].probs[:, :, :]
    doubled[:, 1, :] *= 0.5
    doubled[:, 2, :] = doubled[:, 1, :]
    redundant = inf.validate_structure(doubled)
    reduced = inf.reduce_redundancy(redundant)
    equivalent = inf.value_distance(redundant, reduced)
    ok = two == 2.0 and abs(mixture - 0.4) <= 1e-9 and equivalent <= 1e-6
    with capsys.disabled():
        _report("7 nonzero-sum distance", ok, f"simple pair {two}, mixture {mixture:.12f}")
    assert ok


def test_criterion_8a_markov_desk_scale_exact(capsys):
    world = inf.MarkovWorld(inf.sample_S(4, 0))
    u1 = inf.chain_structure(world, 1)
    u2 = inf.chain_structure(world, 2)
    g1 = inf.revelation_game(world, 1)
    g2 = inf.revelation_game(world, 2)

    val_11 = inf.value(u1, g1).value
    val_12 = inf.value(u1, g2).value
    ok = True
    # brute-force cross-checks
    ok &= abs(val_11 - inf.value_normal_form(u1, g1)) <= 1e-6
    ok &= abs(val_12 - inf.value_normal_form(u1, g2, budget=10_000)) <= 1e-6
    # truthful-reporting cross-checks
    tg11 = inf.truthful_guarantee(world, 1, 1)
    tg12 = inf.truthful_guarantee(world, 1, 2)
    ok &= tg11.lower <= val_11 + 1e-9 and val_11 <= tg11.upper + 1e-9
    ok &= val_12 <= tg12.upper + 1e-9
    # definitional inequality d(u^2, u^1) >= val(u^2, g^2) - val(u^1, g^2)
    d21 = inf.value_distance(u2, u1)
    val_22 = inf.value(u2, g2).value
    ok &= d21 >= val_22 - val_12 - 1e-6
    with capsys.disabled():
        _report(
            "8a Markov desk-scale exact checks",
            ok,
            f"val(u1,g1)={val_11:.6f}, d(u2,u1)={d21:.6f}, gap={val_22 - val_12:.6f}",
        )
    assert ok


@pytest.fixture(scope="module")
def n2000_matrix():
    return inf.sample_S(2000, 0)


def test_criterion_8b_event_e_pass_rate(capsys, n2000_matrix):
    """Stated target: all-conditions pass rate >= 0.99 over 1e5 tuples at
    N=2000, seed 0.  Unattainable at this N (see module docstring and the
    decisions ledger); the faithful assertion is left red on purpose."""
    start = time.perf_counter()
    report = inf.concentration_report(n2000_matrix, sample_budget=100_000, seed=0)
    elapsed = time.perf_counter() - start
    ok = report.all_pass_fraction >= 0.99 and elapsed < 120.0
    with capsys.disabled():
        _report(
            "8b-i event-E pass rate at N=2000",
            ok,
            f"observed {report.all_pass_fraction:.4f} vs target 0.99 over "
            f"{report.n_tuples} tuples, {elapsed:.1f}s; binding ratio has only "
            "1.26 sigma of slack at this N — see decisions ledger",
        )
    assert ok, (
        f"all-pass fraction {report.all_pass_fraction:.4f} < 0.99: the target "
        "needs N >~ 1.3e4; at N=2000 the quad/triple ratio condition alone "
        "passes with probability ~0.80"
    )


def test_criterion_8b_mixing_implication(capsys, n2000_matrix):
    start = time.perf_counter()
    report = inf.mixing_implication_check(n2000_matrix, sample_budget=100_000, seed=0)
    elapsed = time.perf_counter() - start
    ok = report.n_violations == 0 and elapsed < 120.0
    with capsys.disabled():
        _report(
            "8b-ii every E-passing tuple UI-passes",
            ok,
            f"{report.n_e_pass} E-passing tuples, {report.n_violations} violations, {elapsed:.1f}s",
        )
    assert ok


def test_criterion_9_feasible_payoff_bounds(capsys):
    rng = np.random.default_rng(9)
    i4 = inf.counterexample_pairs()["split_secret"]
    g_i4 = parity_coordination_game()
    d_i4 = inf.value_distance(i4["u"], i4["v"])
    h_i4 = inf.hausdorff_max(
        inf.feasible_set(i4["u"], g_i4), inf.feasible_set(i4["v"], g_i4)
    )
    ok = d_i4 <= 1e-6 and h_i4 >= 1.0 - 1e-6
    for _ in range(30):
        u = random_ci_structure(rng, 2, 2, 2)
        v = random_ci_structure(rng, 2, 2, 2)
        g = inf.BimatrixGame(
            rng.uniform(-1, 1, (2, 2, 2)), rng.uniform(-1, 1, (2, 2, 2))
        )
        ok &= inf.verify_feasible_bound(u, v, g, "cond_indep").passed
    for _ in range(10):
        joint_u = rng.random((2, 3)) + 0.05
        joint_u /= joint_u.sum()
        joint_v = rng.random((2, 2)) + 0.05
        joint_v /= joint_v.sum()
        pu = np.zeros((2, 3, 3))
        pu[:, np.arange(3), np.arange(3)] = joint_u
        pv = np.zeros((2, 2, 2))
        pv[:, np.arange(2), np.arange(2)] = joint_v
        g = inf.BimatrixGame(
            rng.uniform(-1, 1, (2, 2, 2)), rng.uniform(-1, 1, (2, 2, 2))
        )
        report = inf.verify_feasible_bound(
            inf.validate_structure(pu), inf.validate_structure(pv), g, "public"
        )
        ok &= report.passed and report.multiplier == 1.0
    with capsys.disabled():
        _report("9 feasible-payoff bounds", ok, f"I.4: d={d_i4:.2e}, H={h_i4:.6f}")
    assert ok


def test_criterion_10_strategy_transport(capsys):
    rng = np.random.default_rng(10)
    worst = np.inf
    ok = True
    for _ in range(30):
        n_k = int(rng.integers(2, 4))
        u = random_structure(rng, n_k, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        v = random_structure(rng, n_k, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        g = random_game(rng, n_k, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        cert = inf.one_sided_gap(u, v)
        d = inf.value_distance(u, v)
        u_emb, v_emb = common_embedding(u, v)
        sigma = inf.value(v_emb, g).strategy1
        transported = inf.transport_strategy(sigma, cert.q1)
        achieved = inf.guarantee(u, g, transported, PLAYER1)
        slack = achieved - (inf.value(u_emb, g).value - 2.0 * d)
        worst = min(worst, slack)
        ok &= slack >= -1e-6
    with capsys.disabled():
        _report("10 strategy transport", ok, f"worst slack {worst:.2e}")
    assert ok


def test_criterion_11_convergence_experiments(capsys):
    noinfo = inf.no_information([0.5, 0.5])
    ok = True
    details = []
    for n in (1, 2, 4, 8):
        d = inf.value_distance(inf.ladder_structure(n), noinfo)
        ok &= d <= 2.0 / (n + 1) + 1e-6
        details.append(f"n={n}: {d:.4f}<=~{2 / (n + 1):.4f}")
    ck = inf.common_knowledge([0.5, 0.5])
    email_distances = [
        inf.value_distance(inf.email_game(eps, 0.5, 12), ck) for eps in (0.5, 0.2, 0.05)
    ]
    ok &= email_distances[0] > email_distances[1] > email_distances[2]
    with capsys.disabled():
        _report(
            "11 convergence experiments",
            ok,
            "; ".join(details) + f"; email {['%.4f' % d for d in email_distances]}",
        )
    assert ok
