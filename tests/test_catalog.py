import numpy as np
import pytest

import infodist as inf
from infodist import ConditionalQuery
from infodist.catalog import parity_coordination_game, knowledge_level


def test_every_generator_validates():
    structures = list(inf.canonical_examples().values())
    structures.append(inf.blackwell_structure(inf.BlackwellSpec(2, 1, 0.75, 0.6)))
    structures.append(inf.ladder_structure(3))
    structures.append(inf.email_game(0.2, 0.5, 6))
    structures.append(inf.approx_knowledge_pair(0.1).u)
    for fixture in inf.counterexample_pairs().values():
        structures.extend(fixture.values())
    for s in structures:
        assert isinstance(s, inf.InformationStructure)
        assert abs(s.probs.sum() - 1.0) <= 1e-9


def test_canonical_examples_state_marginals():
    for s in inf.canonical_examples().values():
        assert np.allclose(s.state_marginal(), [0.5, 0.5])


def test_blackwell_spec_validation():
    with pytest.raises(inf.InvalidParameters):
        inf.BlackwellSpec(-1, 0, 0.75, 0.75)
    with pytest.raises(inf.InvalidParameters):
        inf.BlackwellSpec(1, 0, 0.5, 0.75)


def test_blackwell_structure_values():
    flat = inf.blackwell_structure(inf.BlackwellSpec(0, 0, 0.75, 0.75))
    assert flat.shape == (2, 1, 1)
    assert np.allclose(flat.state_marginal(), [0.5, 0.5])

    u = inf.blackwell_structure(inf.BlackwellSpec(1, 0, 0.75, 0.75))
    assert u.probs[1, 1, 0] == pytest.approx(0.375)
    assert u.probs[1, 0, 0] == pytest.approx(0.125)


def test_blackwell_conditional_independence():
    u = inf.blackwell_structure(inf.BlackwellSpec(2, 2, 0.75, 0.9))
    measure = inf.eps_conditional_independence(u.probs, ConditionalQuery((1,), (2,), (0,)))
    assert measure <= 1e-12


@pytest.mark.parametrize(
    "n,l,expected",
    [
        (2, 1, lambda p: 2 * p * (1 - p) * (2 * p - 1)),
        (3, 1, lambda p: 2 * p * (1 - p) * (2 * p - 1)),
        (3, 2, lambda p: 2 * p * (1 - p) * (2 * p - 1)),
        (4, 2, lambda p: 2 * p * (1 - p) * (2 * p - 1)),
        (4, 3, lambda p: 6 * p**2 * (1 - p) ** 2 * (2 * p - 1)),
        (4, 1, lambda p: 2 * p * (1 - p) * (2 * p - 1) * (1 + 3 * p - 3 * p**2)),
        (1, 0, lambda p: 2 * p - 1),
    ],
)
def test_blackwell_closed_forms(n, l, expected):
    for p in (0.6, 0.75, 0.9):
        assert inf.blackwell_d1_closed_form(n, l, p) == pytest.approx(
            expected(p), abs=1e-12
        )


def test_blackwell_closed_form_matches_lp():
    for p in (0.6, 0.75, 0.9):
        for n in range(1, 5):
            for l in range(n):
                un = inf.blackwell_structure(inf.BlackwellSpec(n, 0, p, p))
                ul = inf.blackwell_structure(inf.BlackwellSpec(l, 0, p, p))
                assert inf.single_agent_distance(un, ul) == pytest.approx(
                    inf.blackwell_d1_closed_form(n, l, p), abs=1e-6
                )


def test_blackwell_closed_form_validation():
    with pytest.raises(inf.InvalidParameters):
        inf.blackwell_d1_closed_form(1, 1, 0.75)
    with pytest.raises(inf.InvalidParameters):
        inf.blackwell_d1_closed_form(2, 1, 0.4)
    # The report computes the same gammas, so it rejects the same inputs.
    for args in ((1, 1, 0.75), (2, 1, 0.4), (2, 1, 0.5), (2.0, 1, 0.75)):
        with pytest.raises(inf.InvalidParameters):
            inf.blackwell_conjecture_report(*args)


def test_blackwell_conjecture_report_is_report_only():
    report = inf.blackwell_conjecture_report(4, 1, 0.75)
    assert report["n_even_l_odd"]
    assert len(report["gammas"]) == 2
    assert report["argmax"] in (0, 1)


def test_ladder_structure_shape_and_bound():
    u0 = inf.ladder_structure(0)
    assert u0.shape == (2, 1, 2)
    # player 2 learns the state exactly at n=0
    assert inf.value_distance(u0, inf.no_information([0.5, 0.5])) == pytest.approx(
        1.0, abs=1e-6
    )
    noinfo = inf.no_information([0.5, 0.5])
    for n in (1, 2, 4):
        un = inf.ladder_structure(n)
        assert inf.value_distance(un, noinfo) <= 2.0 / (n + 1) + 1e-6
        assert inf.is_better(noinfo, un)[0]


def test_email_game_degenerate_loss():
    u = inf.email_game(1.0, 0.5, 4)
    # player 2's signal is identically zero
    assert u.probs[:, :, 1:].sum() == 0.0
    assert np.allclose(u.state_marginal(), [0.5, 0.5])


def test_email_game_player1_knows_state():
    u = inf.email_game(0.3, 0.4, 5)
    for c in range(u.signals1_count):
        mass = u.probs[:, c, :].sum()
        if mass > 0:
            top = u.probs[:, c, :].sum(axis=1).max()
            assert top == pytest.approx(mass)
    assert np.allclose(u.state_marginal(), [0.6, 0.4])


def test_email_game_distance_decreasing():
    ck = inf.common_knowledge([0.5, 0.5])
    distances = [
        inf.value_distance(inf.email_game(eps, 0.5, 12), ck)
        for eps in (0.5, 0.2, 0.05)
    ]
    assert distances[0] > distances[1] > distances[2]


def test_email_game_validation():
    with pytest.raises(inf.InvalidParameters):
        inf.email_game(0.0, 0.5, 4)
    with pytest.raises(inf.InvalidParameters):
        inf.email_game(0.5, 1.0, 4)
    with pytest.raises(inf.InvalidParameters):
        inf.email_game(0.5, 0.5, 0)


def test_approx_knowledge_pair():
    degenerate = inf.approx_knowledge_pair(0.0)
    assert degenerate.eps_prime == pytest.approx(0.0)
    assert inf.value_distance(degenerate.u, degenerate.v) <= 1e-7

    pair = inf.approx_knowledge_pair(0.05)
    assert pair.eps_prime == pytest.approx(0.05, abs=1e-12)
    d = inf.value_distance(pair.u, pair.v)
    assert d <= 20 * pair.eps_prime + 1e-6


def test_knowledge_level_direct():
    pair = inf.approx_knowledge_pair(0.1)
    assert knowledge_level(pair.u, (0, 1), (0, 1)) == pytest.approx(0.1, abs=1e-12)
    ck = inf.common_knowledge([0.3, 0.7])
    assert knowledge_level(ck, (0, 1), (0, 1)) == pytest.approx(0.0)


@pytest.mark.parametrize(
    "kappa1, kappa2",
    [((0, 5, 1), (0, 1)), ((0, -1, 1), (0, 1)), ((0, 1), (0, 1)), ((0, 1, 1), (0, 1, 0)), ((0, 1, 1), (0.0, 1.0))],
)
def test_knowledge_level_rejects_a_bad_labelling(kappa1, kappa2):
    # u1 has 3 player-1 and 2 player-2 signals on 2 states.
    with pytest.raises(inf.ShapeMismatch):
        knowledge_level(inf.canonical_examples()["u1"], kappa1, kappa2)


def test_counterexample_f3():
    f3 = inf.counterexample_pairs()["opponent_correlation"]
    assert inf.single_agent_distance(f3["u"], f3["v"]) <= 1e-9
    assert inf.value_distance(f3["u"], f3["v"]) > 1e-3


def test_counterexample_i4():
    i4 = inf.counterexample_pairs()["split_secret"]
    assert inf.value_distance(i4["u"], i4["v"]) <= 1e-6
    g = parity_coordination_game()
    hull_u = inf.feasible_set(i4["u"], g)
    assert hull_u.contains([1.0, 1.0])


def test_counterexample_f4_xor_substitutes_violation():
    f4 = inf.counterexample_pairs()["xor_state"]
    d_with = inf.value_distance(f4["u"], f4["v"])
    d_without = inf.value_distance(f4["u_prime"], f4["v_prime"])
    assert d_with > d_without + 0.5  # conclusion of the substitutes bound reversed


def test_counterexample_f5_complements_violation():
    f5 = inf.counterexample_pairs()["signal_quality"]
    assert inf.value_distance(f5["u"], f5["v"]) <= 1e-6
    assert inf.value_distance(f5["u_prime"], f5["v_prime"]) > 1e-2


def test_uniform_support_helper():
    u = inf.uniform_support(2, 2, 2, [(0, 0, 0), (1, 1, 1)])
    assert u.probs[0, 0, 0] == pytest.approx(0.5)
    assert u.probs[1, 1, 1] == pytest.approx(0.5)


def test_uniform_support_rejects_bad_atoms():
    with pytest.raises(inf.InvalidParameters):
        inf.uniform_support(2, 1, 1, [])
    for atom in ((0, 3, 0), (2, 0, 0), (0, 0, -1)):
        with pytest.raises(inf.ShapeMismatch):
            inf.uniform_support(2, 1, 1, [atom])
