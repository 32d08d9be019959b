import numpy as np
import pytest

import infodist as inf
from infodist import PLAYER1, PLAYER2
from infodist.config import VALUE_TOL
from infodist.games import guarantee
from infodist.lp import solve_matrix_game

from conftest import random_game, random_garbling, random_structure

CANONICAL_GAME = inf.ZeroSumGame(
    np.array([[[0.0, 1.0], [0.0, -1.0]], [[-1.0, 0.0], [1.0, 0.0]]])
)


def test_constant_game_value(rng):
    g = inf.ZeroSumGame(np.full((2, 2, 3), 0.3))
    for _ in range(3):
        u = random_structure(rng, 2, 2, 2)
        assert inf.value(u, g).value == pytest.approx(0.3, abs=1e-9)


def test_canonical_examples_values():
    cat = inf.canonical_examples()
    assert inf.value(cat["u2"], CANONICAL_GAME).value == pytest.approx(0.5, abs=1e-9)
    assert inf.value(cat["u1"], CANONICAL_GAME).value == pytest.approx(0.0, abs=1e-9)


def test_no_information_reduces_to_average_matrix_game(rng):
    for _ in range(10):
        pk = rng.random(2) + 0.1
        pk /= pk.sum()
        g = random_game(rng, 2, 2, 2)
        u = inf.no_information(pk)
        averaged = np.einsum("k,kij->ij", pk, g.payoffs)
        expected, _, _ = solve_matrix_game(averaged)
        assert inf.value(u, g).value == pytest.approx(expected, abs=1e-7)


def assert_optimal(u, g, result):
    """Both returned strategies guarantee the value within VALUE_TOL."""
    low = guarantee(u, g, result.strategy1, PLAYER1)
    high = guarantee(u, g, result.strategy2, PLAYER2)
    assert low >= result.value - VALUE_TOL and high <= result.value + VALUE_TOL, (
        f"strategies miss the value: {low:.9f} <= {result.value:.9f} <= {high:.9f}"
    )


def test_strategies_are_optimal(rng):
    for _ in range(10):
        u = random_structure(rng, 2, 3, 2)
        g = random_game(rng, 2, 2, 3)
        assert_optimal(u, g, inf.value(u, g))


def test_brute_force_oracle_small(rng):
    for _ in range(10):
        u = random_structure(rng, 2, 3, 2)
        g = random_game(rng, 2, 2, 3)
        lp_value = inf.value(u, g).value
        brute = inf.value_normal_form(u, g)
        assert lp_value == pytest.approx(brute, abs=1e-6)


def test_normal_form_partial_enumeration_path(rng):
    # 3 x 2 signals enumerate player 2's rules, 2 x 3 player 1's.
    for n_c, n_d in ((3, 2), (2, 3)):
        u = random_structure(rng, 2, n_c, n_d)
        g = random_game(rng, 2, 2, 2)
        full = inf.value_normal_form(u, g)
        # force the smaller-side enumeration branch
        partial = inf.value_normal_form(u, g, budget=30)
        assert full == pytest.approx(partial, abs=1e-7)
        with pytest.raises(inf.BudgetExceeded):
            inf.value_normal_form(u, g, budget=2)


def test_garbling_monotonicity(rng):
    for _ in range(10):
        u = random_structure(rng, 2, 3, 3)
        g = random_game(rng, 2, 2, 2)
        base = inf.value(u, g).value
        worse1 = inf.garble(u, PLAYER1, random_garbling(rng, 3, 2))
        worse2 = inf.garble(u, PLAYER2, random_garbling(rng, 3, 2))
        assert inf.value(worse1, g).value <= base + 1e-7
        assert inf.value(worse2, g).value >= base - 1e-7


def test_value_lipschitz_in_structure(rng):
    from infodist.structures import common_embedding

    for _ in range(10):
        u = random_structure(rng, 2, 3, 2)
        v = random_structure(rng, 2, 3, 2)
        g = random_game(rng, 2, 2, 2)
        gap = abs(inf.value(u, g).value - inf.value(v, g).value)
        a, b = common_embedding(u, v)
        assert gap <= inf.l1_distance(a, b) + 1e-7


def test_guarantee_of_optimal_strategy_matches_value(rng):
    u = random_structure(rng, 2, 3, 2)
    g = random_game(rng, 2, 2, 2)
    result = inf.value(u, g)
    low = inf.guarantee(u, g, result.strategy1, PLAYER1)
    high = inf.guarantee(u, g, result.strategy2, PLAYER2)
    assert low == pytest.approx(result.value, abs=1e-7)
    assert high == pytest.approx(result.value, abs=1e-7)


def test_uniform_mixing_in_matching_pennies():
    pennies = inf.ZeroSumGame(np.array([[[1.0, -1.0], [-1.0, 1.0]]]))
    u = inf.no_information([1.0])
    uniform = inf.Garbling(np.full((1, 2), 0.5))
    assert inf.guarantee(u, pennies, uniform, PLAYER1) == pytest.approx(0.0, abs=1e-12)
    assert inf.guarantee(u, pennies, uniform, PLAYER2) == pytest.approx(0.0, abs=1e-12)


def test_guarantee_shape_validation(rng):
    u = random_structure(rng, 2, 3, 2)
    g = random_game(rng, 2, 2, 2)
    with pytest.raises(inf.ShapeMismatch):
        inf.guarantee(u, g, inf.Garbling.identity(2), PLAYER1)


def test_transport_through_identity_and_deltas():
    sigma = inf.Garbling(np.array([[0.2, 0.8], [1.0, 0.0]]))
    assert np.allclose(
        inf.transport_strategy(sigma, inf.Garbling.identity(2)).rows, sigma.rows
    )
    delta_strategy = inf.Garbling(np.array([[1.0, 0.0], [0.0, 1.0]]))
    delta_garbling = inf.Garbling(np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]))
    moved = inf.transport_strategy(delta_strategy, delta_garbling)
    assert np.allclose(moved.rows, [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])


def test_transported_strategy_near_optimality(rng):
    for _ in range(5):
        u = random_structure(rng, 2, 3, 2)
        v = random_structure(rng, 2, 2, 3)
        g = random_game(rng, 2, 3, 3)
        cert = inf.one_sided_gap(u, v)
        d = inf.value_distance(u, v)
        sigma_v = inf.value(v, g).strategy1
        transported = inf.transport_strategy(sigma_v, cert.q1)
        achieved = inf.guarantee(u, g, transported, PLAYER1)
        assert achieved >= inf.value(u, g).value - 2.0 * d - 1e-6


def test_minmax_levels():
    zero = inf.BimatrixGame(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))
    u = inf.canonical_examples()["u2"]
    assert inf.minmax_levels(u, zero) == pytest.approx((0.0, 0.0), abs=1e-9)

    payoff = np.array([[[0.4, -0.2], [0.1, 0.3]], [[-0.5, 0.2], [0.0, 0.1]]])
    common = inf.BimatrixGame(payoff, payoff)
    m1, m2 = inf.minmax_levels(u, common)
    assert m1 == pytest.approx(inf.value(u, inf.ZeroSumGame(payoff)).value, abs=1e-9)
    assert m2 == pytest.approx(
        -inf.value(u, inf.ZeroSumGame(-payoff)).value, abs=1e-9
    )


def test_i4_coordination_minmax_is_zero():
    from infodist.catalog import parity_coordination_game

    v = inf.counterexample_pairs()["split_secret"]["v"]
    m1, m2 = inf.minmax_levels(v, parity_coordination_game())
    assert m1 == pytest.approx(0.0, abs=1e-9)
    assert m2 == pytest.approx(0.0, abs=1e-9)


def test_payoff_bound_validation():
    with pytest.raises(inf.NotNormalized):
        inf.ZeroSumGame(np.full((1, 1, 1), 1.5))


def test_game_json_round_trip(rng):
    g = random_game(rng, 2, 3, 2)
    again = inf.ZeroSumGame.from_json(g.to_json())
    assert np.array_equal(g.payoffs, again.payoffs)
    bim = inf.BimatrixGame(g.payoffs, -g.payoffs)
    again2 = inf.BimatrixGame.from_json(bim.to_json())
    assert np.array_equal(bim.payoffs2, again2.payoffs2)
