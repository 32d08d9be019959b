import itertools

import numpy as np
import pytest

import infodist as inf
from infodist import PLAYER1, PLAYER2
from infodist.config import VALUE_TOL
from infodist.games import _pure_rules, guarantee
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


def test_strategies_of_a_live_signal_of_tiny_mass():
    # Player 1's signal 0 has mass 1e-10: HiGHS sets its x block to 0
    # within its tolerance, and its strategy row is then uniform, not 0/0.
    eps = 1e-10
    probs = [[[eps / 4, eps / 4], [0.5 - eps / 2, 0.0]], [[eps / 4, eps / 4], [0.0, 0.5 - eps / 2]]]
    u = inf.validate_structure(probs)
    pennies = np.array([[1.0, -1.0], [-1.0, 1.0]])
    g = inf.ZeroSumGame(np.array([pennies, -pennies]))
    result = inf.value(u, g)
    assert result.value == pytest.approx(0.0, abs=VALUE_TOL)
    assert_optimal(u, g, result)


def test_value_leaves_out_signals_of_no_mass(rng):
    # Padding a structure with zero-mass signals for both players changes
    # nothing: the LP is posed on the live signals, so the value and the
    # live signals' strategies are the unpadded ones bit for bit, and a pad
    # plays uniformly.  Masses in 1/128ths keep every sum exact, so the two
    # structures hold the same live cells to the bit.
    for n_k, n_c, n_d, n_i, n_j in [(1, 1, 1, 2, 2), (2, 2, 3, 2, 3), (3, 3, 2, 3, 2), (2, 4, 4, 3, 3)]:
        cells = rng.integers(1, 4, (n_k, n_c, n_d)).astype(float)
        cells[0, 0, 0] += 128 - cells.sum()
        u = inf.validate_structure(cells / 128)
        # Player 1's pads come first and last, player 2's last.
        padded = np.zeros((n_k, n_c + 2, n_d + 1))
        padded[:, 1 : n_c + 1, :n_d] = u.probs
        padded = inf.validate_structure(padded)
        assert np.array_equal(padded.probs[:, 1 : n_c + 1, :n_d], u.probs)
        g = random_game(rng, n_k, n_i, n_j)
        want, have = inf.value(u, g), inf.value(padded, g)
        assert have.value == want.value
        assert np.array_equal(have.strategy1.rows[1 : n_c + 1], want.strategy1.rows)
        assert np.array_equal(have.strategy2.rows[:n_d], want.strategy2.rows)
        assert np.array_equal(have.strategy1.rows[[0, n_c + 1]], np.full((2, n_i), 1.0 / n_i))
        assert np.array_equal(have.strategy2.rows[n_d], np.full(n_j, 1.0 / n_j))


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


def _profile_payoffs(probs, payoffs):
    """(I^C, J^D) expected payoff of every pure-rule profile, by a plain loop."""
    n_k, n_c, n_d = probs.shape
    _, n_i, n_j = payoffs.shape
    rules1 = list(itertools.product(range(n_i), repeat=n_c))
    rules2 = list(itertools.product(range(n_j), repeat=n_d))
    out = np.zeros((len(rules1), len(rules2)))
    for a, s in enumerate(rules1):
        for b, t in enumerate(rules2):
            for k in range(n_k):
                for c in range(n_c):
                    for d in range(n_d):
                        out[a, b] += probs[k, c, d] * payoffs[k, s[c], t[d]]
    return out


@pytest.mark.parametrize(
    "n_k, n_c, n_d, n_i, n_j, zeros",
    [
        (2, 3, 2, 2, 3, 0.3),
        (2, 2, 3, 1, 2, 0.0),
        (3, 3, 2, 2, 1, 0.0),
        (2, 1, 3, 3, 2, 0.0),
        (2, 3, 1, 2, 3, 0.3),
        (2, 8, 2, 2, 2, 0.3),
        (2, 2, 8, 2, 2, 0.0),
    ],
    ids=["zero-cells", "one-action-1", "one-action-2", "one-signal-1", "one-signal-2", "8-signals-1", "8-signals-2"],
)
def test_pure_rule_payoffs_match_a_plain_loop(n_k, n_c, n_d, n_i, n_j, zeros):
    rng = np.random.default_rng([n_k, n_c, n_d, n_i, n_j])
    u = random_structure(rng, n_k, n_c, n_d, zeros=zeros)
    g1, g2 = rng.uniform(-1.0, 1.0, (2, n_k, n_i, n_j))
    points = np.stack([_profile_payoffs(u.probs, g).ravel() for g in (g1, g2)], axis=1)
    # Summed in another order, 8 or more signals may differ in the last place.
    tol = 1e-12 if max(n_c, n_d) >= 8 else 0.0
    hull = inf.feasible_set(u, inf.BimatrixGame(g1, g2)).vertices
    np.testing.assert_allclose(hull, inf.PayoffPolygon(points).vertices, rtol=0.0, atol=tol)
    expected, _, _ = solve_matrix_game(_profile_payoffs(u.probs, g1))
    assert inf.value_normal_form(u, inf.ZeroSumGame(g1)) == pytest.approx(expected, abs=1e-12)


def test_pure_rules_keep_the_product_order():
    for n_signals, n_actions in ((1, 1), (1, 3), (3, 2), (2, 3), (4, 1)):
        expected = list(itertools.product(range(n_actions), repeat=n_signals))
        assert _pure_rules(n_signals, n_actions).tolist() == [list(rule) for rule in expected]


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


_NO_INFO = inf.no_information([1.0])
_ZERO_GAME = inf.ZeroSumGame(np.zeros((1, 2, 2)))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: inf.ZeroSumGame(np.zeros((2, 2))), inf.ShapeMismatch),
        (lambda: inf.ZeroSumGame(np.full((1, 2, 2), np.nan)), inf.NotNormalized),
        (lambda: inf.ZeroSumGame.from_json(_ZERO_GAME.to_json().replace('"states": 1', '"states": 2')), inf.ShapeMismatch),
        (lambda: inf.BimatrixGame(np.zeros((1, 2, 2)), np.zeros((1, 2, 3))), inf.ShapeMismatch),
        (lambda: inf.value(inf.no_information([0.5, 0.5]), _ZERO_GAME), inf.ShapeMismatch),
        (lambda: inf.guarantee(_NO_INFO, _ZERO_GAME, inf.Garbling.identity(3), PLAYER2), inf.ShapeMismatch),
        (lambda: inf.guarantee(_NO_INFO, _ZERO_GAME, inf.Garbling.identity(2), "p3"), inf.ShapeMismatch),
        (lambda: inf.transport_strategy(inf.Garbling.identity(2), inf.Garbling.identity(3)), inf.ShapeMismatch),
    ],
    ids=["not-3d", "not-finite", "json-shape", "bimatrix-shapes", "value-states", "guarantee-shape", "guarantee-side", "transport"],
)
def test_malformed_game_inputs_are_rejected(call, error):
    with pytest.raises(error):
        call()


def test_game_json_round_trip(rng):
    g = random_game(rng, 2, 3, 2)
    again = inf.ZeroSumGame.from_json(g.to_json())
    assert np.array_equal(g.payoffs, again.payoffs)
    bim = inf.BimatrixGame(g.payoffs, -g.payoffs)
    again2 = inf.BimatrixGame.from_json(bim.to_json())
    assert np.array_equal(bim.payoffs2, again2.payoffs2)
