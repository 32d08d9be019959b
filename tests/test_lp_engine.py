import numpy as np
import pytest

from infodist import lp

from conftest import random_game, random_structure


def _one_variable_problem(objective, rows, maximize):
    """Problem in x >= 0 with rows ``coefficient * x <= rhs``."""
    return lp.LpProblem(
        objective=[objective],
        row_idx=np.arange(len(rows)),
        col_idx=np.zeros(len(rows), dtype=int),
        coefficients=[coefficient for coefficient, _ in rows],
        senses=(lp.LEQ,) * len(rows),
        rhs=[rhs for _, rhs in rows],
        bounds=((0.0, None),),
        maximize=maximize,
    )


def _simple_problem(scale=1.0):
    return _one_variable_problem(scale, [(1.0, 3.0)], maximize=True)


def test_bounded_maximum():
    sol = lp.solve(_simple_problem())
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert sol.primal[0] == pytest.approx(3.0, abs=1e-9)
    # shadow price of the binding constraint
    assert sol.dual[0] == pytest.approx(1.0, abs=1e-8)


def test_infeasible_detected():
    sol = lp.solve(_one_variable_problem(0.0, [(1.0, -1.0)], maximize=False))
    assert sol.status == lp.INFEASIBLE


def test_unbounded_detected():
    sol = lp.solve(_one_variable_problem(1.0, [], maximize=True))
    assert sol.status == lp.UNBOUNDED


def test_matching_pennies_matrix_game():
    value, x, y = lp.solve_matrix_game(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert value == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(x, [0.5, 0.5], atol=1e-8)
    assert np.allclose(y, [0.5, 0.5], atol=1e-8)


def test_deterministic_resolve(rng):
    matrix = rng.uniform(-1, 1, (6, 5))
    first = lp.solve_matrix_game(matrix)
    second = lp.solve_matrix_game(matrix)
    assert first[0] == second[0]
    assert np.array_equal(first[1], second[1])
    assert np.array_equal(first[2], second[2])


def test_scale_invariance_of_argmax():
    a = _simple_problem(1.0)
    b = _simple_problem(2.0)
    xa = lp.solve(a).primal
    xb = lp.solve(b).primal
    assert np.abs(xa - xb).max() <= 1e-7


def test_complementary_slackness(rng):
    for _ in range(10):
        matrix = rng.uniform(-1, 1, (4, 4))
        # Variables (v, x_1..x_4); max v s.t. v <= x.A[:, j], sum x = 1.
        problem = lp.LpProblem(
            objective=[1.0, 0.0, 0.0, 0.0, 0.0],
            row_idx=np.concatenate((np.repeat(np.arange(4), 5), np.full(4, 4))),
            col_idx=np.concatenate((np.tile(np.arange(5), 4), 1 + np.arange(4))),
            coefficients=np.concatenate(
                (np.column_stack((np.ones(4), -matrix.T)).ravel(), np.ones(4))
            ),
            senses=(lp.LEQ,) * 4 + (lp.EQ,),
            rhs=[0.0, 0.0, 0.0, 0.0, 1.0],
            bounds=((None, None),) + ((0.0, None),) * 4,
            maximize=True,
        )
        sol = lp.solve(problem)
        assert sol.status == lp.OPTIMAL
        assert lp.complementary_slackness(problem, sol) <= 1e-7


def test_value_duality_through_player_swap(rng):
    # Independent check of dual consistency: the same Bayesian game solved
    # from player 2's perspective has the negated value.
    from infodist import ZeroSumGame, value

    for _ in range(10):
        u = random_structure(rng, 2, 3, 3)
        g = random_game(rng, 2, 3, 2)
        direct = value(u, g).value
        swapped_structure = np.transpose(u.probs, (0, 2, 1))
        swapped_game = -np.transpose(g.payoffs, (0, 2, 1))
        import infodist

        mirrored = value(
            infodist.validate_structure(swapped_structure), ZeroSumGame(swapped_game)
        ).value
        assert direct == pytest.approx(-mirrored, abs=1e-7)
