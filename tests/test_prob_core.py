from contextlib import nullcontext

import numpy as np
import pytest

import infodist as inf
from infodist import PLAYER1, PLAYER2, lp
from infodist import markov as mk
from infodist.structures import common_embedding

from conftest import random_garbling, random_structure
from workloads import catalog_members


def test_uniform_tensor_accepted():
    u = inf.validate_structure(np.full((2, 2, 2), 1 / 8))
    assert u.shape == (2, 2, 2)
    assert u.probs.sum() == pytest.approx(1.0, abs=1e-15)


def test_not_normalized_rejected():
    with pytest.raises(inf.NotNormalized):
        inf.validate_structure(np.full((2, 2, 2), 1 / 16))


def test_negative_mass_rejected():
    probs = np.full((2, 2, 2), 1 / 8)
    probs[0, 0, 0] = -1e-3
    probs[1, 1, 1] += 1e-3 + 1 / 8
    with pytest.raises(inf.NegativeMass):
        inf.validate_structure(probs)


def test_shape_and_labels_validation():
    with pytest.raises(inf.ShapeMismatch):
        inf.validate_structure(np.full((2, 2), 1 / 4))
    with pytest.raises(inf.ShapeMismatch):
        inf.validate_structure(np.full((2, 2, 2), 1 / 8), state_labels=["only-one"])


def test_canonical_examples_u1_support():
    u1 = inf.canonical_examples()["u1"]
    expected = np.zeros((2, 3, 2))
    for k, c, d in [(0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 2, 1)]:
        expected[k, c, d] = 0.25
    assert np.array_equal(u1.probs, expected)
    # conditional on both players seeing signal 0 the state is Blue
    cond = inf.conditional(u1.probs, {1: 0, 2: 0})
    assert cond[0] == pytest.approx(1.0)


def test_garble_identity_is_noop(rng):
    u = random_structure(rng, 2, 3, 2)
    out = inf.garble(u, PLAYER1, inf.Garbling.identity(3))
    assert np.allclose(out.probs, u.probs, atol=1e-15)


def test_constant_garbling_collapses_and_preserves_other_marginal(rng):
    u = random_structure(rng, 2, 3, 4)
    q = inf.Garbling.constant(4, 4, index=0)
    out = inf.garble(u, PLAYER2, q)
    assert out.probs[:, :, 1:].sum() == 0.0
    assert np.allclose(out.probs.sum(axis=2), u.probs.sum(axis=2), atol=1e-12)


def test_garble_marginal_invariance(rng):
    for _ in range(10):
        u = random_structure(rng, 3, 4, 3)
        q = random_garbling(rng, 4, 5)
        out = inf.garble(u, PLAYER1, q)
        assert np.abs(out.probs.sum(axis=1) - u.probs.sum(axis=1)).max() <= 1e-12
        assert abs(out.probs.sum() - 1.0) <= 1e-9


def test_canonical_examples_garbling_picture():
    u1 = inf.canonical_examples()["u1"]
    q1 = inf.Garbling(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))
    out = inf.garble(u1, PLAYER1, q1)
    expected = np.zeros((2, 2, 2))
    for k, c, d in [(0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1)]:
        expected[k, c, d] = 0.25
    assert np.allclose(out.probs, expected, atol=1e-15)


def test_garbling_shape_mismatch():
    u = inf.canonical_examples()["u2"]
    with pytest.raises(inf.ShapeMismatch):
        inf.garble(u, PLAYER1, inf.Garbling.identity(5))


def test_compose_with_identity():
    q = inf.Garbling(np.array([[0.25, 0.75], [0.6, 0.4], [1.0, 0.0]]))
    left = inf.compose_garblings(inf.Garbling.identity(2), q)
    right = inf.compose_garblings(q, inf.Garbling.identity(3))
    assert np.allclose(left.rows, q.rows)
    assert np.allclose(right.rows, q.rows)


def test_compose_matches_sequential_garbling(rng):
    for _ in range(5):
        u = random_structure(rng, 2, 3, 2)
        inner = random_garbling(rng, 3, 2)
        outer = random_garbling(rng, 2, 4)
        combined = inf.garble(u, PLAYER1, inf.compose_garblings(outer, inner))
        sequential = inf.garble(inf.garble(u, PLAYER1, inner), PLAYER1, outer)
        assert np.abs(combined.probs - sequential.probs).max() <= 1e-9


def test_l1_distance_basics(rng):
    u = random_structure(rng, 2, 2, 2)
    assert inf.l1_distance(u, u) == 0.0
    a = inf.validate_structure([[[1.0, 0.0]], [[0.0, 0.0]]])
    b = inf.validate_structure([[[0.0, 0.0]], [[0.0, 1.0]]])
    assert inf.l1_distance(a, b) == pytest.approx(2.0)
    with pytest.raises(inf.ShapeMismatch):
        inf.l1_distance(u, inf.canonical_examples()["u1"])


def test_l1_against_signal_swapped_structure():
    # u2'' = u2prime with both players' signals exchanged
    u1 = inf.canonical_examples()["u1"]
    u2pp = inf.uniform_support(2, 2, 2, [(0, 1, 1), (1, 1, 0)])
    a, b = common_embedding(u1, u2pp)
    assert inf.l1_distance(a, b) == pytest.approx(1.0)


def test_l1_triangle_inequality(rng):
    for _ in range(25):
        u = random_structure(rng, 2, 3, 3)
        v = random_structure(rng, 2, 3, 3)
        w = random_structure(rng, 2, 3, 3)
        assert inf.l1_distance(u, w) <= inf.l1_distance(u, v) + inf.l1_distance(v, w) + 1e-9


def test_embed_signals():
    u2 = inf.canonical_examples()["u2"]
    same = inf.embed_signals(u2, 2, 1)
    assert np.array_equal(same.probs, u2.probs)
    padded = inf.embed_signals(u2, 3, 3)
    assert padded.shape == (2, 3, 3)
    assert padded.probs.sum() == pytest.approx(1.0)
    assert np.array_equal(padded.probs[:, :2, :1], u2.probs)
    with pytest.raises(inf.ShrinkNotAllowed):
        inf.embed_signals(u2, 1, 1)


def test_embed_commutes_with_garbling(rng):
    u = random_structure(rng, 2, 3, 2)
    q = random_garbling(rng, 3, 3)
    q_padded = inf.Garbling(
        np.vstack([np.hstack([q.rows, np.zeros((3, 2))]), np.eye(5)[3:]])
    )
    via_embed = inf.garble(inf.embed_signals(u, 5, 4), PLAYER1, q_padded)
    via_garble = inf.embed_signals(inf.garble(u, PLAYER1, q), 5, 4)
    assert np.abs(via_embed.probs - via_garble.probs).max() <= 1e-12


def test_eps_ci_product_measure(rng):
    x = rng.random(3)
    y = rng.random(4)
    z = rng.random(2)
    tensor = np.einsum("x,y,z->xyz", x / x.sum(), y / y.sum(), z / z.sum())
    q = inf.ConditionalQuery((0,), (1,), (2,))
    assert inf.eps_conditional_independence(tensor, q) <= 1e-12


def test_eps_ci_perfect_correlation():
    tensor = np.zeros((2, 2))
    tensor[0, 0] = tensor[1, 1] = 0.5
    q = inf.ConditionalQuery((0,), (1,))
    assert inf.eps_conditional_independence(tensor, q) == pytest.approx(1.0)


def test_eps_ci_opponent_correlation_positive():
    u = inf.counterexample_pairs()["opponent_correlation"]["u"]
    # new signal (axis 1) against (state, opponent signal), trivially conditioned
    tensor = u.probs[:, :, None, :]  # (k, c-prime, trivial, d)
    q = inf.ConditionalQuery((1,), (0, 3), (2,))
    assert inf.eps_conditional_independence(tensor, q) > 0.1


def _eps_ci_loop(tensor, query):
    """eps_conditional_independence as a loop over the z-cells."""
    order = query.x_axes + query.y_axes + query.z_axes
    size = lambda axes: int(np.prod([tensor.shape[a] for a in axes]))
    flat = tensor.transpose(order).reshape(size(query.x_axes), size(query.y_axes), size(query.z_axes))
    pz = flat.sum(axis=(0, 1))
    total = 0.0
    for z in range(flat.shape[2]):
        if pz[z] < 1e-12:
            continue
        joint = flat[:, :, z] / pz[z]
        product = np.outer(joint.sum(axis=1), joint.sum(axis=0))
        total += pz[z] * np.abs(joint - product).sum()
    return float(total)


def test_eps_ci_adds_as_the_loop_over_z_cells(rng):
    # Bit for bit: on random tensors with random axis groups (z possibly
    # empty, cells possibly zero), and on every catalog-sweep structure with
    # the signals-given-state query that distance._collapses asks.
    cases = []
    for _ in range(300):
        shape = tuple(int(n) for n in rng.integers(1, 5, rng.integers(2, 5)))
        tensor = rng.random(shape) * (rng.random(shape) < 0.8)
        tensor.flat[0] += 1.0
        axes = [int(a) for a in rng.permutation(len(shape))]
        nx = int(rng.integers(1, len(shape)))
        ny = int(rng.integers(1, len(shape) - nx + 1))
        query = inf.ConditionalQuery(tuple(axes[:nx]), tuple(axes[nx : nx + ny]), tuple(axes[nx + ny :]))
        cases.append((tensor / tensor.sum(), query))
    # Larger slices, laid out column-major in the loop when the queried
    # axes run against the tensor's order, so their sums split into blocks.
    for _ in range(40):
        tensor = rng.random((int(rng.integers(10, 40)), int(rng.integers(10, 40)), 2))
        for query in (inf.ConditionalQuery((1,), (0,), (2,)), inf.ConditionalQuery((1,), (0, 2))):
            cases.append((tensor / tensor.sum(), query))
    signals_given_state = inf.ConditionalQuery((1,), (2,), (0,))
    for _, generate, _, _ in catalog_members():
        cases += [(u.probs, signals_given_state) for u in generate()]
    for tensor, query in cases:
        assert inf.eps_conditional_independence(tensor, query) == _eps_ci_loop(tensor, query)


def test_eps_ci_query_validation():
    with pytest.raises(inf.ShapeMismatch):
        inf.eps_conditional_independence(
            np.full((2, 2), 0.25), inf.ConditionalQuery((0,), (0, 1))
        )


def test_marginalize_and_conditional():
    uniform = np.full((2, 2, 2), 1 / 8)
    assert np.allclose(inf.marginalize(uniform, (0, 1)), np.full((2, 2), 0.25))
    u2 = inf.canonical_examples()["u2"]
    assert np.allclose(inf.marginalize(u2.probs, (0,)), [0.5, 0.5])
    with pytest.raises(inf.ZeroMassCondition):
        inf.conditional(u2.probs, {1: 0, 2: 0, 0: 1})
    for value in (5, -1):
        with pytest.raises(inf.ShapeMismatch):
            inf.conditional(u2.probs, {0: value})


def test_constant_garbling_rejects_an_index_out_of_range():
    for index in (5, 2, -1):
        with pytest.raises(inf.ShapeMismatch):
            inf.Garbling.constant(2, 2, index)


def test_marginalize_axis_order():
    u1 = inf.canonical_examples()["u1"]
    swapped = inf.marginalize(u1.probs, (2, 0))
    assert swapped.shape == (2, 2)
    assert np.allclose(swapped, u1.probs.sum(axis=1).T)


def test_structure_json_round_trip(rng):
    u = random_structure(rng, 3, 2, 4)
    again = inf.InformationStructure.from_json(u.to_json())
    assert np.array_equal(u.probs, again.probs)
    assert u.state_labels == again.state_labels


def test_garbling_json_round_trip(rng):
    q = random_garbling(rng, 3, 2)
    again = inf.Garbling.from_json(q.to_json())
    assert np.array_equal(q.rows, again.rows)


@pytest.mark.parametrize(
    "load, text, error",
    [
        (inf.InformationStructure.from_json, "not json", inf.InvalidParameters),
        (inf.InformationStructure.from_json, '{"states": 2, "signals1": 1}', inf.InvalidParameters),
        (inf.InformationStructure.from_json, "[[[1.0]]]", inf.InvalidParameters),
        (inf.InformationStructure.from_json, '{"states": 1, "probs": [[[1.0]]]}', inf.InvalidParameters),
        (inf.InformationStructure.from_json, '{"probs": [[[0.5]], [[0.25, 0.25]]]}', inf.ShapeMismatch),
        (inf.InformationStructure.from_json, '{"probs": [[["a"]]]}', inf.ShapeMismatch),
        (inf.Garbling.from_json, '{"source": 1, "rows": [[1.0]]}', inf.InvalidParameters),
        (inf.ZeroSumGame.from_json, '{"states": 1, "actions1": 1, "actions2": 1}', inf.InvalidParameters),
        (inf.ZeroSumGame.from_json, "{", inf.InvalidParameters),
        (inf.BimatrixGame.from_json, '{"payoffs1": [[[1.0]]], "payoffs2": [[[1.0]], [1.0]]}', inf.ShapeMismatch),
        (inf.BimatrixGame.from_json, '{"payoffs1": [[[1.0]]]}', inf.InvalidParameters),
    ],
)
def test_from_json_rejects_malformed_input(load, text, error):
    with pytest.raises(error):
        load(text)


@pytest.mark.parametrize(
    "call, error",
    [
        ("mk.chain_structure(world, 1.5)", inf.InvalidParameters),
        ("mk.revelation_game(world, 1.5)", inf.InvalidParameters),
        ("mk.truthful_guarantee(world, 2, 1.5)", inf.InvalidParameters),
        ("mk.truthful_strategy(world, 1.5, 1, PLAYER1)", inf.InvalidParameters),
        ("mk.nice_sequences(world, 1.5)", inf.InvalidParameters),
        ("mk.check_mixing(world, 1.5)", inf.InvalidParameters),
        ("mk.check_mixing(world, 1, sample_budget=1.5)", inf.InvalidParameters),
        ("mk.concentration_report(world.matrix, sample_budget=1.5)", inf.InvalidParameters),
        ("mk.concentration_report(world.matrix, sample_budget=10, seed=-1)", inf.InvalidParameters),
        ("mk.concentration_report(world.matrix, sample_budget=10, seed=1.5)", inf.InvalidParameters),
        ("inf.ladder_structure(1.5)", inf.InvalidParameters),
        ("inf.email_game(0.1, 0.5, 2.5)", inf.InvalidParameters),
        ("inf.blackwell_structure(inf.BlackwellSpec(1.5, 0, 0.7, 0.7))", inf.InvalidParameters),
        ("inf.embed_signals(u, 1.5, 1)", inf.InvalidParameters),
        ("inf.conditional(u.probs, {0: 1.5})", inf.ShapeMismatch),
        ("inf.conditional(u.probs, {1.5: 0})", inf.ShapeMismatch),
        ("inf.blackwell_d1_closed_form(np.int64(3), 1, 0.75)", None),
        ("mk.sample_S(np.int64(4), np.int64(0))", None),
    ],
)
def test_integer_parameters_are_checked(call, error):
    # A non-integer or a too small integer is a domain error; numpy
    # integers are integers.
    world = mk.MarkovWorld(mk.sample_S(4, 0))
    u = inf.validate_structure(np.full((2, 2, 2), 1 / 8))
    with pytest.raises(error) if error else nullcontext():
        eval(call)


def test_structures_immutable(rng):
    u = random_structure(rng, 2, 2, 2)
    with pytest.raises(ValueError):
        u.probs[0, 0, 0] = 1.0


def _value_pairs():
    """Two objects of each value type holding equal arrays, built apart."""
    probs = np.full((2, 2, 2), 1 / 8)
    payoffs = np.zeros((2, 2, 2))
    one = np.ones(1)
    makers = {
        "InformationStructure": lambda: inf.validate_structure(probs),
        "Garbling": lambda: inf.Garbling.identity(2),
        "ZeroSumGame": lambda: inf.ZeroSumGame(payoffs),
        "BimatrixGame": lambda: inf.BimatrixGame(payoffs, payoffs),
        "StateDistribution": lambda: inf.StateDistribution([0.5, 0.5]),
        "PayoffPolygon": lambda: inf.PayoffPolygon([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        "MixingMatrix": lambda: inf.MixingMatrix(np.eye(2, dtype=bool)),
        "LpProblem": lambda: lp.LpProblem(one, [0], [0], one, one, one, one - 1, one),
        "LpSolution": lambda: lp.LpSolution(lp.OPTIMAL, one, one, 1.0),
    }
    return [pytest.param(make(), make(), id=name) for name, make in makers.items()]


@pytest.mark.parametrize("x, copy", _value_pairs())
def test_value_types_compare_and_hash_by_identity(x, copy):
    # Equal content, distinct objects: == is `is`, and both can key a dict.
    assert x == x
    assert (x == copy) is False
    assert x != copy
    assert x not in [copy]
    assert len({x, copy}) == 2
    table = {x: "x", copy: "copy"}
    assert table[x] == "x" and table[copy] == "copy"


def test_containers_of_value_types_compare_field_by_field():
    u, v = inf.canonical_examples()["u1"], inf.canonical_examples()["u2"]
    pair = inf.ApproxKnowledgePair(u, v, 0.1)
    assert pair == inf.ApproxKnowledgePair(u, v, 0.1)
    assert pair != inf.ApproxKnowledgePair(inf.validate_structure(u.probs), v, 0.1)
    q = inf.Garbling.identity(2)
    cert = inf.GapCertificate(0.0, q, q, "d")
    assert cert == inf.GapCertificate(0.0, q, q, "d")
    assert cert != inf.GapCertificate(0.0, q, inf.Garbling.identity(2), "d")
