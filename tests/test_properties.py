"""Property tests over generated structures."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hierarchy_oracle as oracle
import infodist as inf
from infodist.config import DIST_TOL, VALUE_TOL, WITNESS_TOL
from infodist.hierarchy import is_redundant
from infodist.structures import common_embedding

# Cells are 0 or at least 0.05, so a generated structure is no worse
# conditioned than the seeded random pairs the other tests use.
_CELL = st.one_of(st.just(0.0), st.floats(0.05, 1.0))


@st.composite
def raw_pairs(draw):
    """Two raw tensors on 2-4 states with 1-5 signals per player."""
    n_k = draw(st.integers(2, 4))
    signals = st.integers(1, 5)
    pair = []
    for _ in range(2):
        shape = (n_k, draw(signals), draw(signals))
        probs = draw(hnp.arrays(float, shape, elements=_CELL))
        if probs.sum() == 0.0:
            probs[0, 0, 0] = 1.0
        pair.append(probs / probs.sum())
    return pair


def _fresh(raw_u, raw_v):
    return inf.validate_structure(raw_u), inf.validate_structure(raw_v)


@given(raw_pairs())
def test_shared_gap_solve_matches_fresh_solves(pair):
    # Calls on the same objects share one gap solve; each answer must be
    # bit-identical to a solve on freshly validated copies of the inputs.
    raw_u, raw_v = pair
    u, v = _fresh(raw_u, raw_v)
    d = inf.value_distance(u, v)
    game = inf.witness_game(u, v)
    ok, _ = inf.is_better(u, v)
    cert = inf.one_sided_gap(u, v)

    fresh_cert = inf.one_sided_gap(*_fresh(raw_u, raw_v))
    fresh_game = inf.witness_game(*_fresh(raw_u, raw_v))
    assert cert.gap == fresh_cert.gap
    assert np.array_equal(cert.q1.rows, fresh_cert.q1.rows)
    assert np.array_equal(cert.q2.rows, fresh_cert.q2.rows)
    assert np.array_equal(game.payoffs, fresh_game.payoffs)
    assert d == inf.value_distance(*_fresh(raw_u, raw_v))
    assert ok == (cert.gap <= DIST_TOL)

    assert abs(cert.recheck(u, v) - cert.gap) <= DIST_TOL
    back = inf.one_sided_gap(v, u)
    assert abs(back.recheck(v, u) - back.gap) <= DIST_TOL
    assert d == max(cert.gap, back.gap)
    u_emb, v_emb = common_embedding(u, v)
    achieved = inf.value(v_emb, game).value - inf.value(u_emb, game).value
    assert abs(achieved - cert.gap) <= WITNESS_TOL


@given(raw_pairs())
def test_witness_bracket_holds_the_achieved_gap(pair):
    # Weak duality: the identity strategies bound the witness's gap from
    # below and the garblings bound every game's gap from above.  The
    # bracket must hold the gap the value LPs compute and sit within
    # WITNESS_TOL of the LP gap.
    u, v = _fresh(*pair)
    cert = inf.one_sided_gap(u, v)
    game = inf.witness_game(u, v)
    u_emb, v_emb = common_embedding(u, v)
    _, l1, l2 = game.payoffs.shape
    lower = inf.guarantee(v_emb, game, inf.Garbling.identity(l1), inf.PLAYER1) - inf.guarantee(
        u_emb, game, inf.Garbling.identity(l2), inf.PLAYER2
    )
    upper = cert.recheck(u, v)
    achieved = inf.value(v_emb, game).value - inf.value(u_emb, game).value
    assert lower - VALUE_TOL <= achieved <= upper + VALUE_TOL
    assert max(upper - cert.gap, cert.gap - lower) <= WITNESS_TOL
    assert inf.value_distance(u, v) <= inf.l1_distance(u_emb, v_emb) + DIST_TOL


@st.composite
def games_on_structures(draw):
    """A structure on 2-3 states with 1-3 signals per player and a game with
    1-3 actions per player, small enough for the normal-form oracle."""
    n_k = draw(st.integers(2, 3))
    small = st.integers(1, 3)
    probs = draw(hnp.arrays(float, (n_k, draw(small), draw(small)), elements=_CELL))
    if probs.sum() == 0.0:
        probs[0, 0, 0] = 1.0
    payoffs = draw(hnp.arrays(float, (n_k, draw(small), draw(small)), elements=st.floats(-1.0, 1.0)))
    return inf.validate_structure(probs / probs.sum()), inf.ZeroSumGame(payoffs)


@given(games_on_structures(), st.booleans())
def test_value_matches_the_normal_form_oracle(pair, partial):
    # The behavioral LP against the pure-rule normal form; ``partial`` caps
    # the budget at the smaller side's rule count, which enumerates that
    # side only and decomposes the other per signal.
    u, g = pair
    rules1 = g.actions1_count**u.signals1_count
    rules2 = g.actions2_count**u.signals2_count
    budget = min(rules1, rules2) if partial else None
    assert abs(inf.value(u, g).value - inf.value_normal_form(u, g, budget=budget)) <= VALUE_TOL


@st.composite
def redundant_structures(draw, tiny=True):
    """A structure on 2-3 states with 1-6 signals per player, where each
    signal after a player's first may be a proportional copy of an earlier
    one of the same player, have zero mass, or (with ``tiny``) have a
    positive mass below ZERO_TOL."""
    n_k = draw(st.integers(2, 3))
    shape = (n_k, draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    probs = draw(hnp.arrays(float, shape, elements=_CELL))
    kinds = ("free", "copy", "zero", "tiny") if tiny else ("free", "copy", "zero")
    for signals in (probs, probs.transpose(0, 2, 1)):  # a view: writes reach probs
        for s in range(1, signals.shape[1]):
            kind = draw(st.sampled_from(kinds))
            if kind == "copy":
                source = draw(st.integers(0, s - 1))
                signals[:, s] = draw(st.floats(0.1, 4.0)) * signals[:, source]
            elif kind == "zero":
                signals[:, s] = 0.0
            elif kind == "tiny":
                signals[:, s] *= 1e-14
    if probs.sum() == 0.0:
        probs[0, 0, 0] = 1.0
    return inf.validate_structure(probs / probs.sum())


@given(redundant_structures(tiny=False))
def test_partition_matches_the_oracle(u):
    # The array refinement against the dict-signature loops it replaced:
    # the same classes, numbered the same, at the same level.  (The loops
    # also count cells on signals of positive mass below ZERO_TOL, which
    # the refinement takes as absent, so such signals are left out here.)
    assert inf.hierarchy_partition(u) == oracle.hierarchy_partition(u)


@settings(max_examples=8)
@given(redundant_structures(tiny=False))
def test_exact_partition_matches_the_oracle(u):
    assert inf.hierarchy_partition(u, exact=True) == oracle.hierarchy_partition(u, exact=True)


@given(redundant_structures())
def test_reduce_redundancy_is_value_equivalent_and_idempotent(u):
    # ROADMAP item 5: d(u, reduce(u)) <= DIST_TOL, and the reduced
    # structure is non-redundant, so reducing it again leaves it as it is,
    # up to the renormalization every new structure gets (its total of n
    # cells is off 1 by at most n rounding errors).
    reduced = inf.reduce_redundancy(u)
    assert inf.value_distance(u, reduced) <= DIST_TOL
    assert not is_redundant(reduced)
    again = inf.reduce_redundancy(reduced)
    assert again.shape == reduced.shape
    eps = np.finfo(float).eps
    np.testing.assert_allclose(again.probs, reduced.probs, rtol=reduced.probs.size * eps, atol=0)
