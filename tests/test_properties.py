"""Property tests over generated structures."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import infodist as inf
from infodist.config import DIST_TOL, VALUE_TOL, WITNESS_TOL
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


@settings(max_examples=40, deadline=None)
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


@settings(max_examples=40, deadline=None)
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
