"""Property tests over generated structures."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import gap_oracle
import hierarchy_oracle as oracle
import infodist as inf
from infodist import distance, hierarchy
from infodist.config import DIST_TOL, VALUE_TOL, WITNESS_TOL, ZERO_TOL
from infodist.hierarchy import NULL_CLASS, is_redundant
from infodist.structures import common_embedding

# Cells are 0 or at least 0.05, so a generated structure is no worse
# conditioned than the seeded random pairs the other tests use.
_CELL = st.one_of(st.just(0.0), st.floats(0.05, 1.0))


def _tiny_signal(draw, probs):
    """The normalized ``probs``, in which one player's signal may be scaled
    to a mass in (ZERO_TOL, 1e-8]: live, yet small enough that HiGHS may
    set its multipliers to 0 within its tolerance."""
    if not draw(st.booleans()):
        return probs
    axis = draw(st.sampled_from((1, 2)))
    live = np.flatnonzero(probs.sum(axis=(0, 3 - axis)))
    if live.size < 2:
        return probs
    index = (slice(None),) * axis + (draw(st.sampled_from(live)),)
    mass = probs[index].sum()
    target = 10.0 ** draw(st.floats(-11.9, -8.0))
    probs[index] *= target * (1.0 - mass) / ((1.0 - target) * mass)
    return probs / probs.sum()


@st.composite
def raw_pairs(draw, count=2, tiny=False):
    """``count`` raw tensors (two by default) on 2-4 states with 1-5
    signals per player; with ``tiny``, each may have a signal of mass in
    (ZERO_TOL, 1e-8] (see ``_tiny_signal``)."""
    n_k = draw(st.integers(2, 4))
    signals = st.integers(1, 5)
    pair = []
    for _ in range(count):
        shape = (n_k, draw(signals), draw(signals))
        probs = draw(hnp.arrays(float, shape, elements=_CELL))
        if probs.sum() == 0.0:
            probs[0, 0, 0] = 1.0
        probs /= probs.sum()
        pair.append(_tiny_signal(draw, probs) if tiny else probs)
    return pair


def _fresh(raw_u, raw_v):
    return inf.validate_structure(raw_u), inf.validate_structure(raw_v)


@given(raw_pairs(tiny=True))
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


@given(raw_pairs(tiny=True))
def test_witness_bracket_holds_the_achieved_gap(pair):
    # Weak duality: the identity strategies bound the witness's gap from
    # below and the garblings bound every game's gap from above.  The
    # bracket must hold the gap the value LPs compute and sit within
    # WITNESS_TOL of the LP gap.
    u, v = _fresh(*pair)
    cert = inf.one_sided_gap(u, v)
    game = inf.witness_game(u, v)
    _, l1, l2 = game.payoffs.shape
    lower = inf.guarantee(v, game, inf.Garbling.identity(l1), inf.PLAYER1) - inf.guarantee(
        u, game, inf.Garbling.identity(l2), inf.PLAYER2
    )
    upper = cert.recheck(u, v)
    achieved = inf.value(v, game).value - inf.value(u, game).value
    assert lower - VALUE_TOL <= achieved <= upper + VALUE_TOL
    assert max(upper - cert.gap, cert.gap - lower) <= WITNESS_TOL
    u_emb, v_emb = common_embedding(u, v)
    assert inf.value_distance(u, v) <= inf.l1_distance(u_emb, v_emb) + DIST_TOL


def _filled(shape, fill, cells):
    """A tensor of ``fill`` but for the ``cells`` {index: value}, normalized."""
    probs = np.full(shape, float(fill))
    for index, value in cells.items():
        probs[index] = value
    return probs / probs.sum()


# On u -> v, HiGHS's reported objective of the plain LP is 2.3e-12 off the
# optimum, within its tolerance; the vertex of its basis is not.
_PLAIN_LP_OVERSHOOT = [
    _filled((4, 5, 5), 999990, {
        (0, 1, 2): 690777, (0, 2, 3): 765954, (0, 2, 4): 728886, (0, 3, 0): 980975,
        (0, 3, 1): 0, (1, 1, 1): 463481, (1, 2, 3): 50000, (1, 4, 3): 0, (2, 0, 4): 0,
        (2, 1, 2): 778778, (2, 2, 2): 83419, (2, 2, 4): 0, (2, 4, 3): 0,
        (2, 4, 4): 619152, (3, 0, 4): 0, (3, 1, 1): 1000000, (3, 2, 0): 0,
        (3, 4, 1): 50000, (3, 4, 3): 619152,
    }),
    _filled((4, 5, 3), 737551, {
        (0, 1, 0): 202888, (0, 2, 0): 327948, (0, 2, 2): 379733, (0, 4, 0): 0,
        (1, 0, 1): 929031, (1, 0, 2): 0, (1, 1, 1): 1000000, (1, 1, 2): 395176,
        (1, 2, 0): 759550, (1, 2, 1): 0, (1, 2, 2): 0, (1, 3, 2): 566960,
        (2, 0, 0): 250913, (2, 2, 0): 590777, (2, 2, 1): 118096, (3, 3, 0): 0,
        (3, 3, 1): 202888, (3, 3, 2): 0, (3, 4, 0): 0, (3, 4, 2): 0,
    }),
]


@given(raw_pairs())
@example(_PLAIN_LP_OVERSHOOT)
def test_gap_matches_the_common_embedding_lp(pair):
    # The gap LP on the garblings' natural shapes, scaled by signal mass,
    # has the optimum of the plain LP on the common embedding.  q1 maps u's
    # player-1 signals to v's, q2 v's player-2 signals to u's, and the
    # witness's actions are v's player-1 and u's player-2 signals.
    u, v = _fresh(*pair)
    for a, b in ((u, v), (v, u)):
        cert = inf.one_sided_gap(a, b)
        assert abs(cert.gap - gap_oracle.plain_gap(a, b)) <= 1e-12
        assert cert.q1.rows.shape == (a.signals1_count, b.signals1_count)
        assert cert.q2.rows.shape == (b.signals2_count, a.signals2_count)
        game = inf.witness_game(a, b)
        assert game.payoffs.shape == (a.state_count, b.signals1_count, a.signals2_count)


@st.composite
def ci_pairs(draw):
    """Two structures on 2-4 states whose signals are conditionally
    independent given the state, with one (state, player-2 signal)
    marginal and different player-1 signal counts.  Conditional cells may
    be 0, so a signal may have no mass at all."""
    n_k = draw(st.integers(2, 4))
    counts = draw(st.lists(st.integers(1, 5), min_size=2, max_size=2, unique=True))
    n2 = draw(st.integers(2, 4))

    def conditional(n):
        rows = draw(hnp.arrays(float, (n_k, n), elements=_CELL))
        rows[rows.sum(axis=1) == 0.0, 0] = 1.0
        return rows / rows.sum(axis=1, keepdims=True)

    states = draw(hnp.arrays(float, n_k, elements=st.floats(0.05, 1.0)))
    states /= states.sum()
    d_given_k = conditional(n2)
    return tuple(
        inf.validate_structure(np.einsum("k,kc,kd->kcd", states, conditional(n1), d_given_k))
        for n1 in counts
    )


@given(ci_pairs())
def test_ci_pairs_with_one_player2_marginal_solve_the_single_agent_lp(pair):
    # Both gaps come from the LP on the player-1 marginals, lifted: q2 is
    # the identity and the witness ignores player 2's action.  The lifted
    # answers must be the full LP's and pass every check against u and v.
    u, v = pair
    for a, b in ((u, v), (v, u)):
        cert = inf.one_sided_gap(a, b)
        assert distance._collapses(a, b)
        assert abs(cert.gap - gap_oracle.plain_gap(a, b)) <= 1e-9
        assert abs(cert.recheck(a, b) - cert.gap) <= DIST_TOL
        assert np.array_equal(cert.q2.rows, np.eye(a.signals2_count))
        game = inf.witness_game(a, b)
        assert game.payoffs.shape == (a.state_count, b.signals1_count, a.signals2_count)
        assert (game.payoffs == game.payoffs[:, :, :1]).all()
        achieved = inf.value(b, game).value - inf.value(a, game).value
        assert abs(achieved - cert.gap) <= WITNESS_TOL


@given(raw_pairs(count=3))
def test_metric_axioms_and_d1_below_d(triple):
    u, v, w = (inf.validate_structure(raw) for raw in triple)
    d_uv = inf.value_distance(u, v)
    assert inf.value_distance(u, u) <= DIST_TOL
    assert d_uv == inf.value_distance(v, u)
    assert inf.value_distance(u, w) <= d_uv + inf.value_distance(v, w) + DIST_TOL
    assert inf.single_agent_distance(u, v) <= d_uv + DIST_TOL


@st.composite
def garblings(draw, source):
    """A random ``Garbling`` from ``source`` signals to 1-5 signals."""
    rows = draw(hnp.arrays(float, (source, draw(st.integers(1, 5))), elements=_CELL))
    rows[rows.sum(axis=1) == 0.0, 0] = 1.0
    return inf.Garbling(rows / rows.sum(axis=1, keepdims=True))


@st.composite
def garbled_structures(draw):
    """A structure u and a garbling of each player's signals."""
    u = inf.validate_structure(draw(raw_pairs(count=1))[0])
    return u, draw(garblings(u.signals1_count)), draw(garblings(u.signals2_count))


@given(garbled_structures())
def test_garbling_a_player_moves_down_the_order(case):
    # Garbling player 1's signals leaves a structure player 1 values no
    # more; garbling player 2's leaves one player 1 values no less.
    u, q1, q2 = case
    v = inf.garble(u, inf.PLAYER1, q1)
    assert inf.one_sided_gap(u, v).gap <= DIST_TOL
    assert inf.is_better(u, v)[0]
    w = inf.garble(u, inf.PLAYER2, q2)
    assert inf.one_sided_gap(w, u).gap <= DIST_TOL


@st.composite
def experiment_counts(draw):
    """n > l >= 0 repeated experiments."""
    n = draw(st.integers(1, 6))
    return n, draw(st.integers(0, n - 1))


@given(experiment_counts(), st.floats(0.55, 0.95))
def test_blackwell_d1_matches_the_closed_form(counts, p):
    # Player 2 has a single signal in the (n,0) and (l,0) structures, so
    # d = d1 there.
    n, l = counts
    un = inf.blackwell_structure(inf.BlackwellSpec(n, 0, p, p))
    ul = inf.blackwell_structure(inf.BlackwellSpec(l, 0, p, p))
    expected = inf.blackwell_d1_closed_form(n, l, p)
    assert abs(inf.single_agent_distance(un, ul) - expected) <= DIST_TOL
    assert abs(inf.value_distance(un, ul) - expected) <= DIST_TOL


@st.composite
def games_on_structures(draw):
    """A structure on 2-3 states with 1-3 signals per player, one of which
    may have a mass in (ZERO_TOL, 1e-8], and a game with 1-3 actions per
    player, small enough for the normal-form oracle."""
    n_k = draw(st.integers(2, 3))
    small = st.integers(1, 3)
    probs = draw(hnp.arrays(float, (n_k, draw(small), draw(small)), elements=_CELL))
    if probs.sum() == 0.0:
        probs[0, 0, 0] = 1.0
    payoffs = draw(hnp.arrays(float, (n_k, draw(small), draw(small)), elements=st.floats(-1.0, 1.0)))
    return inf.validate_structure(_tiny_signal(draw, probs / probs.sum())), inf.ZeroSumGame(payoffs)


@given(games_on_structures(), st.booleans())
def test_value_matches_the_normal_form_oracle(pair, partial):
    # The behavioral LP against the pure-rule normal form; ``partial`` caps
    # the budget at the smaller side's rule count, which enumerates that
    # side only and decomposes the other per signal.
    u, g = pair
    rules1 = g.actions1_count**u.signals1_count
    rules2 = g.actions2_count**u.signals2_count
    budget = min(rules1, rules2) if partial else None
    result = inf.value(u, g)
    assert abs(result.value - inf.value_normal_form(u, g, budget=budget)) <= VALUE_TOL
    # Both strategies guarantee the value, a tiny signal's rows included.
    assert inf.guarantee(u, g, result.strategy1, inf.PLAYER1) >= result.value - VALUE_TOL
    assert inf.guarantee(u, g, result.strategy2, inf.PLAYER2) <= result.value + VALUE_TOL


@st.composite
def redundant_structures(draw, n_k=None):
    """A structure on ``n_k`` states (2-3 when None) with 1-6 signals per
    player, where each signal after a player's first may be a proportional
    copy of an earlier one of the same player, have zero mass, or have a
    positive mass below ZERO_TOL."""
    n_k = n_k or draw(st.integers(2, 3))
    shape = (n_k, draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    probs = draw(hnp.arrays(float, shape, elements=_CELL))
    kinds = ("free", "copy", "zero", "tiny")
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


@given(redundant_structures())
def test_partition_matches_the_oracle(u):
    # The array refinement against the dict-signature loops it replaced:
    # the same classes, numbered the same, at the same level.  Signals of
    # positive mass below ZERO_TOL are drawn too: both take them as absent.
    assert inf.hierarchy_partition(u) == oracle.hierarchy_partition(u)


@settings(max_examples=8)
@given(redundant_structures())
def test_exact_partition_matches_the_oracle(u):
    assert inf.hierarchy_partition(u, exact=True) == oracle.hierarchy_partition(u, exact=True)


@st.composite
def chain_structures(draw, n_k=None):
    """A banded structure, chain-shaped like the ladder and the email game:
    ``n_k`` states (2-3 when None), 1-20 signals a player, player-1 signal
    c meeting player-2 signals c to c + width - 1 only.  Cells are random,
    dyadic, or all equal but the first (a ladder: beliefs differ at the
    chain's end alone, so each round splits the next signals off and the
    refinement runs as long as the chain).  A few signals of each player may
    have no mass."""
    n_k = n_k or draw(st.integers(2, 3))
    signals = st.one_of(st.integers(1, 20), st.integers(12, 20))
    n_c, n_d = draw(signals), draw(signals)
    width = draw(st.integers(1, 3))
    cell = draw(st.sampled_from([_CELL, st.sampled_from([0.125, 0.25, 0.5, 1.0]), st.just(0.25)]))
    band = draw(hnp.arrays(float, (n_k, n_c, width), elements=cell, fill=st.nothing()))
    band[0, 0, 0] *= 2.0
    probs = np.zeros((n_k, n_c, max(n_c, n_d) + width))
    for c in range(n_c):
        probs[:, c, c : c + width] = band[:, c]
    probs = probs[:, :, :n_d]
    probs[:, sorted(draw(st.sets(st.integers(0, n_c - 1), max_size=2)))] = 0.0
    probs[:, :, sorted(draw(st.sets(st.integers(0, n_d - 1), max_size=2)))] = 0.0
    if probs.sum() == 0.0:
        probs[0, 0, 0] = 1.0
    return inf.validate_structure(probs / probs.sum())


@given(chain_structures())
def test_chain_partition_matches_the_oracle(u):
    # Long worklists: each round of a chain dirties a few signals.
    assert inf.hierarchy_partition(u) == oracle.hierarchy_partition(u)


@settings(max_examples=8)
@given(chain_structures())
def test_exact_chain_partition_matches_the_oracle(u):
    assert inf.hierarchy_partition(u, exact=True) == oracle.hierarchy_partition(u, exact=True)


@given(redundant_structures())
def test_reduce_redundancy_is_value_equivalent_and_idempotent(u):
    # ROADMAP item 5: d(u, reduce(u)) <= DIST_TOL, and the reduced
    # structure is non-redundant, so reducing it again leaves it bit for bit.
    reduced = inf.reduce_redundancy(u)
    assert inf.value_distance(u, reduced) <= DIST_TOL
    assert not is_redundant(reduced)
    again = inf.reduce_redundancy(reduced)
    assert np.array_equal(again.probs, reduced.probs)


@given(redundant_structures())
def test_ck_decompose_matches_the_union_find(u):
    # Array labelling against the union-find: the same components in the
    # same order, with the same blocks and weights, bit for bit.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "structure is redundant", UserWarning)
        dec = inf.ck_decompose(u)
    assert oracle.contents(dec) == oracle.contents(oracle.ck_decompose(u))


@st.composite
def block_mixture_pairs(draw):
    """Two block mixtures of one library of 1-3 redundant structures, with
    their own weights, so that components match across the two.  Either
    may also hold a one-signal block of mass just above ZERO_TOL.  (A signal
    that light inside a larger component is left out: the reference takes
    it for null, see test_dnzs_keeps_a_tiny_signal_live_as_reduce_does.)"""
    n_k = draw(st.integers(2, 3))
    library = [draw(redundant_structures(n_k=n_k)) for _ in range(draw(st.integers(1, 3)))]
    weight = st.one_of(st.just(0.0), st.floats(0.1, 1.0))
    pair = []
    for _ in range(2):
        parts = [(draw(weight), s) for s in library]
        parts = [(w, s) for w, s in parts if w > 0] or [(1.0, library[0])]
        tiny = draw(st.one_of(st.just(0.0), st.floats(1.01, 2.0))) * ZERO_TOL
        total = sum(w for w, _ in parts) / (1.0 - tiny)
        parts = [(w / total, s) for w, s in parts]
        if tiny:
            atom = draw(hnp.arrays(float, (n_k, 1, 1), elements=st.floats(0.05, 1.0)))
            parts.append((tiny, inf.validate_structure(atom / atom.sum())))
        pair.append(inf.mix(parts))
    return pair


@given(block_mixture_pairs())
def test_dnzs_on_block_mixtures_matches_the_reference(pair):
    # One refinement of u and v together against reducing each and refining
    # the union of their components: the same value, bit for bit.  The tiny
    # block stays a live signal, as it is in its own structure.
    u, v = pair
    assert inf.dnzs(u, v) == oracle.dnzs(u, v)
    assert inf.dnzs(v, u) == oracle.dnzs(v, u)


@st.composite
def same_state_pairs(draw, structures):
    n_k = draw(st.integers(2, 3))
    return [draw(structures(n_k=n_k)) for _ in range(2)]


def _renumbered(classes):
    """Class ids by first occurrence, as ``hierarchy_partition`` numbers
    them: the null class spends an id too, but reads -1."""
    ids = {}
    for c in classes:
        ids.setdefault(c, len(ids))
    return tuple(NULL_CLASS if c == NULL_CLASS else ids[c] for c in classes)


@given(st.one_of(block_mixture_pairs(), same_state_pairs(redundant_structures), same_state_pairs(chain_structures)))
def test_the_union_refinement_restricted_to_a_side_is_its_partition(pair):
    # dnzs reads each side's classes off one refinement of the block-diagonal
    # union: restricted to a side and renumbered by first occurrence, they
    # must be that side's own partition.
    u, v = pair
    n_k, n_c, n_d = u.shape
    union = np.zeros((n_k, n_c + v.signals1_count, n_d + v.signals2_count))
    union[:, :n_c, :n_d] = u.probs
    union[:, n_c:, n_d:] = v.probs
    joint = hierarchy._refine(union, exact=False)
    for side, cut1, cut2 in ((u, slice(None, n_c), slice(None, n_d)), (v, slice(n_c, None), slice(n_d, None))):
        own = inf.hierarchy_partition(side)
        assert _renumbered(joint.player1_classes[cut1]) == own.player1_classes
        assert _renumbered(joint.player2_classes[cut2]) == own.player2_classes


@st.composite
def marginal_pairs(draw):
    """State marginals p and q on 1-6 states, with zero entries; q is drawn
    on its own, equals p, or is p moved by up to 1e-15 per entry."""
    n_k = draw(st.integers(1, 6))

    def normalized(raw):
        raw = np.clip(raw, 0.0, None)
        if raw.sum() == 0.0:
            raw[0] = 1.0
        return raw / raw.sum()

    mass = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    p = normalized(draw(hnp.arrays(float, n_k, elements=mass)))
    kind = draw(st.sampled_from(("independent", "equal", "noise")))
    if kind == "independent":
        q = normalized(draw(hnp.arrays(float, n_k, elements=mass)))
    elif kind == "equal":
        q = p.copy()
    else:
        q = normalized(p + draw(hnp.arrays(float, n_k, elements=st.floats(-1e-15, 1e-15))))
    return inf.StateDistribution(p), inf.StateDistribution(q)


def _exact_overlap_max(p, q):
    """max sum_k p_k q_k t_k over p.t <= 1, q.t <= 1, t >= 0 in exact
    arithmetic, over every vertex with at most two nonzero t_k."""
    p = [Fraction(x) for x in p]
    q = [Fraction(x) for x in q]
    best = max(min(a, b) for a, b in zip(p, q))
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            det = p[i] * q[j] - q[i] * p[j]
            if det != 0:
                ti, tj = (q[j] - p[j]) / det, (p[i] - q[i]) / det
                if ti >= 0 and tj >= 0:
                    best = max(best, p[i] * q[i] * ti + p[j] * q[j] * tj)
    return best


@given(marginal_pairs())
def test_diameter_upper_bound_is_the_exact_maximum(pair):
    # The closed form against an exact enumeration of the LP's vertices,
    # and against 200 random (p', q'), none of which may beat it.
    p, q = pair
    out = inf.diameter_bounds(p, q)
    best = 1.0 - out.upper / 2.0
    assert abs(best - float(_exact_overlap_max(p.probs, q.probs))) <= 1e-12
    rng = np.random.default_rng(p.probs.size)
    p2, q2 = rng.dirichlet(np.ones(p.probs.size), size=(2, 200))
    assert np.minimum(p.probs * q2, p2 * q.probs).sum(axis=1).max() <= best + 1e-12
    assert out.lower == np.abs(p.probs - q.probs).sum()


@pytest.mark.parametrize(
    "p, q",
    [
        ([1.0, 0.0, 0.0], [8 / 13, 5e-324, 5 / 13]),
        ([0.3, 5e-324, 0.7], [0.3, 0.0, 0.7]),
        ([0.2, 1e-322, 0.8], [0.6, 0.0, 0.4]),
        ([1.0, 1.4e-162, 1.4e-162], [1.0, 1.8e-162, 1.4e-162]),
    ],
)
def test_diameter_upper_bound_with_subnormal_products(p, q):
    # Products of these masses underflow, so a vertex read from them in
    # plain floating point is wrong or 0/0.
    p, q = inf.StateDistribution(p), inf.StateDistribution(q)
    best = 1.0 - inf.diameter_bounds(p, q).upper / 2.0
    assert abs(best - float(_exact_overlap_max(p.probs, q.probs))) <= 1e-12
