import warnings
from decimal import ROUND_HALF_EVEN, Decimal

import numpy as np
import pytest

import hierarchy_oracle as oracle
import infodist as inf
from infodist import hierarchy
from infodist.config import DIST_TOL
from infodist.errors import ShapeMismatch
from infodist.hierarchy import _ROUND_DIGITS, NULL_CLASS, is_redundant

from conftest import random_structure
from workloads import catalog_members


def _split_signal(u, signal):
    """Duplicate one player-1 signal into two halves (a redundant copy)."""
    probs = np.zeros((u.state_count, u.signals1_count + 1, u.signals2_count))
    probs[:, : u.signals1_count, :] = u.probs
    probs[:, signal, :] *= 0.5
    probs[:, -1, :] = probs[:, signal, :]
    return inf.validate_structure(probs, u.state_labels)


def test_identical_conditionals_share_a_class():
    probs = np.zeros((2, 2, 2))
    probs[0, :, 0] = 0.25
    probs[1, :, 1] = 0.25
    part = inf.hierarchy_partition(inf.validate_structure(probs))
    assert part.player1_classes[0] == part.player1_classes[1]


def test_u1_separates_all_player1_signals():
    part = inf.hierarchy_partition(inf.canonical_examples()["u1"])
    assert len(set(part.player1_classes)) == 3
    assert len(set(part.player2_classes)) == 2
    assert part.level >= 2  # signals 1 and 2 differ only at the second level


def test_duplicate_signal_detected():
    u2 = inf.canonical_examples()["u2"]
    doubled = _split_signal(u2, 0)
    part = inf.hierarchy_partition(doubled)
    assert part.player1_classes[0] == part.player1_classes[2]
    assert part.player1_classes[0] != part.player1_classes[1]


def test_zero_mass_signal_goes_to_null_class():
    u2 = inf.canonical_examples()["u2"]
    padded = inf.embed_signals(u2, 3, 1)
    part = inf.hierarchy_partition(padded)
    assert part.player1_classes[2] == NULL_CLASS


def test_class_count_by_player():
    u2 = inf.canonical_examples()["u2"]
    part = inf.hierarchy_partition(inf.embed_signals(_split_signal(u2, 0), 4, 2))
    assert part.player1_classes.count(NULL_CLASS) == 1
    assert part.class_count(inf.PLAYER1) == 2  # three live signals, one a copy
    assert part.class_count(inf.PLAYER2) == 1  # one live signal, one null
    for bad in (1, 2, "player3"):
        with pytest.raises(ShapeMismatch):
            part.class_count(bad)


def _count_refinements(monkeypatch):
    """Shapes of the tensors refined from now on, with the memo emptied."""
    calls = []
    refine = hierarchy._refine

    def counting(probs, exact):
        calls.append(probs.shape)
        return refine(probs, exact)

    monkeypatch.setattr(hierarchy, "_refine", counting)
    hierarchy._reduction_of.cache_clear()
    return calls


def _redundant_mixture():
    cat = inf.canonical_examples()
    return _split_signal(inf.mix([(0.3, cat["u2"]), (0.7, cat["u2prime"])]), 1)


def test_dnzs_refines_once(monkeypatch):
    # One refinement of the union of u and v serves both reductions and the
    # fingerprints.
    u, v = _redundant_mixture(), inf.canonical_examples()["u1"]
    calls = _count_refinements(monkeypatch)
    inf.dnzs(u, v)
    assert calls == [(2, u.signals1_count + 3, u.signals2_count + 2)]


def test_reduce_decompose_and_dnzs_refine_twice(monkeypatch):
    # reduce_redundancy refines u, ck_decompose reads the memo, and dnzs
    # refines the union once.
    u, v = _redundant_mixture(), inf.canonical_examples()["u1"]
    calls = _count_refinements(monkeypatch)
    inf.reduce_redundancy(u)
    with pytest.warns(UserWarning, match="redundant"):
        inf.ck_decompose(u)
    inf.dnzs(u, v)
    assert len(calls) == 2


def test_partition_memo_is_per_object_and_mode(monkeypatch):
    u = _redundant_mixture()
    calls = _count_refinements(monkeypatch)
    first = inf.hierarchy_partition(u)
    assert inf.hierarchy_partition(u) is first
    assert is_redundant(u)
    with pytest.warns(UserWarning, match="redundant"):
        assert not inf.is_simple(u)
    assert len(calls) == 1
    # Identity, not content: a re-validated copy refines again.
    copy = inf.validate_structure(u.probs)
    assert inf.hierarchy_partition(copy) == first
    assert len(calls) == 2
    # Each mode has its own entry.
    exact = inf.hierarchy_partition(u, exact=True)
    assert exact == first
    assert len(calls) == 3
    assert inf.hierarchy_partition(u, exact=True) is exact
    assert inf.hierarchy_partition(u) is first
    assert len(calls) == 3


def test_a_failed_partition_is_not_memoised(monkeypatch):
    u = _redundant_mixture()
    calls = _count_refinements(monkeypatch)
    counting = hierarchy._refine
    failures = []

    def failing_once(probs, exact):
        if not failures:
            failures.append(probs.shape)
            raise RuntimeError("refinement failed")
        return counting(probs, exact)

    monkeypatch.setattr(hierarchy, "_refine", failing_once)
    with pytest.raises(RuntimeError):
        inf.hierarchy_partition(u)
    assert inf.hierarchy_partition(u) == oracle.hierarchy_partition(u)
    assert len(failures) == len(calls) == 1


def test_ck_decompose_partitions_redundant_input_once(monkeypatch):
    doubled = _split_signal(inf.canonical_examples()["u2"], 0)
    calls = _count_refinements(monkeypatch)
    with pytest.warns(UserWarning, match="redundant"):
        decomposition = inf.ck_decompose(doubled)
    assert len(calls) == 1
    assert decomposition.components[0][1].shape == (2, 2, 1)


def _canonical_mixtures():
    cat = inf.canonical_examples()
    library = [cat["u1"], cat["u2"], cat["u2prime"]]
    weights = [(1, 0, 0), (0.2, 0.3, 0.5), (0.6, 0.2, 0.2), (0.1, 0.8, 0.1), (0.5, 0.5, 0), (0, 0.3, 0.7)]
    mixtures = []
    for w in weights:
        parts = [(a, s) for a, s in zip(w, library) if a > 0]
        mixtures.append(inf.mix(parts) if len(parts) > 1 else parts[0][1])
    mixtures.append(_redundant_mixture())
    return mixtures


def test_dnzs_matches_the_three_refinement_reference():
    # Bit for bit, on every catalog-sweep pair and every pair of canonical
    # mixtures.
    pairs = [generate() for _, generate, _, _ in catalog_members()]
    mixtures = _canonical_mixtures()
    pairs += [(a, b) for a in mixtures for b in mixtures]
    for u, v in pairs:
        assert inf.dnzs(u, v) == oracle.dnzs(u, v)


def test_value_distance_is_at_most_dnzs_on_the_catalog():
    # d <= dnzs on every catalog-sweep pair.  The closest is the
    # signal_quality counterexample: d = 1.7e-16, dnzs = 0.
    for label, generate, _, _ in catalog_members():
        u, v = generate()
        assert inf.value_distance(u, v) <= inf.dnzs(u, v) + DIST_TOL, label


def test_mix_needs_a_component():
    with pytest.raises(ShapeMismatch):
        inf.mix([])


def test_dnzs_keeps_a_tiny_signal_live_as_reduce_does():
    # u's u1 component holds a player-1 signal of mass 1.5e-12: live in u,
    # so that component and u1 itself are different hierarchies, and half
    # of each side's mass is unmatched.  The reference scales its union of
    # four components to mass 1, which takes the signal for null and
    # matches the two.
    cat = inf.canonical_examples()
    probs = np.zeros((2, 4, 2))
    probs[:, :3, :] = cat["u1"].probs * (1 - 3e-12)
    probs[:, 3, :] = 0.75e-12
    u = inf.mix([(0.5, inf.validate_structure(probs)), (0.5, cat["u2"])])
    v = inf.mix([(0.5, cat["u1"]), (0.5, cat["u2"])])
    assert inf.reduce_redundancy(u).signals1_count == 6
    assert inf.dnzs(u, v) == pytest.approx(1.0, abs=1e-9)
    assert oracle.dnzs(u, v) == pytest.approx(0.0, abs=1e-9)


def test_catalog_sweep_structures_match_the_oracle():
    # Every structure of the benchmark's catalog sweep: the same partition
    # as the dict-signature loops, the reduced tensor bit for bit (the
    # oracle's merge on redundant input, the input's own tensor otherwise),
    # and the union-find's common-knowledge components of it.
    seen = set()
    for _, generate, _, _ in catalog_members():
        for u in generate():
            if u.probs.tobytes() in seen:
                continue
            seen.add(u.probs.tobytes())
            part = oracle.hierarchy_partition(u)
            assert inf.hierarchy_partition(u) == part
            if is_redundant(u):
                merged = oracle.merge_by_classes(u, part.player1_classes, part.player2_classes)
            else:
                merged = u
            assert np.array_equal(inf.reduce_redundancy(u).probs, merged.probs)
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "structure is redundant", UserWarning)
                dec = inf.ck_decompose(u)
            assert oracle.contents(dec) == oracle.contents(oracle.ck_decompose(u))


def test_ladder_refines_to_one_class_per_signal():
    # 401 rounds over 803 signals; each round after the first has a few
    # dirty signals, so the worklist refinement takes milliseconds.
    part = inf.hierarchy_partition(inf.ladder_structure(400))
    assert part.level == 401
    assert part.player1_classes == tuple(range(401))
    assert part.player2_classes == tuple(range(402))


def test_ladder_components_match_the_union_find():
    # One component threaded through 803 signals.  The ladder is
    # non-redundant (test_ladder_refines_to_one_class_per_signal), so the
    # labelling runs on it directly.
    u = inf.ladder_structure(400)
    dec = hierarchy._decompose(u)
    assert len(dec.components) == 1
    assert oracle.contents(dec) == oracle.contents(oracle.decompose(u))


def test_null_signals_do_not_split_their_opponents():
    # Player 2's second signal has mass below ZERO_TOL.  Its cells must not
    # tell player 1's two signals apart, or reducing (which drops it) would
    # leave two copies of one signal.
    probs = np.full((2, 2, 2), 0.25)
    probs[:, :, 1] = [[0.0, 2.5e-15], [2.5e-15, 2.5e-15]]
    u = inf.validate_structure(probs)
    part = inf.hierarchy_partition(u)
    assert part.player1_classes == (0, 0)
    assert part.player2_classes == (0, NULL_CLASS)
    assert inf.hierarchy_partition(u, exact=True) == part
    reduced = inf.reduce_redundancy(u)
    assert reduced.shape == (2, 1, 1)
    assert not is_redundant(reduced)


def test_a_tiny_cell_is_not_an_empty_cell():
    # Player 1's signals differ only in a cell of relative mass 2e-14 on a
    # live opponent signal: below the rounding grid, but present.
    probs = np.zeros((2, 2, 2))
    probs[0, :, 0] = 0.3
    probs[1, :, 1] = 0.2
    probs[0, 0, 1] = 1e-14
    u = inf.validate_structure(probs)
    part = inf.hierarchy_partition(u)
    assert part.player1_classes == (0, 1)
    assert part == oracle.hierarchy_partition(u)


def test_belief_grid_rounds_like_round():
    # Near a tie, x * 1e12 in floats can fall on the other side of it from
    # the exact product; the grid follows round(x, 12), which rounds the
    # exact value.
    # An odd multiple of 2**-13 times 1e12 is exactly half an integer: a
    # true tie, which goes to the even neighbour.  2.44140625e-05, a
    # Blackwell belief, is the nearest float to a decimal tie.
    rng = np.random.default_rng(0)
    ties = (rng.integers(0, 10**12, 500) + 0.5) / 1e12
    dyadic = (2 * rng.integers(0, 2**12, 500) + 1) / 2**13
    assert (dyadic * 1e12 % 1 == 0.5).all()
    x = np.concatenate(
        [ties, dyadic, [2.44140625e-05, 0.0, 1.0, 5e-13, 1.5e-12], rng.random(500), rng.random(500) * 1e-9]
    )
    x = np.concatenate([x, np.nextafter(x, 0), np.nextafter(x, 1)])
    exact = [
        int(Decimal(v).scaleb(_ROUND_DIGITS).to_integral_value(ROUND_HALF_EVEN)) for v in x.tolist()
    ]
    assert hierarchy._grid(x).tolist() == exact
    assert [hierarchy._snap(v) for v in x.tolist()] == exact


def _refinement_rounds(probs, exact):
    """The refinement's state before each round of ``_refine``."""
    refinement = hierarchy._Refinement(probs, exact)
    dirty = refinement.splittable(range(len(refinement.classes)))
    while dirty:
        yield refinement
        moved = refinement.split(dirty)
        if not moved:
            return
        dirty = refinement.splittable(refinement.neighbours(moved))


def _below_the_snap():
    """Two player-1 signals alike but for an entry of 1e-16 on the second:
    a cell below the grid, and below 5e-16, so exact mode snaps it to 0."""
    probs = np.zeros((2, 2, 2))
    probs[0, :, 0] = probs[1, :, 1] = 0.25
    probs[0, 1, 1] = 1e-16
    return probs


def test_an_entry_that_snaps_to_zero_is_absent_in_exact_mode():
    # The float mode sees the tiny entry as a cell whose belief rounds to
    # 0, which an absent cell is not; the exact mode snaps it to 0 first.
    u = inf.InformationStructure(_below_the_snap())
    exact = inf.hierarchy_partition(u, exact=True)
    assert exact == oracle.hierarchy_partition(u, exact=True)
    assert exact.player1_classes == (0, 0)
    assert exact.level == 1
    fast = inf.hierarchy_partition(u)
    assert fast == oracle.hierarchy_partition(u)
    assert fast.player1_classes == (0, 1)


def test_both_key_kernels_give_the_same_keys(rng):
    # A float round's keys come from plain Python or from numpy, chosen by
    # the number of tensor entries its dirty signals hold; on every signal,
    # before every round, the two must agree key for key.  Exact mode always
    # takes plain Python; both modes run at least the rounds they count.
    # In ``ties`` player 1's signals hold mass 8192 in odd parts, beliefs on
    # exact grid ties; the first and last also hold a cell below the grid.
    ties = np.zeros((2, 3, 3))
    ties[0, :, 0] = [1, 3, 5]
    ties[1, :, 1] = [8191, 8189, 8187]
    ties[0, 0, 2] = ties[1, 2, 2] = 1e-10
    # In ``order`` player 1's first signal holds three entries on player 2's
    # first class in state 0: summed in (state, opponent) order and divided
    # by the signal's mass they round to 555358830965 on the grid, summed
    # the other way round to 555358830966.
    order = np.zeros((2, 2, 3))
    order[0, 0] = [3.6690118789672854, 0.0004661693572998047, 1.7084151268005372]
    order[1, 0, 0] = 4.305743557139621
    order[1, 1, 1] = 1.0
    nulls = random_structure(rng, 3, 6, 5, zeros=0.3).probs.copy()
    nulls[:, 2, :] = 0.0
    nulls[:, :, 4] *= 1e-15
    cases = [
        _below_the_snap(),
        inf.email_game(0.1, 0.5, 8).probs,
        inf.ladder_structure(6).probs,
        inf.blackwell_structure(inf.BlackwellSpec(4, 2, 0.75, 0.75)).probs,
        _redundant_mixture().probs,
        ties,
        order,
        nulls / nulls.sum(),
    ]
    for probs in cases:
        for exact in (False, True):
            rounds = 0
            for refinement in _refinement_rounds(probs, exact):
                every = list(range(len(refinement.classes)))
                if not exact:
                    assert refinement.python_keys(every) == refinement.numpy_keys(every)
                rounds += 1
            # The round that finds no split is skipped once every class
            # is a single signal.
            assert rounds >= hierarchy._refine(probs, exact).level


def test_exact_mode_agrees_on_rational_structures():
    u1 = inf.canonical_examples()["u1"]
    fast = inf.hierarchy_partition(u1)
    exact = inf.hierarchy_partition(u1, exact=True)
    assert fast.player1_classes == exact.player1_classes
    assert fast.player2_classes == exact.player2_classes


def test_reduce_recovers_u2():
    u2 = inf.canonical_examples()["u2"]
    doubled = _split_signal(u2, 0)
    reduced = inf.reduce_redundancy(doubled)
    assert reduced.shape == u2.shape
    assert inf.value_distance(u2, reduced) <= 1e-6


def test_reduce_idempotent_and_value_preserving(rng):
    for _ in range(5):
        u = random_structure(rng, 2, 3, 3)
        doubled = _split_signal(u, 1)
        reduced = inf.reduce_redundancy(doubled)
        again = inf.reduce_redundancy(reduced)
        assert reduced.shape == again.shape
        assert np.allclose(reduced.probs, again.probs, atol=1e-12)
        assert inf.value_distance(doubled, reduced) <= 1e-6
        assert not is_redundant(reduced)


def test_nonredundant_unchanged(rng):
    u = random_structure(rng, 2, 3, 2)  # generic tensors are non-redundant
    reduced = inf.reduce_redundancy(u)
    assert reduced.shape == u.shape


def test_ck_decompose_single_component():
    u1 = inf.canonical_examples()["u1"]
    decomposition = inf.ck_decompose(u1)
    assert len(decomposition.components) == 1
    assert decomposition.components[0][0] == pytest.approx(1.0)
    assert inf.is_simple(u1)


def test_ck_decompose_block_mixture(rng):
    cat = inf.canonical_examples()
    mixture = inf.mix([(0.3, cat["u2"]), (0.7, cat["u2prime"])])
    decomposition = inf.ck_decompose(mixture)
    weights = sorted(decomposition.weights)
    assert weights == pytest.approx([0.3, 0.7])
    assert not inf.is_simple(mixture)
    # weighted components reconstruct the mixture
    rebuilt = np.zeros_like(mixture.probs)
    for (w, comp), (cs, ds) in zip(decomposition.components, decomposition.signal_blocks):
        rebuilt[np.ix_(range(2), cs, ds)] += w * comp.probs
    assert np.abs(rebuilt - mixture.probs).max() <= 1e-9


def test_single_atom_structure_is_simple():
    u = inf.validate_structure(np.ones((1, 1, 1)))
    assert inf.is_simple(u)


def test_component_membership_is_binary(rng):
    cat = inf.canonical_examples()
    mixture = inf.mix([(0.4, cat["u1"]), (0.6, cat["u2"])])
    decomposition = inf.ck_decompose(mixture)
    for (w, _), (cs, ds) in zip(decomposition.components, decomposition.signal_blocks):
        block_mass = mixture.probs[np.ix_(range(2), cs, ds)].sum()
        assert block_mass == pytest.approx(w)
        # each player-1 signal in the block puts all its mass inside it
        for c in cs:
            row = mixture.probs[:, c, :]
            assert row[:, list(ds)].sum() == pytest.approx(row.sum())


def test_dnzs_equal_structures():
    u1 = inf.canonical_examples()["u1"]
    assert inf.dnzs(u1, u1) == pytest.approx(0.0, abs=1e-12)


def test_dnzs_signal_permutation_invariance():
    u1 = inf.canonical_examples()["u1"]
    permuted = inf.validate_structure(u1.probs[:, [2, 0, 1], :][:, :, [1, 0]])
    assert inf.dnzs(u1, permuted) == pytest.approx(0.0, abs=1e-12)
    assert inf.value_distance(u1, permuted) <= 1e-6


def test_dnzs_distinct_simple_structures():
    cat = inf.canonical_examples()
    assert inf.dnzs(cat["u2"], cat["u2prime"]) == pytest.approx(2.0)
    assert inf.dnzs(cat["u1"], cat["u2"]) == pytest.approx(2.0)


def test_dnzs_mixture_weights():
    cat = inf.canonical_examples()
    a = inf.mix([(0.3, cat["u2"]), (0.7, cat["u2prime"])])
    b = inf.mix([(0.5, cat["u2"]), (0.5, cat["u2prime"])])
    assert inf.dnzs(a, b) == pytest.approx(0.4, abs=1e-9)


def test_dnzs_triangle_on_shared_component_library():
    cat = inf.canonical_examples()
    lib = [cat["u2"], cat["u2prime"], cat["u1"]]
    weights = [
        (0.2, 0.3, 0.5),
        (0.6, 0.2, 0.2),
        (0.1, 0.8, 0.1),
    ]
    mixes = [inf.mix(list(zip(w, lib))) for w in weights]
    d01 = inf.dnzs(mixes[0], mixes[1])
    d12 = inf.dnzs(mixes[1], mixes[2])
    d02 = inf.dnzs(mixes[0], mixes[2])
    assert d02 <= d01 + d12 + 1e-9
    assert d01 == pytest.approx(inf.dnzs(mixes[1], mixes[0]), abs=1e-12)


def test_dnzs_reduces_redundant_inputs():
    cat = inf.canonical_examples()
    doubled = _split_signal(cat["u2"], 0)
    assert inf.dnzs(doubled, cat["u2"]) == pytest.approx(0.0, abs=1e-12)


def test_mix_rejects_components_on_different_state_counts():
    u2 = inf.canonical_examples()["u2"]
    three = inf.validate_structure(np.full((3, 1, 1), 1 / 3))
    with pytest.raises(ShapeMismatch):
        inf.mix([(0.5, u2), (0.5, three)])
