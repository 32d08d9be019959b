import sys
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path

import numpy as np
import pytest

import hierarchy_oracle as oracle
import infodist as inf
from infodist import hierarchy
from infodist.errors import ShapeMismatch
from infodist.hierarchy import _ROUND_DIGITS, NULL_CLASS, is_redundant

from conftest import random_structure

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import catalog_members  # noqa: E402


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


def _count_partitions(monkeypatch):
    calls = []
    partition = hierarchy.hierarchy_partition

    def counting(u, exact=False):
        calls.append(u.shape)
        return partition(u, exact=exact)

    monkeypatch.setattr(hierarchy, "hierarchy_partition", counting)
    return calls


def test_dnzs_partitions_three_times(monkeypatch):
    # Reduce u, reduce v, and one joint partition for the fingerprints; the
    # reduced structures are decomposed without checking them again.
    cat = inf.canonical_examples()
    u = _split_signal(inf.mix([(0.3, cat["u2"]), (0.7, cat["u2prime"])]), 1)
    calls = _count_partitions(monkeypatch)
    inf.dnzs(u, cat["u1"])
    assert len(calls) == 3


def test_ck_decompose_partitions_redundant_input_once(monkeypatch):
    doubled = _split_signal(inf.canonical_examples()["u2"], 0)
    calls = _count_partitions(monkeypatch)
    with pytest.warns(UserWarning, match="redundant"):
        decomposition = inf.ck_decompose(doubled)
    assert len(calls) == 1
    assert decomposition.components[0][1].shape == (2, 2, 1)


def test_catalog_sweep_structures_match_the_oracle():
    # Every structure of the benchmark's catalog sweep: the same partition
    # as the dict-signature loops, and the reduced tensor bit for bit.
    seen = set()
    for _, generate, _, _ in catalog_members():
        for u in generate():
            if u.probs.tobytes() in seen:
                continue
            seen.add(u.probs.tobytes())
            part = oracle.hierarchy_partition(u)
            assert inf.hierarchy_partition(u) == part
            merged = oracle.merge_by_classes(u, part.player1_classes, part.player2_classes)
            assert np.array_equal(inf.reduce_redundancy(u).probs, merged.probs)


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
    rng = np.random.default_rng(0)
    ties = (rng.integers(0, 10**12, 500) + 0.5) / 1e12
    x = np.concatenate([ties, np.nextafter(ties, 0), np.nextafter(ties, 1), rng.random(500)])
    exact = [
        int(Decimal(v).scaleb(_ROUND_DIGITS).to_integral_value(ROUND_HALF_EVEN)) for v in x.tolist()
    ]
    assert hierarchy._grid(x).tolist() == exact


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
