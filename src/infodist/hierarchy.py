"""Finite-level belief hierarchies, redundancy reduction, common-knowledge
decomposition, and the nonzero-sum distance.

Hierarchies are computed by partition refinement: start with one class per
player, repeatedly split signals whose conditional distributions over
(state, opponent classes) differ, stop at the fixpoint.  Two signals then
share a class iff all finite-level belief hierarchies coincide.

Each round is a handful of array operations over both players at once.  One
matrix product with the one-hot matrix of the opponents' current classes
sums every signal's mass over (state, opponent class); dividing by the
signal's mass gives its belief row, and new class ids go by first occurrence
of (old class, belief row), numbered per player.  Belief vectors are rounded
to 12 decimal digits before hashing, exactly as ``round(x, 12)`` rounds, so
that class membership is a genuine equivalence relation rather than an
eps-relation.  The exact mode runs the same rounds on an object array of
Python integers: each entry of a signal's row of the tensor is snapped to the
nearest fraction with denominator at most 10**15 (so 0.1 reads as 1/10), and
the row is scaled to a common denominator.  Belief rows are then equal iff
the integer rows are proportional; the snapping is the only rounding.
Signals of mass at most ZERO_TOL are null: they form the class -1 and count
as absent in the other player's beliefs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import DIST_TOL, NORM_TOL, ZERO_TOL
from .errors import ShapeMismatch
from .structures import PLAYER1, PLAYER2, InformationStructure, validate_structure

_ROUND_DIGITS = 12
NULL_CLASS = -1


@dataclass(frozen=True)
class SignalPartition:
    """Per-player class ids (position = signal index) and the refinement
    depth at which the partition stabilized.  Zero-mass signals sit in the
    designated null class -1."""

    player1_classes: tuple[int, ...]
    player2_classes: tuple[int, ...]
    level: int

    def class_count(self, player: str) -> int:
        """Number of live classes of ``PLAYER1`` or ``PLAYER2``."""
        if player == PLAYER1:
            classes = self.player1_classes
        elif player == PLAYER2:
            classes = self.player2_classes
        else:
            raise ShapeMismatch(f"player must be {PLAYER1!r} or {PLAYER2!r}, got {player!r}")
        return len(set(classes) - {NULL_CLASS})


@dataclass(frozen=True)
class Decomposition:
    """Weighted split into simple components; weights sum to 1 and the
    weighted components reconstruct the original structure entrywise."""

    components: tuple[tuple[float, InformationStructure], ...]
    signal_blocks: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for w, _ in self.components)


def _number(keys: list, n_c: int) -> list[int]:
    """Class ids by first occurrence of each key, numbered per player
    (player 1's signals are the first ``n_c``)."""
    out = []
    for side in (keys[:n_c], keys[n_c:]):
        ids: dict = {}
        out += [ids.setdefault(key, len(ids)) for key in side]
    return out


def _grid(beliefs: np.ndarray) -> np.ndarray:
    """Index of each belief on the 10**-12 grid, the one ``round(x, 12)``
    rounds to.

    ``beliefs * 10**12`` is within 2**-14 of the exact product for beliefs
    up to 1, so ``rint`` picks the exact grid point except near a tie; the
    few products that close to a tie are rounded exactly, half to even.
    """
    scaled = beliefs * 10.0**_ROUND_DIGITS
    grid = np.rint(scaled)
    for i in np.flatnonzero(np.abs(scaled - grid) > 0.499):
        grid.flat[i] = round(Fraction(beliefs.flat[i]) * 10**_ROUND_DIGITS)
    return grid


def _integer_rows(rows: np.ndarray) -> np.ndarray:
    """Each row's entries snapped to the nearest fraction with denominator at
    most 10**15, scaled by the row's common denominator to Python integers."""
    out = []
    for row in rows.tolist():
        exact = [Fraction(x).limit_denominator(10**15) for x in row]
        scale = math.lcm(*(x.denominator for x in exact))
        out.append([x.numerator * (scale // x.denominator) for x in exact])
    return np.array(out, dtype=object)


def _belief_keys(cells: np.ndarray, mass: np.ndarray | None) -> list:
    """One key per signal, equal iff the signals' beliefs over (state,
    opponent class) are.

    Float cells are divided by the signal's mass and rounded to the grid, an
    empty cell reading -1.  Integer cells (exact mode, no ``mass``) are
    proportional iff the beliefs are equal, and equal once divided by their
    gcd.
    """
    if mass is None:
        gcd = np.gcd.reduce(cells, axis=1)
        gcd[gcd == 0] = 1
        return [tuple(row) for row in (cells // gcd[:, None]).tolist()]
    beliefs = _grid(cells / mass)
    beliefs[cells == 0] = -1
    return beliefs.view(np.dtype((np.void, beliefs.strides[0]))).ravel().tolist()


def hierarchy_partition(u: InformationStructure, exact: bool = False) -> SignalPartition:
    """Partition each player's signals by finite-level belief hierarchy.

    Refinement stabilizes in at most |C| + |D| rounds.  With ``exact=True``
    each tensor entry is snapped to the nearest fraction with denominator at
    most 10**15 and the conditionals are compared in exact rational
    arithmetic, without the 12-digit grid; both modes run the same rounds.
    """
    probs = u.probs
    n_k, n_c, n_d = probs.shape
    n = n_c + n_d
    # Both players' signals on one axis, player 1's first: pair[s, k, o] is
    # the mass of signal s with opponent signal o in state k.
    pair = np.zeros((n, n_k, n))
    pair[:n_c, :, n_c:] = probs.transpose(1, 0, 2)
    pair[n_c:, :, :n_c] = probs.transpose(2, 0, 1)
    # Null signals (mass at most ZERO_TOL) count as absent, as
    # reduce_redundancy drops them: their cells are zero on both sides.  A
    # player's null signals share one class through the refinement (their
    # rows are all zero), so the numbering spends one id on it, and read -1
    # at the end.
    live = np.concatenate([probs.sum(axis=(0, 2)), probs.sum(axis=(0, 1))]) > ZERO_TOL
    pair[~live] = 0
    pair[:, :, ~live] = 0
    pair = pair.reshape(n, n_k * n)
    if exact:
        pair, mass = _integer_rows(pair), None
    else:
        # cumsum adds strictly in (state, opponent signal) order, so a mass
        # does not depend on how numpy splits a sum.
        mass = np.cumsum(pair, axis=1)[:, -1:]
        mass[mass == 0] = 1.0
    pair = pair.reshape(n * n_k, n)
    onehot = np.eye(n, dtype=pair.dtype)
    labels = _number(live.tolist(), n_c)
    level = 0
    for _ in range(n + 1):
        # Opponent classes as columns: player 1's classes first, then
        # player 2's.  cells[s, k, g] is the mass of signal s in state k on
        # opponent class g.
        m1 = max(labels[:n_c]) + 1
        columns = labels[:n_c] + [m1 + label for label in labels[n_c:]]
        width = m1 + max(labels[n_c:]) + 1
        cells = (pair @ onehot[columns, :width]).reshape(n, -1)
        new = _number(list(zip(labels, _belief_keys(cells, mass))), n_c)
        if new == labels:
            break
        labels = new
        level += 1
    labels = np.where(live, labels, NULL_CLASS).tolist()
    return SignalPartition(tuple(labels[:n_c]), tuple(labels[n_c:]), level)


def reduce_redundancy(u: InformationStructure, exact: bool = False) -> InformationStructure:
    """Merge signals that induce identical belief hierarchies.

    Each hierarchy class becomes one signal carrying the summed mass;
    zero-mass signals are dropped.  The result is non-redundant and
    value-equivalent to the input; a non-redundant input is returned as
    it is.
    """
    part = hierarchy_partition(u, exact=exact)
    if not _redundant(part):
        return u
    return _merge_by_classes(u, part.player1_classes, part.player2_classes)


def _merge_by_classes(u, classes1, classes2) -> InformationStructure:
    classes1, classes2 = np.asarray(classes1), np.asarray(classes2)
    live1 = np.flatnonzero(classes1 != NULL_CLASS)
    live2 = np.flatnonzero(classes2 != NULL_CLASS)
    names1, pos1 = np.unique(classes1[live1], return_inverse=True)
    names2, pos2 = np.unique(classes2[live2], return_inverse=True)
    # State last, so that each merged cell adds its signal pairs in (c, d)
    # order, one at a time.
    merged = np.zeros((max(len(names1), 1), max(len(names2), 1), u.state_count))
    block = u.probs.transpose(1, 2, 0)[np.ix_(live1, live2)]
    np.add.at(merged, (pos1[:, None], pos2[None, :]), block)
    return InformationStructure(np.ascontiguousarray(merged.transpose(2, 0, 1)), u.state_labels)


def _redundant(part: SignalPartition) -> bool:
    """Some signal has zero mass or shares its class with another."""
    return (
        NULL_CLASS in part.player1_classes
        or NULL_CLASS in part.player2_classes
        or part.class_count(PLAYER1) < len(part.player1_classes)
        or part.class_count(PLAYER2) < len(part.player2_classes)
    )


def is_redundant(u: InformationStructure) -> bool:
    return _redundant(hierarchy_partition(u))


def ck_decompose(u: InformationStructure) -> Decomposition:
    """Split into proper common-knowledge components.

    Components are the connected components of the bipartite graph linking a
    player-1 signal and a player-2 signal whenever some state gives their
    pair positive mass; each component satisfies u(A|s) in {0,1} for every
    signal s.  Redundant input is auto-reduced first (with a warning).
    """
    part = hierarchy_partition(u)
    if _redundant(part):
        warnings.warn("structure is redundant; reducing before decomposition")
        u = _merge_by_classes(u, part.player1_classes, part.player2_classes)
    return _decompose(u)


def _decompose(u: InformationStructure) -> Decomposition:
    """``ck_decompose`` of a structure known to be non-redundant."""
    n_c, n_d = u.signals1_count, u.signals2_count
    link = u.probs.sum(axis=0) > ZERO_TOL
    parent = list(range(n_c + n_d))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for c, d in zip(*np.nonzero(link)):
        union(int(c), n_c + int(d))

    # Each root is the smallest node of its component, so the components
    # come out ordered by root.
    members: dict[int, tuple[list[int], list[int]]] = {}
    for node in range(n_c + n_d):
        side = members.setdefault(find(node), ([], []))
        if node < n_c:
            side[0].append(node)
        else:
            side[1].append(node - n_c)
    components = []
    blocks = []
    for cs, ds in members.values():
        if not cs or not ds:
            continue
        block = u.probs[np.ix_(range(u.state_count), cs, ds)]
        weight = float(block.sum())
        if weight <= ZERO_TOL:
            continue
        components.append((weight, InformationStructure(block / weight, u.state_labels)))
        blocks.append((tuple(cs), tuple(ds)))
    total = sum(w for w, _ in components)
    if abs(total - 1.0) > NORM_TOL:
        raise ShapeMismatch(f"component weights sum to {total!r}")
    return Decomposition(tuple(components), tuple(blocks))


def is_simple(u: InformationStructure) -> bool:
    """No proper common-knowledge component."""
    return len(ck_decompose(u).components) == 1


def _component_fingerprints(
    structures: list[InformationStructure],
) -> list[tuple]:
    """Canonical fingerprint per structure: the induced distribution over
    (state, player-1 hierarchy class, player-2 hierarchy class), with class
    ids shared across all inputs via a joint refinement on their disjoint
    union."""
    n_k = structures[0].state_count
    offsets1 = np.cumsum([0] + [s.signals1_count for s in structures])
    offsets2 = np.cumsum([0] + [s.signals2_count for s in structures])
    union = np.zeros((n_k, offsets1[-1], offsets2[-1]))
    share = 1.0 / len(structures)
    for i, s in enumerate(structures):
        union[:, offsets1[i] : offsets1[i + 1], offsets2[i] : offsets2[i + 1]] = (
            s.probs * share
        )
    part = hierarchy_partition(validate_structure(union))
    # Class ids shifted by one so that the null class -1 indexes too.
    classes1 = np.array(part.player1_classes) + 1
    classes2 = np.array(part.player2_classes) + 1
    fingerprints = []
    for i, s in enumerate(structures):
        ids1 = classes1[offsets1[i] : offsets1[i + 1]]
        ids2 = classes2[offsets2[i] : offsets2[i + 1]]
        k, c, d = np.nonzero(s.probs > ZERO_TOL)
        cells = np.zeros((n_k, ids1.max() + 1, ids2.max() + 1))
        np.add.at(cells, (k, ids1[c], ids2[d]), s.probs[k, c, d])
        held = cells > 0
        fingerprints.append(
            tuple(
                ((state, id1 - 1, id2 - 1), round(val, _ROUND_DIGITS))
                for (state, id1, id2), val in zip(np.argwhere(held).tolist(), cells[held].tolist())
            )
        )
    return fingerprints


def dnzs(u: InformationStructure, v: InformationStructure) -> float:
    """Nonzero-sum payoff-set distance via the decomposition formula.

    Both structures are reduced to non-redundant form and decomposed into
    simple components; components inducing the same hierarchy distribution
    are matched (unmatched components pair with weight 0), and the distance
    is sum_alpha |p_alpha - q_alpha|.  For simple non-redundant structures
    this is 0 when they share hierarchies and 2 otherwise.
    """
    if u.state_count != v.state_count:
        raise ShapeMismatch(
            f"state counts differ: {u.state_count} vs {v.state_count}"
        )
    ru = reduce_redundancy(u)
    rv = reduce_redundancy(v)
    dec_u = _decompose(ru)
    dec_v = _decompose(rv)
    all_components = [s for _, s in dec_u.components] + [s for _, s in dec_v.components]
    prints = _component_fingerprints(all_components)
    n_u = len(dec_u.components)
    weights_u: dict = {}
    for (w, _), fp in zip(dec_u.components, prints[:n_u]):
        weights_u[fp] = weights_u.get(fp, 0.0) + w
    weights_v: dict = {}
    for (w, _), fp in zip(dec_v.components, prints[n_u:]):
        weights_v[fp] = weights_v.get(fp, 0.0) + w
    keys = set(weights_u) | set(weights_v)
    return float(
        sum(abs(weights_u.get(key, 0.0) - weights_v.get(key, 0.0)) for key in keys)
    )


def mix(
    parts: list[tuple[float, InformationStructure]]
) -> InformationStructure:
    """Block mixture on disjoint signal spaces: sum_a w_a u_a with each
    component's signals relabeled into its own block."""
    if not parts:
        raise ShapeMismatch("mixture needs at least one component")
    n_k = parts[0][1].state_count
    n1 = sum(s.signals1_count for _, s in parts)
    n2 = sum(s.signals2_count for _, s in parts)
    probs = np.zeros((n_k, n1, n2))
    o1 = o2 = 0
    for w, s in parts:
        probs[:, o1 : o1 + s.signals1_count, o2 : o2 + s.signals2_count] = w * s.probs
        o1 += s.signals1_count
        o2 += s.signals2_count
    return validate_structure(probs, parts[0][1].state_labels)
