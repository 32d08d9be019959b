"""Finite-level belief hierarchies, redundancy reduction, common-knowledge
decomposition, and the nonzero-sum distance.

Hierarchies are computed by partition refinement: start with one class per
player, repeatedly split signals whose conditional distributions over
(state, opponent classes) differ, stop at the fixpoint.  Two signals then
share a class iff all finite-level belief hierarchies coincide.

The refinement runs in rounds over a worklist.  A signal's key is its
belief on each (state, opponent class) cell it holds: each cell summed one
entry at a time in (state, opponent) order, divided by the signal's mass,
and put on the 12-decimal grid exactly as ``round(x, 12)`` rounds, so that
class membership is a genuine equivalence relation rather than an
eps-relation.  A round splits each class by (class, key).  Only a signal
holding a cell on a signal that changed class in the previous round, a
dirty one, can have a new key, so each round recomputes the keys of the
dirty signals alone, and a class with no dirty member keeps the one key its
members share.  Class ids stay stable so that stored keys stay valid: a
class that splits keeps its id for the piece holding its clean members, or
for its largest piece when every member is dirty.  A class of one signal
cannot split, so its signal leaves the worklist.  The rounds, the classes and
``level`` (the rounds that split a class) are those of refining every
signal in every round; class ids are numbered by first occurrence, per
player, once at the end.  Keys are computed in plain Python when the dirty
signals hold few tensor entries and in one numpy pass (``bincount``, which
adds one entry at a time too) when they hold many; the two give identical
keys.  Exact mode always takes the plain-Python kernel: on an object
array numpy adds the Fractions one Python call at a time anyway, and the
threshold was tuned in float mode.

The exact mode runs the same rounds with each tensor entry snapped to the
nearest fraction with denominator at most 10**15 (so 0.1 reads as 1/10)
and beliefs compared as exact fractions; the snapping is the only
rounding.  Signals of mass at most ZERO_TOL are null: they form the class
-1 and count as absent in the other player's beliefs.

Common-knowledge components are labelled with array operations: each
signal starts with its own node number, each round every linked pair lowers
the larger of its labels to the smaller (``np.minimum.at`` over the edges),
and pointer jumping follows labels to a fixed point.  Labels only fall and
stay inside their component, so once every link joins equal labels, each
component is labelled by its smallest signal.
"""

from __future__ import annotations

import functools
import struct
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


# A round computes its keys in plain Python when the dirty signals hold at
# most this many tensor entries, and in one numpy pass when they hold more;
# the round after one whose moved signals hold more takes every signal as
# dirty rather than scanning for their neighbours.  Timed on the tensors the
# catalog sweep refines, numpy keys alone double the refinement time and
# Python keys alone multiply the Blackwell members' time by 2.4; the best
# key threshold lies between 32 and 64 entries, the best scan threshold
# between 16 and 64, and always scanning costs the Blackwell members 15%.
_PYTHON_ENTRIES = 64


def _number(keys: list, n_c: int) -> list[int]:
    """Class ids by first occurrence of each key, numbered per player
    (player 1's signals are the first ``n_c``)."""
    out = []
    for side in (keys[:n_c], keys[n_c:]):
        ids: dict = {}
        out += [ids.setdefault(key, len(ids)) for key in side]
    return out


_SCALE = 10.0**_ROUND_DIGITS


def _grid(beliefs: np.ndarray) -> np.ndarray:
    """Index of each belief on the 10**-12 grid, the one ``round(x, 12)``
    rounds to, as int64.

    ``beliefs * 10**12`` is within 2**-14 of the exact product for beliefs
    up to 1, so ``rint`` picks the exact grid point except near a tie; the
    few beliefs that close to a tie are settled by ``_snap``.
    """
    scaled = beliefs * _SCALE
    grid = np.rint(scaled)
    near = np.flatnonzero(np.abs(scaled - grid) > 0.499)
    grid = grid.astype(np.int64)
    if near.size:
        grid[near] = [_snap(x) for x in beliefs[near].tolist()]
    return grid


def _snap(belief: float) -> int:
    """``_grid`` of one belief, in plain Python.  Away from a tie the
    rounded product decides; near one, the exact product of the belief's
    integer ratio does, half to even."""
    scaled = belief * _SCALE
    index = round(scaled)
    if abs(scaled - index) > 0.499:
        numerator, denominator = belief.as_integer_ratio()
        index, rest = divmod(numerator * 10**_ROUND_DIGITS, denominator)
        if 2 * rest > denominator or (2 * rest == denominator and index % 2):
            index += 1
    return index


def hierarchy_partition(u: InformationStructure, exact: bool = False) -> SignalPartition:
    """Partition each player's signals by finite-level belief hierarchy.

    Refinement stabilizes in at most |C| + |D| rounds; ``level`` counts the
    rounds that split a class.  With ``exact=True`` each tensor entry is
    snapped to the nearest fraction with denominator at most 10**15 and the
    conditionals are compared in exact rational arithmetic, without the
    12-digit grid; both modes run the same rounds.

    The last few partitions are memoised per structure object, one entry
    per mode, together with the reduction they give, so
    ``reduce_redundancy``, ``is_redundant``, ``ck_decompose`` and
    ``is_simple`` on the same object refine and merge it once.  The memo is
    keyed on identity, not content, as the gap LP's is: a structure rebuilt
    from the same tensor is refined afresh.  A call that raises is not
    cached.
    """
    return _reduction_of(u, exact)[0]


# The memo holds its structures, so an id cannot be reused while an entry lives.
@functools.lru_cache(maxsize=4)
def _reduction_of(u: InformationStructure, exact: bool) -> tuple[SignalPartition, InformationStructure]:
    """u's partition and ``reduce_redundancy(u, exact)``."""
    part = _refine(u.probs, exact)
    return part, _merge_by_classes(u, part.player1_classes, part.player2_classes)


def _refine(probs: np.ndarray, exact: bool) -> SignalPartition:
    """The refinement behind ``hierarchy_partition``, on a bare (K, C, D)
    tensor of any total mass."""
    n_c = probs.shape[1]
    refinement = _Refinement(probs, exact)
    dirty = refinement.splittable(range(len(refinement.classes)))
    level = 0
    while dirty:
        moved = refinement.split(dirty)
        if not moved:
            break
        level += 1
        dirty = refinement.splittable(refinement.neighbours(moved))
    labels = _number(refinement.classes, n_c)
    labels = [label if live else NULL_CLASS for label, live in zip(labels, refinement.live)]
    return SignalPartition(tuple(labels[:n_c]), tuple(labels[n_c:]), level)


class _Refinement:
    """One refinement in progress.

    Both players' signals sit on one axis, player 1's first.  The entries
    ``owner``, ``state``, ``other`` and ``value`` list the nonzero entries
    of the tensor twice, once on each signal's row, sorted by (owner, state,
    opponent); ``degree[s]`` counts signal s's entries and ``mass[s]`` sums
    them.  ``classes[s]`` is the id of the class of signal s, ``size[g]``
    the number of signals in class g, and ``class_keys[g]`` the key they all
    had when it was last computed.
    """

    def __init__(self, probs: np.ndarray, exact: bool):
        n_k, n_c, n_d = probs.shape
        n = n_c + n_d
        self.n_k, self.exact = n_k, exact
        # pair[s, k, o] is the mass of signal s with opponent signal o in
        # state k.
        pair = np.zeros((n, n_k, n))
        pair[:n_c, :, n_c:] = probs.transpose(1, 0, 2)
        pair[n_c:, :, :n_c] = probs.transpose(2, 0, 1)
        # Null signals (mass at most ZERO_TOL) count as absent, as
        # reduce_redundancy drops them: they hold no entries and are no
        # one's opponent.  Each player's null signals share a class, so the
        # final numbering spends one id on it; they read -1.
        live = np.concatenate([probs.sum(axis=(0, 2)), probs.sum(axis=(0, 1))]) > ZERO_TOL
        if not live.all():
            pair[~live] = 0
            pair[:, :, ~live] = 0
        at = np.flatnonzero(pair)
        value = pair.ravel()[at]
        if exact:
            # Each entry snapped to the nearest fraction with denominator at
            # most 10**15 (so 0.1 reads as 1/10): the only rounding.  An
            # entry below 5e-16 snaps to 0 and is then absent.
            value = np.array([Fraction(x).limit_denominator(10**15) for x in value.tolist()], dtype=object)
            kept = value != 0
            at, value = at[kept], value[kept]
        self.owner, rest = np.divmod(at, n_k * n)
        self.state, self.other = np.divmod(rest, n)
        self.value = value
        if exact:
            self.mass = np.zeros(n, dtype=object)
            np.add.at(self.mass, self.owner, self.value)
        else:
            # bincount adds each signal's entries one at a time in (state,
            # opponent) order, as its cells are summed.
            self.mass = np.bincount(self.owner, weights=self.value, minlength=n)
        self.degree = np.bincount(self.owner, minlength=n).tolist()
        self.live = live.tolist()
        # Four classes to start: each player's live and null signals.
        self.classes = [0] * n_c + [2] * n_d
        for s in np.flatnonzero(~live).tolist():
            self.classes[s] += 1
        self.size = [self.classes.count(g) for g in range(4)]
        self.class_keys: list = [None] * 4

    @functools.cached_property
    def lists(self) -> tuple[list, ...]:
        """Where each signal's entries start, and the entry and mass arrays,
        as lists for the plain-Python kernel."""
        start = [0]
        for d in self.degree:
            start.append(start[-1] + d)
        return start, self.state.tolist(), self.other.tolist(), self.value.tolist(), self.mass.tolist()

    def splittable(self, signals) -> list[int]:
        """The signals among ``signals`` whose class has other members: a
        class of one signal cannot split."""
        return sorted(s for s in signals if self.size[self.classes[s]] > 1)

    def neighbours(self, signals: list[int]):
        """The signals holding an entry on one of ``signals``, or every
        signal when ``signals`` hold more than _PYTHON_ENTRIES entries: a
        clean signal's key comes out as it was, and scanning that many
        entries costs more than the keys it saves."""
        if sum(map(self.degree.__getitem__, signals)) > _PYTHON_ENTRIES:
            return range(len(self.classes))
        start, _, other = self.lists[:3]
        out: set[int] = set()
        for s in signals:
            out.update(other[start[s] : start[s + 1]])
        return out

    def split(self, dirty: list[int]) -> list[int]:
        """One round: recompute the keys of ``dirty`` (in plain Python in
        exact mode or when they hold at most _PYTHON_ENTRIES entries, else
        in one numpy pass), split every class by key and return the signals
        that moved to a new class.

        Only a dirty signal's key can have changed, so a class with clean
        members keeps its id for them and for the dirty members whose key
        is still the class's key.  A class of dirty members alone keeps its
        id for its largest piece.
        """
        if self.exact or sum(map(self.degree.__getitem__, dirty)) <= _PYTHON_ENTRIES:
            keys = self.python_keys(dirty)
        else:
            keys = self.numpy_keys(dirty)
        classes, size = self.classes, self.size
        pieces: dict[int, dict] = {}
        for s, key in zip(dirty, keys):
            pieces.setdefault(classes[s], {}).setdefault(key, []).append(s)
        moved = []
        for g, by_key in pieces.items():
            if sum(map(len, by_key.values())) == size[g]:
                self.class_keys[g] = max(by_key, key=lambda k: len(by_key[k]))
            for key, piece in by_key.items():
                if key != self.class_keys[g]:
                    new = len(size)
                    size.append(len(piece))
                    size[g] -= len(piece)
                    self.class_keys.append(key)
                    for s in piece:
                        classes[s] = new
                    moved += piece
        return moved

    def python_keys(self, dirty: list[int]) -> list:
        """Each dirty signal's key: its belief on each (state, opponent
        class) cell it holds, as (cell code, belief) pairs in code order,
        code = class * K + state.  Each cell is summed one entry at a time in
        (state, opponent) order and divided by the signal's mass.  A float
        belief is its index on the 10**-12 grid, and the key the bytes of
        the pairs as int64; an exact belief is a Fraction, and the key the
        tuple of the pairs."""
        classes, n_k, exact = self.classes, self.n_k, self.exact
        start, state, other, value, mass = self.lists
        keys = []
        for s in dirty:
            cells: dict = {}
            for j in range(start[s], start[s + 1]):
                code = classes[other[j]] * n_k + state[j]
                cells[code] = cells.get(code, 0) + value[j]
            key: list = []
            if exact:
                for code in sorted(cells):
                    key += (code, cells[code] / mass[s])
                keys.append(tuple(key))
            else:
                for code in sorted(cells):
                    key += (code, _snap(cells[code] / mass[s]))
                keys.append(struct.pack(f"{len(key)}q", *key))
        return keys

    def numpy_keys(self, dirty: list[int]) -> list:
        """Float mode's ``python_keys`` in one array pass over every entry:
        the same cells summed in the same order (``bincount`` adds its
        weights one at a time), the same beliefs and keys."""
        width = len(self.size) * self.n_k
        codes = np.array(self.classes)[self.other] * self.n_k + self.state
        sums = np.bincount(self.owner * width + codes, weights=self.value, minlength=len(self.classes) * width)
        rows = sums.reshape(-1, width)[dirty]
        row, code = np.nonzero(rows)
        beliefs = rows[row, code] / self.mass[dirty][row]
        bounds = (2 * np.cumsum(np.bincount(row, minlength=len(dirty)))).tolist()
        data = np.column_stack([code, _grid(beliefs)]).tobytes()
        return [data[8 * a : 8 * b] for a, b in zip([0] + bounds, bounds)]


def reduce_redundancy(u: InformationStructure, exact: bool = False) -> InformationStructure:
    """Merge signals that induce identical belief hierarchies.

    Each hierarchy class becomes one signal carrying the summed mass;
    zero-mass signals are dropped.  The result is non-redundant and
    value-equivalent to the input; a non-redundant input is returned as
    it is.
    """
    return _reduction_of(u, exact)[1]


def _merge_by_classes(u, classes1, classes2) -> InformationStructure:
    """One signal per class of u's signals, in class order, null signals
    dropped; u itself when no signal is null or shares its class."""
    if all(NULL_CLASS not in c and len(set(c)) == len(c) for c in (classes1, classes2)):
        return u
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


def is_redundant(u: InformationStructure) -> bool:
    return reduce_redundancy(u) is not u


def ck_decompose(u: InformationStructure) -> Decomposition:
    """Split into proper common-knowledge components.

    Components are the connected components of the bipartite graph linking a
    player-1 signal and a player-2 signal whenever some state gives their
    pair positive mass; each component satisfies u(A|s) in {0,1} for every
    signal s.  Redundant input is auto-reduced first (with a warning).
    """
    reduced = reduce_redundancy(u)
    if reduced is not u:
        warnings.warn("structure is redundant; reducing before decomposition")
    return _decompose(reduced)


def _component_labels(link: np.ndarray) -> np.ndarray:
    """Smallest node of each node's component in the bipartite graph of
    ``link``, where player-1 signal c is node c and player-2 signal d is
    node n_c + d."""
    n_c = link.shape[0]
    ends1, ends2 = np.nonzero(link)
    ends2 += n_c
    label = np.arange(n_c + link.shape[1])
    while True:
        label1, label2 = label[ends1], label[ends2]
        if (label1 == label2).all():
            return label
        np.minimum.at(label, label1, label2)
        np.minimum.at(label, label2, label1)
        while ((hop := label[label]) != label).any():
            label = hop


def _decompose(u: InformationStructure) -> Decomposition:
    """``ck_decompose`` of a structure known to be non-redundant."""
    n_c = u.signals1_count
    label = _component_labels(u.probs.sum(axis=0) > ZERO_TOL)
    label1, label2 = label[:n_c], label[n_c:]
    components = []
    blocks = []
    # Components come out ordered by their smallest player-1 signal; one
    # without player-1 signals has no mass.
    for root in np.flatnonzero(label1 == np.arange(n_c)).tolist():
        cs = np.flatnonzero(label1 == root)
        ds = np.flatnonzero(label2 == root)
        if not ds.size:
            continue
        block = u.probs.take(cs, axis=1).take(ds, axis=2)
        weight = float(block.sum())
        if weight <= ZERO_TOL:
            continue
        components.append((weight, InformationStructure(block / weight, u.state_labels)))
        blocks.append((tuple(cs.tolist()), tuple(ds.tolist())))
    total = sum(w for w, _ in components)
    if abs(total - 1.0) > NORM_TOL:
        raise ShapeMismatch(f"component weights sum to {total!r}")
    return Decomposition(tuple(components), tuple(blocks))


def is_simple(u: InformationStructure) -> bool:
    """No proper common-knowledge component."""
    return len(ck_decompose(u).components) == 1


def _first_occurrence(joint) -> tuple[list[int], list[int]]:
    """One side's classes of a joint refinement renumbered from 0 by first
    occurrence, null kept null, and the joint class of each new id."""
    names: dict[int, int] = {}
    own = [NULL_CLASS if j == NULL_CLASS else names.setdefault(j, len(names)) for j in joint]
    return own, list(names)


def dnzs(u: InformationStructure, v: InformationStructure) -> float:
    """Nonzero-sum payoff-set distance via the decomposition formula.

    Both structures are reduced to non-redundant form and decomposed into
    simple components; components inducing the same hierarchy distribution
    are matched (unmatched components pair with weight 0), and the distance
    is sum_alpha |p_alpha - q_alpha|.  For simple non-redundant structures
    this is 0 when they share hierarchies and 2 otherwise.

    One refinement of the block-diagonal union of u and v gives both: a
    signal's hierarchy depends on its own block alone, so each side's
    classes, renumbered, are its own partition, and a class shared across
    the sides is a hierarchy both induce.  The union is not rescaled, so a
    signal is null in it exactly when it is null in its own structure.
    """
    if u.state_count != v.state_count:
        raise ShapeMismatch(
            f"state counts differ: {u.state_count} vs {v.state_count}"
        )
    n_k, n_c, n_d = u.shape
    union = np.zeros((n_k, n_c + v.signals1_count, n_d + v.signals2_count))
    union[:, :n_c, :n_d] = u.probs
    union[:, n_c:, n_d:] = v.probs
    joint = _refine(union, exact=False)
    # A component's fingerprint is the distribution it induces over (state,
    # player-1 class, player-2 class).  Its class ids number the joint
    # classes by first occurrence over the components' signals, u's first.
    ids1: dict[int, int] = {}
    ids2: dict[int, int] = {}
    weights = []
    for structure, classes1, classes2 in (
        (u, joint.player1_classes[:n_c], joint.player2_classes[:n_d]),
        (v, joint.player1_classes[n_c:], joint.player2_classes[n_d:]),
    ):
        own1, names1 = _first_occurrence(classes1)
        own2, names2 = _first_occurrence(classes2)
        # The reduced structure's signal j is own class j.
        dec = _decompose(_merge_by_classes(structure, own1, own2))
        by_print: dict = {}
        for (w, comp), (cs, ds) in zip(dec.components, dec.signal_blocks):
            cls1 = np.array([ids1.setdefault(names1[c], len(ids1)) for c in cs])
            cls2 = np.array([ids2.setdefault(names2[d], len(ids2)) for d in ds])
            # The component's signals have distinct classes, so each cell
            # is its own fingerprint entry.
            k, c, d = np.nonzero(comp.probs > ZERO_TOL)
            fp = tuple(
                ((state, id1, id2), round(val, _ROUND_DIGITS))
                for state, id1, id2, val in sorted(
                    zip(k.tolist(), cls1[c].tolist(), cls2[d].tolist(), comp.probs[k, c, d].tolist())
                )
            )
            by_print[fp] = by_print.get(fp, 0.0) + w
        weights.append(by_print)
    weights_u, weights_v = weights
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
    if any(s.state_count != n_k for _, s in parts):
        raise ShapeMismatch(f"components have state counts {[s.state_count for _, s in parts]}")
    n1 = sum(s.signals1_count for _, s in parts)
    n2 = sum(s.signals2_count for _, s in parts)
    probs = np.zeros((n_k, n1, n2))
    o1 = o2 = 0
    for w, s in parts:
        probs[:, o1 : o1 + s.signals1_count, o2 : o2 + s.signals2_count] = w * s.probs
        o1 += s.signals1_count
        o2 += s.signals2_count
    return validate_structure(probs, parts[0][1].state_labels)
