"""Pure-Python reference for ``infodist.hierarchy``: partition refinement by
dict signatures, the merge of signals by class as a loop of slice
additions, the common-knowledge decomposition by union-find, and ``dnzs``
by three refinements.

``hierarchy_partition`` computes the same refinement with array operations;
the tests require it to return exactly what these loops return, classes and
level, and ``reduce_redundancy`` to return the tensor ``merge_by_classes``
builds from those classes, bit for bit.  Signals of mass at most ZERO_TOL
(null signals) form the class -1 and count as absent: their entries are
left out of their opponents' cells and masses, as the library drops them.

``dnzs`` here reduces u and v one at a time and refines a third structure,
the union of all their components scaled to mass 1, for class ids shared
across components.  The library refines u and v together once; the tests
require the two to return the same value, bit for bit.

``decompose`` links signals with a union-find where the library labels
components by array min-propagation; the tests require the same
components, in the same order, with the same blocks and weights, bit for
bit.
"""

from fractions import Fraction

import numpy as np

import infodist
from infodist import InformationStructure, validate_structure
from infodist.config import NORM_TOL, ZERO_TOL
from infodist.errors import ShapeMismatch
from infodist.hierarchy import NULL_CLASS, Decomposition, SignalPartition

_ROUND_DIGITS = 12


def _canonical_ids(signatures):
    """Class ids by first occurrence."""
    mapping = {}
    out = []
    for sig in signatures:
        if sig not in mapping:
            mapping[sig] = len(mapping)
        out.append(mapping[sig])
    return out


def _merge_null(canonical, raw):
    return [NULL_CLASS if r == NULL_CLASS else c for c, r in zip(canonical, raw)]


def _refine(tensor, labels1, labels2, rounder):
    n_k = len(tensor)
    n_c = len(tensor[0])
    n_d = len(tensor[0][0])
    live1 = [c for c in range(n_c) if labels1[c] != NULL_CLASS]
    live2 = [d for d in range(n_d) if labels2[d] != NULL_CLASS]
    sigs1 = []
    for c in range(n_c):
        if labels1[c] == NULL_CLASS:
            sigs1.append(NULL_CLASS)
            continue
        mass = sum(tensor[k][c][d] for k in range(n_k) for d in live2)
        cells = {}
        for k in range(n_k):
            for d in live2:
                key = (k, labels2[d])
                cells[key] = cells.get(key, 0) + tensor[k][c][d]
        sigs1.append(
            tuple(sorted((key, rounder(val / mass)) for key, val in cells.items() if val > 0))
        )
    sigs2 = []
    for d in range(n_d):
        if labels2[d] == NULL_CLASS:
            sigs2.append(NULL_CLASS)
            continue
        mass = sum(tensor[k][c][d] for k in range(n_k) for c in live1)
        cells = {}
        for k in range(n_k):
            for c in live1:
                key = (k, labels1[c])
                cells[key] = cells.get(key, 0) + tensor[k][c][d]
        sigs2.append(
            tuple(sorted((key, rounder(val / mass)) for key, val in cells.items() if val > 0))
        )
    new1 = _merge_null(_canonical_ids([(labels1[c], sigs1[c]) for c in range(n_c)]), labels1)
    new2 = _merge_null(_canonical_ids([(labels2[d], sigs2[d]) for d in range(n_d)]), labels2)
    return new1, new2


def hierarchy_partition(u, exact=False):
    probs = u.probs
    if exact:
        tensor = [
            [[Fraction(float(x)).limit_denominator(10**15) for x in row] for row in plane]
            for plane in probs
        ]

        def rounder(value):
            return value

    else:
        tensor = probs.tolist()

        def rounder(value):
            return round(value, _ROUND_DIGITS)

    mass1 = probs.sum(axis=(0, 2))
    mass2 = probs.sum(axis=(0, 1))
    labels1 = [0 if m > ZERO_TOL else NULL_CLASS for m in mass1]
    labels2 = [0 if m > ZERO_TOL else NULL_CLASS for m in mass2]
    labels1 = _merge_null(_canonical_ids(labels1), labels1)
    labels2 = _merge_null(_canonical_ids(labels2), labels2)
    level = 0
    for _ in range(u.signals1_count + u.signals2_count + 1):
        new1, new2 = _refine(tensor, labels1, labels2, rounder)
        if new1 == labels1 and new2 == labels2:
            break
        labels1, labels2 = new1, new2
        level += 1
    return SignalPartition(tuple(labels1), tuple(labels2), level)


def merge_by_classes(u, classes1, classes2):
    live1 = sorted({c for c in classes1 if c != NULL_CLASS})
    live2 = sorted({c for c in classes2 if c != NULL_CLASS})
    pos1 = {cls: i for i, cls in enumerate(live1)}
    pos2 = {cls: i for i, cls in enumerate(live2)}
    probs = np.zeros((u.state_count, max(len(live1), 1), max(len(live2), 1)))
    for c, cls in enumerate(classes1):
        if cls == NULL_CLASS:
            continue
        for d, cls2 in enumerate(classes2):
            if cls2 == NULL_CLASS:
                continue
            probs[:, pos1[cls], pos2[cls2]] += u.probs[:, c, d]
    return InformationStructure(probs, u.state_labels)


def decompose(u):
    """Common-knowledge components of a non-redundant structure: signals
    joined by a union-find over every signal pair of mass above ZERO_TOL."""
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
    members = {}
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


def ck_decompose(u):
    return decompose(infodist.reduce_redundancy(u))


def contents(dec):
    """A decomposition as plain values, equal iff the two have the same
    blocks and the same weights and component tensors, bit for bit."""
    parts = [(w, c.probs.shape, c.probs.tobytes(), c.state_labels) for w, c in dec.components]
    return dec.signal_blocks, parts


def _component_fingerprints(structures):
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
    part = infodist.hierarchy_partition(validate_structure(union))
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


def dnzs(u, v):
    if u.state_count != v.state_count:
        raise ShapeMismatch(
            f"state counts differ: {u.state_count} vs {v.state_count}"
        )
    dec_u = decompose(infodist.reduce_redundancy(u))
    dec_v = decompose(infodist.reduce_redundancy(v))
    all_components = [s for _, s in dec_u.components] + [s for _, s in dec_v.components]
    prints = _component_fingerprints(all_components)
    n_u = len(dec_u.components)
    weights_u = {}
    for (w, _), fp in zip(dec_u.components, prints[:n_u]):
        weights_u[fp] = weights_u.get(fp, 0.0) + w
    weights_v = {}
    for (w, _), fp in zip(dec_v.components, prints[n_u:]):
        weights_v[fp] = weights_v.get(fp, 0.0) + w
    keys = set(weights_u) | set(weights_v)
    return float(
        sum(abs(weights_u.get(key, 0.0) - weights_v.get(key, 0.0)) for key in keys)
    )
