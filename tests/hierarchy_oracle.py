"""Pure-Python reference for ``infodist.hierarchy``: partition refinement by
dict signatures, and the merge of signals by class as a loop of slice
additions.

``hierarchy_partition`` computes the same refinement with array operations;
the tests require it to return exactly what these loops return, classes and
level, and ``reduce_redundancy`` to return the tensor ``merge_by_classes``
builds from those classes, bit for bit.  The one place they differ on purpose: these loops
count a signal's cells on opponent signals of positive mass at most
ZERO_TOL (null signals), which the library takes as absent.
"""

from fractions import Fraction

import numpy as np

from infodist import InformationStructure
from infodist.config import ZERO_TOL
from infodist.hierarchy import NULL_CLASS, SignalPartition

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
    sigs1 = []
    for c in range(n_c):
        if labels1[c] == NULL_CLASS:
            sigs1.append(NULL_CLASS)
            continue
        mass = sum(tensor[k][c][d] for k in range(n_k) for d in range(n_d))
        cells = {}
        for k in range(n_k):
            for d in range(n_d):
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
        mass = sum(tensor[k][c][d] for k in range(n_k) for c in range(n_c))
        cells = {}
        for k in range(n_k):
            for c in range(n_c):
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
