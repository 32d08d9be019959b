"""Probability tensors, garblings, and total-variation arithmetic.

An information structure is a common-prior distribution over
``(state, player-1 signal, player-2 signal)``, stored as a dense 3-tensor
``probs[k, c, d]``.  A garbling is a row-stochastic matrix from a signal set
to a distribution over a target set; applied on the left it degrades player
1's signal, on the right player 2's.  Signal identity is positional; labels
are cosmetic metadata.

All values are immutable after validation and every operation is a pure
function, so instances may be shared freely between concurrent tasks.  They
compare and hash by identity (``u == v`` is ``u is v``), so they can key a
cache; compare content with ``np.array_equal(u.probs, v.probs)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import NORM_TOL, ZERO_TOL, check_integer
from .errors import (
    HypothesisViolated,
    InvalidParameters,
    NegativeMass,
    NotNormalized,
    ShapeMismatch,
    ShrinkNotAllowed,
    ZeroMassCondition,
)

PLAYER1 = "player1"
PLAYER2 = "player2"


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=float)
    out.setflags(write=False)
    return out


def _check_nonnegative(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr`` with its entries in [-ZERO_TOL, 0) set to 0.  Two reductions
    check it: a NaN or an infinity shows in its least or greatest entry."""
    low = arr.min(initial=0.0)
    high = arr.max(initial=0.0)
    if not -np.inf < low <= high < np.inf:
        raise NotNormalized(f"{what} contains non-finite entries")
    if low < -ZERO_TOL:
        raise NegativeMass(f"{what} has an entry {low:g} < -{ZERO_TOL:g}")
    return np.maximum(arr, 0.0)


def _parse_json(text: str, what: str):
    """``text`` as JSON; malformed text raises InvalidParameters."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParameters(f"{what} is not valid JSON: {exc}") from None


def _json_object(text: str, what: str, *keys: str) -> dict:
    """``text`` as a JSON object that holds every one of ``keys``."""
    payload = _parse_json(text, what)
    if not isinstance(payload, dict):
        raise InvalidParameters(f"{what} must be a JSON object")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise InvalidParameters(f"{what} lacks {', '.join(map(repr, missing))}")
    return payload


def _json_floats(value, what: str) -> np.ndarray:
    """A JSON value as a float array; ragged or non-numeric lists raise ShapeMismatch."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ShapeMismatch(f"{what} is not a rectangular array of numbers: {exc}") from None


@dataclass(frozen=True, eq=False)
class InformationStructure:
    """Validated distribution over (state, player-1 signal, player-2 signal)."""

    probs: np.ndarray
    state_labels: tuple[str, ...] = ()

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 3:
            raise ShapeMismatch(f"probs must be a 3-tensor, got ndim={probs.ndim}")
        if min(probs.shape) < 1:
            raise ShapeMismatch(f"all axes must be positive, got shape {probs.shape}")
        probs = _check_nonnegative(probs, "structure tensor")
        total = probs.sum()
        if abs(total - 1.0) > NORM_TOL:
            raise NotNormalized(f"structure mass is {float(total)!r}, not 1 within {NORM_TOL:g}")
        labels = tuple(self.state_labels) or tuple(str(k) for k in range(probs.shape[0]))
        if len(labels) != probs.shape[0]:
            raise ShapeMismatch(
                f"{len(labels)} state labels for {probs.shape[0]} states"
            )
        object.__setattr__(self, "probs", _frozen(probs / total))
        object.__setattr__(self, "state_labels", labels)

    @property
    def state_count(self) -> int:
        return self.probs.shape[0]

    @property
    def signals1_count(self) -> int:
        return self.probs.shape[1]

    @property
    def signals2_count(self) -> int:
        return self.probs.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.probs.shape

    def state_marginal(self) -> np.ndarray:
        return self.probs.sum(axis=(1, 2))

    def to_json(self) -> str:
        payload = {
            "states": list(self.state_labels),
            "signals1": self.signals1_count,
            "signals2": self.signals2_count,
            "probs": self.probs.tolist(),
        }
        return json.dumps(payload)

    @staticmethod
    def from_json(text: str) -> "InformationStructure":
        payload = _json_object(text, "structure", "probs")
        probs = _json_floats(payload["probs"], "probs")
        labels = payload.get("states")
        if labels is not None and not isinstance(labels, list):
            raise InvalidParameters("states field must be a list of state labels")
        if probs.ndim != 3:
            raise ShapeMismatch("probs field must be a 3-level nested list")
        if probs.shape[1] != payload.get("signals1", probs.shape[1]) or probs.shape[
            2
        ] != payload.get("signals2", probs.shape[2]):
            raise ShapeMismatch("signal counts do not match tensor dimensions")
        return validate_structure(probs, labels)


@dataclass(frozen=True, eq=False)
class Garbling:
    """Row-stochastic map from a source signal set to a target signal set."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or min(rows.shape) < 1:
            raise ShapeMismatch(f"garbling rows must be a 2-D matrix, got {rows.shape}")
        rows = _check_nonnegative(rows, "garbling rows")
        sums = rows.sum(axis=1)
        if np.abs(sums - 1.0).max() > NORM_TOL:
            worst = np.abs(sums - 1.0).max()
            raise NotNormalized(f"garbling row sum off by {worst:g} (> {NORM_TOL:g})")
        object.__setattr__(self, "rows", _frozen(rows / sums[:, None]))

    @property
    def source_count(self) -> int:
        return self.rows.shape[0]

    @property
    def target_count(self) -> int:
        return self.rows.shape[1]

    @staticmethod
    def identity(n: int) -> "Garbling":
        return Garbling(np.eye(check_integer(n, "n", 1)))

    @staticmethod
    def constant(source: int, target: int, index: int = 0) -> "Garbling":
        source, target = check_integer(source, "source", 1), check_integer(target, "target", 1)
        # Any integer index; one outside the targets is a shape error.
        if not 0 <= check_integer(index, "index", -math.inf) < target:
            raise ShapeMismatch(f"target index {index} out of range for {target} targets")
        rows = np.zeros((source, target))
        rows[:, index] = 1.0
        return Garbling(rows)

    def to_json(self) -> str:
        return json.dumps(
            {
                "source": self.source_count,
                "target": self.target_count,
                "rows": self.rows.tolist(),
            }
        )

    @staticmethod
    def from_json(text: str) -> "Garbling":
        payload = _json_object(text, "garbling", "source", "target", "rows")
        rows = _json_floats(payload["rows"], "rows")
        if rows.shape != (payload["source"], payload["target"]):
            raise ShapeMismatch("rows do not match declared source/target counts")
        return Garbling(rows)


@dataclass(frozen=True)
class ConditionalQuery:
    """Grouping of tensor axes into (x, y, z) roles for the conditional
    independence measurement: how far x is from independent of y given z."""

    x_axes: tuple[int, ...]
    y_axes: tuple[int, ...]
    z_axes: tuple[int, ...] = field(default=())

    def validate_for(self, ndim: int) -> None:
        groups = (tuple(self.x_axes), tuple(self.y_axes), tuple(self.z_axes))
        seen = [a for g in groups for a in g]
        if sorted(seen) != list(range(ndim)):
            raise ShapeMismatch(
                f"axis groups {groups} do not partition the {ndim} tensor axes"
            )
        if not self.x_axes or not self.y_axes:
            raise ShapeMismatch("x and y axis groups must be non-empty")


def validate_structure(raw, state_labels=None) -> InformationStructure:
    """Validate a raw 3-tensor and return the normalized immutable structure."""
    arr = np.asarray(raw, dtype=float)
    labels = tuple(state_labels) if state_labels is not None else ()
    return InformationStructure(arr, labels)


def garble(u: InformationStructure, side: str, q: Garbling) -> InformationStructure:
    """Apply a garbling to one player's signal.

    ``q.u(k,c,d) = sum_c' u(k,c',d) q(c|c')`` for player 1, and the dual for
    player 2.  The marginal over (state, other player's signal) is preserved
    exactly.
    """
    return InformationStructure(_garbled_probs(u, side, q), u.state_labels)


def _garbled_probs(u: InformationStructure, side: str, q: Garbling) -> np.ndarray:
    """The tensor of ``garble(u, side, q)`` before it is validated."""
    if side == PLAYER1:
        if q.source_count != u.signals1_count:
            raise ShapeMismatch(
                f"garbling source {q.source_count} != player-1 signals {u.signals1_count}"
            )
        return np.einsum("kcd,ce->ked", u.probs, q.rows)
    if side == PLAYER2:
        if q.source_count != u.signals2_count:
            raise ShapeMismatch(
                f"garbling source {q.source_count} != player-2 signals {u.signals2_count}"
            )
        return np.einsum("kcd,df->kcf", u.probs, q.rows)
    raise ShapeMismatch(f"side must be {PLAYER1!r} or {PLAYER2!r}, got {side!r}")


def compose_garblings(outer: Garbling, inner: Garbling) -> Garbling:
    """Garbling that applies ``inner`` first, then ``outer``.

    Satisfies ``garble(u, s, compose(outer, inner)) == garble(garble(u, s,
    inner), s, outer)`` entrywise.
    """
    if outer.source_count != inner.target_count:
        raise ShapeMismatch(
            f"outer source {outer.source_count} != inner target {inner.target_count}"
        )
    return Garbling(inner.rows @ outer.rows)


def l1_distance(u: InformationStructure, v: InformationStructure) -> float:
    """Total-variation norm ``sum_{k,c,d} |u(k,c,d) - v(k,c,d)|``, in [0, 2]."""
    if u.shape != v.shape:
        raise ShapeMismatch(
            f"structures have shapes {u.shape} and {v.shape}; embed_signals first"
        )
    return float(np.abs(u.probs - v.probs).sum())


def embed_signals(
    u: InformationStructure, target1: int, target2: int
) -> InformationStructure:
    """Zero-pad the signal spaces up to (target1, target2)."""
    target1, target2 = check_integer(target1, "target1", 1), check_integer(target2, "target2", 1)
    if target1 < u.signals1_count or target2 < u.signals2_count:
        raise ShrinkNotAllowed(
            f"cannot embed {u.shape[1:]} into ({target1}, {target2})"
        )
    probs = np.zeros((u.state_count, target1, target2))
    probs[:, : u.signals1_count, : u.signals2_count] = u.probs
    return InformationStructure(probs, u.state_labels)


def _check_same_states(u: InformationStructure, v: InformationStructure) -> None:
    """The one check that two structures compared with each other share
    their state count."""
    if u.state_count != v.state_count:
        raise ShapeMismatch(
            f"state counts differ: {u.state_count} vs {v.state_count}"
        )


def common_embedding(
    u: InformationStructure, v: InformationStructure
) -> tuple[InformationStructure, InformationStructure]:
    """Embed both structures into the per-player maximum signal spaces."""
    _check_same_states(u, v)
    n1 = max(u.signals1_count, v.signals1_count)
    n2 = max(u.signals2_count, v.signals2_count)
    return embed_signals(u, n1, n2), embed_signals(v, n1, n2)


def marginalize(tensor: np.ndarray, keep_axes: tuple[int, ...]) -> np.ndarray:
    """Marginal of a probability tensor over ``keep_axes`` (original order)."""
    arr = np.asarray(tensor, dtype=float)
    keep = tuple(keep_axes)
    if any(a < 0 or a >= arr.ndim for a in keep) or len(set(keep)) != len(keep):
        raise ShapeMismatch(f"invalid axes {keep} for ndim={arr.ndim}")
    drop = tuple(a for a in range(arr.ndim) if a not in keep)
    out = arr.sum(axis=drop) if drop else arr.copy()
    if keep != tuple(sorted(keep)):
        order = np.argsort(np.argsort(keep))
        out = np.transpose(out, axes=tuple(order))
    return out


def conditional(tensor: np.ndarray, given: dict[int, int]) -> np.ndarray:
    """Conditional distribution over the remaining axes given cell values.

    ``given`` maps axis index to the fixed value on that axis.  Raises
    ``ZeroMassCondition`` when the conditioning cell has mass below 1e-12.
    """
    arr = np.asarray(tensor, dtype=float)
    index = [slice(None)] * arr.ndim
    for axis, value in given.items():
        if not (isinstance(axis, (int, np.integer)) and 0 <= axis < arr.ndim):
            raise ShapeMismatch(f"axis {axis!r} out of range for ndim={arr.ndim}")
        if not (isinstance(value, (int, np.integer)) and 0 <= value < arr.shape[axis]):
            raise ShapeMismatch(f"value {value!r} out of range for axis {axis} of size {arr.shape[axis]}")
        index[axis] = value
    sliced = arr[tuple(index)]
    mass = sliced.sum()
    if mass < ZERO_TOL:
        raise ZeroMassCondition(f"conditioning cell has mass {mass:g} < {ZERO_TOL:g}")
    return sliced / mass


def eps_conditional_independence(tensor: np.ndarray, query: ConditionalQuery) -> float:
    """Expected total-variation gap between a conditional joint and the
    product of its conditional marginals:

        sum_z mu(z) sum_{x,y} |mu(x,y|z) - mu(x|z) mu(y|z)|

    z-cells with mass below 1e-12 are skipped (they contribute 0).  The value
    lies in [0, 2] and is 0 exactly when x is independent of y given z.
    """
    arr = np.asarray(tensor, dtype=float)
    query.validate_for(arr.ndim)
    order = tuple(query.x_axes) + tuple(query.y_axes) + tuple(query.z_axes)
    moved = np.transpose(arr, order)
    nx = math.prod(arr.shape[a] for a in query.x_axes)
    ny = math.prod(arr.shape[a] for a in query.y_axes)
    nz = math.prod(arr.shape[a] for a in query.z_axes)
    flat = moved.reshape(nx, ny, nz)
    pz = flat.sum(axis=(0, 1))
    kept = np.flatnonzero(pz >= ZERO_TOL)
    # Indexing along z keeps each (x, y) slice in the memory layout that a
    # loop over the z-cells slices, so each sum below adds in its order.
    joint = flat.transpose(2, 0, 1)[kept] / pz[kept, None, None]
    product = joint.sum(axis=2)[:, :, None] * joint.sum(axis=1)[:, None, :]
    gaps = np.abs(joint - product).reshape(len(kept), nx * ny).sum(axis=1)
    # Python's sum adds the z-cells one at a time, in order.
    return float(sum((pz[kept] * gaps).tolist(), 0.0))


# The largest measured violation a hypothesis check accepts, such as an
# eps_conditional_independence of a structure meant to be independent.
HYPOTHESIS_TOL = 1e-9


# A structure's player-1 signal against its player-2 signal, given the state.
_SIGNALS_GIVEN_STATE = ConditionalQuery((1,), (2,), (0,))


def check_signals_cond_indep(*structures: InformationStructure) -> None:
    """Raise HypothesisViolated unless, in each structure, the two players'
    signals are conditionally independent given the state, within
    HYPOTHESIS_TOL."""
    for s in structures:
        ci = eps_conditional_independence(s.probs, _SIGNALS_GIVEN_STATE)
        if ci > HYPOTHESIS_TOL:
            raise HypothesisViolated(
                f"signals not conditionally independent given the state: {ci:g}"
            )
