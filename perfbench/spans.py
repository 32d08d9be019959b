"""In-memory span tracing of infodist's layers, installed from outside.

The tracer replaces a public function at the module attribute its callers
resolve (``lp.solve``, ``distance.value``, ``lp.linprog``, scipy's
``_highs_wrapper`` ...) with a wrapper that records a span: name, layer,
start, end, parent span, op id, the exception class if the call raised, and
a few counts read from the call's arguments or result.  Library code is not
edited; restoring the original attributes undoes everything.

A span's self time is its duration minus the time covered by its child
spans.  The library is single-threaded, so children of one span run one
after another and never overlap: the covered time is the sum of their
durations.  Every moment inside an op belongs to exactly one span's self
time, so the per-layer self times of an op add up to the op's duration.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

OP_LAYER = "bench"


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int | None
    op_id: int
    end: float = float("nan")
    error: str | None = None
    detail: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while ``active``; every wrapped call passes straight
    through to the original function otherwise."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.active = False
        self._stack: list[int] = []
        self._op_id = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, self.clock(), parent, self._op_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, error: str | None = None, **detail) -> None:
        span = self.spans[index]
        span.end = self.clock()
        span.error = error
        span.detail.update(detail)
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")

    def begin_op(self, name: str) -> int:
        self._op_id += 1
        return self.open(name, OP_LAYER)

    # -- installation ------------------------------------------------------

    def wrap(self, module, attr: str, name: str, layer: str, detail=None) -> None:
        """Replace ``module.attr`` by a recording wrapper.

        ``detail(args, kwargs, result)`` may return counts to attach to the
        span; it is called only when the wrapped call returned.
        """
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            index = tracer.open(name, layer)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer.close(index, error=type(exc).__name__)
                raise
            tracer.close(index, **(detail(args, kwargs, result) if detail else {}))
            return result

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({"id": index, **span.__dict__}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the summed durations of its children."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    """Total self time per layer over all spans."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.layer] = totals.get(span.layer, 0.0) + own
    return totals


def op_seconds(spans: list[Span]) -> float:
    """Total duration of the op spans (the roots of the trace)."""
    return sum(span.duration for span in spans if span.parent is None)

