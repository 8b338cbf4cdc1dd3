"""Spans recorded from outside the program, around calls into its layers.

A :class:`Tracer` replaces a public function or method at the attribute its
caller looks up (a module global, or a class attribute for methods) with a
wrapper that records a span: name, start, end, parent span and the id of the
operation (training step, classify round, preprocess call) in flight.  Spans
stay in memory until the run ends.  ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass

# Autodiff op tags mapped to metric-safe names.  Tags not listed here and not
# in KEPT_OPS are reported under "other".
OP_ALIASES = {"+": "add", "*": "mul", "-": "sub", "/": "div", "T": "transpose"}
KEPT_OPS = ("conv1d", "maxpool1d", "matmul", "take_rows", "gather", "scatter_rows",
            "relu", "softmax", "top_k_mask", "normal_cdf")
OP_NAMES = KEPT_OPS + ("add", "mul", "sub", "div", "pow", "transpose", "other")


def op_name(tag: str) -> str:
    if tag.startswith("**"):
        return "pow"
    name = OP_ALIASES.get(tag, tag)
    return name if name in OP_NAMES else "other"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index into Tracer.spans
    op: int


class Tracer:
    """Patches the program's layer boundaries and records spans there.

    With ``enabled`` false no span is recorded, and only wraps that carry a
    ``before``/``after`` hook are installed: those are the probes the
    untraced run needs for its end-to-end metrics and output checks.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.op = 0
        self._open: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def call(self, name: str, func, *args, **kwargs):
        if not self.enabled:
            return func(*args, **kwargs)
        index = self.open(name)
        try:
            return func(*args, **kwargs)
        finally:
            self.close(index)

    # -- patching ----------------------------------------------------------------

    def patch(self, owner, attr: str, label: str, make) -> bool:
        """Replace ``owner.attr`` by ``make(original_function)``.

        A class attribute is looked up in the class itself, and a classmethod
        stays a classmethod.  A missing attribute is noted in ``absent`` and
        skipped, so a refactor that removes a traced function does not stop
        the run.
        """
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            self.absent.append(f"{label} ({getattr(owner, '__name__', owner)}.{attr})")
            return False
        is_classmethod = isinstance(raw, classmethod)
        new = make(raw.__func__ if is_classmethod else raw)
        setattr(owner, attr, classmethod(new) if is_classmethod else new)
        self._patches.append((owner, attr, raw))
        return True

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> bool:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``before(args)`` and ``after(args, result)`` run outside the span.
        """
        if not self.enabled and before is None and after is None:
            return False

        def make(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args)
                result = self.call(name, func, *args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            return wrapper

        return self.patch(owner, attr, name, make)

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- output ------------------------------------------------------------------

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest, so children never overlap and their
    durations add.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    return [span.end - span.start - child for span, child in zip(spans, child_time)]


def add_step_spans(spans: list[Span], parent: str, boundary: str, step: str) -> None:
    """Split every ``parent`` span into steps that end where its ``boundary``
    children end, and move its other children into the step they fall in.

    The training loop has no per-step call to wrap, but each step ends when
    the optimizer returns; this recovers one span per step, whose self time
    is the loop's own work in that step.  Step spans are appended.
    """
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        children.setdefault(span.parent, []).append(index)
    for index in [i for i, span in enumerate(spans) if span.name == parent]:
        start = spans[index].start
        kids = children.get(index, [])
        for end_kid in [k for k in kids if spans[k].name == boundary]:
            end = spans[end_kid].end
            spans.append(Span(step, start, end, index, spans[end_kid].op))
            for kid in kids:
                if spans[kid].start >= start and spans[kid].end <= end:
                    spans[kid].parent = len(spans) - 1
            start = end
