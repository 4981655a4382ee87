"""In-memory span tracing driven from outside the program.

The traced run replaces public entry points of each layer (module
attributes, class methods, or attributes of one instance) with
wrappers that record a span per call, and restores the originals when
it ends, so no file of the program changes.  Spans stay in memory and
are written out once, when the run is over.
"""

from __future__ import annotations

import json
import time
import types
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: ``on_result(result, args, kwargs)`` — counts taken at the boundary.
ResultHook = Callable[[object, tuple, dict], None]


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run_id,
        }


def covered(interval: Tuple[float, float], parts) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in parts if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Per span name: summed duration minus the part of each span's
    interval that its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        kids = children.get(span.sid, ())
        totals[span.name] += span.seconds - covered(
            (span.start, span.end), kids
        )
    return dict(totals)


class Tracer:
    """Records spans around wrapped calls while :attr:`active`."""

    def __init__(self, run_id: str, clock=time.perf_counter) -> None:
        self.run_id = run_id
        self.clock = clock
        self.spans: List[Span] = []
        self.active = False
        self._stack: List[Span] = []
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, self.clock(), 0.0, parent, self.run_id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def inclusive(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.seconds
        return dict(totals)

    def calls(self) -> Dict[str, int]:
        counts: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span.name] += 1
        return dict(counts)

    def self_times(self) -> Dict[str, float]:
        return self_times(self.spans)

    def write(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.to_dict()) + "\n")
        return path

    # -- patching ------------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        on_result: Optional[ResultHook] = None,
    ) -> None:
        """Record a ``name`` span around every call of
        ``owner.attr``.  ``owner`` is a module, a class (the method is
        wrapped for every instance) or one object."""
        shared = isinstance(owner, (type, types.ModuleType))
        if shared:
            original = owner.__dict__[attr]
            had_own = True
        else:
            had_own = attr in vars(owner)
            original = getattr(owner, attr)
        call = original
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return call(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = call(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, had_own))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
