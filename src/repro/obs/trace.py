"""Span-based stage tracing (``repro.obs``).

A :class:`Span` is one timed region of the hot path —
``with obs.span("stream.batch", batch=3):`` — and spans nest: the
tracer maintains a stack, so each emitted row carries its parent and
depth and a recorded run reconstructs the full stage tree (batch >
stage > shard op) that ``repro stats`` folds into the Fig. 9-style
per-stage breakdown.

Tracing is also **cross-process**: every recording tracer owns a
``trace_id`` and gives each recorded span a per-trace ``span_id``.
:meth:`Tracer.current_context` exposes the active ``(trace id,
span id)`` pair, which the :class:`~repro.stream.shards.ShardPool`
ships to shard workers alongside each op; the worker times its real
work as *remote span records* that ride back with the reply, and
:meth:`Tracer.attach_remote` re-attaches them under the span that
issued the request — so a ``shard.peek`` span recorded inside a
worker process lands in the recorded forest as a child of the parent
batch's ``stream.learn`` span, with its shard index as a tag.

Three properties matter for the rest of the system:

* **spans always time** — ``Span.seconds`` is valid even under the
  null tracer, so consolidator stage timings (``BatchReport.
  stage_seconds``) come from the very same spans whether or not
  anyone is recording;
* **recording is opt-in twice** — span *rows* are only emitted to the
  sink when the tracer was built with ``trace=True``; the per-span
  duration histograms land in the registry whenever one is attached.
  With neither, a span is two ``perf_counter`` calls and an integer
  push/pop;
* **context is free when off** — span ids are only assigned (and
  trace context only ships to workers) when ``trace=True``, so the
  cross-process machinery adds nothing to an untraced run.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .metrics import NULL_REGISTRY

Emit = Callable[[Dict[str, object]], None]

#: The trace context shipped with cross-process requests: ``(trace id,
#: parent span id)``, or ``None`` when nobody is recording.
TraceContext = Optional[Tuple[str, int]]

#: One worker-recorded span, shipped back inside a reply: ``span`` /
#: ``seconds`` plus optional ``tags`` and ``parent`` (the relative
#: index of its parent record within the same list; ``None`` roots
#: attach under the span that issued the request).  Records are listed
#: in exit order — children before their parents — matching the order
#: a local tracer would have emitted them.
RemoteSpan = Dict[str, object]


class Span:
    """One timed region.  Use as a context manager; after exit,
    ``seconds`` holds the measured duration."""

    __slots__ = ("name", "tags", "tracer", "seconds", "span_id", "_start")

    def __init__(
        self,
        name: str,
        tags: Dict[str, object],
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.name = name
        self.tags = tags
        self.tracer = tracer
        self.seconds = 0.0
        #: per-trace span id; assigned at entry by a recording tracer
        self.span_id: Optional[int] = None
        self._start = 0.0

    def __enter__(self) -> "Span":
        if self.tracer is not None:
            self.tracer._enter(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds = time.perf_counter() - self._start
        if self.tracer is not None:
            self.tracer._exit(self)


def _new_trace_id() -> str:
    """A fresh random 64-bit trace id (hex)."""
    return os.urandom(8).hex()


class Tracer:
    """Builds spans, tracks nesting, and fans span durations out to the
    registry (histograms) and — when ``trace=True`` — the sink (rows).
    """

    def __init__(
        self,
        registry=NULL_REGISTRY,
        emit: Optional[Emit] = None,
        trace: bool = False,
        trace_id: Optional[str] = None,
    ) -> None:
        self.registry = registry
        self._emit = emit
        self.trace = trace and emit is not None
        self.trace_id = trace_id if trace_id is not None else _new_trace_id()
        self._stack: List[Span] = []
        self._sequence = 0
        self._span_ids = 0

    def span(self, name: str, **tags: object) -> Span:
        return Span(name, tags, tracer=self)

    # -- cross-process context ---------------------------------------------

    def current_context(self) -> TraceContext:
        """The ``(trace id, active span id)`` pair a cross-process
        request should carry, or ``None`` when rows are not being
        recorded (workers then skip span recording entirely)."""
        if not self.trace or not self._stack:
            return None
        span_id = self._stack[-1].span_id
        if span_id is None:  # pragma: no cover — trace spans always get ids
            return None
        return self.trace_id, span_id

    def current_name(self) -> Optional[str]:
        """Name of the innermost active span (``None`` outside spans).

        Safe to call from another thread (the sampling profiler reads
        it concurrently): worst case it sees a just-popped stack.
        """
        stack = self._stack
        try:
            return stack[-1].name if stack else None
        except IndexError:  # pragma: no cover — cross-thread pop race
            return None

    def attach_remote(self, spans: Sequence[RemoteSpan]) -> None:
        """Re-attach worker-recorded spans under the active span.

        ``spans`` is the reply's remote-span list (children before
        parents, relative ``parent`` indexes).  Each record becomes a
        real span row of this trace: fresh ids, the current sequence,
        and parentage rooted at the span that is active *now* — for the
        synchronous shard protocol that is exactly the span that issued
        the request, so a worker's ``shard.peek`` lands under the
        parent batch's ``stream.learn``.
        """
        if not self.trace or not spans:
            return
        parent_span = self._stack[-1] if self._stack else None
        base_depth = len(self._stack)
        ids: List[int] = []
        for _ in spans:
            self._span_ids += 1
            ids.append(self._span_ids)
        depths: Dict[int, int] = {}

        def depth_of(index: int) -> int:
            if index in depths:
                return depths[index]
            parent_index = spans[index].get("parent")
            if parent_index is None:
                depth = base_depth
            else:
                depth = depth_of(int(parent_index)) + 1
            depths[index] = depth
            return depth

        for index, record in enumerate(spans):
            name = str(record["span"])
            seconds = float(record["seconds"])
            if self.registry.enabled:
                self.registry.histogram(
                    "span.seconds", deterministic=False, span=name
                ).observe(seconds)
            parent_index = record.get("parent")
            if parent_index is None:
                parent_name = parent_span.name if parent_span else None
                parent_id = parent_span.span_id if parent_span else None
            else:
                parent_name = str(spans[int(parent_index)]["span"])
                parent_id = ids[int(parent_index)]
            self._sequence += 1
            row: Dict[str, object] = {
                "type": "span",
                "seq": self._sequence,
                "span": name,
                "parent": parent_name,
                "depth": depth_of(index),
                "seconds": round(seconds, 9),
                "trace": self.trace_id,
                "id": ids[index],
                "parent_id": parent_id,
            }
            tags = record.get("tags")
            if tags:
                row["tags"] = {key: tags[key] for key in sorted(tags)}
            self._emit(row)

    # -- span lifecycle (called by Span) -----------------------------------

    def _enter(self, span: Span) -> None:
        if self.trace:
            self._span_ids += 1
            span.span_id = self._span_ids
        self._stack.append(span)

    def _exit(self, span: Span) -> None:
        depth = len(self._stack) - 1
        parent = self._stack[depth - 1] if depth > 0 else None
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        else:  # pragma: no cover — misnested exit; recover, don't wedge
            self._stack = [s for s in self._stack if s is not span]
        if self.registry.enabled:
            self.registry.histogram(
                "span.seconds",
                deterministic=False,
                span=span.name,
            ).observe(span.seconds)
        if self.trace:
            self._sequence += 1
            row: Dict[str, object] = {
                "type": "span",
                "seq": self._sequence,
                "span": span.name,
                "parent": parent.name if parent is not None else None,
                "depth": depth,
                "seconds": round(span.seconds, 9),
                "trace": self.trace_id,
                "id": span.span_id,
                "parent_id": parent.span_id if parent is not None else None,
            }
            if span.tags:
                row["tags"] = {
                    key: span.tags[key] for key in sorted(span.tags)
                }
            self._emit(row)


class NullTracer:
    """The disabled tracer: spans still time (callers read
    ``span.seconds``), but nothing is recorded anywhere."""

    trace = False
    trace_id: Optional[str] = None

    def span(self, name: str, **tags: object) -> Span:
        return Span(name, tags, tracer=None)

    def current_context(self) -> TraceContext:
        return None

    def current_name(self) -> Optional[str]:
        return None

    def attach_remote(self, spans: Sequence[RemoteSpan]) -> None:
        pass


NULL_TRACER = NullTracer()
