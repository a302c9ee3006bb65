"""Span tracing: lightweight nestable spans over the serving pipeline.

A :class:`Tracer` produces :class:`Span` records — ``trace_id`` /
``span_id`` / ``parent_id``, monotonic timestamps, free-form tags — and
keeps the most recent ones in a bounded ring buffer (old spans fall off;
a ``dropped`` counter owns up to it).  Context propagates three ways:

* **same thread** — a :mod:`contextvars` variable tracks the active span,
  so nested ``with tracer.span(...)`` blocks parent automatically;
* **across threads** — worker pools do not inherit context, so callers
  capture :meth:`Tracer.current_context` and pass it as the explicit
  ``parent`` of the worker-side span;
* **across processes** — a :class:`SpanContext` is two ints, so it
  crosses into the worker (as two control words of a shm ring slot,
  which is what :class:`~repro.runtime.shard.ShardedRuntime` does per
  chunk), whose local tracer parents its spans under it and drains them
  back with the chunk's telemetry.

Timestamps derive from ``time.perf_counter()`` against a wall-clock epoch
captured at tracer construction: monotonic within a process (no wall
clock steps mid-trace), comparable across processes to within clock sync.

:func:`chrome_trace` renders any span collection as Chrome trace-event
JSON (``chrome://tracing`` / Perfetto "X" complete events).
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import json
import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Union

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanContext",
    "Tracer",
    "chrome_trace",
]


class SpanContext(NamedTuple):
    """The picklable identity of a span: enough to parent a child under
    it from another thread or process.  A NamedTuple — one is built per
    traced server request, where frozen-dataclass construction is too
    slow."""

    trace_id: int
    span_id: int


@dataclass(slots=True)
class Span:
    """One finished (or in-flight) span.

    ``start`` is seconds since the Unix epoch but *derived from the
    monotonic clock* (see module docstring); ``duration`` is a pure
    ``perf_counter`` delta.  ``pid``/``tid`` record where the span ran.
    """

    trace_id: int
    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    duration: float
    pid: int
    tid: int
    tags: Dict[str, object] = field(default_factory=dict)

    @property
    def context(self) -> SpanContext:
        """This span's identity, for cross-thread/process parenting."""
        return SpanContext(self.trace_id, self.span_id)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable form (the ``/snapshot`` and export schema)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start,
            "duration_s": self.duration,
            "pid": self.pid,
            "tid": self.tid,
            "tags": self.tags,
        }


class _ActiveSpan:
    """Context manager driving one span's lifetime; reusable results land
    in the tracer's ring buffer on exit."""

    __slots__ = ("_tracer", "_span", "_token", "_t0")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._token = self._tracer._current.set(self._span.context)
        self._t0 = time.perf_counter()
        self._span.start = self._tracer._wall(self._t0)
        return self._span

    def __exit__(self, *exc) -> None:
        self._span.duration = time.perf_counter() - self._t0
        self._tracer._current.reset(self._token)
        self._tracer._append(self._span)


class Tracer:
    """Span factory + bounded in-memory span store.

    ``capacity`` bounds the ring buffer; the oldest spans are evicted and
    counted in :attr:`dropped`.  All methods are thread-safe.
    """

    enabled = True

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._store: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._rng = random.Random(os.getpid() ^ int(time.time() * 1e6))
        # Random id base so spans from different tracers (e.g. process
        # workers) stay distinct when merged into one store.
        self._ids = itertools.count(self._rng.getrandbits(48) + 1)
        self._epoch_mono = time.perf_counter()
        self._epoch_wall = time.time()
        self._current: contextvars.ContextVar[Optional[SpanContext]] = (
            contextvars.ContextVar("saxpac_span", default=None)
        )
        self.dropped = 0

    # -- clock ---------------------------------------------------------
    def _wall(self, mono: float) -> float:
        return self._epoch_wall + (mono - self._epoch_mono)

    # -- context -------------------------------------------------------
    def current_context(self) -> Optional[SpanContext]:
        """The active span's context in this thread (None outside spans).
        Capture this before handing work to a pool, and pass it as the
        worker-side span's ``parent``."""
        return self._current.get()

    def activate(self, context: Optional[SpanContext]):
        """Make ``context`` the ambient parent in the *current* execution
        context, without opening a span.  Returns a token for
        :meth:`deactivate`.  This is how an executor thread (which does
        not inherit the event loop's contextvars) adopts the request
        span before running nested ``with tracer.span(...)`` blocks."""
        return self._current.set(context)

    def deactivate(self, token) -> None:
        """Undo a matching :meth:`activate` (same thread/task only)."""
        self._current.reset(token)

    # -- span creation -------------------------------------------------
    def span(
        self,
        name: str,
        parent: Union[Span, SpanContext, None] = None,
        **tags: object,
    ) -> _ActiveSpan:
        """Open a span.  ``parent`` overrides the context-local parent
        (pass a captured :class:`SpanContext` across threads/processes);
        without it, the span nests under the caller's active span, or
        starts a fresh trace at top level."""
        if parent is None:
            parent = self._current.get()
        if isinstance(parent, Span):
            parent = parent.context
        if parent is not None:
            trace_id = parent.trace_id
            parent_id: Optional[int] = parent.span_id
        else:
            trace_id = self._rng.getrandbits(63)
            parent_id = None
        span = Span(
            trace_id=trace_id,
            span_id=next(self._ids),
            parent_id=parent_id,
            name=name,
            start=0.0,
            duration=0.0,
            pid=os.getpid(),
            tid=threading.get_ident(),
            tags=dict(tags) if tags else {},
        )
        return _ActiveSpan(self, span)

    def start_span(
        self,
        name: str,
        parent: Union[Span, SpanContext, None] = None,
        **tags: object,
    ) -> Span:
        """Open a span *without* touching the context variable.

        For lifetimes that cross asyncio tasks (a server request span is
        born in the connection task and finished after the batch task
        responds): a contextvar token cannot be reset from another task,
        so the caller keeps the :class:`Span`, passes its ``.context``
        explicitly where nesting is needed, and calls :meth:`finish`.

        This pair runs once per served request, so it builds the Span
        directly instead of going through :meth:`span`'s context-manager
        machinery.
        """
        if parent is None:
            parent = self._current.get()
        if parent is None:
            trace_id = self._rng.getrandbits(63)
            parent_id = None
        else:  # Span and SpanContext both expose trace_id/span_id
            trace_id = parent.trace_id
            parent_id = parent.span_id
        return Span(
            trace_id,
            next(self._ids),
            parent_id,
            name,
            self._epoch_wall + (time.perf_counter() - self._epoch_mono),
            0.0,
            os.getpid(),
            threading.get_ident(),
            tags,
        )

    def finish(self, span: Span) -> None:
        """Close a :meth:`start_span` span: compute its duration from the
        recorded start and land it in the ring buffer."""
        now = self._epoch_wall + (time.perf_counter() - self._epoch_mono)
        duration = now - span.start
        span.duration = duration if duration > 0.0 else 0.0
        with self._lock:
            if len(self._store) == self.capacity:
                self.dropped += 1
            self._store.append(span)

    def event(
        self,
        name: str,
        parent: Union[Span, SpanContext, None] = None,
        **tags: object,
    ) -> Span:
        """Record a zero-duration span marking a point-in-time occurrence
        (a health transition, a worker respawn).  Parents like
        :meth:`span`; lands in the ring buffer immediately."""
        active = self.span(name, parent=parent, **tags)
        span = active._span
        now = time.perf_counter()
        span.start = self._wall(now)
        span.duration = 0.0
        self._append(span)
        return span

    # -- store ---------------------------------------------------------
    def _append(self, span: Span) -> None:
        with self._lock:
            if len(self._store) == self.capacity:
                self.dropped += 1
            self._store.append(span)

    def ingest(self, spans: Sequence[Span]) -> None:
        """Fold externally-recorded spans in (drained from a worker)."""
        with self._lock:
            for span in spans:
                if len(self._store) == self.capacity:
                    self.dropped += 1
                self._store.append(span)

    def spans(self) -> List[Span]:
        """Snapshot of the buffered spans, oldest first."""
        with self._lock:
            return list(self._store)

    def drain(self) -> List[Span]:
        """Remove and return all buffered spans (for IPC shipping)."""
        with self._lock:
            spans = list(self._store)
            self._store.clear()
        return spans

    def __len__(self) -> int:
        return len(self._store)

    # -- export --------------------------------------------------------
    def export_chrome(self, path: Optional[str] = None) -> str:
        """Chrome trace-event JSON of the buffered spans; written to
        ``path`` when given, returned either way."""
        text = json.dumps(chrome_trace(self.spans()), indent=None)
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text)
                handle.write("\n")
        return text


class NullTracer:
    """Disabled tracer: hands out one shared no-op context manager."""

    enabled = False
    dropped = 0

    _NULL = contextlib.nullcontext()

    def current_context(self) -> None:
        return None

    def activate(self, context) -> None:
        return None

    def deactivate(self, token) -> None:
        pass

    def span(self, name: str, parent=None, **tags):
        return self._NULL

    def start_span(self, name: str, parent=None, **tags) -> None:
        return None

    def finish(self, span) -> None:
        pass

    def event(self, name: str, parent=None, **tags) -> None:
        return None

    def ingest(self, spans) -> None:
        pass

    def spans(self) -> List[Span]:
        return []

    def drain(self) -> List[Span]:
        return []

    def __len__(self) -> int:
        return 0


#: Shared disabled tracer.
NULL_TRACER = NullTracer()


def chrome_trace(spans: Sequence[Span]) -> Dict[str, object]:
    """Render spans as a Chrome trace-event document.

    Each span becomes one ``"ph": "X"`` complete event with microsecond
    ``ts``/``dur``; ``trace_id``/``span_id``/``parent_id`` ride in
    ``args`` so nesting survives round-trips through viewers.
    """
    events = []
    for span in spans:
        args: Dict[str, object] = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
        }
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args.update(span.tags)
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": span.pid,
                "tid": span.tid,
                "cat": span.name.split(".", 1)[0],
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
