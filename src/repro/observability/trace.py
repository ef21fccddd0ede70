"""Structured span tracing for campaign execution.

The beam host in the paper is itself an instrument: it timestamps every
execution, knows which board produced which output, and its logs are what
the whole FIT analysis is computed from.  :class:`Tracer` gives the
simulated harness the same spine — a tree of **span events**::

    session              one shared beam exposure (BeamSession.run)
    └── board            one board slot's campaign
        └── campaign     one Campaign.run / run_natural
            └── chunk    one worker task (contiguous index range)
                └── execution   one struck execution

Each event records wall-clock start, duration, the worker that ran it
(``pid``/thread), and kind-specific attributes (outcome, resource, fault
site, strike index...).  Events are emitted on span *completion* — one
line each, no separate begin/end records — which keeps sinks append-only
and the JSONL trivially greppable.

Two sinks ship with the tracer: :class:`JsonlSink` (one JSON object per
line, single-writer, lock-guarded) and :class:`RingBufferSink` (last *N*
events in memory — the live-inspection and test sink).  A tracer fans out
to any number of sinks.

Parenting uses a context variable, so nested ``with tracer.span(...)``
blocks link up automatically within a thread of control; spans open
side by side (the boards and campaigns of one scheduler run) use
``current=False`` and are passed as ``parent=`` explicitly.  Worker
*processes* never emit directly — the executor measures timings
worker-side and the parent re-emits them, so a trace file always has
exactly one writer.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "SpanEvent",
    "Span",
    "Tracer",
    "JsonlSink",
    "RingBufferSink",
    "read_trace",
    "SPAN_KINDS",
]

#: The span taxonomy, outermost first.  ``kind`` is free-form (the schema
#: is open), but the campaign hot path emits exactly these.  ``lease``
#: events (grant / expiry / fenced push) come from the fleet coordinator
#: and sit beside ``chunk`` — same unit of work, remote holder.
SPAN_KINDS = (
    "session",
    "matrix",  # one declarative sweep driving many campaigns
    "board",
    "campaign",
    "sampling",
    "lease",
    "chunk",
    "execution",
)

_TRACE_FORMAT_VERSION = 1

#: The active span of the current logical context (thread / task).
_current_span: contextvars.ContextVar = contextvars.ContextVar(
    "repro_current_span", default=None
)


def worker_id() -> str:
    """Identify the executing worker: ``pid:<pid>/<thread name>``."""
    return f"pid:{os.getpid()}/{threading.current_thread().name}"


@dataclass(frozen=True)
class SpanEvent:
    """One completed span.

    Attributes:
        kind: span taxonomy level (``campaign``, ``chunk``, ...).
        name: human-readable span name (``"dgemm/k40"``, ``"chunk3"``).
        span_id: unique id within the trace.
        parent_id: enclosing span's id, or ``None`` for a root span.
        start: wall-clock start (``time.time()`` seconds).
        duration: elapsed seconds (monotonic-clock difference).
        worker: ``pid:<pid>/<thread>`` of whoever did the work.
        attrs: kind-specific metadata (outcome, index, seed, ...).
    """

    kind: str
    name: str
    span_id: int
    parent_id: "int | None"
    start: float
    duration: float
    worker: str
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "worker": self.worker,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SpanEvent":
        return cls(
            kind=payload["kind"],
            name=payload["name"],
            span_id=payload["span_id"],
            parent_id=payload.get("parent_id"),
            start=payload["start"],
            duration=payload["duration"],
            worker=payload.get("worker", ""),
            attrs=payload.get("attrs", {}),
        )


class Span:
    """A live span; mutate attributes with :meth:`set` before it closes."""

    __slots__ = ("kind", "name", "span_id", "parent_id", "attrs", "start", "_t0")

    def __init__(self, kind, name, span_id, parent_id, attrs):
        self.kind = kind
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = dict(attrs)
        self.start = time.time()
        self._t0 = time.perf_counter()

    def set(self, **attrs) -> "Span":
        """Attach attributes (e.g. the outcome, known only at the end)."""
        self.attrs.update(attrs)
        return self


class JsonlSink:
    """Appends one JSON object per event to a file (single writer, locked).

    Every write is flushed immediately: campaign pools ``fork`` worker
    processes mid-trace, and a forked child inheriting a non-empty stdio
    buffer would flush duplicate lines into the file when it exits.  An
    empty buffer at fork time (plus the workers-never-emit rule) keeps the
    trace single-writer-clean; it also makes a live trace tail-able.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._fh = self.path.open("w")
        self._fh.write(
            json.dumps(
                {"trace_format_version": _TRACE_FORMAT_VERSION,
                 "created": time.time()}
            )
            + "\n"
        )
        self._fh.flush()

    def emit(self, event: SpanEvent) -> None:
        line = json.dumps(event.to_dict())
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()
                self._fh.close()


class RingBufferSink:
    """Keeps the last ``capacity`` events in memory."""

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def emit(self, event: SpanEvent) -> None:
        with self._lock:
            self._events.append(event)

    def events(self) -> "list[SpanEvent]":
        with self._lock:
            return list(self._events)

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass


class Tracer:
    """Emits span events to one or more sinks.

    The tracer itself is cheap: opening a span is two clock reads and a
    counter bump; closing it is a dict build plus one ``emit`` per sink.
    The *disabled* cost — what the hot path pays when no tracer is
    configured — is a single ``None`` check at each hook site (see
    :mod:`repro.observability.runtime`).
    """

    def __init__(self, *sinks):
        self.sinks = list(sinks)
        self._ids = itertools.count(1)
        self._id_lock = threading.Lock()

    def next_id(self) -> int:
        with self._id_lock:
            return next(self._ids)

    def current_span(self) -> "Span | None":
        return _current_span.get()

    @contextlib.contextmanager
    def span(self, kind: str, name: str, parent: "Span | None" = None, *,
             current: bool = True, **attrs):
        """Open a span; it emits on exit.  Nested spans parent automatically.

        Args:
            kind: taxonomy level (one of :data:`SPAN_KINDS`, usually).
            name: display name.
            parent: explicit parent span; defaults to the context's
                current span.
            current: make it the context's current span while open;
                ``False`` opens it beside its siblings, not inside them.
            **attrs: initial attributes (extend later via ``Span.set``).
        """
        if parent is None:
            parent = _current_span.get()
        span = Span(kind, name, self.next_id(),
                    parent.span_id if parent is not None else None, attrs)
        token = _current_span.set(span) if current else None
        try:
            yield span
        except BaseException as exc:
            span.set(error=f"{type(exc).__name__}: {exc}")
            raise
        finally:
            if token is not None:
                _current_span.reset(token)
            self._emit_span(span, time.perf_counter() - span._t0, worker_id())

    def emit(
        self,
        kind: str,
        name: str,
        *,
        start: float,
        duration: float,
        worker: str = "",
        parent: "Span | int | None" = None,
        attrs: "dict | None" = None,
    ) -> SpanEvent:
        """Emit a pre-measured span (work done elsewhere, e.g. a pool worker).

        Returns the event, whose ``span_id`` can parent further events.
        """
        if parent is None:
            parent = _current_span.get()
        if isinstance(parent, Span):
            parent_id = parent.span_id
        elif isinstance(parent, SpanEvent):  # pragma: no cover - convenience
            parent_id = parent.span_id
        else:
            parent_id = parent
        event = SpanEvent(
            kind=kind,
            name=name,
            span_id=self.next_id(),
            parent_id=parent_id,
            start=start,
            duration=duration,
            worker=worker or worker_id(),
            attrs=dict(attrs or {}),
        )
        for sink in self.sinks:
            sink.emit(event)
        return event

    def _emit_span(self, span: Span, duration: float, worker: str) -> None:
        event = SpanEvent(
            kind=span.kind,
            name=span.name,
            span_id=span.span_id,
            parent_id=span.parent_id,
            start=span.start,
            duration=duration,
            worker=worker,
            attrs=span.attrs,
        )
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


def read_trace(path) -> "list[SpanEvent]":
    """Load every span event from a JSONL trace file.

    Skips the header line (format version) and tolerates a truncated final
    line (a live trace being read mid-campaign).
    """
    path = Path(path)
    events = []
    with path.open() as fh:
        lines = [line.strip() for line in fh]
    lines = [line for line in lines if line]
    for lineno, line in enumerate(lines):
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            if lineno == len(lines) - 1 and lineno > 0:
                break  # torn tail write of a live trace
            raise
        if "trace_format_version" in payload:
            version = payload["trace_format_version"]
            if version != _TRACE_FORMAT_VERSION:
                raise ValueError(f"unsupported trace format {version!r}")
            continue
        events.append(SpanEvent.from_dict(payload))
    return events
