"""Hierarchical tracing: spans, trace trees, JSONL export.

A :class:`Span` is one timed operation — a stress test, a training phase,
a whole service session — with a trace id shared by every span of the same
logical request, a span id, a parent span id, free-form tags and both
wall-clock and CPU durations.  Spans nest through a per-thread stack, so
``with tracer.span("child"):`` inside ``with tracer.span("parent"):``
records the parent/child edge automatically; worker threads join an
existing trace through :meth:`Tracer.root_span`'s ``trace_id`` argument.

A span is also the only timer of the system: ``Telemetry.phase_seconds``,
the per-phase histograms and every other duration are read from a span's
``wall_s`` after its block.  The process-wide default tracer is a
:class:`NullTracer` whose spans time themselves and do nothing else: each
is a small object that gets no ids, joins no stack and is never recorded
or exported, so a null span costs two clock reads and one allocation
(about 0.6 µs on a 2-vCPU host).  Ids are small monotonic
counters, not random UUIDs, so a seeded run traces deterministically.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, List

__all__ = [
    "NullTracer",
    "Span",
    "SpanExporter",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]


class Span:
    """One timed, tagged operation inside a trace."""

    __slots__ = ("tracer", "trace_id", "span_id", "parent_id", "name",
                 "tags", "start_ts", "_wall0", "_cpu0", "wall_s", "cpu_s",
                 "status")

    def __init__(self, tracer: "Tracer", trace_id: str, span_id: str,
                 parent_id: str | None, name: str,
                 tags: Dict[str, object]) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.tags = tags
        self.start_ts = 0.0          # epoch seconds (for ordering)
        self._wall0 = 0.0
        self._cpu0 = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.status = "ok"

    def set_tag(self, key: str, value: object) -> "Span":
        self.tags[str(key)] = value
        return self

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        self.start_ts = time.time()
        self._cpu0 = time.thread_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_s = time.perf_counter() - self._wall0
        self.cpu_s = time.thread_time() - self._cpu0
        if exc_type is not None:
            self.status = "error"
            self.tags.setdefault("error", f"{exc_type.__name__}: {exc}")
        self.tracer._pop(self)
        return False

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "span",
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start_ts,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "status": self.status,
            "tags": dict(self.tags),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, trace={self.trace_id}, "
                f"span={self.span_id}, parent={self.parent_id})")


class _NullSpan:
    """A span that times itself and nothing else.

    It gets no ids, joins no stack, drops its tags and is never recorded
    or exported; ``wall_s`` is set when the block exits.
    """

    __slots__ = ("_wall0", "wall_s")
    trace_id = None
    span_id = None
    parent_id = None

    def set_tag(self, key: str, value: object) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_s = time.perf_counter() - self._wall0
        return False


class SpanExporter:
    """Thread-safe JSONL sink for finished spans (and metrics snapshots)."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        self._handle = None

    def export(self, record: Dict[str, object]) -> None:
        line = json.dumps(record, sort_keys=False, default=_json_default)
        with self._lock:
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "SpanExporter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _json_default(value: object) -> object:
    if hasattr(value, "item"):
        try:
            return value.item()  # numpy scalars
        except (ValueError, TypeError):
            pass
    return repr(value)


class Tracer:
    """Produces nested spans; finished spans go to memory and/or a sink.

    Parameters
    ----------
    exporter:
        Optional :class:`SpanExporter` (or anything with ``export(dict)``)
        receiving every finished span.
    keep:
        How many finished spans to retain in :attr:`finished` for in-process
        inspection; 0 disables retention (export-only).
    """

    enabled = True

    def __init__(self, exporter: SpanExporter | None = None,
                 keep: int = 100_000) -> None:
        self.exporter = exporter
        self.keep = int(keep)
        self.finished: List[Dict[str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_trace = 0
        self._next_span = 0

    # -- id allocation -----------------------------------------------------
    def new_trace_id(self) -> str:
        with self._lock:
            self._next_trace += 1
            return f"t{self._next_trace:04d}"

    def _new_span_id(self) -> str:
        with self._lock:
            self._next_span += 1
            return f"s{self._next_span:06d}"

    # -- span stack --------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def current_trace_id(self) -> str | None:
        span = self.current()
        return span.trace_id if span is not None else None

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:           # tolerate out-of-order exits
            stack.remove(span)
        record = span.to_dict()
        with self._lock:
            if self.keep > 0:
                self.finished.append(record)
                if len(self.finished) > self.keep:
                    del self.finished[: len(self.finished) - self.keep]
        if self.exporter is not None:
            self.exporter.export(record)

    # -- span construction -------------------------------------------------
    def span(self, name: str, **tags: object) -> Span:
        """A child of this thread's current span (or a new trace root)."""
        parent = self.current()
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = self.new_trace_id(), None
        return Span(self, trace_id, self._new_span_id(), parent_id, name,
                    dict(tags))

    def root_span(self, name: str, trace_id: str | None = None,
                  **tags: object) -> Span:
        """A root span, optionally joining an existing ``trace_id``.

        Used to attach a worker thread's spans to a trace created on the
        submitting thread (the tuning service's session trace).
        """
        if trace_id is None:
            trace_id = self.new_trace_id()
        return Span(self, trace_id, self._new_span_id(), None, name,
                    dict(tags))

    # -- inspection --------------------------------------------------------
    def spans(self, trace_id: str | None = None,
              name: str | None = None) -> List[Dict[str, object]]:
        """Finished span records, optionally filtered."""
        with self._lock:
            snapshot = list(self.finished)
        return [s for s in snapshot
                if (trace_id is None or s["trace"] == trace_id)
                and (name is None or s["name"] == name)]


class NullTracer(Tracer):
    """Default tracer: its spans only time themselves (:class:`_NullSpan`)."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(exporter=None, keep=0)

    def new_trace_id(self) -> None:  # type: ignore[override]
        return None

    def span(self, name: str, **tags: object) -> _NullSpan:  # type: ignore[override]
        return _NullSpan()

    def root_span(self, name: str, trace_id: str | None = None,
                  **tags: object) -> _NullSpan:  # type: ignore[override]
        return _NullSpan()

    def current(self) -> None:  # type: ignore[override]
        return None


NULL_TRACER = NullTracer()
_global_tracer: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The process-wide tracer (a no-op :class:`NullTracer` by default)."""
    return _global_tracer


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` globally (``None`` restores the no-op default).

    Returns the previously installed tracer so callers can restore it.
    """
    global _global_tracer
    previous = _global_tracer
    _global_tracer = tracer if tracer is not None else NULL_TRACER
    return previous


class use_tracer:
    """Context manager installing a tracer for the duration of a block."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self._previous: Tracer | None = None

    def __enter__(self) -> Tracer:
        self._previous = set_tracer(self.tracer)
        return get_tracer()

    def __exit__(self, *exc_info) -> None:
        set_tracer(self._previous)
