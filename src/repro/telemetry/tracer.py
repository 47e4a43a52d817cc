"""Span-based structured tracing with JSONL output.

A :class:`Tracer` records *spans* -- named, nested intervals with wall and
CPU time -- plus instant events and periodic samples, as a flat list of
JSON-serializable event dicts.  The schema (one JSON object per line when
saved):

``{"ev": "begin", "id": "s1", "parent": null, "name": "sweep",
   "ts": 0.0, "attrs": {...}}``
    a span opened; ``parent`` is the id of the enclosing span (``null``
    for a root).  ``ts`` is seconds since the tracer was created
    (process-relative, *not* comparable across processes).

``{"ev": "end", "id": "s1", "wall_s": 1.2, "cpu_s": 1.1, "attrs": {...}}``
    the span closed; ``attrs`` carries everything annotated onto the span
    over its lifetime.

``{"ev": "annot", "span": "s1", "name": "sprint_retreat", "ts": ...,
   "attrs": {...}}``
    an instant event inside a span.

``{"ev": "sample", "span": "s1", "ts": ..., "data": {...}}``
    one periodic in-simulation sample (per-router counters, PCM state...).

``{"ev": "metrics", "data": {...}}``
    a :meth:`MetricsRegistry.snapshot` embedded by :meth:`Telemetry.save`
    so ``repro report`` can render metrics from the trace file alone.

Cross-process aggregation: a worker runs its own tracer with a unique
``id_prefix``; the parent grafts the worker's drained events under the
worker's point span (:meth:`Tracer.graft`), rewriting only the root
parents.  Ids never collide because of the prefix.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


class Span:
    """One open interval; close it with :meth:`end` or a ``with`` block."""

    __slots__ = ("_tracer", "id", "name", "parent", "attrs", "_wall0",
                 "_cpu0", "_entered", "_ended")

    def __init__(self, tracer: "Tracer", span_id: str, name: str,
                 parent: str | None, attrs: dict):
        self._tracer = tracer
        self.id = span_id
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        self._entered = False
        self._ended = False

    def annotate(self, **attrs) -> None:
        """Attach attributes; they ride out on the span's end event."""
        self.attrs.update(attrs)

    def end(self) -> None:
        if self._ended:
            return
        self._ended = True
        tracer = self._tracer
        if self._entered and tracer._stack and tracer._stack[-1] == self.id:
            tracer._stack.pop()
        tracer.events.append({
            "ev": "end",
            "id": self.id,
            "wall_s": time.perf_counter() - self._wall0,
            "cpu_s": time.process_time() - self._cpu0,
            "attrs": self.attrs,
        })

    def __enter__(self) -> "Span":
        # entering registers the span as the implicit parent for spans
        # created without an explicit ``parent=`` underneath it
        self._entered = True
        self._tracer._stack.append(self.id)
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.end()
        return False


class Tracer:
    """Collects trace events; save as JSONL or drain for aggregation."""

    def __init__(self, id_prefix: str = ""):
        self.events: list[dict] = []
        self._prefix = id_prefix
        self._serial = 0
        self._stack: list[str] = []  # ids of spans entered via ``with``
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------------
    def _next_id(self) -> str:
        self._serial += 1
        return f"{self._prefix}s{self._serial}"

    def _implicit_parent(self) -> str | None:
        return self._stack[-1] if self._stack else None

    def span(self, name: str, parent: str | None = None, **attrs) -> Span:
        """Open a span.  ``parent`` defaults to the innermost ``with``-entered
        span; pass an explicit id for concurrent (non-nested) spans."""
        span_id = self._next_id()
        if parent is None:
            parent = self._implicit_parent()
        span = Span(self, span_id, name, parent, dict(attrs))
        self.events.append({
            "ev": "begin",
            "id": span_id,
            "parent": parent,
            "name": name,
            "ts": time.perf_counter() - self._t0,
            "attrs": dict(attrs),
        })
        return span

    def event(self, name: str, parent: str | None = None, **attrs) -> None:
        """Record an instant event under a span."""
        self.events.append({
            "ev": "annot",
            "span": parent if parent is not None else self._implicit_parent(),
            "name": name,
            "ts": time.perf_counter() - self._t0,
            "attrs": attrs,
        })

    def sample(self, data: dict, parent: str | None = None) -> None:
        """Record one periodic sample under a span."""
        self.events.append({
            "ev": "sample",
            "span": parent if parent is not None else self._implicit_parent(),
            "ts": time.perf_counter() - self._t0,
            "data": data,
        })

    # ------------------------------------------------------------------
    # cross-process aggregation
    # ------------------------------------------------------------------
    def drain(self) -> list[dict]:
        """Hand over (and forget) every recorded event."""
        events, self.events = self.events, []
        return events

    def graft(self, events: list[dict], parent_id: str | None) -> None:
        """Adopt a worker tracer's events under ``parent_id``.

        Only root spans (``parent`` is None) are re-parented; the worker's
        internal nesting is preserved.  The worker must have used a unique
        ``id_prefix`` so ids cannot collide with ours.
        """
        if not events:
            return
        for event in events:
            if event.get("ev") == "begin" and event.get("parent") is None:
                event = dict(event, parent=parent_id)
            elif (
                event.get("ev") in ("annot", "sample")
                and event.get("span") is None
            ):
                event = dict(event, span=parent_id)
            self.events.append(event)

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> int:
        """Write the events as JSON lines; returns the event count."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        return len(self.events)


__all__ = ["Span", "Tracer"]
