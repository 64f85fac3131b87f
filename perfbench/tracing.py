"""In-memory spans around the program's public calls, recorded from outside.

The benchmark never edits the program: :func:`install` swaps wrappers onto
the public functions and methods it measures (and :func:`uninstall` puts the
originals back).  Each span is ``[id, parent, name, start, end, busy,
request]``; ``busy`` is the time spent inside the call, which for a
generator (the matcher) is the sum of its ``next()`` calls rather than the
wall time between its first and last row.  Spans stay in memory until the
run ends.

A layer's self time is its span's busy time minus its children's.  Spans of
one request share ``request``: in the server that is the response's
``meta.trace_id``, which the client uses to join its own span to them.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, Iterable

ID, PARENT, NAME, START, END, BUSY, REQUEST = range(7)


class Recorder:
    """Thread-safe span and counter sink; ``enabled`` toggles recording."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter = Counter()
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- span stack ------------------------------------------------------

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request: Any = None) -> list[Any]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent[REQUEST]
        span = [next(self._ids), parent[ID] if parent else None, name,
                time.perf_counter(), None, 0.0, request]
        stack.append(span)
        if parent is None:
            self._local.tree = [span]
        else:
            self._local.tree.append(span)
        return span

    def close(self, span: list[Any]) -> None:
        span[END] = time.perf_counter()
        span[BUSY] += span[END] - span[START]
        stack = self._stack()
        stack.pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    def stamp_request(self, request: Any) -> None:
        """Give every span of the current root's tree ``request``."""
        for span in getattr(self._local, "tree", ()):
            span[REQUEST] = request
        self._local.last_request = request

    def take_last_request(self) -> Any:
        request = getattr(self._local, "last_request", None)
        self._local.last_request = None
        return request

    def span(self, name: str, request: Any = None) -> "_SpanContext":
        return _SpanContext(self, name, request)

    # -- output ----------------------------------------------------------

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def maybe_span(rec: Recorder | None, name: str, request: Any = None):
    """A span on ``rec``, or nothing in an untraced run."""
    return rec.span(name, request) if rec is not None else nullcontext()


class _SpanContext:
    def __init__(self, recorder: Recorder, name: str, request: Any) -> None:
        self.recorder, self.name, self.request = recorder, name, request
        self.span: list[Any] | None = None

    def __enter__(self) -> list[Any] | None:
        if self.recorder.enabled:
            self.span = self.recorder.open(self.name, self.request)
        return self.span

    def __exit__(self, *exc: Any) -> None:
        if self.span is not None:
            self.recorder.close(self.span)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def _call_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not rec.enabled:
            return fn(*args, **kwargs)
        span = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(span)
    return wrapper


def _root_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    """``QueryService.execute``: the server-side root of one request, whose
    tree is stamped with the response's ``meta.trace_id``."""
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not rec.enabled:
            return fn(*args, **kwargs)
        span = rec.open(name)
        response = None
        try:
            response = fn(*args, **kwargs)
            return response
        finally:
            rec.close(span)
            if span[PARENT] is None and isinstance(response, dict):
                trace_id = response.get("meta", {}).get("trace_id")
                if trace_id is not None:
                    rec.stamp_request(trace_id)
    return wrapper


def _generator_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    """A generator's span is busy only while it computes its next item."""
    def wrapper(*args: Any, **kwargs: Any) -> Iterable[Any]:
        inner = fn(*args, **kwargs)
        if not rec.enabled:
            return inner
        return _timed_generator(rec, name, inner)
    return wrapper


def _timed_generator(rec: Recorder, name: str, inner: Iterable[Any]):
    stack = rec._stack()
    parent = stack[-1] if stack else None
    span = [next(rec._ids), parent[0] if parent else None, name,
            time.perf_counter(), None, 0.0, parent[REQUEST] if parent else None]
    tree = getattr(rec._local, "tree", None)
    if tree is not None and parent is not None:
        tree.append(span)
    iterator = iter(inner)
    try:
        while True:
            # On the stack while computing, so calls nested in the matcher
            # become its children instead of its siblings.
            stack.append(span)
            started = time.perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                span[BUSY] += time.perf_counter() - started
                stack.pop()
            yield item
    finally:
        span[END] = time.perf_counter()
        rec.spans.append(span)


def _enter_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    """A context manager whose span times only ``__enter__`` (the wait)."""
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        manager = fn(*args, **kwargs)
        if not rec.enabled:
            return manager
        return _TimedEnter(rec, name, manager)
    return wrapper


class _TimedEnter:
    def __init__(self, rec: Recorder, name: str, manager: Any) -> None:
        self.rec, self.name, self.manager = rec, name, manager

    def __enter__(self) -> Any:
        span = self.rec.open(self.name)
        try:
            return self.manager.__enter__()
        finally:
            self.rec.close(span)

    def __exit__(self, *exc: Any) -> Any:
        return self.manager.__exit__(*exc)


def _count_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if rec.enabled:
            rec.counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


class _TimedJSON:
    """Stands in for the ``json`` module inside ``repro.server.http``, so the
    response encoding the transport does is timed as ``serialize.json``."""

    def __init__(self, rec: Recorder) -> None:
        import json as real

        self._real = real
        self._rec = rec
        self.loads = real.loads
        self.JSONDecodeError = real.JSONDecodeError

    def dumps(self, *args: Any, **kwargs: Any) -> str:
        rec = self._rec
        if not rec.enabled:
            return self._real.dumps(*args, **kwargs)
        span = rec.open("serialize.json", rec.take_last_request())
        try:
            return self._real.dumps(*args, **kwargs)
        finally:
            rec.close(span)


Patch = tuple[Any, str, Any]


def _targets(layers: str) -> list[tuple[Any, str, str, Callable]]:
    """``(owner, attribute, span name, wrapper factory)`` per measured call."""
    import repro.analytics
    import repro.cypher.engine
    import repro.pipeline.build
    import repro.server.app
    from repro.cypher.engine import CypherEngine
    from repro.cypher.matcher import PatternMatcher
    from repro.graphdb.rwlock import RWLock
    from repro.graphdb.store import GraphStore
    from repro.lint import GraphValidator
    from repro.server.admission import AdmissionController
    from repro.server.app import QueryService
    from repro.server.cache import ResultCache

    query = [
        (QueryService, "execute", "service.execute", _root_wrapper),
        (AdmissionController, "slot", "admission.slot", _enter_wrapper),
        (ResultCache, "get", "cache.get", _call_wrapper),
        (ResultCache, "put", "cache.put", _call_wrapper),
        (CypherEngine, "run", "engine.run", _call_wrapper),
        (repro.cypher.engine, "parse", "cypher.parse", _call_wrapper),
        (repro.cypher.engine, "plan_match", "cypher.plan", _call_wrapper),
        (PatternMatcher, "match_patterns", "cypher.match", _generator_wrapper),
        (repro.server.app, "encode_result", "serialize.encode", _call_wrapper),
    ]
    build = [
        (repro.pipeline.build, "run_postprocessing", "pipeline.postprocess",
         _call_wrapper),
        (GraphValidator, "validate", "lint.validate", _call_wrapper),
        (repro.analytics, "compute_analytics_report", "analytics.report",
         _call_wrapper),
        (GraphStore, "merge_node", "store.merge_node", _count_wrapper),
        (RWLock, "write", "rwlock.write", _count_wrapper),
    ]
    return query + (build if layers == "all" else [])


def install(rec: Recorder, layers: str = "query") -> list[Patch]:
    """Wrap the measured calls (``query`` layers, or ``all`` to add the
    build's); returns what :func:`uninstall` needs to undo it."""
    patches: list[Patch] = []
    for owner, attr, name, factory in _targets(layers):
        # A class's own attribute, so uninstall restores exactly what was there.
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        patches.append((owner, attr, original))
        setattr(owner, attr, factory(rec, name, getattr(owner, attr)))
    if layers == "server":
        import repro.server.http

        patches.append((repro.server.http, "json", repro.server.http.json))
        repro.server.http.json = _TimedJSON(rec)
    return patches


def uninstall(patches: list[Patch]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def self_times(spans: list[list[Any]]) -> dict[int, float]:
    """span id -> busy time minus the busy time of its direct children."""
    child_busy: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            child_busy[span[PARENT]] += span[BUSY]
    return {span[ID]: span[BUSY] - child_busy[span[ID]] for span in spans}


#: The layer spans whose self time the traced run reports, per operation.
LAYERS = (
    "http.request", "service.execute", "admission.slot", "cache.get",
    "cache.put", "engine.run", "cypher.parse", "cypher.plan", "cypher.match",
    "serialize.encode", "serialize.json", "pipeline.build",
    "pipeline.postprocess", "lint.validate", "analytics.report",
    "snapshot.save", "snapshot.load", "service.init",
    "pipeline.build_incremental", "delta.apply",
)


def breakdown(spans: list[list[Any]], op_name: str, ops: int) -> dict[str, float]:
    """Per-operation self time of every layer under the ``op_name`` spans,
    and ``trace.coverage``: the share of those operations' time that the
    named layers account for (what is left is the operation span's own)."""
    roots = {span[ID] for span in spans if span[NAME] == op_name}
    scoped = descendants_of(spans, roots)
    own = self_times(scoped)
    totals: dict[str, float] = defaultdict(float)
    for span in scoped:
        totals[span[NAME]] += own[span[ID]]
    op_time = sum(span[BUSY] for span in scoped if span[ID] in roots)
    named = sum(totals[name] for name in LAYERS)
    metrics = {f"self.{name}_ms": totals[name] * 1000 / max(ops, 1) for name in LAYERS}
    metrics["trace.coverage"] = named / op_time if op_time else 0.0
    return metrics


def descendants_of(spans: list[list[Any]], roots: set[int]) -> list[list[Any]]:
    """Spans under (and including) the given root ids."""
    parent = {span[ID]: span[PARENT] for span in spans}
    memo: dict[int, bool] = {}

    def under(span_id: int | None) -> bool:
        trail = []
        while span_id is not None and span_id not in memo:
            if span_id in roots:
                memo[span_id] = True
                break
            trail.append(span_id)
            span_id = parent.get(span_id)
        verdict = memo.get(span_id, False) if span_id is not None else False
        for item in trail:
            memo[item] = verdict
        return verdict

    return [span for span in spans if under(span[ID])]
