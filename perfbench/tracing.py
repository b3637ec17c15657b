"""Spans for the traced benchmark run, and the per-layer time split.

The traced server process calls :func:`install`, which wraps the public
entry points of every layer in place (class attributes and module-level
names), so the service code itself is untouched.  Spans are kept in
memory and written as Chrome trace-event JSON when the server stops.

A span has a name, a start, an end and a parent; the parent is the span
open in the current thread or asyncio task (a ``ContextVar``), so spans
nest correctly across generator steps and interleaved coroutines.  The
load generator adds its own request spans and links each server-side
``service.handle`` span to the request that caused it.

Two span kinds are special:

* *wait* spans (long-poll parking, event-log backpressure) record time
  a request or producer was blocked; they never claim wall time;
* *inline* spans time the body of a generator that yields one record at
  a time (``PreMapSampler.read``).  A span per record would cost more
  than the work, so the time inside its ``next()`` calls is summed and
  moved out of the enclosing span afterwards.

:func:`layer_split` turns the spans into self time per span and into a
timeline split: each instant of the workload's wall time goes to the
innermost busy spans open at that instant, shared equally when several
threads are busy at once, so the layers plus the unattributed remainder
add up to the wall time.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
import weakref
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional

now = time.perf_counter   # CLOCK_MONOTONIC: one clock for every process

#: Span name -> layer, in table order.
LAYER_OF = {
    "service.transport": "service",
    "service.handle": "service",
    "service.poll_park": "service",
    "events.append": "service.events",
    "events.read": "service.events",
    "events.backpressure_wait": "service.events",
    "store.write": "service.store",
    "scheduler.step": "scheduler",
    "scheduler.allocate": "scheduler",
    "streaming.prepare": "streaming",
    "streaming.run_round": "streaming",
    "pilot": "core.ssabe",
    "pilot.exact": "core.ssabe",
    "kernel.offer": "core",
    "kernel.resample": "core",
    "earl.step": "core.earl",
    "earl.job_step": "core.earl",
    "grouped.step": "core.grouped",
    "sampling.read": "sampling",
    "sampling.stratified": "sampling",
    "hdfs.acquire": "hdfs",
    "hdfs.read_column": "hdfs",
    "mapreduce.job": "mapreduce",
    "exec.map": "exec",
    "exec.broadcast": "exec",
}
LAYERS = list(dict.fromkeys(LAYER_OF.values()))
WAIT_SPANS = frozenset({"service.poll_park", "events.backpressure_wait"})


class Recorder:
    """In-memory span store for one process."""

    def __init__(self, first_id: int = 1) -> None:
        self._ids = itertools.count(first_id)
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        #: ``(id, parent, name, t0, t1, tid, attrs, inline_busy)``
        self.spans: List[tuple] = []

    def begin(self, parent: Optional[int] = None) -> tuple:
        sid = next(self._ids)
        if parent is None:
            parent = self.current.get()
        return sid, parent, self.current.set(sid), now()

    def end(self, handle: tuple, name: str,
            attrs: Optional[Dict[str, Any]] = None) -> None:
        t1 = now()
        sid, parent, token, t0 = handle
        self.current.reset(token)
        self.spans.append((sid, parent, name, t0, t1,
                           threading.get_ident(), attrs, None))

    def mark(self, name: str, attrs: Dict[str, Any]) -> None:
        """A zero-length bookkeeping span (e.g. an admission)."""
        t = now()
        self.spans.append((next(self._ids), self.current.get(), name, t, t,
                           threading.get_ident(), attrs, None))

    # -------------------------------------------------------- wrappers
    def wrap(self, fn: Callable, name: str,
             attrs: Optional[Callable] = None) -> Callable:
        """Span around each call; ``attrs(args, kwargs, result)``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            handle = self.begin()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(handle, name,
                         attrs(args, kwargs, result) if attrs else None)
        return traced

    def wrap_async(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            handle = self.begin()
            try:
                return await fn(*args, **kwargs)
            finally:
                self.end(handle, name)
        return traced

    def wrap_steps(self, fn: Callable, name: str) -> Callable:
        """The call returns an iterator; each ``next()`` is one span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _Steps(self, fn(*args, **kwargs), name)
        return traced

    def wrap_inline(self, fn: Callable, name: str) -> Callable:
        """The call returns a record iterator; its ``next()`` time is
        summed into one inline span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _Inline(self, fn(*args, **kwargs), name)
        return traced

    # ---------------------------------------------------------- export
    def chrome_events(self, pid: int) -> List[Dict[str, Any]]:
        out = []
        for sid, parent, name, t0, t1, tid, attrs, busy in self.spans:
            args = {"id": sid, "parent": parent}
            if attrs:
                args.update(attrs)
            if busy is not None:
                args["inline_busy_us"] = busy * 1e6
            out.append({"name": name, "cat": LAYER_OF.get(name, "mark"),
                        "ph": "X", "ts": t0 * 1e6,
                        "dur": (t1 - t0) * 1e6, "pid": pid, "tid": tid,
                        "args": args})
        return out


class _Steps:
    """Iterator proxy: one span per step of the wrapped iterator."""

    def __init__(self, rec: Recorder, inner: Any, name: str) -> None:
        self._rec, self._inner, self._name = rec, inner, name
        self._steps = 0

    def __iter__(self):
        return self

    def __next__(self):
        handle = self._rec.begin()
        final = False
        try:
            item = next(self._inner)
            final = bool(getattr(item, "final", False))
            return item
        finally:
            self._steps += 1
            self._rec.end(handle, self._name,
                          {"step": self._steps, "final": final})

    def close(self) -> None:
        self._inner.close()


class _Inline:
    """Record-iterator proxy that sums the time spent inside ``next()``."""

    def __init__(self, rec: Recorder, inner: Any, name: str) -> None:
        self._rec, self._inner, self._name = rec, inner, name
        self._parent = rec.current.get()
        self._id = next(rec._ids)
        self._t0: Optional[float] = None
        self._busy = 0.0
        self._rows = 0
        self._open = True

    def __iter__(self):
        return self

    def __next__(self):
        token = self._rec.current.set(self._id)
        t0 = now()
        if self._t0 is None:
            self._t0 = t0
        try:
            item = next(self._inner)
            self._rows += 1
            return item
        except StopIteration:
            self._finish()
            raise
        finally:
            self._busy += now() - t0
            self._rec.current.reset(token)

    def close(self) -> None:
        self._inner.close()
        self._finish()

    def _finish(self) -> None:
        if self._open:
            self._open = False
            t0 = self._t0 if self._t0 is not None else now()
            self._rec.spans.append((
                self._id, self._parent, self._name, t0, t0 + self._busy,
                threading.get_ident(), {"rows": self._rows}, self._busy))


# ---------------------------------------------------------------------------
# installing the wrappers (traced server process only)
# ---------------------------------------------------------------------------


def install(rec: Recorder) -> None:
    """Wrap every layer's public entry points for ``rec``."""
    import asyncio

    import repro.core.earl as earl_mod
    import repro.core.grouped as grouped_mod
    import repro.hdfs.split_cache as split_cache_mod
    import repro.scheduler.scheduler as scheduler_mod
    import repro.streaming.session as session_mod
    from repro.core.accuracy import AccuracyEstimationStage
    from repro.core.delta import ResampleSet
    from repro.exec import executor as exec_mod
    from repro.mapreduce import counters as counters_mod
    from repro.mapreduce.runtime import JobClient
    from repro.sampling.premap import PreMapSampler
    from repro.sampling.stratified import StratifiedSampler
    from repro.service import events, service, store

    def patch(owner: Any, attr: str, wrapper: Callable) -> None:
        setattr(owner, attr, wrapper(getattr(owner, attr)))

    # service: the request handler; the server reads the caller's span
    # id from the request so the handle span nests under it.
    orig_handle = service.ApproxQueryService.handle

    async def handle(self, request):
        parent = (request.pop("bench_span", None)
                  if isinstance(request, dict) else None)
        span = rec.begin(parent)
        response: Dict[str, Any] = {}
        try:
            response = await orig_handle(self, request)
            return response
        finally:
            attrs: Dict[str, Any] = {}
            if isinstance(request, dict):
                attrs = {"op": request.get("op"),
                         "wait": bool(request.get("wait"))}
                sid = request.get("session") or response.get("session")
                if sid is not None:
                    attrs["session"] = sid
            rec.end(span, "service.handle", attrs)
    service.ApproxQueryService.handle = handle

    # service.events: append/read, plus the condition waits inside them.
    class TracedCondition(asyncio.Condition):
        async def wait(self):
            span = rec.begin()
            try:
                return await super().wait()
            finally:
                parent = span[1]
                name = ("service.poll_park" if parent in reading
                        else "events.backpressure_wait")
                rec.end(span, name)

    reading: set = set()
    orig_init = events.EventLog.__init__

    def log_init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        self._cond = TracedCondition()
    events.EventLog.__init__ = log_init
    orig_read = events.EventLog.read

    async def read(self, *args, **kwargs):
        span = rec.begin()
        reading.add(span[0])
        try:
            return await orig_read(self, *args, **kwargs)
        finally:
            reading.discard(span[0])
            rec.end(span, "events.read")
    events.EventLog.read = read
    patch(events.EventLog, "append",
          lambda fn: rec.wrap_async(fn, "events.append"))

    # service.store: every store's mutations.
    for cls in (store.SessionStore, store.InMemorySessionStore):
        for name in ("add", "update", "record_window"):
            if name in vars(cls):
                patch(cls, name, lambda fn: rec.wrap(fn, "store.write"))

    # scheduler: admissions (window membership), stream steps, budget.
    # Windows are numbered: an id() could be reused by a later window.
    windows: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    serials = itertools.count(1)

    def window(sched: Any) -> int:
        if sched not in windows:
            windows[sched] = next(serials)
        return windows[sched]

    def admit(fn):
        @functools.wraps(fn)
        def traced(self, *args, **kwargs):
            handle = fn(self, *args, **kwargs)
            rec.mark("scheduler.admit",
                     {"sched": window(self), "session": handle.name})
            return handle
        return traced
    patch(scheduler_mod.QueryScheduler, "submit_statistic", admit)
    patch(scheduler_mod.QueryScheduler, "submit_grouped", admit)
    orig_stream = scheduler_mod.QueryScheduler.stream

    def sched_stream(self):
        steps = _Steps(rec, orig_stream(self), "scheduler.step")
        rec.mark("scheduler.start", {"sched": window(self)})
        return steps
    scheduler_mod.QueryScheduler.stream = sched_stream
    patch(scheduler_mod, "allocate_budget",
          lambda fn: rec.wrap(fn, "scheduler.allocate"))

    # streaming: the shared-scan manager's prepare and rounds.
    patch(session_mod.SessionManager, "prepare",
          lambda fn: rec.wrap(fn, "streaming.prepare"))
    patch(session_mod.SessionManager, "run_round",
          lambda fn: rec.wrap(fn, "streaming.run_round"))

    # core.ssabe: the pilot, and the §3.1 exact fallback, patched where
    # each engine module looks the names up.
    def pilot_attrs(args, kwargs, result):
        population = args[1] if len(args) > 1 else kwargs["population_size"]
        useful = (result is not None
                  and result.B * result.n < population)
        return {"useful": useful}
    for mod in (session_mod, earl_mod, grouped_mod):
        patch(mod, "estimate_parameters",
              lambda fn: rec.wrap(fn, "pilot", pilot_attrs))
        patch(mod, "exact_fallback_result",
              lambda fn: rec.wrap(fn, "pilot.exact"))

    # core: the delta-maintained bootstrap kernel.
    patch(AccuracyEstimationStage, "offer",
          lambda fn: rec.wrap(fn, "kernel.offer",
                              lambda a, k, r: {"rows": len(a[1])}))
    for name in ("initialize", "expand", "estimates"):
        patch(ResampleSet, name, lambda fn: rec.wrap(fn, "kernel.resample"))

    # core.earl / core.grouped: engine stream steps.
    patch(earl_mod.EarlSession, "stream",
          lambda fn: rec.wrap_steps(fn, "earl.step"))
    patch(earl_mod.EarlJob, "stream",
          lambda fn: rec.wrap_steps(fn, "earl.job_step"))
    patch(grouped_mod.GroupedEarlSession, "stream",
          lambda fn: rec.wrap_steps(fn, "grouped.step"))

    # sampling: pre-map reads (inline), stratified allocation and draws.
    patch(PreMapSampler, "read",
          lambda fn: rec.wrap_inline(fn, "sampling.read"))
    patch(StratifiedSampler, "allocate",
          lambda fn: rec.wrap(fn, "sampling.stratified"))
    patch(StratifiedSampler, "take",
          lambda fn: rec.wrap(fn, "sampling.stratified",
                              lambda a, k, r: {"rows": len(r)}))

    # hdfs: split-index acquisition (the cached split view every sampled
    # and full-scan reader goes through) and the columnar ingests.
    orig_acquire = split_cache_mod.SplitIndexCache.acquire

    def acquire(self, fs, split):
        hits = self.stats.hits
        handle = rec.begin()
        try:
            return orig_acquire(self, fs, split)
        finally:
            rec.end(handle, "hdfs.acquire",
                    {"hit": self.stats.hits > hits})
    split_cache_mod.SplitIndexCache.acquire = acquire
    for name in ("read_numeric_column", "read_keyed_column"):
        patch(split_cache_mod, name,
              lambda fn: rec.wrap(fn, "hdfs.read_column"))

    # mapreduce: whole jobs, with their task and retry counts.
    patch(JobClient, "run", lambda fn: rec.wrap(
        fn, "mapreduce.job",
        lambda a, k, r: {} if r is None else {
            "map_tasks": r.map_tasks,
            "retries": r.counters.get(counters_mod.TASK_RETRIES)}))

    # exec: fan-out and broadcast on every backend.
    for cls in (exec_mod.Executor, exec_mod.SerialExecutor,
                exec_mod._PoolExecutor, exec_mod.ProcessExecutor):
        for name, span in (("map", "exec.map"),
                           ("broadcast", "exec.broadcast")):
            if name in vars(cls):
                patch(cls, name, lambda fn, s=span: rec.wrap(fn, s))


# ---------------------------------------------------------------------------
# analysis (load-generator process)
# ---------------------------------------------------------------------------


def load_chrome(events: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Chrome trace events back to span dicts (seconds)."""
    spans = []
    for ev in events:
        args = dict(ev["args"])
        busy = args.pop("inline_busy_us", None)
        spans.append({
            "id": args.pop("id"), "parent": args.pop("parent"),
            "name": ev["name"], "t0": ev["ts"] / 1e6,
            "t1": (ev["ts"] + ev["dur"]) / 1e6,
            "busy": None if busy is None else busy / 1e6, "args": args})
    return spans


def layer_split(spans: List[Dict[str, Any]], w0: float, w1: float
                ) -> Dict[str, Any]:
    """Self time per span and claimed wall time per layer.

    Returns ``{"claimed": {layer: s}, "wall": s, "unattributed": s}``
    over the window ``[w0, w1]``; every span dict gains ``"self"`` (its
    duration minus its children's) and ``"layer"`` (its own, or the
    pilot's under a pilot span).
    """
    by_id = {s["id"]: s for s in spans}
    children: Dict[Any, List[Dict[str, Any]]] = defaultdict(list)
    for s in spans:
        if s["parent"] in by_id:
            children[s["parent"]].append(s)

    def layer(s: Dict[str, Any]) -> str:
        # Spans opened under the pilot belong to the pilot's layer: SSABE
        # runs its own resamples, which would otherwise count as kernel.
        if "layer" not in s:
            parent = by_id.get(s["parent"])
            inherited = layer(parent) if parent is not None else None
            s["layer"] = ("core.ssabe" if inherited == "core.ssabe"
                          else LAYER_OF.get(s["name"], "mark"))
        return s["layer"]

    for s in spans:
        layer(s)
        dur = s["busy"] if s["busy"] is not None else s["t1"] - s["t0"]
        placed = inline = 0.0
        for c in children.get(s["id"], ()):
            if c["busy"] is None:
                placed += c["t1"] - c["t0"]
            else:
                inline += c["busy"]
        s["self"] = max(0.0, dur - placed - inline)
        s["placed_self"] = max(0.0, dur - placed)

    def placed_parent(s: Dict[str, Any]) -> Any:
        parent = by_id.get(s["parent"])
        while parent is not None and parent["busy"] is not None:
            parent = by_id.get(parent["parent"])
        return None if parent is None else parent["id"]

    # Sweep the placed spans; at each instant the busy leaves share it.
    boundaries = []
    for s in spans:
        if s["busy"] is not None or s["layer"] == "mark":
            continue
        t0, t1 = max(s["t0"], w0), min(s["t1"], w1)
        if t1 <= t0:
            continue
        s["pp"] = placed_parent(s)
        boundaries.append((t0, 1, s["id"]))
        boundaries.append((t1, 0, s["id"]))
    boundaries.sort()
    active_kids: Dict[Any, int] = defaultdict(int)
    active: set = set()
    claimants: set = set()
    claimed_by_span: Dict[Any, float] = defaultdict(float)
    prev = w0
    for t, starting, sid in boundaries:
        if claimants and t > prev:
            share = (t - prev) / len(claimants)
            for c in claimants:
                claimed_by_span[c] += share
        prev = t
        s = by_id[sid]
        parent = s["pp"]
        if starting:
            active.add(sid)
            if parent in active:
                active_kids[parent] += 1
                claimants.discard(parent)
            if s["name"] not in WAIT_SPANS and not active_kids[sid]:
                claimants.add(sid)
        else:
            active.discard(sid)
            claimants.discard(sid)
            if parent in active:
                active_kids[parent] -= 1
                if (not active_kids[parent]
                        and by_id[parent]["name"] not in WAIT_SPANS):
                    claimants.add(parent)

    claimed: Dict[str, float] = defaultdict(float)
    for sid, seconds in claimed_by_span.items():
        claimed[by_id[sid]["layer"]] += seconds
    # Inline spans: move their self time out of the enclosing span, in
    # the proportion of that span's self time it was able to claim.
    for s in spans:
        if s["busy"] is None:
            continue
        parent = by_id.get(placed_parent(s))
        if parent is None or parent["placed_self"] <= 0:
            continue
        held = claimed_by_span.get(parent["id"], 0.0)
        moved = min(held, s["self"] * held / parent["placed_self"])
        claimed_by_span[parent["id"]] -= moved
        claimed[parent["layer"]] -= moved
        claimed[s["layer"]] += moved
    wall = max(0.0, w1 - w0)
    return {"claimed": dict(claimed), "wall": wall,
            "unattributed": max(0.0, wall - sum(claimed.values()))}


def write_chrome(path: str, events: List[Dict[str, Any]]) -> None:
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
