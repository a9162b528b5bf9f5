"""Thread-aware span tracer exporting Chrome trace-event JSON.

The tracer answers the question the flat :class:`repro.train.common.
StageTimer` cannot: *when* did each stage run, and on *which thread*?
The pipelined trainer's "100% hidden catch-up" claim, the async
trainer's in-flight overlap and the shard executor's fan-out all live
in the concurrency structure, so the tracer records every span as a
``(name, start, end, args)`` interval on the recording thread's own
track and exports the whole timeline in the Chrome trace-event format
(the ``{"traceEvents": [...]}`` JSON that Perfetto and
``chrome://tracing`` load directly).

Design constraints, in order:

* **Low overhead on the hot path.**  Recording is one
  ``perf_counter`` pair plus a list append into a per-thread buffer —
  no locks after a thread's first event, no dict building, no string
  formatting.  All formatting happens once, at :meth:`export`.
* **Thread awareness without registration.**  A thread's track is
  created lazily on its first event and named after the live
  ``threading.Thread`` — so the main loop, the ``noise-prefetch``
  worker, the ``lazydp-apply`` worker and every ``shard_N`` executor
  thread each get their own named track for free.
* **Bounded memory.**  Each track keeps at most ``max_events_per_
  thread`` events; past the cap new events are counted in
  ``events_dropped`` instead of stored, so a runaway loop degrades the
  trace rather than the process.

The disabled path is the null-object :class:`NullTracer` (module
singleton :data:`NULL_TRACER`): every method is a no-op and
``span(...)`` returns a shared reusable context manager, so leaving
trace calls compiled into the engines costs one attribute check.
"""

from __future__ import annotations

import json
import os
import threading
import time

#: Per-thread event cap (bounded memory).  At the smoke scale one
#: training iteration records tens of events; a quarter-million spans
#: per thread is hours of training before anything is dropped.
MAX_EVENTS_PER_THREAD = 262_144


class _Span:
    """Context manager recording one complete ("X") event on exit.

    Allocated per ``span(...)`` call on the traced path only; slots keep
    it to one small object with no dict.
    """

    __slots__ = ("_tracer", "_name", "_args", "_start")

    def __init__(self, tracer: "Tracer", name: str, args: dict | None):
        self._tracer = tracer
        self._name = name
        self._args = args

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self._tracer.add_complete(
            self._name, self._start, time.perf_counter(), self._args
        )
        return False


class _NullSpan:
    """Reusable no-op context manager (the disabled ``span`` result)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Track:
    """One thread's event buffer plus its exported identity."""

    __slots__ = ("tid", "name", "events", "dropped")

    def __init__(self, tid: int, name: str):
        self.tid = tid
        self.name = name
        #: Event tuples ``(phase, name, start, end_or_value, args)``.
        self.events: list = []
        self.dropped = 0


#: Exported names for threads whose Python names are implementation
#: details.  Worker threads (``noise-prefetch``, ``lazydp-apply``,
#: ``shard_N``) already carry meaningful names.
_THREAD_NAME_ALIASES = {"MainThread": "main-loop"}


class Tracer:
    """Records spans per thread; exports Chrome trace-event JSON.

    Clocks are ``time.perf_counter()`` (monotonic); exported timestamps
    are microseconds relative to the tracer's construction instant, so
    traces from one run share a common epoch across threads.
    """

    enabled = True

    def __init__(self, max_events_per_thread: int = MAX_EVENTS_PER_THREAD):
        if max_events_per_thread < 1:
            raise ValueError("max_events_per_thread must be positive")
        self._max_events = int(max_events_per_thread)
        self._epoch = time.perf_counter()
        #: thread ident -> _Track.  Reads on the hot path are lock-free
        #: (a dict lookup is atomic under the GIL); the lock only
        #: serialises track *creation* so tids are assigned uniquely.
        self._tracks: dict = {}
        self._lock = threading.Lock()

    # -- recording (hot path) ---------------------------------------------
    def _track(self) -> _Track:
        ident = threading.get_ident()
        track = self._tracks.get(ident)
        if track is None:
            with self._lock:
                track = self._tracks.get(ident)
                if track is None:
                    name = threading.current_thread().name
                    track = _Track(
                        tid=len(self._tracks),
                        name=_THREAD_NAME_ALIASES.get(name, name),
                    )
                    self._tracks[ident] = track
        return track

    def span(self, name: str, **args) -> _Span:
        """Context manager timing a span on the calling thread's track."""
        return _Span(self, name, args or None)

    def add_complete(
        self, name: str, start: float, end: float, args: dict | None = None
    ) -> None:
        """Record a complete event from an existing ``perf_counter`` pair.

        This is the zero-extra-clock-reads entry point: callers that
        already timed a region (``StageTimer.time``, the prefetch/apply
        workers' busy accounting) hand their start/end over so the trace
        and the accumulated seconds describe *exactly* the same interval.
        """
        track = self._track()
        if len(track.events) >= self._max_events:
            track.dropped += 1
            return
        track.events.append(("X", name, start, end, args))

    def _external_track(self, key: str, name: str | None) -> _Track:
        """The track for an *external* timeline (a shard worker process).

        External tracks are keyed by caller-chosen strings, which can
        never collide with ``threading.get_ident()`` ints, so a worker
        process's spans land on their own named track regardless of
        which parent thread feeds them in.
        """
        track = self._tracks.get(key)
        if track is None:
            with self._lock:
                track = self._tracks.get(key)
                if track is None:
                    track = _Track(tid=len(self._tracks), name=name or key)
                    self._tracks[key] = track
        return track

    def add_external_complete(
        self,
        key: str,
        name: str,
        start: float,
        end: float,
        args: dict | None = None,
        track_name: str | None = None,
    ) -> None:
        """Record a complete event on the external track ``key``.

        The process-shard router feeds worker-process span tuples
        through here: on Linux ``time.perf_counter()`` is the
        system-wide CLOCK_MONOTONIC, so worker timestamps share the
        parent tracer's epoch and line up against the main-loop track
        without any clock translation.
        """
        track = self._external_track(key, track_name)
        if len(track.events) >= self._max_events:
            track.dropped += 1
            return
        track.events.append(("X", name, start, end, args))

    def add_instant(self, name: str, **args) -> None:
        """Record an instant event (a point-in-time marker)."""
        track = self._track()
        if len(track.events) >= self._max_events:
            track.dropped += 1
            return
        track.events.append(
            ("i", name, time.perf_counter(), None, args or None)
        )

    def add_counter(self, name: str, value) -> None:
        """Record a counter sample (rendered as a filled graph track)."""
        track = self._track()
        if len(track.events) >= self._max_events:
            track.dropped += 1
            return
        track.events.append(
            ("C", name, time.perf_counter(), value, None)
        )

    # -- introspection -----------------------------------------------------
    @property
    def events_recorded(self) -> int:
        return sum(len(track.events) for track in self._tracks.values())

    @property
    def events_dropped(self) -> int:
        return sum(track.dropped for track in self._tracks.values())

    def track_names(self) -> list:
        """Exported track names in tid order (main thread first when it
        recorded first, which instrumented trainers guarantee)."""
        tracks = sorted(self._tracks.values(), key=lambda t: t.tid)
        return [track.name for track in tracks]

    # -- export ------------------------------------------------------------
    def export(self) -> dict:
        """The Chrome trace-event JSON object for everything recorded."""
        pid = os.getpid()
        epoch = self._epoch
        events: list = [{
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "repro"},
        }]
        tracks = sorted(self._tracks.values(), key=lambda t: t.tid)
        for track in tracks:
            events.append({
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": track.tid,
                "args": {"name": track.name},
            })
            events.append({
                "name": "thread_sort_index",
                "ph": "M",
                "pid": pid,
                "tid": track.tid,
                "args": {"sort_index": track.tid},
            })
        for track in tracks:
            tid = track.tid
            for phase, name, start, end, args in track.events:
                timestamp = (start - epoch) * 1e6
                if phase == "X":
                    event = {
                        "name": name,
                        "cat": "stage",
                        "ph": "X",
                        "ts": timestamp,
                        "dur": (end - start) * 1e6,
                        "pid": pid,
                        "tid": tid,
                    }
                elif phase == "C":
                    event = {
                        "name": name,
                        "ph": "C",
                        "ts": timestamp,
                        "pid": pid,
                        "tid": tid,
                        "args": {"value": end},
                    }
                else:  # "i"
                    event = {
                        "name": name,
                        "ph": "i",
                        "s": "t",
                        "ts": timestamp,
                        "pid": pid,
                        "tid": tid,
                    }
                if args:
                    event["args"] = dict(args)
                events.append(event)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"events_dropped": self.events_dropped},
        }

    def save(self, path) -> int:
        """Write :meth:`export` to ``path``; returns the event count."""
        payload = self.export()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return len(payload["traceEvents"])


class NullTracer:
    """Disabled tracer: every method is a no-op (null-object pattern).

    Engines keep an unconditional ``tracer`` attribute and call it
    freely on cold paths; hot paths gate on ``tracer.enabled`` (or hold
    ``None`` via :meth:`repro.obs.Observability.timer_tracer`) so the
    disabled cost is one attribute check.
    """

    enabled = False

    def span(self, name: str, **args) -> _NullSpan:
        return _NULL_SPAN

    def add_complete(self, name, start, end, args=None) -> None:
        pass

    def add_external_complete(
        self, key, name, start, end, args=None, track_name=None
    ) -> None:
        pass

    def add_instant(self, name, **args) -> None:
        pass

    def add_counter(self, name, value) -> None:
        pass

    @property
    def events_recorded(self) -> int:
        return 0

    @property
    def events_dropped(self) -> int:
        return 0

    def track_names(self) -> list:
        return []

    def export(self) -> dict:
        return {"traceEvents": [], "displayTimeUnit": "ms",
                "otherData": {"events_dropped": 0}}

    def save(self, path) -> int:
        raise RuntimeError(
            "tracing is disabled (NullTracer); enable it with "
            "Observability(trace=True) / plan spec obs=trace"
        )


NULL_TRACER = NullTracer()
