#!/usr/bin/env python
"""Summarize a ``repro.obs`` Chrome trace: tracks, top spans, overlap.

Reads the trace-event JSON a traced run writes (CLI ``--trace``,
``TrainSession.save_trace``) and reports, per thread track, the span
count, busy time (union of span intervals, so nested spans are not
double-counted), utilization over the trace extent, and the top spans
by aggregate duration.  For worker tracks it also computes the *hidden
fraction*: the share of the worker's busy time that did **not** overlap
the main loop's exposed waits (``pipeline_wait`` / ``staleness_wait``
spans) — the trace-derived counterpart of the trainer's
``stats()["pipeline"]["hidden_fraction"]``, which the ``plan_sweep`` case
of ``benchmarks/run.py`` measures from timers.

The main track is found by its exported *name* (``main-loop``), never
by tid: worker threads can register with the tracer before the main
thread does, so track order and tid assignment are not meaningful.

Standalone on purpose — stdlib only, no ``repro`` imports — so it can
run against an artifact trace without the package on the path.
"""

from __future__ import annotations

import argparse
import json
import sys

#: The exported name of the training loop's track (see
#: repro.obs.tracer._THREAD_NAME_ALIASES).
MAIN_TRACK_NAME = "main-loop"

#: Main-loop span names that represent *exposed* waiting on a worker.
#: Worker busy time overlapping these spans did not hide anything.
WAIT_SPAN_NAMES = ("pipeline_wait", "staleness_wait")


def _union(intervals: list) -> list:
    """Merge overlapping ``(start, end)`` intervals (sorted output)."""
    merged: list = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _total(intervals: list) -> float:
    return sum(end - start for start, end in intervals)


def _intersect(a: list, b: list) -> float:
    """Total overlap between two *merged* interval lists."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


def summarize(payload, top: int = 5) -> dict:
    """Structured summary of a parsed trace payload.

    Returns ``{"extent_us", "tracks": [...], "overlap": {...}}`` where
    each track entry has ``name``, ``tid``, ``spans``, ``busy_us``,
    ``utilization`` and ``top_spans`` (name, count, total_us), and
    ``overlap`` (present when a main track and at least one worker
    track exist) maps worker names to
    ``{"busy_us", "overlap_main_us", "hidden_us", "hidden_fraction"}``.
    """
    events = payload.get("traceEvents", payload) if \
        isinstance(payload, dict) else payload
    names: dict = {}
    spans: dict = {}
    for event in events:
        if not isinstance(event, dict):
            continue
        key = (event.get("pid"), event.get("tid"))
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            names[key] = event.get("args", {}).get("name", f"tid {key[1]}")
        elif event.get("ph") == "X":
            start = float(event["ts"])
            spans.setdefault(key, []).append(
                (event.get("name", "?"), start, start + float(event["dur"]))
            )

    starts = [s for track in spans.values() for _, s, _ in track]
    ends = [e for track in spans.values() for _, _, e in track]
    extent = (max(ends) - min(starts)) if starts else 0.0

    tracks = []
    busy_by_key: dict = {}
    for key, track_spans in spans.items():
        busy = _union([(s, e) for _, s, e in track_spans])
        busy_by_key[key] = busy
        by_name: dict = {}
        for name, start, end in track_spans:
            count, total = by_name.get(name, (0, 0.0))
            by_name[name] = (count + 1, total + (end - start))
        top_spans = sorted(
            by_name.items(), key=lambda item: -item[1][1]
        )[:top]
        tracks.append({
            "name": names.get(key, f"tid {key[1]}"),
            "tid": key[1],
            "spans": len(track_spans),
            "busy_us": _total(busy),
            "utilization": (_total(busy) / extent) if extent else 0.0,
            "top_spans": [
                {"name": name, "count": count, "total_us": total}
                for name, (count, total) in top_spans
            ],
        })
    tracks.sort(key=lambda t: (t["name"] != MAIN_TRACK_NAME, t["name"]))

    summary = {"extent_us": extent, "tracks": tracks}
    main_keys = [k for k in spans if names.get(k) == MAIN_TRACK_NAME]
    if main_keys:
        main_key = main_keys[0]
        main_busy = busy_by_key[main_key]
        waits = _union([
            (s, e) for name, s, e in spans[main_key]
            if name in WAIT_SPAN_NAMES
        ])
        overlap: dict = {}
        for key, busy in busy_by_key.items():
            if key == main_key or not busy:
                continue
            busy_total = _total(busy)
            exposed = _intersect(busy, waits)
            overlap[f"{names.get(key, key[1])} (tid {key[1]})"] = {
                "busy_us": busy_total,
                "overlap_main_us": _intersect(busy, main_busy),
                "hidden_us": busy_total - exposed,
                "hidden_fraction": (
                    (busy_total - exposed) / busy_total
                ),
            }
        if overlap:
            summary["overlap"] = overlap
    return summary


def _format_report(summary: dict) -> str:
    lines = [f"trace extent: {summary['extent_us'] / 1e3:.2f} ms"]
    for track in summary["tracks"]:
        lines.append("")
        lines.append(f"track {track['name']} (tid {track['tid']}): "
                     f"{track['spans']} spans, "
                     f"busy {track['busy_us'] / 1e3:.2f} ms, "
                     f"utilization {track['utilization']:.1%}")
        for span in track["top_spans"]:
            lines.append(f"  {span['name']:<24} x{span['count']:<5} "
                         f"{span['total_us'] / 1e3:.3f} ms")
    overlap = summary.get("overlap")
    if overlap:
        lines.append("")
        lines.append("worker overlap vs main loop:")
        for name, stats in sorted(overlap.items()):
            lines.append(
                f"  {name}: busy {stats['busy_us'] / 1e3:.2f} ms, "
                f"overlaps main {stats['overlap_main_us'] / 1e3:.2f} ms, "
                f"hidden fraction {stats['hidden_fraction']:.1%}"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="trace JSON file")
    parser.add_argument("--top", type=int, default=5,
                        help="top spans per track (default: 5)")
    parser.add_argument("--json", action="store_true",
                        help="emit the summary as JSON")
    args = parser.parse_args(argv)
    try:
        with open(args.trace, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"ERROR: {args.trace}: {error}", file=sys.stderr)
        return 1
    summary = summarize(payload, top=args.top)
    if args.json:
        json.dump(summary, sys.stdout, indent=2)
        print()
    else:
        print(_format_report(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
