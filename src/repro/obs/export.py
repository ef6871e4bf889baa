"""Trace and metric exporters: JSONL, Chrome ``trace_event``, Prometheus text.

Three sinks cover the three consumers:

* **JSONL** — one :class:`~repro.obs.collector.TraceEvent` dict per
  line; greppable, streamable, and the round-trip format tests use.
* **Chrome trace_event** — the JSON object format understood by
  ``chrome://tracing`` and https://ui.perfetto.dev; spans become
  ``"ph": "X"`` complete events with microsecond timestamps.
* **Prometheus text** — the plain exposition format for a
  :class:`~repro.obs.metrics.MetricRegistry` snapshot, so counters and
  histograms can be diffed or scraped by standard tooling.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

from repro.errors import ObsError
from repro.obs.collector import INSTANT, TraceEvent
from repro.obs.metrics import Counter, Gauge, Histogram, MetricRegistry

PathLike = Union[str, Path]


# -- JSONL -----------------------------------------------------------------


def events_to_jsonl(events: Iterable[TraceEvent]) -> str:
    """Events as newline-delimited JSON (one event dict per line)."""
    return "".join(json.dumps(e.to_dict(), sort_keys=True) + "\n" for e in events)


def write_jsonl(events: Iterable[TraceEvent], path: PathLike) -> Path:
    path = Path(path)
    path.write_text(events_to_jsonl(events))
    return path


def read_jsonl(path: PathLike) -> List[TraceEvent]:
    """Parse a JSONL trace back into events (inverse of :func:`write_jsonl`)."""
    path = Path(path)
    events: List[TraceEvent] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            events.append(TraceEvent.from_dict(json.loads(line)))
        except (ValueError, KeyError) as exc:
            raise ObsError(f"{path}:{lineno}: malformed trace line: {exc}") from exc
    return events


# -- Chrome trace_event ----------------------------------------------------


def chrome_trace(events: Iterable[TraceEvent], process_name: str = "repro") -> Dict[str, Any]:
    """Events as a Chrome ``trace_event`` JSON object.

    Spans map to complete ("X") events and instants to instant ("i")
    events; timestamps and durations are microseconds as the format
    requires. Events are sorted by start time so the viewer's
    begin/end pairing never sees out-of-order data.

    Events carrying a ``lane`` argument (worker spans adopted across
    the engine's result pipe) render on their own thread rows — the
    main timeline is tid 1, each distinct lane gets the next tid in
    first-seen order — so a pool run's per-worker activity reads like
    a real multi-threaded trace.
    """
    trace_events: List[Dict[str, Any]] = [{
        "name": "process_name",
        "ph": "M",
        "pid": 1,
        "tid": 1,
        "args": {"name": process_name},
    }]
    lanes: Dict[str, int] = {}
    for event in sorted(events, key=lambda e: e.start_ns):
        args = dict(event.args)
        lane = args.pop("lane", "")
        tid = lanes.setdefault(lane, len(lanes) + 2) if lane else 1
        entry: Dict[str, Any] = {
            "name": event.name,
            "cat": event.category or "default",
            "ts": event.start_ns / 1000.0,
            "pid": 1,
            "tid": tid,
        }
        if event.kind == INSTANT:
            entry["ph"] = "i"
            entry["s"] = "t"
        else:
            entry["ph"] = "X"
            entry["dur"] = event.duration_ns / 1000.0
        if args:
            entry["args"] = args
        trace_events.append(entry)
    if lanes:
        thread_names = [("main", 1)] + sorted(lanes.items(), key=lambda kv: kv[1])
        for name, tid in thread_names:
            trace_events.append({
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": name},
            })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(events: Iterable[TraceEvent], path: PathLike,
                       process_name: str = "repro") -> Path:
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(events, process_name), indent=1))
    return path


# -- Prometheus text -------------------------------------------------------

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """A registry name as a legal Prometheus metric name."""
    sanitized = _NAME_SANITIZER.sub("_", name)
    if not sanitized or not (sanitized[0].isalpha() or sanitized[0] in "_:"):
        sanitized = "_" + sanitized
    return sanitized


def _fmt(value: float) -> str:
    """Float without a trailing ``.0`` for integral values."""
    return repr(int(value)) if float(value).is_integer() else repr(float(value))


def prometheus_text(registry: MetricRegistry) -> str:
    """Registry contents in the Prometheus text exposition format.

    Histograms expand to cumulative ``_bucket{le=...}`` lines plus
    ``_sum``/``_count``.
    """
    lines: List[str] = []
    for name, metric in registry.items():
        pname = _prom_name(name)
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {pname} counter")
            lines.append(f"{pname} {_fmt(metric.value)}")
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {_fmt(metric.value)}")
        elif isinstance(metric, Histogram):
            lines.append(f"# TYPE {pname} histogram")
            cumulative = 0
            for bound, count in zip(metric.buckets, metric.bucket_counts):
                cumulative += count
                lines.append(f'{pname}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
            lines.append(f'{pname}_bucket{{le="+Inf"}} {metric.count}')
            lines.append(f"{pname}_sum {_fmt(metric.sum)}")
            lines.append(f"{pname}_count {metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(registry: MetricRegistry, path: PathLike) -> Path:
    path = Path(path)
    path.write_text(prometheus_text(registry))
    return path
