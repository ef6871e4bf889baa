"""Outside-in layer spans for the traced benchmark run.

:func:`install` wraps each layer's public entry point so that every call
records one span through the public ``repro.obs`` span API
(``active_collector().span(...)``). Spans carry three arguments:

* ``sid`` — a process-unique span id;
* ``parent`` — the ``sid`` of the enclosing benchmark span on the same
  thread (empty at the top level);
* ``key`` — the unit of work the span belongs to: the spec digest that
  ``execute_run`` received for node-epoch spans, the session id for
  serve spans.

Inside an engine pool worker the ambient collector is the worker-local
one the engine installs when the parent collector is enabled, so the
spans ride the engine's worker-trace channel back to the parent. That
only works if the patched classes exist in the worker, so
:func:`install` must run before the pool forks.

With the default null collector installed the wrappers record nothing;
the untraced measurements never install them at all.
"""

from __future__ import annotations

import functools
import itertools
import os
import resource
import statistics
import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Category of every benchmark span (program spans use their own).
CATEGORY = "bench"

_local = threading.local()
_ids = itertools.count(1)
_installed = False

#: Results per process whose encoded size is measured.
RESULT_SIZE_SAMPLES = 4

#: Per-process call counts the layers expose no span for. The serve
#: server steps sessions on executor threads, hence the lock.
COUNTS: Dict[str, int] = {"contention_calls": 0}
_counts_lock = threading.Lock()


def _stack() -> List[Tuple[str, str]]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _span_wrapper(name: str, fn: Callable,
                  key_of: Optional[Callable] = None) -> Callable:
    from repro.obs import active_collector

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        obs = active_collector()
        if not obs.enabled:
            return fn(*args, **kwargs)
        stack = _stack()
        parent, key = stack[-1] if stack else ("", "")
        if key_of is not None:
            key = key_of(args, kwargs) or key
        sid = f"{os.getpid()}.{next(_ids)}"
        stack.append((sid, key))
        try:
            with obs.span(name, CATEGORY, sid=sid, parent=parent, key=key):
                return fn(*args, **kwargs)
        finally:
            stack.pop()

    return wrapper


def _counting_wrapper(counter: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with _counts_lock:
            COUNTS[counter] += 1
        return fn(*args, **kwargs)

    return wrapper


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _patch(owner: Any, attr: str, name: str, **options: Any) -> None:
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(original, classmethod):
        wrapped = _span_wrapper(name, original.__func__, **options)
        setattr(owner, attr, classmethod(wrapped))
    else:
        setattr(owner, attr, _span_wrapper(name, original, **options))


def _spec_key(args: tuple, kwargs: dict) -> str:
    spec = args[0] if args else kwargs["spec"]
    return spec.digest[:16]


def _session_key(args: tuple, kwargs: dict) -> str:
    # SessionManager.step/snapshot/kill(self, session_id, ...)
    if len(args) > 1 and isinstance(args[1], str):
        return args[1]
    return ""


def _layer_counts(obs: Any) -> Tuple[float, float, int]:
    registry = obs.metrics
    return (
        registry.counter("gp.lengthscale_searches").value,
        registry.counter("gp.lengthscale_reuses").value,
        COUNTS["contention_calls"],
    )


def _execute_run_wrapper(fn: Callable) -> Callable:
    """``execute_run`` span plus per-node-epoch counter deltas.

    Pool workers return events, not metric registries, so the counts a
    layer keeps (GP length-scale searches, contention solves) and the
    worker's peak RSS cross the engine's channel as the arguments of
    one instant event per node-epoch.
    """
    from repro.obs import active_collector

    spanned = _span_wrapper("engine.execute_run", fn, key_of=_spec_key)

    @functools.wraps(fn)
    def wrapper(spec: Any) -> Any:
        obs = active_collector()
        if not obs.enabled:
            return fn(spec)
        before = _layer_counts(obs)
        try:
            return spanned(spec)
        finally:
            after = _layer_counts(obs)
            obs.event(
                "execute_run.counts", CATEGORY, key=spec.digest[:16],
                searches=after[0] - before[0], reuses=after[1] - before[1],
                contention=after[2] - before[2],
                rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            )

    return wrapper


def _to_dict_wrapper(fn: Callable) -> Callable:
    """``RunResult.to_dict`` span plus the encoded size of a sample.

    The first few results each process encodes report their JSON size
    (encoding every one would double the codec's traced cost).
    """
    import json

    from repro.obs import active_collector

    spanned = _span_wrapper("serialize.to_dict", fn)
    sampled = itertools.count()

    @functools.wraps(fn)
    def wrapper(self: Any) -> Any:
        out = spanned(self)
        obs = active_collector()
        if obs.enabled and next(sampled) < RESULT_SIZE_SAMPLES:
            obs.event("to_dict.bytes", CATEGORY, bytes=len(json.dumps(out)))
        return out

    return wrapper


def install() -> None:
    """Wrap every benchmarked entry point (idempotent)."""
    global _installed
    if _installed:
        return
    from repro.broker.base import GlobalBroker
    from repro.cluster.placement import PlacementPolicy
    from repro.cluster.simulator import ClusterSimulator
    from repro.core.bo import BayesianOptimizer
    from repro.core.controller import SatoriController
    from repro.core.gp import GaussianProcess
    from repro.engine import engine as engine_module
    from repro.experiments.runner import RunResult
    from repro.qos.slo import SLOTracker
    from repro.serve.manager import SessionManager
    from repro.system import simulation
    from repro.system.session import ControlSession

    _patch(ClusterSimulator, "step_epoch", "cluster.step_epoch")
    for cls in _subclasses(PlacementPolicy):
        if "place" in cls.__dict__ and not getattr(cls.place, "__isabstractmethod__", False):
            _patch(cls, "place", "cluster.place")
    for cls in _subclasses(GlobalBroker):
        if "decide" in cls.__dict__ and not getattr(cls.decide, "__isabstractmethod__", False):
            _patch(cls, "decide", "broker.decide")
    _patch(SLOTracker, "score_epoch", "qos.score")
    _patch(SLOTracker, "score_outage", "qos.score")
    _patch(engine_module.ExecutionEngine, "run", "engine.run")
    # The engine resolves these through its own module globals.
    engine_module.execute_run = _execute_run_wrapper(engine_module.execute_run)
    _patch(engine_module, "make_policy", "policies.make_policy")
    _patch(engine_module, "run_policy", "experiments.run_policy")
    _patch(ControlSession, "step", "system.session_step")
    _patch(ControlSession, "policy_state", "state.policy_state")
    _patch(SatoriController, "decide", "core.decide")
    _patch(BayesianOptimizer, "suggest", "core.suggest")
    _patch(GaussianProcess, "fit", "core.gp_fit")
    _patch(simulation.CoLocationSimulator, "step", "system.server_step")
    RunResult.to_dict = _to_dict_wrapper(RunResult.to_dict)
    _patch(RunResult, "from_dict", "serialize.from_dict")
    for op in ("create", "step", "snapshot", "resume", "kill"):
        _patch(SessionManager, op, f"serve.{op}", key_of=_session_key)
    simulation.evaluate_system = _counting_wrapper(
        "contention_calls", simulation.evaluate_system)
    simulation.evaluate_system_batch = _counting_wrapper(
        "contention_calls", simulation.evaluate_system_batch)
    _installed = True


# -- analysis -------------------------------------------------------------

#: Every per-layer metric with its unit, in report order. A workload
#: that never enters a layer reports that layer's metrics as 0.
PER_LAYER = {
    "cluster.epoch_p50_ms": "ms",
    "cluster.epoch_p90_ms": "ms",
    "cluster.epoch_self_ms": "ms",
    "cluster.placement_ms": "ms",
    "cluster.node_epochs_simulated": "count",
    "cluster.node_epochs_synthesized": "count",
    "cluster.node_epochs_failed_engine": "count",
    "cluster.node_epochs_failed_weather": "count",
    "broker.decide_ms": "ms",
    "broker.transfers": "count",
    "qos.score_ms": "ms",
    "qos.slo_misses": "count",
    "qos.attainment": "ratio",
    "engine.run_ms": "ms",
    "engine.self_ms": "ms",
    "engine.specs_submitted": "count",
    "engine.worker_busy_s": "s",
    "engine.pool_utilization": "ratio",
    "engine.blob_cache_hits": "count",
    "engine.blob_cache_misses": "count",
    "engine.worker_peak_rss_mb": "MB",
    "policies.make_policy_ms": "ms",
    "policies.make_policy_calls": "count",
    "experiments.run_policy_ms": "ms",
    "system.session_step_us": "us",
    "system.intervals": "count",
    "system.server_step_us": "us",
    "system.contention_calls": "count",
    "core.decide_calls": "count",
    "core.decide_us": "us",
    "core.suggest_calls": "count",
    "core.suggest_ms": "ms",
    "core.suggest_share": "ratio",
    "core.gp_fit_ms": "ms",
    "core.lengthscale_searches": "count",
    "core.lengthscale_reuses": "count",
    "state.snapshot_ms": "ms",
    "state.snapshots_taken": "count",
    "state.snapshots_read": "count",
    "state.read_ratio": "ratio",
    "serialize.to_dict_ms": "ms",
    "serialize.from_dict_ms": "ms",
    "serialize.result_bytes": "bytes",
    "serve.step_p50_ms": "ms",
    "serve.step_p90_ms": "ms",
    "serve.step_p99_ms": "ms",
    "serve.server_step_p50_ms": "ms",
    "serve.server_step_p99_ms": "ms",
    "serve.transport_p50_ms": "ms",
    "serve.lateness_p99_ms": "ms",
    "serve.step_samples": "count",
    "serve.create_ms": "ms",
    "serve.snapshot_ms": "ms",
    "serve.resume_ms": "ms",
    "serve.snapshot_bytes": "bytes",
    "serve.failed_resume": "count",
    "serve.rss_growth_mb": "MB",
    "obs.events_retained": "count",
    "trace.coverage": "ratio",
    "trace.uncovered_ms": "ms",
    "trace.overhead_pct": "%",
}


def span_metrics(spans: "SpanSet") -> Dict[str, float]:
    """The per-layer metrics every workload derives the same way."""
    decide_ms = spans.total_ms("core.decide")
    sizes = spans.instant_values("to_dict.bytes", "bytes")
    return {
        "broker.decide_ms": spans.median_ms("broker.decide"),
        "engine.run_ms": spans.median_ms("engine.run"),
        "policies.make_policy_ms": spans.median_ms("policies.make_policy"),
        "policies.make_policy_calls": spans.count("policies.make_policy"),
        "experiments.run_policy_ms": spans.median_ms("experiments.run_policy"),
        "system.session_step_us": 1e3 * spans.median_ms("system.session_step", self_time=True),
        "system.intervals": spans.count("system.session_step"),
        "system.server_step_us": 1e3 * spans.median_ms("system.server_step"),
        "core.decide_calls": spans.count("core.decide"),
        "core.decide_us": 1e3 * spans.median_ms("core.decide", self_time=True),
        "core.suggest_calls": spans.count("core.suggest"),
        "core.suggest_ms": spans.median_ms("core.suggest"),
        "core.suggest_share": spans.total_ms("core.suggest") / decide_ms if decide_ms else 0.0,
        "core.gp_fit_ms": spans.median_ms("core.gp_fit"),
        "state.snapshot_ms": spans.median_ms("state.policy_state"),
        "state.snapshots_taken": spans.count("state.policy_state"),
        "serialize.to_dict_ms": spans.median_ms("serialize.to_dict"),
        "serialize.from_dict_ms": spans.median_ms("serialize.from_dict"),
        "serialize.result_bytes": statistics.median(sizes) if sizes else 0.0,
    }


def complete(metrics: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric with its unit; absent layers read 0."""
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {name: (float(metrics.get(name, 0.0)), unit) for name, unit in PER_LAYER.items()}


class Span:
    """One benchmark span: name, start/end (ns), id, parent id, key."""

    __slots__ = ("name", "start", "end", "sid", "parent", "key", "lane", "children")

    def __init__(self, name: str, start: int, duration: int, sid: str,
                 parent: str, key: str, lane: str = "") -> None:
        self.name = name
        self.start = start
        self.end = start + duration
        self.sid = sid
        self.parent = parent
        self.key = key
        self.lane = lane
        self.children: List["Span"] = []

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6

    @property
    def self_ms(self) -> float:
        return self.ms - sum(child.ms for child in self.children)


def span_rows(events: Iterable[Any]) -> Tuple[List[list], List[Dict[str, Any]]]:
    """Benchmark spans as plain rows, and the benchmark instant events."""
    rows, instants = [], []
    for event in events:
        if event.category != CATEGORY:
            continue
        args = dict(event.args)
        if event.kind == "span":
            rows.append([event.name, event.start_ns, event.duration_ns,
                         args.get("sid", ""), args.get("parent", ""),
                         args.get("key", ""), args.get("lane", "")])
        else:
            instants.append(dict(args, name=event.name))
    return rows, instants


class SpanSet:
    """The benchmark spans of one traced run, linked parent to child."""

    def __init__(self, rows: Iterable[Sequence[Any]],
                 instants: Iterable[Dict[str, Any]] = ()) -> None:
        self.spans = [Span(*row) for row in rows]
        self.instants = list(instants)
        by_sid = {span.sid: span for span in self.spans}
        for span in self.spans:
            parent = by_sid.get(span.parent)
            if parent is not None:
                parent.children.append(span)
        self._by_name: Dict[str, List[Span]] = {}
        for span in self.spans:
            self._by_name.setdefault(span.name, []).append(span)

    def named(self, name: str) -> List[Span]:
        return self._by_name.get(name, [])

    def count(self, name: str) -> int:
        return len(self.named(name))

    def total_ms(self, name: str) -> float:
        return sum(span.ms for span in self.named(name))

    def median_ms(self, name: str, self_time: bool = False) -> float:
        values = [span.self_ms if self_time else span.ms for span in self.named(name)]
        return statistics.median(values) if values else 0.0

    def instant_values(self, name: str, field: str) -> List[float]:
        return [entry[field] for entry in self.instants if entry["name"] == name]

    def roots(self) -> List[Span]:
        """Top-level spans recorded in this process (not adopted)."""
        return [span for span in self.spans if not span.parent and not span.lane]


def union_ms(intervals: Sequence[Tuple[int, int]]) -> float:
    """Length of the union of ``[start, end)`` nanosecond intervals, in ms."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total / 1e6
