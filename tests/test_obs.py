"""Tests for the observability subsystem (repro.obs)."""

import json

import pytest

from repro.errors import ObsError
from repro.obs import (
    INSTANT,
    NULL_COLLECTOR,
    SPAN,
    ManualClock,
    MetricRegistry,
    NullCollector,
    NullRegistry,
    TraceCollector,
    TraceEvent,
    active_collector,
    use_collector,
)
from repro.obs.export import (
    chrome_trace,
    events_to_jsonl,
    prometheus_text,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_S


def manual_collector(step_ns: int = 1000) -> TraceCollector:
    return TraceCollector(clock=ManualClock(step_ns=step_ns))


class TestManualClock:
    def test_each_read_advances_by_step(self):
        clock = ManualClock(start_ns=10, step_ns=5)
        assert [clock(), clock(), clock()] == [10, 15, 20]

    def test_advance_shifts_time(self):
        clock = ManualClock()
        clock()
        clock.advance(10_000)
        assert clock() == 11_000


class TestSpans:
    def test_span_duration_is_deterministic_with_manual_clock(self):
        collector = manual_collector(step_ns=1000)
        with collector.span("work", "test"):
            pass
        (event,) = collector.events
        assert event.kind == SPAN
        assert event.name == "work"
        assert event.category == "test"
        assert event.duration_ns == 1000

    def test_nested_spans_complete_inner_first(self):
        collector = manual_collector()
        with collector.span("outer"):
            with collector.span("inner"):
                pass
        assert [e.name for e in collector.events] == ["inner", "outer"]
        inner, outer = collector.events
        assert outer.start_ns < inner.start_ns
        assert outer.duration_ns > inner.duration_ns

    def test_exception_propagates_and_span_still_recorded(self):
        collector = manual_collector()
        with pytest.raises(ValueError):
            with collector.span("failing"):
                raise ValueError("boom")
        assert [e.name for e in collector.events] == ["failing"]

    def test_span_args_recorded_sorted(self):
        collector = manual_collector()
        with collector.span("s", "c", zeta=1, alpha=2):
            pass
        (event,) = collector.events
        assert event.args == (("alpha", 2), ("zeta", 1))

    def test_helpers(self):
        collector = manual_collector(step_ns=1000)
        with collector.span("a"):
            pass
        with collector.span("a"):
            pass
        collector.event("marker")
        assert len(collector.spans_named("a")) == 2
        assert collector.total_seconds("a") == pytest.approx(2e-6)
        collector.clear()
        assert collector.events == ()


class TestInstantEvents:
    def test_event_is_zero_duration_instant(self):
        collector = manual_collector()
        collector.event("migration", "cluster", job_id=3)
        (event,) = collector.events
        assert event.kind == INSTANT
        assert event.duration_ns == 0
        assert dict(event.args) == {"job_id": 3}


class TestTraceEventSerialization:
    def test_round_trip(self):
        event = TraceEvent("n", "c", 5, 7, SPAN, (("k", 1.5),))
        assert TraceEvent.from_dict(event.to_dict()) == event

    def test_argless_round_trip_omits_args(self):
        event = TraceEvent("n", "c", 5, 7)
        assert "args" not in event.to_dict()
        assert TraceEvent.from_dict(event.to_dict()) == event


class TestMetricRegistry:
    def test_counter_accumulates(self):
        registry = MetricRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(2.0)
        assert registry.counter("hits").value == 3.0
        assert registry.counters() == {"hits": 3.0}

    def test_counter_rejects_decrease(self):
        with pytest.raises(ObsError, match="cannot decrease"):
            MetricRegistry().counter("c").inc(-1.0)

    def test_gauge_holds_last_value(self):
        gauge = MetricRegistry().gauge("util")
        gauge.set(0.25)
        gauge.set(0.75)
        assert gauge.value == 0.75

    def test_histogram_buckets_and_mean(self):
        histogram = MetricRegistry().histogram("lat", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 5.0):
            histogram.observe(value)
        assert histogram.bucket_counts == (1, 1, 1)  # +inf bucket last
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(7.0 / 3.0)

    def test_histogram_bad_buckets_rejected(self):
        registry = MetricRegistry()
        with pytest.raises(ObsError, match="ascending"):
            registry.histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ObsError, match="ascending"):
            registry.histogram("h2", buckets=())

    def test_default_buckets_strictly_ascending(self):
        assert list(DEFAULT_LATENCY_BUCKETS_S) == sorted(set(DEFAULT_LATENCY_BUCKETS_S))

    def test_name_kind_conflict_rejected(self):
        registry = MetricRegistry()
        registry.counter("x")
        with pytest.raises(ObsError, match="is a Counter"):
            registry.gauge("x")

    def test_get_and_names(self):
        registry = MetricRegistry()
        registry.counter("b")
        registry.gauge("a")
        assert registry.names() == ("a", "b")
        assert registry.get("missing") is None
        assert len(registry) == 2


class TestNullPath:
    def test_default_active_collector_is_null(self):
        assert active_collector() is NULL_COLLECTOR
        assert not NULL_COLLECTOR.enabled

    def test_null_collector_records_nothing(self):
        collector = NullCollector()
        with collector.span("s", "c", arg=1):
            pass
        collector.event("e")
        collector.metrics.counter("c").inc()
        collector.metrics.histogram("h").observe(1.0)
        collector.metrics.gauge("g").set(1.0)
        assert collector.events == ()
        assert len(collector.metrics) == 0

    def test_null_registry_hands_out_shared_singletons(self):
        registry = NullRegistry()
        assert registry.counter("a") is registry.counter("b")

    def test_use_collector_installs_and_restores(self):
        collector = TraceCollector()
        with use_collector(collector):
            assert active_collector() is collector
            inner = TraceCollector()
            with use_collector(inner):
                assert active_collector() is inner
            assert active_collector() is collector
        assert active_collector() is NULL_COLLECTOR

    def test_use_collector_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with use_collector(TraceCollector()):
                raise RuntimeError("boom")
        assert active_collector() is NULL_COLLECTOR


class TestJsonlExport:
    def test_round_trip(self, tmp_path):
        collector = manual_collector()
        with collector.span("s", "c", k=1):
            pass
        collector.event("i", "c")
        path = write_jsonl(collector.events, tmp_path / "trace.jsonl")
        assert read_jsonl(path) == list(collector.events)

    def test_one_event_per_line(self):
        events = [TraceEvent("a", "", 0, 1), TraceEvent("b", "", 1, 1)]
        text = events_to_jsonl(events)
        assert len(text.splitlines()) == 2

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "ok", "category": "", "start_ns": 0, '
                        '"duration_ns": 1, "kind": "span"}\nnot json\n')
        with pytest.raises(ObsError, match="bad.jsonl:2"):
            read_jsonl(path)


class TestChromeExport:
    def test_structure(self, tmp_path):
        collector = manual_collector(step_ns=1000)
        with collector.span("work", "bo", depth=1):
            pass
        collector.event("mark", "cluster")
        trace = chrome_trace(collector.events, process_name="test-proc")
        assert set(trace) == {"traceEvents", "displayTimeUnit"}

        meta, *rest = trace["traceEvents"]
        assert meta["ph"] == "M" and meta["args"]["name"] == "test-proc"
        by_name = {entry["name"]: entry for entry in rest}
        span = by_name["work"]
        assert span["ph"] == "X"
        assert span["dur"] == pytest.approx(1.0)  # 1000 ns -> 1 us
        assert span["cat"] == "bo"
        assert span["args"] == {"depth": 1}
        instant = by_name["mark"]
        assert instant["ph"] == "i" and instant["s"] == "t"
        assert "dur" not in instant

        path = write_chrome_trace(collector.events, tmp_path / "t.json")
        assert json.loads(path.read_text())["displayTimeUnit"] == "ms"

    def test_events_sorted_by_start(self):
        events = [TraceEvent("late", "", 100, 1), TraceEvent("early", "", 5, 1)]
        names = [e["name"] for e in chrome_trace(events)["traceEvents"][1:]]
        assert names == ["early", "late"]


class TestPrometheusExport:
    def test_all_kinds_rendered(self, tmp_path):
        registry = MetricRegistry()
        registry.counter("engine.cache_hits").inc(3)
        registry.gauge("worker.util").set(0.5)
        histogram = registry.histogram("lat", buckets=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(5.0)

        text = prometheus_text(registry)
        assert "# TYPE engine_cache_hits counter\nengine_cache_hits 3" in text
        assert "worker_util 0.5" in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="2"} 1' in text  # cumulative: nothing in (1, 2]
        assert 'lat_bucket{le="+Inf"} 2' in text
        assert "lat_sum 5.5" in text and "lat_count 2" in text

        path = write_prometheus(registry, tmp_path / "m.prom")
        assert path.read_text() == text

    def test_empty_registry_is_empty_text(self):
        assert prometheus_text(MetricRegistry()) == ""


class TestAdoption:
    """Grafting worker-process spans onto the parent timeline."""

    def foreign_events(self):
        # Spans from a "worker" clock whose epoch is unrelated to the
        # parent's: a 1000 ns outer span containing a later inner one.
        return [
            TraceEvent("outer", "engine", 500_000, 1000),
            TraceEvent("inner", "engine", 500_200, 100),
        ]

    def test_adopt_rebases_and_preserves_offsets(self):
        collector = manual_collector()
        collector.adopt(self.foreign_events(), at_ns=10_000)
        outer, inner = collector.events
        assert outer.start_ns == 10_000          # earliest lands at at_ns
        assert inner.start_ns == 10_200          # +200 offset preserved
        assert outer.duration_ns == 1000         # durations untouched
        assert inner.duration_ns == 100

    def test_adopt_tags_lane(self):
        collector = manual_collector()
        collector.adopt(self.foreign_events(), at_ns=0, lane="worker:3")
        assert all(dict(e.args)["lane"] == "worker:3" for e in collector.events)

    def test_adopt_without_lane_leaves_args_alone(self):
        collector = manual_collector()
        collector.adopt([TraceEvent("e", "", 5, 1, args=(("k", 1),))], at_ns=0)
        (event,) = collector.events
        assert event.args == (("k", 1),)

    def test_adopt_empty_batch_is_noop(self):
        collector = manual_collector()
        collector.adopt([], at_ns=0)
        assert collector.events == ()

    def test_null_collector_adopt_is_noop(self):
        NULL_COLLECTOR.adopt(self.foreign_events(), at_ns=0, lane="w")
        assert NULL_COLLECTOR.events == ()

    def test_now_ns_reads_the_collector_clock(self):
        collector = TraceCollector(clock=ManualClock(start_ns=42, step_ns=0))
        assert collector.now_ns() == 42


class TestChromeLanes:
    def test_lanes_map_to_threads(self):
        events = [
            TraceEvent("main_work", "engine", 0, 10),
            TraceEvent("w0", "engine", 5, 10, args=(("lane", "worker:0"),)),
            TraceEvent("w1", "engine", 6, 10, args=(("lane", "worker:1"),)),
            TraceEvent("w0b", "engine", 7, 10, args=(("lane", "worker:0"),)),
        ]
        trace = chrome_trace(events)
        by_name = {e["name"]: e for e in trace["traceEvents"] if e.get("ph") == "X"}
        assert by_name["main_work"]["tid"] == 1
        assert by_name["w0"]["tid"] == by_name["w0b"]["tid"] == 2
        assert by_name["w1"]["tid"] == 3
        # The lane arg is consumed by the tid mapping, not re-emitted.
        assert "args" not in by_name["w0"]
        names = {
            entry["tid"]: entry["args"]["name"]
            for entry in trace["traceEvents"]
            if entry["ph"] == "M" and entry["name"] == "thread_name"
        }
        assert names == {1: "main", 2: "worker:0", 3: "worker:1"}

    def test_no_lanes_no_thread_metadata(self):
        # Lane-free traces keep the historical single-thread shape —
        # no trailing thread_name entries.
        events = [TraceEvent("solo", "", 0, 1)]
        entries = chrome_trace(events)["traceEvents"]
        assert [e["name"] for e in entries] == ["process_name", "solo"]


class TestWorkerSpanPropagation:
    def test_pool_run_adopts_worker_spans(self):
        from repro.engine import ExecutionEngine, RunSpec
        from repro.experiments.runner import RunConfig, experiment_catalog
        from repro.workloads.mixes import mix_from_names

        specs = [
            RunSpec(
                mix=mix_from_names(names),
                policy="EqualPartition",
                catalog=experiment_catalog(4),
                run_config=RunConfig(duration_s=1.0, baseline_reset_s=0.5),
                seed=1,
            )
            for names in (["canneal", "streamcluster"], ["vips", "freqmine"])
        ]
        collector = TraceCollector()
        with use_collector(collector):
            ExecutionEngine(workers=2).run(specs)
        worker_spans = [
            e for e in collector.spans_named("run_spec")
            if dict(e.args).get("lane", "").startswith("worker:")
        ]
        lanes = {dict(e.args)["lane"] for e in worker_spans}
        assert lanes == {"worker:0", "worker:1"}
        # And the chrome export renders them on their own threads.
        tids = {
            entry["tid"]
            for entry in chrome_trace(collector.events)["traceEvents"]
            if entry.get("ph") == "X" and entry["name"] == "run_spec"
        }
        assert tids == {2, 3}
