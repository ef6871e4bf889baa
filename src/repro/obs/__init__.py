"""``repro.obs`` — tracing, metrics, and exporters for the reproduction.

The observability subsystem answers "where does the decision interval's
time go?" — the load-bearing question behind SATORI's sub-core overhead
claim — without perturbing results: collection is purely observational
(no RNG draws, no control-flow reads), and the default ambient
collector is the no-op :data:`NULL_COLLECTOR`.

Typical use::

    from repro.obs import TraceCollector, use_collector
    from repro.obs.export import write_chrome_trace

    collector = TraceCollector()
    with use_collector(collector):
        run_policy(policy, mix, catalog, config)
    write_chrome_trace(collector.events, "trace.chrome.json")
"""

from repro.obs.collector import (
    INSTANT,
    SPAN,
    ManualClock,
    NullCollector,
    NULL_COLLECTOR,
    TraceCollector,
    TraceEvent,
    active_collector,
    use_collector,
)
from repro.obs.metrics import (
    Counter,
    DEFAULT_LATENCY_BUCKETS_S,
    Gauge,
    Histogram,
    MetricRegistry,
    NullRegistry,
)

__all__ = [
    "INSTANT",
    "SPAN",
    "ManualClock",
    "NullCollector",
    "NULL_COLLECTOR",
    "TraceCollector",
    "TraceEvent",
    "active_collector",
    "use_collector",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_S",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NullRegistry",
]
