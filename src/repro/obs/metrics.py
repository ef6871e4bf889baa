"""Metric primitives: counters, gauges, histograms.

A :class:`MetricRegistry` hands out named metric instruments on first
use (``registry.counter("engine.cache_hits")``) and remembers them, so
instrumented code never has to pre-declare what it records. Lookups
are a single dict ``get`` and updates a float add, which keeps the
instruments cheap enough to leave on in the control loop's hot path.

The null variants at the bottom mirror the API with no-op methods; the
:data:`NULL_REGISTRY` backs :class:`~repro.obs.collector.NullCollector`
so uninstrumented runs pay only an attribute lookup and an empty call.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

from repro.errors import ObsError

#: Default histogram bucket upper bounds, in seconds. Spaced roughly
#: 1-3-10 from 0.1 ms to 1 s — the range a control-interval component
#: (GP fit, acquisition scan, actuation write) can plausibly occupy.
DEFAULT_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0,
)


class Counter:
    """Monotonically increasing count (events, cache hits, retries)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObsError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Point-in-time level (worker utilization, queue depth)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket distribution of observed values.

    Buckets are upper bounds in ascending order; an implicit +inf
    bucket catches overflow. Cumulative counts, the total sum, and the
    observation count are enough for mean/percentile estimates and map
    directly onto the Prometheus exposition format.
    """

    __slots__ = ("name", "buckets", "_counts", "_sum", "_count")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ObsError(
                f"histogram {name!r} buckets must be non-empty and strictly "
                f"ascending; got {bounds}"
            )
        self.name = name
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self._counts[i] += 1
                break
        else:
            self._counts[-1] += 1
        self._sum += value
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def bucket_counts(self) -> Tuple[int, ...]:
        """Per-bucket (non-cumulative) counts, +inf bucket last."""
        return tuple(self._counts)

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0


class MetricRegistry:
    """Named metric instruments, created on first use.

    A name is bound to one instrument kind for the registry's lifetime;
    asking for the same name as a different kind raises
    :class:`~repro.errors.ObsError` (it would silently split data
    otherwise).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get_or_create(self, name: str, kind: type, *args: Any) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, *args)
            self._metrics[name] = metric
            return metric
        if not isinstance(metric, kind):
            raise ObsError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S
    ) -> Histogram:
        return self._get_or_create(name, Histogram, buckets)

    def get(self, name: str) -> Optional[Any]:
        """The instrument bound to ``name``, or ``None``."""
        return self._metrics.get(name)

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._metrics))

    def items(self) -> Iterator[Tuple[str, Any]]:
        for name in sorted(self._metrics):
            yield name, self._metrics[name]

    def counters(self) -> Dict[str, float]:
        """``{name: value}`` of every counter (sorted by name)."""
        return {
            name: metric.value
            for name, metric in self.items()
            if isinstance(metric, Counter)
        }

    def __len__(self) -> int:
        return len(self._metrics)


# -- null variants ---------------------------------------------------------


class _NullCounter:
    __slots__ = ()
    name = ""
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = ""
    value = 0.0

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    name = ""
    buckets: Tuple[float, ...] = ()
    count = 0
    sum = 0.0
    mean = 0.0
    bucket_counts: Tuple[int, ...] = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullRegistry(MetricRegistry):
    """Registry whose instruments discard everything.

    Shared singletons are handed out regardless of name, so the
    disabled path allocates nothing.
    """

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str) -> Counter:
        return _NULL_COUNTER  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return _NULL_GAUGE  # type: ignore[return-value]

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S
    ) -> Histogram:
        return _NULL_HISTOGRAM  # type: ignore[return-value]
