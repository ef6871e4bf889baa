"""Self-measurement: where does a SATORI control interval's time go?

Extends :mod:`repro.experiments.overhead` — which reports only the
controller's aggregate decision time — with a span-level budget: the
same live run executes under a real :class:`~repro.obs.TraceCollector`,
and the recorded ``gp_fit`` / ``acquisition`` / ``actuation`` spans
decompose the measured overhead into the paper's components (Sec. V:
"all BO-related tasks take ~1.2 ms of each 100 ms interval").

The decomposition is honest rather than definitional: the components
are timed independently of the enclosing ``suggest``/``decide`` spans,
so their sum *measured* as >= 90 % of the decision latency is evidence
the instrumentation covers the budget, not an identity. Controller
time outside the decision path — sample validation, record keeping,
weight scheduling — is monitoring-side bookkeeping and reported
separately (``bookkeeping_ms``), mirroring the paper's own split of
monitoring cost from BO-task cost.

``idle_detection`` defaults to off here, unlike the production
controller: the overhead question is about the worst case — BO work
every interval — and idle intervals would dilute the breakdown with
near-zero decide spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import serialize
from repro.core.controller import SatoriController
from repro.experiments.comparison import full_space
from repro.experiments.runner import RunConfig, experiment_catalog, run_policy
from repro.obs import SPAN, TraceCollector, active_collector, use_collector
from repro.resources.types import ResourceCatalog
from repro.rng import SeedLike, make_rng, spawn_rng
from repro.workloads.mixes import JobMix


@dataclass(frozen=True)
class SpanStat:
    """Aggregate timing of one span name over a run."""

    name: str
    count: int
    total_ms: float
    mean_ms: float
    max_ms: float

    def to_dict(self) -> dict:
        return serialize.dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SpanStat":
        return serialize.dataclass_from_dict(cls, data)


@dataclass(frozen=True)
class DecisionBudget:
    """The per-interval decision-latency budget, decomposed.

    All ``*_ms`` fields are totals over the run; the per-interval and
    fraction views are derived properties. The decomposition follows
    the paper's own split of online cost (Sec. V): *decision latency*
    is the BO suggestion (``suggest_ms``, itself split into GP fit and
    acquisition) plus actuation; the controller's remaining per-sample
    work — monitor-feed validation, record keeping, weight scheduling —
    is monitoring-side bookkeeping, reported separately as
    :attr:`bookkeeping_ms` rather than folded into the decision path.
    """

    n_intervals: int
    control_interval_ms: float
    decide_ms: float
    suggest_ms: float
    gp_fit_ms: float
    acquisition_ms: float
    actuation_ms: float

    @property
    def overhead_ms(self) -> float:
        """Measured decision latency: BO suggestion + actuation."""
        return self.suggest_ms + self.actuation_ms

    @property
    def bookkeeping_ms(self) -> float:
        """Decide time outside the BO suggestion: sample validation,
        record keeping, and weight scheduling (monitoring-side work)."""
        return max(0.0, self.decide_ms - self.suggest_ms)

    @property
    def component_ms(self) -> float:
        """Sum of the three instrumented components."""
        return self.gp_fit_ms + self.acquisition_ms + self.actuation_ms

    @property
    def span_coverage(self) -> float:
        """Fraction of the measured decision latency the component
        spans explain (acceptance target: >= 0.9). Measured, not
        definitional: the components are timed by their own spans,
        independently of the enclosing ``suggest`` span."""
        return self.component_ms / self.overhead_ms if self.overhead_ms > 0 else 0.0

    @property
    def mean_overhead_ms(self) -> float:
        """Mean decision latency per interval (the paper's ~1.2 ms)."""
        return self.overhead_ms / self.n_intervals if self.n_intervals else 0.0

    @property
    def overhead_fraction_of_interval(self) -> float:
        return self.mean_overhead_ms / self.control_interval_ms

    def to_dict(self) -> dict:
        return serialize.dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionBudget":
        return serialize.dataclass_from_dict(cls, data)


@dataclass(frozen=True)
class ObsReport:
    """One instrumented SATORI run, summarized.

    ``mean_decision_time_ms`` comes from the controller's own
    wall-clock accounting (the :mod:`~repro.experiments.overhead`
    metric) and cross-checks the span-derived ``budget.decide_ms``;
    the two are measured independently.
    """

    mix_label: str
    policy_name: str
    idle_detection: bool
    idle_fraction: float
    mean_decision_time_ms: float
    budget: DecisionBudget
    span_stats: Tuple[SpanStat, ...]
    counters: Tuple[Tuple[str, float], ...]
    n_events: int

    _CODECS = {
        "budget": serialize.object_codec(DecisionBudget),
        "span_stats": serialize.FieldCodec(
            encode=lambda value: [s.to_dict() for s in value],
            decode=lambda data: tuple(SpanStat.from_dict(d) for d in data),
        ),
        "counters": serialize.FieldCodec(
            encode=lambda value: [[name, v] for name, v in value],
            decode=lambda data: tuple((str(name), float(v)) for name, v in data),
        ),
    }

    def to_dict(self) -> dict:
        return serialize.dataclass_to_dict(self, codecs=self._CODECS)

    @classmethod
    def from_dict(cls, data: dict) -> "ObsReport":
        return serialize.dataclass_from_dict(cls, data, codecs=cls._CODECS)

    def counter(self, name: str) -> float:
        for counter_name, value in self.counters:
            if counter_name == name:
                return value
        return 0.0


def summarize_collector(
    collector: TraceCollector,
    mix_label: str,
    policy_name: str,
    control_interval_ms: float,
    idle_detection: bool,
    idle_fraction: float,
    mean_decision_time_ms: float,
) -> ObsReport:
    """Condense a collector's events and metrics into an :class:`ObsReport`."""
    totals: Dict[str, list] = {}
    for event in collector.events:
        if event.kind != SPAN:
            continue
        totals.setdefault(event.name, []).append(event.duration_ns / 1e6)
    span_stats = tuple(
        SpanStat(
            name=name,
            count=len(durations),
            total_ms=sum(durations),
            mean_ms=sum(durations) / len(durations),
            max_ms=max(durations),
        )
        for name, durations in sorted(totals.items())
    )

    def total_ms(name: str) -> float:
        return sum(totals.get(name, ()))

    n_intervals = len(totals.get("interval", totals.get("decide", ())))
    budget = DecisionBudget(
        n_intervals=n_intervals,
        control_interval_ms=control_interval_ms,
        decide_ms=total_ms("decide"),
        suggest_ms=total_ms("suggest"),
        gp_fit_ms=total_ms("gp_fit"),
        acquisition_ms=total_ms("acquisition"),
        actuation_ms=total_ms("actuation"),
    )
    return ObsReport(
        mix_label=mix_label,
        policy_name=policy_name,
        idle_detection=idle_detection,
        idle_fraction=idle_fraction,
        mean_decision_time_ms=mean_decision_time_ms,
        budget=budget,
        span_stats=span_stats,
        counters=tuple(sorted(collector.metrics.counters().items())),
        n_events=len(collector.events),
    )


def observed_overhead(
    mix: JobMix,
    catalog: Optional[ResourceCatalog] = None,
    run_config: Optional[RunConfig] = None,
    seed: SeedLike = 0,
    idle_detection: bool = False,
) -> Tuple[ObsReport, TraceCollector]:
    """Run SATORI under a live collector and decompose its overhead.

    Records into the ambient collector when one is enabled (so a
    caller's trace export includes the run), otherwise into a fresh
    one. Returns the report together with that collector.
    """
    catalog = catalog or experiment_catalog()
    run_config = run_config or RunConfig(duration_s=15.0)
    rng = make_rng(seed)
    controller = SatoriController(
        full_space(catalog, len(mix)),
        idle_detection=idle_detection,
        rng=spawn_rng(rng),
    )
    collector = active_collector()
    if not collector.enabled:
        collector = TraceCollector()
    with use_collector(collector):
        run_policy(controller, mix, catalog, run_config, seed=spawn_rng(rng))
    report = summarize_collector(
        collector,
        mix_label=mix.label,
        policy_name=controller.name,
        control_interval_ms=run_config.interval_s * 1000.0,
        idle_detection=idle_detection,
        idle_fraction=controller.idle_fraction,
        mean_decision_time_ms=controller.mean_decision_time_s * 1000.0,
    )
    return report, collector
