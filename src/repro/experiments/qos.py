"""QoS experiments: single-server LC co-location and the cluster SLO sweep.

Two layers share this module:

* :func:`qos_colocation` reproduces the design-goal distinction the
  paper draws in Sec. IV: PARTIES targets QoS of co-located
  latency-critical services, SATORI targets throughput+fairness of
  batch jobs. Running both on an LC mix shows each excelling at its
  own objective — QoS-PARTIES holds tail-latency targets, SATORI
  (which knows nothing about latency targets) extracts more raw
  throughput while violating more QoS intervals.

* :func:`qos_sweep` is the fleet-level SLO experiment: replay paired
  arrival traces (flash-crowd and diurnal shapes, a fraction of
  arrivals tagged ``"qos"``) against the cluster simulator under an
  enforced :class:`~repro.qos.SLOSpec`, once per partitioning policy.
  Every cell of one (shape, qos_fraction, trace seed) coordinate faces
  a bit-identical trace and node-epoch seed derivation, so per-policy
  differences in SLO attainment and disruption-adjusted fairness are
  attributable to the policy alone. This is the experiment behind
  ``python -m repro qos`` and the ``BENCH_qos.json`` artifact: BoPF's
  short-term-guarantee phase must buy qos attainment on the
  flash-crowd shape without giving up more than a documented sliver
  of batch fairness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.controller import SatoriController
from repro.engine import ExecutionEngine
from repro.errors import ExperimentError
from repro.policies.base import PartitioningPolicy
from repro.policies.qos_parties import QosPartiesPolicy
from repro.policies.static import EqualPartitionPolicy
from repro.qos.slo import SLOSpec
from repro.resources.types import ResourceCatalog
from repro.rng import SeedLike, make_rng, spawn_rng
from repro.experiments.comparison import full_space
from repro.experiments.reporting import format_table
from repro.experiments.runner import RunConfig, run_policy, experiment_catalog
from repro.workloads.arrivals import ArrivalTrace, diurnal_trace, flash_crowd_trace
from repro.workloads.latency_critical import latency_critical_suite
from repro.workloads.mixes import JobMix


@dataclass(frozen=True)
class QosPolicyResult:
    """QoS and throughput outcomes for one policy."""

    policy_name: str
    qos_satisfaction: float  # fraction of (job, interval) pairs meeting QoS
    worst_job_satisfaction: float
    mean_total_ips: float


@dataclass(frozen=True)
class QosComparison:
    """All policies on the LC mix."""

    mix_label: str
    results: Dict[str, QosPolicyResult]

    def result(self, name: str) -> QosPolicyResult:
        return self.results[name]


def qos_colocation(
    run_config: Optional[RunConfig] = None,
    seed: SeedLike = 0,
) -> QosComparison:
    """Run QoS-PARTIES, SATORI, and an equal split on the LC suite."""
    catalog = experiment_catalog()
    jobs = list(latency_critical_suite())
    run_config = run_config or RunConfig(duration_s=15.0)
    rng = make_rng(seed)

    mix = JobMix(tuple(job.workload for job in jobs))
    space = full_space(catalog, len(mix))
    policies: Dict[str, PartitioningPolicy] = {
        "QoS-PARTIES": QosPartiesPolicy(space, jobs),
        "SATORI": SatoriController(space, rng=spawn_rng(rng)),
        "Equal Partition": EqualPartitionPolicy(space),
    }

    results: Dict[str, QosPolicyResult] = {}
    for name, policy in policies.items():
        run = run_policy(policy, mix, catalog, run_config, seed=spawn_rng(rng))
        satisfied = np.zeros(len(jobs))
        intervals = 0
        total_ips = []
        for record in run.scored.records:
            for j, job in enumerate(jobs):
                satisfied[j] += job.meets_qos(record.ips[j], record.time_s)
            intervals += 1
            total_ips.append(sum(record.ips))
        per_job = satisfied / max(intervals, 1)
        results[name] = QosPolicyResult(
            policy_name=name,
            qos_satisfaction=float(per_job.mean()),
            worst_job_satisfaction=float(per_job.min()),
            mean_total_ips=float(np.mean(total_ips)),
        )
    return QosComparison(mix_label=mix.label, results=results)


# ---------------------------------------------------------------------------
# Cluster-level SLO sweep (``python -m repro qos``)
# ---------------------------------------------------------------------------

#: Trace shapes the sweep pairs across policies.
QOS_TRACE_SHAPES: Tuple[str, ...] = ("flash_crowd", "diurnal")

#: Partitioning policies the default sweep compares (registry ids).
DEFAULT_QOS_POLICIES: Tuple[str, ...] = ("SATORI", "BoPF", "QoSPARTIES")

#: The benchmark SLO. The floor sits below the equalization point of
#: typical 3-job co-locations (fair share at 8 units lands near 0.66),
#: so it is *feasible* for a guarantee-phase policy to hold — a floor
#: at or above the fair point turns attainment into threshold noise.
DEFAULT_QOS_SLO = SLOSpec(min_speedup=0.55, window=2, attain_target=0.75)


def qos_trace(
    shape: str,
    n_epochs: int = 8,
    qos_fraction: float = 0.25,
    seed: SeedLike = 0,
) -> ArrivalTrace:
    """One sweep trace: a pure function of ``(shape, qos_fraction, seed)``.

    PARSEC arrivals join three initial jobs, at most nine resident, each
    staying 5 epochs on average. ``flash_crowd`` runs quiet (rate 0.8),
    spikes to 3.5 arrivals per epoch over epochs [2, 4) — the surge
    lands *after* warm-started controllers have drained their probe
    phases, which is what makes the guarantee phase's reaction
    visible. ``diurnal`` sweeps a raised-cosine rate from 0.8 up to 3.5
    and back over the trace.
    """
    common = dict(
        n_epochs=n_epochs,
        mean_residency=5.0,
        max_jobs=9,
        suites=("parsec",),
        seed=seed,
        initial_jobs=3,
        qos_fraction=qos_fraction,
    )
    if shape == "flash_crowd":
        return flash_crowd_trace(
            base_rate=0.8, burst_rate=3.5, burst_epoch=2, burst_duration=2, **common
        )
    if shape == "diurnal":
        return diurnal_trace(
            base_rate=0.8, peak_rate=3.5, period_epochs=n_epochs, **common
        )
    raise ExperimentError(
        f"unknown trace shape {shape!r}; shapes: {list(QOS_TRACE_SHAPES)}"
    )


@dataclass(frozen=True)
class QosCell:
    """One (shape, qos_fraction, trace seed, policy) run of the sweep."""

    shape: str
    policy: str
    qos_fraction: float
    trace_seed: int
    attainment: float
    miss_rate: float
    fairness: float  # disruption-adjusted: lost jobs count as 0.0 speedup
    throughput: float
    qos_jobs: int
    misses: int

    def to_dict(self) -> Dict:
        return {
            "shape": self.shape,
            "policy": self.policy,
            "qos_fraction": self.qos_fraction,
            "trace_seed": self.trace_seed,
            "attainment": self.attainment,
            "miss_rate": self.miss_rate,
            "fairness": self.fairness,
            "throughput": self.throughput,
            "qos_jobs": self.qos_jobs,
            "misses": self.misses,
        }


@dataclass(frozen=True)
class QosSweepReport:
    """The paired SLO sweep over every (shape x qos_fraction x policy) cell."""

    slo: SLOSpec
    n_nodes: int
    n_epochs: int
    epoch_seconds: float
    shapes: Tuple[str, ...]
    policies: Tuple[str, ...]
    qos_fractions: Tuple[float, ...]
    trace_seeds: Tuple[int, ...]
    cells: Tuple[QosCell, ...] = field(default_factory=tuple)

    def cells_for(
        self,
        shape: Optional[str] = None,
        policy: Optional[str] = None,
        qos_fraction: Optional[float] = None,
    ) -> Tuple[QosCell, ...]:
        return tuple(
            cell
            for cell in self.cells
            if (shape is None or cell.shape == shape)
            and (policy is None or cell.policy == policy)
            and (qos_fraction is None or cell.qos_fraction == qos_fraction)
        )

    def attainment(self, shape: str, policy: str) -> float:
        """Mean SLO attainment over the shape's (fraction, seed) cells."""
        cells = self.cells_for(shape=shape, policy=policy)
        if not cells:
            raise ExperimentError(f"no cells for ({shape!r}, {policy!r})")
        return float(np.mean([cell.attainment for cell in cells]))

    def fairness(self, shape: str, policy: str) -> float:
        """Mean disruption-adjusted fairness over the shape's cells."""
        cells = self.cells_for(shape=shape, policy=policy)
        if not cells:
            raise ExperimentError(f"no cells for ({shape!r}, {policy!r})")
        return float(np.mean([cell.fairness for cell in cells]))

    def attainment_delta(self, shape: str, policy: str) -> float:
        """``policy``'s attainment gain over plain SATORI on one shape."""
        return self.attainment(shape, policy) - self.attainment(shape, "SATORI")

    def fairness_delta(self, shape: str, policy: str) -> float:
        """``policy``'s adjusted-fairness change vs plain SATORI."""
        return self.fairness(shape, policy) - self.fairness(shape, "SATORI")

    def to_dict(self) -> Dict:
        shapes = {
            shape: {
                policy: {
                    "attainment": self.attainment(shape, policy),
                    "fairness": self.fairness(shape, policy),
                    "attainment_delta_vs_satori": (
                        self.attainment_delta(shape, policy)
                        if "SATORI" in self.policies
                        else None
                    ),
                    "fairness_delta_vs_satori": (
                        self.fairness_delta(shape, policy)
                        if "SATORI" in self.policies
                        else None
                    ),
                }
                for policy in self.policies
            }
            for shape in self.shapes
        }
        return {
            "slo": self.slo.to_dict(),
            "n_nodes": self.n_nodes,
            "n_epochs": self.n_epochs,
            "epoch_seconds": self.epoch_seconds,
            "qos_fractions": list(self.qos_fractions),
            "trace_seeds": list(self.trace_seeds),
            "shapes": shapes,
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def summary(self) -> str:
        rows = []
        for shape in self.shapes:
            for policy in self.policies:
                cells = self.cells_for(shape=shape, policy=policy)
                per_seed = ", ".join(f"{cell.attainment:.2f}" for cell in cells)
                rows.append([
                    shape,
                    policy,
                    f"{self.attainment(shape, policy):.3f}",
                    f"{self.fairness(shape, policy):.3f}",
                    f"{np.mean([c.miss_rate for c in cells]):.3f}",
                    f"{np.mean([c.throughput for c in cells]):.3f}",
                    per_seed,
                ])
        lines = [
            format_table(
                ["shape", "policy", "SLO attainment", "adj fairness",
                 "miss rate", "throughput", "per-cell attainment"],
                rows,
                title=(
                    f"SLO sweep: floor {self.slo.min_speedup:g}, "
                    f"{self.n_nodes} nodes, {self.n_epochs} epochs x "
                    f"{self.epoch_seconds:g}s, qos_fraction "
                    f"{list(self.qos_fractions)}, trace seeds "
                    f"{list(self.trace_seeds)}:"
                ),
            )
        ]
        if "SATORI" in self.policies:
            delta_rows = [
                [shape, policy,
                 f"{self.attainment_delta(shape, policy):+.3f}",
                 f"{self.fairness_delta(shape, policy):+.3f}"]
                for shape in self.shapes
                for policy in self.policies
                if policy != "SATORI"
            ]
            lines.append("")
            lines.append(
                format_table(
                    ["shape", "policy", "Δ attainment", "Δ adj fairness"],
                    delta_rows,
                    title="paired deltas vs plain SATORI (same traces, "
                          "same node-epoch seeds):",
                )
            )
        return "\n".join(lines)


def qos_sweep(
    shapes: Sequence[str] = QOS_TRACE_SHAPES,
    policies: Sequence[str] = DEFAULT_QOS_POLICIES,
    qos_fractions: Sequence[float] = (0.25,),
    trace_seeds: Sequence[int] = (0, 1, 2),
    n_nodes: int = 3,
    n_epochs: int = 8,
    slo: Optional[SLOSpec] = None,
    catalog: Optional[ResourceCatalog] = None,
    epoch_config: Optional[RunConfig] = None,
    placement: str = "slo_aware",
    warm_start: bool = True,
    engine: Optional[ExecutionEngine] = None,
) -> QosSweepReport:
    """Run the paired cluster SLO sweep.

    Pairing: the trace is a pure function of ``(shape, qos_fraction,
    trace_seed)`` and the simulator seed of ``trace_seed + 10``,
    both shared verbatim across policies — every policy faces identical
    arrivals, placements epochs, and node-epoch noise, so the
    attainment/fairness gaps are the policies' doing.

    Warm starts are on by default: BoPF's guarantee phase needs
    controllers that outlive their probe phase, and carrying state
    across membership-stable epochs is what gives the flash-crowd's
    post-burst epochs a trained model to tilt.
    """
    from repro.cluster.simulator import ClusterSimulator
    from repro.experiments.chaos import adjusted_epoch_fairness

    if not shapes:
        raise ExperimentError("need at least one trace shape")
    if not policies:
        raise ExperimentError("need at least one policy")
    if not qos_fractions:
        raise ExperimentError("need at least one qos_fraction")
    if not trace_seeds:
        raise ExperimentError("need at least one trace seed")
    slo = slo or DEFAULT_QOS_SLO
    catalog = catalog or experiment_catalog()
    epoch_config = epoch_config or RunConfig(duration_s=4.0)
    engine = engine or ExecutionEngine()

    cells: List[QosCell] = []
    for shape in shapes:
        for qos_fraction in qos_fractions:
            for trace_seed in trace_seeds:
                trace = qos_trace(
                    shape,
                    n_epochs=n_epochs,
                    qos_fraction=qos_fraction,
                    seed=trace_seed,
                )
                for policy in policies:
                    simulator = ClusterSimulator(
                        trace,
                        n_nodes=n_nodes,
                        placement=placement,
                        policy=policy,
                        catalog=catalog,
                        epoch_config=epoch_config,
                        seed=trace_seed + 10,
                        warm_start=warm_start,
                        qos_slo=slo,
                        engine=engine,
                    )
                    result = simulator.run()
                    adjusted = [
                        value
                        for value in adjusted_epoch_fairness(result, trace).values()
                        if value == value  # skip NaN (empty) epochs
                    ]
                    cells.append(
                        QosCell(
                            shape=shape,
                            policy=policy,
                            qos_fraction=qos_fraction,
                            trace_seed=trace_seed,
                            attainment=result.qos_attainment(),
                            miss_rate=result.qos_miss_rate(),
                            fairness=(
                                float(np.mean(adjusted)) if adjusted else 1.0
                            ),
                            throughput=result.throughput,
                            qos_jobs=(
                                result.slo.qos_jobs if result.slo is not None else 0
                            ),
                            misses=(
                                len(result.slo.misses) if result.slo is not None else 0
                            ),
                        )
                    )
    return QosSweepReport(
        slo=slo,
        n_nodes=n_nodes,
        n_epochs=n_epochs,
        epoch_seconds=epoch_config.duration_s,
        shapes=tuple(shapes),
        policies=tuple(policies),
        qos_fractions=tuple(float(f) for f in qos_fractions),
        trace_seeds=tuple(int(s) for s in trace_seeds),
        cells=tuple(cells),
    )
