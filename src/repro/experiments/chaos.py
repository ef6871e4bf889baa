"""Chaos experiment: paired recovery-vs-ablation sweep under fleet weather.

The fleet-level analogue of the resilience experiment: replay *one*
arrival trace under *one* realized fleet-weather timeline (node
crashes, blackouts, stragglers — :mod:`repro.faults.nodes`) twice,
once with the supervised recovery protocol
(:class:`~repro.cluster.RecoveryConfig`) and once with recovery
disabled, and report what the mechanism buys: jobs lost, re-placement
latency, fairness-recovery intervals after each disruption, and the
budget-conservation audit.

Weather pairing is structural, not aspirational: the simulator
realizes each node's :class:`~repro.faults.nodes.NodeFaultSchedule`
from ``derive_seed(seed, "fleet", node_id)`` — a function of the
cluster seed and node id only — so both arms face bit-identical
disruptions and every difference in the report is attributable to the
recovery protocol.

Fairness accounting is *disruption-adjusted*: a job lost to a crash
counts as speedup 0.0 for every epoch it would still have been
resident. Without this, the ablation would look spuriously fair —
killing a job removes it from the surviving-jobs Jain index entirely,
rewarding the arm that loses the most work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster import (
    EVT_JOB_LOST,
    EVT_NODE_DOWN,
    EVT_NODE_QUARANTINED,
    ClusterResult,
    ClusterSimulator,
    RecoveryConfig,
    pool_totals,
)
from repro.engine import ExecutionEngine
from repro.errors import ClusterError
from repro.experiments.runner import RunConfig, experiment_catalog
from repro.faults.nodes import NodeFaultPlan
from repro.metrics.fairness import jain_index
from repro.resources.types import ResourceCatalog
from repro.workloads.arrivals import ArrivalTrace

#: Fairness must regain this fraction of its pre-disruption baseline
#: for an epoch to count as "recovered".
RECOVERY_FRACTION = 0.95


def chaos_fleet_plans(
    n_nodes: int,
    n_epochs: int,
    crash_node: int = 0,
    crash_epoch: Optional[int] = None,
    outage_epochs: Optional[int] = None,
    straggler_node: Optional[int] = None,
    straggler_slowdown: float = 2.0,
) -> Dict[int, NodeFaultPlan]:
    """Deterministic mid-trace disruption plans sized to the trace.

    The crash is a transient blackout (down for ``outage_epochs``,
    then rejoin) rather than a permanent loss, so the before/after
    budget-conservation comparison is meaningful: after the rejoin the
    whole pool is live again and its totals must match construction
    bit-exactly. Defaults put the crash a third of the way in and size
    the outage to a quarter of the trace, clamped so the rejoin lands
    inside the horizon.

    Args:
        n_nodes: fleet size (used only for validation).
        n_epochs: trace horizon the plans must fit inside.
        crash_node: which node crashes.
        crash_epoch: when; default ``n_epochs // 3``.
        outage_epochs: blackout length; default ``max(2, n_epochs // 4)``,
            clamped so ``crash_epoch + outage_epochs <= n_epochs``.
        straggler_node: optional second node that stochastically
            straggles at ``straggler_slowdown`` throughout the trace.
        straggler_slowdown: slowdown factor for the straggler node.
    """
    if not 0 <= crash_node < n_nodes:
        raise ClusterError(
            f"crash_node {crash_node} outside fleet of {n_nodes} node(s)"
        )
    if crash_epoch is None:
        crash_epoch = max(1, n_epochs // 3)
    if not 0 <= crash_epoch < n_epochs:
        raise ClusterError(
            f"crash_epoch {crash_epoch} outside the {n_epochs}-epoch trace"
        )
    if outage_epochs is None:
        outage_epochs = max(2, n_epochs // 4)
    outage_epochs = max(1, min(outage_epochs, n_epochs - crash_epoch))
    plans = {
        crash_node: NodeFaultPlan(
            crash_epoch=crash_epoch, crash_rejoin_epochs=outage_epochs
        )
    }
    if straggler_node is not None:
        if not 0 <= straggler_node < n_nodes:
            raise ClusterError(
                f"straggler_node {straggler_node} outside fleet of "
                f"{n_nodes} node(s)"
            )
        if straggler_node == crash_node:
            raise ClusterError("straggler_node must differ from crash_node")
        plans[straggler_node] = NodeFaultPlan(
            straggler_rate=0.3,
            straggler_epochs=1,
            straggler_slowdown=straggler_slowdown,
        )
    return plans


def adjusted_epoch_fairness(
    result: ClusterResult, trace: ArrivalTrace
) -> Dict[int, float]:
    """Per-epoch Jain fairness with lost jobs counted as speedup 0.0.

    A lost job contributes 0.0 from the epoch it was lost through the
    end of its planned residency — the honest cost of losing it, where
    the raw surviving-jobs index would silently forgive the loss.
    """
    lost_at: Dict[int, int] = {}
    for event in result.fleet_events:
        if event.kind == EVT_JOB_LOST and event.job_id not in lost_at:
            lost_at[event.job_id] = event.epoch
    residency = {job.job_id: job for job in trace.jobs}
    fairness: Dict[int, float] = {}
    for epoch in range(result.n_epochs):
        values: List[float] = []
        for record in result.records:
            if record.epoch == epoch:
                values.extend(record.job_speedups.values())
        for job_id, lost_epoch in lost_at.items():
            job = residency.get(job_id)
            if job is None or epoch < lost_epoch:
                continue
            if job.resident_at(epoch):
                values.append(0.0)
        fairness[epoch] = jain_index(values) if values else float("nan")
    return fairness


def recovery_intervals(
    fairness: Dict[int, float],
    disruption_epochs: Tuple[int, ...],
) -> Dict[int, Optional[int]]:
    """Epochs until fairness regained ``RECOVERY_FRACTION`` of its baseline.

    The baseline is mean fairness over the epochs before the *first*
    disruption (1.0 for a disruption at epoch 0). For each disruption
    epoch ``d`` the value is the smallest ``k >= 0`` with
    ``fairness[d + k] >= RECOVERY_FRACTION * baseline``, or ``None`` if the
    trace ends first — an unrecovered disruption is reported as such,
    not clamped to the horizon.
    """
    if not disruption_epochs:
        return {}
    first = min(disruption_epochs)
    before = [
        value
        for epoch, value in fairness.items()
        if epoch < first and value == value  # skip NaN epochs
    ]
    baseline = sum(before) / len(before) if before else 1.0
    out: Dict[int, Optional[int]] = {}
    for d in sorted(disruption_epochs):
        out[d] = None
        for epoch in sorted(fairness):
            if epoch < d:
                continue
            value = fairness[epoch]
            if value == value and value >= RECOVERY_FRACTION * baseline:
                out[d] = epoch - d
                break
    return out


@dataclass(frozen=True)
class ChaosArm:
    """One arm of the paired sweep (recovery on or off).

    Attributes:
        name: ``"recovery"`` or ``"no_recovery"``.
        result: the full cluster result.
        fairness: disruption-adjusted mean fairness over the trace.
        epoch_fairness: disruption-adjusted per-epoch fairness.
        recovery_intervals: disruption epoch → epochs until fairness
            recovered (``None`` = never within the trace).
        replacement_latency_epochs: mean epochs a displaced job waited
            before re-placement (0.0 when nothing was displaced).
        pool_conserved: live + parked budget totals matched the
            construction-time pool after the run (the simulator also
            audits this every epoch and raises on a leak).
    """

    name: str
    result: ClusterResult
    fairness: float
    epoch_fairness: Dict[int, float]
    recovery_intervals: Dict[int, Optional[int]]
    replacement_latency_epochs: float
    pool_conserved: bool

    @property
    def jobs_lost(self) -> int:
        return len(self.result.jobs_lost)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "jobs_lost": self.jobs_lost,
            "lost_job_ids": list(self.result.jobs_lost),
            "fairness": self.fairness,
            "throughput": self.result.throughput,
            "replacements": self.result.replacements,
            "resurrections": self.result.resurrections,
            "node_downs": self.result.node_downs,
            "node_rejoins": self.result.node_rejoins,
            "quarantines": self.result.quarantines,
            "node_epoch_failures": self.result.node_epoch_failures,
            "replacement_latency_epochs": self.replacement_latency_epochs,
            "recovery_intervals": {
                str(epoch): intervals
                for epoch, intervals in self.recovery_intervals.items()
            },
            "pool_conserved": self.pool_conserved,
            "epoch_fairness": {
                str(epoch): value
                for epoch, value in self.epoch_fairness.items()
            },
        }


@dataclass(frozen=True)
class ChaosReport:
    """The paired chaos sweep: identical weather, recovery on vs off."""

    n_nodes: int
    n_epochs: int
    seed: int
    placement: str
    policy: str
    disruption_epochs: Tuple[int, ...]
    recovery: ChaosArm
    ablation: ChaosArm

    @property
    def arms(self) -> Tuple[ChaosArm, ChaosArm]:
        return (self.recovery, self.ablation)

    def to_dict(self) -> dict:
        return {
            "n_nodes": self.n_nodes,
            "n_epochs": self.n_epochs,
            "seed": self.seed,
            "placement": self.placement,
            "policy": self.policy,
            "disruption_epochs": list(self.disruption_epochs),
            "arms": {arm.name: arm.to_dict() for arm in self.arms},
        }

    def summary(self) -> str:
        lines = [
            f"chaos sweep: {self.n_nodes} node(s), {self.n_epochs} epoch(s), "
            f"{self.placement}/{self.policy}, "
            f"disruptions at {list(self.disruption_epochs)}",
        ]
        for arm in self.arms:
            intervals = ", ".join(
                f"epoch {epoch}: "
                + ("never" if k is None else f"{k} epoch(s)")
                for epoch, k in sorted(arm.recovery_intervals.items())
            ) or "n/a"
            lines.append(
                f"  {arm.name:<12} jobs lost {arm.jobs_lost}, "
                f"fairness {arm.fairness:.4f}, "
                f"replacements {arm.result.replacements} "
                f"(latency {arm.replacement_latency_epochs:.2f} epochs), "
                f"resurrections {arm.result.resurrections}, "
                f"pool conserved {arm.pool_conserved}; "
                f"recovery: {intervals}"
            )
        return "\n".join(lines)


def _run_arm(
    name: str,
    trace: ArrivalTrace,
    n_nodes: int,
    fleet_plans: Dict[int, NodeFaultPlan],
    placement: str,
    policy: str,
    catalog: ResourceCatalog,
    epoch_config: RunConfig,
    seed: int,
    recovery: Optional[RecoveryConfig],
    engine: ExecutionEngine,
) -> ChaosArm:
    simulator = ClusterSimulator(
        trace,
        n_nodes=n_nodes,
        placement=placement,  # fresh instance per arm (stateful)
        policy=policy,
        catalog=catalog,
        epoch_config=epoch_config,
        seed=seed,
        fleet_plans=fleet_plans,
        recovery=recovery,
        engine=engine,
    )
    result = simulator.run()
    totals = pool_totals(node.budget for node in simulator.nodes)
    fairness = adjusted_epoch_fairness(result, trace)
    disruptions = tuple(
        sorted(
            {
                event.epoch
                for event in result.fleet_events
                if event.kind in (EVT_NODE_DOWN, EVT_NODE_QUARANTINED)
            }
        )
    )
    values = [v for v in fairness.values() if v == v]
    latency = result.displaced_job_epochs / max(1, result.replacements)
    return ChaosArm(
        name=name,
        result=result,
        fairness=sum(values) / len(values) if values else float("nan"),
        epoch_fairness=fairness,
        recovery_intervals=recovery_intervals(fairness, disruptions),
        replacement_latency_epochs=float(latency),
        pool_conserved=totals == simulator.pool,
    )


def chaos_sweep(
    trace: ArrivalTrace,
    n_nodes: int,
    fleet_plans: Dict[int, NodeFaultPlan],
    placement: str = "least_loaded",
    policy: str = "SATORI",
    catalog: Optional[ResourceCatalog] = None,
    epoch_config: Optional[RunConfig] = None,
    seed: int = 0,
    recovery: Optional[RecoveryConfig] = None,
    engine: Optional[ExecutionEngine] = None,
) -> ChaosReport:
    """Run the paired sweep: recovery enabled vs the ablation.

    Both arms share the trace, the seed (hence node-epoch noise *and*
    realized fleet weather), the placement and partitioning policies,
    and the engine (so the run cache deduplicates any node-epochs the
    arms produce identically).

    Args:
        trace: the arrival trace, shared verbatim by both arms.
        n_nodes: fleet size.
        fleet_plans: node id → :class:`NodeFaultPlan` fleet weather
            (see :func:`chaos_fleet_plans`).
        placement / policy: registry ids used in both arms.
        catalog: per-node catalog (homogeneous fleet).
        epoch_config: node-epoch methodology.
        seed: cluster base seed.
        recovery: the recovery protocol for the recovery arm; defaults
            to :class:`RecoveryConfig` with a 1-epoch snapshot cadence.
        engine: shared execution engine.
    """
    if not fleet_plans:
        raise ClusterError("chaos sweep needs at least one fleet fault plan")
    catalog = catalog or experiment_catalog()
    epoch_config = epoch_config or RunConfig(duration_s=5.0)
    engine = engine or ExecutionEngine()
    recovery = recovery or RecoveryConfig()
    common = dict(
        trace=trace,
        n_nodes=n_nodes,
        fleet_plans=fleet_plans,
        placement=placement,
        policy=policy,
        catalog=catalog,
        epoch_config=epoch_config,
        seed=seed,
        engine=engine,
    )
    recovery_arm = _run_arm("recovery", recovery=recovery, **common)
    ablation_arm = _run_arm("no_recovery", recovery=None, **common)
    disruptions = tuple(
        sorted(
            set(recovery_arm.recovery_intervals) | set(ablation_arm.recovery_intervals)
        )
    )
    return ChaosReport(
        n_nodes=n_nodes,
        n_epochs=trace.n_epochs,
        seed=seed,
        placement=placement,
        policy=policy,
        disruption_epochs=disruptions,
        recovery=recovery_arm,
        ablation=ablation_arm,
    )
