"""Cluster experiment: placement x partitioning-policy x broker sweep.

The fleet-level analogue of the comparison driver: replay *one* job
arrival trace against every (placement policy x partitioning policy x
budget broker) cell and compare cluster-wide throughput, long-term
fairness and SLO attainment. Everything that is *environment* — the
trace, per-node fault plans, node-epoch seeds — is shared verbatim
across cells, so observed differences are attributable to the
policies, not to workload or fault luck.

The broker axis defaults to ``(None,)``: fixed per-node budgets, no
broker. ``static`` is the control for a broker study: it never moves
a unit, so its cell is bit-identical to the fixed-budget fleet, and
:meth:`ClusterSweepResult.deltas_vs_static` pairs every other broker
against it per job (the same trace routes the same jobs, so each job
is its own control) — what did moving budget units actually buy?

Fault pairing: when ``fault_intensity > 0``, every *even-numbered*
node gets the same :func:`~repro.experiments.resilience.moderate_fault_plan`
(over the middle third of each node-epoch) while odd nodes stay clean.
Keying plans by node id — rather than by the jobs that happen to land
there — is what keeps the fault environment identical across placement
cells: a placement policy that routes jobs away from faulty nodes is
*supposed* to look better, and this design makes that effect visible
instead of confounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import PairedDelta, paired_deltas
from repro.cluster.budget import BudgetLike
from repro.cluster.simulator import ClusterResult, ClusterSimulator, MigrationConfig
from repro.engine import ExecutionEngine
from repro.errors import ClusterError, ExperimentError
from repro.experiments.resilience import moderate_fault_plan
from repro.experiments.runner import RunConfig, experiment_catalog
from repro.faults.plan import FaultPlan
from repro.resources.types import ResourceCatalog
from repro.workloads.arrivals import ArrivalTrace, poisson_trace

#: Placement policies the default sweep compares.
DEFAULT_PLACEMENTS: Tuple[str, ...] = ("round_robin", "contention_aware")

#: Partitioning policies the default sweep compares (registry ids).
DEFAULT_CLUSTER_POLICIES: Tuple[str, ...] = ("SATORI", "EqualPartition")


def node_fault_plans(
    n_nodes: int, intensity: float, epoch_duration_s: float
) -> Dict[int, FaultPlan]:
    """Paired per-node fault plans: even-numbered nodes are faulty.

    Returns an empty mapping at intensity 0. The mapping is a pure
    function of ``(n_nodes, intensity, epoch_duration_s)``, never of
    placements or traces, so every sweep cell faces the same faulty
    fleet.
    """
    plan = moderate_fault_plan(intensity, epoch_duration_s)
    if plan is None:
        return {}
    return {node_id: plan for node_id in range(0, n_nodes, 2)}


@dataclass(frozen=True)
class ClusterCell:
    """One (placement, partitioning policy, broker) cell of the sweep.

    ``broker`` is the broker registry id, or ``None`` for fixed budgets.
    """

    placement: str
    policy: str
    result: ClusterResult
    broker: Optional[str] = None


@dataclass(frozen=True)
class BrokerDelta:
    """One brokered cell's paired comparison against its static control.

    Attributes:
        broker / placement / policy: the treatment cell's coordinates.
        speedup: per-job paired speedup deltas (treatment - control),
            with a confidence interval on the mean difference.
        fairness_delta: cluster fairness (Jain over per-job means),
            treatment minus control.
        throughput_delta: cluster mean speedup, treatment minus control.
        slo_delta: SLO attainment fraction, treatment minus control.
        budget_transfers: units the treatment broker moved in total.
    """

    broker: str
    placement: str
    policy: str
    speedup: PairedDelta
    fairness_delta: float
    throughput_delta: float
    slo_delta: float
    budget_transfers: int


@dataclass(frozen=True)
class ClusterSweepResult:
    """The full sweep over one shared arrival trace."""

    n_nodes: int
    n_epochs: int
    n_jobs: int
    peak_jobs: int
    cells: Tuple[ClusterCell, ...]

    def cell(self, placement: str, policy: str, broker: Optional[str] = None) -> ClusterCell:
        for cell in self.cells:
            if (cell.placement, cell.policy, cell.broker) == (placement, policy, broker):
                return cell
        have = [(c.placement, c.policy, c.broker) for c in self.cells]
        raise ClusterError(f"no cell ({placement!r}, {policy!r}, {broker!r}); have {have}")

    def _axis(self, name: str) -> tuple:
        return tuple(dict.fromkeys(getattr(cell, name) for cell in self.cells))

    def placements(self) -> Tuple[str, ...]:
        return self._axis("placement")

    def policies(self) -> Tuple[str, ...]:
        return self._axis("policy")

    def brokers(self) -> Tuple[Optional[str], ...]:
        return self._axis("broker")

    def deltas_vs_static(self, slo_threshold: float = 0.8) -> List[BrokerDelta]:
        """Every brokered cell paired against the ``static`` control with
        the same placement and policy. Requires ``"static"`` in the sweep.

        Args:
            slo_threshold: per-job mean-speedup threshold for the SLO
                attainment delta (:meth:`ClusterResult.slo_attainment`).
        """
        deltas: List[BrokerDelta] = []
        for cell in self.cells:
            if cell.broker in (None, "static"):
                continue
            control = self.cell(cell.placement, cell.policy, "static")
            try:
                speedup = paired_deltas(
                    control.result.job_mean_speedups(),
                    cell.result.job_mean_speedups(),
                )
            except ExperimentError:
                continue  # too few paired jobs (tiny traces)
            deltas.append(
                BrokerDelta(
                    broker=cell.broker,
                    placement=cell.placement,
                    policy=cell.policy,
                    speedup=speedup,
                    fairness_delta=cell.result.fairness - control.result.fairness,
                    throughput_delta=(
                        cell.result.mean_speedup - control.result.mean_speedup
                    ),
                    slo_delta=(
                        cell.result.slo_attainment(slo_threshold)
                        - control.result.slo_attainment(slo_threshold)
                    ),
                    budget_transfers=cell.result.budget_transfers,
                )
            )
        return deltas


def cluster_sweep(
    trace: ArrivalTrace,
    n_nodes: int,
    placements: Sequence[str] = DEFAULT_PLACEMENTS,
    policies: Sequence[str] = DEFAULT_CLUSTER_POLICIES,
    catalog: Optional[ResourceCatalog] = None,
    epoch_config: Optional[RunConfig] = None,
    seed: int = 0,
    fault_intensity: float = 0.0,
    migration: Optional[MigrationConfig] = None,
    node_budgets: Optional[Sequence[BudgetLike]] = None,
    engine: Optional[ExecutionEngine] = None,
    warm_start: bool = False,
    brokers: Sequence[Optional[str]] = (None,),
) -> ClusterSweepResult:
    """Run every (placement x policy x broker) cell over one shared trace.

    Cells run placement-major, then policy, then broker.

    Args:
        trace: the arrival trace, shared verbatim by every cell.
        n_nodes: fleet size.
        placements: placement-policy registry ids to compare.
        policies: partitioning-policy registry ids to compare.
        catalog: per-node catalog (homogeneous fleet).
        epoch_config: node-epoch methodology; ``duration_s`` is the
            epoch length.
        seed: cluster base seed (node-epoch seeds derive from it and
            node/epoch coordinates, pairing noise across cells).
        fault_intensity: intensity for :func:`node_fault_plans`;
            0 disables fault injection.
        migration: optional migration policy applied in every cell.
        node_budgets: optional per-node initial budgets (heterogeneous
            fleets) — every cell starts from the same budgets; see
            :class:`~repro.cluster.simulator.ClusterSimulator`.
        engine: shared execution engine — one engine across all cells
            lets the run cache deduplicate node-epochs that different
            placements happen to produce identically.
        warm_start: warm-start membership-stable node controllers from
            their prior-epoch snapshots in every cell (see
            :class:`~repro.cluster.simulator.ClusterSimulator`).
        brokers: broker-scheme registry ids to compare, ``None`` for
            fixed budgets; include ``"static"`` to enable
            :meth:`ClusterSweepResult.deltas_vs_static`.
    """
    if not placements:
        raise ClusterError("need at least one placement policy")
    if not policies:
        raise ClusterError("need at least one partitioning policy")
    if not brokers:
        raise ClusterError("need at least one broker scheme (None for fixed budgets)")
    if any(broker is not None for broker in brokers):
        # Lazy, as in ClusterSimulator: fixed-budget sweeps never load
        # the broker package.
        from repro.broker import broker_names

        unknown = set(brokers) - set(broker_names()) - {None}
        if unknown:
            raise ClusterError(
                f"unknown broker scheme(s) {sorted(unknown)}; "
                f"registered: {', '.join(broker_names())}"
            )
    catalog = catalog or experiment_catalog()
    epoch_config = epoch_config or RunConfig(duration_s=5.0)
    engine = engine or ExecutionEngine()
    plans = node_fault_plans(n_nodes, fault_intensity, epoch_config.duration_s)

    cells: List[ClusterCell] = []
    for placement in placements:
        for policy in policies:
            for broker in brokers:
                simulator = ClusterSimulator(
                    trace,
                    n_nodes=n_nodes,
                    placement=placement,  # fresh instance per cell (stateful)
                    policy=policy,
                    catalog=catalog,
                    epoch_config=epoch_config,
                    seed=seed,
                    node_fault_plans=plans,
                    migration=migration,
                    node_budgets=node_budgets,
                    broker=broker,  # fresh instance per cell (stateful)
                    engine=engine,
                    warm_start=warm_start,
                )
                cells.append(ClusterCell(placement, policy, simulator.run(), broker))
    return ClusterSweepResult(
        n_nodes=n_nodes,
        n_epochs=trace.n_epochs,
        n_jobs=len(trace),
        peak_jobs=trace.peak_jobs,
        cells=tuple(cells),
    )


def default_trace(
    n_epochs: int,
    n_nodes: int,
    arrival_rate: float = 1.5,
    mean_residency: float = 3.0,
    suite: str = "parsec",
    seed: int = 0,
    catalog: Optional[ResourceCatalog] = None,
    qos_fraction: float = 0.0,
) -> ArrivalTrace:
    """A sweep-ready trace sized to the fleet.

    Starts warm (one resident job per node) and admission-controls the
    Poisson stream at the fleet's physical capacity so placement — not
    blanket rejection — decides outcomes. ``qos_fraction`` tags that
    share of arrivals ``"qos"``; the default 0 draws no extra RNG and
    reproduces historical traces bit-for-bit.
    """
    catalog = catalog or experiment_catalog()
    capacity = min(resource.units // resource.min_units for resource in catalog)
    return poisson_trace(
        n_epochs=n_epochs,
        arrival_rate=arrival_rate,
        mean_residency=mean_residency,
        max_jobs=n_nodes * capacity,
        suites=(suite,),
        seed=seed,
        initial_jobs=n_nodes,
        qos_fraction=qos_fraction,
    )
