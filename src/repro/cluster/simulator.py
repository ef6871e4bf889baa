"""The multi-node cluster simulator: placement epochs over a job trace.

:class:`ClusterSimulator` turns N single-server partitioning problems
plus a job arrival trace into one fleet-level experiment. Time is
discretized into *placement epochs*: within an epoch node membership
is fixed, so each node's epoch is exactly one single-server run —
described as a :class:`~repro.engine.RunSpec` and executed through the
:class:`~repro.engine.ExecutionEngine`. Node epochs are independent,
which is what lets them fan out across worker processes and hit the
content-addressed run cache like any other spec (two sweep cells that
route the same jobs to the same node at the same epoch share one run).

Epoch loop, in order (:meth:`ClusterSimulator.step_epoch` calls each
owner by name; "supervisor" is the
:class:`~repro.cluster.recovery.FleetSupervisor`, the one owner of
fleet state):

1. **fleet weather** (supervisor) — nodes whose down window ended
   rejoin (their parked budget returns to service); nodes whose
   :class:`~repro.faults.nodes.NodeFaultSchedule` takes them down are
   drained: resident jobs move to the re-placement queue (or are lost
   when recovery is disabled) and the node's budget is parked;
2. **departures** — jobs whose trace residency ends leave their node
   (or the re-placement queue);
3. **migration** (optional) — a node whose observed fairness stayed
   below the threshold for ``patience`` consecutive epochs evicts its
   worst-treated job to another node chosen by the placement policy;
4. **re-placement** (supervisor) — displaced jobs are re-placed by the
   placement policy *before* new arrivals (survivors outrank
   newcomers); once arrivals are in, a crashed node's checkpointed
   policy state is resurrected on the adopting node when its whole job
   group reassembles there;
5. **arrivals** — the placement policy routes each arriving job using
   :class:`~repro.cluster.placement.NodeView` summaries of the
   *previous* epoch's records (jobs with no free node anywhere are
   rejected and counted — an admission-controlled cluster);
6. **execution** — every live node with >= 2 resident jobs becomes one
   engine spec; nodes with 0 or 1 jobs are *synthesized* (an
   uncontended job retains its isolation performance: speedup,
   throughput and fairness scores of 1.0) rather than simulated; down
   nodes produce no record. Straggler weather scales a node-epoch's
   useful work by its slowdown factor — or fails it outright past the
   recovery deadline — and flaky weather overlays monitoring faults on
   the node's spec. The optional :class:`~repro.qos.SLOTracker` scores
   each record as it is built, and the supervisor checkpoints the
   controllers' snapshots on the recovery cadence;
7. **scoring** — per-node records feed the next epoch's node views and
   accumulate into cluster-wide metrics; the supervisor's circuit
   breaker quarantines nodes with ``failure_threshold`` consecutive
   failed epochs;
8. **brokering** (optional) — a :class:`~repro.broker.GlobalBroker`
   observes the scored records and reassigns each *live* node's
   elastic :class:`~repro.cluster.budget.ResourceBudget` for the
   next epoch; parked (down-node) budgets are outside its reach and
   the conserved pool is audited every epoch: live + parked totals
   must equal the construction-time pool, bit-exactly.
   The simulator re-validates every decision: per-resource unit totals
   must equal the initial pool (conservation) and no node may drop
   below the floor its resident jobs need (feasibility) — floors are
   computed on end-of-epoch residency, and the new budgets apply
   before the next epoch's arrivals, so a compliant decision can never
   strand a placed job.

Pairing across sweep cells: a node-epoch's seed is
``derive_seed(seed, "node", node_id, "epoch", epoch)`` — a function of
*where and when*, never of *which jobs landed there* — and fault plans
are keyed by node id. Two cells differing only in placement or
partitioning policy therefore present the same per-node noise/fault
environment. (Caveat: fault *realizations* draw from each spec's
environment digest, which includes the mix, so a placement that routes
different jobs to a node sees a different realization of the same
plan; the plan's windows and rates — the experiment design — stay
paired. DESIGN.md discusses this.)

Controller state is epoch-scoped by default: each node's policy
instance is reconstructed per spec inside the engine worker, so a
node's controller re-learns after every membership change. With
``warm_start=True`` a node still running the job membership and
effective catalog its held snapshot was learned under gets that
snapshot re-injected (via the spec's ``initial_state`` field, which
is part of the content address — warm node-epochs never collide with
cold ones in the run cache); membership changes still cold-start,
because a controller's model of the departed mix is stale by
construction, and so do broker transfers, because the learned
partitionings no longer fit the node's resources. Resurrection
applies the same rule to checkpoints.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.budget import (
    BudgetLike,
    ResourceBudget,
    coerce_budget,
    pool_totals,
)
from repro.cluster.node import ServerNode
from repro.cluster.placement import NodeView, PlacementPolicy, make_placement
from repro.cluster.recovery import (
    EVT_JOB_LOST,
    EVT_JOB_REPLACED,
    EVT_NODE_DOWN,
    EVT_NODE_EPOCH_FAILED,
    EVT_NODE_QUARANTINED,
    EVT_NODE_REJOINED,
    EVT_SESSION_RESURRECTED,
    FleetEvent,
    FleetSupervisor,
    RecoveryConfig,
)
from repro.engine import ExecutionEngine, RunError, RunSpec
from repro.errors import ClusterError
from repro.experiments.runner import RunConfig, RunResult, experiment_catalog
from repro.faults.nodes import NodeFaultPlan
from repro.faults.plan import FaultPlan
from repro.metrics.fairness import jain_index
from repro.obs import active_collector
from repro.policies.registry import policy_is_qos_aware
from repro.qos.slo import SLOSpec, SLOSummary, SLOTracker
from repro.resources.types import ResourceCatalog
from repro.rng import derive_seed
from repro.workloads.arrivals import KIND_QOS, ArrivalTrace


@dataclass(frozen=True)
class MigrationConfig:
    """When and how jobs migrate between nodes.

    A node triggers migration after its *observed* fairness (previous
    epoch's telemetry) stays below ``fairness_threshold`` for
    ``patience`` consecutive epochs; it then evicts the resident job
    with the lowest observed speedup to whichever other node the
    placement policy picks. This is deliberately conservative —
    sustained unfairness, not one bad epoch — because a migration
    resets the destination controller's learning.
    """

    fairness_threshold: float = 0.85
    patience: int = 2
    #: Control intervals of useful work a migrated job loses on its
    #: destination node (checkpoint transfer, page-cache refill, cold
    #: microarchitectural state), applied as a pro-rata scaling of its
    #: first-epoch speedup there. 0 keeps the historical free-migration
    #: behaviour.
    warmup_penalty_intervals: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.fairness_threshold <= 1.0:
            raise ClusterError(
                f"fairness_threshold must be in (0, 1], got {self.fairness_threshold}"
            )
        if self.patience < 1:
            raise ClusterError(f"patience must be >= 1, got {self.patience}")
        if self.warmup_penalty_intervals < 0:
            raise ClusterError(
                f"warmup_penalty_intervals must be >= 0, got {self.warmup_penalty_intervals}"
            )


@dataclass(frozen=True)
class NodeEpochRecord:
    """One node's outcome for one placement epoch.

    Attributes:
        epoch: placement epoch index.
        node_id: which node.
        job_ids: resident jobs during the epoch (id order).
        synthesized: ``True`` for 0/1-job epochs, which are not
            simulated — an uncontended job runs at its isolation
            performance by definition.
        throughput / fairness: the node's scored means for the epoch.
        job_speedups: per-job mean speedup over the epoch, keyed by
            job id (migration warm-up penalties, when configured, are
            already folded in).
        warm_started: the node's controller was warm-started from the
            previous epoch's snapshot (membership-stable node under
            ``warm_start=True``).
        fairness_series: per-interval fairness scores for the epoch
            (empty for synthesized epochs) — what warm-vs-cold
            comparisons use to measure intervals-to-recover.
        budget: the resource budget in force during the epoch (``None``
            only for records built by hand before the budget layer).
        capacity: jobs that budget could host — the occupancy
            denominator.
        failed: the node-epoch produced no useful work — an engine
            failure, or a straggler past the recovery deadline. Scores
            and speedups are 0.0 by construction.
        slowdown: straggler slowdown factor in force (1.0 = healthy);
            already folded into the scores.
        job_kinds: per-job type labels aligned with ``job_ids``
            (``"batch"`` / ``"qos"``); empty for records built before
            typed traces existed.
        slo_attained: per-qos-job SLO attainment for the epoch as
            ``(job_id, attainment)`` pairs in job-id order; empty when
            no SLO is active or the node hosts no qos jobs. Failed
            epochs score 0.0 (a crashed node delivers no service),
            synthesized ones 1.0 (an uncontended job cannot violate).
    """

    epoch: int
    node_id: int
    job_ids: Tuple[int, ...]
    synthesized: bool
    throughput: float
    fairness: float
    job_speedups: Dict[int, float] = field(default_factory=dict)
    warm_started: bool = False
    fairness_series: Tuple[float, ...] = ()
    budget: Optional[ResourceBudget] = None
    capacity: int = 0
    failed: bool = False
    slowdown: float = 1.0
    job_kinds: Tuple[str, ...] = ()
    slo_attained: Tuple[Tuple[int, float], ...] = ()

    @property
    def n_jobs(self) -> int:
        return len(self.job_ids)

    @property
    def mean_speedup(self) -> float:
        if not self.job_speedups:
            return 1.0
        return float(np.mean(list(self.job_speedups.values())))


def _trail_count(*kinds: str) -> property:
    """A :class:`ClusterResult` property counting its fleet events of ``kinds``."""
    return property(lambda self: sum(1 for e in self.fleet_events if e.kind in kinds))


@dataclass(frozen=True)
class ClusterResult:
    """A full cluster run: every node-epoch record plus event counts.

    Cluster-wide metrics aggregate *per-job mean speedups* — each
    job's speedup averaged over its resident epochs — because SATORI's
    fairness story is long-term: a job briefly squeezed during one
    epoch but compensated later should not drag the fleet's fairness
    the way a persistently starved job does.

    The fleet counts (``node_downs`` through ``jobs_lost``) are read
    off ``fleet_events``, the run's one fleet ledger.
    """

    n_nodes: int
    policy: str
    placement: str
    n_epochs: int
    records: Tuple[NodeEpochRecord, ...]
    rejected_jobs: Tuple[int, ...] = ()
    migrations: int = 0
    broker: str = "none"
    budget_transfers: int = 0
    #: Total epochs displaced jobs spent waiting in the re-placement
    #: queue (0 when every drained job was re-placed the same epoch).
    displaced_job_epochs: int = 0
    fleet_events: Tuple[FleetEvent, ...] = ()
    #: Aggregate SLO outcome when the run enforced one (``qos_slo``
    #: passed to the simulator and the trace carried qos jobs);
    #: ``None`` otherwise — existing runs are untouched.
    slo: Optional[SLOSummary] = None

    #: Nodes taken down, by fleet weather or by the circuit breaker.
    node_downs = _trail_count(EVT_NODE_DOWN, EVT_NODE_QUARANTINED)
    node_rejoins = _trail_count(EVT_NODE_REJOINED)
    replacements = _trail_count(EVT_JOB_REPLACED)
    resurrections = _trail_count(EVT_SESSION_RESURRECTED)
    quarantines = _trail_count(EVT_NODE_QUARANTINED)
    node_epoch_failures = _trail_count(EVT_NODE_EPOCH_FAILED)
    #: Jobs dropped by fleet disruption: drained with recovery disabled,
    #: or displaced past ``max_queue_epochs``. Distinct from
    #: ``rejected_jobs`` (admission control), which never entered.
    jobs_lost = property(
        lambda self: tuple(e.job_id for e in self.fleet_events if e.kind == EVT_JOB_LOST)
    )

    def epoch_fairness(self) -> Dict[int, float]:
        """Per-epoch Jain index over every resident job's speedup.

        The fleet-disruption view of fairness: unlike :attr:`fairness`
        (long-term, per-job means), this shows the transient dip a
        node crash causes and how many epochs the fleet needs to climb
        back — what chaos sweeps report as recovery intervals.
        """
        by_epoch: Dict[int, List[float]] = {}
        for record in self.records:
            by_epoch.setdefault(record.epoch, []).extend(
                record.job_speedups.values()
            )
        return {
            epoch: jain_index(values) if values else float("nan")
            for epoch, values in sorted(by_epoch.items())
        }

    def node_records(self, node_id: int) -> List[NodeEpochRecord]:
        """One node's records in epoch order."""
        return sorted(
            (r for r in self.records if r.node_id == node_id), key=lambda r: r.epoch
        )

    def job_mean_speedups(self) -> Dict[int, float]:
        """Each job's speedup averaged over its resident epochs."""
        sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for record in self.records:
            for job_id, speedup in record.job_speedups.items():
                sums[job_id] = sums.get(job_id, 0.0) + speedup
                counts[job_id] = counts.get(job_id, 0) + 1
        return {job_id: sums[job_id] / counts[job_id] for job_id in sums}

    @property
    def mean_speedup(self) -> float:
        """Mean of per-job mean speedups (cluster throughput proxy)."""
        per_job = self.job_mean_speedups()
        return float(np.mean(list(per_job.values()))) if per_job else float("nan")

    @property
    def fairness(self) -> float:
        """Jain index over per-job mean speedups (long-term fairness)."""
        per_job = self.job_mean_speedups()
        return jain_index(list(per_job.values())) if per_job else float("nan")

    @property
    def worst_job_speedup(self) -> float:
        per_job = self.job_mean_speedups()
        return float(min(per_job.values())) if per_job else float("nan")

    @property
    def p10_speedup(self) -> float:
        """10th-percentile per-job speedup (tail-of-fleet metric)."""
        per_job = self.job_mean_speedups()
        if not per_job:
            return float("nan")
        return float(np.percentile(list(per_job.values()), 10))

    @property
    def throughput(self) -> float:
        """Epoch-and-node mean of simulated throughput scores."""
        simulated = [r.throughput for r in self.records if not r.synthesized]
        if not simulated:
            return float("nan")
        return float(np.mean(simulated))

    def slo_attainment(self, threshold: float = 0.8) -> float:
        """Fraction of jobs whose long-term mean speedup meets ``threshold``.

        The cluster-level SLO proxy: a job "made its SLO" when, averaged
        over its resident epochs, it retained at least ``threshold`` of
        its isolation performance.
        """
        per_job = self.job_mean_speedups()
        if not per_job:
            return float("nan")
        met = sum(1 for speedup in per_job.values() if speedup >= threshold)
        return met / len(per_job)

    def qos_attainment(self) -> float:
        """Mean windowed SLO attainment over every scored qos job-epoch.

        The *enforced* SLO view (per-interval, against the run's
        :class:`~repro.qos.SLOSpec`), unlike :meth:`slo_attainment`
        which is a long-term mean-speedup proxy. ``NaN`` when the run
        had no active SLO.
        """
        if self.slo is None:
            return float("nan")
        return self.slo.attainment

    def qos_miss_rate(self) -> float:
        """Fraction of qos job-epochs below the attainment target.

        ``NaN`` when the run had no active SLO.
        """
        if self.slo is None:
            return float("nan")
        return self.slo.miss_rate

    def node_summary(
        self,
    ) -> List[Tuple[int, float, float, float, float, float]]:
        """Per-node ``(node_id, mean throughput, mean fairness, mean
        occupancy, mean budget units, budget occupancy)``.

        *Budget occupancy* is resident jobs over budget-supported
        capacity, averaged per epoch — 1.0 means the node's budget was
        exactly full, low values mean the broker left it slack. Both
        budget columns are 0.0 for hand-built records with no budget.
        """
        rows = []
        for node_id in sorted({r.node_id for r in self.records}):
            records = self.node_records(node_id)
            budgeted = [r for r in records if r.budget is not None]
            rows.append(
                (
                    node_id,
                    float(np.mean([r.throughput for r in records])),
                    float(np.mean([r.fairness for r in records])),
                    float(np.mean([r.n_jobs for r in records])),
                    float(np.mean([r.budget.total_units for r in budgeted]))
                    if budgeted
                    else 0.0,
                    float(
                        np.mean([r.n_jobs / r.capacity for r in budgeted if r.capacity])
                    )
                    if any(r.capacity for r in budgeted)
                    else 0.0,
                )
            )
        return rows


class ClusterSimulator:
    """N partitioned servers sharing one job arrival trace.

    Args:
        trace: the job arrival/departure trace (shared verbatim across
            sweep cells — arrivals are environment, not treatment).
        n_nodes: fleet size.
        placement: a placement policy instance or registry id
            (``"round_robin"``, ``"least_loaded"``,
            ``"contention_aware"``).
        policy: partitioning-policy factory id each node runs
            (``"SATORI"``, ``"EqualPartition"``, ...).
        catalog: every node's resource catalog; pass ``node_budgets``
            for a heterogeneous fleet.
        epoch_config: methodology knobs for one node-epoch;
            ``duration_s`` is the epoch length. ``phase_offset_s`` is
            overwritten per epoch to keep workload phases continuous
            across epoch boundaries.
        seed: cluster base seed; node-epoch seeds derive from it and
            the (node, epoch) coordinates only.
        node_fault_plans: optional ``node_id -> FaultPlan`` mapping
            (node-keyed so plans pair across placement cells). A
            plan's fault window must fit inside one node-epoch
            (``epoch_config.duration_s``); a window that outlives it
            raises :class:`~repro.errors.ClusterError` rather than
            silently truncating.
        fleet_plans: optional ``node_id -> NodeFaultPlan`` mapping —
            fleet weather (crashes, blackouts, stragglers, flaky
            telemetry) at placement-epoch granularity. Realized once
            per node from ``derive_seed(seed, "fleet", node_id)``, so
            every sweep arm sees identical weather. Deterministic
            windows that outlive the trace raise
            :class:`~repro.errors.ClusterError` naming the node.
        recovery: optional :class:`~repro.cluster.recovery.RecoveryConfig`
            enabling supervised recovery — drained jobs are re-placed
            instead of lost, policy state is checkpointed and
            resurrected, and the circuit breaker quarantines failing
            nodes. ``None`` (the ablation) drops drained jobs and
            disables the breaker.
        migration: optional :class:`MigrationConfig`; ``None`` disables
            job migration.
        node_capacity: cap on resident jobs per node; defaults to what
            each node's budget can physically partition.
        node_budgets: optional per-node initial budgets (heterogeneous
            fleets) — each entry a :class:`ResourceBudget`, a mapping of
            per-resource unit counts, or an ``int`` meaning that many
            units of every resource. Defaults to every node owning its
            catalog's full unit counts (the historical fixed-capacity
            fleet).
        broker: optional cluster-level budget broker — a
            :class:`~repro.broker.GlobalBroker` instance or registry id
            (``"static"``, ``"harvest"``, ``"trade"``, ``"bo"``).
            ``None`` disables brokering entirely; budgets then never
            move and records are bit-identical to a ``"static"``
            broker's.
        engine: execution engine that runs each epoch's node-epoch
            specs as one batch; defaults to a fresh serial engine.
        warm_start: re-inject each node's held policy snapshot whenever
            the node still runs the job membership and effective
            catalog the snapshot was learned under, so
            membership-stable controllers keep their learned state
            instead of re-learning from scratch. Membership or budget
            *changes* still cold-start (the controller's model of the
            old mix or resources is stale by construction). Off by
            default: warm-started node-epoch specs carry the previous
            epoch's state in their content address, which chains
            digests across epochs and reduces cache sharing between
            sweep cells.
        qos_slo: optional :class:`~repro.qos.SLOSpec` enforced for
            qos-kind jobs. When set, an :class:`~repro.qos.SLOTracker`
            scores every node-epoch's per-interval telemetry, records
            land in ``NodeEpochRecord.slo_attained`` /
            ``ClusterResult.slo``, a ``cluster.slo_misses`` counter is
            emitted, and qos-aware partitioning policies (``BoPF``,
            ``QoSPARTIES``) receive the node's qos slot indices and
            the floor via injected kwargs. ``None`` (the default)
            changes nothing — specs, RNG draws, and telemetry are
            bit-identical to a simulator without the feature.
    """

    def __init__(
        self,
        trace: ArrivalTrace,
        n_nodes: int,
        placement: Union[str, PlacementPolicy] = "round_robin",
        policy: str = "SATORI",
        catalog: Optional[ResourceCatalog] = None,
        epoch_config: Optional[RunConfig] = None,
        seed: int = 0,
        node_fault_plans: Optional[Mapping[int, FaultPlan]] = None,
        fleet_plans: Optional[Mapping[int, NodeFaultPlan]] = None,
        recovery: Optional[RecoveryConfig] = None,
        migration: Optional[MigrationConfig] = None,
        node_capacity: Optional[int] = None,
        node_budgets: Optional[Sequence[BudgetLike]] = None,
        broker: Union[str, "GlobalBroker", None] = None,  # noqa: F821
        engine: Optional[ExecutionEngine] = None,
        warm_start: bool = False,
        qos_slo: Optional[SLOSpec] = None,
    ):
        if n_nodes < 1:
            raise ClusterError(f"a cluster needs at least one node, got {n_nodes}")
        catalog = catalog or experiment_catalog()
        self._trace = trace
        self._placement = (
            make_placement(placement) if isinstance(placement, str) else placement
        )
        self._policy = policy
        self._epoch_config = epoch_config or RunConfig(duration_s=5.0)
        self._seed = int(seed)
        self._fault_plans = dict(node_fault_plans or {})
        unknown = set(self._fault_plans) - set(range(n_nodes))
        if unknown:
            raise ClusterError(
                f"fault plans reference unknown node ids {sorted(unknown)}"
            )
        # A fault window reaching past the node-epoch would be silently
        # truncated by FaultPlan.window(); reject it loudly instead.
        epoch_s = self._epoch_config.duration_s
        for node_id in sorted(self._fault_plans):
            plan = self._fault_plans[node_id]
            if plan.start_s >= epoch_s or (
                plan.end_s is not None and plan.end_s > epoch_s
            ):
                raise ClusterError(
                    f"node {node_id}: fault plan window "
                    f"[{plan.start_s}, {plan.end_s}) outlives the {epoch_s}s "
                    f"node-epoch; shrink the window or lengthen the epoch"
                )
        self._migration = migration
        self._engine = engine or ExecutionEngine()
        if node_budgets is not None and len(node_budgets) != n_nodes:
            raise ClusterError(
                f"got {len(node_budgets)} node budgets for {n_nodes} nodes"
            )
        self._nodes = [
            ServerNode(
                node_id,
                catalog,
                capacity=node_capacity,
                budget=(
                    coerce_budget(node_budgets[node_id], catalog)
                    if node_budgets is not None
                    else None
                ),
            )
            for node_id in range(n_nodes)
        ]
        # The conserved quantity: cluster-wide per-resource unit totals.
        # Fixed at construction; every broker decision is checked
        # against it.
        self._pool = pool_totals(node.budget for node in self._nodes)
        self._supervisor = FleetSupervisor(
            self._nodes, dict(fleet_plans or {}), trace.n_epochs, self._seed, recovery
        )
        if isinstance(broker, str):
            # Lazy import: repro.broker imports repro.cluster.budget at
            # module load, so the simulator must not import it back at
            # module level.
            from repro.broker import make_broker

            broker = make_broker(broker)
        self._broker = broker
        self._budget_transfers = 0
        self._warm_start = bool(warm_start)
        # Consecutive-unfair counters for migration, and the warm-up
        # penalty intervals owed by jobs that moved node at the current
        # epoch boundary (migrated or re-placed).
        self._unfair_streak: Dict[int, int] = {node.node_id: 0 for node in self._nodes}
        self._warmup: Dict[int, int] = {}
        # Incremental stepping state: :meth:`run` is a loop over
        # :meth:`step_epoch`, and external callers may interleave
        # epochs with their own work. ``_previous`` holds the last
        # epoch's records — the placement policy's information set.
        self._epoch = 0
        self._all_records: List[NodeEpochRecord] = []
        self._rejected: List[int] = []
        self._migrations = 0
        self._previous: Dict[int, NodeEpochRecord] = {}
        # SLO enforcement: one tracker for the whole run, scoring each
        # node-epoch's qos jobs against the spec. Absent when no spec.
        self._slo_tracker = SLOTracker(qos_slo) if qos_slo is not None else None

    @property
    def nodes(self) -> List[ServerNode]:
        return self._nodes

    @property
    def engine(self) -> ExecutionEngine:
        return self._engine

    @property
    def broker(self):
        """The cluster-level budget broker (``None`` when disabled)."""
        return self._broker

    @property
    def pool(self) -> Dict[str, int]:
        """Cluster-wide per-resource unit totals (the conserved pool)."""
        return dict(self._pool)

    @property
    def recovery(self) -> Optional[RecoveryConfig]:
        """The supervised-recovery policy (``None`` = ablation)."""
        return self._supervisor.recovery

    @property
    def down_nodes(self) -> Tuple[int, ...]:
        """Nodes currently down (crashed, blacked out, or quarantined)."""
        return self._supervisor.down_nodes

    # -- views ------------------------------------------------------------

    def _views(self, exclude: Optional[int] = None) -> List[NodeView]:
        """Current node views (previous-epoch telemetry), in id order.

        ``exclude`` presents one node as full — used to force a
        migrating job *off* its source node. Down nodes are presented
        as full too, so no placement policy can route onto them while
        keeping every policy's view indexing stable; they report the
        neutral (1.0, 1.0) telemetry of a node with no record.
        """
        down = self._supervisor.down_nodes
        views = []
        for node in self._nodes:
            record = None if node.node_id in down else self._previous.get(node.node_id)
            n_jobs = node.n_jobs
            if node.node_id == exclude or node.node_id in down:
                n_jobs = node.capacity
            views.append(
                NodeView(
                    node_id=node.node_id,
                    n_jobs=n_jobs,
                    capacity=node.capacity,
                    mean_speedup=record.mean_speedup if record else 1.0,
                    fairness=record.fairness if record else 1.0,
                    budget_units=node.budget.total_units,
                    qos_jobs=node.qos_jobs,
                )
            )
        return views

    def _place(self, exclude: Optional[int] = None) -> Optional[int]:
        """The placement policy's node over the current views, or
        ``None`` when it finds no open node."""
        try:
            return self._placement.place(self._views(exclude))
        except ClusterError:
            return None

    def _node_policy_kwargs(self, node: ServerNode) -> dict:
        """Per-node policy kwargs: qos context, injected when due.

        When an SLO is active, the partitioning policy is qos-aware
        (see :func:`repro.policies.registry.policy_is_qos_aware`), and
        the node hosts at least one qos job, the factory receives the
        node's qos slot indices and the SLO floor. Everything else —
        no SLO, unaware policy, all-batch node — gets no kwargs, so
        spec digests are bit-identical to a simulator without the
        feature.
        """
        if self._slo_tracker is None or not policy_is_qos_aware(self._policy):
            return {}
        qos_slots = tuple(
            slot for slot, kind in enumerate(node.job_kinds) if kind == KIND_QOS
        )
        if not qos_slots:
            return {}
        return {
            "qos_jobs": qos_slots,
            "qos_min_speedup": self._slo_tracker.spec.min_speedup,
        }

    # -- epoch phases ------------------------------------------------------

    def _apply_departures(self, epoch: int) -> None:
        for arrival in self._trace.departures_at(epoch):
            for node in self._nodes:
                if node.has_job(arrival.job_id):
                    node.remove_job(arrival.job_id)
                    break

    def _maybe_migrate(self) -> None:
        """Evict the worst-treated job from persistently unfair nodes."""
        if self._migration is None:
            return
        for node in self._nodes:
            record = self._previous.get(node.node_id)
            if record is None or record.synthesized:
                self._unfair_streak[node.node_id] = 0
                continue
            if record.fairness < self._migration.fairness_threshold:
                self._unfair_streak[node.node_id] += 1
            else:
                self._unfair_streak[node.node_id] = 0
                continue
            if self._unfair_streak[node.node_id] < self._migration.patience:
                continue
            if node.n_jobs < 2:
                continue
            victim = min(record.job_speedups, key=record.job_speedups.get)
            if not node.has_job(victim):  # departed in the meantime
                continue
            target = self._place(exclude=node.node_id)
            if target is None or target == node.node_id:
                continue  # nowhere to go; stay put
            if not self._nodes[target].has_capacity:
                continue
            active_collector().event(
                "migration", "cluster",
                job_id=victim, source=node.node_id, target=target,
            )
            active_collector().metrics.counter("cluster.migrations").inc()
            self._nodes[target].add_job(node.evict(victim))
            self._warmup[victim] = self._migration.warmup_penalty_intervals
            self._unfair_streak[node.node_id] = 0
            self._migrations += 1

    def _place_arrivals(self, epoch: int) -> None:
        obs = active_collector()
        for arrival in self._trace.arrivals_at(epoch):
            node_id = self._place()
            if node_id is None:
                self._rejected.append(arrival.job_id)
                obs.event(
                    "job_rejected", "cluster", job_id=arrival.job_id, epoch=epoch
                )
                obs.metrics.counter("cluster.rejected_jobs").inc()
                continue
            self._nodes[node_id].add_job(arrival)
            obs.event(
                "placement", "cluster",
                job_id=arrival.job_id, node=node_id, epoch=epoch,
            )

    def _record(
        self,
        epoch: int,
        node: ServerNode,
        throughput: float,
        fairness: float,
        job_speedups: Dict[int, float],
        series: Sequence[Sequence[float]] = (),
        synthesized: bool = False,
        failed: bool = False,
        **fields,
    ) -> NodeEpochRecord:
        """One node-epoch record: ``node``'s membership, budget and
        capacity as they stand, the epoch's scores, and any other
        record ``fields``. The SLO tracker, when present, scores the
        qos jobs from their per-slot interval speedup ``series`` — a
        failed epoch as an outage, in which they attain nothing."""
        tracker = self._slo_tracker
        attained: Mapping[int, float] = {}
        if tracker is not None:
            ids, kinds = node.job_ids, node.job_kinds
            attained = (
                tracker.score_outage(epoch, node.node_id, ids, kinds) if failed
                else tracker.score_epoch(epoch, node.node_id, ids, kinds, series)
            )
        return NodeEpochRecord(
            epoch=epoch,
            node_id=node.node_id,
            job_ids=node.job_ids,
            synthesized=synthesized,
            throughput=throughput,
            fairness=fairness,
            job_speedups=job_speedups,
            budget=node.budget,
            capacity=node.capacity,
            failed=failed,
            job_kinds=node.job_kinds,
            slo_attained=tuple(sorted(attained.items())),
            **fields,
        )

    def _failed_record(
        self, epoch: int, node: ServerNode, slowdown: float, why: str
    ) -> NodeEpochRecord:
        """A node-epoch that produced no useful work; it counts toward
        the circuit breaker."""
        self._supervisor.failed(epoch, node.node_id, why)
        return self._record(
            epoch, node, 0.0, 0.0, dict.fromkeys(node.job_ids, 0.0),
            failed=True, slowdown=slowdown,
        )

    def _epoch_records(self, epoch: int) -> List[NodeEpochRecord]:
        """Run (or synthesize) every live node's epoch and score it."""
        obs = active_collector()
        supervisor = self._supervisor
        config = dataclasses.replace(
            self._epoch_config, phase_offset_s=epoch * self._epoch_config.duration_s
        )
        specs: List[RunSpec] = []
        # (node, slowdown, warm-started) per spec.
        runs: List[Tuple[ServerNode, float, bool]] = []
        idle: List[ServerNode] = []
        records: List[NodeEpochRecord] = []
        for node in supervisor.live():
            if node.n_jobs < 2:
                idle.append(node)
                continue
            slowdown, missed, fault_plan = supervisor.node_weather(
                node.node_id, epoch, self._fault_plans.get(node.node_id)
            )
            initial_state, warm = supervisor.initial_state(node, self._warm_start)
            if missed:
                # The straggler misses its deadline outright: the
                # node-epoch fails with zero useful work, and its
                # controller never runs.
                records.append(self._failed_record(
                    epoch, node, slowdown,
                    f"straggler slowdown {slowdown:.2f}x missed deadline",
                ))
                continue
            if warm:
                obs.event("warm_start", "cluster", node=node.node_id, epoch=epoch)
                obs.metrics.counter("cluster.warm_starts").inc()
            specs.append(
                node.epoch_spec(
                    policy=self._policy,
                    run_config=config,
                    seed=derive_seed(self._seed, "node", node.node_id, "epoch", epoch),
                    policy_kwargs=self._node_policy_kwargs(node),
                    fault_plan=fault_plan,
                    initial_state=initial_state,
                )
            )
            runs.append((node, slowdown, warm))

        on_error = "record" if supervisor.recovery is not None else "raise"
        results = self._engine.run(specs, on_error=on_error) if specs else []

        for spec, (node, slowdown, warm), result in zip(specs, runs, results):
            if isinstance(result, RunError):
                records.append(
                    self._failed_record(epoch, node, slowdown, f"engine: {result.error}")
                )
                supervisor.forget(node.node_id)
                continue
            assert isinstance(result, RunResult)
            # A job that just moved here loses its warm-up intervals of
            # useful work this epoch (pro-rata).
            penalty_scale = {
                job_id: max(0.0, 1.0 - self._warmup[job_id] / config.n_steps)
                for job_id in node.job_ids
                if self._warmup.get(job_id)
            }
            speedups = result.scored.mean_job_speedups()
            job_speedups = {
                job_id: float(speedup) / slowdown * penalty_scale.get(job_id, 1.0)
                for job_id, speedup in zip(node.job_ids, speedups)
            }
            series: List[Tuple[float, ...]] = []
            if self._slo_tracker is not None:
                # Per-interval speedups (straggler slowdown and warm-up
                # penalties folded in, matching the epoch scores) feed
                # the windowed SLO attainment; only qos slots need a
                # series.
                kinds = node.job_kinds
                series = [
                    tuple(
                        float(rec.speedups[slot])
                        / slowdown
                        * penalty_scale.get(job_id, 1.0)
                        for rec in result.scored
                    )
                    if slot < len(kinds) and kinds[slot] == KIND_QOS
                    else ()
                    for slot, job_id in enumerate(node.job_ids)
                ]
            records.append(
                self._record(
                    epoch, node, result.throughput / slowdown, result.fairness,
                    job_speedups, series,
                    warm_started=warm,
                    fairness_series=tuple(
                        float(v) for v in result.telemetry.series("fairness")
                    ),
                    slowdown=slowdown,
                )
            )
            supervisor.completed(epoch, node, spec.catalog, result.final_state)
        for node in idle:
            # 0/1-job nodes: an uncontended job retains its isolation
            # performance by construction — nothing to simulate, and an
            # uncontended qos job attains its SLO fully. No controller
            # ran this epoch, so any held snapshot is stale.
            supervisor.forget(node.node_id)
            records.append(self._record(
                epoch, node, 1.0, 1.0, dict.fromkeys(node.job_ids, 1.0),
                synthesized=True,
            ))
        self._warmup.clear()
        tracker = self._slo_tracker
        if tracker is not None:
            # Displaced qos jobs still waiting in the re-placement
            # queue received no service this epoch: that outage is part
            # of their SLO story (it is what the slo_aware placement +
            # recovery interplay is judged on).
            for source, arrival in supervisor.queued():
                if arrival.kind == KIND_QOS:
                    tracker.score_outage(
                        epoch, source, (arrival.job_id,), (KIND_QOS,)
                    )
        records.sort(key=lambda r: r.node_id)
        return records

    # -- brokering ---------------------------------------------------------

    def _broker_step(
        self,
        epoch: int,
        records: Sequence[NodeEpochRecord],
        live_pool: Mapping[str, int],
    ) -> None:
        """Let the broker reassign budgets from the epoch's outcomes,
        then validate its decision, emit its transfers, and adopt it.

        The broker only sees (and may only reassign) *live* nodes; a
        down node's budget is parked, so a decision must conserve
        ``live_pool`` — the pool minus every parked budget.

        Raises:
            ClusterError: on an incomplete mapping, a conservation
                violation (per-resource totals drifted from the pool),
                or a floor violation (a node left unable to host its
                resident jobs). Broker bugs fail loudly — a silent leak
                of capacity would invalidate every downstream metric.
        """
        if self._broker is None:
            return
        from repro.broker import BrokerView  # lazy: see __init__

        live = self._supervisor.live()
        if not live:
            return
        obs = active_collector()
        by_node = {record.node_id: record for record in records}
        views = []
        for node in live:
            record = by_node[node.node_id]
            views.append(
                BrokerView(
                    node_id=node.node_id,
                    budget=node.budget,
                    floor=node.budget.floor(node.catalog, node.n_jobs),
                    n_jobs=node.n_jobs,
                    throughput=record.throughput,
                    fairness=record.fairness,
                    mean_speedup=record.mean_speedup,
                    synthesized=record.synthesized,
                )
            )
        with obs.span(
            "broker.decide", "broker", epoch=epoch, scheme=self._broker.name
        ):
            decision = self._broker.decide(epoch, views)
        missing = {node.node_id for node in live} - set(decision)
        if missing:
            raise ClusterError(
                f"broker {self._broker.name!r} omitted node(s) {sorted(missing)} "
                f"at epoch {epoch}"
            )
        totals = pool_totals(decision[node.node_id] for node in live)
        if totals != live_pool:
            raise ClusterError(
                f"broker {self._broker.name!r} broke conservation at epoch "
                f"{epoch}: live pool {live_pool} became {totals}"
            )
        for view in views:
            new = decision[view.node_id]
            for name in view.floor.names:
                if new.get(name) < view.floor.get(name):
                    raise ClusterError(
                        f"broker {self._broker.name!r} pushed node "
                        f"{view.node_id} below its floor at epoch {epoch}: "
                        f"{name}={new.get(name)} < {view.floor.get(name)}"
                    )
        for resource, source, target, units in _transfer_ledger(
            {node.node_id: node.budget for node in live}, decision
        ):
            obs.event(
                "budget_transfer", "broker",
                epoch=epoch, resource=resource,
                source=source, target=target, units=units,
            )
            obs.metrics.counter("cluster.budget_transfers").inc()
            self._budget_transfers += 1
        for node in live:
            if decision[node.node_id] != node.budget:
                node.set_budget(decision[node.node_id])

    def _audit_pool(self, epoch: int, live_pool: Mapping[str, int]) -> None:
        """Assert bit-exact budget conservation: live + parked == pool."""
        totals = pool_totals(node.budget for node in self._supervisor.live())
        if any(totals.get(name, 0) != units for name, units in live_pool.items()):
            raise ClusterError(
                f"budget leak at epoch {epoch}: live totals {totals} != pool "
                f"{self._pool} minus parked budgets"
            )

    # -- the run -----------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Epochs stepped so far (the next :meth:`step_epoch` runs this one)."""
        return self._epoch

    @property
    def finished(self) -> bool:
        """Whether the arrival trace has been fully replayed."""
        return self._epoch >= self._trace.n_epochs

    def step_epoch(self) -> List[NodeEpochRecord]:
        """Advance the cluster by exactly one placement epoch.

        The epoch runs as explicit sub-steps, in order: fleet weather
        (down/rejoin + budget parking), trace departures, optional
        fairness-driven migration, re-placement of drained jobs, new
        arrivals, resurrection matching, node-epoch spec execution
        through the engine, checkpointing, scoring (the qos miss
        counter), quarantine, brokering, and the conservation audit; the
        records then become the placement policy's view.

        Callers may interleave their own work between epochs — inspect
        :attr:`nodes`, read the accumulated records, or snapshot
        policies — and :meth:`run` is exactly a loop over this method,
        so a manually stepped replay is bit-identical to a batch one.

        Returns the epoch's node records (down nodes produce none).

        Raises:
            ClusterError: when the trace is already fully replayed.
        """
        if self.finished:
            raise ClusterError(
                f"trace exhausted: all {self._trace.n_epochs} epochs already stepped"
            )
        epoch = self._epoch
        supervisor = self._supervisor
        obs = active_collector()
        with obs.span("epoch", "cluster", epoch=epoch):
            supervisor.apply_weather(epoch)
            self._apply_departures(epoch)
            self._maybe_migrate()
            self._warmup.update(supervisor.replace_queued(epoch, self._place))
            self._place_arrivals(epoch)
            # Membership is final for this epoch — now crashed
            # controllers whose job groups reassembled can be matched.
            supervisor.match_resurrections(epoch)
            records = self._epoch_records(epoch)
            supervisor.checkpoint(epoch)
        self._score_epoch(records)
        supervisor.quarantine(epoch)
        live_pool = supervisor.live_pool(self._pool)
        self._broker_step(epoch, records, live_pool)
        self._audit_pool(epoch, live_pool)
        self._previous = {record.node_id: record for record in records}
        self._all_records.extend(records)
        self._epoch += 1
        return records

    def _score_epoch(self, records: Sequence[NodeEpochRecord]) -> None:
        """Count the epoch's qos job-epochs below the attainment target."""
        if self._slo_tracker is None:
            return
        target = self._slo_tracker.spec.attain_target
        misses = sum(
            1 for record in records for _, value in record.slo_attained if value < target
        )
        if misses:
            active_collector().metrics.counter("cluster.slo_misses").inc(misses)

    def result(self) -> ClusterResult:
        """The cluster-level result over the epochs stepped so far."""
        tracker = self._slo_tracker
        return ClusterResult(
            n_nodes=len(self._nodes),
            policy=self._policy,
            placement=self._placement.name,
            n_epochs=self._epoch,
            records=tuple(self._all_records),
            rejected_jobs=tuple(self._rejected),
            migrations=self._migrations,
            broker=self._broker.name if self._broker is not None else "none",
            budget_transfers=self._budget_transfers,
            displaced_job_epochs=self._supervisor.displaced_epochs,
            fleet_events=self._supervisor.events,
            slo=(
                SLOSummary(
                    attainment=tracker.attainment(),
                    miss_rate=tracker.miss_rate(),
                    qos_jobs=len(tracker.job_attainment()),
                    misses=tracker.misses,
                )
                if tracker is not None
                else None
            ),
        )

    def run(self) -> ClusterResult:
        """Replay the remaining trace and return the cluster-level result.

        A thin loop over :meth:`step_epoch`; on a fresh simulator this
        reproduces the historical whole-trace behavior bit-identically
        (same spec digests, same telemetry series). After manual
        stepping it finishes the replay from wherever the caller
        stopped.
        """
        while not self.finished:
            self.step_epoch()
        return self.result()


def _transfer_ledger(
    before: Mapping[int, ResourceBudget],
    after: Mapping[int, ResourceBudget],
) -> List[Tuple[str, int, int, int]]:
    """Explain a budget reassignment as ``(resource, source, target,
    units)`` flows.

    The broker returns end states, not flows; for the trace we
    reconstruct a minimal deterministic flow per resource by matching
    losers to gainers in node-id order. Any matching with the right
    row/column sums is equally valid as an audit trail — this one is
    stable, which is what replayable traces need.
    """
    ledger: List[Tuple[str, int, int, int]] = []
    resources = sorted({name for b in before.values() for name in b.names})
    for resource in resources:
        losses = []
        gains = []
        for node_id in sorted(before):
            delta = after[node_id].get(resource) - before[node_id].get(resource)
            if delta < 0:
                losses.append([node_id, -delta])
            elif delta > 0:
                gains.append([node_id, delta])
        li = gi = 0
        while li < len(losses) and gi < len(gains):
            units = min(losses[li][1], gains[gi][1])
            ledger.append((resource, losses[li][0], gains[gi][0], units))
            losses[li][1] -= units
            gains[gi][1] -= units
            if losses[li][1] == 0:
                li += 1
            if gains[gi][1] == 0:
                gi += 1
    return ledger
