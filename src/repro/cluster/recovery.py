"""Fleet recovery policy, its supervisor, and the audit trail.

:class:`RecoveryConfig` is the supervised-recovery contract the
cluster simulator executes when fleet weather (``repro.faults.nodes``)
takes a node down:

* resident jobs drain to a re-placement queue and are re-placed by the
  ordinary placement policy, ahead of new arrivals;
* each simulated node's :class:`~repro.state.PolicyState` is
  checkpointed every ``snapshot_cadence_epochs`` completed epochs, and
  when a crashed node's whole job group reassembles on one adopting
  node (same membership, same effective catalog) the last completed
  checkpoint is restored there — checkpoint-lag semantics: the
  controller resumes from the snapshot, not from the crash instant,
  and the adopted jobs pay ``warmup_penalty_intervals`` of useful work
  (the PR 4 migration cost model) for the transfer;
* a circuit breaker quarantines a node after ``failure_threshold``
  consecutive failed node-epochs (engine failures or stragglers past
  ``straggler_deadline_factor``), draining it like a crash for
  ``quarantine_epochs`` before it may rejoin.

:class:`FleetSupervisor` executes it as the one owner of fleet state.
Without fleet plans it is inert; ``recovery=None`` runs the ablation
(drained jobs are lost, nothing is checkpointed, the breaker never
trips).

:class:`FleetEvent` is the audit-trail record every disruption and
recovery action appends — the fleet's only ledger: the cluster result
counts its disruptions off it, and chaos experiments reconstruct
jobs-lost, re-placement latency, and fairness-recovery intervals from
it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.budget import ResourceBudget
from repro.cluster.node import ServerNode
from repro.errors import ClusterError, ExperimentError
from repro.faults.nodes import NodeFaultPlan, NodeFaultSchedule
from repro.faults.plan import FaultPlan
from repro.obs import active_collector
from repro.resources.types import ResourceCatalog
from repro.rng import derive_seed
from repro.state import PolicyState
from repro.workloads.arrivals import JobArrival

#: FleetEvent kinds.
EVT_NODE_DOWN = "node_down"
EVT_NODE_REJOINED = "node_rejoined"
EVT_NODE_QUARANTINED = "node_quarantined"
EVT_NODE_EPOCH_FAILED = "node_epoch_failed"
EVT_JOB_LOST = "job_lost"
EVT_JOB_REPLACED = "job_replaced"
EVT_SESSION_RESURRECTED = "session_resurrected"

#: The obs counter each FleetEvent kind bumps.
_COUNTERS = {
    EVT_NODE_DOWN: "cluster.node_downs",
    EVT_NODE_REJOINED: "cluster.node_rejoins",
    EVT_NODE_QUARANTINED: "cluster.node_quarantineds",
    EVT_NODE_EPOCH_FAILED: "cluster.node_epoch_failures",
    EVT_JOB_LOST: "cluster.jobs_lost",
    EVT_JOB_REPLACED: "cluster.replacements",
    EVT_SESSION_RESURRECTED: "cluster.resurrections",
}

#: Monitoring-fault rates a flaky-telemetry node injects at intensity 1.
_FLAKY_RATES = {
    "sample_drop_rate": 0.25,
    "sample_nan_rate": 0.2,
    "sample_stuck_rate": 0.1,
    "sample_outlier_rate": 0.25,
}


def _flaky_overlay(base: Optional[FaultPlan], intensity: float) -> FaultPlan:
    """A node's fault plan with flaky-telemetry corruption folded in.

    Scales the canonical monitoring-fault rates by ``intensity`` and
    takes the max against any base plan's rates (a flaky episode never
    *reduces* an already-faulty node's corruption). The overlay covers
    the whole epoch — fleet weather is epoch-granular.
    """
    rates = {name: rate * intensity for name, rate in _FLAKY_RATES.items()}
    if base is None:
        return FaultPlan(**rates)
    return dataclasses.replace(
        base, **{name: max(getattr(base, name), rate) for name, rate in rates.items()}
    )


@dataclass(frozen=True)
class RecoveryConfig:
    """How the cluster reacts to node failure.

    Attributes:
        snapshot_cadence_epochs: checkpoint every node's policy state
            after every Nth completed epoch (1 = every epoch; larger
            cadences trade snapshot cost for staler resurrections).
        warmup_penalty_intervals: control intervals of useful work a
            re-placed or resurrected job loses in its first epoch on
            the adopting node (pro-rata speedup scaling, exactly the
            PR 4 migration cost model).
        failure_threshold: consecutive failed node-epochs before the
            circuit breaker quarantines the node.
        quarantine_epochs: how long a quarantined node stays drained
            before it may rejoin.
        straggler_deadline_factor: a straggler epoch whose slowdown
            reaches this factor misses its deadline outright — the
            node-epoch counts as failed (zero useful work) instead of
            merely slow.
        max_queue_epochs: epochs a displaced job may wait un-placed
            before it is dropped as lost; ``None`` waits out the trace.
    """

    snapshot_cadence_epochs: int = 1
    warmup_penalty_intervals: int = 0
    failure_threshold: int = 3
    quarantine_epochs: int = 2
    straggler_deadline_factor: float = 3.0
    max_queue_epochs: Optional[int] = None

    def __post_init__(self) -> None:
        if self.snapshot_cadence_epochs < 1:
            raise ClusterError(
                f"snapshot_cadence_epochs must be >= 1, "
                f"got {self.snapshot_cadence_epochs}"
            )
        if self.warmup_penalty_intervals < 0:
            raise ClusterError(
                f"warmup_penalty_intervals must be >= 0, "
                f"got {self.warmup_penalty_intervals}"
            )
        if self.failure_threshold < 1:
            raise ClusterError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.quarantine_epochs < 1:
            raise ClusterError(
                f"quarantine_epochs must be >= 1, got {self.quarantine_epochs}"
            )
        if self.straggler_deadline_factor <= 1.0:
            raise ClusterError(
                f"straggler_deadline_factor must exceed 1, "
                f"got {self.straggler_deadline_factor}"
            )
        if self.max_queue_epochs is not None and self.max_queue_epochs < 0:
            raise ClusterError(
                f"max_queue_epochs must be >= 0, got {self.max_queue_epochs}"
            )


@dataclass(frozen=True)
class FleetEvent:
    """One entry of the fleet-disruption audit trail.

    Attributes:
        epoch: placement epoch the event occurred in.
        kind: one of the module's ``EVT_*`` constants.
        node_id: the node concerned (the source node for job events).
        job_id: the job concerned; ``-1`` for node-scoped events.
        detail: free-form context (rejoin epoch, wait epochs, cause).
    """

    epoch: int
    kind: str
    node_id: int
    job_id: int = -1
    detail: str = ""


@dataclass
class _Displaced:
    """One drained job waiting in the re-placement queue."""

    arrival: JobArrival  # as the drained node evicted it, ready for add_job
    source: int          # node it was drained from
    since_epoch: int     # epoch it was drained at


@dataclass(frozen=True)
class _Snapshot:
    """A controller's final policy state, with the epoch, job membership
    and effective catalog of the node-epoch that produced it."""

    epoch: int
    membership: Tuple[int, ...]
    catalog: ResourceCatalog
    state: PolicyState

    def fits(self, node: ServerNode) -> bool:
        """Whether ``node`` still runs the mix and resources the state
        was learned under."""
        return node.job_ids == self.membership and node.effective_catalog == self.catalog


class FleetSupervisor:
    """The one owner of fleet state: realized weather, liveness, parked
    budgets, the re-placement queue and its wait epochs, failure
    streaks, each node's held policy snapshot with its checkpoints, and
    the event trail.

    ``plans`` (``node_id -> NodeFaultPlan``) are realized here, once
    per node, from ``derive_seed(seed, "fleet", node_id)``; a plan for
    an unknown node or one that outlives ``n_epochs`` raises
    :class:`~repro.errors.ClusterError` naming the node.
    """

    def __init__(
        self,
        nodes: Sequence[ServerNode],
        plans: Mapping[int, NodeFaultPlan],
        n_epochs: int,
        seed: int,
        recovery: Optional[RecoveryConfig],
    ):
        unknown = set(plans) - set(range(len(nodes)))
        if unknown:
            raise ClusterError(
                f"fleet fault plans reference unknown node ids {sorted(unknown)}"
            )
        self._schedules: Dict[int, NodeFaultSchedule] = {}
        for node_id in sorted(plans):
            try:
                self._schedules[node_id] = NodeFaultSchedule.generate(
                    plans[node_id], n_epochs, seed=derive_seed(seed, "fleet", node_id)
                )
            except ExperimentError as error:
                raise ClusterError(f"node {node_id}: {error}") from error
        self._nodes = nodes
        self._recovery = recovery
        # Down node -> (rejoin epoch or None, its parked budget).
        self._down: Dict[int, Tuple[Optional[int], ResourceBudget]] = {}
        self._queue: List[_Displaced] = []
        self._displaced_epochs = 0
        self._fail_streak = dict.fromkeys(range(len(nodes)), 0)
        # Each node's latest controller snapshot, the cadence checkpoints
        # taken from them, checkpoints of crashed nodes awaiting a
        # reassembled job group, and matched resurrections not yet run.
        self._held: Dict[int, _Snapshot] = {}
        self._checkpoints: Dict[int, _Snapshot] = {}
        self._adoptable: List[_Snapshot] = []
        self._pending_restore: Dict[int, PolicyState] = {}
        self._events: List[FleetEvent] = []

    @property
    def recovery(self) -> Optional[RecoveryConfig]:
        return self._recovery

    @property
    def down_nodes(self) -> Tuple[int, ...]:
        return tuple(sorted(self._down))

    @property
    def events(self) -> Tuple[FleetEvent, ...]:
        return tuple(self._events)

    @property
    def displaced_epochs(self) -> int:
        return self._displaced_epochs

    def live(self) -> List[ServerNode]:
        """Nodes in service, in id order."""
        return [node for node in self._nodes if node.node_id not in self._down]

    def live_pool(self, pool: Mapping[str, int]) -> Dict[str, int]:
        """``pool`` minus every parked budget: what live nodes hold."""
        live = dict(pool)
        for _, budget in self._down.values():
            for name, units in budget.units:
                live[name] -= units
        return live

    def _emit(self, event: FleetEvent, **fields) -> None:
        """Append ``event`` to the trail, with its obs event and counter."""
        obs = active_collector()
        obs.event(event.kind, "cluster", **fields)
        obs.metrics.counter(_COUNTERS[event.kind]).inc()
        self._events.append(event)

    # -- start of epoch -----------------------------------------------------

    def apply_weather(self, epoch: int) -> None:
        """Process rejoins, then new down windows.

        Rejoins run first so a node whose blackout just ended is
        placeable this very epoch — its parked budget returns before
        re-placement and arrivals look at the fleet.
        """
        for node_id, (rejoin, _) in sorted(self._down.items()):
            if rejoin is not None and epoch >= rejoin:
                self._rejoin(epoch, node_id)
        for node_id in sorted(self._schedules):
            if node_id in self._down:
                continue
            schedule = self._schedules[node_id]
            if schedule.down_at(epoch):
                self._take_down(
                    epoch, node_id, until=schedule.down_end(epoch), cause="fault"
                )

    def _take_down(
        self, epoch: int, node_id: int, until: Optional[int], cause: str
    ) -> None:
        """Drain a node and park its budget until it rejoins.

        With recovery enabled, drained jobs enter the re-placement
        queue and the node's last checkpoint becomes adoptable;
        without it, they are simply lost — the ablation the chaos
        sweep measures against. The budget is *parked*, not destroyed:
        the conserved pool is live budgets + parked budgets at every
        epoch, so crash/rejoin cycles are conservation-neutral by
        construction.
        """
        node = self._nodes[node_id]
        self._down[node_id] = (until, node.budget)
        checkpoint = self._checkpoints.pop(node_id, None)
        if checkpoint is not None:  # only taken under recovery
            self._adoptable.append(checkpoint)
        drained = node.job_ids
        for job_id in drained:
            arrival = node.evict(job_id)
            if self._recovery is None:
                self._emit(
                    FleetEvent(epoch, EVT_JOB_LOST, node_id, job_id, detail=cause),
                    job_id=job_id, node=node_id, epoch=epoch,
                )
            else:
                self._queue.append(_Displaced(arrival, node_id, epoch))
        self._emit(
            FleetEvent(
                epoch,
                EVT_NODE_QUARANTINED if cause == "quarantine" else EVT_NODE_DOWN,
                node_id,
                detail=f"until={until} jobs={len(drained)} cause={cause}",
            ),
            node=node_id, epoch=epoch, until=until, jobs=len(drained), cause=cause,
        )
        # The node's learned state and failure streak died with it.
        self._held.pop(node_id, None)
        self._pending_restore.pop(node_id, None)
        self._fail_streak[node_id] = 0

    def _rejoin(self, epoch: int, node_id: int) -> None:
        """Return a down node to service with its parked budget."""
        _, budget = self._down.pop(node_id)
        node = self._nodes[node_id]
        if node.budget != budget:
            node.set_budget(budget)
        self._emit(FleetEvent(epoch, EVT_NODE_REJOINED, node_id), node=node_id, epoch=epoch)

    def replace_queued(
        self, epoch: int, place: Callable[[], Optional[int]]
    ) -> Dict[int, int]:
        """Re-place displaced jobs ahead of this epoch's arrivals, each
        where ``place`` says (``None``: nowhere). Returns the warm-up
        penalty intervals each re-placed job owes."""
        placed: Dict[int, int] = {}
        still: List[_Displaced] = []
        for item in self._queue:
            job_id = item.arrival.job_id
            waited = epoch - item.since_epoch
            if not item.arrival.resident_at(epoch):
                # Its residency ended while it waited: it departs from
                # the queue — not lost, but its wait epochs still count.
                self._displaced_epochs += waited
                continue
            target = place()
            if target is None or not self._nodes[target].has_capacity:
                limit = self._recovery.max_queue_epochs
                if limit is not None and waited >= limit:
                    self._displaced_epochs += waited
                    self._emit(
                        FleetEvent(
                            epoch, EVT_JOB_LOST, item.source, job_id,
                            detail=f"queued {waited} epoch(s), gave up",
                        ),
                        job_id=job_id, node=item.source, epoch=epoch,
                    )
                else:
                    still.append(item)
                continue
            self._nodes[target].add_job(item.arrival)
            self._displaced_epochs += waited
            placed[job_id] = self._recovery.warmup_penalty_intervals
            self._emit(
                FleetEvent(
                    epoch, EVT_JOB_REPLACED, item.source, job_id,
                    detail=f"target={target} waited={waited}",
                ),
                job_id=job_id, source=item.source, target=target,
                epoch=epoch, waited=waited,
            )
        self._queue = still
        return placed

    def match_resurrections(self, epoch: int) -> None:
        """Restore crashed controllers whose job group reassembled.

        Runs once epoch membership is final: an adoptable checkpoint is
        resurrected onto a live node holding exactly the job group it
        was learned on, under the same effective catalog (a different
        catalog means the learned partitionings no longer describe the
        hardware). Groups that scattered stay adoptable — they may yet
        reassemble — but cold membership simply cold-starts, which is
        the checkpoint-lag contract: resurrection is an optimization,
        never a correctness requirement.
        """
        for checkpoint in list(self._adoptable):
            for node in self.live():
                if node.node_id in self._pending_restore or not checkpoint.fits(node):
                    continue
                self._pending_restore[node.node_id] = checkpoint.state
                self._adoptable.remove(checkpoint)
                self._emit(
                    FleetEvent(
                        epoch, EVT_SESSION_RESURRECTED, node.node_id,
                        detail=f"snapshot_epoch={checkpoint.epoch}",
                    ),
                    node=node.node_id, epoch=epoch,
                    snapshot_epoch=checkpoint.epoch,
                    lag_epochs=epoch - checkpoint.epoch,
                )
                break

    # -- one live node's epoch ----------------------------------------------

    def node_weather(
        self, node_id: int, epoch: int, plan: Optional[FaultPlan]
    ) -> Tuple[float, bool, Optional[FaultPlan]]:
        """The node's straggler slowdown, whether it misses the epoch
        deadline outright, and its fault ``plan`` with any
        flaky-telemetry episode folded in."""
        schedule = self._schedules.get(node_id)
        if schedule is None:
            return 1.0, False, plan
        slowdown, flaky = schedule.slowdown_at(epoch), schedule.flaky_at(epoch)
        missed = (
            self._recovery is not None
            and slowdown >= self._recovery.straggler_deadline_factor
        )
        return slowdown, missed, _flaky_overlay(plan, flaky) if flaky > 0.0 else plan

    def initial_state(
        self, node: ServerNode, warm_start: bool
    ) -> Tuple[Optional[PolicyState], bool]:
        """The state ``node``'s controller starts from, and whether that
        is a warm start: a matched resurrection (consumed even when a
        straggler then wastes it), else — under ``warm_start`` — the
        held snapshot if it still fits the node."""
        restored = self._pending_restore.pop(node.node_id, None)
        if restored is not None:
            return restored, False
        held = self._held.get(node.node_id)
        if warm_start and held is not None and held.fits(node):
            return held.state, True
        return None, False

    def failed(self, epoch: int, node_id: int, why: str) -> None:
        """Count a failed node-epoch toward the node's breaker streak."""
        self._fail_streak[node_id] += 1
        self._emit(
            FleetEvent(epoch, EVT_NODE_EPOCH_FAILED, node_id, detail=why),
            node=node_id, epoch=epoch, streak=self._fail_streak[node_id], why=why,
        )

    def completed(
        self,
        epoch: int,
        node: ServerNode,
        catalog: ResourceCatalog,
        state: Optional[PolicyState],
    ) -> None:
        """Reset the node's failure streak and hold its controller's
        final ``state``, learned under the spec's ``catalog``."""
        self._fail_streak[node.node_id] = 0
        if state is None:
            self._held.pop(node.node_id, None)
        else:
            self._held[node.node_id] = _Snapshot(epoch, node.job_ids, catalog, state)

    def forget(self, node_id: int) -> None:
        """Drop a held snapshot no controller carried through this epoch."""
        self._held.pop(node_id, None)

    # -- end of epoch -------------------------------------------------------

    def checkpoint(self, epoch: int) -> None:
        """Checkpoint cadence: every held snapshot becomes its node's
        checkpoint; a crash before the next one resurrects from it
        (checkpoint lag)."""
        if (
            self._recovery is not None
            and (epoch + 1) % self._recovery.snapshot_cadence_epochs == 0
        ):
            self._checkpoints.update(self._held)

    def queued(self) -> List[Tuple[int, JobArrival]]:
        """``(source node, arrival)`` of every job waiting for a node."""
        return [(item.source, item.arrival) for item in self._queue]

    def quarantine(self, epoch: int) -> None:
        """Circuit breaker: drain nodes with too many consecutive failures."""
        if self._recovery is None:
            return
        for node in self.live():
            if self._fail_streak[node.node_id] >= self._recovery.failure_threshold:
                self._take_down(
                    epoch,
                    node.node_id,
                    until=epoch + 1 + self._recovery.quarantine_epochs,
                    cause="quarantine",
                )
