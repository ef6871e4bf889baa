"""One server in the cluster: resident jobs plus spec construction.

A :class:`ServerNode` owns its resource catalog, its elastic
:class:`~repro.cluster.budget.ResourceBudget` (the share of the
cluster-wide unit pool it currently holds), and the set of job
instances placed on it, and knows how to describe one placement epoch
of partitioned execution as a :class:`~repro.engine.RunSpec`. The node
itself never executes anything — the cluster simulator batches every
node's epoch spec through the
:class:`~repro.engine.ExecutionEngine`, which is what makes nodes run
in parallel worker processes and lets the run cache deduplicate
identical node-epochs across sweep cells.

Capacity is no longer a fixed scalar: the most jobs a node can host is
whatever its *current budget* can physically partition, so when the
global broker moves units toward a node its capacity grows and the
placement layer sees the change on the next arrival. A node at its
catalog's full budget behaves exactly as the pre-budget code did —
same capacity, same epoch-spec digests.

Job instances get *instance-unique* workload names (``canneal#7`` for
job id 7) because :class:`~repro.workloads.mixes.JobMix` forbids
duplicate names — two copies of the same benchmark are distinct jobs
with distinct speedups and must stay distinguishable in telemetry.
The rename is the node's business: :meth:`ServerNode.evict` hands a
job back as the arrival that placed it, ready for another node.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.cluster.budget import ResourceBudget, scaled_catalog
from repro.errors import ClusterError
from repro.engine.spec import RunSpec
from repro.experiments.runner import RunConfig
from repro.faults.plan import FaultPlan
from repro.state import PolicyState
from repro.workloads.arrivals import JobArrival
from repro.workloads.mixes import JobMix
from repro.workloads.model import Workload
from repro.resources.types import ResourceCatalog


def instance_name(workload_name: str, job_id: int) -> str:
    """The instance-unique name a job runs under on a node."""
    return f"{workload_name}#{job_id}"


def node_capacity(catalog: ResourceCatalog) -> int:
    """Most jobs a full-budget catalog can host: every job needs its
    per-resource minimum."""
    return min(resource.units // resource.min_units for resource in catalog)


class ServerNode:
    """A single server's placement state within the cluster.

    Args:
        node_id: stable index of this node.
        catalog: the node's resource template (nodes may be
            heterogeneous — each carries its own). Defines the resource
            kinds, per-job minimums, and unit capacities; the *number*
            of units the node holds is the budget's business.
        capacity: optional fixed cap on resident jobs, layered on top
            of whatever the current budget can physically partition
            (kept for admission-control experiments; most callers leave
            it unset and let the budget decide).
        budget: initial :class:`~repro.cluster.budget.ResourceBudget`;
            defaults to the catalog's full unit counts — the historical
            fixed-capacity behavior.
    """

    def __init__(
        self,
        node_id: int,
        catalog: ResourceCatalog,
        capacity: Optional[int] = None,
        budget: Optional[ResourceBudget] = None,
    ):
        if node_id < 0:
            raise ClusterError(f"node_id must be >= 0, got {node_id}")
        self.node_id = int(node_id)
        self.catalog = catalog
        self._budget = budget or ResourceBudget.from_catalog(catalog)
        if set(self._budget.names) != set(catalog.names):
            raise ClusterError(
                f"node {node_id}: budget resources {self._budget.names} do not "
                f"match catalog {catalog.names}"
            )
        limit = self._budget.capacity(catalog)
        if limit < 1:
            raise ClusterError(
                f"node {node_id}: budget {self._budget.as_dict()} cannot host "
                f"even one job under {catalog!r}"
            )
        if capacity is not None:
            if capacity < 1:
                raise ClusterError(f"node capacity must be >= 1, got {capacity}")
            if capacity > limit:
                raise ClusterError(
                    f"node {node_id}: capacity {capacity} exceeds what the "
                    f"budget can partition ({limit} jobs)"
                )
        self._max_jobs = None if capacity is None else int(capacity)
        self._jobs: Dict[int, Workload] = {}
        self._arrivals: Dict[int, JobArrival] = {}

    # -- budget -----------------------------------------------------------

    @property
    def budget(self) -> ResourceBudget:
        """The node's current share of the cluster-wide unit pool."""
        return self._budget

    @property
    def effective_catalog(self) -> ResourceCatalog:
        """The catalog this node's epochs actually partition.

        Identical (by object) to :attr:`catalog` at full budget, so
        fixed-budget epoch specs keep their historical digests.
        """
        return scaled_catalog(self.catalog, self._budget)

    def set_budget(self, budget: ResourceBudget) -> None:
        """Adopt a broker-assigned budget for the coming epoch.

        Raises:
            ClusterError: if the budget's resources do not match the
                catalog or it cannot host the currently resident jobs —
                the broker must never strand a placed job.
        """
        if set(budget.names) != set(self.catalog.names):
            raise ClusterError(
                f"node {self.node_id}: budget resources {budget.names} do not "
                f"match catalog {self.catalog.names}"
            )
        capacity = budget.capacity(self.catalog)
        if capacity < max(1, self.n_jobs):
            raise ClusterError(
                f"node {self.node_id}: budget {budget.as_dict()} hosts "
                f"{capacity} job(s) but {self.n_jobs} are resident"
            )
        self._budget = budget

    # -- occupancy --------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Most jobs the node can currently host (budget-derived)."""
        limit = self._budget.capacity(self.catalog)
        return limit if self._max_jobs is None else min(limit, self._max_jobs)

    @property
    def n_jobs(self) -> int:
        return len(self._jobs)

    @property
    def has_capacity(self) -> bool:
        return self.n_jobs < self.capacity

    @property
    def job_ids(self) -> Tuple[int, ...]:
        """Resident job ids in ascending order (the mix's job order)."""
        return tuple(sorted(self._jobs))

    @property
    def job_kinds(self) -> Tuple[str, ...]:
        """Resident job kinds, aligned with :attr:`job_ids`."""
        return tuple(self._arrivals[job_id].kind for job_id in self.job_ids)

    @property
    def qos_jobs(self) -> int:
        """Resident jobs tagged latency-sensitive (``kind == "qos"``)."""
        return sum(1 for arrival in self._arrivals.values() if arrival.kind == "qos")

    def add_job(self, arrival: JobArrival) -> None:
        """Place a job instance on this node."""
        if not self.has_capacity:
            raise ClusterError(
                f"node {self.node_id} is full ({self.n_jobs}/{self.capacity} jobs)"
            )
        if arrival.job_id in self._jobs:
            raise ClusterError(f"job {arrival.job_id} is already on node {self.node_id}")
        self._jobs[arrival.job_id] = dataclasses.replace(
            arrival.workload,
            name=instance_name(arrival.workload.name, arrival.job_id),
        )
        self._arrivals[arrival.job_id] = arrival

    def remove_job(self, job_id: int) -> None:
        """Remove a departed job instance."""
        self.evict(job_id)

    def evict(self, job_id: int) -> JobArrival:
        """Remove a resident job and return the arrival that placed it —
        original workload name and kind — ready for another node's
        :meth:`add_job` (a migration, or re-placement after a crash)."""
        try:
            del self._jobs[job_id]
        except KeyError:
            raise ClusterError(f"job {job_id} is not on node {self.node_id}") from None
        return self._arrivals.pop(job_id)

    def has_job(self, job_id: int) -> bool:
        return job_id in self._jobs

    def workload_of(self, job_id: int) -> Workload:
        """The (instance-renamed) workload a resident job runs."""
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ClusterError(f"job {job_id} is not on node {self.node_id}") from None

    # -- epoch spec -------------------------------------------------------

    def mix(self) -> JobMix:
        """The node's current co-location mix, in job-id order.

        Only meaningful with >= 2 resident jobs (partitioning a single
        job is trivial — the cluster simulator synthesizes those
        epochs instead of running them).
        """
        if self.n_jobs < 2:
            raise ClusterError(
                f"node {self.node_id} has {self.n_jobs} job(s); a mix needs >= 2"
            )
        return JobMix(tuple(self._jobs[job_id] for job_id in self.job_ids))

    def epoch_spec(
        self,
        policy: str,
        run_config: RunConfig,
        seed: int,
        policy_kwargs: Optional[dict] = None,
        fault_plan: Optional[FaultPlan] = None,
        initial_state: Optional[PolicyState] = None,
    ) -> RunSpec:
        """One placement epoch of this node as an engine spec.

        The caller supplies the epoch seed (derived from cluster seed,
        node id, and epoch — never from the resident jobs, so fault
        and noise environments stay paired across placement policies
        that route different jobs here) and a ``run_config`` whose
        ``phase_offset_s`` encodes the epoch's position in wall time,
        keeping workload phase behavior continuous across epochs.
        ``initial_state`` warm-starts the node's controller from a held
        snapshot (the cluster simulator passes one only when the node
        runs the membership and catalog it was learned under). The
        spec's catalog is the *effective* catalog — the
        node's budget enters the content digest through it, so an
        epoch run under a shrunken budget never collides in the cache
        with one run at full budget.
        """
        return RunSpec(
            mix=self.mix(),
            policy=policy,
            catalog=self.effective_catalog,
            policy_kwargs=tuple(sorted((policy_kwargs or {}).items())),
            run_config=run_config,
            seed=seed,
            fault_plan=fault_plan,
            initial_state=initial_state,
        )
