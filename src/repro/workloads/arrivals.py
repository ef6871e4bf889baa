"""Job arrival/departure traces for the multi-node cluster layer.

A single-server experiment fixes its job mix up front; a cluster
experiment instead replays a *trace* of jobs arriving and departing
over a sequence of placement epochs. :class:`ArrivalTrace` is the
frozen, serializable description of that trace: each
:class:`JobArrival` names one job instance — a workload model plus the
half-open epoch interval ``[arrival_epoch, departure_epoch)`` it is
resident.

Like :class:`~repro.faults.plan.FaultPlan`, a trace carries no
randomness of its own: :func:`poisson_trace` realizes a random trace
deterministically from an explicit seed, so the same trace can be
replayed against every (placement policy × partitioning policy) cell
of a sweep — arrivals are part of the *environment*, and paired
comparisons require the environment to be identical across cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ClusterError
from repro.rng import SeedLike, make_rng
from repro.workloads.model import Phase, PhaseSchedule, Workload
from repro.workloads.registry import WorkloadRegistry, default_registry


def workload_to_dict(workload: Workload) -> Dict[str, Any]:
    """Lossless JSON-compatible form of a workload model."""
    return {
        "name": workload.name,
        "suite": workload.suite,
        "description": workload.description,
        "total_instructions": workload.total_instructions,
        "contention_sensitivity": workload.contention_sensitivity,
        "schedule": [
            {"duration": duration, "phase": vars(phase).copy()}
            for duration, phase in workload.schedule.segments
        ],
    }


def workload_from_dict(data: Dict[str, Any]) -> Workload:
    """Rebuild a workload model from :func:`workload_to_dict` output."""
    segments = tuple(
        (float(segment["duration"]), Phase(**segment["phase"]))
        for segment in data["schedule"]
    )
    return Workload(
        name=data["name"],
        suite=data["suite"],
        description=data["description"],
        schedule=PhaseSchedule(segments),
        total_instructions=float(data["total_instructions"]),
        contention_sensitivity=float(data["contention_sensitivity"]),
    )


#: The default job type: throughput-oriented work with no latency SLO.
KIND_BATCH = "batch"

#: Latency-sensitive jobs; today a label only, plumbed end to end
#: (traces → placement views → node-epoch records) so QoS-aware
#: placement and partitioning policies can key off it.
KIND_QOS = "qos"


@dataclass(frozen=True)
class JobArrival:
    """One job instance in a cluster trace.

    Attributes:
        job_id: unique id within the trace (stable across placements —
            cluster telemetry is keyed by it).
        workload: the workload model the job runs.
        arrival_epoch: first epoch the job is resident.
        departure_epoch: first epoch the job is *gone* (exclusive
            bound); ``None`` means the job stays until the trace ends.
        kind: job type label (``"batch"`` / ``"qos"``); carried
            through placement and per-epoch records unchanged — no
            current policy branches on it.
    """

    job_id: int
    workload: Workload
    arrival_epoch: int
    departure_epoch: Optional[int] = None
    kind: str = KIND_BATCH

    def __post_init__(self) -> None:
        if self.job_id < 0:
            raise ClusterError(f"job_id must be >= 0, got {self.job_id}")
        if self.arrival_epoch < 0:
            raise ClusterError(f"arrival_epoch must be >= 0, got {self.arrival_epoch}")
        if self.departure_epoch is not None and self.departure_epoch <= self.arrival_epoch:
            raise ClusterError(
                f"job {self.job_id}: departure epoch {self.departure_epoch} must "
                f"exceed arrival epoch {self.arrival_epoch}"
            )
        if not self.kind or not isinstance(self.kind, str):
            raise ClusterError(
                f"job {self.job_id}: kind must be a non-empty string, got {self.kind!r}"
            )

    def resident_at(self, epoch: int) -> bool:
        """Whether the job is on the cluster during ``epoch``."""
        if epoch < self.arrival_epoch:
            return False
        return self.departure_epoch is None or epoch < self.departure_epoch

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "workload": workload_to_dict(self.workload),
            "arrival_epoch": self.arrival_epoch,
            "departure_epoch": self.departure_epoch,
            "kind": self.kind,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobArrival":
        return cls(
            job_id=int(data["job_id"]),
            workload=workload_from_dict(data["workload"]),
            arrival_epoch=int(data["arrival_epoch"]),
            departure_epoch=(
                None if data.get("departure_epoch") is None else int(data["departure_epoch"])
            ),
            kind=str(data.get("kind", KIND_BATCH)),
        )


@dataclass(frozen=True)
class ArrivalTrace:
    """A complete cluster workload: jobs over ``n_epochs`` epochs."""

    n_epochs: int
    jobs: Tuple[JobArrival, ...]

    def __post_init__(self) -> None:
        if self.n_epochs < 1:
            raise ClusterError(f"a trace needs at least one epoch, got {self.n_epochs}")
        object.__setattr__(self, "jobs", tuple(self.jobs))
        ids = [job.job_id for job in self.jobs]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ClusterError(f"duplicate job ids in trace: {dupes}")
        for job in self.jobs:
            if job.arrival_epoch >= self.n_epochs:
                raise ClusterError(
                    f"job {job.job_id} arrives at epoch {job.arrival_epoch}, "
                    f"beyond the trace's {self.n_epochs} epochs"
                )

    def __len__(self) -> int:
        return len(self.jobs)

    def arrivals_at(self, epoch: int) -> Tuple[JobArrival, ...]:
        """Jobs whose first resident epoch is ``epoch`` (id order)."""
        return tuple(
            sorted(
                (job for job in self.jobs if job.arrival_epoch == epoch),
                key=lambda job: job.job_id,
            )
        )

    def departures_at(self, epoch: int) -> Tuple[JobArrival, ...]:
        """Jobs whose departure (exclusive) epoch is ``epoch`` (id order)."""
        return tuple(
            sorted(
                (job for job in self.jobs if job.departure_epoch == epoch),
                key=lambda job: job.job_id,
            )
        )

    def active_at(self, epoch: int) -> Tuple[JobArrival, ...]:
        """Jobs resident during ``epoch``, in id order."""
        return tuple(
            sorted(
                (job for job in self.jobs if job.resident_at(epoch)),
                key=lambda job: job.job_id,
            )
        )

    @property
    def peak_jobs(self) -> int:
        """Maximum number of simultaneously resident jobs."""
        return max((len(self.active_at(epoch)) for epoch in range(self.n_epochs)), default=0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_epochs": self.n_epochs,
            "jobs": [job.to_dict() for job in self.jobs],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ArrivalTrace":
        return cls(
            n_epochs=int(data["n_epochs"]),
            jobs=tuple(JobArrival.from_dict(j) for j in data["jobs"]),
        )


def _rate_trace(
    n_epochs: int,
    rates: Sequence[float],
    mean_residency: float,
    max_jobs: Optional[int],
    suites: Sequence[str],
    registry: Optional[WorkloadRegistry],
    seed: SeedLike,
    initial_jobs: int,
    qos_fraction: float = 0.0,
) -> ArrivalTrace:
    """The shared generator behind every stochastic trace: Poisson
    arrivals at a per-epoch rate, geometric stays.

    The RNG draw order (initial jobs first, then per-epoch Poisson
    counts with per-arrival workload + residency draws) is the
    contract: every public generator delegates here, so a constant
    rate curve reproduces :func:`poisson_trace`'s historical traces
    draw-for-draw. The per-arrival kind draw happens only when
    ``qos_fraction > 0``, so the default keeps historical traces
    draw-identical.
    """
    if n_epochs < 1:
        raise ClusterError(f"a trace needs at least one epoch, got {n_epochs}")
    if len(rates) != n_epochs:
        raise ClusterError(f"need {n_epochs} per-epoch rates, got {len(rates)}")
    if any(rate < 0 for rate in rates):
        raise ClusterError("arrival rates must be >= 0")
    if mean_residency < 1:
        raise ClusterError(f"mean_residency must be >= 1, got {mean_residency}")
    if not 0.0 <= qos_fraction <= 1.0:
        raise ClusterError(f"qos_fraction must be in [0, 1], got {qos_fraction}")
    registry = registry or default_registry()
    pool: List[Workload] = []
    for suite in suites:
        pool.extend(registry.suite(suite))
    if not pool:
        raise ClusterError(f"no workloads found in suites {list(suites)}")

    rng = make_rng(seed)
    jobs: List[JobArrival] = []
    next_id = 0

    def _admit(epoch: int) -> None:
        nonlocal next_id
        workload = pool[int(rng.integers(len(pool)))]
        # Geometric residency (support >= 1) with mean `mean_residency`;
        # an open departure marks a job outliving the trace.
        stay = int(rng.geometric(1.0 / mean_residency))
        departure: Optional[int] = epoch + stay
        if departure >= n_epochs:
            departure = None
        # The kind draw is guarded so qos_fraction=0 makes no extra RNG
        # draws — historical traces stay draw-identical.
        kind = KIND_BATCH
        if qos_fraction > 0 and rng.random() < qos_fraction:
            kind = KIND_QOS
        jobs.append(
            JobArrival(
                job_id=next_id,
                workload=workload,
                arrival_epoch=epoch,
                departure_epoch=departure,
                kind=kind,
            )
        )
        next_id += 1

    for _ in range(initial_jobs):
        _admit(0)

    for epoch in range(n_epochs):
        n_arrivals = int(rng.poisson(rates[epoch]))
        for _ in range(n_arrivals):
            if max_jobs is not None:
                resident = sum(1 for job in jobs if job.resident_at(epoch))
                if resident >= max_jobs:
                    break
            _admit(epoch)

    return ArrivalTrace(n_epochs=n_epochs, jobs=tuple(jobs))


def poisson_trace(
    n_epochs: int,
    arrival_rate: float = 2.0,
    mean_residency: float = 4.0,
    max_jobs: Optional[int] = None,
    suites: Sequence[str] = ("parsec",),
    registry: Optional[WorkloadRegistry] = None,
    seed: SeedLike = 0,
    initial_jobs: int = 0,
    qos_fraction: float = 0.0,
) -> ArrivalTrace:
    """A deterministic random trace: Poisson arrivals, geometric stays.

    Args:
        n_epochs: trace length in placement epochs.
        arrival_rate: mean arrivals per epoch (Poisson).
        mean_residency: mean resident epochs per job (geometric, >= 1).
        max_jobs: cap on simultaneously resident jobs; arrivals beyond
            the cap are dropped (an admission-controlled cluster).
            ``None`` admits everything.
        suites: workload suites to draw benchmarks from, uniformly.
        registry: workload registry; defaults to the built-in one.
        seed: explicit seed — the same seed always yields the same
            trace, which is what makes sweep cells paired.
        initial_jobs: jobs already resident at epoch 0 (drawn before
            any Poisson arrivals, so warm-start traces stay paired with
            cold-start ones for the shared prefix of draws).
        qos_fraction: probability each arrival is tagged ``"qos"``
            instead of ``"batch"``; 0 adds no RNG draws, so untyped
            traces reproduce historical ones exactly.
    """
    if n_epochs < 1:
        raise ClusterError(f"a trace needs at least one epoch, got {n_epochs}")
    if arrival_rate < 0:
        raise ClusterError(f"arrival_rate must be >= 0, got {arrival_rate}")
    return _rate_trace(
        n_epochs,
        [arrival_rate] * n_epochs,
        mean_residency,
        max_jobs,
        suites,
        registry,
        seed,
        initial_jobs,
        qos_fraction,
    )


def diurnal_trace(
    n_epochs: int,
    base_rate: float = 0.5,
    peak_rate: float = 3.0,
    period_epochs: int = 12,
    mean_residency: float = 4.0,
    max_jobs: Optional[int] = None,
    suites: Sequence[str] = ("parsec",),
    registry: Optional[WorkloadRegistry] = None,
    seed: SeedLike = 0,
    initial_jobs: int = 0,
    qos_fraction: float = 0.0,
) -> ArrivalTrace:
    """Non-stationary arrivals on a day/night cycle.

    The per-epoch Poisson rate follows a raised cosine from
    ``base_rate`` (epoch 0, the trough) up to ``peak_rate`` at
    mid-period and back, repeating every ``period_epochs``. Controllers
    that warm-start across quiet stretches hold their learning through
    the trough; the rising edge then stresses adaptation under churn.
    """
    if base_rate < 0:
        raise ClusterError(f"base_rate must be >= 0, got {base_rate}")
    if peak_rate < base_rate:
        raise ClusterError(
            f"peak_rate ({peak_rate}) must be >= base_rate ({base_rate})"
        )
    if period_epochs < 2:
        raise ClusterError(f"period_epochs must be >= 2, got {period_epochs}")
    rates = [
        base_rate
        + (peak_rate - base_rate)
        * 0.5
        * (1.0 - math.cos(2.0 * math.pi * epoch / period_epochs))
        for epoch in range(max(n_epochs, 1))
    ]
    return _rate_trace(
        n_epochs, rates, mean_residency, max_jobs, suites, registry, seed,
        initial_jobs, qos_fraction,
    )


def flash_crowd_trace(
    n_epochs: int,
    base_rate: float = 0.5,
    burst_rate: float = 4.0,
    burst_epoch: int = 0,
    burst_duration: int = 2,
    mean_residency: float = 4.0,
    max_jobs: Optional[int] = None,
    suites: Sequence[str] = ("parsec",),
    registry: Optional[WorkloadRegistry] = None,
    seed: SeedLike = 0,
    initial_jobs: int = 0,
    qos_fraction: float = 0.0,
) -> ArrivalTrace:
    """A quiet stream with one flash-crowd burst.

    Arrivals run at ``base_rate`` except during the half-open window
    ``[burst_epoch, burst_epoch + burst_duration)``, where they spike
    to ``burst_rate`` — the step change that separates controllers
    which re-learn per epoch from ones that carry state through the
    surge.
    """
    if base_rate < 0:
        raise ClusterError(f"base_rate must be >= 0, got {base_rate}")
    if burst_rate < 0:
        raise ClusterError(f"burst_rate must be >= 0, got {burst_rate}")
    if burst_epoch < 0:
        raise ClusterError(f"burst_epoch must be >= 0, got {burst_epoch}")
    if burst_duration < 1:
        raise ClusterError(f"burst_duration must be >= 1, got {burst_duration}")
    rates = [
        burst_rate if burst_epoch <= epoch < burst_epoch + burst_duration else base_rate
        for epoch in range(max(n_epochs, 1))
    ]
    return _rate_trace(
        n_epochs, rates, mean_residency, max_jobs, suites, registry, seed,
        initial_jobs, qos_fraction,
    )
