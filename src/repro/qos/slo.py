"""Service-level objectives for qos-kind jobs.

PR 8 plumbed ``JobArrival.kind`` ("batch" / "qos") through every layer
without attaching semantics. This module supplies them: an
:class:`SLOSpec` states what a qos job is *owed*, and an
:class:`SLOTracker` consumes per-interval telemetry to report whether
it got it.

The SLO is expressed as a **speedup floor** — the job's co-located IPS
divided by its isolation IPS must stay at or above ``min_speedup`` —
which doubles as a latency proxy. Under the M/M/1 tail model of
``repro.workloads.latency_critical`` a service meets a p99 target
exactly when its capacity ``mu = ips / instructions_per_request``
exceeds the offered load by the fixed margin ``-ln(0.01) / target``,
i.e. when

    ips >= load * ipr + ipr * factor / target  =  required_ips

so dividing by the job's isolation IPS turns the latency target into a
speedup floor (:func:`min_speedup_for`). Tracking speedups instead of
latencies keeps the SLO meaningful for every workload the cluster
hosts, not only the LC suite.

Attainment is windowed: each evaluation window (``window`` control
intervals) attains when its *mean* speedup clears the floor — a single
noisy interval does not count as an outage, mirroring how real SLOs
are computed over reporting windows. A job's epoch attainment is the
fraction of windows attained; when it drops below ``attain_target``
the tracker records an :class:`SLOMissEvent`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import ExperimentError
from repro.workloads.latency_critical import LatencyCriticalJob


@dataclass(frozen=True)
class SLOSpec:
    """What a qos-kind job is owed.

    Attributes:
        min_speedup: per-window floor on mean speedup (co-located IPS /
            isolation IPS); the latency proxy — see module docstring.
        window: control intervals per evaluation window.
        attain_target: fraction of windows an epoch must attain for
            the job to count as *meeting* its SLO that epoch; below
            this the tracker records a miss event.
    """

    min_speedup: float = 0.7
    window: int = 2
    attain_target: float = 0.75

    def __post_init__(self) -> None:
        if not 0.0 < self.min_speedup <= 1.0:
            raise ExperimentError(
                f"min_speedup must be in (0, 1], got {self.min_speedup}"
            )
        if self.window < 1:
            raise ExperimentError(f"window must be >= 1, got {self.window}")
        if not 0.0 < self.attain_target <= 1.0:
            raise ExperimentError(
                f"attain_target must be in (0, 1], got {self.attain_target}"
            )

    def to_dict(self) -> Dict:
        return {
            "min_speedup": self.min_speedup,
            "window": self.window,
            "attain_target": self.attain_target,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SLOSpec":
        return cls(
            min_speedup=float(data.get("min_speedup", 0.7)),
            window=int(data.get("window", 2)),
            attain_target=float(data.get("attain_target", 0.75)),
        )

    def window_attainment(self, speedups: Sequence[float]) -> float:
        """Fraction of evaluation windows whose mean clears the floor.

        An empty sequence (no intervals measured) counts as full
        attainment — nothing ran, so nothing was violated.
        """
        values = [float(v) for v in speedups]
        if not values:
            return 1.0
        attained = 0
        windows = 0
        for start in range(0, len(values), self.window):
            chunk = values[start : start + self.window]
            windows += 1
            if sum(chunk) / len(chunk) >= self.min_speedup:
                attained += 1
        return attained / windows


def min_speedup_for(
    job: LatencyCriticalJob, isolation_ips: float, t: float = 0.0, slack: float = 1.0
) -> float:
    """Speedup floor equivalent to a job's p99 latency target.

    Inverts the M/M/1 tail at time ``t``'s offered load and divides by
    the job's isolation IPS, clamped into ``(0, 1]`` — a floor above
    1.0 would demand more than running alone delivers and is treated
    as "needs the whole machine".
    """
    if isolation_ips <= 0:
        raise ExperimentError("isolation_ips must be positive")
    return min(1.0, max(1e-6, job.required_ips(t, slack) / isolation_ips))


@dataclass(frozen=True)
class SLOMissEvent:
    """One qos job falling below its attainment target for one epoch."""

    epoch: int
    node_id: int
    job_id: int
    attainment: float

    def to_dict(self) -> Dict:
        return {
            "epoch": self.epoch,
            "node_id": self.node_id,
            "job_id": self.job_id,
            "attainment": self.attainment,
        }


class SLOTracker:
    """Accumulates per-job SLO attainment across node-epochs.

    The cluster simulator calls :meth:`score_epoch` once per simulated
    node-epoch with the per-interval speedup series of every hosted
    job; the tracker keeps only the qos-kind ones. Failed node-epochs
    are scored through :meth:`score_outage` — a crashed node delivers
    zero service, which is the SLO story the attainment number must
    tell.
    """

    def __init__(self, spec: SLOSpec):
        self._spec = spec
        self._attainment: Dict[int, List[float]] = {}
        self._misses: List[SLOMissEvent] = []

    @property
    def spec(self) -> SLOSpec:
        return self._spec

    @property
    def misses(self) -> Tuple[SLOMissEvent, ...]:
        return tuple(self._misses)

    @property
    def scored_epochs(self) -> int:
        """Total (job, epoch) pairs scored so far."""
        return sum(len(series) for series in self._attainment.values())

    def score_epoch(
        self,
        epoch: int,
        node_id: int,
        job_ids: Sequence[int],
        kinds: Sequence[str],
        interval_speedups: Sequence[Sequence[float]],
    ) -> Dict[int, float]:
        """Score one node-epoch; returns ``{job_id: attainment}`` for qos jobs.

        Args:
            epoch: placement-epoch index.
            node_id: the hosting node.
            job_ids: jobs on the node, in slot order.
            kinds: job kinds aligned with ``job_ids``.
            interval_speedups: per-job series of per-interval speedups
                (aligned with ``job_ids``; may be empty for a job that
                produced no telemetry, which scores as attained).
        """
        out: Dict[int, float] = {}
        for slot, job_id in enumerate(job_ids):
            if slot >= len(kinds) or kinds[slot] != "qos":
                continue
            series = interval_speedups[slot] if slot < len(interval_speedups) else ()
            out[job_id] = self._spec.window_attainment(series)
        self._record(epoch, node_id, out)
        return out

    def score_outage(
        self, epoch: int, node_id: int, job_ids: Sequence[int], kinds: Sequence[str]
    ) -> Dict[int, float]:
        """Score a failed node-epoch: every qos job attains 0.0."""
        out = {
            job_id: 0.0
            for slot, job_id in enumerate(job_ids)
            if slot < len(kinds) and kinds[slot] == "qos"
        }
        self._record(epoch, node_id, out)
        return out

    def _record(self, epoch: int, node_id: int, attained: Dict[int, float]) -> None:
        for job_id, value in attained.items():
            self._attainment.setdefault(job_id, []).append(value)
            if value < self._spec.attain_target:
                self._misses.append(
                    SLOMissEvent(
                        epoch=epoch, node_id=node_id, job_id=job_id, attainment=value
                    )
                )

    # -- aggregations ---------------------------------------------------

    def job_attainment(self) -> Dict[int, float]:
        """Mean attainment per qos job over its scored epochs."""
        return {
            job_id: sum(series) / len(series)
            for job_id, series in sorted(self._attainment.items())
            if series
        }

    def attainment(self) -> float:
        """Overall mean attainment (1.0 when no qos job was scored)."""
        per_job = self.job_attainment()
        if not per_job:
            return 1.0
        return sum(per_job.values()) / len(per_job)

    def miss_rate(self) -> float:
        """Fraction of scored (job, epoch) pairs below the target."""
        scored = self.scored_epochs
        if scored == 0:
            return 0.0
        return len(self._misses) / scored

    def to_dict(self) -> Dict:
        return {
            "spec": self._spec.to_dict(),
            "attainment": self.attainment(),
            "miss_rate": self.miss_rate(),
            "job_attainment": {
                str(job_id): value for job_id, value in self.job_attainment().items()
            },
            "misses": [event.to_dict() for event in self._misses],
        }


@dataclass(frozen=True)
class SLOSummary:
    """Aggregate SLO outcome of one cluster run (see ``ClusterResult``)."""

    attainment: float
    miss_rate: float
    qos_jobs: int
    misses: Tuple[SLOMissEvent, ...] = field(default_factory=tuple)

    def to_dict(self) -> Dict:
        return {
            "attainment": self.attainment,
            "miss_rate": self.miss_rate,
            "qos_jobs": self.qos_jobs,
            "misses": [event.to_dict() for event in self.misses],
        }
