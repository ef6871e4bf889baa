"""Fault schedules: the deterministic realization of a fault plan.

:meth:`FaultSchedule.generate` walks the run's control intervals and
draws fault events from three independent RNG streams (actuation,
monitoring, workload), each derived from an explicit seed by SHA-256 —
never from global state or call order. Identical ``(plan, n_jobs,
duration, interval, seed)`` inputs therefore yield bit-identical
schedules in every process, which is what keeps faulted runs
reproducible across ``--workers 1`` and ``--workers N``.

The schedule is a flat tuple of :class:`FaultEvent` windows; the
simulator consults it at each interval start. Draw consumption is
*unconditional* — one draw per interval (actuation) and per
job-interval (monitoring, workload) regardless of whether an event is
emitted — so overlapping windows never shift the stream and the
timeline of late events does not depend on early ones.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

from repro.errors import ExperimentError
from repro.faults.plan import FaultPlan
from repro.rng import derive_seed

#: Event kinds.
ACTUATION = "actuation"  # MSR writes fail (magnitude = failing attempts)
DROP = "drop"            # monitoring sample lost (NaN)
NAN = "nan"              # counter corruption (NaN)
STUCK = "stuck"          # counter repeats its previous reported value
OUTLIER = "outlier"      # counter scaled by magnitude
CRASH = "crash"          # job crashes: zero IPS + in-flight progress lost
HANG = "hang"            # job hangs: zero IPS, progress kept

_KINDS = (ACTUATION, DROP, NAN, STUCK, OUTLIER, CRASH, HANG)

#: Magnitude marking a persistent outage: more failing attempts than
#: any bounded retry budget, so retry alone can never rescue it.
OUTAGE_ATTEMPTS = 10**9


@dataclass(frozen=True)
class FaultEvent:
    """One fault window: what goes wrong, when, and to whom.

    Attributes:
        kind: one of the module's kind constants.
        start_s / end_s: active wall-time window (half-open).
        job: affected job index; ``-1`` for system-wide (actuation).
        magnitude: kind-specific strength — failing write attempts for
            ``actuation``, the IPS scale factor for ``outlier``.
    """

    kind: str
    start_s: float
    end_s: float
    job: int = -1
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ExperimentError(f"unknown fault kind {self.kind!r}; choices: {_KINDS}")
        if self.end_s <= self.start_s:
            raise ExperimentError(
                f"fault event window [{self.start_s}, {self.end_s}) is empty"
            )

    def active(self, time_s: float) -> bool:
        """Whether the event covers wall time ``time_s``."""
        return self.start_s <= time_s < self.end_s

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultEvent":
        return cls(
            kind=str(data["kind"]),
            start_s=float(data["start_s"]),
            end_s=float(data["end_s"]),
            job=int(data.get("job", -1)),
            magnitude=float(data.get("magnitude", 0.0)),
        )


@dataclass(frozen=True)
class FaultSchedule:
    """A concrete, immutable fault timeline for one run."""

    events: Tuple[FaultEvent, ...] = ()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    # -- lookups (consulted once per interval by the simulator) ----------

    def actuation_fail_attempts(self, time_s: float) -> int:
        """How many actuation attempts fail at ``time_s`` (0 = none)."""
        attempts = 0
        for event in self.events:
            if event.kind == ACTUATION and event.active(time_s):
                attempts = max(attempts, int(event.magnitude))
        return attempts

    def monitor_events(self, job: int, time_s: float) -> List[FaultEvent]:
        """Monitoring faults active for ``job`` at ``time_s``."""
        return [
            e
            for e in self.events
            if e.job == job and e.active(time_s) and e.kind in (DROP, NAN, STUCK, OUTLIER)
        ]

    def workload_events(self, job: int, time_s: float) -> List[Tuple[int, FaultEvent]]:
        """Active ``(event_index, event)`` crash/hang pairs for ``job``.

        Indices let the simulator trigger once-per-event effects (the
        progress loss at crash start) exactly once.
        """
        return [
            (i, e)
            for i, e in enumerate(self.events)
            if e.job == job and e.active(time_s) and e.kind in (CRASH, HANG)
        ]

    def active_count(self, time_s: float) -> int:
        """Number of fault events covering ``time_s`` (telemetry)."""
        return sum(1 for e in self.events if e.active(time_s))

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSchedule":
        return cls(events=tuple(FaultEvent.from_dict(e) for e in data.get("events", [])))

    # -- generation ------------------------------------------------------

    @classmethod
    def generate(
        cls,
        plan: FaultPlan,
        n_jobs: int,
        duration_s: float,
        interval_s: float,
        seed: int = 0,
    ) -> "FaultSchedule":
        """Realize ``plan`` into a concrete timeline.

        Args:
            plan: fault rates and window.
            n_jobs: co-location degree (monitoring/workload faults are
                drawn per job).
            duration_s: run length; intervals beyond it are not drawn.
            interval_s: control interval (draws happen at interval
                starts).
            seed: base seed; the actuation, monitoring, and workload
                streams derive from it independently.
        """
        if n_jobs < 1:
            raise ExperimentError(f"n_jobs must be >= 1, got {n_jobs}")
        if interval_s <= 0 or duration_s <= 0:
            raise ExperimentError("duration and interval must be positive")

        rng_act = np.random.default_rng(derive_seed("faults", int(seed), "actuation"))
        rng_mon = np.random.default_rng(derive_seed("faults", int(seed), "monitoring"))
        rng_wrk = np.random.default_rng(derive_seed("faults", int(seed), "workload"))

        start, end = plan.window(duration_s)
        n_steps = int(round(duration_s / interval_s))
        events: List[FaultEvent] = []

        for step in range(n_steps):
            t = step * interval_s
            in_window = start <= t < end

            # Actuation: one outage draw + one transient draw per interval.
            outage = rng_act.random() < plan.actuation_outage_rate
            transient = rng_act.random() < plan.actuation_fail_rate
            if in_window and outage:
                events.append(
                    FaultEvent(
                        ACTUATION,
                        t,
                        t + plan.actuation_outage_duration_s,
                        magnitude=OUTAGE_ATTEMPTS,
                    )
                )
            elif in_window and transient:
                events.append(
                    FaultEvent(
                        ACTUATION,
                        t,
                        t + interval_s,
                        magnitude=plan.actuation_fail_attempts,
                    )
                )

            # Monitoring: one selector draw + one magnitude draw per job.
            for job in range(n_jobs):
                r = rng_mon.random()
                u = rng_mon.random()  # magnitude/direction, always consumed
                if not in_window:
                    continue
                edges = np.cumsum(
                    [
                        plan.sample_drop_rate,
                        plan.sample_nan_rate,
                        plan.sample_stuck_rate,
                        plan.sample_outlier_rate,
                    ]
                )
                if r < edges[0]:
                    events.append(FaultEvent(DROP, t, t + interval_s, job=job))
                elif r < edges[1]:
                    events.append(FaultEvent(NAN, t, t + interval_s, job=job))
                elif r < edges[2]:
                    events.append(
                        FaultEvent(STUCK, t, t + plan.sample_stuck_duration_s, job=job)
                    )
                elif r < edges[3]:
                    scale = plan.sample_outlier_scale
                    factor = float(scale ** (0.5 + 0.5 * u))
                    if u > 0.5:  # reuse the draw's upper bits as the sign
                        factor = 1.0 / factor
                    events.append(
                        FaultEvent(OUTLIER, t, t + interval_s, job=job, magnitude=factor)
                    )

            # Workload: one crash draw + one hang draw per job.
            for job in range(n_jobs):
                crash = rng_wrk.random() < plan.crash_rate
                hang = rng_wrk.random() < plan.hang_rate
                if not in_window:
                    continue
                if crash:
                    events.append(
                        FaultEvent(CRASH, t, t + plan.crash_restart_s, job=job)
                    )
                elif hang:
                    events.append(FaultEvent(HANG, t, t + plan.hang_duration_s, job=job))

        return cls(events=tuple(events))
