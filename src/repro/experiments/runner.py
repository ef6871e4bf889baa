"""Experiment runner: one policy controlling one job mix.

Implements the measurement methodology of Sec. IV via
:class:`~repro.system.session.ControlSession`:

* 0.1 s control/sampling intervals;
* isolation baselines measured online at the start and re-measured
  every equalization period (Algorithm 1, lines 12-13) — policies see
  the *held* (possibly stale) baseline, exactly like the real system;
* telemetry scored against the *true* current isolation performance,
  so reported throughput/fairness reflect reality rather than the
  controller's belief.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro import serialize
from repro.errors import ExperimentError
from repro.faults.plan import FaultPlan
from repro.faults.schedule import FaultSchedule
from repro.metrics.goals import GoalSet
from repro.policies.base import PartitioningPolicy
from repro.resources.types import ResourceCatalog, default_catalog
from repro.rng import SeedLike
from repro.state import PolicyState
from repro.system.session import ControlSession
from repro.system.simulation import DEFAULT_CONTROL_INTERVAL_S, CoLocationSimulator
from repro.system.telemetry import TelemetryLog
from repro.workloads.mixes import JobMix

#: Factory signature used by comparison drivers: policies are stateful,
#: so each run constructs a fresh one.
PolicyFactory = Callable[[ResourceCatalog, int], PartitioningPolicy]


def experiment_catalog(units: int = 8) -> ResourceCatalog:
    """The reduced-scale default catalog for reproduction experiments.

    Keeps the default server's total capacities (10 cores worth of
    compute, 13.75 MB LLC, 12 GB/s of sustained bandwidth) but
    quantizes LLC/bandwidth into ``units`` allocation units so the
    brute-force Oracle stays fast (see DESIGN.md). ``units=10``
    restores the paper's scale.
    """
    if units < 2:
        raise ExperimentError(f"need at least 2 units per resource, got {units}")
    return default_catalog(
        cores=units,
        llc_ways=units,
        bandwidth_units=units,
        llc_way_bytes=13.75 * 2**20 / units,
        bandwidth_unit_bytes=12e9 / units,
    )


@dataclass(frozen=True)
class RunConfig:
    """Methodology knobs for one policy run.

    ``actuation_retries`` is the simulator's bounded-retry budget for
    installs that fail under fault injection; it lives here (rather
    than as a loose runner argument) so a :class:`~repro.engine.RunSpec`
    digest covers it.
    """

    duration_s: float = 20.0
    interval_s: float = DEFAULT_CONTROL_INTERVAL_S
    baseline_reset_s: float = 10.0
    noise_sigma: float = 0.03
    phase_offset_s: float = 0.0
    warmup_fraction: float = 0.25
    actuation_retries: int = 2

    def __post_init__(self) -> None:
        if self.duration_s < self.interval_s:
            raise ExperimentError("duration must cover at least one interval")
        if not 0 <= self.warmup_fraction < 1:
            raise ExperimentError(f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}")
        if self.actuation_retries < 0:
            raise ExperimentError(
                f"actuation_retries must be >= 0, got {self.actuation_retries}"
            )

    @property
    def n_steps(self) -> int:
        return max(1, round(self.duration_s / self.interval_s))

    def to_dict(self) -> dict:
        """JSON-compatible representation."""
        return serialize.dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Rebuild from :meth:`to_dict` output (lenient: unknown keys
        are ignored so old artifacts stay readable as fields grow)."""
        return serialize.dataclass_from_dict(cls, data)


@dataclass(frozen=True)
class RunResult:
    """A completed policy run with its scored telemetry.

    ``final_state`` is the policy's snapshot at session end (``None``
    for stateless policies): feed it to a later spec's
    ``initial_state`` to warm-start a continuation run.
    """

    policy_name: str
    mix_label: str
    telemetry: TelemetryLog
    run_config: RunConfig
    final_state: Optional[PolicyState] = None

    @property
    def scored(self) -> TelemetryLog:
        """Telemetry after discarding the warmup transient."""
        keep = 1.0 - self.run_config.warmup_fraction
        return self.telemetry.tail(keep) if keep < 1.0 else self.telemetry

    @property
    def throughput(self) -> float:
        return self.scored.mean_throughput()

    @property
    def fairness(self) -> float:
        return self.scored.mean_fairness()

    @property
    def worst_job_speedup(self) -> float:
        return self.scored.worst_job_speedup()

    _CODECS = {
        "telemetry": serialize.object_codec(TelemetryLog),
        "run_config": serialize.FieldCodec(
            encode=lambda value: value.to_dict(), decode=lambda data: RunConfig.from_dict(data)
        ),
        "final_state": serialize.optional(serialize.object_codec(PolicyState)),
    }

    def to_dict(self) -> dict:
        """JSON-compatible representation of the full run (lossless).

        The engine's on-disk cache stores results in this
        representation, and equality of ``to_dict`` outputs is the
        engine's definition of "bit-identical results".
        """
        return serialize.dataclass_to_dict(self, codecs=self._CODECS)

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        """Rebuild a run result from :meth:`to_dict` output."""
        return serialize.dataclass_from_dict(cls, data, codecs=cls._CODECS)


def run_policy(
    policy: PartitioningPolicy,
    mix: JobMix,
    catalog: Optional[ResourceCatalog] = None,
    run_config: Optional[RunConfig] = None,
    goals: Optional[GoalSet] = None,
    seed: SeedLike = None,
    faults: Optional[FaultPlan] = None,
    fault_seed: int = 0,
) -> RunResult:
    """Run ``policy`` on ``mix`` for one experiment and score it.

    Args:
        policy: a fresh policy instance (possibly restored from a
            snapshot).
        mix: the co-located workloads.
        catalog: server resources (defaults to the experiment catalog).
        run_config: methodology knobs; defaults per Sec. IV.
        goals: metric choices for telemetry scoring.
        seed: controls measurement noise (give different seeds to
            repeated runs to vary the noise realization).
        faults: optional fault plan; realized deterministically from
            ``fault_seed`` into a schedule the simulator injects.
        fault_seed: seed for the fault realization (independent of the
            measurement-noise seed).
    """
    catalog = catalog or experiment_catalog()
    run_config = run_config or RunConfig()
    goals = goals or GoalSet()

    schedule = None
    if faults is not None and not faults.is_empty:
        schedule = FaultSchedule.generate(
            faults,
            n_jobs=len(mix),
            duration_s=run_config.duration_s,
            interval_s=run_config.interval_s,
            seed=fault_seed,
        )

    simulator = CoLocationSimulator(
        mix,
        catalog=catalog,
        control_interval_s=run_config.interval_s,
        noise_sigma=run_config.noise_sigma,
        seed=seed,
        phase_offset_s=run_config.phase_offset_s,
        fault_schedule=schedule,
        actuation_retries=run_config.actuation_retries,
    )
    session = ControlSession(
        policy,
        simulator,
        goals=goals,
        baseline_reset_s=run_config.baseline_reset_s,
    )
    session.run(run_config.n_steps)

    return RunResult(
        policy_name=policy.name,
        mix_label=mix.label,
        telemetry=session.telemetry,
        run_config=run_config,
        final_state=session.policy_state(),
    )
