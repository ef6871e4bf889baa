"""Resilience experiment: controllers under injected hardware faults.

Beyond-paper robustness study (ROADMAP "hardened control loop"): sweep
a fault-intensity knob and compare three variants on the same mix —

* **SATORI** — the hardened controller (sample validation, watchdog
  fallback, failed-actuation bookkeeping);
* **SATORI (unhardened)** — the identical controller with
  ``hardening=False``, so corrupted samples reach the GP and failed
  installs are attributed to the configuration the controller *asked*
  for rather than the one that stayed installed;
* **EqualPartition** — the static straw man, which cannot be confused
  by faults it never reacts to.

The comparison is *paired*: fault realizations derive from the specs'
environment digest (which excludes the policy), so at each intensity
all three variants face the bit-identical fault timeline — observed
differences are attributable to the controller, not to fault luck.

Faults are confined to the middle third of each run, so every
telemetry trace has a clean pre-fault reference level and a post-fault
tail from which a *time to recover* is measured. Each variant is
scored on **retention**: its faulted score divided by its own
clean-run (intensity 0) score, isolating fault damage from baseline
policy quality.

All runs across variants and intensities are submitted as a single
:class:`~repro.engine.ExecutionEngine` batch with ``on_error="record"``
— a variant that crashes outright under faults is itself a finding,
reported as a failed :class:`VariantOutcome` instead of aborting the
sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine import ExecutionEngine, RunError, RunSpec
from repro.errors import ExperimentError
from repro.experiments.comparison import seed_to_int
from repro.experiments.runner import RunConfig, RunResult, experiment_catalog
from repro.faults.plan import FaultPlan
from repro.resources.types import ResourceCatalog
from repro.rng import SeedLike
from repro.workloads.mixes import JobMix

#: The sweep's variants: (label, registry policy id, policy kwargs).
RESILIENCE_VARIANTS: Tuple[Tuple[str, str, Dict[str, object]], ...] = (
    ("hardened", "SATORI", {}),
    ("unhardened", "SATORI", {"hardening": False}),
    ("static", "EqualPartition", {}),
)

#: Default intensity grid; 0.0 (the clean reference) is always included.
DEFAULT_INTENSITIES = (0.0, 0.25, 0.5, 1.0)

#: A trace counts as recovered once its rolling throughput regains this
#: fraction of the pre-fault level.
RECOVERY_THRESHOLD = 0.9

#: Rolling-mean window (intervals) for the recovery detector; smooths
#: single-interval noise without hiding sustained degradation.
RECOVERY_WINDOW = 5


def moderate_fault_plan(intensity: float, duration_s: float) -> Optional[FaultPlan]:
    """A mixed fault plan over the middle third of a run.

    ``intensity`` in ``[0, 1]`` scales every fault family's rate
    linearly; ``1.0`` is a rough, aggressive regime (every other
    interval fails its install, frequent corrupted samples, occasional
    crashes) while ``0.0`` returns ``None`` — a clean run.
    """
    if not 0.0 <= intensity <= 1.0:
        raise ExperimentError(f"fault intensity must be in [0, 1], got {intensity}")
    if intensity == 0.0:
        return None
    return FaultPlan(
        start_s=duration_s / 3.0,
        end_s=2.0 * duration_s / 3.0,
        actuation_fail_rate=0.5 * intensity,
        actuation_fail_attempts=2,
        actuation_outage_rate=0.1 * intensity,
        actuation_outage_duration_s=1.0,
        sample_drop_rate=0.15 * intensity,
        sample_nan_rate=0.1 * intensity,
        sample_stuck_rate=0.1 * intensity,
        sample_outlier_rate=0.15 * intensity,
        crash_rate=0.05 * intensity,
        crash_restart_s=1.0,
        hang_rate=0.05 * intensity,
        hang_duration_s=0.5,
    )


@dataclass(frozen=True)
class VariantOutcome:
    """One (variant, intensity) cell of the resilience sweep.

    Attributes:
        variant: sweep label (``"hardened"`` / ``"unhardened"`` /
            ``"static"``).
        policy: registry policy id the cell ran.
        intensity: fault intensity in ``[0, 1]``.
        failed: the run raised instead of finishing (engine
            :class:`~repro.engine.RunError`); all scores are NaN.
        error: the failure description when ``failed``.
        throughput / fairness: the run's scored means.
        throughput_retention / fairness_retention: score divided by the
            same variant's clean-run score (1.0 = no degradation).
        recovery_time_s: seconds after the last fault until the rolling
            throughput regained :data:`RECOVERY_THRESHOLD` of the
            pre-fault level; ``0.0`` if it never dipped, ``inf`` if it
            never recovered, ``None`` for clean runs.
    """

    variant: str
    policy: str
    intensity: float
    failed: bool = False
    error: Optional[str] = None
    throughput: float = math.nan
    fairness: float = math.nan
    throughput_retention: float = math.nan
    fairness_retention: float = math.nan
    recovery_time_s: Optional[float] = None


@dataclass(frozen=True)
class ResilienceResult:
    """The full sweep: one :class:`VariantOutcome` per cell."""

    mix_label: str
    intensities: Tuple[float, ...]
    outcomes: Tuple[VariantOutcome, ...]

    def variant(self, name: str) -> List[VariantOutcome]:
        """One variant's outcomes ordered by intensity."""
        rows = [o for o in self.outcomes if o.variant == name]
        if not rows:
            have = sorted({o.variant for o in self.outcomes})
            raise ExperimentError(f"no outcomes for variant {name!r}; have {have}")
        return sorted(rows, key=lambda o: o.intensity)

    def cell(self, name: str, intensity: float) -> VariantOutcome:
        """The outcome for one (variant, intensity) pair."""
        for outcome in self.variant(name):
            if outcome.intensity == intensity:
                return outcome
        raise ExperimentError(
            f"variant {name!r} has no intensity {intensity}; have {self.intensities}"
        )


def recovery_time_s(result: RunResult) -> Optional[float]:
    """Time from the last injected fault until throughput recovers.

    Reads the run's ``faults_active`` telemetry trail (present whenever
    the run had a fault schedule). The pre-fault reference is the mean
    throughput before the first fault-active interval; recovery is the
    first post-fault time where the :data:`RECOVERY_WINDOW`-interval
    rolling mean regains :data:`RECOVERY_THRESHOLD` of that reference.

    Returns ``None`` for clean runs (no trail or no fault ever
    active), ``0.0`` when throughput never dipped below the threshold,
    and ``inf`` when the run ends still degraded.
    """
    telemetry = result.telemetry
    try:
        active = telemetry.series("faults_active")
    except ExperimentError:
        return None
    faulted = np.asarray(active) > 0
    if not faulted.any():
        return None
    times = telemetry.series("time")
    throughput = telemetry.series("throughput")
    first = int(np.argmax(faulted))
    last = len(faulted) - 1 - int(np.argmax(faulted[::-1]))
    pre = throughput[:first] if first > 0 else throughput[: first + 1]
    target = RECOVERY_THRESHOLD * float(np.mean(pre))
    for i in range(last + 1, len(throughput)):
        lo = max(last + 1, i - RECOVERY_WINDOW + 1)
        if float(np.mean(throughput[lo : i + 1])) >= target:
            return float(times[i] - times[last])
    return math.inf


def resilience_specs(
    mix: JobMix,
    catalog: Optional[ResourceCatalog] = None,
    run_config: Optional[RunConfig] = None,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    seed: SeedLike = 0,
) -> List[Tuple[str, float, RunSpec]]:
    """The sweep's ``(variant, intensity, spec)`` cells.

    Intensity ``0.0`` is forced into the grid: every variant needs its
    own clean reference for retention scoring. All specs share one base
    seed, so the clean runs double as cache-shared references for any
    other driver using the same methodology.
    """
    catalog = catalog or experiment_catalog()
    run_config = run_config or RunConfig()
    levels = sorted({float(level) for level in intensities} | {0.0})
    seed_int = seed_to_int(seed)
    cells: List[Tuple[str, float, RunSpec]] = []
    for variant, policy, kwargs in RESILIENCE_VARIANTS:
        for level in levels:
            spec = RunSpec(
                mix=mix,
                policy=policy,
                catalog=catalog,
                policy_kwargs=dict(kwargs),
                run_config=run_config,
                seed=seed_int,
                fault_plan=moderate_fault_plan(level, run_config.duration_s),
            )
            cells.append((variant, level, spec))
    return cells


def resilience_sweep(
    mix: JobMix,
    catalog: Optional[ResourceCatalog] = None,
    run_config: Optional[RunConfig] = None,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    seed: SeedLike = 0,
    engine: Optional[ExecutionEngine] = None,
) -> ResilienceResult:
    """Sweep fault intensity across the resilience variants on one mix.

    All cells are submitted as one engine batch with
    ``on_error="record"`` so a variant that dies under faults shows up
    as a failed :class:`VariantOutcome` rather than aborting the sweep.

    Args:
        engine: execution engine; defaults to a fresh serial engine.
            Pass a parallel/cached one to fan the grid out.
    """
    engine = engine or ExecutionEngine()
    cells = resilience_specs(mix, catalog, run_config, intensities, seed)
    results = engine.run([spec for _, _, spec in cells], on_error="record")

    clean: Dict[str, RunResult] = {}
    for (variant, level, _), result in zip(cells, results):
        if level == 0.0 and isinstance(result, RunResult):
            clean[variant] = result

    outcomes: List[VariantOutcome] = []
    for (variant, level, spec), result in zip(cells, results):
        if isinstance(result, RunError):
            outcomes.append(
                VariantOutcome(
                    variant=variant,
                    policy=spec.policy,
                    intensity=level,
                    failed=True,
                    error=result.error,
                )
            )
            continue
        reference = clean.get(variant)
        outcomes.append(
            VariantOutcome(
                variant=variant,
                policy=spec.policy,
                intensity=level,
                throughput=result.throughput,
                fairness=result.fairness,
                throughput_retention=_retention(result.throughput, reference, "throughput"),
                fairness_retention=_retention(result.fairness, reference, "fairness"),
                recovery_time_s=recovery_time_s(result),
            )
        )
    levels = tuple(sorted({level for _, level, _ in cells}))
    return ResilienceResult(mix_label=mix.label, intensities=levels, outcomes=tuple(outcomes))


def _retention(value: float, reference: Optional[RunResult], attribute: str) -> float:
    """``value`` as a fraction of the clean reference's score."""
    if reference is None:
        return math.nan
    baseline = getattr(reference, attribute)
    if not np.isfinite(baseline) or baseline <= 0:
        return math.nan
    return float(value / baseline)
