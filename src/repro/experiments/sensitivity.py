"""Parameter-sensitivity experiments (Fig. 16).

Sweeps SATORI's two tunables — the prioritization period ``T_P`` and
the equalization period ``T_E`` — and reports throughput/fairness as
% of the Balanced Oracle. The paper's finding: performance is flat
across a wide range and only degrades for very long periods
(``T_P > 5 s``, ``T_E > 30 s``), i.e. SATORI does not need tuning.

Every sweep point is a :class:`~repro.engine.RunSpec` (SATORI with the
periods as policy kwargs), so the whole sweep is one engine batch: the
points run in parallel and repeat visits to the same setting hit the
cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.engine import ExecutionEngine, RunSpec
from repro.resources.types import ResourceCatalog
from repro.rng import SeedLike
from repro.experiments.comparison import seed_to_int
from repro.experiments.runner import RunConfig, RunResult, experiment_catalog
from repro.workloads.mixes import JobMix

#: Paper-style sweep points (seconds).
DEFAULT_PRIORITIZATION_SWEEP = (0.5, 1.0, 2.0, 5.0, 10.0)
DEFAULT_EQUALIZATION_SWEEP = (5.0, 10.0, 20.0, 30.0, 60.0)


@dataclass(frozen=True)
class SweepPoint:
    """One sweep setting with its normalized scores."""

    value_s: float
    throughput_vs_oracle: float
    fairness_vs_oracle: float


@dataclass(frozen=True)
class SensitivityResult:
    """Fig. 16 data: scores across T_P and T_E sweeps."""

    mix_label: str
    prioritization: List[SweepPoint]
    equalization: List[SweepPoint]

    @staticmethod
    def _spread(points: Sequence[SweepPoint]) -> float:
        ts = [p.throughput_vs_oracle for p in points]
        fs = [p.fairness_vs_oracle for p in points]
        return max(max(ts) - min(ts), max(fs) - min(fs))

    def prioritization_spread(self) -> float:
        """Max %-point spread across the T_P sweep (low = insensitive)."""
        return self._spread(self.prioritization)

    def equalization_spread(self) -> float:
        return self._spread(self.equalization)


def period_sensitivity(
    mix: JobMix,
    catalog: Optional[ResourceCatalog] = None,
    run_config: Optional[RunConfig] = None,
    seed: SeedLike = 0,
    prioritization_sweep: Sequence[float] = DEFAULT_PRIORITIZATION_SWEEP,
    equalization_sweep: Sequence[float] = DEFAULT_EQUALIZATION_SWEEP,
    engine: Optional[ExecutionEngine] = None,
) -> SensitivityResult:
    """Sweep T_P (at T_E=10 s) and T_E (at T_P=1 s) on one mix."""
    catalog = catalog or experiment_catalog()
    run_config = run_config or RunConfig()
    engine = engine or ExecutionEngine()

    base = dict(mix=mix, catalog=catalog, run_config=run_config, seed=seed_to_int(seed))

    def satori_spec(t_p: float, t_e: float) -> RunSpec:
        return RunSpec(
            policy="SATORI",
            policy_kwargs={
                "prioritization_period_s": float(t_p),
                "equalization_period_s": float(t_e),
            },
            **base,
        )

    oracle_spec = RunSpec(
        policy="Oracle", policy_kwargs={"w_throughput": 0.5, "w_fairness": 0.5}, **base
    )
    p_specs = [satori_spec(t_p, max(10.0, t_p)) for t_p in prioritization_sweep]
    e_specs = [satori_spec(min(1.0, t_e), t_e) for t_e in equalization_sweep]

    results = engine.run([oracle_spec, *p_specs, *e_specs])
    oracle = results[0]
    n_p = len(p_specs)

    def score(result: RunResult) -> Tuple[float, float]:
        return (
            100.0 * result.throughput / max(oracle.throughput, 1e-12),
            100.0 * result.fairness / max(oracle.fairness, 1e-12),
        )

    prioritization = [
        SweepPoint(t_p, *score(result))
        for t_p, result in zip(prioritization_sweep, results[1 : 1 + n_p])
    ]
    equalization = [
        SweepPoint(t_e, *score(result))
        for t_e, result in zip(equalization_sweep, results[1 + n_p :])
    ]

    return SensitivityResult(
        mix_label=mix.label, prioritization=prioritization, equalization=equalization
    )
