"""Single-goal SATORI variants vs their oracles (Fig. 7's right half).

Sec. IV defines Throughput SATORI (W_T=1, W_F=0) and Fairness SATORI
(W_T=0, W_F=1) "to quantify the limits of SATORI when optimizing a
single goal". Fig. 7 shows each variant exceeding full SATORI on its
own goal and approaching the corresponding single-goal Oracle.

All six runs (three SATORI modes, three Oracle weightings) are one
engine batch; the SATORI mode and the Oracle weights are policy kwargs
in the run specs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.engine import ExecutionEngine, RunSpec
from repro.resources.types import ResourceCatalog
from repro.rng import SeedLike
from repro.experiments.comparison import seed_to_int
from repro.experiments.runner import RunConfig, RunResult, experiment_catalog
from repro.workloads.mixes import JobMix


@dataclass(frozen=True)
class VariantLimitsResult:
    """Full SATORI, single-goal variants, and the three oracles on one mix."""

    mix_label: str
    satori: RunResult
    throughput_satori: RunResult
    fairness_satori: RunResult
    balanced_oracle: RunResult
    throughput_oracle: RunResult
    fairness_oracle: RunResult

    @property
    def throughput_variant_ratio(self) -> float:
        """Throughput SATORI's throughput as a fraction of its oracle's."""
        return self.throughput_satori.throughput / max(
            self.throughput_oracle.throughput, 1e-12
        )

    @property
    def fairness_variant_ratio(self) -> float:
        """Fairness SATORI's fairness as a fraction of its oracle's."""
        return self.fairness_satori.fairness / max(self.fairness_oracle.fairness, 1e-12)


def single_goal_limits(
    mix: JobMix,
    catalog: Optional[ResourceCatalog] = None,
    run_config: Optional[RunConfig] = None,
    seed: SeedLike = 0,
) -> VariantLimitsResult:
    """Run all SATORI variants and all Oracle variants on one mix."""
    catalog = catalog or experiment_catalog()
    run_config = run_config or RunConfig()

    base = dict(mix=mix, catalog=catalog, run_config=run_config, seed=seed_to_int(seed))

    def satori(mode: str) -> RunSpec:
        return RunSpec(policy="SATORI", policy_kwargs={"mode": mode}, **base)

    def oracle(w_t: float, w_f: float) -> RunSpec:
        return RunSpec(
            policy="Oracle",
            policy_kwargs={"w_throughput": w_t, "w_fairness": w_f},
            **base,
        )

    results = ExecutionEngine().run(
        [
            satori("dynamic"),
            satori("throughput"),
            satori("fairness"),
            oracle(0.5, 0.5),
            oracle(1.0, 0.0),
            oracle(0.0, 1.0),
        ]
    )
    return VariantLimitsResult(
        mix_label=mix.label,
        satori=results[0],
        throughput_satori=results[1],
        fairness_satori=results[2],
        balanced_oracle=results[3],
        throughput_oracle=results[4],
        fairness_oracle=results[5],
    )
