"""Ablation experiments (Sec. V "source of SATORI's benefits" + design choices).

* Resource-subset ablation: SATORI restricted to dCAT's resource set
  (LLC only) still beats dCAT (+4 pts T / +5 pts F in the paper), and
  restricted to CoPart's set (LLC + bandwidth) still beats CoPart
  (+7 / +4) — SATORI's advantage is the search, not merely the wider
  knob set.
* Acquisition-function and kernel ablations for the design choices
  DESIGN.md calls out (EI + Matérn 5/2 vs the alternatives).

Every variant is expressed as :class:`~repro.engine.RunSpec` policy
kwargs (``resources``, ``acquisition``, ``kernel`` by name), so the
ablations are plain engine batches and share the Balanced Oracle run
with every other driver through the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.engine import ExecutionEngine, RunSpec
from repro.resources.types import LLC_WAYS, MEMORY_BANDWIDTH, ResourceCatalog
from repro.rng import SeedLike
from repro.experiments.comparison import seed_to_int
from repro.experiments.runner import RunConfig, experiment_catalog
from repro.workloads.mixes import JobMix


@dataclass(frozen=True)
class SubsetAblationResult:
    """SATORI vs the baseline that controls the same resource subset."""

    mix_label: str
    resources: Tuple[str, ...]
    satori_throughput: float
    satori_fairness: float
    baseline_name: str
    baseline_throughput: float
    baseline_fairness: float

    @property
    def throughput_gap_points(self) -> float:
        return self.satori_throughput - self.baseline_throughput

    @property
    def fairness_gap_points(self) -> float:
        return self.satori_fairness - self.baseline_fairness


def _base_fields(mix, catalog, run_config, seed) -> dict:
    return dict(
        mix=mix,
        catalog=catalog,
        run_config=run_config or RunConfig(),
        seed=seed_to_int(seed),
    )


def _oracle_spec(base: dict) -> RunSpec:
    return RunSpec(
        policy="Oracle", policy_kwargs={"w_throughput": 0.5, "w_fairness": 0.5}, **base
    )


def resource_subset_ablation(
    mix: JobMix,
    subset: Sequence[str],
    catalog: Optional[ResourceCatalog] = None,
    run_config: Optional[RunConfig] = None,
    seed: SeedLike = 0,
    engine: Optional[ExecutionEngine] = None,
) -> SubsetAblationResult:
    """Compare SATORI-on-a-subset against the matching baseline.

    ``subset`` must be dCAT's (``[LLC_WAYS]``) or CoPart's
    (``[LLC_WAYS, MEMORY_BANDWIDTH]``) resource set. Scores are % of
    the Balanced Oracle (which still searches all resources — the
    same normalization the paper uses).
    """
    catalog = catalog or experiment_catalog()
    engine = engine or ExecutionEngine()
    subset = tuple(subset)

    if set(subset) == {LLC_WAYS}:
        baseline_policy = "dCAT"
    elif set(subset) == {LLC_WAYS, MEMORY_BANDWIDTH}:
        baseline_policy = "CoPart"
    else:
        raise ValueError(f"no matching baseline for resource subset {subset}")

    base = _base_fields(mix, catalog, run_config, seed)
    oracle, satori_result, baseline_result = engine.run(
        [
            _oracle_spec(base),
            RunSpec(policy="SATORI", policy_kwargs={"resources": subset}, **base),
            RunSpec(policy=baseline_policy, **base),
        ]
    )

    to_pct = lambda v, ref: 100.0 * v / max(ref, 1e-12)
    return SubsetAblationResult(
        mix_label=mix.label,
        resources=subset,
        satori_throughput=to_pct(satori_result.throughput, oracle.throughput),
        satori_fairness=to_pct(satori_result.fairness, oracle.fairness),
        baseline_name=baseline_result.policy_name,
        baseline_throughput=to_pct(baseline_result.throughput, oracle.throughput),
        baseline_fairness=to_pct(baseline_result.fairness, oracle.fairness),
    )


@dataclass(frozen=True)
class DesignChoiceResult:
    """Scores of SATORI under alternative BO design choices."""

    mix_label: str
    #: variant label -> (throughput % of oracle, fairness % of oracle).
    scores: Dict[str, Tuple[float, float]]


def bo_design_ablation(
    mix: JobMix,
    catalog: Optional[ResourceCatalog] = None,
    run_config: Optional[RunConfig] = None,
    seed: SeedLike = 0,
) -> DesignChoiceResult:
    """Swap the acquisition function and kernel (DESIGN.md ablations)."""
    catalog = catalog or experiment_catalog()

    variants = {
        "EI + Matern52 (paper)": dict(acquisition="ei", kernel="matern52"),
        "PI + Matern52": dict(acquisition="pi", kernel="matern52"),
        "UCB + Matern52": dict(acquisition="ucb", kernel="matern52"),
        "EI + RBF": dict(acquisition="ei", kernel="rbf"),
    }
    base = _base_fields(mix, catalog, run_config, seed)
    results = ExecutionEngine().run(
        [
            _oracle_spec(base),
            *(
                RunSpec(policy="SATORI", policy_kwargs=kwargs, **base)
                for kwargs in variants.values()
            ),
        ]
    )
    oracle = results[0]
    scores: Dict[str, Tuple[float, float]] = {
        label: (
            100.0 * result.throughput / max(oracle.throughput, 1e-12),
            100.0 * result.fairness / max(oracle.fairness, 1e-12),
        )
        for label, result in zip(variants, results[1:])
    }
    return DesignChoiceResult(mix_label=mix.label, scores=scores)
