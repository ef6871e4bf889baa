"""Multi-policy comparisons normalized to the Balanced Oracle.

The paper presents all evaluation results "as % of Balanced Oracle
(i.e., % distance from the theoretical optimal)" (Sec. IV). This
module describes every competing policy run on a mix (or a list of
mixes) as :class:`~repro.engine.RunSpec` jobs, submits them to an
:class:`~repro.engine.ExecutionEngine` — parallel and cache-aware —
and reports normalized throughput and fairness, the data behind
Figs. 7-13. The Balanced Oracle reference run is itself a spec, so the
engine's cache shares it across every driver that normalizes against
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine import ExecutionEngine, RunSpec
from repro.errors import ExperimentError
from repro.metrics.goals import GoalSet
from repro.policies.registry import policy_names
from repro.resources.space import ConfigurationSpace
from repro.resources.types import CORES, LLC_WAYS, MEMORY_BANDWIDTH, ResourceCatalog
from repro.rng import SeedLike, make_rng
from repro.experiments.runner import RunConfig, RunResult, experiment_catalog
from repro.workloads.mixes import JobMix

#: Canonical policy order used in tables (mirrors Fig. 7's x axis).
STANDARD_POLICY_ORDER = ("Random", "dCAT", "CoPart", "PARTIES", "SATORI")

#: Balanced Oracle weights (the normalization ceiling).
_ORACLE_KWARGS = {"w_throughput": 0.5, "w_fairness": 0.5}


@dataclass(frozen=True)
class PolicyScore:
    """One policy's scores on one mix, normalized to the Balanced Oracle."""

    policy_name: str
    mix_label: str
    throughput: float
    fairness: float
    worst_job_speedup: float
    throughput_vs_oracle: float
    fairness_vs_oracle: float
    worst_job_vs_oracle: float


@dataclass(frozen=True)
class MixComparison:
    """All policies' scores on one mix plus the oracle reference."""

    mix_label: str
    oracle: RunResult
    scores: Dict[str, PolicyScore]

    def score(self, policy_name: str) -> PolicyScore:
        try:
            return self.scores[policy_name]
        except KeyError:
            raise ExperimentError(
                f"no score for {policy_name!r}; have {sorted(self.scores)}"
            ) from None


def full_space(catalog: ResourceCatalog, n_jobs: int) -> ConfigurationSpace:
    """Space over the three paper resources (cores, LLC, bandwidth)."""
    return ConfigurationSpace(catalog.subset([CORES, LLC_WAYS, MEMORY_BANDWIDTH]), n_jobs)


def seed_to_int(seed: SeedLike) -> int:
    """Collapse a SeedLike into the integer a :class:`RunSpec` carries.

    Integers pass through unchanged (the reproducible path); a
    generator or ``None`` draws one value, preserving the "no seed =
    fresh randomness" convention of the legacy drivers.
    """
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        return int(seed)
    return int(make_rng(seed).integers(0, 2**63 - 1))


def comparison_specs(
    mix: JobMix,
    catalog: Optional[ResourceCatalog] = None,
    run_config: Optional[RunConfig] = None,
    goals: Optional[GoalSet] = None,
    seed: SeedLike = 0,
    include: Sequence[str] = STANDARD_POLICY_ORDER,
) -> Tuple[RunSpec, Dict[str, RunSpec]]:
    """The Balanced Oracle spec plus one spec per included policy.

    The returned specs fully determine the comparison: submitting them
    to any engine — serial, parallel, cached — yields bit-identical
    :class:`MixComparison` tables.
    """
    catalog = catalog or experiment_catalog()
    run_config = run_config or RunConfig()
    goals = goals or GoalSet()
    known = set(policy_names())
    unknown = set(include) - known
    if unknown:
        raise ExperimentError(f"unknown policies {sorted(unknown)}; have {sorted(known)}")
    base = dict(
        mix=mix,
        catalog=catalog,
        run_config=run_config,
        goals=(goals.throughput_metric, goals.fairness_metric),
        seed=seed_to_int(seed),
    )
    oracle = RunSpec(policy="Oracle", policy_kwargs=_ORACLE_KWARGS, **base)
    return oracle, {name: RunSpec(policy=name, **base) for name in include}


def compare_on_mix(
    mix: JobMix,
    catalog: Optional[ResourceCatalog] = None,
    run_config: Optional[RunConfig] = None,
    goals: Optional[GoalSet] = None,
    seed: SeedLike = 0,
    include: Sequence[str] = STANDARD_POLICY_ORDER,
) -> MixComparison:
    """Run the standard policies plus the Balanced Oracle on one mix.

    The specs from :func:`comparison_specs` run as one batch on a
    serial engine.
    """
    oracle_spec, policy_specs = comparison_specs(mix, catalog, run_config, goals, seed, include)
    oracle, *results = ExecutionEngine().run([oracle_spec, *policy_specs.values()])
    scores = {name: _normalize(result, oracle) for name, result in zip(policy_specs, results)}
    return MixComparison(mix_label=mix.label, oracle=oracle, scores=scores)


def compare_on_mixes(
    mixes: Sequence[JobMix],
    catalog: Optional[ResourceCatalog] = None,
    run_config: Optional[RunConfig] = None,
    seed: SeedLike = 0,
    include: Sequence[str] = STANDARD_POLICY_ORDER,
    engine: Optional[ExecutionEngine] = None,
) -> List[MixComparison]:
    """Run :func:`compare_on_mix` over a list of mixes (Figs. 8, 10, 11).

    All runs across all mixes are submitted as one engine batch, so a
    parallel engine interleaves them freely; per-run noise depends
    only on each spec's content, never on the mix order.
    """
    engine = engine or ExecutionEngine()
    seed_int = seed_to_int(seed)

    per_mix: List[Tuple[JobMix, RunSpec, Dict[str, RunSpec]]] = []
    flat: List[RunSpec] = []
    for mix in mixes:
        oracle_spec, policy_specs = comparison_specs(
            mix, catalog, run_config, seed=seed_int, include=include
        )
        per_mix.append((mix, oracle_spec, policy_specs))
        flat.extend([oracle_spec, *policy_specs.values()])

    results = engine.run(flat)

    comparisons: List[MixComparison] = []
    cursor = 0
    for mix, _oracle_spec, policy_specs in per_mix:
        oracle = results[cursor]
        cursor += 1
        scores: Dict[str, PolicyScore] = {}
        for name in policy_specs:
            scores[name] = _normalize(results[cursor], oracle)
            cursor += 1
        comparisons.append(MixComparison(mix_label=mix.label, oracle=oracle, scores=scores))
    return comparisons


def aggregate(
    comparisons: Sequence[MixComparison],
    policy_names: Optional[Sequence[str]] = None,
) -> Dict[str, Tuple[float, float]]:
    """Mean (throughput%, fairness%) of Balanced Oracle per policy.

    The aggregation behind Figs. 7, 12, 13.
    """
    if not comparisons:
        raise ExperimentError("no comparisons to aggregate")
    names = policy_names or sorted(comparisons[0].scores)
    result = {}
    for name in names:
        t = np.mean([c.score(name).throughput_vs_oracle for c in comparisons])
        f = np.mean([c.score(name).fairness_vs_oracle for c in comparisons])
        result[name] = (float(t), float(f))
    return result


def _normalize(result: RunResult, oracle: RunResult) -> PolicyScore:
    oracle_t = max(oracle.throughput, 1e-12)
    oracle_f = max(oracle.fairness, 1e-12)
    oracle_w = max(oracle.worst_job_speedup, 1e-12)
    return PolicyScore(
        policy_name=result.policy_name,
        mix_label=result.mix_label,
        throughput=result.throughput,
        fairness=result.fairness,
        worst_job_speedup=result.worst_job_speedup,
        throughput_vs_oracle=100.0 * result.throughput / oracle_t,
        fairness_vs_oracle=100.0 * result.fairness / oracle_f,
        worst_job_vs_oracle=100.0 * result.worst_job_speedup / oracle_w,
    )
