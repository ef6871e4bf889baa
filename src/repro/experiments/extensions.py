"""Extension experiments beyond the paper's main evaluation.

The conclusion claims SATORI "can effectively handle computing cores,
LLC ways, memory bandwidth, and **power-cap** resources"; Sec. III
claims the objective is extensible to more goals. These drivers
exercise both claims:

* :func:`power_capped_partitioning` — a four-resource configuration
  space (cores + LLC + bandwidth + RAPL power units). SATORI
  partitions all four jointly; the comparison shows it recovers the
  performance lost to an aggressive package power cap better than a
  power-oblivious equal split.
* :func:`metric_sweep` — re-runs a comparison under alternative
  throughput/fairness metric choices (Sec. IV: "SATORI provides
  similar improvements over competing techniques for other
  commonly-used objective metrics").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.controller import SatoriController
from repro.metrics.goals import GoalSet
from repro.policies.static import EqualPartitionPolicy
from repro.resources.space import ConfigurationSpace
from repro.resources.types import Resource, ResourceCatalog, ResourceKind
from repro.rng import SeedLike, make_rng, spawn_rng
from repro.experiments.comparison import compare_on_mix
from repro.experiments.runner import RunConfig, RunResult, experiment_catalog, run_policy
from repro.workloads.mixes import JobMix


def power_catalog(units: int = 8, power_units: int = 8) -> ResourceCatalog:
    """A four-resource catalog: the experiment catalog plus RAPL units."""
    base = experiment_catalog(units)
    resources = list(base)
    resources.append(
        Resource(ResourceKind.POWER, power_units, unit_capacity=85.0 / power_units)
    )
    return ResourceCatalog(resources)


@dataclass(frozen=True)
class PowerExtensionResult:
    """SATORI with and without power partitioning under a power cap."""

    mix_label: str
    satori_four_resource: RunResult
    equal_partition: RunResult

    @property
    def throughput_gain_percent(self) -> float:
        return 100.0 * (
            self.satori_four_resource.throughput / max(self.equal_partition.throughput, 1e-12)
            - 1.0
        )

    @property
    def fairness_gain_percent(self) -> float:
        return 100.0 * (
            self.satori_four_resource.fairness / max(self.equal_partition.fairness, 1e-12) - 1.0
        )


def power_capped_partitioning(
    mix: JobMix,
    run_config: Optional[RunConfig] = None,
    seed: SeedLike = 0,
    units: int = 8,
) -> PowerExtensionResult:
    """Partition four resources (incl. power) with SATORI.

    Both policies run on the same power-constrained server; the
    comparison isolates the value of *managing* the power budget
    jointly with the other resources.
    """
    catalog = power_catalog(units)
    rng = make_rng(seed)
    space = ConfigurationSpace(catalog, len(mix))

    satori = SatoriController(space, rng=spawn_rng(rng))
    satori_result = run_policy(satori, mix, catalog, run_config, seed=spawn_rng(rng))

    equal = EqualPartitionPolicy(space)
    equal_result = run_policy(equal, mix, catalog, run_config, seed=spawn_rng(rng))

    return PowerExtensionResult(
        mix_label=mix.label,
        satori_four_resource=satori_result,
        equal_partition=equal_result,
    )


def metric_sweep(
    mix: JobMix,
    run_config: Optional[RunConfig] = None,
    seed: SeedLike = 0,
    throughput_metrics: Sequence[str] = ("sum_ips", "geometric_mean", "harmonic_mean"),
    fairness_metrics: Sequence[str] = ("jain", "one_minus_cov"),
    include: Sequence[str] = ("PARTIES", "SATORI"),
) -> Dict[Tuple[str, str], Dict[str, Tuple[float, float]]]:
    """SATORI-vs-baseline comparison under every metric combination.

    Returns:
        mapping ``(throughput_metric, fairness_metric)`` to a mapping
        of policy name to its (throughput %, fairness %) of the
        Balanced Oracle under those metrics.
    """
    catalog = experiment_catalog()
    rng = make_rng(seed)
    results: Dict[Tuple[str, str], Dict[str, Tuple[float, float]]] = {}
    for throughput_metric in throughput_metrics:
        for fairness_metric in fairness_metrics:
            goals = GoalSet(throughput_metric, fairness_metric)
            comparison = compare_on_mix(
                mix,
                catalog=catalog,
                run_config=run_config,
                goals=goals,
                seed=spawn_rng(rng),
                include=include,
            )
            results[(throughput_metric, fairness_metric)] = {
                name: (
                    comparison.score(name).throughput_vs_oracle,
                    comparison.score(name).fairness_vs_oracle,
                )
                for name in include
            }
    return results
