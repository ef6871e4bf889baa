"""Sec. II characterization experiments (Figs. 1-3, Observations 1-3).

These drivers reproduce the paper's motivating measurements:

* Fig. 1 — the throughput-optimal configuration changes significantly
  and frequently over time (Observation 1);
* Fig. 2 — throughput-optimal and fairness-optimal configurations are
  far apart, and each is poor at the other goal; naive compromises
  (averaging the two optima, alternating between them) stay well
  below the Balanced Oracle (Observation 2);
* Fig. 3 — at different times, the same throughput sacrifice buys
  fairness in different directions, so temporally re-balancing the
  goals yields net gains (Observation 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ExperimentError
from repro.policies.oracle import OracleSearch
from repro.resources.allocation import Configuration
from repro.resources.types import ResourceCatalog
from repro.rng import SeedLike, make_rng
from repro.experiments.runner import experiment_catalog
from repro.workloads.mixes import JobMix


@dataclass(frozen=True)
class DriftResult:
    """Fig. 1 data: the throughput-optimal configuration over time."""

    times: np.ndarray
    #: resource name -> (n_times, n_jobs) array of optimal unit shares (%).
    shares: Dict[str, np.ndarray]
    configs: List[Configuration]

    def max_share_change_percent(self) -> float:
        """Largest percentage-point swing of any job's share of any resource."""
        worst = 0.0
        for series in self.shares.values():
            swing = series.max(axis=0) - series.min(axis=0)
            worst = max(worst, float(swing.max()))
        return worst

    def n_distinct_configs(self) -> int:
        return len(set(self.configs))


def optimal_configuration_drift(
    mix: JobMix,
    catalog: Optional[ResourceCatalog] = None,
    duration_s: float = 12.0,
    step_s: float = 0.5,
) -> DriftResult:
    """Track the Throughput Oracle's configuration over time (Fig. 1)."""
    catalog = catalog or experiment_catalog()
    search = OracleSearch(mix, catalog)
    times = np.arange(0.0, duration_s, step_s)
    configs = [search.best(float(t), 1.0, 0.0).config for t in times]

    shares: Dict[str, np.ndarray] = {}
    for name in search.space.resource_names:
        total = catalog.get(name).units
        shares[name] = np.array(
            [[100.0 * u / total for u in c.units(name)] for c in configs]
        )
    return DriftResult(times=times, shares=shares, configs=configs)


@dataclass(frozen=True)
class GoalGapResult:
    """Fig. 2 / Observation 2 data at one point in time."""

    time_s: float
    throughput_opt: Tuple[float, float]  # (T, F) of the throughput-optimal config
    fairness_opt: Tuple[float, float]
    balanced_opt: Tuple[float, float]
    average_config: Tuple[float, float]  # "average of the two optima" strategy
    alternating: Tuple[float, float]  # half-time T-opt, half-time F-opt
    config_distance: float  # distance between the two optimal configs
    max_distance: float

    @property
    def cross_fairness_ratio(self) -> float:
        """Fairness of T-opt as a fraction of F-opt's fairness (paper: 67%)."""
        return self.throughput_opt[1] / max(self.fairness_opt[1], 1e-12)

    @property
    def cross_throughput_ratio(self) -> float:
        """Throughput of F-opt as a fraction of T-opt's (paper: 59%)."""
        return self.fairness_opt[0] / max(self.throughput_opt[0], 1e-12)


def conflicting_goal_gap(
    mix: JobMix,
    catalog: Optional[ResourceCatalog] = None,
    time_s: float = 0.0,
) -> GoalGapResult:
    """Quantify the throughput/fairness optimum gap at one time (Fig. 2)."""
    catalog = catalog or experiment_catalog()
    search = OracleSearch(mix, catalog)

    t_opt = search.best(time_s, 1.0, 0.0)
    f_opt = search.best(time_s, 0.0, 1.0)
    balanced = search.best(time_s, 0.5, 0.5)

    avg_config = _average_configuration(t_opt.config, f_opt.config, catalog)
    avg_scores = search.evaluate(avg_config, time_s)
    alternating = (
        0.5 * (t_opt.throughput + f_opt.throughput),
        0.5 * (t_opt.fairness + f_opt.fairness),
    )
    vec_t = t_opt.config.as_vector()
    vec_f = f_opt.config.as_vector()
    max_distance = _max_configuration_distance(catalog, len(mix))

    return GoalGapResult(
        time_s=time_s,
        throughput_opt=(t_opt.throughput, t_opt.fairness),
        fairness_opt=(f_opt.throughput, f_opt.fairness),
        balanced_opt=(balanced.throughput, balanced.fairness),
        average_config=avg_scores,
        alternating=alternating,
        config_distance=float(np.linalg.norm(vec_t - vec_f)),
        max_distance=max_distance,
    )


@dataclass(frozen=True)
class RebalancingExample:
    """Fig. 3 evidence: matched throughput deltas, opposite fairness deltas."""

    time_a: float
    time_b: float
    throughput_delta_a: float
    throughput_delta_b: float
    fairness_delta_a: float
    fairness_delta_b: float

    @property
    def demonstrates_opportunity(self) -> bool:
        """Similar throughput deltas, fairness deltas in opposite directions."""
        return self.fairness_delta_a * self.fairness_delta_b < 0


def rebalancing_opportunity(
    mix: JobMix,
    catalog: Optional[ResourceCatalog] = None,
    n_samples: int = 120,
    rng: SeedLike = 7,
) -> Optional[RebalancingExample]:
    """Search for a Fig. 3-style re-balancing opportunity.

    Samples configuration pairs at four candidate times, then looks for
    two times where a pair exists with (a) throughput differences
    within 25% of each other but (b) fairness differences of opposite
    sign. Returns ``None`` only if no example exists among the samples
    (in practice the opportunity is plentiful, which is the point of
    Observation 3).
    """
    catalog = catalog or experiment_catalog()
    search = OracleSearch(mix, catalog)
    times = (0.5, 3.5, 5.5, 8.5)
    rng = make_rng(rng)
    configs = search.space.sample_batch(n_samples, rng)

    # Per time: list of (dT, dF) for consecutive config pairs.
    deltas: Dict[float, List[Tuple[float, float]]] = {}
    for t in times:
        pairs = []
        throughput, fairness = search.evaluate_batch(configs, t)
        throughput, fairness = throughput.tolist(), fairness.tolist()
        for i in range(0, len(configs) - 1, 2):
            pairs.append((throughput[i + 1] - throughput[i], fairness[i + 1] - fairness[i]))
        deltas[t] = pairs

    best: Optional[RebalancingExample] = None
    for ia, ta in enumerate(times):
        for tb in times[ia + 1 :]:
            for dta, dfa in deltas[ta]:
                if abs(dta) < 1e-4:
                    continue
                for dtb, dfb in deltas[tb]:
                    if dfa * dfb >= 0:
                        continue
                    if abs(dtb - dta) > 0.25 * abs(dta):
                        continue
                    example = RebalancingExample(
                        time_a=ta,
                        time_b=tb,
                        throughput_delta_a=dta,
                        throughput_delta_b=dtb,
                        fairness_delta_a=dfa,
                        fairness_delta_b=dfb,
                    )
                    if best is None or abs(example.fairness_delta_a) + abs(
                        example.fairness_delta_b
                    ) > abs(best.fairness_delta_a) + abs(best.fairness_delta_b):
                        best = example
    return best


def _average_configuration(
    a: Configuration, b: Configuration, catalog: ResourceCatalog
) -> Configuration:
    """Round the element-wise mean of two configurations and repair sums.

    Implements the hypothetical "average of the optimal configurations
    for both goals" strategy of Observation 2.
    """
    allocations = {}
    for name in a.resource_names:
        resource = catalog.get(name)
        mean = (np.asarray(a.units(name), dtype=float) + np.asarray(b.units(name))) / 2.0
        units = np.maximum(np.round(mean).astype(int), resource.min_units)
        # Repair the sum by adjusting the jobs with the largest rounding slack.
        diff = resource.units - int(units.sum())
        order = np.argsort(mean - units)  # most under-rounded last
        idx = 0
        while diff != 0:
            j = int(order[-1 - (idx % len(units))]) if diff > 0 else int(order[idx % len(units)])
            if diff > 0:
                units[j] += 1
                diff -= 1
            elif units[j] - 1 >= resource.min_units:
                units[j] -= 1
                diff += 1
            idx += 1
            if idx > 10 * len(units):
                raise ExperimentError("failed to repair averaged configuration")
        allocations[name] = tuple(int(u) for u in units)
    return Configuration(allocations)


def _max_configuration_distance(catalog: ResourceCatalog, n_jobs: int) -> float:
    """Largest possible distance between two configurations (paper: 13).

    Achieved between two single-job-takes-all configurations with
    different beneficiaries: per resource, two coordinates differ by
    ``units - n_jobs * min - ...``; computed exactly by construction.
    """
    total = 0.0
    for resource in catalog:
        spread = resource.units - n_jobs * resource.min_units
        # Donor loses `spread`, receiver gains `spread`.
        total += 2 * float(spread) ** 2
    return float(np.sqrt(total))
