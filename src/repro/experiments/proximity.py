"""Configuration-proximity experiments (Fig. 15).

Fig. 15(a): the time-averaged Euclidean distance between the
configuration a policy installs and the configuration the Balanced
Oracle would install at the same instant — SATORI's configurations are
the closest, every other technique at least ~1.3x farther.
Fig. 15(b): the distance over time for SATORI vs PARTIES as phases
change.

Policies that control only a subset of resources (dCAT, CoPart) are
measured on their *effective* allocations — what the jobs actually
receive, including the contention model's arbitration of the shared
resources — flattened into the same vector space as the oracle
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.engine import ExecutionEngine
from repro.policies.oracle import OracleSearch
from repro.resources.types import ResourceCatalog
from repro.rng import SeedLike
from repro.system.contention import effective_allocations
from repro.experiments.comparison import STANDARD_POLICY_ORDER, comparison_specs
from repro.experiments.runner import RunConfig, experiment_catalog
from repro.workloads.mixes import JobMix


@dataclass(frozen=True)
class ProximityResult:
    """Distances to the Balanced Oracle configuration."""

    mix_label: str
    #: policy name -> time-averaged distance (Fig. 15(a)).
    mean_distance: Dict[str, float]
    #: policy name -> distance series over time (Fig. 15(b)).
    distance_series: Dict[str, np.ndarray]
    times: np.ndarray

    def relative_to(self, reference: str = "SATORI") -> Dict[str, float]:
        """Each policy's mean distance as a multiple of ``reference``'s."""
        base = max(self.mean_distance[reference], 1e-12)
        return {name: d / base for name, d in self.mean_distance.items()}


def _oracle_vector(search: OracleSearch, catalog: ResourceCatalog, mix: JobMix, t: float) -> np.ndarray:
    config = search.best(t, 0.5, 0.5).config
    alloc = effective_allocations(mix, catalog, config, t)
    return np.concatenate([alloc[name] for name in sorted(alloc)])


def _policy_vector(
    telemetry_config, catalog: ResourceCatalog, mix: JobMix, t: float
) -> np.ndarray:
    alloc = effective_allocations(mix, catalog, telemetry_config, t)
    return np.concatenate([alloc[name] for name in sorted(alloc)])


def distance_to_oracle(
    mix: JobMix,
    catalog: Optional[ResourceCatalog] = None,
    run_config: Optional[RunConfig] = None,
    seed: SeedLike = 0,
    include: Sequence[str] = STANDARD_POLICY_ORDER,
    engine: Optional[ExecutionEngine] = None,
) -> ProximityResult:
    """Run the standard policies and measure config distance to the oracle.

    The policy runs are engine batches (shared with the comparison
    drivers via the cache); only the oracle-distance post-processing of
    each telemetry log happens in-process.
    """
    catalog = catalog or experiment_catalog()
    engine = engine or ExecutionEngine()
    search = OracleSearch(mix, catalog)

    _oracle_spec, policy_specs = comparison_specs(
        mix, catalog, run_config, seed=seed, include=include
    )
    results = engine.run(list(policy_specs.values()))
    mean_distance: Dict[str, float] = {}
    series: Dict[str, np.ndarray] = {}
    times: Optional[np.ndarray] = None

    for name, result in zip(policy_specs, results):
        distances = []
        ts = []
        for record in result.telemetry.records:
            t = record.time_s
            oracle_vec = _oracle_vector(search, catalog, mix, t)
            policy_vec = _policy_vector(record.config, catalog, mix, t)
            distances.append(float(np.linalg.norm(policy_vec - oracle_vec)))
            ts.append(t)
        series[name] = np.asarray(distances)
        mean_distance[name] = float(np.mean(distances))
        if times is None:
            times = np.asarray(ts)

    return ProximityResult(
        mix_label=mix.label,
        mean_distance=mean_distance,
        distance_series=series,
        times=times if times is not None else np.array([]),
    )
