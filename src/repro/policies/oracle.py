"""Brute-force Oracle (Sec. IV): exhaustive search over the space.

The paper's Oracle "samples all possible configurations and selects
the one which maximizes a given goal or a combination of goals ...
calculated every 0.1 seconds to account for the phase changes". Three
variants share the machinery and differ only in weights:

* Throughput Oracle — ``W_T = 1, W_F = 0``;
* Fairness Oracle  — ``W_T = 0, W_F = 1``;
* Balanced Oracle  — ``W_T = W_F = 0.5`` (the ceiling all evaluation
  results are normalized against).

On the paper's testbed this search takes hours offline. Here the
workload substrate is an analytic model, so the search is exact and
vectorized: per job, IPS is tabulated over (cores) and (ways x
bandwidth) unit grids, then combined across the cross product of
per-resource compositions with numpy broadcasting. Results are
memoized per *phase key* — the tuple of active phase indices — which
is semantically identical to re-running the exhaustive search every
interval, because the true objective only changes when some job
changes phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PolicyError
from repro.metrics.goals import GoalSet
from repro.policies.base import PartitioningPolicy
from repro.resources.allocation import Configuration
from repro.resources.space import ConfigurationSpace
from repro.resources.types import CORES, LLC_WAYS, MEMORY_BANDWIDTH, ResourceCatalog
from repro.system.simulation import Observation
from repro.workloads.mixes import JobMix
from repro.workloads.model import PhaseVector, smoothmin

#: Guard against accidentally launching an infeasible exhaustive search.
DEFAULT_MAX_CONFIGS = 5_000_000


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one exhaustive search."""

    config: Configuration
    throughput: float
    fairness: float
    objective: float
    n_configs: int


class OracleSearch:
    """Exhaustive, phase-memoized search over a full configuration space.

    Args:
        mix: the co-located workloads.
        catalog: the server's resources (cores + LLC + bandwidth).
        goals: metric choices (same normalized scores as policies use).

    Raises:
        PolicyError: if the space is larger than ``DEFAULT_MAX_CONFIGS``.
    """

    def __init__(
        self,
        mix: JobMix,
        catalog: ResourceCatalog,
        goals: Optional[GoalSet] = None,
    ):
        self._mix = mix
        self._catalog = catalog
        self._goals = goals or GoalSet()
        self._space = ConfigurationSpace(
            catalog.subset([CORES, LLC_WAYS, MEMORY_BANDWIDTH]), len(mix)
        )
        size = self._space.size()
        if size > DEFAULT_MAX_CONFIGS:
            raise PolicyError(
                f"configuration space has {size} points, above the cap of "
                f"{DEFAULT_MAX_CONFIGS}; reduce resource units"
            )
        self._matrices = self._space.per_resource_matrices()
        # Scalar result cache: (phase_key, weights) -> OracleResult.
        self._results: Dict[Tuple[Tuple[int, ...], Tuple[float, float]], OracleResult] = {}
        # Small LRU of the heavy per-phase score arrays.
        self._arrays: Dict[Tuple[int, ...], Tuple[np.ndarray, np.ndarray]] = {}
        self._array_order: List[Tuple[int, ...]] = []
        self._max_cached_arrays = 3

    @property
    def space(self) -> ConfigurationSpace:
        return self._space

    @property
    def goals(self) -> GoalSet:
        return self._goals

    def phase_key(self, t: float) -> Tuple[int, ...]:
        return tuple(w.phase_index_at(t) for w in self._mix)

    def best(self, t: float, w_throughput: float, w_fairness: float) -> OracleResult:
        """The optimal configuration at time ``t`` under given weights."""
        key = (self.phase_key(t), (round(w_throughput, 6), round(w_fairness, 6)))
        cached = self._results.get(key)
        if cached is not None:
            return cached

        throughput, fairness = self._score_arrays(t)
        objective = w_throughput * throughput + w_fairness * fairness
        flat = int(np.argmax(objective))
        indices = np.unravel_index(flat, throughput.shape)
        config = self._space.configuration_from_indices(indices, self._matrices)
        result = OracleResult(
            config=config,
            throughput=float(throughput[indices]),
            fairness=float(fairness[indices]),
            objective=float(objective[indices]),
            n_configs=int(throughput.size),
        )
        self._results[key] = result
        return result

    def evaluate(self, config: Configuration, t: float) -> Tuple[float, float]:
        """True (throughput, fairness) scores of one configuration at ``t``.

        Thin wrapper over :meth:`evaluate_batch` — the batched core is
        the single evaluation path, and the batch of one is bit-identical
        to the historical per-job scalar loop.
        """
        throughput, fairness = self.evaluate_batch([config], t)
        return float(throughput[0]), float(fairness[0])

    def evaluate_batch(
        self, configs: Sequence[Configuration], t: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """True (throughput, fairness) scores for many configurations.

        One vectorized pass: the per-job phase parameters are stacked
        into a :class:`PhaseVector` and all ``(n_configs, n_jobs)``
        allocations are pushed through the roofline model at once, then
        scored row-wise with :meth:`GoalSet.scores_batch`. Each row is
        bit-identical to :meth:`evaluate` on that configuration alone.

        Returns:
            ``(throughput, fairness)`` arrays of shape ``(n_configs,)``.
        """
        if not configs:
            return np.zeros(0), np.zeros(0)
        cores = np.array([config.units(CORES) for config in configs], dtype=float)
        ways = np.array([config.units(LLC_WAYS) for config in configs], dtype=float)
        bw = np.array([config.units(MEMORY_BANDWIDTH) for config in configs], dtype=float)
        way_bytes = self._catalog.get(LLC_WAYS).unit_capacity
        bw_bytes = self._catalog.get(MEMORY_BANDWIDTH).unit_capacity
        phases = PhaseVector.from_phases([w.phase_at(t) for w in self._mix])
        ips = phases.ips(cores, ways * way_bytes, bw * bw_bytes)
        iso = np.array([w.isolation_ips(self._catalog, t) for w in self._mix])
        return self._goals.scores_batch(ips, iso)

    # -- internals ---------------------------------------------------------

    def _score_arrays(self, t: float) -> Tuple[np.ndarray, np.ndarray]:
        """Throughput and fairness over the whole space at ``t``'s phases.

        Returns arrays shaped ``(n_core_comps, n_way_comps, n_bw_comps)``.
        """
        key = self.phase_key(t)
        cached = self._arrays.get(key)
        if cached is not None:
            return cached

        mc, mw, mb = self._matrices
        n_jobs = len(self._mix)
        way_bytes = self._catalog.get(LLC_WAYS).unit_capacity
        bw_bytes = self._catalog.get(MEMORY_BANDWIDTH).unit_capacity
        core_units = self._catalog.get(CORES).units
        way_units = self._catalog.get(LLC_WAYS).units
        bw_units = self._catalog.get(MEMORY_BANDWIDTH).units

        iso = np.array([w.isolation_ips(self._catalog, t) for w in self._mix])

        shape = (mc.shape[0], mw.shape[0], mb.shape[0])
        sum_ips = np.zeros(shape)
        sum_s = np.zeros(shape)
        sum_s2 = np.zeros(shape)
        sum_log_s = None
        sum_inv_s = None
        if self._goals.throughput_metric == "geometric_mean":
            sum_log_s = np.zeros(shape)
        if self._goals.throughput_metric == "harmonic_mean":
            sum_inv_s = np.zeros(shape)

        cache_grid = np.arange(way_units + 1, dtype=float) * way_bytes
        bw_grid = np.arange(bw_units + 1, dtype=float) * bw_bytes
        core_grid = np.arange(core_units + 1, dtype=float)

        for j, workload in enumerate(self._mix):
            phase = workload.phase_at(t)
            compute_table = phase.compute_rate(np.maximum(core_grid, 1e-9))
            memory_table = phase.memory_rate(cache_grid[:, None], bw_grid[None, :])

            comp = compute_table[mc[:, j]]  # (Kc,)
            mem = memory_table[mw[:, j][:, None], mb[:, j][None, :]]  # (Kw, Kb)
            ips = smoothmin(comp[:, None, None], mem[None, :, :])  # (Kc, Kw, Kb)

            s = ips / iso[j]
            sum_ips += ips
            sum_s += s
            sum_s2 += s * s
            if sum_log_s is not None:
                sum_log_s += np.log(np.maximum(s, 1e-12))
            if sum_inv_s is not None:
                sum_inv_s += 1.0 / np.maximum(s, 1e-12)

        if self._goals.throughput_metric == "sum_ips":
            throughput = sum_ips / float(np.sum(iso))
        elif self._goals.throughput_metric == "geometric_mean":
            throughput = np.exp(sum_log_s / n_jobs)
        else:
            throughput = n_jobs / sum_inv_s

        mean = sum_s / n_jobs
        var = np.maximum(sum_s2 / n_jobs - mean * mean, 0.0)
        cov = np.sqrt(var) / np.maximum(mean, 1e-12)
        if self._goals.fairness_metric == "jain":
            fairness = 1.0 / (1.0 + cov * cov)
        else:
            fairness = np.clip(1.0 - cov, 0.0, 1.0)

        self._remember_arrays(key, (throughput, fairness))
        return throughput, fairness

    def _remember_arrays(self, key, value) -> None:
        self._arrays[key] = value
        self._array_order.append(key)
        while len(self._array_order) > self._max_cached_arrays:
            evicted = self._array_order.pop(0)
            if evicted in self._arrays and evicted not in self._array_order:
                del self._arrays[evicted]


class OraclePolicy(PartitioningPolicy):
    """Policy wrapper installing the Oracle's optimum every interval.

    Args:
        search: a (shareable) :class:`OracleSearch` for the mix.
        w_throughput / w_fairness: the variant's weights.
    """

    def __init__(
        self,
        search: OracleSearch,
        w_throughput: float = 0.5,
        w_fairness: float = 0.5,
    ):
        super().__init__(search.space, search.goals)
        self._search = search
        self._w_t = w_throughput
        self._w_f = w_fairness
        if w_fairness == 0:
            self.name = "Throughput Oracle"
        elif w_throughput == 0:
            self.name = "Fairness Oracle"
        else:
            self.name = "Balanced Oracle"

    @property
    def search(self) -> OracleSearch:
        return self._search

    def decide(self, observation: Optional[Observation]) -> Configuration:
        t = 0.0 if observation is None else observation.time_s
        return self._search.best(t, self._w_t, self._w_f).config


def balanced_oracle(mix: JobMix, catalog: ResourceCatalog) -> OraclePolicy:
    """Convenience constructor for the Balanced Oracle policy."""
    return OraclePolicy(OracleSearch(mix, catalog), 0.5, 0.5)
