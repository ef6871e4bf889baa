"""dCAT baseline: dynamic single-resource (LLC) partitioning for throughput.

Reimplementation of the strategy of dCat (Xu et al., EuroSys'18) as
characterized in the paper (Sec. I, IV): LLC ways are reallocated
dynamically among co-located workloads to maximize throughput. Jobs
are classified as cache "receivers" or "donors" from hardware
monitoring — Intel MBM memory-traffic counters (high traffic = many
LLC misses = wants more cache) and the measured IPS response to past
moves — and ways flow from donors to receivers one at a time. Cores
and memory bandwidth are left shared: dCAT controls one resource only.

Being throughput-driven, dCAT concentrates cache on the jobs that
convert it into IPS (or that merely *look* hungry by missing a lot),
which is exactly why it lands low on fairness in the paper's
evaluation: starved cache-sensitive victims are acceptable collateral
to a throughput-only objective.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import PolicyError
from repro.metrics.goals import GoalSet
from repro.policies.base import PartitioningPolicy
from repro.resources.allocation import Configuration
from repro.resources.space import ConfigurationSpace
from repro.resources.types import LLC_WAYS
from repro.rng import SeedLike, make_rng
from repro.system.simulation import Observation

#: EMA factor for the per-job way-utility estimate learned from moves.
_UTILITY_EMA = 0.5

#: A trial that dropped system throughput by more than this fraction is
#: reverted (real dCAT's regression guard).
_REVERT_THRESHOLD = 0.01

#: Intervals between reallocation attempts (dCAT acts on epochs, not on
#: every 100 ms sample).
_EPOCH_INTERVALS = 3


class DCatPolicy(PartitioningPolicy):
    """Miss-driven donor/receiver LLC-way reallocation for throughput."""

    name = "dCAT"

    def __init__(self, space: ConfigurationSpace, goals: GoalSet = None, rng: SeedLike = None):
        super().__init__(space, goals)
        if space.resource_names != (LLC_WAYS,):
            raise PolicyError(
                f"dCAT controls exactly {LLC_WAYS!r}; build its space from "
                f"catalog.subset([LLC_WAYS]) (got {space.resource_names})"
            )
        self._rng = make_rng(rng)
        self._current: Optional[Configuration] = None
        self._trial: Optional[Tuple[Configuration, int, int]] = None
        self._last_score: Optional[float] = None
        self._utility: Dict[int, float] = {}
        self._tick = 0

    def decide(self, observation: Optional[Observation]) -> Configuration:
        if observation is None:
            self._current = self._space.equal_partition()
            self._tick = 0
            return self._current

        self._tick += 1
        if self._tick % _EPOCH_INTERVALS != 0:
            active = self._trial[0] if self._trial is not None else self._current
            return active

        score = self._scores(observation).throughput

        if self._trial is not None:
            trial_config, donor, receiver = self._trial
            reference = self._last_score if self._last_score is not None else score
            delta = score - reference
            self._credit(receiver, delta)
            self._credit(donor, -delta)
            if delta >= -_REVERT_THRESHOLD * max(reference, 1e-9):
                # Keep anything that did not measurably regress: dCAT
                # is greedy about concentrating cache on receivers.
                self._current = trial_config
                self._last_score = score
            self._trial = None
            return self._current

        self._last_score = score
        move = self._pick_move(observation)
        if move is None:
            return self._current
        donor, receiver = move
        trial_config = self._current.move_unit(LLC_WAYS, donor, receiver)
        self._trial = (trial_config, donor, receiver)
        return trial_config

    def diagnostics(self) -> Dict[str, float]:
        return {f"utility_job{j}": u for j, u in sorted(self._utility.items())}

    def _pick_move(self, observation: Observation) -> Optional[Tuple[int, int]]:
        """Receiver = hungriest job, donor = least hungry.

        Hunger combines the RDT monitoring signals real dCAT uses:
        a job that fills its current allocation (CMT occupancy close
        to its share) and still misses a lot (high MBM traffic) wants
        more cache; a job that leaves its allocation unused is a
        donor. The learned IPS utility of past moves breaks ties.
        """
        n = self._space.n_jobs
        units = self._current.units(LLC_WAYS)
        min_units = self._space.catalog.get(LLC_WAYS).min_units
        donors = [j for j in range(n) if units[j] - 1 >= min_units]
        if not donors:
            return None

        traffic = np.asarray(observation.memory_bandwidth_bytes_s or [0.0] * n, dtype=float)
        if traffic.max() <= 0:
            traffic = np.ones(n)
        occupancy = np.asarray(observation.llc_occupancy_bytes or [0.0] * n, dtype=float)
        way_bytes = self._space.catalog.get(LLC_WAYS).unit_capacity
        allocated = np.asarray(units, dtype=float) * way_bytes
        utilization = np.clip(occupancy / np.maximum(allocated, 1.0), 0.0, 1.0)

        hunger = (traffic / traffic.max()) * utilization
        for j in range(n):
            hunger[j] += self._utility.get(j, 0.0) * 10.0

        receiver = int(np.argmax(hunger))
        donor_candidates = [j for j in donors if j != receiver]
        if not donor_candidates:
            return None
        donor = min(donor_candidates, key=lambda j: hunger[j] + 0.5 * utilization[j])
        return donor, receiver

    def _credit(self, job: int, delta: float) -> None:
        old = self._utility.get(job, 0.0)
        self._utility[job] = (1 - _UTILITY_EMA) * old + _UTILITY_EMA * delta
