"""PARTIES-style baseline: gradient descent, one resource at a time.

Reimplementation of the strategy of PARTIES (Chen et al., ASPLOS'19)
as the paper adapts it (Sec. IV): resource partitioning "in a gradient
descent style where partitioning of one resource is explored first
before adjusting the allocations for other resources", modified to
"maximize both throughput and fairness, giving equal priority to
both" (objective ``0.5*T + 0.5*F``).

The controller walks the resource dimensions cyclically. Within the
current dimension it proposes unit moves (primary direction: from the
currently fastest job to the slowest, which raises fairness and
usually throughput; secondary: the reverse), keeps a move whose
measured objective improved, and advances to the next dimension once
neither direction helps. This one-dimension-at-a-time exploration is
exactly the structural property SATORI's joint BO search improves on —
and why PARTIES lands in local maxima more often as the co-location
degree grows (Sec. V, scalability).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.metrics.goals import GoalSet
from repro.policies.base import PartitioningPolicy
from repro.resources.allocation import Configuration
from repro.resources.space import ConfigurationSpace
from repro.system.simulation import Observation


#: Monitoring intervals (0.1 s each) between adjustments: the original
#: PARTIES' 0.5 s upsize/downsize cadence, which waits for an
#: adjustment's effect to stabilize before judging it.
DECISION_EVERY = 5


class PartiesPolicy(PartitioningPolicy):
    """One-dimension-at-a-time gradient descent on ``0.5*T + 0.5*F``."""

    name = "PARTIES"

    def __init__(self, space: ConfigurationSpace, goals: GoalSet = None):
        super().__init__(space, goals)
        self._current: Optional[Configuration] = None
        self._trial: Optional[Configuration] = None
        self._last_score: Optional[float] = None
        self._cursor = 0
        self._direction = 0  # 0 = fast->slow move, 1 = slow->fast move
        self._moves_accepted = 0
        self._moves_rejected = 0
        self._tick = 0

    def decide(self, observation: Optional[Observation]) -> Configuration:
        if observation is None:
            self._current = self._space.equal_partition()
            self._tick = 0
            return self._current

        # Hold between decision points so each adjustment's effect
        # stabilizes before it is judged (original PARTIES cadence).
        self._tick += 1
        if self._tick % DECISION_EVERY != 0:
            return self._trial if self._trial is not None else self._current

        scores = self._scores(observation)
        objective = scores.weighted(0.5, 0.5)
        job_speedups = np.asarray(observation.ips) / np.asarray(observation.isolation_ips)

        if self._trial is not None:
            reference = self._last_score if self._last_score is not None else objective
            if objective > reference:
                # Keep climbing this dimension in the same direction.
                self._current = self._trial
                self._last_score = objective
                self._moves_accepted += 1
            else:
                # Revert and rotate: try the other direction, then the
                # next resource dimension.
                self._moves_rejected += 1
                self._advance_direction()
            self._trial = None
            return self._current

        self._last_score = objective
        trial = self._propose(job_speedups)
        if trial is None:
            self._advance_direction()
            return self._current
        self._trial = trial
        return trial

    def diagnostics(self) -> Dict[str, float]:
        return {
            "moves_accepted": float(self._moves_accepted),
            "moves_rejected": float(self._moves_rejected),
            "resource_cursor": float(self._cursor),
        }

    def _propose(self, job_speedups: np.ndarray) -> Optional[Configuration]:
        """A one-unit move in the current dimension and direction."""
        resource = self._space.resource_names[self._cursor]
        units = self._current.units(resource)
        min_units = self._space.catalog.get(resource).min_units
        order = np.argsort(job_speedups)
        slow, fast = int(order[0]), int(order[-1])
        if slow == fast:
            return None
        donor, receiver = (fast, slow) if self._direction == 0 else (slow, fast)
        if units[donor] - 1 < min_units:
            donor, receiver = receiver, donor
            if units[donor] - 1 < min_units:
                return None
        return self._current.move_unit(resource, donor, receiver)

    def _advance_direction(self) -> None:
        """Exhaust both directions of a dimension before moving on."""
        if self._direction == 0:
            self._direction = 1
        else:
            self._direction = 0
            self._cursor = (self._cursor + 1) % len(self._space.resource_names)
