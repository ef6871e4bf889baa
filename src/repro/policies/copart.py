"""CoPart baseline: coordinated per-resource FSMs for fairness.

Reimplementation of the strategy of CoPart (Park et al., EuroSys'19)
as characterized in the paper: two *separate* finite state machines —
one for LLC ways, one for memory bandwidth — that are "not joint or
linked but are aware of each other's decisions". Each FSM equalizes
slowdowns: it takes one unit from the currently least-slowed job and
gives it to the most-slowed job. Fairness is the primary goal;
throughput is only protected by hysteresis (an FSM that just worsened
fairness backs off for a few intervals).

Cores are left shared: CoPart partitions LLC + memory bandwidth only.
The FSMs alternate (LLC on even decisions, bandwidth on odd) — the
coordination mechanism that keeps their decisions mutually visible
without joint exploration, which is precisely the structural
limitation SATORI's joint BO search removes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import PolicyError
from repro.metrics.goals import GoalSet
from repro.policies.base import PartitioningPolicy
from repro.resources.allocation import Configuration
from repro.resources.space import ConfigurationSpace
from repro.resources.types import LLC_WAYS, MEMORY_BANDWIDTH
from repro.system.simulation import Observation

#: Minimum max-min speedup gap before an FSM acts. CoPart classifies
#: apps into coarse slowdown groups; it stops reacting once slowdowns
#: look similar at that granularity.
_GAP_THRESHOLD = 0.08

#: Intervals an FSM stays in back-off after a move that hurt fairness.
_BACKOFF_INTERVALS = 5


@dataclass
class _FsmState:
    """Per-resource FSM bookkeeping."""

    resource: str
    backoff: int = 0
    last_move: Optional[Tuple[int, int]] = None
    last_fairness: Optional[float] = None


class CoPartPolicy(PartitioningPolicy):
    """Two coordinated slowdown-equalizing FSMs (LLC + bandwidth)."""

    name = "CoPart"

    def __init__(self, space: ConfigurationSpace, goals: GoalSet = None):
        super().__init__(space, goals)
        expected = (LLC_WAYS, MEMORY_BANDWIDTH)
        if tuple(sorted(space.resource_names)) != tuple(sorted(expected)):
            raise PolicyError(
                f"CoPart controls exactly {expected}; build its space from "
                f"catalog.subset([LLC_WAYS, MEMORY_BANDWIDTH]) (got {space.resource_names})"
            )
        self._current: Optional[Configuration] = None
        self._fsms = [_FsmState(LLC_WAYS), _FsmState(MEMORY_BANDWIDTH)]
        self._turn = 0

    def decide(self, observation: Optional[Observation]) -> Configuration:
        if observation is None:
            self._current = self._space.equal_partition()
            return self._current

        scores = self._scores(observation)
        job_speedups = np.asarray(observation.ips) / np.asarray(observation.isolation_ips)

        fsm = self._fsms[self._turn % len(self._fsms)]
        self._turn += 1
        self._settle(fsm, scores.fairness)

        if fsm.backoff > 0:
            fsm.backoff -= 1
            return self._current

        move = self._equalizing_move(fsm.resource, job_speedups)
        if move is None:
            return self._current
        donor, receiver = move
        # Hysteresis: never immediately undo this FSM's own last move.
        if fsm.last_move == (receiver, donor):
            return self._current

        self._current = self._current.move_unit(fsm.resource, donor, receiver)
        fsm.last_move = (donor, receiver)
        fsm.last_fairness = scores.fairness
        return self._current

    def diagnostics(self) -> Dict[str, float]:
        return {f"backoff_{fsm.resource}": float(fsm.backoff) for fsm in self._fsms}

    def _settle(self, fsm: _FsmState, fairness: float) -> None:
        """Judge this FSM's previous move; back off if it hurt fairness."""
        if fsm.last_fairness is not None and fsm.last_move is not None:
            if fairness < fsm.last_fairness - 1e-3:
                fsm.backoff = _BACKOFF_INTERVALS
                fsm.last_move = None
            fsm.last_fairness = None

    def _equalizing_move(
        self, resource: str, job_speedups: np.ndarray
    ) -> Optional[Tuple[int, int]]:
        """One unit from the least-slowed job to the most-slowed job."""
        if float(np.max(job_speedups) - np.min(job_speedups)) < _GAP_THRESHOLD:
            return None
        units = self._current.units(resource)
        min_units = self._space.catalog.get(resource).min_units
        order = np.argsort(job_speedups)  # most-slowed first
        receiver = int(order[0])
        for donor in reversed(order):
            donor = int(donor)
            if donor != receiver and units[donor] - 1 >= min_units:
                return donor, receiver
        return None
