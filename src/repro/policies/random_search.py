"""Random search baseline (Sec. IV).

"Samples a configuration stochastically from all possible
configurations using a uniform distribution without repetition. The
sampled configuration is updated every 0.1 second."

Without-repetition is honoured on a best-effort basis: the policy
resamples up to a bounded number of times to avoid a configuration it
has already run; once the space is effectively exhausted it allows
repeats (matching how the real implementation must behave on small
spaces in long runs).
"""

from __future__ import annotations

import json
from typing import Optional, Set

from repro.metrics.goals import GoalSet
from repro.policies.base import PartitioningPolicy
from repro.resources.allocation import Configuration
from repro.resources.space import ConfigurationSpace
from repro.rng import SeedLike, make_rng, rng_from_state, rng_state
from repro.state import PolicyState
from repro.system.simulation import Observation

_MAX_RESAMPLES = 16


class RandomSearchPolicy(PartitioningPolicy):
    """Uniform random configuration every interval, avoiding repeats."""

    name = "Random"
    state_kind = "Random"

    def __init__(self, space: ConfigurationSpace, goals: GoalSet = None, rng: SeedLike = None):
        super().__init__(space, goals)
        self._rng = make_rng(rng)
        self._seen: Set[Configuration] = set()

    def decide(self, observation: Optional[Observation]) -> Configuration:
        config = self._space.sample(self._rng)
        for _ in range(_MAX_RESAMPLES):
            if config not in self._seen:
                break
            config = self._space.sample(self._rng)
        self._seen.add(config)
        return config

    def snapshot(self) -> PolicyState:
        """RNG position + the without-repetition history."""
        seen = sorted(
            (config.to_dict() for config in self._seen),
            key=lambda d: json.dumps(d, sort_keys=True),
        )
        return PolicyState(
            policy=self.state_kind,
            payload={"rng": rng_state(self._rng), "seen": seen},
        )

    def restore(self, state: Optional[PolicyState]) -> None:
        if state is None:
            return
        self._check_state(state.policy, state.version)
        payload = state.payload_dict()
        self._rng = rng_from_state(payload["rng"])
        self._seen = {Configuration.from_dict(d) for d in payload["seen"]}
