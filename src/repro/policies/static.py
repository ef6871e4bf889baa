"""Non-adaptive reference policies.

* :class:`EqualPartitionPolicy` — install the equal split once and
  never move (a sanity baseline; also SATORI's ``S_init``).
"""

from __future__ import annotations

from typing import Optional

from repro.policies.base import PartitioningPolicy
from repro.resources.allocation import Configuration
from repro.system.simulation import Observation


class EqualPartitionPolicy(PartitioningPolicy):
    """Split every controlled resource equally, once."""

    name = "Equal Partition"

    def decide(self, observation: Optional[Observation]) -> Configuration:
        return self._space.equal_partition()
