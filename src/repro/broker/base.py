"""The global-broker protocol: SATORI's enforcer split, one level up.

Spirit splits allocation into a *global enforcer* that apportions
capacity across nodes and *local enforcers* that enforce it within
each node. This package mirrors that split for the reproduction's
fleet: each :class:`~repro.cluster.node.ServerNode` runs its own
partitioning policy (the local enforcer — SATORI, EqualPartition, ...)
over whatever budget it currently holds, and a :class:`GlobalBroker`
observes per-node epoch outcomes and *moves budget units between
nodes* at epoch boundaries.

A broker sees the fleet the way a placement policy sees nodes: through
:class:`BrokerView` summaries — budgets, occupancy-derived floors, and
the previous epoch's scored telemetry — never the workload models
themselves. Its contract:

* ``decide`` returns a complete ``node_id -> ResourceBudget`` mapping
  whose per-resource totals equal the input's (conservation — the
  cluster-wide pool is fixed) and where every node's budget covers its
  floor (feasibility — a broker never strands a resident job). The
  :class:`~repro.cluster.simulator.ClusterSimulator` re-validates both
  and raises on violation, so a buggy scheme fails loudly instead of
  silently leaking capacity.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

from repro.cluster.budget import ResourceBudget
from repro.errors import ClusterError


@dataclass(frozen=True)
class BrokerView:
    """What the global broker may know about one node at an epoch boundary.

    Attributes:
        node_id: stable node index.
        budget: the node's current resource budget.
        floor: the smallest budget that still hosts the node's resident
            jobs — the broker may never push a node below it.
        n_jobs: jobs resident at the end of the epoch.
        throughput: the node's scored throughput for the epoch.
        fairness: the node's scored fairness for the epoch.
        mean_speedup: mean per-job speedup the node observed — the
            universal "how well off is this node" signal, mirroring the
            paper's use of IPS degradation as the contention proxy.
        synthesized: ``True`` for 0/1-job epochs (nothing was
            partitioned; the scores are definitional, not measured).
    """

    node_id: int
    budget: ResourceBudget
    floor: ResourceBudget
    n_jobs: int
    throughput: float = 1.0
    fairness: float = 1.0
    mean_speedup: float = 1.0
    synthesized: bool = False

    def slack(self, resource: str) -> int:
        """Units of ``resource`` the node could give up without
        stranding a resident job."""
        return self.budget.get(resource) - self.floor.get(resource)

    @property
    def total_slack(self) -> int:
        return sum(self.slack(name) for name in self.budget.names)


class GlobalBroker(abc.ABC):
    """Decides budget movements between nodes at each epoch boundary."""

    #: Registry id; subclasses override.
    name: str = "broker"

    @abc.abstractmethod
    def decide(
        self, epoch: int, views: Sequence[BrokerView]
    ) -> Dict[int, ResourceBudget]:
        """New budgets for the coming epoch.

        Args:
            epoch: the placement epoch that just finished.
            views: one view per node, in node-id order.

        Returns:
            A complete ``node_id -> ResourceBudget`` mapping (every
            node present, conservation and floors respected).
        """

    # -- shared helpers ----------------------------------------------------

    @staticmethod
    def _by_need(views: Sequence[BrokerView]) -> Tuple[BrokerView, ...]:
        """Views sorted worst-off first (lowest observed speedup, then
        lowest fairness, then id — all ties deterministic)."""
        return tuple(
            sorted(
                views,
                key=lambda v: (
                    round(v.mean_speedup, 9),
                    round(v.fairness, 9),
                    v.node_id,
                ),
            )
        )

    @staticmethod
    def _unchanged(views: Sequence[BrokerView]) -> Dict[int, ResourceBudget]:
        return {view.node_id: view.budget for view in views}


_BROKERS: Dict[str, Callable[..., GlobalBroker]] = {}


def register_broker(factory: Callable[..., GlobalBroker]) -> Callable[..., GlobalBroker]:
    """Register a broker factory under its class-level ``name``."""
    _BROKERS[factory.name] = factory
    return factory


def broker_names() -> Tuple[str, ...]:
    """Registered broker scheme ids, sorted."""
    return tuple(sorted(_BROKERS))


def make_broker(name: str) -> GlobalBroker:
    """A fresh broker instance from its registry id."""
    try:
        factory = _BROKERS[name]
    except KeyError:
        raise ClusterError(
            f"unknown broker scheme {name!r}; registered: {', '.join(broker_names())}"
        ) from None
    return factory()
