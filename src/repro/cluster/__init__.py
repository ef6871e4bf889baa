"""Multi-node cluster layer: nodes, placement, and the fleet simulator.

Turns the single-server reproduction into a simulated fleet: a
:class:`ClusterSimulator` replays a job
:class:`~repro.workloads.arrivals.ArrivalTrace` across N
:class:`ServerNode`\\ s, routing arrivals with a pluggable
:class:`PlacementPolicy` and executing each node's placement epoch as
an independent :class:`~repro.engine.RunSpec` through the execution
engine. See DESIGN.md ("Cluster architecture").
"""

from repro.cluster.budget import (
    BudgetLike,
    ResourceBudget,
    coerce_budget,
    pool_totals,
    scaled_catalog,
)
from repro.cluster.node import ServerNode, instance_name, node_capacity
from repro.cluster.placement import (
    ContentionAwarePlacement,
    LeastLoadedPlacement,
    NodeView,
    PlacementPolicy,
    RoundRobinPlacement,
    SLOAwarePlacement,
    make_placement,
    placement_names,
)
from repro.cluster.recovery import (
    EVT_JOB_LOST,
    EVT_JOB_REPLACED,
    EVT_NODE_DOWN,
    EVT_NODE_EPOCH_FAILED,
    EVT_NODE_QUARANTINED,
    EVT_NODE_REJOINED,
    EVT_SESSION_RESURRECTED,
    FleetEvent,
    RecoveryConfig,
)
from repro.cluster.simulator import (
    ClusterResult,
    ClusterSimulator,
    MigrationConfig,
    NodeEpochRecord,
)

__all__ = [
    "BudgetLike",
    "ClusterResult",
    "ClusterSimulator",
    "ContentionAwarePlacement",
    "EVT_JOB_LOST",
    "EVT_JOB_REPLACED",
    "EVT_NODE_DOWN",
    "EVT_NODE_EPOCH_FAILED",
    "EVT_NODE_QUARANTINED",
    "EVT_NODE_REJOINED",
    "EVT_SESSION_RESURRECTED",
    "FleetEvent",
    "LeastLoadedPlacement",
    "MigrationConfig",
    "NodeEpochRecord",
    "NodeView",
    "PlacementPolicy",
    "RecoveryConfig",
    "ResourceBudget",
    "RoundRobinPlacement",
    "SLOAwarePlacement",
    "ServerNode",
    "coerce_budget",
    "instance_name",
    "make_placement",
    "node_capacity",
    "placement_names",
    "pool_totals",
    "scaled_catalog",
]
