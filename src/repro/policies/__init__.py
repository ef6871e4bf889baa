"""Partitioning policies: SATORI's competitors and reference points."""

from repro.policies.base import PartitioningPolicy
from repro.policies.bopf import BoPFPolicy
from repro.policies.copart import CoPartPolicy
from repro.policies.dcat import DCatPolicy
from repro.policies.oracle import (
    DEFAULT_MAX_CONFIGS,
    OraclePolicy,
    OracleResult,
    OracleSearch,
    balanced_oracle,
)
from repro.policies.parties import PartiesPolicy
from repro.policies.qos_parties import QosPartiesPolicy
from repro.policies.random_search import RandomSearchPolicy
from repro.policies.registry import (
    PolicyBuilder,
    make_policy,
    policy_is_qos_aware,
    policy_names,
    register_policy,
)
from repro.policies.static import EqualPartitionPolicy

__all__ = [
    "BoPFPolicy",
    "CoPartPolicy",
    "DCatPolicy",
    "DEFAULT_MAX_CONFIGS",
    "EqualPartitionPolicy",
    "OraclePolicy",
    "OracleResult",
    "OracleSearch",
    "PartiesPolicy",
    "PartitioningPolicy",
    "PolicyBuilder",
    "QosPartiesPolicy",
    "RandomSearchPolicy",
    "balanced_oracle",
    "make_policy",
    "policy_is_qos_aware",
    "policy_names",
    "register_policy",
]
