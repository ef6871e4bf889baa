"""SATORI reproduction: efficient and fair multi-resource partitioning.

A from-scratch Python reproduction of *SATORI: Efficient and Fair
Resource Partitioning by Sacrificing Short-Term Benefits for Long-Term
Gains* (Roy, Patel, Tiwari — ISCA 2021), including the simulated CMP
substrate (CAT / MBA / taskset / RAPL / pqos), analytic benchmark
workload models (PARSEC / CloudSuite / ECP), the SATORI BO controller,
all competing policies (Random, dCAT, CoPart, PARTIES, Oracle), and a
per-figure experiment harness.

Quickstart::

    from repro import (
        SatoriController, run_policy, experiment_catalog,
        full_space, suite_mixes,
    )

    mix = suite_mixes("parsec")[0]
    catalog = experiment_catalog()
    satori = SatoriController(full_space(catalog, len(mix)), rng=0)
    result = run_policy(satori, mix, catalog, seed=0)
    print(result.throughput, result.fairness)
"""

from repro.core import (
    BayesianOptimizer,
    DynamicWeightScheduler,
    GaussianProcess,
    GoalRecords,
    SatoriController,
    StaticWeights,
)
from repro.errors import (
    ConfigurationError,
    ExperimentError,
    HardwareError,
    ModelError,
    PolicyError,
    ReproError,
    SpaceError,
    WorkloadError,
)
from repro.experiments import (
    RunConfig,
    RunResult,
    aggregate,
    compare_on_mix,
    compare_on_mixes,
    experiment_catalog,
    full_space,
    run_policy,
)
from repro.metrics import GoalScores, GoalSet, jain_index
from repro.policies import (
    CoPartPolicy,
    DCatPolicy,
    EqualPartitionPolicy,
    OraclePolicy,
    OracleSearch,
    PartiesPolicy,
    PartitioningPolicy,
    RandomSearchPolicy,
    balanced_oracle,
)
from repro.resources import (
    Configuration,
    ConfigurationSpace,
    Resource,
    ResourceCatalog,
    ResourceKind,
    default_catalog,
)
from repro.system import CoLocationSimulator, Observation, TelemetryLog
from repro.workloads import (
    JobMix,
    Phase,
    PhaseSchedule,
    Workload,
    default_registry,
    get_workload,
    mix_from_names,
    suite_mixes,
)

__version__ = "1.0.0"

__all__ = [
    "BayesianOptimizer",
    "CoLocationSimulator",
    "CoPartPolicy",
    "Configuration",
    "ConfigurationError",
    "ConfigurationSpace",
    "DCatPolicy",
    "DynamicWeightScheduler",
    "EqualPartitionPolicy",
    "ExperimentError",
    "GaussianProcess",
    "GoalRecords",
    "GoalScores",
    "GoalSet",
    "HardwareError",
    "JobMix",
    "ModelError",
    "Observation",
    "OraclePolicy",
    "OracleSearch",
    "PartiesPolicy",
    "PartitioningPolicy",
    "Phase",
    "PhaseSchedule",
    "PolicyError",
    "RandomSearchPolicy",
    "ReproError",
    "Resource",
    "ResourceCatalog",
    "ResourceKind",
    "RunConfig",
    "RunResult",
    "SatoriController",
    "SpaceError",
    "StaticWeights",
    "TelemetryLog",
    "Workload",
    "WorkloadError",
    "aggregate",
    "balanced_oracle",
    "compare_on_mix",
    "compare_on_mixes",
    "default_catalog",
    "default_registry",
    "experiment_catalog",
    "full_space",
    "get_workload",
    "jain_index",
    "mix_from_names",
    "run_policy",
    "suite_mixes",
]
