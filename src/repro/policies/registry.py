"""Policy-factory registry: construct any policy from plain data.

The execution engine (``repro.engine``) fans runs out over worker
processes, so a run specification can only carry *names and kwargs* —
never closures or policy instances, which do not cross process
boundaries. This registry maps a factory id (``"SATORI"``, ``"dCAT"``,
``"Oracle"``, ...) to a module-level builder that constructs a fresh
policy from the mix, catalog, goals, an RNG seed, and JSON-compatible
keyword arguments.

Builders receive the full job mix because some reference policies (the
brute-force Oracle) need the workload models themselves, not just the
job count; ordinary online policies ignore it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.errors import PolicyError
from repro.metrics.goals import GoalSet
from repro.policies.base import PartitioningPolicy
from repro.policies.copart import CoPartPolicy
from repro.policies.dcat import DCatPolicy
from repro.policies.oracle import OraclePolicy, OracleSearch
from repro.policies.parties import PartiesPolicy
from repro.policies.random_search import RandomSearchPolicy
from repro.policies.static import EqualPartitionPolicy
from repro.resources.space import ConfigurationSpace
from repro.resources.types import CORES, LLC_WAYS, MEMORY_BANDWIDTH, ResourceCatalog
from repro.rng import SeedLike, make_rng
from repro.state import PolicyState
from repro.workloads.mixes import JobMix

#: Builder signature: ``(mix, catalog, goals, rng, **kwargs) -> policy``.
PolicyBuilder = Callable[..., PartitioningPolicy]

_BUILDERS: Dict[str, PolicyBuilder] = {}

#: Factory ids whose builders understand the qos kwargs the cluster
#: simulator injects on qos-hosting nodes (``qos_jobs`` slot indices
#: and ``qos_min_speedup``); see :func:`policy_is_qos_aware`.
_QOS_AWARE: set = set()

#: The three resources the paper's full-space policies partition.
FULL_RESOURCES = (CORES, LLC_WAYS, MEMORY_BANDWIDTH)


def register_policy(
    name: str, builder: Optional[PolicyBuilder] = None, qos_aware: bool = False
):
    """Register ``builder`` under ``name`` (usable as a decorator).

    Re-registering a name replaces the previous builder, so downstream
    extensions can override the stock factories. ``qos_aware`` marks
    builders that accept the per-node qos kwargs (``qos_jobs``,
    ``qos_min_speedup``) the cluster layer injects when an SLO is
    active.
    """

    def _register(fn: PolicyBuilder) -> PolicyBuilder:
        _BUILDERS[name] = fn
        if qos_aware:
            _QOS_AWARE.add(name)
        else:
            _QOS_AWARE.discard(name)
        return fn

    if builder is not None:
        return _register(builder)
    return _register


def policy_names() -> Tuple[str, ...]:
    """Registered factory ids, sorted."""
    return tuple(sorted(_BUILDERS))


def policy_is_qos_aware(name: str) -> bool:
    """Whether ``name``'s builder accepts the injected qos kwargs."""
    return name in _QOS_AWARE


def make_policy(
    name: str,
    mix: Optional[JobMix],
    catalog: ResourceCatalog,
    goals: Optional[GoalSet] = None,
    rng: SeedLike = None,
    n_jobs: Optional[int] = None,
    initial_state: Optional[PolicyState] = None,
    **kwargs,
) -> PartitioningPolicy:
    """Build a fresh policy instance from registry id + kwargs.

    Args:
        name: a registered factory id (see :func:`policy_names`).
        mix: the co-located workloads; may be ``None`` for policies
            that only need the job count (pass ``n_jobs`` then).
        catalog: the server's full resource catalog.
        goals: metric choices; defaults to the paper's.
        rng: seed for stochastic policies.
        n_jobs: job count override when ``mix`` is ``None``.
        initial_state: a prior :meth:`PartitioningPolicy.snapshot` to
            warm-start from; restored after construction, so the
            policy's own validation (kind tag, version, mode) gates
            mismatched state.
        kwargs: forwarded to the builder (must be plain data when the
            policy will be constructed in a worker process).
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise PolicyError(
            f"unknown policy factory {name!r}; registered: {', '.join(policy_names())}"
        ) from None
    if mix is None and n_jobs is None:
        raise PolicyError(f"policy factory {name!r} needs a mix or an explicit n_jobs")
    policy = builder(mix, catalog, goals or GoalSet(), rng, _n_jobs(mix, n_jobs), **kwargs)
    if initial_state is not None:
        policy.restore(initial_state)
    return policy


def _n_jobs(mix: Optional[JobMix], n_jobs: Optional[int]) -> int:
    return len(mix) if n_jobs is None else int(n_jobs)


def _space(
    catalog: ResourceCatalog, n_jobs: int, resources: Sequence[str] = FULL_RESOURCES
) -> ConfigurationSpace:
    return ConfigurationSpace(catalog.subset(tuple(resources)), n_jobs)


# -- stock factories -----------------------------------------------------


@register_policy("Random")
def _build_random(mix, catalog, goals, rng, n_jobs):
    return RandomSearchPolicy(_space(catalog, n_jobs), goals, rng=make_rng(rng))


@register_policy("dCAT")
def _build_dcat(mix, catalog, goals, rng, n_jobs):
    return DCatPolicy(_space(catalog, n_jobs, [LLC_WAYS]), goals, rng=make_rng(rng))


@register_policy("CoPart")
def _build_copart(mix, catalog, goals, rng, n_jobs):
    return CoPartPolicy(_space(catalog, n_jobs, [LLC_WAYS, MEMORY_BANDWIDTH]), goals)


@register_policy("PARTIES")
def _build_parties(mix, catalog, goals, rng, n_jobs):
    return PartiesPolicy(_space(catalog, n_jobs), goals)


@register_policy("EqualPartition")
def _build_equal(mix, catalog, goals, rng, n_jobs):
    return EqualPartitionPolicy(_space(catalog, n_jobs), goals)


@register_policy("SATORI")
def _build_satori(mix, catalog, goals, rng, n_jobs, resources=None, kernel=None, **kwargs):
    """SATORI with optional resource restriction and kernel-by-name.

    ``resources`` limits the controlled subset (ablations); ``kernel``
    may be a kernel instance or one of ``"matern52"`` / ``"rbf"`` so
    run specs stay JSON-serializable.
    """
    # Imported lazily: repro.core.controller itself imports policy base
    # classes, and importing it at module scope would cycle through the
    # repro.policies package initializer.
    from repro.core.controller import SatoriController
    from repro.core.kernels import RBF, Matern52

    if isinstance(kernel, str):
        try:
            kernel = {"matern52": Matern52, "rbf": RBF}[kernel.lower()]()
        except KeyError:
            raise PolicyError(
                f"unknown kernel name {kernel!r}; choices: 'matern52', 'rbf'"
            ) from None
    if kernel is not None:
        kwargs["kernel"] = kernel
    space = _space(catalog, n_jobs, tuple(resources) if resources else FULL_RESOURCES)
    return SatoriController(space, goals, rng=make_rng(rng), **kwargs)


@register_policy("BoPF", qos_aware=True)
def _build_bopf(mix, catalog, goals, rng, n_jobs, resources=None, qos_jobs=(),
                qos_min_speedup=0.7, **kwargs):
    """BoPF: bounded short-term qos priority around a SATORI core.

    ``qos_jobs`` / ``qos_min_speedup`` are the kwargs the cluster
    simulator injects per node when an SLO is active; with no qos jobs
    the policy degenerates to plain SATORI behaviour.
    """
    from repro.policies.bopf import BoPFPolicy

    space = _space(catalog, n_jobs, tuple(resources) if resources else FULL_RESOURCES)
    return BoPFPolicy(
        space,
        goals,
        qos_jobs=tuple(qos_jobs),
        min_speedup=qos_min_speedup,
        rng=make_rng(rng),
        **kwargs,
    )


@register_policy("QoSPARTIES", qos_aware=True)
def _build_qos_parties(mix, catalog, goals, rng, n_jobs, qos_jobs=(),
                       qos_min_speedup=0.7):
    """QoS-PARTIES driven by synthesized request profiles.

    The native :class:`~repro.policies.qos_parties.QosPartiesPolicy`
    needs a :class:`LatencyCriticalJob` per mix slot. Qos-kind slots
    get a profile whose offered load makes the p99 target bind exactly
    at ``qos_min_speedup`` of the job's equal-share IPS (the same
    M/M/1 inversion as :func:`repro.qos.min_speedup_for`, run
    forwards); batch slots get a loose, always-satisfied profile so
    they act as donors in the PARTIES FSM.
    """
    from repro.policies.qos_parties import QosPartiesPolicy
    from repro.workloads.latency_critical import (
        _P99_FACTOR,
        TARGET_P99_MS,
        LatencyCriticalJob,
        RequestProfile,
    )

    if mix is None:
        raise PolicyError("the QoSPARTIES factory needs the job mix, not just n_jobs")
    qos_slots = {int(j) for j in qos_jobs}
    target_s = TARGET_P99_MS / 1000.0
    ipr = 2e6
    jobs = []
    for slot, workload in enumerate(mix):
        share = max(1, len(mix))
        equal_share_ips = workload.ips_under(
            catalog,
            0.0,
            cores=catalog.get(CORES).units / share,
            llc_ways=catalog.get(LLC_WAYS).units / share,
            bandwidth_units=catalog.get(MEMORY_BANDWIDTH).units / share,
        )
        if slot in qos_slots:
            # Load such that meeting the p99 target needs exactly
            # qos_min_speedup of the equal-share capacity.
            load = max(
                0.0, qos_min_speedup * equal_share_ips / ipr - _P99_FACTOR / target_s
            )
            profile = RequestProfile.constant(ipr, target_s, load)
        else:
            profile = RequestProfile.constant(ipr, 10.0, 0.05 * equal_share_ips / ipr)
        jobs.append(LatencyCriticalJob(workload=workload, profile=profile))
    space = _space(catalog, n_jobs)
    return QosPartiesPolicy(space, jobs, goals)


@register_policy("Oracle")
def _build_oracle(mix, catalog, goals, rng, n_jobs, w_throughput=0.5, w_fairness=0.5):
    if mix is None:
        raise PolicyError("the Oracle factory needs the job mix, not just n_jobs")
    return OraclePolicy(OracleSearch(mix, catalog, goals), w_throughput, w_fairness)
