"""The partitioning-policy protocol shared by SATORI and all baselines.

A policy is an online controller: once per control interval it
receives the previous interval's :class:`~repro.system.Observation`
and returns the configuration to install for the next interval. The
first call receives ``None`` (nothing has run yet). Policies declare
which resources they control; resources outside that set stay shared
and are subject to the simulator's contention model — this is how
dCAT (LLC only) and CoPart (LLC + memory bandwidth) differ from the
all-resource policies.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Tuple

from repro.errors import PolicyError
from repro.metrics.goals import GoalSet
from repro.resources.allocation import Configuration
from repro.resources.space import ConfigurationSpace
from repro.state import PolicyState, check_version
from repro.system.simulation import Observation


class PartitioningPolicy(abc.ABC):
    """Base class for online resource-partitioning policies.

    Args:
        space: the configuration space over the resources this policy
            controls (possibly a subset of the server's catalog).
        goals: metric choices used to score observations.
    """

    #: Human-readable policy name, set by subclasses.
    name: str = "policy"

    #: Kind tag stamped into :class:`~repro.state.PolicyState`
    #: snapshots; ``None`` marks a stateless policy (snapshots to
    #: ``None``, restores nothing).
    state_kind: Optional[str] = None

    def __init__(self, space: ConfigurationSpace, goals: Optional[GoalSet] = None):
        self._space = space
        self._goals = goals or GoalSet()

    @property
    def space(self) -> ConfigurationSpace:
        return self._space

    @property
    def goals(self) -> GoalSet:
        return self._goals

    @property
    def controlled_resources(self) -> Tuple[str, ...]:
        """Resource names this policy actively partitions."""
        return self._space.resource_names

    @abc.abstractmethod
    def decide(self, observation: Optional[Observation]) -> Configuration:
        """Return the configuration for the next control interval.

        Args:
            observation: measurements from the previous interval, or
                ``None`` on the first call.
        """

    # -- snapshot / restore ----------------------------------------------

    def snapshot(self) -> Optional[PolicyState]:
        """The policy's serializable state, or ``None`` if stateless.

        Stateful policies override this (together with :meth:`restore`)
        so their accumulated state — GP posterior, sample records,
        scheduler position, RNG streams — can cross run boundaries.
        The contract: ``restore(snapshot())`` on a compatibly
        constructed instance (same space, same constructor kwargs) must
        continue **bit-identically** to never tearing the policy down.
        The payload must be built from fresh containers, never aliases
        of live state, so the snapshot stays a value as the policy
        keeps stepping.
        """
        return None

    def restore(self, state: Optional[PolicyState]) -> None:
        """Resume from a :meth:`snapshot`; ``None`` is a no-op.

        Overrides must only read ``state``: its payload is shared, not
        copied, with every holder of the snapshot. The default
        implementation serves stateless policies: it accepts ``None``
        silently and rejects any actual state, so a snapshot can never
        silently vanish into a policy that does not implement the
        protocol.
        """
        if state is None:
            return
        raise PolicyError(
            f"{type(self).__name__} is stateless and cannot restore "
            f"{state.policy!r} policy state"
        )

    def _check_state(self, policy: str, version: int) -> None:
        """Shared validation for stateful :meth:`restore` overrides:
        the kind tag and envelope version of the state to restore."""
        if self.state_kind is None or policy != self.state_kind:
            raise PolicyError(
                f"cannot restore {policy!r} state into {type(self).__name__} "
                f"(expects {self.state_kind!r})"
            )
        check_version(f"{policy} state", version)

    def diagnostics(self) -> Dict[str, float]:
        """Introspection values recorded into telemetry ``extra`` fields.

        Subclasses override to expose internals (SATORI reports its
        weights, objective value, and proxy-model change here).
        """
        return {}

    def _scores(self, observation: Observation):
        """Goal scores of an observation under this policy's metrics.

        Degenerate measurements (e.g. every job at zero IPS after a
        mass crash under fault injection) make the fairness CoV raise
        :class:`~repro.errors.ExperimentError` — a naive controller
        *should* fall over on them; surviving such intervals is what
        the hardened SATORI validation gate is for.
        """
        if observation is None:
            raise PolicyError("no observation to score")
        return self._goals.scores(observation.ips, observation.isolation_ips)
