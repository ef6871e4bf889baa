"""Declarative run specifications with content-addressed identity.

A :class:`RunSpec` captures everything that determines one policy run:
the job mix (full workload models, not just names), the policy-factory
id and its kwargs, the resource catalog, the methodology knobs, the
goal metrics, and a base seed. Two specs with equal content have equal
digests — across processes and Python sessions — which is what lets
the engine deduplicate work, fan it out to workers, and cache results
on disk.

Randomness is derived *from the spec digest*, never from submission
order: each consumer (policy search, measurement noise) gets its own
stream via :meth:`RunSpec.seed_for`, so a spec produces bit-identical
telemetry whether it runs first or last, serially or on worker 7.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import EngineError
from repro.experiments.runner import RunConfig
from repro.faults.plan import FaultPlan
from repro.metrics.goals import GoalSet
from repro.resources.types import Resource, ResourceCatalog, ResourceKind
from repro.rng import derive_seed
from repro.state import PolicyState
from repro.workloads.mixes import JobMix
from repro.workloads.model import Workload


def _freeze(value: Any) -> Any:
    """Recursively convert plain data into a hashable canonical form."""
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise EngineError(
        f"policy kwargs must be JSON-compatible plain data; got {type(value).__name__}: {value!r}"
    )


def _thaw(value: Any) -> Any:
    """Inverse of :func:`_freeze` for passing kwargs to factories."""
    if isinstance(value, tuple):
        if all(isinstance(v, tuple) and len(v) == 2 and isinstance(v[0], str) for v in value):
            return {k: _thaw(v) for k, v in value}
        return tuple(_thaw(v) for v in value)
    return value


def _jsonable(value: Any) -> Any:
    """Frozen kwargs rendered back into JSON-native containers."""
    thawed = _thaw(value)
    if isinstance(thawed, tuple):
        return [_jsonable(v) for v in thawed]
    if isinstance(thawed, dict):
        return {k: _jsonable(v) for k, v in thawed.items()}
    return thawed


def _listify(value: Any) -> Any:
    """Tuples (from frozen dataclasses) rendered as JSON-native lists."""
    if isinstance(value, dict):
        return {k: _listify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_listify(v) for v in value]
    return value


#: Workload payloads already rendered, by workload identity, least
#: recently used first. Each entry holds its workload, so no other
#: object can take its id while the entry lives.
_WORKLOAD_PAYLOADS: Dict[int, Tuple[Workload, Dict[str, Any]]] = {}
#: Enough for every job resident on a 12-node fleet of 4-job nodes.
_WORKLOAD_PAYLOAD_LIMIT = 64


def _workload_payload(workload: Workload) -> Dict[str, Any]:
    """One workload's digest payload, rendered once per workload object.

    A node keeps most of its jobs from epoch to epoch, and each epoch's
    spec renders the same workload objects again. Keyed by identity,
    not equality: equal workloads can still render differently (``1``
    and ``1.0``, ``0.0`` and ``-0.0``). Treat the result as read-only.
    """
    key = id(workload)
    entry = _WORKLOAD_PAYLOADS.pop(key, None)
    if entry is None:
        entry = (workload, _listify(dataclasses.asdict(workload)))
        if len(_WORKLOAD_PAYLOADS) >= _WORKLOAD_PAYLOAD_LIMIT:
            del _WORKLOAD_PAYLOADS[next(iter(_WORKLOAD_PAYLOADS))]
    _WORKLOAD_PAYLOADS[key] = entry
    return entry[1]


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class RunSpec:
    """A frozen, hashable description of one policy run.

    Attributes:
        mix: the co-located workloads (frozen dataclasses — the digest
            covers their full analytic models, so regenerated synthetic
            workloads with different parameters hash differently).
        policy: a policy-factory id registered in
            :mod:`repro.policies.registry` (e.g. ``"SATORI"``).
        catalog: the server's resource catalog.
        policy_kwargs: JSON-compatible kwargs for the factory, stored
            canonically as sorted key/value tuples (pass a dict).
        run_config: methodology knobs (duration, intervals, noise).
        goals: ``(throughput_metric, fairness_metric)`` names.
        seed: base seed; all RNG streams derive from the digest, which
            includes this value.
        fault_plan: optional :class:`~repro.faults.plan.FaultPlan` to
            inject during the run. The plan is part of the digest (a
            faulted run is a different experiment than a clean one) and
            its realization draws from the *environment* digest — which
            excludes the policy — so variants compared under the same
            plan, mix, and seed face the identical fault timeline
            (hardware does not care which controller is running).
        initial_state: optional :class:`~repro.state.PolicyState` to
            warm-start the policy from. Part of the content digest (a
            warm run is a different experiment than a cold one — the
            cache must never serve one for the other) but excluded
            from :attr:`cold_digest` and the environment digest: the
            measurement-noise stream derives from the cold digest, so
            a warm run and its cold twin face bit-identical noise and
            every difference between them is the carried state.
    """

    mix: JobMix
    policy: str
    catalog: ResourceCatalog
    policy_kwargs: Tuple[Tuple[str, Any], ...] = ()
    run_config: RunConfig = RunConfig()
    goals: Tuple[str, str] = ("sum_ips", "jain")
    seed: int = 0
    fault_plan: Optional[FaultPlan] = None
    initial_state: Optional[PolicyState] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "policy_kwargs", _freeze(dict(self.policy_kwargs)
                           if isinstance(self.policy_kwargs, Mapping)
                           else dict(tuple(self.policy_kwargs))))
        object.__setattr__(self, "goals", (str(self.goals[0]), str(self.goals[1])))
        object.__setattr__(self, "seed", int(self.seed))
        if isinstance(self.fault_plan, Mapping):
            object.__setattr__(self, "fault_plan", FaultPlan.from_dict(dict(self.fault_plan)))
        if isinstance(self.initial_state, Mapping):
            object.__setattr__(
                self, "initial_state", PolicyState.from_dict(dict(self.initial_state))
            )

    # -- identity --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-compatible representation (digest input).

        ``initial_state`` is emitted only when set, so cold-start specs
        keep the digests they had before warm-start existed (cached
        results stay addressable), while a warm-start spec can never
        collide with its cold twin.
        """
        content = self._cold_content()
        if self.initial_state is not None:
            content["initial_state"] = self.initial_state.to_dict()
        return content

    def _cold_content(self) -> Dict[str, Any]:
        """:meth:`to_dict` without ``initial_state`` (a fresh dict)."""
        return {
            "mix": self.mix_payload,
            "policy": self.policy,
            "policy_kwargs": _jsonable(self.policy_kwargs),
            "catalog": [
                {
                    "kind": r.kind.value,
                    "units": r.units,
                    "min_units": r.min_units,
                    "unit_capacity": r.unit_capacity,
                }
                for r in self.catalog
            ],
            "run_config": self.run_config.to_dict(),
            "goals": list(self.goals),
            "seed": self.seed,
            "faults": self.fault_plan.to_dict() if self.fault_plan is not None else None,
        }

    @cached_property
    def mix_payload(self) -> Dict[str, Any]:
        """The mix's canonical JSON form — the heavy part of the spec.

        Cached because every digest (and every cache write) needs it,
        and rendering the full analytic workload models dominates
        :meth:`to_dict`. Treat the returned dict as read-only; it is
        shared across calls.
        """
        return {
            "label": self.mix.label,
            "workloads": [_workload_payload(w) for w in self.mix],
        }

    @cached_property
    def digest(self) -> str:
        """SHA-256 hex digest of the canonical representation.

        The canonical JSON of :meth:`to_dict`, byte for byte, with the
        warm-start state's stored text spliced in where rendering its
        payload again would put it: a state that arrived from a worker
        is hashed without being decoded.
        """
        content = self._cold_content()
        if self.initial_state is None:
            return _sha256(_canonical(content))
        rendered = {key: _canonical(value) for key, value in content.items()}
        rendered["initial_state"] = self.initial_state.to_json()
        return _sha256(
            "{" + ",".join(f"{_canonical(k)}:{v}" for k, v in sorted(rendered.items())) + "}"
        )

    def __eq__(self, other: object) -> bool:
        """Content equality via digests.

        Semantically identical to the field-tuple comparison a frozen
        dataclass would generate (the digest covers every field), but
        after the first comparison it is a single cached-string check —
        the engine's per-batch dedup map keys on specs, and hashing the
        full workload models on every lookup dominated submission cost.
        """
        if self is other:
            return True
        if not isinstance(other, RunSpec):
            return NotImplemented
        return self.digest == other.digest

    def __hash__(self) -> int:
        return hash(self.digest)

    @cached_property
    def cold_digest(self) -> str:
        """Digest of the spec with any warm-start state stripped.

        The measurement-noise seed derives from this digest: a warm
        continuation and its cold twin then sample identical noise, so
        their comparison is paired — and for cold specs it equals
        :attr:`digest`, preserving every pre-warm-start noise stream.
        """
        if self.initial_state is None:
            return self.digest
        return _sha256(_canonical(self._cold_content()))

    @cached_property
    def environment_digest(self) -> str:
        """Digest of the run's *environment*: everything but the policy.

        Seeds for physical events the policy cannot influence — fault
        realizations — derive from this digest, so two specs differing
        only in policy (or policy kwargs, or scoring metrics) face
        bit-identical environments. That is what makes A/B policy
        comparisons under faults *paired* rather than merely
        statistically equivalent.
        """
        # Warm-start state is policy baggage, not environment: a warm
        # and a cold run of the same mix/seed face identical fault
        # realizations, so their comparison is paired.
        content = self._cold_content()
        for key in ("policy", "policy_kwargs", "goals"):
            del content[key]
        return _sha256(_canonical(content))

    def seed_for(self, stream: str) -> int:
        """A deterministic seed for one named consumer of this spec.

        Distinct ``stream`` names (``"policy"``, ``"noise"``) yield
        independent streams; both are functions of the content digest
        only, so they are identical in every process that runs the
        spec.
        """
        return derive_seed(self.digest, stream)

    # -- reconstruction helpers -----------------------------------------

    @property
    def n_jobs(self) -> int:
        return len(self.mix)

    def goal_set(self) -> GoalSet:
        return GoalSet(*self.goals)

    def kwargs_dict(self) -> Dict[str, Any]:
        """Policy kwargs as a plain dict for the factory call."""
        return dict(_thaw(self.policy_kwargs))

    @staticmethod
    def catalog_from_dict(entries) -> ResourceCatalog:
        """Rebuild a catalog from the ``catalog`` part of :meth:`to_dict`."""
        return ResourceCatalog(
            Resource(
                kind=ResourceKind(e["kind"]),
                units=int(e["units"]),
                min_units=int(e["min_units"]),
                unit_capacity=float(e["unit_capacity"]),
            )
            for e in entries
        )

    def __repr__(self) -> str:  # keep logs readable: the mix dataclass repr is huge
        return (
            f"RunSpec(policy={self.policy!r}, mix={self.mix.label!r}, "
            f"seed={self.seed}, digest={self.digest[:12]})"
        )
