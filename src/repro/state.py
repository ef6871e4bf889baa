"""First-class policy state: the snapshot/restore value types.

SATORI's long-term gains come from accumulated state — the GP
posterior, the per-goal sample records, and the dynamic-weight
scheduler's position inside its equalization period. Historically that
state lived only in controller object graphs and died with them: the
cluster layer rebuilds each node's controller every placement epoch,
so a node whose job membership did *not* change still re-learned from
scratch.

This module makes controller state a serializable first-class object.
:class:`PolicyState` is the uniform envelope every
:class:`~repro.policies.base.PartitioningPolicy` speaks through its
``snapshot()``/``restore()`` protocol; the component dataclasses
(:class:`GPState`, :class:`BOState`, :class:`GoalRecordsState`,
:class:`WeightSchedulerState`) are the versioned, JSON-codable forms
of each stateful core component.

Design constraints the representation answers to:

* **Plain JSON data, held as given** — payloads are the dicts, lists
  and scalars the snapshots build. Construction checks them with one
  ``json.dumps(..., sort_keys=True)`` pass (anything else raises
  :class:`~repro.errors.ExperimentError`); :class:`PolicyState`
  equality and hashing use that canonical JSON, which is also what a
  :class:`~repro.engine.RunSpec` digest covers for its
  ``initial_state``.
* **Read-only** — ``to_dict()``/``payload_dict()`` return the stored
  data, not copies: snapshots build fresh containers and restores only
  read them, so a snapshot stays a value while controllers step on.
* **Bit-identical resume** — restoring a snapshot and continuing must
  be indistinguishable from never tearing the controller down. That
  forces *everything* the decision path reads into the snapshot: the
  RNG stream (numpy bit-generator state), the GP's Cholesky factor
  (a recomputed factorization differs from an incrementally extended
  one in the last floating-point bits), the hyperparameter-refit
  counter, and the BO probe set drawn at construction time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro import serialize
from repro.errors import ExperimentError, PolicyError

#: Version of the snapshot envelope; bump on incompatible layout changes.
STATE_VERSION = 1


def _check_version(cls_name: str, version: int, known: int = STATE_VERSION) -> None:
    if version > known:
        raise PolicyError(
            f"{cls_name} version {version} is newer than this code understands ({known})"
        )


def _canonical_json(value: Any) -> str:
    """``value`` as canonical JSON; raises unless it is plain JSON data
    (convert objects through their ``to_dict`` first)."""
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as error:
        raise ExperimentError(
            f"state payloads must be JSON-compatible plain data: {error}"
        ) from None


@dataclass(frozen=True, eq=False)
class PolicyState:
    """A policy's complete serializable state at one instant.

    Attributes:
        policy: kind tag of the policy that produced the snapshot
            (``"SATORI"``, ``"Random"``, ...); ``restore`` validates it
            so a snapshot never silently lands in the wrong controller.
        payload: the policy-specific state as plain JSON data, held as
            given (checked on construction, never copied). Treat it as
            read-only: it is shared with every ``to_dict`` caller.
        version: envelope version for forward-compatibility checks.

    Equality and hashing compare the policy tag, the version and the
    payload's canonical JSON.
    """

    policy: str
    payload: Any = ()
    version: int = STATE_VERSION

    def __post_init__(self) -> None:
        object.__setattr__(self, "policy", str(self.policy))
        object.__setattr__(self, "version", int(self.version))
        _canonical_json(self.payload)

    def _key(self) -> Tuple[str, int, str]:
        return self.policy, self.version, _canonical_json(self.payload)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolicyState):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def payload_dict(self) -> Dict[str, Any]:
        """The payload mapping itself (read-only; not a copy)."""
        if not isinstance(self.payload, dict):
            raise PolicyError(
                f"{self.policy} state payload is not a mapping: {type(self.payload).__name__}"
            )
        return self.payload

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation (lossless; payload not copied)."""
        return {"policy": self.policy, "version": self.version, "payload": self.payload}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PolicyState":
        state = cls(
            policy=data["policy"],
            payload=data.get("payload", ()),
            version=int(data.get("version", STATE_VERSION)),
        )
        _check_version("PolicyState", state.version)
        return state


@dataclass(frozen=True)
class GPState:
    """Serialized :class:`~repro.core.gp.GaussianProcess` posterior.

    The Cholesky factor and dual weights are stored verbatim (not
    recomputed on restore): the controller's steady state extends the
    factor incrementally, and a from-scratch refactorization agrees
    only to floating-point error — which would break bit-identical
    resume. ``fits_since_search`` is the hyperparameter-refit counter;
    carrying it keeps the grid-search cadence aligned with an
    uninterrupted run. The kernel is stored by name + hyperparameters
    (``fit_key`` is recomputed on restore — it contains a type object
    and cannot ride through JSON).
    """

    kernel: str
    lengthscale: float
    variance: float
    noise: float
    y_mean: float
    y_std: float
    fits_since_search: Optional[int] = None
    x: Optional[Tuple[Tuple[float, ...], ...]] = None
    chol: Optional[Tuple[Tuple[float, ...], ...]] = None
    alpha: Optional[Tuple[float, ...]] = None
    version: int = STATE_VERSION

    _CODECS = {
        "x": serialize.optional(serialize.matrix_codec()),
        "chol": serialize.optional(serialize.matrix_codec()),
        "alpha": serialize.optional(serialize.vector_codec()),
    }

    def to_dict(self) -> Dict[str, Any]:
        return serialize.dataclass_to_dict(self, codecs=self._CODECS)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "GPState":
        state = serialize.dataclass_from_dict(cls, data, codecs=cls._CODECS)
        _check_version("GPState", state.version)
        return state


@dataclass(frozen=True)
class BOState:
    """Serialized :class:`~repro.core.bo.BayesianOptimizer` state.

    ``rng`` is the numpy bit-generator state dict; ``probes`` are the
    fixed proxy-change probe configurations (``to_dict`` forms), which
    are drawn from the optimizer's RNG *at construction* — a restored
    optimizer was constructed from a different seed, so the probe set
    must travel with the snapshot (their encodings are recomputed from
    the space on restore). Both are plain JSON data held as given and
    read-only; the enclosing :class:`PolicyState` checks them.
    """

    gp: GPState
    rng: Any
    iteration: int
    probes: Any
    last_probe_means: Optional[Tuple[float, ...]] = None
    version: int = STATE_VERSION

    _CODECS = {
        "gp": serialize.object_codec(GPState),
        "last_probe_means": serialize.optional(serialize.vector_codec()),
    }

    def to_dict(self) -> Dict[str, Any]:
        return serialize.dataclass_to_dict(self, codecs=self._CODECS)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BOState":
        state = serialize.dataclass_from_dict(cls, data, codecs=cls._CODECS)
        _check_version("BOState", state.version)
        return state


@dataclass(frozen=True)
class GoalRecordsState:
    """Serialized :class:`~repro.core.objective.GoalRecords` sample book.

    Each sample is ``{"config": ..., "encoded": [...], "scores": [...]}``
    (the configuration in its ``to_dict`` form): plain JSON data held
    as given and read-only; the enclosing :class:`PolicyState` checks
    it.
    """

    goal_names: Tuple[str, ...]
    max_samples: int
    samples: Any = ()
    version: int = STATE_VERSION

    def __post_init__(self) -> None:
        object.__setattr__(self, "goal_names", tuple(str(n) for n in self.goal_names))

    _CODECS = {"goal_names": serialize.FieldCodec(encode=list, decode=tuple)}

    def to_dict(self) -> Dict[str, Any]:
        return serialize.dataclass_to_dict(self, codecs=self._CODECS)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "GoalRecordsState":
        state = serialize.dataclass_from_dict(cls, data, codecs=cls._CODECS)
        _check_version("GoalRecordsState", state.version)
        return state


@dataclass(frozen=True)
class WeightSchedulerState:
    """Serialized :class:`~repro.core.weights.DynamicWeightScheduler` state.

    Captures the scheduler's position inside the current equalization
    period: the step counter, the accumulated weight sums (Eq. 3's
    imbalance terms), the incumbent prioritization weights (Eq. 4),
    and the score window the next prioritization boundary will
    difference.
    """

    step_in_te: int
    sum_w_t: float
    sum_w_f: float
    w_tp: float
    w_fp: float
    period_scores: Tuple[Tuple[float, float], ...] = ()
    version: int = STATE_VERSION

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "period_scores",
            tuple((float(t), float(f)) for t, f in self.period_scores),
        )

    _CODECS = {"period_scores": serialize.matrix_codec()}

    def to_dict(self) -> Dict[str, Any]:
        return serialize.dataclass_to_dict(self, codecs=self._CODECS)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WeightSchedulerState":
        state = serialize.dataclass_from_dict(cls, data, codecs=cls._CODECS)
        _check_version("WeightSchedulerState", state.version)
        return state
