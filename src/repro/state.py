"""First-class policy state: the snapshot/restore envelope.

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
``snapshot()``/``restore()`` protocol. Inside it, each stateful core
component (the GP, the optimizer, the goal records, the weight
scheduler) snapshots straight to a JSON dict with a nested
``"version"``, which its ``restore()`` reads back and checks with
:func:`check_version`.

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
from typing import Any, Dict, Tuple

from repro.errors import ExperimentError, PolicyError

#: Version of the snapshot envelope; bump on incompatible layout changes.
STATE_VERSION = 1


def check_version(what: str, version: int) -> None:
    """Reject state written by a newer layout than this code knows."""
    if version > STATE_VERSION:
        raise PolicyError(
            f"{what} version {version} is newer than this code understands ({STATE_VERSION})"
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
        check_version("PolicyState", state.version)
        return state
