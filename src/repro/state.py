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
  :class:`~repro.errors.ExperimentError`).
* **One encoding** — the canonical JSON that check renders is kept,
  and it is the state's only encoding: equality and hashing compare
  it, a :class:`~repro.engine.RunSpec` digest splices it in for its
  ``initial_state`` (:meth:`PolicyState.to_json`), and a pickle ships
  ``(policy, version, text)`` and nothing else. A state rebuilt from a
  pickle decodes its payload from the text once, on first read
  (``payload``, ``payload_dict()``, ``to_dict()``), so a process that
  only forwards a state — the pool parent passing a node's snapshot to
  its next epoch — never decodes it.
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


def _decode(text: str) -> Any:
    """A payload read back from its canonical JSON."""
    return json.loads(text)


@dataclass(frozen=True, eq=False)
class PolicyState:
    """A policy's complete serializable state at one instant.

    Attributes:
        policy: kind tag of the policy that produced the snapshot
            (``"SATORI"``, ``"Random"``, ...); ``restore`` validates it
            so a snapshot never silently lands in the wrong controller.
        payload: the policy-specific state as plain JSON data, held as
            given (checked on construction, never copied). Treat it as
            read-only: it is shared with every ``to_dict`` caller, and
            the canonical JSON rendered from it on construction stands
            for it from then on. A state rebuilt from a pickle decodes
            it from that JSON on first read.
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
        object.__setattr__(self, "_text", _canonical_json(self.payload))

    def __getattr__(self, name: str) -> Any:
        # Reached only for an attribute the instance lacks: the payload
        # of a state rebuilt from its text, before its first read.
        if name != "payload":
            raise AttributeError(name)
        payload = _decode(self._text)
        object.__setattr__(self, "payload", payload)
        return payload

    def __reduce__(self):
        return _from_text, (self.policy, self.version, self._text)

    def _key(self) -> Tuple[str, int, str]:
        return self.policy, self.version, self._text

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

    def to_json(self) -> str:
        """:meth:`to_dict` as canonical JSON, byte for byte, built
        around the stored payload text without decoding it."""
        return (
            f'{{"payload":{self._text},"policy":{json.dumps(self.policy)},'
            f'"version":{self.version}}}'
        )

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PolicyState":
        state = cls(
            policy=data["policy"],
            payload=data.get("payload", ()),
            version=int(data.get("version", STATE_VERSION)),
        )
        check_version("PolicyState", state.version)
        return state


# The payload's default lives in the generated ``__init__``. Without a
# class attribute of the same name, a state rebuilt by ``_from_text``
# reaches ``__getattr__`` on its first payload read.
del PolicyState.payload


def _from_text(policy: str, version: int, text: str) -> PolicyState:
    """Unpickle a state from its canonical payload text, undecoded."""
    state = object.__new__(PolicyState)
    vars(state).update(policy=policy, version=version, _text=text)
    return state
