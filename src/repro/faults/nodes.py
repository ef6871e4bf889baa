"""Node-scoped fleet faults: plans and their deterministic schedules.

The PR 2 fault substrate injects *intra-run* faults (MSR writes,
monitoring samples, job crashes) inside one node-epoch. This module
scales the same plan -> schedule discipline up one level, to *fleet
weather*: whole-node failure modes expressed at placement-epoch
granularity.

* :class:`NodeFaultPlan` — a frozen, seedless description of one
  node's failure behaviour: a deterministic crash-at-epoch (with an
  optional rejoin), plus per-epoch rates for transient blackouts,
  straggler slowdowns, and flaky-telemetry episodes.
* :class:`NodeFaultSchedule` — the concrete realization: a tuple of
  :class:`NodeFaultEvent` windows drawn from SHA-256-derived streams,
  one unconditional draw per epoch per fault family, so overlapping
  windows never shift the stream and identical ``(plan, n_epochs,
  seed)`` inputs are bit-identical in every process.

The cluster simulator realizes one schedule per node from
``derive_seed(cluster_seed, "fleet", node_id)`` — a function of *which
node*, never of which jobs landed there — so every placement x policy
x broker arm of a sweep faces identical fleet weather and observed
differences are attributable to the recovery machinery, not to fault
luck.

Horizon discipline: a plan whose deterministic windows (crash epoch,
rejoin, fault window) extend past the trace being realized *raises*
rather than silently truncating — a crash that never happens, or a
rejoin that is never observed, would quietly invalidate a chaos
sweep's recovery metrics. Stochastic blackout/straggler/flaky windows
that a late draw would push past the horizon are clamped to it: the
down window inside the experiment is fully realized, and the part
beyond the last epoch is unobservable by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ExperimentError
from repro.rng import derive_seed

#: Node-level event kinds.
NODE_DOWN = "down"            # node unavailable: crash or blackout window
NODE_STRAGGLER = "straggler"  # node runs, but `magnitude`x slower
NODE_FLAKY = "flaky"          # node's telemetry is corrupted at `magnitude`

_NODE_KINDS = (NODE_DOWN, NODE_STRAGGLER, NODE_FLAKY)

#: Fields that are per-epoch probabilities (validated to [0, 1)).
_RATE_FIELDS = ("blackout_rate", "straggler_rate", "flaky_rate")

#: Fields that are window lengths in epochs (validated to >= 1).
_EPOCH_FIELDS = ("blackout_epochs", "straggler_epochs", "flaky_epochs")


@dataclass(frozen=True)
class NodeFaultPlan:
    """Seedless description of one node's fleet-level failure behaviour.

    All rates are per placement epoch; all stochastic faults are
    confined to the ``[start_epoch, end_epoch)`` window (``end_epoch=None``
    means the whole trace). The deterministic crash is the chaos
    sweep's primary knob — it fires at exactly ``crash_epoch`` in every
    realization, so paired arms disagree only in how they *react*.

    Attributes:
        crash_epoch: epoch at which the node deterministically goes
            down (``None`` disables the deterministic crash).
        crash_rejoin_epochs: how many epochs the crashed node stays
            down before rejoining; ``None`` means it never comes back.
        blackout_rate: per-epoch probability a transient blackout
            *starts*, taking the node down for ``blackout_epochs``.
        straggler_rate: per-epoch probability a straggler episode
            starts — the node keeps running but ``straggler_slowdown``
            times slower for ``straggler_epochs``.
        flaky_rate: per-epoch probability a flaky-telemetry episode
            starts: the node's monitoring samples are corrupted at
            ``flaky_intensity`` for ``flaky_epochs``.
        start_epoch / end_epoch: window the stochastic rates apply in.
    """

    crash_epoch: Optional[int] = None
    crash_rejoin_epochs: Optional[int] = None
    blackout_rate: float = 0.0
    blackout_epochs: int = 2
    straggler_rate: float = 0.0
    straggler_epochs: int = 1
    straggler_slowdown: float = 2.0
    flaky_rate: float = 0.0
    flaky_epochs: int = 1
    flaky_intensity: float = 0.5
    start_epoch: int = 0
    end_epoch: Optional[int] = None

    def __post_init__(self) -> None:
        if self.crash_epoch is not None and self.crash_epoch < 0:
            raise ExperimentError(f"crash_epoch must be >= 0, got {self.crash_epoch}")
        if self.crash_rejoin_epochs is not None:
            if self.crash_epoch is None:
                raise ExperimentError("crash_rejoin_epochs needs a crash_epoch")
            if self.crash_rejoin_epochs < 1:
                raise ExperimentError(
                    f"crash_rejoin_epochs must be >= 1, got {self.crash_rejoin_epochs}"
                )
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ExperimentError(f"{name} must be in [0, 1), got {value}")
        for name in _EPOCH_FIELDS:
            value = getattr(self, name)
            if value < 1:
                raise ExperimentError(f"{name} must be >= 1, got {value}")
        if self.straggler_slowdown <= 1.0:
            raise ExperimentError(
                f"straggler_slowdown must exceed 1, got {self.straggler_slowdown}"
            )
        if not 0.0 < self.flaky_intensity <= 1.0:
            raise ExperimentError(
                f"flaky_intensity must be in (0, 1], got {self.flaky_intensity}"
            )
        if self.start_epoch < 0:
            raise ExperimentError(
                f"fault window start must be >= 0, got {self.start_epoch}"
            )
        if self.end_epoch is not None and self.end_epoch <= self.start_epoch:
            raise ExperimentError(
                f"fault window end {self.end_epoch} must exceed start {self.start_epoch}"
            )

    @property
    def is_empty(self) -> bool:
        """Whether the plan injects nothing."""
        return self.crash_epoch is None and all(
            getattr(self, name) == 0.0 for name in _RATE_FIELDS
        )

    def validate_horizon(self, n_epochs: int) -> None:
        """Raise if the plan's deterministic windows outlive ``n_epochs``.

        Silent truncation is the failure mode this guards against: a
        crash scheduled past the trace end never fires, and a rejoin
        past it is never observed — either would quietly turn a chaos
        experiment into a fair-weather run.
        """
        if self.crash_epoch is not None and self.crash_epoch >= n_epochs:
            raise ExperimentError(
                f"crash_epoch {self.crash_epoch} outlives the "
                f"{n_epochs}-epoch trace"
            )
        if self.crash_rejoin_epochs is not None:
            rejoin = self.crash_epoch + self.crash_rejoin_epochs
            if rejoin > n_epochs:
                raise ExperimentError(
                    f"crash rejoin at epoch {rejoin} outlives the "
                    f"{n_epochs}-epoch trace"
                )
        if self.start_epoch >= n_epochs and not self.is_empty:
            raise ExperimentError(
                f"fault window starts at epoch {self.start_epoch}, past the "
                f"{n_epochs}-epoch trace"
            )
        if self.end_epoch is not None and self.end_epoch > n_epochs:
            raise ExperimentError(
                f"fault window end {self.end_epoch} outlives the "
                f"{n_epochs}-epoch trace"
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation (lossless)."""
        from repro.serialize import dataclass_to_dict

        return dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "NodeFaultPlan":
        """Rebuild a plan from :meth:`to_dict` output (strict keys)."""
        from repro.serialize import dataclass_from_dict

        return dataclass_from_dict(cls, data, strict=True)


@dataclass(frozen=True)
class NodeFaultEvent:
    """One node-level fault window at epoch granularity (half-open).

    Attributes:
        kind: one of :data:`NODE_DOWN` / :data:`NODE_STRAGGLER` /
            :data:`NODE_FLAKY`.
        start_epoch: first epoch the event covers.
        end_epoch: first epoch it no longer covers; ``None`` means the
            event lasts to the end of the trace (a crash with no
            rejoin).
        magnitude: kind-specific strength — the slowdown factor for
            stragglers, the telemetry-corruption intensity for flaky
            windows, unused (0.0) for down windows.
    """

    kind: str
    start_epoch: int
    end_epoch: Optional[int] = None
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _NODE_KINDS:
            raise ExperimentError(
                f"unknown node fault kind {self.kind!r}; choices: {_NODE_KINDS}"
            )
        if self.start_epoch < 0:
            raise ExperimentError(f"start_epoch must be >= 0, got {self.start_epoch}")
        if self.end_epoch is not None and self.end_epoch <= self.start_epoch:
            raise ExperimentError(
                f"node fault window [{self.start_epoch}, {self.end_epoch}) is empty"
            )

    def active(self, epoch: int) -> bool:
        """Whether the event covers placement epoch ``epoch``."""
        if epoch < self.start_epoch:
            return False
        return self.end_epoch is None or epoch < self.end_epoch

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "start_epoch": self.start_epoch,
            "end_epoch": self.end_epoch,
            "magnitude": self.magnitude,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "NodeFaultEvent":
        end = data.get("end_epoch")
        return cls(
            kind=str(data["kind"]),
            start_epoch=int(data["start_epoch"]),
            end_epoch=None if end is None else int(end),
            magnitude=float(data.get("magnitude", 0.0)),
        )


@dataclass(frozen=True)
class NodeFaultSchedule:
    """A concrete, immutable fleet-weather timeline for one node."""

    events: Tuple[NodeFaultEvent, ...] = ()
    n_epochs: int = 0

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[NodeFaultEvent]:
        return iter(self.events)

    # -- lookups (consulted once per epoch by the simulator) -------------

    def down_at(self, epoch: int) -> bool:
        """Whether any down window covers ``epoch``."""
        return any(
            e.kind == NODE_DOWN and e.active(epoch) for e in self.events
        )

    def down_end(self, epoch: int) -> Optional[int]:
        """When the down window(s) covering ``epoch`` end.

        Returns the latest ``end_epoch`` among active down windows, or
        ``None`` if any of them is permanent. Meaningless (``None``)
        when :meth:`down_at` is false.
        """
        ends: List[int] = []
        for event in self.events:
            if event.kind != NODE_DOWN or not event.active(epoch):
                continue
            if event.end_epoch is None:
                return None
            ends.append(event.end_epoch)
        return max(ends) if ends else None

    def slowdown_at(self, epoch: int) -> float:
        """Active straggler slowdown factor (1.0 when none)."""
        factor = 1.0
        for event in self.events:
            if event.kind == NODE_STRAGGLER and event.active(epoch):
                factor = max(factor, event.magnitude)
        return factor

    def flaky_at(self, epoch: int) -> float:
        """Active telemetry-corruption intensity (0.0 when none)."""
        intensity = 0.0
        for event in self.events:
            if event.kind == NODE_FLAKY and event.active(epoch):
                intensity = max(intensity, event.magnitude)
        return intensity

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_epochs": self.n_epochs,
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "NodeFaultSchedule":
        return cls(
            events=tuple(NodeFaultEvent.from_dict(e) for e in data.get("events", [])),
            n_epochs=int(data.get("n_epochs", 0)),
        )

    # -- generation ------------------------------------------------------

    @classmethod
    def generate(
        cls, plan: NodeFaultPlan, n_epochs: int, seed: int = 0
    ) -> "NodeFaultSchedule":
        """Realize ``plan`` into a concrete per-epoch timeline.

        Three independent streams (blackout, straggler, flaky) each
        consume exactly one draw per epoch, window or no window, so a
        long blackout never shifts the straggler stream and late events
        do not depend on early ones.

        Raises:
            ExperimentError: if the plan's deterministic windows
                outlive ``n_epochs`` (see
                :meth:`NodeFaultPlan.validate_horizon`) — never
                silently truncated.
        """
        if n_epochs < 1:
            raise ExperimentError(f"n_epochs must be >= 1, got {n_epochs}")
        plan.validate_horizon(n_epochs)

        rng_down = np.random.default_rng(derive_seed("fleet", int(seed), "blackout"))
        rng_slow = np.random.default_rng(derive_seed("fleet", int(seed), "straggler"))
        rng_flky = np.random.default_rng(derive_seed("fleet", int(seed), "flaky"))

        end_window = n_epochs if plan.end_epoch is None else min(plan.end_epoch, n_epochs)
        events: List[NodeFaultEvent] = []
        if plan.crash_epoch is not None:
            rejoin = (
                None
                if plan.crash_rejoin_epochs is None
                else plan.crash_epoch + plan.crash_rejoin_epochs
            )
            events.append(NodeFaultEvent(NODE_DOWN, plan.crash_epoch, rejoin))

        for epoch in range(n_epochs):
            in_window = plan.start_epoch <= epoch < end_window
            blackout = rng_down.random() < plan.blackout_rate
            straggle = rng_slow.random() < plan.straggler_rate
            flaky = rng_flky.random() < plan.flaky_rate
            if not in_window:
                continue
            # Stochastic windows clamp at the horizon: the down epochs
            # inside the trace are fully realized; the remainder is
            # unobservable by construction (see module docstring).
            if blackout:
                events.append(
                    NodeFaultEvent(
                        NODE_DOWN, epoch, min(epoch + plan.blackout_epochs, n_epochs)
                    )
                )
            if straggle:
                events.append(
                    NodeFaultEvent(
                        NODE_STRAGGLER,
                        epoch,
                        min(epoch + plan.straggler_epochs, n_epochs),
                        magnitude=plan.straggler_slowdown,
                    )
                )
            if flaky:
                events.append(
                    NodeFaultEvent(
                        NODE_FLAKY,
                        epoch,
                        min(epoch + plan.flaky_epochs, n_epochs),
                        magnitude=plan.flaky_intensity,
                    )
                )
        return cls(events=tuple(events), n_epochs=n_epochs)
