"""BoPF: bounded-priority fairness for mixed batch/qos co-location.

BoPF (PAPERS.md) observes that bursty latency-critical tenants need
*short-term* guarantees while long-term fairness should still govern
steady state. This policy reproduces that two-phase structure on top
of the SATORI controller:

* **Guarantee phase** — while a qos job's smoothed speedup sits below
  its SLO floor, the policy escalates a bounded *priority tilt*: the
  inner controller scores every sample as if the qos jobs' isolation
  baselines were inflated by ``1 + level * _BOOST_STEP`` (see
  :meth:`~repro.core.controller.SatoriController.set_baseline_tilt`).
  Under SATORI's own equalization objective a job that looks further
  from parity draws resources, so the controller itself reallocates
  toward the violating qos jobs — no configuration is ever
  overridden, and every sample the BO records was measured under the
  configuration it proposed. Because the tilt is a *scoring context*
  rather than a doctored measurement, the controller rescores its
  entire sample book whenever the level changes: its belief about
  every configuration shifts atomically, and the acquisition argmax
  moves immediately instead of waiting to re-visit old points. The
  tilt escalates one level per control interval and is capped at
  ``_BOOST_BUDGET`` levels: qos jobs get priority, never capture.
* **Fairness phase** — once the worst qos job clears the floor with
  hysteresis headroom, the tilt decays one level per interval back to
  zero; the record book is rescored back to the untilted objective
  and the policy *is* plain SATORI, bit for bit.

The two phases realize the paper's short-term/long-term split: the
tilt sacrifices short-term batch throughput for the qos guarantee,
while the long-term objective (and the controller's sample cadence,
scheduler position, and learned model) remain SATORI's. The rescore
mechanism is the paper's "software-based reconstruction of the proxy
model" (Sec. III-B) taken one level deeper — the same trick that lets
weights change without re-running configurations lets guarantees
change without poisoning the GP.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import PolicyError
from repro.metrics.goals import GoalSet
from repro.policies.base import PartitioningPolicy
from repro.resources.allocation import Configuration
from repro.resources.space import ConfigurationSpace
from repro.rng import SeedLike
from repro.state import STATE_VERSION, PolicyState, check_version
from repro.system.simulation import Observation

#: Maximum tilt levels the guarantee phase may escalate to (the bound
#: in "bounded priority"), and the priority each level adds: at level
#: ``k`` the qos baselines are inflated by ``1 + k * _BOOST_STEP``, so
#: equalization targets roughly that multiple of the batch jobs'
#: speedup for the violators.
_BOOST_BUDGET = 3
_BOOST_STEP = 0.2

#: Violation threshold relative to the floor. Exactly 1.0: the tilt is
#: a corrective mechanism, not a cushion — engaging while the floor is
#: technically met (to buy headroom) costs more in optimizer churn
#: than the headroom is worth, because every engagement rescores the
#: record book and wakes the idle latch.
_FLOOR_MARGIN = 1.0

#: Decay hysteresis: the tilt shrinks only once the worst qos job
#: clears the floor by this factor, preventing escalate/decay thrash.
_DECAY_MARGIN = 1.15

#: EMA smoothing for the per-job speedup estimate. Deliberately slow:
#: the dominant transient in the signal is not scheduling but *stale
#: baselines* — a program-phase change craters the measured speedup
#: until the next baseline re-measurement, and the guarantee loop must
#: ride through that artifact rather than slam the tilt around it.
_EMA_KEEP = 0.75

#: Control intervals between tilt escalations. Each level change
#: rescores the record book and wakes the optimizer; escalating every
#: interval would change the objective faster than the BO can chase it.
_ESCALATE_EVERY = 3

#: Futility back-off: consecutive fully-tilted intervals without the
#: worst qos EMA improving by more than ``_STALL_EPS`` before the tilt
#: is released entirely for ``_COOLDOWN`` intervals. A saturated qos
#: job (its speedup cannot reach the tilted target no matter the
#: allocation) must not drag the whole node down chasing an
#: unreachable equalization point — bounded priority includes bounding
#: the sacrifice when the guarantee is infeasible. The release is a
#: *cooldown*, not a surrender: program phases shift on second
#: timescales, and a floor that is infeasible in this phase is often
#: feasible in the next, so the guarantee machinery re-arms once the
#: cooldown expires.
_STALL_LIMIT = 8
_STALL_EPS = 0.02
_COOLDOWN = 30

#: Consecutive violating intervals required before the *first* tilt
#: level engages. A fresh session's EMA needs a few intervals to mean
#: anything, and a transient dip (phase change, migration warm-up)
#: should not trigger a full escalate/stall/back-off cycle.
_PATIENCE = 6


class BoPFPolicy(PartitioningPolicy):
    """Short-term qos guarantees bounded inside long-term SATORI fairness.

    Args:
        space: configuration space over the controlled resources.
        goals: metric choices (forwarded to the inner controller).
        qos_jobs: slot indices (0-based positions in the mix) of the
            qos-kind jobs this node hosts. Empty means the policy
            degenerates to plain SATORI.
        min_speedup: the SLO floor boosted jobs are held to (see
            :class:`repro.qos.SLOSpec`).
        rng: seed for the inner controller.

    Remaining keyword arguments are forwarded to
    :class:`~repro.core.controller.SatoriController`.
    """

    name = "BoPF"
    state_kind = "BoPF"

    def __init__(
        self,
        space: ConfigurationSpace,
        goals: Optional[GoalSet] = None,
        qos_jobs: Sequence[int] = (),
        min_speedup: float = 0.7,
        rng: SeedLike = None,
        **satori_kwargs,
    ):
        # Imported lazily for the same reason as the registry's SATORI
        # builder: repro.core.controller imports the policy base.
        from repro.core.controller import SatoriController

        super().__init__(space, goals)
        if not 0.0 < min_speedup <= 1.0:
            raise PolicyError(f"min_speedup must be in (0, 1], got {min_speedup}")
        qos = tuple(sorted(int(j) for j in qos_jobs))
        if any(j < 0 or j >= space.n_jobs for j in qos):
            raise PolicyError(
                f"qos job slots {qos} out of range for {space.n_jobs} jobs"
            )
        self._qos_jobs = qos
        self._min_speedup = float(min_speedup)
        self._inner = SatoriController(space, goals, rng=rng, **satori_kwargs)
        self._tick = 0
        self._level = 0
        self._cooldown = 0
        self._stall = 0
        self._stall_best = 0.0
        self._violating_streak = 0
        self._total_boosts = 0
        self._ema: Optional[np.ndarray] = None

    # -- decision path ---------------------------------------------------

    def decide(self, observation: Optional[Observation]) -> Configuration:
        if observation is None:
            # Session (re)start: the EMA is stale, but the tilt level
            # is kept — a warm restart must not silently drop an
            # active guarantee.
            self._ema = None
            self._apply_tilt()
            return self._inner.decide(None)

        self._update_ema(observation)
        self._tick += 1

        worst = self._worst_qos_speedup()
        if self._inner.probing:
            # The inner controller is still draining its initial probe
            # set: speedups reflect deliberately diverse configurations,
            # not its best belief. Reacting to them would escalate a
            # tilt against a violation that probing itself caused (and
            # bake mis-scored records into the young model). Hold the
            # tilt machinery until the controller is actually steering.
            worst = None
            self._violating_streak = 0
        if worst is not None:
            if worst < self._min_speedup * _FLOOR_MARGIN:
                self._violating_streak += 1
                if self._cooldown > 0:
                    # A full-tilt attempt just went nowhere; let the
                    # phase move on before trying again.
                    self._cooldown -= 1
                elif self._violating_streak < _PATIENCE:
                    pass
                elif self._level < _BOOST_BUDGET:
                    # Escalate on a fixed cadence so the optimizer gets
                    # a few intervals to chase each objective shift.
                    if (self._violating_streak - _PATIENCE) % _ESCALATE_EVERY == 0:
                        self._level += 1
                        self._total_boosts += 1
                        self._stall = 0
                        self._stall_best = worst
                elif self._level > 0:
                    # Fully tilted yet still violating: demand progress
                    # or back off entirely (see _STALL_LIMIT above).
                    if worst > self._stall_best + _STALL_EPS:
                        self._stall = 0
                        self._stall_best = worst
                    else:
                        self._stall += 1
                        if self._stall >= _STALL_LIMIT:
                            self._level = 0
                            self._stall = 0
                            self._cooldown = _COOLDOWN
            elif worst > self._min_speedup * _DECAY_MARGIN:
                self._violating_streak = 0
                if self._level > 0:
                    self._level -= 1
                # The floor is comfortably met — the regime that made
                # escalation futile (if any) has passed.
                self._cooldown = 0
                self._stall = 0
            else:
                self._violating_streak = 0

        self._apply_tilt()
        return self._inner.decide(observation)

    def _update_ema(self, observation: Observation) -> None:
        iso = np.asarray(observation.isolation_ips, dtype=float)
        ips = np.asarray(observation.ips, dtype=float)
        measured = np.divide(
            ips, iso, out=np.zeros_like(ips), where=iso > 0
        )
        if self._ema is None or len(self._ema) != len(measured):
            self._ema = measured
        else:
            self._ema = _EMA_KEEP * self._ema + (1.0 - _EMA_KEEP) * measured

    def _worst_qos_speedup(self) -> Optional[float]:
        """Smoothed speedup of the worst-off qos job (``None`` if unknown)."""
        if self._ema is None or not self._qos_jobs:
            return None
        values = [self._ema[j] for j in self._qos_jobs if j < len(self._ema)]
        return min(values) if values else None

    def _apply_tilt(self) -> None:
        """Install the current tilt level as the inner scoring context.

        At tilt level ``k`` every qos job's isolation baseline is
        scored inflated by ``1 + k * _BOOST_STEP``: its speedup *as
        scored by the controller* shrinks by that factor, so
        equalization pulls resources toward it until the measured
        speedup sits near the tilt multiple of the batch jobs'. The
        controller rescores its whole record book on every level
        change (a no-op when the level is unchanged).
        """
        if self._level <= 0 or not self._qos_jobs:
            self._inner.set_baseline_tilt(None)
            return
        factor = 1.0 + self._level * _BOOST_STEP
        qos = set(self._qos_jobs)
        self._inner.set_baseline_tilt(
            tuple(
                factor if slot in qos else 1.0
                for slot in range(self._space.n_jobs)
            )
        )

    # -- introspection ---------------------------------------------------

    def diagnostics(self) -> Dict[str, float]:
        out = dict(self._inner.diagnostics())
        out["bopf_boosts_total"] = float(self._total_boosts)
        out["bopf_tilt_level"] = float(self._level)
        out["bopf_cooldown"] = float(self._cooldown)
        out["bopf_qos_jobs"] = float(len(self._qos_jobs))
        worst = self._worst_qos_speedup()
        if worst is not None:
            out["bopf_worst_qos_speedup"] = float(worst)
        return out

    # -- snapshot / restore ----------------------------------------------

    def snapshot(self) -> PolicyState:
        """The wrapper's state with the inner controller's nested in it.

        One :class:`PolicyState` per snapshot: ``"inner"`` holds the
        inner payload under the ``{"policy", "version", "payload"}``
        keys, the same dict ``inner.snapshot().to_dict()`` gives, but
        without building (and JSON-checking) that inner envelope. The
        outer envelope's check covers the nested payload.
        """
        payload = {
            "tick": self._tick,
            "level": self._level,
            "cooldown": self._cooldown,
            "stall": self._stall,
            "stall_best": float(self._stall_best),
            "violating_streak": self._violating_streak,
            "total_boosts": self._total_boosts,
            "ema": None if self._ema is None else [float(v) for v in self._ema],
            "inner": {
                "policy": self._inner.state_kind,
                "version": STATE_VERSION,
                "payload": self._inner.snapshot_payload(),
            },
        }
        return PolicyState(policy=self.state_kind, payload=payload)

    def restore(self, state: Optional[PolicyState]) -> None:
        """Resume from a :meth:`snapshot`, building no second envelope.

        The nested inner state is checked here, kind tag and version,
        with the errors an inner ``PolicyState.from_dict`` and
        ``SatoriController.restore`` would raise, and then restored
        from the payload this state already holds.
        """
        if state is None:
            return
        self._check_state(state.policy, state.version)
        payload = state.payload_dict()
        self._tick = int(payload["tick"])
        self._level = int(payload.get("level", 0))
        self._cooldown = int(payload.get("cooldown", 0))
        self._stall = int(payload.get("stall", 0))
        self._stall_best = float(payload.get("stall_best", 0.0))
        self._violating_streak = int(payload.get("violating_streak", 0))
        self._total_boosts = int(payload.get("total_boosts", 0))
        ema = payload.get("ema")
        self._ema = None if ema is None else np.asarray(ema, dtype=float)
        inner = payload["inner"]
        version = int(inner.get("version", STATE_VERSION))
        check_version("PolicyState", version)
        self._inner._check_state(inner["policy"], version)
        self._inner.restore_payload(inner.get("payload", ()))
        # The inner snapshot carries its own tilt, but the wrapper owns
        # the level — re-installing keeps them agreed (and rescoring is
        # a no-op when they already do).
        self._apply_tilt()
