"""The SATORI controller (Algorithm 1).

Ties the pieces together into the paper's online loop:

1. run the initial "good" configuration set and record throughput and
   fairness per configuration (lines 1-2);
2. every interval, regenerate the goal weights (dynamic prioritization,
   Sec. III-C), reconstruct the objective from the per-goal records
   (Sec. III-B), update the GP proxy model, optimize the acquisition
   function, and emit the next configuration to run (lines 4-11).

Baseline (isolation) resets — Algorithm 1 line 12-13 — are handled by
the experiment runner, which owns the machine; the controller simply
consumes whatever ``isolation_ips`` its observations carry.

Variants (Sec. IV "Throughput and Fairness SATORI"):

* ``SatoriController(mode="dynamic")`` — full SATORI;
* ``mode="static"`` — fixed 0.5/0.5 weights (the "SATORI without
  dynamic prioritization" comparison of Figs. 14(b), 17, 18);
* ``mode="throughput"`` — weights (1, 0);
* ``mode="fairness"`` — weights (0, 1).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.bo import BayesianOptimizer, Suggestion
from repro.core.initializers import good_initial_set
from repro.core.objective import GoalRecords
from repro.core.weights import (
    DynamicWeightScheduler,
    StaticWeights,
    WeightState,
)
from repro import serialize
from repro.errors import PolicyError
from repro.obs import active_collector
from repro.metrics.goals import GoalSet
from repro.policies.base import PartitioningPolicy
from repro.resources.allocation import Configuration
from repro.resources.space import ConfigurationSpace
from repro.rng import SeedLike, make_rng, rng_from_state, rng_state, spawn_rng
from repro.state import PolicyState
from repro.system.simulation import Observation

MODES = ("dynamic", "static", "throughput", "fairness")

#: Intervals the incumbent-best configuration must hold before the
#: controller goes idle, and the relative drift of the held objective
#: that wakes it (Sec. V's overhead optimization).
_IDLE_PATIENCE = 4
_IDLE_TOLERANCE = 0.12

#: Consecutive actuation failures before the watchdog stops exploring
#: and holds the installed configuration; BO re-engages as soon as
#: actuation recovers.
_WATCHDOG_THRESHOLD = 3

#: An isolated per-job speedup drop by more than this factor is
#: rejected once; if it persists the next interval it is accepted as a
#: real level shift (crash).
_SPIKE_FACTOR = 4.0

#: Per-job co-located/isolation speedups above this are physically
#: impossible and rejected (upward counter glitches).
_SPEEDUP_CEILING = 2.0


def _optional_dataclass(cls, codecs=None) -> serialize.FieldCodec:
    """Codec for an optional dataclass field, encoded field by field."""
    return serialize.optional(
        serialize.FieldCodec(
            encode=lambda value: serialize.dataclass_to_dict(value, codecs),
            decode=lambda data: serialize.dataclass_from_dict(cls, data, codecs=codecs),
        )
    )


_CONFIG = serialize.optional(serialize.object_codec(Configuration))
_FLOATS = serialize.optional(
    serialize.FieldCodec(encode=list, decode=lambda data: tuple(float(v) for v in data))
)


@dataclass
class _Loop:
    """The control loop's resumable state; field names are payload keys.

    Everything the decision path carries from one interval to the next
    besides the RNG, the components (scheduler, optimizer, records) and
    the initial set: the initial-set cursor, the pending decision, the
    idle latch, the hardening counters, the last weights, suggestion
    and objective, the decision and idle counts, and the baseline tilt.
    """

    initial_cursor: int = 0
    pending: Optional[Configuration] = None
    idle: bool = False
    stable_best: Optional[Configuration] = None
    best_streak: int = 0
    idle_entry_objective: float = 0.0
    idle_ema: float = 0.0
    idle_config: Optional[Configuration] = None
    actuation_failures: int = 0
    watchdog_active: bool = False
    fallback_intervals: int = 0
    rejected_samples: int = 0
    spike_pending: bool = False
    noise_seen: bool = False
    last_accepted_ips: Optional[Tuple[float, ...]] = None
    last_accepted_config: Optional[Configuration] = None
    last_good_speedups: Optional[Tuple[float, ...]] = None
    last_weights: Optional[WeightState] = None
    last_suggestion: Optional[Suggestion] = None
    last_objective: float = 0.0
    decision_count: int = 0
    idle_intervals: int = 0
    baseline_tilt: Optional[Tuple[float, ...]] = None


_LOOP_CODECS = {
    "pending": _CONFIG,
    "stable_best": _CONFIG,
    "idle_config": _CONFIG,
    "last_accepted_ips": _FLOATS,
    "last_accepted_config": _CONFIG,
    "last_good_speedups": _FLOATS,
    "last_weights": _optional_dataclass(WeightState),
    "last_suggestion": _optional_dataclass(
        Suggestion, {"config": serialize.object_codec(Configuration)}
    ),
    "baseline_tilt": _FLOATS,
}


def _scorable(observation: Observation) -> bool:
    """Whether the goal scorers accept the sample's values.

    Speedups need non-negative IPS over positive baselines. A sample
    outside that domain is rejected beside the validation gate, before
    any of the gate's loop fields move; non-finite values are left to
    the gate.
    """
    return not (
        any(v < 0 for v in observation.ips)
        or any(b <= 0 for b in observation.isolation_ips)
    )


#: Payload keys every snapshot carries; ``baseline_tilt`` is absent
#: from snapshots taken before baseline tilts existed.
_REQUIRED_KEYS = ("rng", "bo", "records", "initial_set") + tuple(
    field.name for field in fields(_Loop) if field.name != "baseline_tilt"
)


class SatoriController(PartitioningPolicy):
    """SATORI: BO-driven multi-resource partitioning with dynamic goals.

    Args:
        space: configuration space over the controlled resources.
        goals: throughput/fairness metric choices.
        mode: ``"dynamic"`` (full SATORI), ``"static"``,
            ``"throughput"``, or ``"fairness"`` (see module docstring).
        prioritization_period_s / equalization_period_s: the T_P / T_E
            knobs (1 s and 10 s paper defaults), counted in the
            observed control intervals.
        favor_weaker_goal: Eq. 4 orientation; ``False`` is the paper's
            measured-worse alternative, kept for the Fig. 19 ablation.
        idle_detection: hold the best-known configuration and skip BO
            work while the objective is stable (the paper's overhead
            optimization: SATORI "is invoked only when the performance
            of a specific job changes significantly"). On by default,
            as in the paper; the pure-BO ablations disable it.
        hardening: enable the resilience layer — sample validation
            (reject non-finite, stale, and outlier measurements before
            they reach the GP), actuation-aware attribution, and the
            actuation watchdog. Disable to get the naive controller the
            resilience experiments compare against.
        rng: seed or generator.

    Additional keyword arguments are forwarded to
    :class:`~repro.core.bo.BayesianOptimizer`.
    """

    name = "SATORI"
    state_kind = "SATORI"

    def __init__(
        self,
        space: ConfigurationSpace,
        goals: Optional[GoalSet] = None,
        mode: str = "dynamic",
        prioritization_period_s: float = 1.0,
        equalization_period_s: float = 10.0,
        favor_weaker_goal: bool = True,
        idle_detection: bool = True,
        hardening: bool = True,
        rng: SeedLike = None,
        **bo_kwargs,
    ):
        super().__init__(space, goals)
        if mode not in MODES:
            raise PolicyError(f"unknown mode {mode!r}; choices: {MODES}")
        self._mode = mode
        self._rng = make_rng(rng)
        self._scheduler = self._make_scheduler(
            mode,
            prioritization_period_s,
            equalization_period_s,
            favor_weaker_goal,
        )
        self._bo = BayesianOptimizer(space, rng=spawn_rng(self._rng), **bo_kwargs)
        self._records = GoalRecords(("throughput", "fairness"))
        # The last recorded configuration and its encoding, a pure
        # function of the space (so not snapshot state). One entry.
        self._encoded: Optional[Tuple[Configuration, Tuple[float, ...]]] = None
        self._initial_set = good_initial_set(space, spawn_rng(self._rng))
        self._loop = _Loop()
        self._idle_detection = idle_detection
        self._hardening = hardening
        self._decision_seconds = 0.0
        if mode == "throughput":
            self.name = "Throughput SATORI"
        elif mode == "fairness":
            self.name = "Fairness SATORI"
        elif mode == "static":
            self.name = "SATORI (static weights)"
        if not hardening:
            self.name = f"{self.name} (unhardened)"

    # -- protocol -----------------------------------------------------------

    def decide(self, observation: Optional[Observation]) -> Configuration:
        """One Algorithm-1 iteration; returns the next configuration.

        Raises:
            PolicyError: for an interval longer than ``T_P``, checked
                before anything is recorded or counted, so the
                controller's state is unchanged.
        """
        if observation is not None:
            self._scheduler.check_interval(observation.interval_s)
        started = time.perf_counter()
        try:
            with active_collector().span("decide", "controller"):
                return self._decide(observation)
        finally:
            self._decision_seconds += time.perf_counter() - started
            self._loop.decision_count += 1

    def set_baseline_tilt(self, tilt: Optional[Sequence[float]]) -> int:
        """Install per-job isolation-baseline multipliers; returns rescores.

        While a tilt is installed every observation is *scored* (and
        recorded) as if job ``j``'s isolation baseline were
        ``isolation_ips[j] * tilt[j]`` — shrinking its apparent speedup
        so the equalization objective pulls resources toward it. The
        raw measurements are untouched; only the scoring context
        changes, and the whole sample book is rescored under the new
        context at once (see :meth:`GoalRecords.rescore`), so the
        optimizer's belief about *every* configuration — visited before
        or during the tilt — shifts atomically. Without the rescore a
        tilt would only devalue configurations re-visited afterwards,
        leaving the incumbent argmax pinned where the untilted history
        put it.

        ``None`` (or all-ones) clears the tilt. The tilt is wrapper
        state, not controller state: wrappers such as
        :class:`~repro.policies.bopf.BoPFPolicy` own its lifecycle and
        re-install it after a :meth:`restore`.
        """
        new = None if tilt is None else tuple(float(v) for v in tilt)
        if new is not None:
            if len(new) != self._space.n_jobs:
                raise PolicyError(
                    f"baseline tilt has {len(new)} entries for {self._space.n_jobs} jobs"
                )
            if any(v <= 0 for v in new):
                raise PolicyError(f"baseline tilt must be positive, got {new}")
            if all(v == 1.0 for v in new):
                new = None
        if new == self._loop.baseline_tilt:
            return 0
        self._loop.baseline_tilt = new

        def rescorer(sample):
            if sample.ips is None or sample.isolation_ips is None:
                return None
            scores = self._goals.scores(sample.ips, self._tilt_baselines(sample.isolation_ips))
            return (scores.throughput, scores.fairness)

        changed = self._records.rescore(rescorer)
        if changed:
            # The objective the idle latch froze on no longer exists:
            # its entry reference and held configuration were chosen
            # under the old scoring context. Wake the search and make
            # it re-earn stability under the new one.
            self._loop.idle = False
            self._loop.stable_best = None
            self._loop.best_streak = 0
        return changed

    def _tilt_baselines(self, isolation_ips: Sequence[float]) -> Sequence[float]:
        if self._loop.baseline_tilt is None:
            return isolation_ips
        return tuple(v * t for v, t in zip(isolation_ips, self._loop.baseline_tilt))

    def diagnostics(self) -> Dict[str, float]:
        """Weights, objective, and proxy-change internals for telemetry."""
        out: Dict[str, float] = {}
        if self._loop.last_weights is not None:
            w = self._loop.last_weights
            out.update(
                weight_throughput=w.w_throughput,
                weight_fairness=w.w_fairness,
                weight_eq_throughput=w.equalization_throughput,
                weight_eq_fairness=w.equalization_fairness,
                weight_pr_throughput=w.prioritization_throughput,
                weight_pr_fairness=w.prioritization_fairness,
            )
        out["objective"] = self._loop.last_objective
        if self._loop.last_suggestion is not None:
            out["proxy_change_percent"] = self._loop.last_suggestion.proxy_change_percent
            out["incumbent"] = self._loop.last_suggestion.incumbent_value
        if self._hardening:
            out["watchdog_active"] = float(self._loop.watchdog_active)
            out["rejected_samples"] = float(self._loop.rejected_samples)
            out["fallback_intervals"] = float(self._loop.fallback_intervals)
        return out

    # -- snapshot / restore --------------------------------------------------

    def snapshot(self) -> PolicyState:
        """Everything the decision path reads, as one serializable value.

        Includes the construction-time RNG draws (the initial "good"
        set and the BO probe set) because a restored controller is
        built from a *different* seed than the one that produced the
        snapshot; excludes only wall-clock accounting
        (``_decision_seconds``), which is irrelevant to decisions and
        non-deterministic by nature.

        This wraps :meth:`snapshot_payload` in the one
        :class:`PolicyState` envelope (and its JSON check). A wrapper
        policy that nests this state in its own snapshot, such as
        :class:`~repro.policies.bopf.BoPFPolicy`, calls
        :meth:`snapshot_payload` instead, so the state is enveloped and
        checked once, by the wrapper's snapshot.
        """
        return PolicyState(policy=self.state_kind, payload=self.snapshot_payload())

    def snapshot_payload(self) -> Dict[str, Any]:
        """The payload :meth:`snapshot` envelopes, built fresh."""
        return {
            "mode": self._mode,
            "rng": rng_state(self._rng),
            "scheduler": self._scheduler.snapshot(),
            "bo": self._bo.snapshot(),
            "records": self._records.snapshot(),
            "initial_set": [config.to_dict() for config in self._initial_set],
            **serialize.dataclass_to_dict(self._loop, _LOOP_CODECS),
        }

    def restore(self, state: Optional[PolicyState]) -> None:
        """Resume from a :meth:`snapshot` taken by a same-mode controller.

        The controller must be constructed with the same configuration
        knobs (space, mode, periods, hardening settings) as the one
        that produced the snapshot — the engine guarantees this by
        rebuilding policies from identical spec kwargs. Continuing from
        here is bit-identical to never having torn the controller down.
        """
        if state is None:
            return
        self._check_state(state.policy, state.version)
        self.restore_payload(state.payload)

    def restore_payload(self, payload: Any) -> None:
        """Resume from a :meth:`snapshot_payload` whose envelope the
        caller has already checked (kind tag and version)."""
        if not isinstance(payload, dict):
            raise PolicyError(
                f"{self.state_kind} state payload is not a mapping: {type(payload).__name__}"
            )
        if payload.get("mode") != self._mode:
            raise PolicyError(
                f"cannot restore a {payload.get('mode')!r}-mode snapshot into a "
                f"{self._mode!r}-mode controller"
            )
        missing = [key for key in _REQUIRED_KEYS if key not in payload]
        if missing:
            raise PolicyError(f"SATORI snapshot is missing payload keys {missing}")
        self._rng = rng_from_state(payload["rng"])
        self._scheduler.restore(payload.get("scheduler"))
        self._bo.restore(payload["bo"])
        self._records.restore(payload["records"])
        self._initial_set = [Configuration.from_dict(d) for d in payload["initial_set"]]
        self._loop = serialize.dataclass_from_dict(_Loop, payload, codecs=_LOOP_CODECS)

    # -- introspection -------------------------------------------------------

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def records(self) -> GoalRecords:
        return self._records

    @property
    def initial_configurations(self) -> List[Configuration]:
        """The "good" initial set run before BO engages (Alg. 1 line 1)."""
        return list(self._initial_set)

    @property
    def weights(self) -> Optional[WeightState]:
        """The most recent weight state (Fig. 14(a) decomposition)."""
        return self._loop.last_weights

    @property
    def probing(self) -> bool:
        """Whether the initial probe set is still being drained.

        While probing, measured speedups reflect deliberately diverse
        (often bad) configurations rather than the controller's best
        belief — wrappers layering guarantees on top (e.g. BoPF)
        should not react to them.
        """
        return self._loop.initial_cursor < len(self._initial_set)

    @property
    def mean_decision_time_s(self) -> float:
        """Mean wall-clock cost of one decide() call (overhead metric)."""
        if self._loop.decision_count == 0:
            return 0.0
        return self._decision_seconds / self._loop.decision_count

    @property
    def idle_fraction(self) -> float:
        """Fraction of intervals spent idle (overhead optimization)."""
        if self._loop.decision_count == 0:
            return 0.0
        return self._loop.idle_intervals / self._loop.decision_count

    @property
    def hardening(self) -> bool:
        """Whether the resilience layer is enabled."""
        return self._hardening

    @property
    def watchdog_active(self) -> bool:
        """Whether the actuation watchdog is currently holding."""
        return self._loop.watchdog_active

    @property
    def rejected_samples(self) -> int:
        """Observations rejected by sample validation so far."""
        return self._loop.rejected_samples

    @property
    def fallback_intervals(self) -> int:
        """Intervals spent on the watchdog's hold-installed fallback."""
        return self._loop.fallback_intervals

    # -- internals -------------------------------------------------------------

    def _decide(self, observation: Optional[Observation]) -> Configuration:
        loop = self._loop
        if observation is None:
            # Session (re)start: there is no previous interval to
            # attribute. A fresh controller opens the initial "good"
            # set (Alg. 1 line 1); a warm-started one resumes from
            # what it already learned instead of re-paying for probes
            # a previous epoch already drained.
            if loop.initial_cursor < len(self._initial_set):
                loop.pending = self._initial_set[loop.initial_cursor]
                loop.initial_cursor += 1
                return loop.pending
            if loop.idle and loop.idle_config is not None:
                # Resume on the held optimum. The idle latch survives
                # the restart on purpose: the idle-exit tolerance is
                # the arbiter of whether the new epoch's environment
                # moved enough to warrant re-exploring — waking
                # unconditionally would let BO exploit records from
                # the *previous* environment, which measures worse.
                loop.pending = loop.idle_config
                return loop.pending
            return self._retreat_configuration()

        if self._hardening:
            fallback = self._watchdog_gate(observation)
            if fallback is not None:
                return fallback
            if not (_scorable(observation) and self._validate_observation(observation)):
                # A corrupted measurement must not reach the GP; spend
                # the interval on the best recorded configuration (not
                # on whatever exploration point was last emitted) and
                # wait for a clean sample.
                loop.rejected_samples += 1
                active_collector().event(
                    "sample_rejected", "controller", time_s=observation.time_s
                )
                return self._retreat_configuration()

        scores = self._record(observation)
        weight_state = self._scheduler.update(
            scores.throughput, scores.fairness, observation.interval_s
        )
        loop.last_weights = weight_state
        weights = weight_state.pair
        loop.last_objective = scores.weighted(*weights)

        # Drain the initial good set before engaging BO (Alg. 1 line 1-2).
        if loop.initial_cursor < len(self._initial_set):
            loop.pending = self._initial_set[loop.initial_cursor]
            loop.initial_cursor += 1
            return loop.pending

        if self._idle_detection and self._check_idle(weights):
            loop.idle_intervals += 1
            loop.pending = loop.idle_config
            return loop.idle_config

        suggestion = self._bo.suggest(self._records, weights)
        loop.last_suggestion = suggestion
        loop.pending = suggestion.config
        self._track_stability()
        return suggestion.config

    def _record(self, observation: Observation):
        """Record the previous interval's per-goal outcome (Alg. 1 line 10-11).

        Scores are computed under the installed baseline tilt (if any)
        so fresh samples and the rescored book stay consistent; the raw
        measurements are stored alongside so the sample remains
        rescorable when the tilt changes.
        """
        scores = self._goals.scores(
            observation.ips, self._tilt_baselines(observation.isolation_ips)
        )
        config = self._loop.pending
        if self._hardening and not observation.actuation_ok:
            # The suggested configuration never got installed; the
            # interval ran under the last-known-good configuration the
            # observation reports. Attributing the outcome to the
            # uninstalled suggestion would poison the GP.
            config = None
        if config is None:
            # The run was started outside decide(); fall back to the
            # observation's installed configuration restricted to the
            # controlled resources.
            if observation.config is None:
                raise PolicyError("cannot attribute observation to a configuration")
            config = observation.config.restrict(self.controlled_resources)
        if self._encoded is None or self._encoded[0] != config:
            self._encoded = (config, tuple(self._space.encode(config).tolist()))
        self._records.add(
            config,
            self._encoded[1],
            (scores.throughput, scores.fairness),
            ips=observation.ips,
            isolation_ips=observation.isolation_ips,
        )
        return scores

    def _hold_configuration(self) -> Configuration:
        """Re-emit the last decision (or ``S_init`` if nothing ran yet)."""
        if self._loop.pending is None:
            self._loop.pending = self._initial_set[0]
        return self._loop.pending

    def _retreat_configuration(self) -> Configuration:
        """The best recorded configuration under the current weights.

        Used while rejecting corrupted samples: if the rejection lands
        mid-exploration, freezing on the half-evaluated probe point
        could pin a bad configuration for the whole burst; retreating
        to the incumbent spends the burst on known-good ground.
        """
        if len(self._records) == 0 or self._loop.last_weights is None:
            return self._hold_configuration()
        values = self._records.objective_values(self._loop.last_weights.pair)
        if not np.any(np.isfinite(values)):
            return self._hold_configuration()
        best = int(np.nanargmax(values))
        self._loop.pending = self._records.samples[best].config
        return self._loop.pending

    def _watchdog_gate(self, observation: Observation) -> Optional[Configuration]:
        """Track actuation health; stop exploring during an outage.

        After ``_WATCHDOG_THRESHOLD`` consecutive failed installs the
        controller stops exploring — every suggestion is bouncing off a
        dead actuator — and repeatedly requests the configuration that
        is actually installed (the last-known-good one the observation
        reports), so nothing moves when the actuator comes back;
        ``S_init`` is the fallback if no configuration is known. The
        first successful install clears the watchdog and BO resumes
        with its records intact (faulted intervals were never
        recorded).
        """
        loop = self._loop
        if observation.actuation_ok:
            loop.actuation_failures = 0
            loop.watchdog_active = False
            return None
        loop.actuation_failures += 1
        if loop.actuation_failures >= _WATCHDOG_THRESHOLD:
            if not loop.watchdog_active:
                active_collector().event(
                    "watchdog_engaged", "controller", failures=loop.actuation_failures
                )
            loop.watchdog_active = True
        if loop.watchdog_active:
            loop.fallback_intervals += 1
            if observation.config is not None:
                loop.pending = observation.config.restrict(self.controlled_resources)
            else:
                loop.pending = self._initial_set[0]
            return loop.pending
        return None

    def _validate_observation(self, observation: Observation) -> bool:
        """Gate measurements before they reach the records/GP.

        Rejects: non-finite IPS or baselines (dropped samples, NaN
        glitches); a job repeating its previous accepted IPS
        bit-for-bit once measurement noise has been observed (with
        noise present, exact float repeats only come from a stuck
        counter; on a noise-free deterministic run the check stays
        dormant); per-job speedups above ``_SPEEDUP_CEILING``
        (physically impossible, an upward counter glitch); and
        isolated speedup drops by more than ``_SPIKE_FACTOR`` (rejected
        once — if the drop persists it is a real level shift and is
        accepted).
        """
        loop = self._loop
        ips = tuple(float(v) for v in observation.ips)
        iso = tuple(float(v) for v in observation.isolation_ips)
        if not all(math.isfinite(v) for v in ips + iso):
            return False
        if not any(v > 0 for v in ips):
            # A fully-starved interval (mass crash/hang) has no defined
            # fairness CoV; scoring it would raise mid-decide.
            return False
        last = loop.last_accepted_ips
        if last is not None and len(last) == len(ips):
            if not loop.noise_seen and self._same_config(observation):
                # Small nonzero change under an unchanged configuration
                # is measurement noise (phase shifts move levels by
                # much more); from here on exact repeats are stuck.
                loop.noise_seen = any(
                    0 < abs(v - p) / (p if p > 0 else 1.0) < 0.05 for v, p in zip(ips, last)
                )
            if loop.noise_seen and any(v == p and v > 0 for v, p in zip(ips, last)):
                return False
        speedup = tuple(v / b if b > 0 else 0.0 for v, b in zip(ips, iso))
        if any(s > _SPEEDUP_CEILING for s in speedup):
            return False
        ref = loop.last_good_speedups
        if ref is not None and len(ref) == len(speedup):
            suspect = any(r > 0 and s < r / _SPIKE_FACTOR for s, r in zip(speedup, ref))
            if suspect and not loop.spike_pending:
                loop.spike_pending = True
                return False
        loop.spike_pending = False
        loop.last_accepted_ips = ips
        loop.last_accepted_config = observation.config
        loop.last_good_speedups = speedup
        return True

    def _same_config(self, observation: Observation) -> bool:
        return (
            observation.config is not None
            and self._loop.last_accepted_config is not None
            and observation.config == self._loop.last_accepted_config
        )

    def _track_stability(self) -> None:
        """Count how long the optimizer's belief about the best config holds.

        The stability check uses balanced weights so the streak is not
        reset by the dynamic re-prioritization itself — idleness is
        about the *search* having settled, not about which goal is
        currently favored.
        """
        loop = self._loop
        best, _ = self._records.best((0.5, 0.5))
        if best == loop.stable_best:
            loop.best_streak += 1
        else:
            loop.stable_best = best
            loop.best_streak = 1

    def _check_idle(self, weights) -> bool:
        """The paper's overhead optimization: hold the optimum once found.

        SATORI enters idle once its incumbent-best configuration has
        been stable for ``_IDLE_PATIENCE`` iterations, and wakes as soon
        as the measured objective of the held configuration deviates
        from its level at idle entry by more than ``_IDLE_TOLERANCE``
        (relative) — i.e. "when the performance of a specific job
        changes significantly", Sec. V.
        """
        loop = self._loop
        if loop.idle:
            reference = loop.idle_entry_objective
            loop.idle_ema = 0.7 * loop.idle_ema + 0.3 * loop.last_objective
            if reference > 0 and abs(loop.idle_ema - reference) / reference > _IDLE_TOLERANCE:
                loop.idle = False
                loop.best_streak = 0
                loop.stable_best = None
                active_collector().event("idle_exit", "controller")
            return loop.idle

        if loop.best_streak >= _IDLE_PATIENCE:
            loop.idle = True
            active_collector().event("idle_enter", "controller")
            loop.idle_entry_objective = loop.last_objective
            loop.idle_ema = loop.last_objective
            # Pin the configuration held during idleness: re-selecting a
            # "best" per interval would flip between near-ties as the
            # dynamic weights move, paying reconfiguration cost for
            # nothing ("avoiding frequent updates ... after the optimal
            # configuration detection", Sec. V).
            loop.idle_config, _ = self._records.best(weights)
        return loop.idle

    @staticmethod
    def _make_scheduler(
        mode: str,
        t_p: float,
        t_e: float,
        favor_weaker_goal: bool,
    ) -> Union[DynamicWeightScheduler, StaticWeights]:
        if mode == "dynamic":
            return DynamicWeightScheduler(
                prioritization_period_s=t_p,
                equalization_period_s=t_e,
                favor_weaker_goal=favor_weaker_goal,
            )
        if mode == "static":
            return StaticWeights(0.5, 0.5)
        if mode == "throughput":
            return StaticWeights(1.0, 0.0)
        return StaticWeights(0.0, 1.0)
