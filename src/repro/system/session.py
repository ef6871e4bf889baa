"""The policy ↔ server control session.

Every experiment in the repo used to hand-roll the same stepping loop:
decide on a configuration, step the server one control interval,
rebuild the policy's (held-baseline) view of the world, record scored
telemetry, and periodically re-measure isolation baselines. This
module extracts that loop once, as :class:`ControlSession`, driving
any :class:`~repro.policies.base.PartitioningPolicy` against anything
satisfying the :class:`ServerLike` protocol.

The session reproduces the paper's measurement methodology exactly
(Sec. IV / Algorithm 1):

* policies act on a *held* isolation baseline that is re-measured only
  every equalization period (``baseline_reset_s``) — they see the
  possibly-stale belief, like the real system;
* telemetry is scored against the server's *true* per-interval
  measurements (``last_true_ips`` under fault injection), so reported
  throughput/fairness reflect reality rather than the controller's
  corrupted monitor feed;
* under an injected fault schedule, the per-interval fault trail
  (``actuation_ok``, ``faults_active``) is folded into telemetry
  ``extra`` so recovery analyses can locate fault windows.

:class:`~repro.system.simulation.CoLocationSimulator` is the
reference ``ServerLike`` implementation. The cluster layer holds no
sessions: each node-epoch runs as an engine
:class:`~repro.engine.RunSpec`, which drives one session through
:func:`~repro.experiments.runner.run_policy`.

RNG-discipline note: the session draws server randomness in the exact
order the pre-extraction loops did (initial isolation measurement,
then ``step``, then any baseline re-measurement *after* the telemetry
record), so engine cache digests and "bit-identical across
serial/parallel/cache" guarantees carry over unchanged.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.metrics.goals import GoalSet
from repro.obs import active_collector
from repro.resources.allocation import Configuration
from repro.resources.types import ResourceCatalog
from repro.system.simulation import Observation
from repro.system.telemetry import TelemetryLog
from repro.workloads.mixes import JobMix

if TYPE_CHECKING:  # policies import Observation from repro.system —
    # a runtime import here would be circular.
    from repro.policies.base import PartitioningPolicy


@runtime_checkable
class ServerLike(Protocol):
    """What a control session needs from a server.

    The protocol is the *control-plane* surface: one interval of
    execution, isolation measurement, mix management, and the fault
    trail. :class:`~repro.system.simulation.CoLocationSimulator`
    satisfies it natively; a hardware harness driving real MSRs and
    ``perf`` counters would too.
    """

    # -- identity ----------------------------------------------------------

    @property
    def mix(self) -> JobMix: ...

    @property
    def catalog(self) -> ResourceCatalog: ...

    @property
    def n_jobs(self) -> int: ...

    # -- clock -------------------------------------------------------------

    @property
    def time_s(self) -> float: ...

    @property
    def control_interval_s(self) -> float: ...

    # -- control plane -----------------------------------------------------

    def step(self, config: Optional[Configuration] = None) -> Observation: ...

    def measure_isolation(self, noisy: bool = False) -> np.ndarray: ...

    def replace_workload(self, job_index: int, workload) -> None: ...

    # -- fault trail --------------------------------------------------------

    @property
    def fault_schedule(self): ...

    @property
    def active_fault_count(self) -> int: ...

    @property
    def last_true_ips(self) -> Tuple[float, ...]: ...


class ControlSession:
    """One policy driving one server, interval by interval.

    Args:
        policy: a fresh partitioning policy (possibly restored from
            a snapshot).
        server: the server under control.
        goals: metric choices for telemetry scoring.
        baseline_reset_s: equalization period after which the held
            isolation baseline is re-measured (Algorithm 1, line 13).
            ``math.inf`` disables periodic resets — drivers that
            manage baselines themselves (e.g. the churn experiment
            re-measuring on a workload swap) use this together with
            :meth:`refresh_baseline`.

    Every telemetry record carries the policy's diagnostics in
    ``extra``; when they include SATORI's throughput/fairness weights,
    those also fill the record's ``weights`` slot. The log starts
    empty; :meth:`import_state` is the one way to continue an earlier
    session's log.
    """

    def __init__(
        self,
        policy: PartitioningPolicy,
        server: ServerLike,
        goals: Optional[GoalSet] = None,
        baseline_reset_s: float = math.inf,
    ):
        self._policy = policy
        self._server = server
        self._telemetry = TelemetryLog(goals or GoalSet())
        self._baseline_reset_s = baseline_reset_s
        self._baseline: Optional[np.ndarray] = None
        # The held baseline as the policy view carries it, built once
        # per re-measurement rather than once per interval.
        self._held: Tuple[float, ...] = ()
        self._next_reset = baseline_reset_s
        self._policy_view: Optional[Observation] = None

    # -- introspection ------------------------------------------------------

    @property
    def policy(self) -> PartitioningPolicy:
        return self._policy

    @property
    def server(self) -> ServerLike:
        return self._server

    @property
    def telemetry(self) -> TelemetryLog:
        return self._telemetry

    @property
    def baseline(self) -> Optional[np.ndarray]:
        """The held isolation baseline the policy currently acts on."""
        return self._baseline

    def policy_state(self):
        """The policy's current snapshot (``None`` for stateless policies).

        Taken at session end, this is what rides into
        :attr:`~repro.experiments.runner.RunResult.final_state` so the
        next run — the next placement epoch on the same node, say —
        can warm-start instead of re-learning from scratch.
        """
        return self._policy.snapshot()

    # -- snapshot / restore ---------------------------------------------------

    def export_state(self) -> dict:
        """The session's loop state as JSON-compatible data.

        Covers everything :meth:`step` reads besides the policy and the
        server themselves: the held isolation baseline, the pending
        policy view, the next baseline-reset deadline, and the scored
        telemetry so far. Pair it with the policy's
        :meth:`policy_state` snapshot and the server's own state
        capture (:meth:`~repro.system.simulation.CoLocationSimulator.snapshot_state`)
        for a complete resumable session image — infinities (a session
        that never resets its baseline) encode as ``None``.
        """
        return {
            "baseline": (
                None if self._baseline is None else [float(b) for b in self._baseline]
            ),
            "next_reset": None if math.isinf(self._next_reset) else float(self._next_reset),
            "policy_view": (
                None if self._policy_view is None else self._policy_view.to_dict()
            ),
            "telemetry": self._telemetry.to_dict(),
        }

    def import_state(self, state: dict) -> None:
        """Resume the loop state captured by :meth:`export_state`.

        The session must have been constructed around a
        policy/server pair already restored to the matching instant;
        this call only rehydrates the loop bookkeeping (so the first
        post-restore :meth:`step` skips the initial baseline
        measurement and continues mid-stream, bit-identically).
        """
        baseline = state.get("baseline")
        if baseline is None:
            self._baseline, self._held = None, ()
        else:
            self._hold(np.array(baseline, dtype=float))
        next_reset = state.get("next_reset")
        self._next_reset = math.inf if next_reset is None else float(next_reset)
        view = state.get("policy_view")
        self._policy_view = None if view is None else Observation.from_dict(view)
        self._telemetry = TelemetryLog.from_dict(state["telemetry"])

    # -- baseline management -------------------------------------------------

    def refresh_baseline(self) -> np.ndarray:
        """Re-measure the isolation baseline and update the held view.

        Also patches the pending policy observation (if any) so the
        next ``decide`` sees the fresh baseline — this is what the
        churn driver needs right after a workload swap.
        """
        self._hold(self._server.measure_isolation(noisy=True))
        if self._policy_view is not None:
            self._policy_view = dataclasses.replace(self._policy_view, isolation_ips=self._held)
        return self._baseline

    def _hold(self, baseline: np.ndarray) -> None:
        self._baseline = baseline
        self._held = tuple(float(b) for b in baseline)

    # -- the loop ------------------------------------------------------------

    def step(self) -> Observation:
        """Run one control interval: observe → decide → actuate → tick.

        Returns the server's raw observation for the interval (the
        policy itself sees the held-baseline view, not this).
        """
        obs = active_collector()
        if self._baseline is None:
            # First interval: measure the initial baseline lazily so
            # construction stays side-effect-free but the server RNG
            # draw order matches the historical pre-loop measurement.
            with obs.span("baseline_refresh", "session"):
                self.refresh_baseline()

        with obs.span("interval", "session"):
            config = self._policy.decide(self._policy_view)
            raw = self._server.step(config)

            # Policies act on the held baseline (Algorithm 1 resets it only
            # periodically); telemetry scores against the true current one.
            self._policy_view = Observation(
                time_s=raw.time_s,
                interval_s=raw.interval_s,
                ips=raw.ips,
                isolation_ips=self._held,
                config=raw.config,
                completed_runs=raw.completed_runs,
                memory_bandwidth_bytes_s=raw.memory_bandwidth_bytes_s,
                llc_occupancy_bytes=raw.llc_occupancy_bytes,
                actuation_ok=raw.actuation_ok,
            )
            diag = self._policy.diagnostics()
            scored_ips = raw.ips
            if self._server.fault_schedule is not None:
                # Fault/recovery trail: which intervals ran under injected
                # faults and whether the interval's actuation landed. The
                # policy sees the corrupted measurements; the evaluator
                # scores what a fault-free monitor would have reported.
                scored_ips = self._server.last_true_ips
                diag = dict(diag)
                diag["actuation_ok"] = float(raw.actuation_ok)
                diag["faults_active"] = float(self._server.active_fault_count)
                if not raw.actuation_ok:
                    obs.event("actuation_failure", "session", time_s=raw.time_s)
                    obs.metrics.counter("session.actuation_failures").inc()
                if self._server.active_fault_count:
                    obs.metrics.counter("session.faulted_intervals").inc()
            weights = None
            if "weight_throughput" in diag and "weight_fairness" in diag:
                weights = (diag["weight_throughput"], diag["weight_fairness"])
            self._telemetry.record(
                time_s=raw.time_s,
                config=raw.config,
                ips=scored_ips,
                isolation_ips=raw.isolation_ips,
                weights=weights,
                extra=diag,
            )

            if raw.time_s + 1e-9 >= self._next_reset:
                with obs.span("baseline_refresh", "session"):
                    self._hold(self._server.measure_isolation(noisy=True))
                self._next_reset += self._baseline_reset_s
        return raw

    def run(self, n_steps: int) -> TelemetryLog:
        """Step ``n_steps`` control intervals and return the telemetry."""
        for _ in range(n_steps):
            self.step()
        return self._telemetry
