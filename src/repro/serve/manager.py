"""Session lifecycle: create / step / snapshot / kill / resume.

:class:`SessionManager` turns the repo's single-run building blocks —
:class:`~repro.system.simulation.CoLocationSimulator`,
:func:`~repro.policies.registry.make_policy`,
:class:`~repro.system.session.ControlSession` — into long-lived,
addressable sessions. Construction is fully deterministic from a
:class:`SessionSpec` (suite, mix index, policy, seed), which is what
makes the snapshot format small: a snapshot is the spec plus the three
dynamic state captures (policy / server / session loop), and resuming
rebuilds the static structure from the spec before rehydrating the
dynamics. Resume is bit-identical: a resumed session's subsequent
telemetry matches a never-killed session record for record.

The manager is thread-safe — the asyncio server steps sessions on
executor threads so one slow SATORI decide does not stall the accept
loop — with one lock per session, so distinct sessions step in
parallel (within GIL limits) while concurrent steps of the *same*
session serialize.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro import serialize
from repro.errors import ExperimentError
from repro.experiments.runner import experiment_catalog
from repro.metrics.goals import GoalSet
from repro.obs import active_collector
from repro.policies.registry import make_policy, policy_is_qos_aware
from repro.rng import derive_seed
from repro.state import PolicyState
from repro.system.session import ControlSession
from repro.system.simulation import DEFAULT_CONTROL_INTERVAL_S, CoLocationSimulator
from repro.workloads.mixes import suite_mixes

#: Snapshot envelope version; bump on incompatible layout changes.
SNAPSHOT_VERSION = 1

#: How many recent per-step decision latencies the manager retains for
#: percentile reporting (a bounded window, not a full history).
LATENCY_WINDOW = 100_000


@dataclass(frozen=True)
class SessionSpec:
    """Deterministic construction recipe for one session.

    Everything needed to rebuild a session's static structure — the
    snapshot/resume protocol ships this alongside the dynamic state,
    and two sessions created from equal specs behave identically.

    Attributes:
        policy: registered policy factory id (``"SATORI"``, ...).
        suite: workload suite name (``"parsec"``, ``"cloudsuite"``,
            ``"ecp"``).
        mix: mix index within the suite.
        units: allocation units per resource (the experiment catalog).
        seed: base seed; the server noise stream uses it directly and
            the policy stream derives from it.
        interval_s: control interval (the paper's 0.1 s).
        noise_sigma: pqos measurement-noise sigma.
        baseline_reset_s: equalization period for held-baseline
            re-measurement; ``None`` never resets.
        policy_kwargs: plain-data kwargs forwarded to the policy
            factory.
        slo_floor: optional min-speedup SLO for the session's qos
            jobs; with ``qos_jobs`` set, every stepped interval is
            scored against it (``serve.slo_*`` metrics, visible on
            the server's ``/metrics``) and qos-aware policies
            (``BoPF``, ``QoSPARTIES``) receive the floor.
        qos_jobs: mix slot indices holding that SLO.
    """

    policy: str = "SATORI"
    suite: str = "parsec"
    mix: int = 0
    units: int = 8
    seed: int = 0
    interval_s: float = DEFAULT_CONTROL_INTERVAL_S
    noise_sigma: float = 0.03
    baseline_reset_s: Optional[float] = 10.0
    policy_kwargs: dict = field(default_factory=dict)
    slo_floor: Optional[float] = None
    qos_jobs: tuple = ()

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ExperimentError(f"interval_s must be positive, got {self.interval_s}")
        if self.baseline_reset_s is not None and self.baseline_reset_s <= 0:
            raise ExperimentError(
                f"baseline_reset_s must be positive or None, got {self.baseline_reset_s}"
            )
        # Snapshots round-trip through JSON, which turns tuples into
        # lists; normalize so resumed specs compare equal to originals.
        object.__setattr__(
            self, "qos_jobs", tuple(int(j) for j in self.qos_jobs)
        )
        if any(j < 0 for j in self.qos_jobs):
            raise ExperimentError(f"qos_jobs must be >= 0, got {self.qos_jobs}")
        if self.slo_floor is not None and not 0.0 < self.slo_floor <= 1.0:
            raise ExperimentError(
                f"slo_floor must be in (0, 1], got {self.slo_floor}"
            )

    @property
    def slo_active(self) -> bool:
        return self.slo_floor is not None and bool(self.qos_jobs)

    def to_dict(self) -> dict:
        return serialize.dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SessionSpec":
        return serialize.dataclass_from_dict(cls, data)


@dataclass(frozen=True)
class SessionInfo:
    """One session's public status row."""

    session_id: str
    policy: str
    suite: str
    mix: int
    mix_label: str
    steps: int
    time_s: float

    def to_dict(self) -> dict:
        return serialize.dataclass_to_dict(self)


class _Managed:
    """One live session plus its bookkeeping (internal)."""

    __slots__ = ("session_id", "spec", "session", "mix_label", "steps",
                 "slo_intervals", "slo_misses", "lock")

    def __init__(self, session_id: str, spec: SessionSpec,
                 session: ControlSession, mix_label: str, steps: int = 0):
        self.session_id = session_id
        self.spec = spec
        self.session = session
        self.mix_label = mix_label
        self.steps = steps
        self.slo_intervals = 0
        self.slo_misses = 0
        self.lock = threading.Lock()


class SessionManager:
    """Owns every live session and its lifecycle transitions."""

    def __init__(self):
        self._sessions: Dict[str, _Managed] = {}
        self._lock = threading.Lock()
        self._next_id = 0
        self._created = 0
        self._resumed = 0
        self._killed = 0
        self._steps = 0
        self._slo_intervals = 0
        self._slo_misses = 0
        self._latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._started = time.perf_counter()

    # -- construction ------------------------------------------------------

    def _build(self, spec: SessionSpec,
               initial_state: Optional[PolicyState] = None) -> ControlSession:
        """The one deterministic session-construction path.

        Mirrors :func:`~repro.experiments.runner.run_policy`'s wiring
        (same catalog, same goals, seeded server noise, derived policy
        stream) so serve sessions measure the same system the batch
        experiments do. Both :meth:`create` and :meth:`resume` go
        through here — determinism of this path is what makes the
        spec+state snapshot format sufficient.
        """
        mixes = suite_mixes(spec.suite)
        if not 0 <= spec.mix < len(mixes):
            raise ExperimentError(
                f"mix index {spec.mix} out of range [0, {len(mixes)}) for "
                f"suite {spec.suite!r}"
            )
        mix = mixes[spec.mix]
        if any(j >= len(mix) for j in spec.qos_jobs):
            raise ExperimentError(
                f"qos_jobs {spec.qos_jobs} out of range for the "
                f"{len(mix)}-job mix {mix.label!r}"
            )
        catalog = experiment_catalog(spec.units)
        goals = GoalSet()
        simulator = CoLocationSimulator(
            mix,
            catalog=catalog,
            control_interval_s=spec.interval_s,
            noise_sigma=spec.noise_sigma,
            seed=spec.seed,
        )
        policy_kwargs = dict(spec.policy_kwargs)
        if spec.slo_active and policy_is_qos_aware(spec.policy):
            # Hand qos-aware policies the SLO the manager scores, so
            # the guarantee they chase is the one /metrics reports.
            policy_kwargs.setdefault("qos_jobs", spec.qos_jobs)
            policy_kwargs.setdefault("qos_min_speedup", spec.slo_floor)
        policy = make_policy(
            spec.policy,
            mix,
            catalog,
            goals,
            rng=derive_seed(spec.seed, "serve", "policy"),
            initial_state=initial_state,
            **policy_kwargs,
        )
        return ControlSession(
            policy,
            simulator,
            goals=goals,
            baseline_reset_s=(
                math.inf if spec.baseline_reset_s is None else spec.baseline_reset_s
            ),
        )

    def _register(self, spec: SessionSpec, session: ControlSession,
                  steps: int = 0) -> _Managed:
        with self._lock:
            self._next_id += 1
            session_id = f"s{self._next_id}"
            managed = _Managed(
                session_id, spec, session, session.server.mix.label, steps
            )
            self._sessions[session_id] = managed
        return managed

    # -- lifecycle ---------------------------------------------------------

    def create(self, spec: Optional[SessionSpec] = None, **kwargs) -> str:
        """Create a fresh session; returns its id.

        Accepts either a built :class:`SessionSpec` or its fields as
        keyword arguments.
        """
        if spec is None:
            spec = SessionSpec(**kwargs)
        elif kwargs:
            raise ExperimentError("pass a SessionSpec or its fields, not both")
        managed = self._register(spec, self._build(spec))
        self._created += 1
        obs = active_collector()
        obs.metrics.counter("serve.sessions_created").inc()
        obs.metrics.gauge("serve.sessions_live").set(len(self._sessions))
        obs.event("session_created", "serve", session=managed.session_id,
                  policy=spec.policy)
        return managed.session_id

    def step(self, session_id: str, n: int = 1) -> dict:
        """Run ``n`` control intervals; returns a progress summary.

        Each interval's wall-clock decide→actuate→observe latency is
        measured here — this is the "decision latency" the serve
        benchmark reports — and folded into the ``serve.decision_seconds``
        histogram plus the manager's percentile window.
        """
        if n < 1:
            raise ExperimentError(f"n must be >= 1, got {n}")
        managed = self._get(session_id)
        spec = managed.spec
        obs = active_collector()
        histogram = obs.metrics.histogram("serve.decision_seconds")
        with managed.lock:
            for _ in range(n):
                started = time.perf_counter()
                raw = managed.session.step()
                elapsed = time.perf_counter() - started
                histogram.observe(elapsed)
                self._latencies.append(elapsed)
                managed.steps += 1
                self._steps += 1
                if spec.slo_active:
                    self._score_slo(managed, raw, obs)
        obs.metrics.counter("serve.steps").inc(n)
        telemetry = managed.session.telemetry
        summary = {
            "session": session_id,
            "steps": managed.steps,
            "time_s": managed.session.server.time_s,
            "mean_throughput": telemetry.mean_throughput(),
            "mean_fairness": telemetry.mean_fairness(),
        }
        if spec.slo_active and managed.slo_intervals:
            summary["slo_attainment"] = (
                1.0 - managed.slo_misses / managed.slo_intervals
            )
        return summary

    def _score_slo(self, managed: _Managed, raw, obs) -> None:
        """Score one interval against the session's SLO floor.

        An interval misses when the *worst* qos job's speedup (raw IPS
        over isolation IPS) is below the floor — the same
        worst-qos-job view BoPF's guarantee phase reacts to. The
        counters surface on the server's Prometheus ``/metrics`` via
        the ambient collector.
        """
        spec = managed.spec
        speedups = [
            raw.ips[j] / raw.isolation_ips[j]
            for j in spec.qos_jobs
            if raw.isolation_ips[j] > 0
        ]
        if not speedups:
            return
        worst = min(speedups)
        managed.slo_intervals += 1
        self._slo_intervals += 1
        obs.metrics.counter("serve.slo_intervals").inc()
        if worst < spec.slo_floor:
            managed.slo_misses += 1
            self._slo_misses += 1
            obs.metrics.counter("serve.slo_misses").inc()
        obs.metrics.gauge("serve.slo_worst_speedup").set(worst)
        obs.metrics.gauge("serve.slo_attainment").set(
            1.0 - self._slo_misses / self._slo_intervals
        )

    def snapshot(self, session_id: str) -> dict:
        """The session's complete resumable image (JSON-compatible).

        Layout: the construction spec plus three dynamic captures —
        the policy's :class:`~repro.state.PolicyState`, the server's
        :meth:`~repro.system.simulation.CoLocationSimulator.snapshot_state`,
        and the session loop's
        :meth:`~repro.system.session.ControlSession.export_state`.
        """
        managed = self._get(session_id)
        with managed.lock:
            policy_state = managed.session.policy_state()
            return {
                "version": SNAPSHOT_VERSION,
                "spec": managed.spec.to_dict(),
                "steps": managed.steps,
                "policy_state": (
                    None if policy_state is None else policy_state.to_dict()
                ),
                "server": managed.session.server.snapshot_state(),
                "session": managed.session.export_state(),
            }

    def resume(self, snapshot: dict) -> str:
        """Rebuild a session from a :meth:`snapshot` image; returns its id.

        The continuation is bit-identical: stepping the resumed
        session produces the same telemetry records the original
        would have produced had it never been killed.
        """
        version = int(snapshot.get("version", 0))
        if version > SNAPSHOT_VERSION:
            raise ExperimentError(
                f"snapshot version {version} is newer than this code "
                f"understands ({SNAPSHOT_VERSION})"
            )
        spec = SessionSpec.from_dict(snapshot["spec"])
        state = snapshot.get("policy_state")
        initial_state = None if state is None else PolicyState.from_dict(state)
        session = self._build(spec, initial_state=initial_state)
        session.server.restore_state(snapshot["server"])
        session.import_state(snapshot["session"])
        managed = self._register(spec, session, steps=int(snapshot.get("steps", 0)))
        self._resumed += 1
        obs = active_collector()
        obs.metrics.counter("serve.sessions_resumed").inc()
        obs.metrics.gauge("serve.sessions_live").set(len(self._sessions))
        obs.event("session_resumed", "serve", session=managed.session_id)
        return managed.session_id

    def kill(self, session_id: str) -> None:
        """Retire a session (its id is never reused)."""
        with self._lock:
            if session_id not in self._sessions:
                raise ExperimentError(f"unknown session {session_id!r}")
            del self._sessions[session_id]
        self._killed += 1
        obs = active_collector()
        obs.metrics.counter("serve.sessions_killed").inc()
        obs.metrics.gauge("serve.sessions_live").set(len(self._sessions))

    # -- introspection ------------------------------------------------------

    def _get(self, session_id: str) -> _Managed:
        with self._lock:
            managed = self._sessions.get(session_id)
        if managed is None:
            raise ExperimentError(f"unknown session {session_id!r}")
        return managed

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions

    def info(self, session_id: str) -> SessionInfo:
        managed = self._get(session_id)
        return SessionInfo(
            session_id=managed.session_id,
            policy=managed.spec.policy,
            suite=managed.spec.suite,
            mix=managed.spec.mix,
            mix_label=managed.mix_label,
            steps=managed.steps,
            time_s=managed.session.server.time_s,
        )

    def list_sessions(self) -> List[SessionInfo]:
        with self._lock:
            ids = list(self._sessions)
        return [self.info(session_id) for session_id in ids if session_id in self]

    def latency_percentiles(self, *quantiles: float) -> Dict[str, float]:
        """Decision-latency percentiles (seconds) over the recent window."""
        samples = sorted(self._latencies)
        out: Dict[str, float] = {}
        for q in quantiles:
            if not 0 <= q <= 1:
                raise ExperimentError(f"quantile must be in [0, 1], got {q}")
            label = f"p{q * 100:g}"
            if not samples:
                out[label] = float("nan")
            else:
                index = min(len(samples) - 1, int(q * len(samples)))
                out[label] = samples[index]
        return out

    def stats(self) -> dict:
        """Manager-lifetime counters plus latency percentiles."""
        wall = time.perf_counter() - self._started
        latency = self.latency_percentiles(0.5, 0.99)
        return {
            "sessions_live": len(self._sessions),
            "sessions_created": self._created,
            "sessions_resumed": self._resumed,
            "sessions_killed": self._killed,
            "steps_total": self._steps,
            "uptime_s": wall,
            "steps_per_sec": self._steps / wall if wall > 0 else 0.0,
            "decision_latency_p50_ms": latency["p50"] * 1e3,
            "decision_latency_p99_ms": latency["p99"] * 1e3,
            "slo_intervals": self._slo_intervals,
            "slo_misses": self._slo_misses,
            "slo_attainment": (
                1.0 - self._slo_misses / self._slo_intervals
                if self._slo_intervals
                else None
            ),
        }
