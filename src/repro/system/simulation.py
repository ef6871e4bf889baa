"""The co-location simulator: the paper's testbed as a substrate.

:class:`CoLocationSimulator` plays the role of the paper's Skylake
server. It hosts a job mix, accepts partitioning configurations
through the simulated CAT / MBA / affinity / RAPL actuators, advances
wall time in control intervals (0.1 s, the paper's sampling period),
tracks fixed-work progress per job, and reports noisy ``pqos``
measurements — everything a partitioning policy is allowed to see.

Policies never touch the workload models directly; they observe only
:class:`Observation` objects, the same information the paper's
user-space service gets from hardware counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ActuationError, ConfigurationError, ExperimentError, HardwareError
from repro.faults.msr import FaultyMsrFile
from repro.faults.schedule import CRASH, DROP, NAN, OUTLIER, STUCK, FaultSchedule
from repro.hardware.affinity import CoreAffinityController
from repro.hardware.cat import CacheAllocationTechnology
from repro.hardware.mba import MemoryBandwidthAllocator
from repro.hardware.msr import MsrFile
from repro.hardware.pqos import PqosMonitor
from repro.hardware.rapl import PowerCapController
from repro.obs import active_collector
from repro.resources.allocation import Configuration, equal_partition
from repro.resources.types import (
    CORES,
    LLC_WAYS,
    MEMORY_BANDWIDTH,
    POWER,
    ResourceCatalog,
    default_catalog,
)
from repro.rng import SeedLike, make_rng, rng_from_state, rng_state, spawn_rng
# Nothing here calls evaluate_system_batch: the perf ladder
# (perfbench/layers.py) rebinds both solves on this module by name.
from repro.system.contention import SystemState, evaluate_system, evaluate_system_batch
from repro.workloads.mixes import JobMix
from repro.workloads.model import Phase, Workload

#: The paper's control/sampling interval: SATORI updates its resource
#: allocation every 0.1 seconds.
DEFAULT_CONTROL_INTERVAL_S = 0.1

#: Strength of the reconfiguration disturbance: installing a new
#: partition is not free on real hardware — reassigned cache ways must
#: be refilled, migrated threads lose their L1/L2 state, and MBA
#: throttle changes take effect with lag. A job whose entire allocation
#: changed loses this fraction of one interval's work; proportionally
#: less for smaller moves. (Per-interval, so slow movers barely notice
#: and per-interval random thrashing pays full price.)
RECONFIGURATION_PENALTY = 0.2

#: Cost of one failed actuation attempt: each retry burns a slice of
#: the control interval on the write + backoff before trying again, so
#: every job loses this fraction of the interval's work per failure
#: (capped at half the interval). This is what makes retry *bounded*
#: rather than free — hammering a dead register has a price.
ACTUATION_RETRY_PENALTY = 0.05


@dataclass(frozen=True)
class Observation:
    """What a policy sees after one control interval.

    Attributes:
        time_s: wall time at the *end* of the interval.
        interval_s: interval length.
        ips: measured (noisy) per-job IPS over the interval.
        isolation_ips: the most recently measured isolation baselines.
        config: the configuration that was active during the interval
            (``None`` while running unmanaged).
        completed_runs: per-job count of fixed-work completions so far.
        memory_bandwidth_bytes_s: measured per-job memory traffic
            (Intel MBM counters via pqos); miss-driven policies such
            as dCAT key off this.
        llc_occupancy_bytes: measured per-job LLC occupancy (CMT).
        actuation_ok: ``False`` when the interval's requested
            configuration could not be installed (every write attempt
            failed); the previous configuration stayed active, so
            ``config`` reports what actually ran, not what was asked.
    """

    time_s: float
    interval_s: float
    ips: Tuple[float, ...]
    isolation_ips: Tuple[float, ...]
    config: Optional[Configuration]
    completed_runs: Tuple[int, ...]
    memory_bandwidth_bytes_s: Tuple[float, ...] = ()
    llc_occupancy_bytes: Tuple[float, ...] = ()
    actuation_ok: bool = True

    @property
    def n_jobs(self) -> int:
        return len(self.ips)

    def to_dict(self) -> dict:
        """JSON-compatible representation (exact float round-trip)."""
        return {
            "time_s": self.time_s,
            "interval_s": self.interval_s,
            "ips": list(self.ips),
            "isolation_ips": list(self.isolation_ips),
            "config": self.config.to_dict() if self.config is not None else None,
            "completed_runs": list(self.completed_runs),
            "memory_bandwidth_bytes_s": list(self.memory_bandwidth_bytes_s),
            "llc_occupancy_bytes": list(self.llc_occupancy_bytes),
            "actuation_ok": self.actuation_ok,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Observation":
        """Rebuild an observation from :meth:`to_dict` output."""
        config = data.get("config")
        return cls(
            time_s=float(data["time_s"]),
            interval_s=float(data["interval_s"]),
            ips=tuple(float(v) for v in data["ips"]),
            isolation_ips=tuple(float(v) for v in data["isolation_ips"]),
            config=None if config is None else Configuration.from_dict(config),
            completed_runs=tuple(int(v) for v in data["completed_runs"]),
            memory_bandwidth_bytes_s=tuple(
                float(v) for v in data.get("memory_bandwidth_bytes_s", ())
            ),
            llc_occupancy_bytes=tuple(
                float(v) for v in data.get("llc_occupancy_bytes", ())
            ),
            actuation_ok=bool(data.get("actuation_ok", True)),
        )


class CoLocationSimulator:
    """Simulated CMP server running one job mix.

    Args:
        mix: the co-located workloads.
        catalog: server resources; defaults to the paper's 3-resource
            setup (10 cores, 10 LLC way units, 10 bandwidth units).
        control_interval_s: seconds per control interval.
        noise_sigma: pqos measurement noise (lognormal sigma).
        seed: RNG seed for measurement noise.
        phase_offset_s: initial offset added to every workload's phase
            clock (staggered per job), so repeated experiments on the
            same mix can start from different phase alignments.
        fault_schedule: deterministic fault realization to inject
            (``repro.faults``); ``None`` runs the server clean. With a
            schedule present the register file is a
            :class:`~repro.faults.msr.FaultyMsrFile` so actuation
            faults surface as failed MSR writes.
        actuation_retries: extra write attempts :meth:`apply` makes
            after a failed actuation before giving up for the interval
            (bounded retry with backoff; each failure costs
            :data:`ACTUATION_RETRY_PENALTY` of the interval).
    """

    def __init__(
        self,
        mix: JobMix,
        catalog: Optional[ResourceCatalog] = None,
        control_interval_s: float = DEFAULT_CONTROL_INTERVAL_S,
        noise_sigma: float = 0.02,
        seed: SeedLike = None,
        phase_offset_s: float = 0.0,
        fault_schedule: Optional[FaultSchedule] = None,
        actuation_retries: int = 2,
    ):
        if control_interval_s <= 0:
            raise ExperimentError(f"control interval must be positive, got {control_interval_s}")
        if actuation_retries < 0:
            raise ExperimentError(f"actuation_retries must be >= 0, got {actuation_retries}")
        catalog = catalog or default_catalog()
        for required in (CORES, LLC_WAYS, MEMORY_BANDWIDTH):
            if required not in catalog:
                raise ExperimentError(f"catalog must include {required!r}")
        if phase_offset_s:
            mix = JobMix(
                tuple(
                    w.with_offset(phase_offset_s * (j + 1)) for j, w in enumerate(mix.workloads)
                )
            )
        self._mix = mix
        self._catalog = catalog
        # Isolation IPS per distinct phase seen. Workload.isolation_ips
        # reads time only through phase_at(t) and the catalog never
        # changes, so this is exact, and it is bounded by the phases of
        # every workload this server has hosted.
        self._isolation: Dict[Phase, float] = {}
        # The last interval boundary's time, each job's phase index
        # then, and the isolation IPS those phases give (np.float64, the
        # element type Observation.isolation_ips carries). One entry:
        # step looks the phases up once per boundary, for the ending
        # interval's observation and the next interval's solve key.
        # Dropped when the mix or the clock is replaced.
        self._boundary: Optional[Tuple[float, Tuple[int, ...], Tuple[np.float64, ...]]] = None
        self._interval = control_interval_s
        self._rng = make_rng(seed)
        self._monitor = PqosMonitor(noise_sigma=noise_sigma, rng=spawn_rng(self._rng))

        # Hardware actuators over a shared register file. With fault
        # injection enabled the register file can refuse writes; the
        # actuators themselves are unchanged.
        self._fault_schedule = fault_schedule
        self._actuation_retries = actuation_retries
        self._msr: MsrFile = FaultyMsrFile() if fault_schedule is not None else MsrFile()
        self._cat = CacheAllocationTechnology(self._msr, n_ways=catalog.get(LLC_WAYS).units)
        self._mba = MemoryBandwidthAllocator(
            self._msr, total_units=catalog.get(MEMORY_BANDWIDTH).units
        )
        self._affinity = CoreAffinityController(n_cores=catalog.get(CORES).units)
        self._rapl = PowerCapController(self._msr)

        self._time_s = 0.0
        self._config: Optional[Configuration] = None
        self._instructions = [0.0] * len(mix)
        self._completed_runs = [0] * len(mix)
        self._prev_allocations: Optional[dict] = None
        # The last contention solve and its key: the installed
        # configuration and each job's phase index. The solve is a pure
        # function of those, the mix and the catalog, so an interval
        # with an equal key reuses it. One entry, dropped when the mix
        # changes; not snapshot state (a restored server re-solves).
        self._solved: Optional[Tuple[tuple, SystemState]] = None

        # Fault bookkeeping: failed write attempts pending their IPS
        # penalty, once-per-event triggers (crash progress loss fires a
        # single time however many intervals the event spans), the last
        # *reported* per-job IPS (what a stuck counter repeats), and
        # observable injection counters.
        self._pending_failed_attempts = 0
        self._triggered_events: set = set()
        self._last_reported_ips = [math.nan] * len(mix)
        self._last_true_ips: Tuple[float, ...] = ()
        self._fault_counters: Dict[str, int] = {
            "actuation_failures": 0,
            "actuation_exhausted": 0,
            "samples_dropped": 0,
            "samples_nan": 0,
            "samples_stuck": 0,
            "samples_outlier": 0,
            "crashes": 0,
            "hangs": 0,
        }

    # -- introspection ------------------------------------------------------

    @property
    def mix(self) -> JobMix:
        return self._mix

    @property
    def catalog(self) -> ResourceCatalog:
        return self._catalog

    @property
    def n_jobs(self) -> int:
        return len(self._mix)

    @property
    def time_s(self) -> float:
        return self._time_s

    @property
    def control_interval_s(self) -> float:
        return self._interval

    @property
    def current_config(self) -> Optional[Configuration]:
        return self._config

    @property
    def msr(self) -> MsrFile:
        """The simulated register file (inspectable by tests)."""
        return self._msr

    @property
    def fault_schedule(self) -> Optional[FaultSchedule]:
        """The injected fault realization, or ``None`` when clean."""
        return self._fault_schedule

    @property
    def fault_counters(self) -> Dict[str, int]:
        """Counts of faults injected so far, by kind (a copy)."""
        return dict(self._fault_counters)

    @property
    def active_fault_count(self) -> int:
        """Number of fault events active at the current wall time."""
        if self._fault_schedule is None:
            return 0
        return self._fault_schedule.active_count(self._time_s)

    @property
    def last_true_ips(self) -> Tuple[float, ...]:
        """The last interval's noisy-but-uncorrupted IPS measurements.

        What a fault-free monitor would have reported: measurement
        noise included, injected monitoring corruption excluded.
        Evaluators score these; controllers only ever see the
        :class:`Observation`'s possibly-corrupted ``ips``. Empty before
        the first :meth:`step`.
        """
        return self._last_true_ips

    def equal_partition(self) -> Configuration:
        """The ``S_init`` configuration for this server and mix."""
        return equal_partition(self._catalog, self.n_jobs)

    # -- actuation ----------------------------------------------------------

    def apply(self, config: Optional[Configuration]) -> None:
        """Install a partitioning configuration on the (simulated) hardware.

        Resources the configuration covers are programmed through the
        corresponding actuator. Resources it omits are left as they
        are in the registers; the contention model treats them as
        shared, because it reads the installed :class:`Configuration`,
        not the registers. ``None`` runs the server unmanaged.

        Under fault injection a write can fail; the install is retried
        up to ``actuation_retries`` extra times (each failure costs a
        slice of the interval, see :data:`ACTUATION_RETRY_PENALTY`).
        If every attempt fails the last-known-good configuration stays
        in force — ``self._config`` is only updated on success — and
        :class:`~repro.errors.ActuationError` is raised.

        Requesting the configuration already installed writes nothing,
        unless the fault schedule injects failing attempts now: the
        registers already hold it, so a pass of the same writes would
        change no register and no counter.

        Raises:
            ConfigurationError: if the configuration is invalid for
                this server/mix.
            ActuationError: if every write attempt failed; the
                previously installed configuration remains active.
        """
        with active_collector().span("actuation", "server"):
            if config is not None:
                fail_attempts = 0
                if self._fault_schedule is not None:
                    fail_attempts = self._fault_schedule.actuation_fail_attempts(self._time_s)
                if fail_attempts or config != self._config:
                    if config.n_jobs != self.n_jobs:
                        raise ConfigurationError(
                            f"configuration covers {config.n_jobs} jobs, mix has {self.n_jobs}"
                        )
                    config.validate(self._catalog.subset(config.resource_names))
                    self._install(config, fail_attempts)
            self._config = config

    def _install(self, config: Configuration, fail_attempts: int) -> None:
        """Program a validated configuration, retrying injected failures.

        The first ``fail_attempts`` write attempts fail on purpose.
        """
        faulty = self._msr if isinstance(self._msr, FaultyMsrFile) else None
        last_error: Optional[HardwareError] = None
        total_attempts = 1 + self._actuation_retries
        for attempt in range(total_attempts):
            armed = attempt < fail_attempts
            if faulty is not None:
                faulty.arm(armed)
            try:
                self._program(config)
            except HardwareError as error:
                if faulty is not None:
                    faulty.arm(False)
                if not armed:
                    # A genuine actuator rejection, not an injected
                    # fault: retrying the same write cannot help.
                    raise
                self._pending_failed_attempts += 1
                self._fault_counters["actuation_failures"] += 1
                last_error = error
                continue
            if faulty is not None:
                faulty.arm(False)
            return
        self._fault_counters["actuation_exhausted"] += 1
        raise ActuationError(
            f"configuration install failed after {total_attempts} attempts "
            f"at t={self._time_s:.3f}s; keeping last-known-good configuration "
            f"({last_error})"
        )

    def _program(self, config: Configuration) -> None:
        """One programming pass over the actuators (no retry logic)."""
        if config.partitions(LLC_WAYS):
            self._cat.apply_partition(config.units(LLC_WAYS))
        if config.partitions(MEMORY_BANDWIDTH):
            self._mba.apply_partition(config.units(MEMORY_BANDWIDTH))
        if config.partitions(CORES):
            self._affinity.apply_partition(config.units(CORES))
        if config.partitions(POWER):
            self._rapl.apply_partition(config.units(POWER))

    # -- execution ----------------------------------------------------------

    def step(self, config: Optional[Configuration] = None) -> Observation:
        """Run one control interval and return its measurements.

        Args:
            config: if given, installed via :meth:`apply` before the
                interval runs; otherwise the previous configuration
                stays active ("jobs continue to execute using their
                previous resource allocation configuration until
                SATORI generates a new decision", Sec. V).
        """
        actuation_ok = True
        if config is not None:
            try:
                self.apply(config)
            except ActuationError:
                # Last-known-good configuration stays installed; the
                # interval runs under it and the policy learns of the
                # failure through ``actuation_ok`` rather than an
                # exception tearing down the control loop.
                actuation_ok = False

        interval_start = self._time_s
        key = (self._config, self._phases_now()[0])
        if self._solved is None or self._solved[0] != key:
            state = evaluate_system(self._mix, self._catalog, self._config, interval_start)
            self._solved = (key, state)
        state = self._solved[1]
        # Per-job products on Python floats, in the order the factors
        # apply (DESIGN.md "Interval bookkeeping").
        ips = [
            v * moved * faulted
            for v, moved, faulted in zip(
                state.ips.tolist(),
                self._reconfiguration_factors(state.allocations),
                self._workload_fault_factors(interval_start),
            )
        ]
        if self._pending_failed_attempts:
            penalty = min(0.5, ACTUATION_RETRY_PENALTY * self._pending_failed_attempts)
            ips = [v * (1.0 - penalty) for v in ips]
            self._pending_failed_attempts = 0
        for j, v in enumerate(ips):
            self._instructions[j] += v * self._interval
        self._account_completions()
        self._time_s += self._interval

        samples = self._monitor.observe(
            ips,
            self._interval,
            llc_occupancy_bytes=state.llc_occupancy_bytes,
            memory_bandwidth_bytes_s=state.memory_bandwidth_bytes_s,
        )
        true_sampled = [s.ips for s in samples]
        # Evaluators score the pre-corruption measurements (controllers
        # only ever see the reported, possibly corrupted, Observation).
        self._last_true_ips = tuple(true_sampled)
        reported_ips = self._apply_monitor_faults(true_sampled, interval_start)
        return Observation(
            time_s=self._time_s,
            interval_s=self._interval,
            ips=tuple(reported_ips),
            isolation_ips=self._phases_now()[1],
            config=self._config,
            completed_runs=tuple(self._completed_runs),
            memory_bandwidth_bytes_s=tuple(s.memory_bandwidth_bytes_s for s in samples),
            llc_occupancy_bytes=tuple(s.llc_occupancy_bytes for s in samples),
            actuation_ok=actuation_ok,
        )

    def run(self, config: Optional[Configuration], n_steps: int) -> List[Observation]:
        """Run ``n_steps`` intervals under a fixed configuration."""
        if n_steps < 1:
            raise ExperimentError(f"n_steps must be >= 1, got {n_steps}")
        self.apply(config)
        return [self.step() for _ in range(n_steps)]

    # -- workload churn ------------------------------------------------------

    def replace_workload(self, job_index: int, workload) -> None:
        """Swap one co-located job for a different workload (mix change).

        The paper (Sec. III-C) requires SATORI to adapt to workload-mix
        changes with no re-initialization; this models a job ending and
        a new one taking its slot. The new job starts with zero
        progress; the co-location degree is unchanged, so the installed
        partitioning configuration stays valid.

        Raises:
            ExperimentError: if the job index is out of range.
        """
        if not 0 <= job_index < self.n_jobs:
            raise ExperimentError(f"job index {job_index} out of range [0, {self.n_jobs})")
        workloads = list(self._mix.workloads)
        workloads[job_index] = workload
        self._mix = JobMix(tuple(workloads))
        self._solved = None
        self._boundary = None
        self._instructions[job_index] = 0.0
        # The newcomer's phase clock starts fresh relative to wall time;
        # shift its schedule so phase_at(self._time_s) is its phase 0.
        if self._time_s > 0:
            period = workload.schedule.period
            offset = (-self._time_s) % period
            self._mix = JobMix(
                tuple(
                    w if j != job_index else w.with_offset(offset)
                    for j, w in enumerate(self._mix.workloads)
                )
            )

    # -- baselines ----------------------------------------------------------

    def measure_isolation(self, noisy: bool = False) -> np.ndarray:
        """Per-job isolation IPS at the current phases.

        The paper re-records isolation performances at the start and
        on every baseline reset (Algorithm 1, line 13); controllers
        call this at those points. ``noisy=True`` passes the values
        through the pqos noise model, as a real re-measurement would.
        """
        iso = np.array(self._phases_now()[1], dtype=float)
        if not noisy:
            return iso
        samples = self._monitor.observe(iso, self._interval)
        return np.array([s.ips for s in samples])

    def _phases_now(self) -> Tuple[Tuple[int, ...], Tuple[np.float64, ...]]:
        """Each job's phase index and isolation IPS at the current time.

        Looked up once per interval boundary. An unchanged phase tuple
        reuses the previous boundary's isolation values.
        """
        t = self._time_s
        last = self._boundary
        if last is not None and last[0] == t:
            return last[1], last[2]
        phases = tuple(w.phase_index_at(t) for w in self._mix)
        if last is not None and last[1] == phases:
            isolation = last[2]
        else:
            isolation = tuple(
                np.float64(self._isolation_of(w, w.schedule.segments[index][1], t))
                for w, index in zip(self._mix, phases)
            )
        self._boundary = (t, phases, isolation)
        return phases, isolation

    def _isolation_of(self, workload: Workload, phase: Phase, t: float) -> float:
        value = self._isolation.get(phase)
        if value is None:
            value = self._isolation[phase] = workload.isolation_ips(self._catalog, t)
        return value

    def true_ips(self, config: Optional[Configuration] = None, at_time: float = None) -> np.ndarray:
        """Noise-free IPS under ``config`` (defaults: active config, now).

        Exposed for the Oracle and for experiment analysis; online
        policies must use :meth:`step` observations instead.
        """
        target = self._config if config is None else config
        t = self._time_s if at_time is None else at_time
        return evaluate_system(self._mix, self._catalog, target, t).ips

    def phase_key(self, at_time: float = None) -> Tuple[int, ...]:
        """The tuple of active phase indices (Oracle cache key)."""
        if at_time is None:
            return self._phases_now()[0]
        return tuple(w.phase_index_at(at_time) for w in self._mix)

    # -- snapshot / restore --------------------------------------------------

    def snapshot_state(self) -> dict:
        """The server's complete dynamic state as JSON-compatible data.

        Everything :meth:`step` reads or advances: wall time, both RNG
        stream positions (substrate + monitor), the installed
        configuration, per-job progress, the previous-interval
        allocations (reconfiguration-penalty memory), and the fault
        bookkeeping. Together with the construction arguments (mix,
        catalog, interval, noise) this is sufficient for
        :meth:`restore_state` to resume the server bit-identically —
        the property the ``repro.serve`` session snapshot/resume
        round-trip is built on.

        NaN is not valid JSON, so the last-reported-IPS slots (which
        start as NaN before a job's first sample) encode NaN as
        ``None``.
        """
        return {
            "time_s": float(self._time_s),
            "rng": rng_state(self._rng),
            "monitor_rng": rng_state(self._monitor.rng),
            "config": self._config.to_dict() if self._config is not None else None,
            "instructions": [float(v) for v in self._instructions],
            "completed_runs": [int(v) for v in self._completed_runs],
            "prev_allocations": (
                None
                if self._prev_allocations is None
                else {
                    name: [float(v) for v in values]
                    for name, values in self._prev_allocations.items()
                }
            ),
            "pending_failed_attempts": int(self._pending_failed_attempts),
            "triggered_events": sorted(self._triggered_events),
            "last_reported_ips": [
                float(v) if math.isfinite(v) else None for v in self._last_reported_ips
            ],
            "last_true_ips": [float(v) for v in self._last_true_ips],
            "fault_counters": dict(self._fault_counters),
        }

    def restore_state(self, state: dict) -> None:
        """Resume the server at the exact instant of a prior snapshot.

        The simulator must have been constructed with the same mix,
        catalog, and knobs as the one that produced the snapshot (the
        snapshot holds dynamic state only). The installed configuration
        is re-programmed through the actuators so the register file
        matches; RNG streams resume at their recorded positions.

        Raises:
            ExperimentError: if the snapshot's job count does not match
                this server's mix.
        """
        if len(state["instructions"]) != self.n_jobs:
            raise ExperimentError(
                f"snapshot covers {len(state['instructions'])} jobs, "
                f"mix has {self.n_jobs}"
            )
        self._time_s = float(state["time_s"])
        self._boundary = None
        self._rng = rng_from_state(state["rng"])
        self._monitor.rng = rng_from_state(state["monitor_rng"])
        config = state.get("config")
        if config is not None:
            restored = Configuration.from_dict(config)
            restored.validate(self._catalog.subset(restored.resource_names))
            self._program(restored)
            self._config = restored
        else:
            self._config = None
        self._instructions = [float(v) for v in state["instructions"]]
        self._completed_runs = [int(v) for v in state["completed_runs"]]
        prev = state.get("prev_allocations")
        self._prev_allocations = (
            None
            if prev is None
            else {name: np.array(values, dtype=float) for name, values in prev.items()}
        )
        self._pending_failed_attempts = int(state.get("pending_failed_attempts", 0))
        self._triggered_events = set(state.get("triggered_events", ()))
        self._last_reported_ips = [
            math.nan if v is None else float(v) for v in state["last_reported_ips"]
        ]
        self._last_true_ips = tuple(float(v) for v in state.get("last_true_ips", ()))
        self._fault_counters = {
            str(k): int(v) for k, v in state.get("fault_counters", {}).items()
        }

    def _workload_fault_factors(self, t: float) -> List[float]:
        """Per-job IPS multipliers from crash / hang events at time ``t``.

        A crashed job makes no progress until its restart completes and
        loses the current run's partial work (once per event, however
        many intervals the event spans). A hung job makes no progress
        but keeps its state.
        """
        factors = [1.0] * self.n_jobs
        if self._fault_schedule is None:
            return factors
        for job in range(self.n_jobs):
            for index, event in self._fault_schedule.workload_events(job, t):
                if index not in self._triggered_events:
                    self._triggered_events.add(index)
                    if event.kind == CRASH:
                        self._instructions[job] = 0.0
                        self._fault_counters["crashes"] += 1
                    else:
                        self._fault_counters["hangs"] += 1
                factors[job] = 0.0
        return factors

    def _apply_monitor_faults(self, reported: List[float], t: float) -> List[float]:
        """Corrupt the per-job reported IPS per the fault schedule.

        Drops and NaN glitches report NaN (a dropped pqos sample has no
        value); a stuck counter repeats the last *reported* value; an
        outlier scales the true measurement by the event magnitude.
        Only the report is corrupted — true progress accounting already
        happened.
        """
        if self._fault_schedule is not None:
            for job in range(self.n_jobs):
                for event in self._fault_schedule.monitor_events(job, t):
                    if event.kind == DROP:
                        reported[job] = float("nan")
                        self._fault_counters["samples_dropped"] += 1
                    elif event.kind == NAN:
                        reported[job] = float("nan")
                        self._fault_counters["samples_nan"] += 1
                    elif event.kind == STUCK:
                        if math.isfinite(self._last_reported_ips[job]):
                            reported[job] = float(self._last_reported_ips[job])
                        self._fault_counters["samples_stuck"] += 1
                    elif event.kind == OUTLIER:
                        reported[job] = reported[job] * event.magnitude
                        self._fault_counters["samples_outlier"] += 1
        for job, value in enumerate(reported):
            if math.isfinite(value):
                self._last_reported_ips[job] = value
        return reported

    def _reconfiguration_factors(self, current: Dict[str, np.ndarray]) -> List[float]:
        """Per-job IPS multipliers for this interval's allocation change.

        A job whose allocation moved loses up to
        :data:`RECONFIGURATION_PENALTY` of the interval to cache
        refill / thread-migration disturbance, in proportion to the
        fraction of its allocation that changed. The first interval is
        free (jobs are starting anyway). ``current`` is the interval's
        effective allocations, as its contention solve computed them;
        a reused solve hands back the previous interval's own, which
        moved nothing.
        """
        previous, self._prev_allocations = self._prev_allocations, current
        if previous is None or current is previous:
            return [1.0] * self.n_jobs

        moved = [0.0] * self.n_jobs
        for resource in self._catalog:
            old = previous[resource.name].tolist()
            new = current[resource.name].tolist()
            moved = [
                m + abs(b - a) / resource.units for m, a, b in zip(moved, old, new)
            ]
        return [
            1.0 - RECONFIGURATION_PENALTY * min(2.0 * (m / len(self._catalog)), 1.0)
            for m in moved
        ]

    def _account_completions(self) -> None:
        """Fixed-work accounting: completing a run restarts the job.

        The fixed-work methodology (Sec. IV) measures equal work per
        job; a completed run immediately restarts, which keeps the
        co-location degree constant during an experiment.
        """
        for j, workload in enumerate(self._mix):
            total = workload.total_instructions
            while self._instructions[j] >= total:
                self._instructions[j] -= total
                self._completed_runs[j] += 1
