"""Quiet-interval pairing fuzzer for the co-location simulator.

:class:`~repro.system.simulation.CoLocationSimulator` skips the work an
unchanged interval would repeat: ``apply`` writes nothing when asked
for the configuration already installed (unless the fault schedule
injects failing attempts at that time), and ``step`` reuses its last
contention solve while the installed configuration and every job's
phase stay the same (DESIGN.md "Quiet intervals").

:class:`ReferenceSimulator` below keeps the simulator as it was before
those shortcuts: it re-validates and re-installs on every ``apply``,
and re-solves contention and recomputes the reconfiguration penalty on
every ``step``. It also keeps the interval's bookkeeping as it was
before it moved to Python floats (DESIGN.md "Interval bookkeeping"):
progress, the penalty and fault factors and the monitor-fault pass on
numpy arrays, the monitor's per-job scalar noise draws, and one phase
lookup per job for every isolation measurement. Each draw runs the two
side by side over one stream of operations and compares them after
every operation: the observation (repr, so NaN samples compare equal
and every float bit and element type counts), ``last_true_ips``, the
fault counters, the MSR register contents and the full
``snapshot_state()``.

The streams are repeat-heavy: configurations come from a pool of one
to three, each full or partial (the LLC-only dCAT shape or the LLC +
bandwidth CoPart shape), mixed with config-less steps and
``apply(None)``. Draws add a realized :class:`~repro.faults.FaultPlan`
with actuation faults, ``replace_workload`` points and
``snapshot_state`` -> ``restore_state`` points (into the same server or
into a freshly built one). Tier-1 runs hypothesis's default ~100
derandomized examples; ``--hypothesis-profile=deep`` (registered in
``conftest.py``) runs a thousand.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ActuationError, ConfigurationError, ReproError
from repro.experiments.extensions import power_catalog
from repro.experiments.runner import experiment_catalog
from repro.faults import FaultPlan, FaultSchedule
from repro.faults.schedule import CRASH, DROP, NAN, OUTLIER, STUCK
from repro.obs import active_collector
from repro.resources.allocation import Configuration
from repro.resources.space import ConfigurationSpace
from repro.resources.types import LLC_WAYS, MEMORY_BANDWIDTH
from repro.system.contention import evaluate_system
from repro.system.simulation import (
    ACTUATION_RETRY_PENALTY,
    RECONFIGURATION_PENALTY,
    CoLocationSimulator,
    Observation,
)
from repro.workloads.mixes import mix_from_names
from repro.workloads.registry import default_registry
from tests.test_bookkeeping_fuzz import per_job_observe

REGISTRY = default_registry()
WORKLOADS = tuple(
    w.name for suite in ("parsec", "cloudsuite", "ecp") for w in REGISTRY.suite(suite)
)


class ReferenceSimulator(CoLocationSimulator):
    """The simulator without quiet-interval shortcuts, on numpy.

    ``apply`` validates and installs every configuration it is given,
    and ``step`` solves contention and computes the reconfiguration
    penalty every interval, as the simulator did before it skipped
    repeated work. Progress, completions and the last reported IPS are
    numpy arrays, and every helper ``step`` calls is a copy of the
    array version it had then.
    """

    def __init__(self, mix, **kwargs):
        super().__init__(mix, **kwargs)
        self._to_arrays()

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._to_arrays()

    def _to_arrays(self) -> None:
        self._instructions = np.array(self._instructions, dtype=float)
        self._completed_runs = np.array(self._completed_runs, dtype=np.int64)
        self._last_reported_ips = np.array(self._last_reported_ips, dtype=float)

    def apply(self, config: Optional[Configuration]) -> None:
        with active_collector().span("actuation", "server"):
            if config is not None:
                if config.n_jobs != self.n_jobs:
                    raise ConfigurationError(
                        f"configuration covers {config.n_jobs} jobs, mix has {self.n_jobs}"
                    )
                config.validate(self._catalog.subset(config.resource_names))
                fail_attempts = 0
                if self._fault_schedule is not None:
                    fail_attempts = self._fault_schedule.actuation_fail_attempts(self._time_s)
                self._install(config, fail_attempts)
            self._config = config

    def step(self, config: Optional[Configuration] = None) -> Observation:
        actuation_ok = True
        if config is not None:
            try:
                self.apply(config)
            except ActuationError:
                actuation_ok = False

        interval_start = self._time_s
        state = evaluate_system(self._mix, self._catalog, self._config, interval_start)
        ips = state.ips * self._reconfiguration_factors(state.allocations)
        ips = ips * self._workload_fault_factors(interval_start)
        if self._pending_failed_attempts:
            penalty = min(0.5, ACTUATION_RETRY_PENALTY * self._pending_failed_attempts)
            ips = ips * (1.0 - penalty)
            self._pending_failed_attempts = 0
        self._instructions += ips * self._interval
        self._account_completions()
        self._time_s += self._interval

        samples = per_job_observe(
            self._monitor.rng,
            self._monitor._noise_sigma,
            ips,
            self._interval,
            llc_occupancy_bytes=state.llc_occupancy_bytes,
            memory_bandwidth_bytes_s=state.memory_bandwidth_bytes_s,
        )
        true_sampled = [s.ips for s in samples]
        reported_ips = self._apply_monitor_faults(list(true_sampled), interval_start)
        self._last_true_ips = tuple(float(v) for v in true_sampled)
        return Observation(
            time_s=self._time_s,
            interval_s=self._interval,
            ips=tuple(reported_ips),
            isolation_ips=tuple(self._isolation_array()),
            config=self._config,
            completed_runs=tuple(int(c) for c in self._completed_runs),
            memory_bandwidth_bytes_s=tuple(s.memory_bandwidth_bytes_s for s in samples),
            llc_occupancy_bytes=tuple(s.llc_occupancy_bytes for s in samples),
            actuation_ok=actuation_ok,
        )

    def _isolation_array(self) -> np.ndarray:
        t = self._time_s
        return np.array([w.isolation_ips(self._catalog, t) for w in self._mix], dtype=float)

    def _reconfiguration_factors(self, current):
        if self._prev_allocations is None:
            self._prev_allocations = current
            return np.ones(self.n_jobs)
        moved = np.zeros(self.n_jobs)
        for resource in self._catalog:
            old = self._prev_allocations[resource.name]
            new = current[resource.name]
            moved += np.abs(new - old) / resource.units
        moved /= len(self._catalog)
        self._prev_allocations = current
        return 1.0 - RECONFIGURATION_PENALTY * np.minimum(2.0 * moved, 1.0)

    def _workload_fault_factors(self, t: float) -> np.ndarray:
        factors = np.ones(self.n_jobs)
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

    def _apply_monitor_faults(self, reported, t):
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
                        if np.isfinite(self._last_reported_ips[job]):
                            reported[job] = float(self._last_reported_ips[job])
                        self._fault_counters["samples_stuck"] += 1
                    elif event.kind == OUTLIER:
                        reported[job] = reported[job] * event.magnitude
                        self._fault_counters["samples_outlier"] += 1
        for job, value in enumerate(reported):
            if np.isfinite(value):
                self._last_reported_ips[job] = value
        return reported

    def _account_completions(self) -> None:
        for j, workload in enumerate(self._mix):
            total = workload.total_instructions
            while self._instructions[j] >= total:
                self._instructions[j] -= total
                self._completed_runs[j] += 1


rates = st.sampled_from((0.0, 0.05, 0.2, 0.5))

fault_plans = st.builds(
    FaultPlan,
    actuation_fail_rate=rates,
    actuation_fail_attempts=st.integers(1, 3),
    actuation_outage_rate=st.sampled_from((0.0, 0.05, 0.15)),
    actuation_outage_duration_s=st.sampled_from((0.2, 0.5, 1.0)),
    sample_drop_rate=st.sampled_from((0.0, 0.05)),
    sample_nan_rate=st.sampled_from((0.0, 0.05)),
    sample_stuck_rate=st.sampled_from((0.0, 0.05)),
    sample_outlier_rate=st.sampled_from((0.0, 0.05)),
    crash_rate=st.sampled_from((0.0, 0.03)),
    crash_restart_s=st.sampled_from((0.2, 0.5)),
    hang_rate=st.sampled_from((0.0, 0.03)),
)

#: The resources a configuration partitions: all of them, the dCAT
#: shape (LLC only) or the CoPart shape (LLC + bandwidth).
SHAPES = (None, (LLC_WAYS,), (LLC_WAYS, MEMORY_BANDWIDTH))


@st.composite
def operations(draw, n_configs, n_steps):
    """One operation per interval, repeats drawn often."""
    step = st.tuples(st.just("step"), st.none() | st.integers(0, n_configs - 1))
    rare = st.one_of(
        st.tuples(st.just("apply"), st.none() | st.integers(0, n_configs - 1)),
        st.tuples(st.just("replace"), st.tuples(st.integers(0, 3), st.integers(0, 16))),
        st.tuples(st.just("restore"), st.booleans()),
    )
    return draw(
        st.lists(
            st.one_of(step, step, step, step, rare),
            min_size=n_steps,
            max_size=n_steps,
        )
    )


@st.composite
def scenarios(draw):
    names = draw(st.lists(st.sampled_from(WORKLOADS), min_size=2, max_size=4, unique=True))
    mix = mix_from_names(names, REGISTRY)
    units = draw(st.integers(4, 6))
    catalog = draw(
        st.sampled_from((experiment_catalog(units), power_catalog(units=units, power_units=6)))
    )
    interval_s = draw(st.sampled_from((0.1, 0.1, 0.5)))
    n_steps = draw(st.integers(5, 40))
    seed = draw(st.integers(0, 2**16))
    plan = draw(st.none() | fault_plans)
    schedule = None
    if plan is not None and not plan.is_empty:
        schedule = FaultSchedule.generate(
            plan,
            n_jobs=len(mix),
            duration_s=interval_s * (n_steps + 1),
            interval_s=interval_s,
            seed=seed,
        )
    n_configs = draw(st.integers(1, 3))
    configs = []
    for index in range(n_configs):
        shape = draw(st.sampled_from(SHAPES))
        space = ConfigurationSpace(
            catalog if shape is None else catalog.subset(shape), len(mix)
        )
        equal = draw(st.booleans())
        configs.append(space.equal_partition() if equal else space.sample(seed + index))
    return dict(
        kwargs=dict(
            catalog=catalog,
            control_interval_s=interval_s,
            seed=seed,
            phase_offset_s=draw(st.sampled_from((0.0, 0.7, 2.3))),
            fault_schedule=schedule,
            actuation_retries=draw(st.integers(0, 2)),
        ),
        mix=mix,
        configs=configs,
        ops=draw(operations(n_configs, n_steps)),
    )


def outcome(call):
    """``call()``'s result, or the repro error it raised (type, message)."""
    try:
        return call()
    except ReproError as error:
        return type(error), str(error)


def assert_paired(sim: CoLocationSimulator, ref: CoLocationSimulator) -> None:
    assert sim.last_true_ips == ref.last_true_ips
    assert sim.fault_counters == ref.fault_counters
    assert list(sim.msr) == list(ref.msr)
    assert sim.snapshot_state() == ref.snapshot_state()


def restored(sim: CoLocationSimulator, kind, kwargs, fresh: bool) -> CoLocationSimulator:
    """``sim`` after a snapshot -> restore, in place or into a new server."""
    state = sim.snapshot_state()
    if fresh:
        # The server's mix already carries its phase offsets and any
        # replaced workloads.
        sim = kind(sim.mix, **dict(kwargs, phase_offset_s=0.0, seed=kwargs["seed"] + 1))
    sim.restore_state(state)
    return sim


@settings(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenarios())
def test_quiet_intervals_match_the_reference(scenario):
    kwargs, configs = scenario["kwargs"], scenario["configs"]
    sim = CoLocationSimulator(scenario["mix"], **kwargs)
    ref = ReferenceSimulator(scenario["mix"], **kwargs)
    for op, arg in scenario["ops"]:
        if op == "replace":
            job, pick = arg
            hosted = {w.name for w in sim.mix}
            newcomers = [name for name in WORKLOADS if name not in hosted]
            workload = REGISTRY.get(newcomers[pick % len(newcomers)])
            for server in (sim, ref):
                server.replace_workload(job % server.n_jobs, workload)
        elif op == "restore":
            sim = restored(sim, CoLocationSimulator, kwargs, arg)
            ref = restored(ref, ReferenceSimulator, kwargs, arg)
        else:
            config = None if arg is None else configs[arg]
            if op == "apply":
                assert outcome(lambda: sim.apply(config)) == outcome(lambda: ref.apply(config))
                config = None
            assert repr(sim.step(config)) == repr(ref.step(config))
        assert_paired(sim, ref)
