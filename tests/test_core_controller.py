"""Tests for the SATORI controller (Algorithm 1)."""

import dataclasses
import json

import numpy as np
import pytest

from repro import serialize
from repro.core import controller as controller_module
from repro.core.controller import SatoriController
from repro.errors import ExperimentError, PolicyError
from repro.experiments.runner import RunConfig, run_policy
from repro.resources.space import ConfigurationSpace
from repro.system.simulation import CoLocationSimulator, Observation


@pytest.fixture
def space(catalog6):
    return ConfigurationSpace(catalog6, 3)


def drive(controller, simulator, n_steps):
    """Run the Algorithm-1 loop manually for n_steps."""
    observation = None
    for _ in range(n_steps):
        config = controller.decide(observation)
        observation = simulator.step(config)
    return observation


class TestLifecycle:
    def test_first_decision_is_equal_partition(self, space):
        controller = SatoriController(space, rng=0)
        assert controller.decide(None) == space.equal_partition()

    def test_initial_set_drained_in_order(self, space, make_simulator):
        controller = SatoriController(space, rng=0)
        initial = controller.initial_configurations
        sim = make_simulator()
        observation = None
        seen = []
        for _ in range(len(initial)):
            config = controller.decide(observation)
            seen.append(config)
            observation = sim.step(config)
        assert seen == initial
        assert seen[0] == space.equal_partition()
        assert len(set(seen)) == len(seen)

    def test_records_accumulate(self, space, make_simulator):
        controller = SatoriController(space, rng=0)
        drive(controller, make_simulator(), 20)
        assert len(controller.records) == 19  # one per observed interval

    def test_invalid_mode(self, space):
        with pytest.raises(PolicyError):
            SatoriController(space, mode="greedy")

    def test_decisions_always_valid(self, space, make_simulator):
        controller = SatoriController(space, rng=3)
        sim = make_simulator()
        observation = None
        for _ in range(30):
            config = controller.decide(observation)
            assert space.contains(config)
            observation = sim.step(config)


class TestVariants:
    def test_mode_names(self, space):
        assert SatoriController(space, mode="dynamic").name == "SATORI"
        assert SatoriController(space, mode="throughput").name == "Throughput SATORI"
        assert SatoriController(space, mode="fairness").name == "Fairness SATORI"
        assert "static" in SatoriController(space, mode="static").name

    def test_static_weights_constant(self, space, make_simulator):
        controller = SatoriController(space, mode="static", rng=0)
        drive(controller, make_simulator(), 12)
        assert controller.weights.pair == (0.5, 0.5)

    def test_throughput_variant_weights(self, space, make_simulator):
        controller = SatoriController(space, mode="throughput", rng=0)
        drive(controller, make_simulator(), 5)
        assert controller.weights.pair == (1.0, 0.0)

    def test_dynamic_weights_move(self, space, make_simulator):
        controller = SatoriController(space, mode="dynamic", rng=0)
        sim = make_simulator()
        observation = None
        weights = []
        for _ in range(60):
            config = controller.decide(observation)
            observation = sim.step(config)
            if controller.weights is not None:
                weights.append(controller.weights.w_throughput)
        assert max(weights) - min(weights) > 0.01


class TestDiagnostics:
    def test_diagnostics_keys(self, space, make_simulator):
        controller = SatoriController(space, rng=0)
        drive(controller, make_simulator(), 25)
        diag = controller.diagnostics()
        for key in ("weight_throughput", "weight_fairness", "objective"):
            assert key in diag

    def test_decision_time_tracked(self, space, make_simulator):
        controller = SatoriController(space, rng=0)
        drive(controller, make_simulator(), 10)
        assert controller.mean_decision_time_s > 0

    def test_idle_detection_engages_on_stable_objective(self, space, parsec_mix3, catalog6):
        """With zero noise and a repeating config, idleness should trigger."""
        controller = SatoriController(space, rng=0, idle_detection=True)
        sim = CoLocationSimulator(parsec_mix3, catalog6, noise_sigma=0.0, seed=0)
        drive(controller, sim, 60)
        assert controller.idle_fraction > 0

    def test_idle_disabled_never_idles(self, space, make_simulator):
        controller = SatoriController(space, rng=0, idle_detection=False)
        drive(controller, make_simulator(), 40)
        assert controller.idle_fraction == 0.0


class TestEndToEnd:
    def test_run_policy_integration(self, space, parsec_mix3, catalog6):
        controller = SatoriController(space, rng=1)
        result = run_policy(
            controller, parsec_mix3, catalog6, RunConfig(duration_s=4.0), seed=1
        )
        assert 0 < result.throughput <= 1
        assert 0 < result.fairness <= 1
        assert len(result.telemetry) == 40

    def test_weight_periods_count_the_run_interval(self, space, parsec_mix3, catalog6):
        """T_E = 10 s of simulated time closes near 10 and 20 s at 0.2 s
        intervals, as at 0.1 s: the periods count the run's interval."""

        def period_ends(interval_s):
            controller = SatoriController(space, rng=1)
            decide, ends = controller.decide, []

            def recording(observation):
                before = controller.weights
                config = decide(observation)
                if controller.weights is not before and controller.weights.period_reset:
                    ends.append(observation.time_s)  # the interval that closed it
                return config

            controller.decide = recording
            run_config = RunConfig(duration_s=21.0, interval_s=interval_s)
            run_policy(controller, parsec_mix3, catalog6, run_config, seed=1)
            return ends

        reference = period_ends(0.1)
        assert reference == pytest.approx([10.0, 20.0])
        stretched = period_ends(0.2)
        assert len(stretched) == 2
        for end, expected in zip(stretched, reference):
            assert abs(end - expected) <= 0.2 + 1e-9

    def test_beats_random_on_average(self, space, parsec_mix3, catalog6):
        from repro.policies.random_search import RandomSearchPolicy

        rc = RunConfig(duration_s=10.0)
        satori = run_policy(SatoriController(space, rng=2), parsec_mix3, catalog6, rc, seed=2)
        random = run_policy(RandomSearchPolicy(space, rng=2), parsec_mix3, catalog6, rc, seed=2)
        satori_score = satori.throughput + satori.fairness
        random_score = random.throughput + random.fairness
        assert satori_score > random_score


# -- the float validation gate against the numpy one ------------------------


class ArrayLoop:
    """The gate's loop fields as the numpy gate held them."""

    def __init__(self):
        self.noise_seen = False
        self.spike_pending = False
        self.last_accepted_ips = None
        self.last_accepted_config = None
        self.last_good_speedups = None


def array_gate(loop, observation, spike_factor=4.0, speedup_ceiling=2.0):
    """``_validate_observation`` as it ran on numpy arrays, kept as the
    reference; returns ``(accepted, branch)``."""
    ips = np.asarray(observation.ips, dtype=float)
    iso = np.asarray(observation.isolation_ips, dtype=float)
    if not (np.all(np.isfinite(ips)) and np.all(np.isfinite(iso))):
        return False, "non_finite"
    if not np.any(ips > 0):
        return False, "starved"
    branch = "accepted"
    if loop.last_accepted_ips is not None and len(loop.last_accepted_ips) == len(ips):
        same_config = (
            observation.config is not None
            and loop.last_accepted_config is not None
            and observation.config == loop.last_accepted_config
        )
        if not loop.noise_seen and same_config:
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = np.abs(ips - loop.last_accepted_ips) / np.where(
                    loop.last_accepted_ips > 0, loop.last_accepted_ips, 1.0
                )
            if np.any((rel > 0) & (rel < 0.05)):
                loop.noise_seen = True
                branch = "noise_seen"
        if loop.noise_seen:
            stale = (ips == loop.last_accepted_ips) & (ips > 0)
            if np.any(stale):
                return False, "stale"
    safe_iso = np.where(iso > 0, iso, 1.0)
    speedup = np.where(iso > 0, ips / safe_iso, 0.0)
    if np.any(speedup > speedup_ceiling):
        return False, "ceiling"
    if loop.last_good_speedups is not None and len(loop.last_good_speedups) == len(speedup):
        ref = loop.last_good_speedups
        suspect = (ref > 0) & (speedup < ref / spike_factor)
        if np.any(suspect):
            if not loop.spike_pending:
                loop.spike_pending = True
                return False, "spike_rejected"
            branch = "spike_accepted"
    loop.spike_pending = False
    loop.last_accepted_ips = ips
    loop.last_accepted_config = observation.config
    loop.last_good_speedups = speedup
    return True, branch


class ArrayGateController(SatoriController):
    """SATORI with the numpy gate, holding its loop fields as arrays."""

    def _validate_observation(self, observation):
        return array_gate(self._loop, observation)[0]


#: How the numpy gate's array fields were written into snapshots.
ARRAY_CODEC = serialize.optional(
    serialize.FieldCodec(
        encode=lambda values: values.tolist(),
        decode=lambda data: np.asarray(data, dtype=float),
    )
)


def gate_observations(space, seed, n_steps=160, zero_baselines=True):
    """A seeded observation stream that reaches every branch of the gate.

    The first 12 intervals repeat exactly under one configuration (noise
    not yet seen, so repeats are not stale); after that, 1% lognormal
    noise, and per interval one of: NaN IPS, an infinite baseline, a
    starved interval, a job repeating its previous IPS, a speedup over
    or exactly at the ceiling, a 10x drop that persists to the next interval 60% of
    the time, a phase shift, a zero-IPS job, another configuration, or
    (optionally) a zero baseline.
    """
    rng = np.random.default_rng(seed)
    n = space.n_jobs
    configs = [space.equal_partition()] + space.sample_batch(2, rng)
    base_iso = rng.uniform(1e9, 3e9, n)
    level = rng.uniform(0.3, 0.9, n)
    kinds = ["clean"] * 6 + [
        "nan", "inf", "starved", "stale", "stale", "ceiling", "at_ceiling", "spike", "spike",
        "shift", "zero_job", "config",
    ] + (["zero_iso"] if zero_baselines else [])
    previous = None
    dropped = None
    for step in range(n_steps):
        iso = base_iso.copy()
        noise = 1.0 if step < 12 else rng.lognormal(0.0, 0.01, n)
        ips = level * iso * noise
        config = configs[0]
        if dropped is not None and rng.random() < 0.6:
            ips[dropped] /= 10.0
        dropped = None
        kind = "clean" if step < 12 else kinds[rng.integers(len(kinds))]
        job = rng.integers(n)
        if kind == "nan":
            ips[job] = np.nan
        elif kind == "inf":
            iso[job] = np.inf
        elif kind == "starved":
            ips[:] = 0.0
        elif kind == "stale" and previous is not None:
            ips[job] = previous[job]
        elif kind == "ceiling":
            ips[job] = iso[job] * rng.uniform(2.01, 3.0)
        elif kind == "at_ceiling":
            ips[job] = iso[job] * 2.0  # a speedup of exactly the ceiling passes
        elif kind == "spike":
            ips[job] /= 10.0
            dropped = job
        elif kind == "shift":
            level = rng.uniform(0.3, 0.9, n)
            ips = level * iso * noise
        elif kind == "zero_job":
            ips[job] = 0.0
        elif kind == "config":
            config = configs[1 + rng.integers(2)]
        elif kind == "zero_iso":
            iso[job] = 0.0
        previous = ips.copy()
        yield Observation(
            time_s=0.1 * (step + 1),
            interval_s=0.1,
            ips=tuple(ips.tolist()),
            isolation_ips=tuple(iso.tolist()),
            config=config,
            completed_runs=(0,) * n,
        )


class TestFloatValidationGate:
    def test_same_verdicts_and_fields_as_the_array_gate(self, space):
        branches = set()
        for seed in range(6):
            controller = SatoriController(space, rng=0)
            reference = ArrayLoop()
            for observation in gate_observations(space, seed):
                accepted, branch = array_gate(reference, observation)
                branches.add(branch)
                assert controller._validate_observation(observation) is accepted
                loop = controller._loop
                assert loop.noise_seen == reference.noise_seen
                assert loop.spike_pending == reference.spike_pending
                assert loop.last_accepted_config == reference.last_accepted_config
                if reference.last_accepted_ips is None:
                    assert loop.last_accepted_ips is None
                    assert loop.last_good_speedups is None
                else:
                    assert loop.last_accepted_ips == tuple(reference.last_accepted_ips.tolist())
                    assert loop.last_good_speedups == tuple(
                        reference.last_good_speedups.tolist()
                    )
        assert branches == {
            "non_finite", "starved", "noise_seen", "stale", "ceiling",
            "spike_rejected", "spike_accepted", "accepted",
        }

    def test_snapshot_json_bytes_equal_the_array_gate(self, space, monkeypatch):
        floats = SatoriController(space, rng=4)
        arrays = ArrayGateController(space, rng=4)
        assert floats.decide(None) == arrays.decide(None)
        stream = gate_observations(space, seed=3, n_steps=120, zero_baselines=False)
        for step, observation in enumerate(stream):
            assert floats.decide(observation) == arrays.decide(observation)
            if step % 30 == 29:
                with monkeypatch.context() as patch:
                    for key in ("last_accepted_ips", "last_good_speedups"):
                        patch.setitem(controller_module._LOOP_CODECS, key, ARRAY_CODEC)
                    expected = json.dumps(arrays.snapshot().to_dict())
                assert json.dumps(floats.snapshot().to_dict()) == expected
        assert floats.rejected_samples == arrays.rejected_samples > 0

    def test_restored_fields_are_float_tuples(self, space):
        controller = SatoriController(space, rng=1)
        controller.decide(None)
        for observation in gate_observations(space, seed=2, n_steps=30, zero_baselines=False):
            controller.decide(observation)
        twin = SatoriController(space, rng=9)
        twin.restore(controller.snapshot())
        for key in ("last_accepted_ips", "last_good_speedups"):
            value = getattr(twin._loop, key)
            assert value == getattr(controller._loop, key)
            assert type(value) is tuple and all(type(v) is float for v in value)


# -- samples outside the scorers' domain -------------------------------------


#: Each case corrupts one job of an otherwise clean observation into a
#: value the goal scorers reject.
OUT_OF_DOMAIN = {
    "zero_baseline": ("isolation_ips", 0.0),
    "negative_baseline": ("isolation_ips", -2e9),
    "negative_ips": ("ips", -1e9),
}


def corrupted(observation, case):
    field, value = OUT_OF_DOMAIN[case]
    values = list(getattr(observation, field))
    values[1] = value
    return dataclasses.replace(observation, **{field: tuple(values)})


def steered(controller, simulator, n_steps=12):
    """Drive past the initial set; returns the last observation."""
    observation = drive(controller, simulator, n_steps)
    assert not controller.probing
    return observation


class TestOutOfDomainSamples:
    """The hardened controller rejects a sample its scorers cannot score
    (a non-positive baseline or a negative IPS) as it rejects a
    non-finite one: counted, not recorded, and the interval spent on
    the incumbent. The corruption persists for two intervals: the
    gate's spike check rejects only the first of them."""

    @pytest.mark.parametrize("case", sorted(OUT_OF_DOMAIN))
    def test_hardened_controller_rejects(self, space, make_simulator, case):
        controller = SatoriController(space, rng=0)
        observation = steered(controller, make_simulator())
        n_records = len(controller.records)
        weights = controller.weights.pair
        for _ in range(2):
            config = controller.decide(corrupted(observation, case))
        assert controller.rejected_samples == 2
        assert len(controller.records) == n_records
        values = controller.records.objective_values(weights)
        assert config == controller.records.samples[int(np.argmax(values))].config

    @pytest.mark.parametrize("case", sorted(OUT_OF_DOMAIN))
    def test_first_sample_rejected(self, space, make_simulator, case):
        """With no accepted sample yet, no spike check stands in."""
        controller = SatoriController(space, rng=0)
        config = controller.decide(None)
        controller.decide(corrupted(make_simulator().step(config), case))
        assert controller.rejected_samples == 1
        assert len(controller.records) == 0

    @pytest.mark.parametrize("case", sorted(OUT_OF_DOMAIN))
    def test_unhardened_controller_still_raises(self, space, make_simulator, case):
        controller = SatoriController(space, hardening=False, rng=0)
        observation = steered(controller, make_simulator())
        with pytest.raises(ExperimentError):
            controller.decide(corrupted(observation, case))

    @pytest.mark.parametrize("case", sorted(OUT_OF_DOMAIN))
    def test_bopf_rejects_through_its_inner_controller(self, space, make_simulator, case):
        from repro.policies.bopf import BoPFPolicy

        policy = BoPFPolicy(space, qos_jobs=(1,), rng=0)
        observation = drive(policy, make_simulator(), 12)
        for _ in range(2):
            policy.decide(corrupted(observation, case))
        assert policy.diagnostics()["rejected_samples"] == 2.0
