"""Tests for the SATORI controller (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.controller import SatoriController
from repro.core.initializers import good_initial_set
from repro.errors import PolicyError
from repro.experiments.runner import RunConfig, run_policy
from repro.resources.space import ConfigurationSpace
from repro.rng import make_rng
from repro.system.simulation import CoLocationSimulator


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
        controller = SatoriController(space, rng=0, n_initial_random=1)
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
        controller = SatoriController(
            space, rng=0, idle_detection=True, idle_patience=5, idle_tolerance=0.5
        )
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

    def test_beats_random_on_average(self, space, parsec_mix3, catalog6):
        from repro.policies.random_search import RandomSearchPolicy

        rc = RunConfig(duration_s=10.0)
        satori = run_policy(SatoriController(space, rng=2), parsec_mix3, catalog6, rc, seed=2)
        random = run_policy(RandomSearchPolicy(space, rng=2), parsec_mix3, catalog6, rc, seed=2)
        satori_score = satori.throughput + satori.fairness
        random_score = random.throughput + random.fairness
        assert satori_score > random_score
