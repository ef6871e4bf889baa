"""Cross-module integration tests: full stacks on small scenarios."""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

from repro import (
    CoLocationSimulator,
    GoalSet,
    PartitioningPolicy,
    RunConfig,
    SatoriController,
    balanced_oracle,
    compare_on_mix,
    full_space,
    run_policy,
)
from repro.hardware.msr import IA32_L3_QOS_MASK_BASE
from repro.policies.parties import PartiesPolicy
from repro.workloads.mixes import mix_from_names
from repro.workloads.synthetic import random_workloads
from repro.workloads.mixes import JobMix


class Unmanaged(PartitioningPolicy):
    """No partitioning: every resource shared, so contention applies
    (the paper's unmanaged baseline)."""

    name = "Unmanaged"

    def decide(self, observation):
        return None


class TestFullStack:
    def test_satori_end_to_end_improves_over_unmanaged(self, catalog6, parsec_mix3):
        rc = RunConfig(duration_s=10.0)
        satori = run_policy(
            SatoriController(full_space(catalog6, 3), rng=0), parsec_mix3, catalog6, rc, seed=0
        )
        unmanaged = run_policy(Unmanaged(full_space(catalog6, 3)), parsec_mix3, catalog6, rc, seed=0)
        assert satori.throughput + satori.fairness > unmanaged.throughput + unmanaged.fairness

    def test_oracle_bounds_all_policies_on_objective(self, catalog6, parsec_mix3):
        """No online policy beats the Balanced Oracle's weighted objective."""
        rc = RunConfig(duration_s=8.0)
        oracle = run_policy(balanced_oracle(parsec_mix3, catalog6), parsec_mix3, catalog6, rc, seed=3)
        oracle_objective = 0.5 * oracle.throughput + 0.5 * oracle.fairness
        for policy in (
            SatoriController(full_space(catalog6, 3), rng=3),
            PartiesPolicy(full_space(catalog6, 3)),
        ):
            result = run_policy(policy, parsec_mix3, catalog6, rc, seed=3)
            objective = 0.5 * result.throughput + 0.5 * result.fairness
            assert objective <= oracle_objective * 1.08  # noise + transient slack

    def test_msrs_reflect_final_configuration(self, catalog6, parsec_mix3):
        sim = CoLocationSimulator(parsec_mix3, catalog6, seed=0)
        controller = SatoriController(full_space(catalog6, 3), rng=0)
        observation = None
        for _ in range(20):
            config = controller.decide(observation)
            observation = sim.step(config)
        # The CAT MSRs must encode exactly the last installed way split.
        ways = observation.config.units("llc_ways")
        offset = 0
        for cos, count in enumerate(ways):
            expected = ((1 << count) - 1) << offset
            assert sim.msr.read(IA32_L3_QOS_MASK_BASE + cos) == expected
            offset += count

    def test_synthetic_workloads_full_pipeline(self, catalog6):
        """The whole stack also runs on randomly generated workloads."""
        mix = JobMix(tuple(random_workloads(3, rng=21)))
        comparison = compare_on_mix(
            mix,
            catalog6,
            RunConfig(duration_s=4.0),
            seed=1,
            include=("Random", "SATORI"),
        )
        for score in comparison.scores.values():
            assert 0 < score.throughput_vs_oracle < 200
            assert 0 < score.fairness_vs_oracle < 200

    def test_cross_suite_mix(self, catalog6):
        """Mixes can combine workloads from different suites."""
        mix = mix_from_names(["canneal", "amg", "web_search"])
        result = run_policy(
            SatoriController(full_space(catalog6, 3), rng=0),
            mix,
            catalog6,
            RunConfig(duration_s=4.0),
            seed=0,
        )
        assert 0 < result.throughput <= 1

    def test_alternative_metrics_full_run(self, catalog6, parsec_mix3):
        goals = GoalSet("geometric_mean", "one_minus_cov")
        result = run_policy(
            SatoriController(full_space(catalog6, 3), goals, rng=0),
            parsec_mix3,
            catalog6,
            RunConfig(duration_s=4.0),
            goals=goals,
            seed=0,
        )
        assert 0 < result.throughput <= 1
        assert 0 <= result.fairness <= 1

    def test_long_run_stability(self, catalog4):
        """A longer run neither crashes nor degenerates (weights bounded,
        scores in range, time advances exactly)."""
        mix = mix_from_names(["amg", "hypre"])
        controller = SatoriController(full_space(catalog4, 2), rng=0)
        result = run_policy(controller, mix, catalog4, RunConfig(duration_s=30.0), seed=0)
        assert len(result.telemetry) == 300
        assert result.telemetry[-1].time_s == pytest.approx(30.0)
        weights = result.telemetry.series("weight_throughput")
        valid = weights[~np.isnan(weights)]
        assert np.all(valid >= 0.25 - 1e-9) and np.all(valid <= 0.75 + 1e-9)

    def test_determinism_of_full_comparison(self, catalog4):
        mix = mix_from_names(["amg", "hypre"])

        def run():
            return compare_on_mix(
                mix, catalog4, RunConfig(duration_s=3.0), seed=7, include=("SATORI",)
            ).score("SATORI")

        a, b = run(), run()
        assert a.throughput == b.throughput
        assert a.fairness == b.fairness


def packages():
    """``repro`` and every subpackage of it."""
    import repro

    return ["repro"] + sorted(
        f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
    )


class TestPublicApi:
    def test_version(self):
        import repro

        assert repro.__version__

    @pytest.mark.parametrize("package", packages())
    def test_all_exports_resolve(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name) is not None

    @pytest.mark.parametrize("package", packages())
    def test_no_export_listed_twice(self, package):
        exports = importlib.import_module(package).__all__
        assert len(set(exports)) == len(exports)

    @pytest.mark.parametrize("package", packages())
    def test_every_public_import_is_exported(self, package):
        """A name the package initializer imports and does not list in
        ``__all__`` is a stale re-export (or a missing entry)."""
        module = importlib.import_module(package)
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        public = {name for name in imported if not name.startswith("_")}
        assert sorted(public - set(module.__all__)) == []
