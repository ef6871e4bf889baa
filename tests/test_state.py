"""Tests for the policy snapshot/restore protocol and warm-start layers.

The protocol's load-bearing guarantee (DESIGN.md "Policy state and
warm-start"): restoring a snapshot and continuing must be
*bit-identical* to never tearing the controller down. Everything else —
the spec digest separation, the cache behaviour, the cluster membership
rule — exists so that guarantee survives the trip through the engine.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.cluster import ClusterSimulator, MigrationConfig
from repro.engine import ExecutionEngine, RunCache, RunSpec, execute_run
from repro.errors import ClusterError, ExperimentError, PolicyError
from repro.faults import FaultPlan
from repro.experiments.runner import RunConfig, RunResult, experiment_catalog
from repro.policies.random_search import RandomSearchPolicy
from repro.policies.registry import make_policy
from repro.resources.space import ConfigurationSpace
from repro.state import PolicyState
from repro.workloads.arrivals import ArrivalTrace, JobArrival, poisson_trace
from repro.workloads.mixes import suite_mixes
from repro.workloads.registry import default_registry

from repro.core.controller import SatoriController
from repro.system.simulation import CoLocationSimulator
from tests.platform_fingerprint import numeric_platform

FAST = RunConfig(duration_s=2.0, interval_s=0.1, baseline_reset_s=1.0)


@pytest.fixture(scope="module")
def catalog():
    return experiment_catalog(units=6)


@pytest.fixture(scope="module")
def mix(catalog):
    return suite_mixes("parsec", mix_size=3)[0]


@pytest.fixture
def space(catalog, mix):
    return ConfigurationSpace(catalog, len(mix))


def json_round(state: PolicyState) -> PolicyState:
    """Force a snapshot through an actual JSON encode/decode cycle."""
    return PolicyState.from_dict(json.loads(json.dumps(state.to_dict())))


def canonical(data) -> str:
    """The canonical JSON the spec digest hashes."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def drive(policy, simulator, n_steps, observation=None):
    """Run the control loop manually, recording every decision."""
    configs = []
    for _ in range(n_steps):
        config = policy.decide(observation)
        configs.append(config)
        observation = simulator.step(config)
    return configs, observation


# -- bit-identical resume ------------------------------------------------


class TestBitIdenticalResume:
    """ISSUE acceptance: snapshot at step k, restore, continue — every
    subsequent decision, diagnostic, and the final snapshot must equal
    an uninterrupted run's."""

    @pytest.mark.parametrize("split", [5, 25])
    def test_satori_continue_equals_restore(self, catalog, mix, space, split):
        total = split + 35

        reference = SatoriController(space, rng=42)
        sim_a = CoLocationSimulator(mix, catalog=catalog, seed=7)
        sim_b = CoLocationSimulator(mix, catalog=catalog, seed=7)

        configs_a, obs_a = drive(reference, sim_a, split)
        snapshot = json_round(reference.snapshot())

        # Deliberately different seed: every construction-time RNG draw
        # must come from the snapshot, not the constructor.
        restored = SatoriController(space, rng=999)
        restored.restore(snapshot)

        # Bring the fresh simulator to the snapshot point by replaying
        # the recorded decisions (the environment is not snapshotted).
        obs_b = None
        for config in configs_a:
            obs_b = sim_b.step(config)

        more_a, _ = drive(reference, sim_a, total - split, obs_a)
        more_b, _ = drive(restored, sim_b, total - split, obs_b)
        assert more_b == more_a
        assert restored.diagnostics() == reference.diagnostics()
        assert restored.snapshot() == reference.snapshot()

    def test_random_search_continue_equals_restore(self, space):
        reference = RandomSearchPolicy(space, rng=3)
        for _ in range(10):
            reference.decide(None)
        snapshot = json_round(reference.snapshot())

        restored = RandomSearchPolicy(space, rng=555)
        restored.restore(snapshot)

        continued = [reference.decide(None) for _ in range(20)]
        replayed = [restored.decide(None) for _ in range(20)]
        assert replayed == continued
        assert restored.snapshot() == reference.snapshot()

    def test_snapshot_is_json_stable(self, catalog, mix, space):
        controller = SatoriController(space, rng=0)
        drive(controller, CoLocationSimulator(mix, catalog=catalog, seed=1), 15)
        state = controller.snapshot()
        assert json_round(state) == state


# -- the payload contract ------------------------------------------------


class TestPayloadContract:
    """Payloads are plain JSON data, held as given, compared canonically."""

    def test_non_json_payloads_rejected(self):
        for value in (np.int64(3), np.bool_(True), np.zeros(2), object()):
            with pytest.raises(ExperimentError, match="JSON-compatible"):
                PolicyState(policy="SATORI", payload={"nested": [1, {"x": value}]})
            # from_dict (every serve resume) goes through the same check.
            with pytest.raises(ExperimentError, match="JSON-compatible"):
                PolicyState.from_dict({"policy": "SATORI", "payload": {"x": value}})

    def test_equality_and_hash_follow_canonical_json(self):
        a = PolicyState(policy="P", payload={"b": 1, "a": (1.5, None, "s")})
        b = PolicyState(policy="P", payload={"a": [1.5, None, "s"], "b": 1})
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != PolicyState(policy="P", payload={"a": [1.5, None, "s"], "b": 2})
        assert a != PolicyState(policy="Q", payload=b.payload)
        assert a != PolicyState(policy="P", payload=b.payload, version=0)

    def test_payload_is_held_as_given(self):
        payload = {"rng": {"state": 2**100}, "seen": [{"cores": [1, 2]}]}
        state = PolicyState(policy="Random", payload=payload)
        assert state.payload is payload
        assert state.payload_dict() is payload
        assert state.to_dict()["payload"] is payload
        assert PolicyState.from_dict(state.to_dict()) == state
        assert json_round(state) == state

    def test_non_mapping_payload_has_no_payload_dict(self):
        with pytest.raises(PolicyError, match="not a mapping"):
            PolicyState(policy="P", payload=[1, 2]).payload_dict()

    @pytest.mark.parametrize("name", ["SATORI", "Random", "BoPF"])
    def test_snapshot_is_a_value(self, catalog, mix, name):
        """Neither the controller that took the snapshot nor one
        restored from it may change it by stepping on."""
        kwargs = {"qos_jobs": (0,)} if name == "BoPF" else {}
        reference = make_policy(name, mix, catalog, rng=5, **kwargs)
        _, obs = drive(reference, CoLocationSimulator(mix, catalog=catalog, seed=2), 15)
        state = reference.snapshot()
        frozen = canonical(state.to_dict())

        drive(reference, CoLocationSimulator(mix, catalog=catalog, seed=2), 20, obs)
        assert canonical(state.to_dict()) == frozen

        restored = make_policy(name, mix, catalog, rng=9, initial_state=state, **kwargs)
        drive(restored, CoLocationSimulator(mix, catalog=catalog, seed=3), 20, obs)
        assert canonical(state.to_dict()) == frozen


# -- protocol semantics --------------------------------------------------


class TestProtocol:
    def test_restore_none_is_a_no_op(self, space):
        controller = SatoriController(space, rng=0)
        controller.restore(None)
        assert controller.decide(None) == space.equal_partition()

    def test_warm_session_start_does_not_redrain_initial_set(self, catalog, mix, space):
        reference = SatoriController(space, rng=0)
        drive(reference, CoLocationSimulator(mix, catalog=catalog, seed=1), 40)
        state = reference.snapshot()
        payload = state.payload_dict()
        assert payload["initial_cursor"] == len(payload["initial_set"])

        restored = SatoriController(space, rng=77)
        restored.restore(state)
        first = restored.decide(None)
        after = restored.snapshot().payload_dict()
        # The probe cursor stayed drained: a warm controller resumes
        # from learned ground instead of reopening the initial set.
        assert after["initial_cursor"] == len(after["initial_set"])
        if payload["idle"] and payload["idle_config"] is not None:
            assert first.to_dict() == payload["idle_config"]
            # ... and the idle latch survives: the idle-exit tolerance
            # decides whether the new epoch warrants re-exploration.
            assert after["idle"]
        else:
            values = reference.records.objective_values(reference.weights.pair)
            best = reference.records.samples[int(np.nanargmax(values))].config
            assert first == best

    def test_stateless_policy_snapshot_is_none(self, catalog, mix):
        policy = make_policy("EqualPartition", mix, catalog)
        assert policy.snapshot() is None
        policy.restore(None)  # no-op

    def test_stateless_policy_rejects_actual_state(self, catalog, mix):
        policy = make_policy("EqualPartition", mix, catalog)
        with pytest.raises(PolicyError, match="stateless"):
            policy.restore(PolicyState(policy="SATORI", payload={}))

    def test_kind_mismatch_rejected(self, space):
        controller = SatoriController(space, rng=0)
        with pytest.raises(PolicyError, match="SATORI"):
            controller.restore(PolicyState(policy="Random", payload={}))

    def test_mode_mismatch_rejected(self, catalog, mix, space):
        donor = SatoriController(space, rng=0, mode="throughput")
        drive(donor, CoLocationSimulator(mix, catalog=catalog, seed=1), 5)
        receiver = SatoriController(space, rng=0, mode="fairness")
        with pytest.raises(PolicyError, match="mode"):
            receiver.restore(donor.snapshot())

    @pytest.mark.parametrize("key", ["idle", "pending", "last_suggestion", "decision_count"])
    def test_missing_loop_key_rejected(self, catalog, mix, space, key):
        # ``repro serve`` resumes snapshots sent by clients: a truncated
        # payload must fail as a PolicyError naming what is missing.
        donor = SatoriController(space, rng=0)
        drive(donor, CoLocationSimulator(mix, catalog=catalog, seed=1), 5)
        payload = dict(donor.snapshot().payload_dict())
        del payload[key]
        receiver = SatoriController(space, rng=1)
        with pytest.raises(PolicyError, match=key):
            receiver.restore(PolicyState(policy="SATORI", payload=payload))

    def test_snapshot_without_baseline_tilt_restores(self, catalog, mix, space):
        # Snapshots taken before baseline tilts existed lack the key.
        donor = SatoriController(space, rng=0)
        drive(donor, CoLocationSimulator(mix, catalog=catalog, seed=1), 5)
        state = donor.snapshot()
        payload = dict(state.payload_dict())
        del payload["baseline_tilt"]
        receiver = SatoriController(space, rng=1)
        receiver.restore(PolicyState(policy="SATORI", payload=payload))
        assert receiver.snapshot() == state

    def test_future_version_rejected(self, space):
        controller = SatoriController(space, rng=0)
        state = PolicyState(policy="SATORI", payload={}, version=99)
        with pytest.raises(PolicyError, match="newer"):
            controller.restore(state)

    def test_make_policy_restores_initial_state(self, catalog, mix, space):
        donor = SatoriController(space, rng=42)
        drive(donor, CoLocationSimulator(mix, catalog=catalog, seed=7), 10)
        state = donor.snapshot()
        warm = make_policy("SATORI", mix, catalog, rng=0, initial_state=state)
        assert warm.snapshot() == state


# -- spec and cache separation -------------------------------------------


#: Transient and outage actuation faults, monitor faults and crashes,
#: dense enough that each fires within a 2 s run.
PINNED_FAULTS = FaultPlan(
    actuation_fail_rate=0.3,
    actuation_outage_rate=0.05,
    actuation_outage_duration_s=0.3,
    sample_drop_rate=0.05,
    sample_nan_rate=0.05,
    sample_stuck_rate=0.05,
    sample_outlier_rate=0.05,
    crash_rate=0.03,
    crash_restart_s=0.3,
)


def _spec(mix, catalog, **overrides):
    fields = dict(mix=mix, policy="SATORI", catalog=catalog, run_config=FAST, seed=3)
    fields.update(overrides)
    return RunSpec(**fields)


class TestSpecIdentity:
    @pytest.fixture(scope="class")
    def snapshot(self, catalog, mix):
        result = execute_run(_spec(mix, catalog))
        assert result.final_state is not None
        return result.final_state

    def test_warm_and_cold_digests_differ(self, catalog, mix, snapshot):
        cold = _spec(mix, catalog)
        warm = _spec(mix, catalog, initial_state=snapshot)
        assert warm.digest != cold.digest
        # ... but the simulated environment is the same, so the paired
        # noise stream (derived from the cold digest) matches — and for
        # a cold spec the cold digest IS the digest, preserving every
        # pre-warm-start noise stream.
        assert warm.environment_digest == cold.environment_digest
        assert warm.cold_digest == cold.digest
        assert cold.cold_digest == cold.digest

    def test_cold_spec_dict_omits_initial_state(self, catalog, mix, snapshot):
        # Backward compatibility: cold specs must keep their pre-warm-start
        # digests, so the key only appears when a snapshot is present.
        assert "initial_state" not in _spec(mix, catalog).to_dict()
        assert "initial_state" in _spec(mix, catalog, initial_state=snapshot).to_dict()

    def test_mapping_coerces_to_policy_state(self, catalog, mix, snapshot):
        via_dict = _spec(mix, catalog, initial_state=snapshot.to_dict())
        via_state = _spec(mix, catalog, initial_state=snapshot)
        assert via_dict == via_state
        assert via_dict.digest == via_state.digest

    def test_warm_spec_is_hashable_and_json_round_trips(self, catalog, mix, snapshot):
        warm = _spec(mix, catalog, initial_state=snapshot)
        hash(warm)
        data = json.loads(json.dumps(warm.to_dict()))
        assert data["initial_state"]["policy"] == "SATORI"

    def test_cache_never_serves_cold_for_warm(self, catalog, mix, snapshot, tmp_path):
        cache = RunCache(tmp_path)
        cold = _spec(mix, catalog)
        cache.put(cold, execute_run(cold))
        assert cache.get(cold) is not None
        assert cache.get(_spec(mix, catalog, initial_state=snapshot)) is None

    def test_warm_run_carries_state_forward(self, catalog, mix, snapshot):
        warm = execute_run(_spec(mix, catalog, initial_state=snapshot))
        assert warm.final_state is not None
        assert warm.final_state.policy == "SATORI"
        assert warm.final_state != snapshot  # it kept learning

    def test_pinned_digests_and_result_bytes(self, catalog, mix):
        """Spec digests, canonical result JSON (hence every noise
        stream and cache key) are pinned to the values computed before
        payloads became JSON-native."""

        def sha(data) -> str:
            return hashlib.sha256(canonical(data).encode()).hexdigest()

        cold = _spec(mix, catalog)
        cold_result = ExecutionEngine().run_one(cold)
        warm = _spec(mix, catalog, initial_state=cold_result.final_state)
        warm_result = ExecutionEngine().run_one(warm)
        assert cold.digest == (
            "690f4ffdcc7455ef4e2ed7d07bb61019764dcca063a9de14eff75e6a07df5389"
        ), numeric_platform()
        assert warm.digest == (
            "b575e032cb8e11fac41edecb0d9b0a205741614b2f86d287d00e439c86921287"
        ), numeric_platform()
        assert warm.cold_digest == cold.digest
        assert sha(cold_result.to_dict()) == (
            "d6538c8296fdc09b0ec34fc0a0914dda9e7d566c5c9976f6bd7676be1041f5c2"
        ), numeric_platform()
        assert sha(warm_result.to_dict()) == (
            "0417223a18015a7831e3f7b61a399f6bb8e847d48cf6ddf3f5d161a3ccdc74ab"
        ), numeric_platform()
        # The result codec reproduces those bytes exactly.
        rebuilt = RunResult.from_dict(json.loads(canonical(warm_result.to_dict())))
        assert canonical(rebuilt.to_dict()) == canonical(warm_result.to_dict())

    def test_pinned_bopf_state_bytes(self, catalog, mix):
        """A BoPF snapshot taken at full tilt, the warm spec built from
        it and that spec's canonical result JSON, pinned before BoPF
        stopped building a second envelope for its inner state."""

        def sha(data) -> str:
            return hashlib.sha256(canonical(data).encode()).hexdigest()

        kwargs = {"qos_jobs": (0,), "qos_min_speedup": 1.0}
        cold = _spec(mix, catalog, policy="BoPF", policy_kwargs=kwargs)
        state = ExecutionEngine().run_one(cold).final_state
        assert state.payload_dict()["level"] == 3
        warm = _spec(mix, catalog, policy="BoPF", policy_kwargs=kwargs, initial_state=state)
        warm_result = ExecutionEngine().run_one(warm)
        assert sha(state.to_dict()) == (
            "9583607cf0675530c03808e5d55a2d119323e02e8417e9380cba2caa9bf63dcd"
        ), numeric_platform()
        assert warm.digest == (
            "d207babf7cc4bc1f4d34a9ed5f7280b365f89649b6128979c51395b1a6b0e28b"
        ), numeric_platform()
        assert sha(warm_result.to_dict()) == (
            "c64497cdc3ffc75f70846ad67dae9e949cfaab02c9126173cad7bc0c09f626bb"
        ), numeric_platform()

    @pytest.mark.parametrize(
        "policy, digest",
        [
            ("EqualPartition", "985045a73729f06d46bfe9bb7b77d4071457652d41e4bfcf27152d1a53e61b39"),
            ("SATORI", "4ab90383c1cdc3c5857ef9273cd92a799a22565863edafaf2a144a60e3e72612"),
        ],
    )
    def test_pinned_faulted_result_bytes(self, catalog, mix, policy, digest):
        """Canonical result JSON of two faulted runs, pinned before the
        simulator skipped quiet intervals. The plan's schedule holds
        four transient actuation faults, a 0.3 s outage, every monitor
        fault kind and two crashes. EqualPartition asks for the same
        configuration every interval, so its run takes the
        unchanged-configuration shortcut between the faults."""
        spec = _spec(mix, catalog, policy=policy, fault_plan=PINNED_FAULTS)
        result = ExecutionEngine().run_one(spec)
        assert (
            hashlib.sha256(canonical(result.to_dict()).encode()).hexdigest() == digest
        ), numeric_platform()
        # The outage fails three installs in a row.
        ok = [record.extra["actuation_ok"] for record in result.telemetry.records]
        assert ok == [1.0] * 8 + [0.0] * 3 + [1.0] * 9

    def test_stateless_policy_yields_no_final_state(self, catalog, mix):
        result = execute_run(_spec(mix, catalog, policy="EqualPartition"))
        assert result.final_state is None


# -- cluster warm start --------------------------------------------------


def quiet_trace(n_epochs=3, n_jobs=4):
    """No arrivals, no departures: every epoch keeps the same jobs."""
    return poisson_trace(
        n_epochs=n_epochs,
        arrival_rate=0.0,
        mean_residency=10_000.0,
        suites=("ecp",),
        seed=5,
        initial_jobs=n_jobs,
    )


class TestClusterWarmStart:
    def run_cluster(self, **kwargs):
        defaults = dict(
            trace=quiet_trace(),
            n_nodes=2,
            placement="round_robin",
            policy="SATORI",
            catalog=experiment_catalog(4),
            epoch_config=RunConfig(duration_s=1.0, baseline_reset_s=0.5),
            seed=1,
        )
        defaults.update(kwargs)
        return ClusterSimulator(**defaults).run()

    def test_stable_membership_warm_starts_after_first_epoch(self):
        result = self.run_cluster(warm_start=True)
        for record in result.records:
            if record.synthesized:
                continue
            assert record.warm_started == (record.epoch > 0)

    def test_cold_runs_never_warm_start(self):
        result = self.run_cluster(warm_start=False)
        assert not any(r.warm_started for r in result.records)

    def test_membership_change_forces_cold_start(self):
        registry = default_registry()
        # Node 0 (round robin) gets jobs 0 and 2; job 2 departs at epoch
        # 1, so node 0 must restart cold while node 1 (jobs 1, 3) warms.
        names = ["amg", "hypre", "minife", "swfft"]
        jobs = tuple(
            JobArrival(i, registry.get(name), 0,
                       departure_epoch=1 if i == 2 else None)
            for i, name in enumerate(names)
        )
        trace = ArrivalTrace(n_epochs=2, jobs=jobs)
        result = self.run_cluster(trace=trace, warm_start=True)
        by_coord = {(r.epoch, r.node_id): r for r in result.records}
        assert not by_coord[(1, 0)].warm_started
        simulated = not by_coord[(1, 1)].synthesized
        assert by_coord[(1, 1)].warm_started == simulated

    def test_warm_start_changes_later_epochs_only(self):
        cold = self.run_cluster(warm_start=False)
        warm = self.run_cluster(warm_start=True)
        cold_first = [r for r in cold.records if r.epoch == 0]
        warm_first = [r for r in warm.records if r.epoch == 0]
        assert cold_first == warm_first  # epoch 0 is cold either way


class TestMigrationPenalty:
    def migrating_cluster(self, penalty):
        registry = default_registry()
        jobs = (
            JobArrival(0, registry.get("canneal"), 0),
            JobArrival(1, registry.get("vips"), 0),
            JobArrival(2, registry.get("streamcluster"), 0),
        )
        trace = ArrivalTrace(n_epochs=3, jobs=jobs)
        return ClusterSimulator(
            trace,
            n_nodes=2,
            placement="round_robin",
            policy="EqualPartition",
            catalog=experiment_catalog(4),
            epoch_config=RunConfig(duration_s=1.0, baseline_reset_s=0.5),
            seed=1,
            migration=MigrationConfig(
                fairness_threshold=1.0, patience=1,
                warmup_penalty_intervals=penalty,
            ),
        ).run()

    def test_negative_penalty_rejected(self):
        with pytest.raises(ClusterError):
            MigrationConfig(warmup_penalty_intervals=-1)

    def test_default_penalty_is_free_migration(self):
        assert MigrationConfig().warmup_penalty_intervals == 0

    def test_penalty_costs_migrated_jobs(self):
        free = self.migrating_cluster(penalty=0)
        taxed = self.migrating_cluster(penalty=5)
        assert free.migrations == taxed.migrations >= 1
        assert taxed.mean_speedup < free.mean_speedup
