"""Tests for the BoPF policy and the controller tilt machinery it rides.

BoPF's contract has two halves. With no qos jobs (or at tilt level 0)
it *is* plain SATORI, decision for decision. With qos jobs violating
their floor it escalates a bounded baseline tilt — patience before the
first level, a fixed cadence between levels, hysteresis on the way
down, and a futility cooldown when full tilt buys nothing.
"""

from __future__ import annotations

import json

import pytest

from repro.core.controller import SatoriController
from repro.errors import PolicyError
from repro.policies.bopf import BoPFPolicy
from repro.policies.registry import make_policy, policy_is_qos_aware
from repro.resources.space import ConfigurationSpace
from repro.state import PolicyState
from repro.system.simulation import CoLocationSimulator, Observation


@pytest.fixture
def space(catalog6):
    return ConfigurationSpace(catalog6, 3)


def feed(policy, speedups, n_steps, observation=None, iso=1e9):
    """Drive ``decide`` with synthetic observations at fixed speedups.

    The configuration echoed back is whatever the policy just asked
    for, so the loop is a valid Algorithm-1 conversation regardless of
    what the inner optimizer proposes. Returns the last observation so
    successive calls continue one session instead of restarting it
    (``decide(None)`` is a session restart and resets the EMA).
    """
    t = 0.0 if observation is None else observation.time_s
    for _ in range(n_steps):
        config = policy.decide(observation)
        t += 0.1
        observation = Observation(
            time_s=t,
            interval_s=0.1,
            ips=tuple(s * iso for s in speedups),
            isolation_ips=(iso,) * len(speedups),
            config=config,
            completed_runs=(0,) * len(speedups),
        )
    return observation


def drive(policy, simulator, n_steps, observation=None):
    configs = []
    for _ in range(n_steps):
        config = policy.decide(observation)
        configs.append(config)
        observation = simulator.step(config)
    return configs, observation


def tilt_level(policy):
    return policy.diagnostics()["bopf_tilt_level"]


class TestConstruction:
    def test_registry_builds_bopf_and_flags_it_qos_aware(self, catalog6, parsec_mix3):
        policy = make_policy(
            "BoPF", parsec_mix3, catalog6, rng=0,
            qos_jobs=(0,), qos_min_speedup=0.6,
        )
        assert isinstance(policy, BoPFPolicy)
        assert policy_is_qos_aware("BoPF")
        assert policy_is_qos_aware("QoSPARTIES")
        assert not policy_is_qos_aware("SATORI")

    def test_validation(self, space):
        with pytest.raises(PolicyError, match="min_speedup"):
            BoPFPolicy(space, qos_jobs=(0,), min_speedup=1.5)
        with pytest.raises(PolicyError, match="out of range"):
            BoPFPolicy(space, qos_jobs=(3,))


class TestSatoriEquivalence:
    def test_no_qos_jobs_matches_plain_satori(self, space, catalog6, parsec_mix3):
        """The fairness-phase guarantee: an empty qos set means the
        wrapper adds nothing — same rng, same decisions, bit for bit."""
        bopf = BoPFPolicy(space, qos_jobs=(), rng=0)
        satori = SatoriController(space, rng=0)
        sim_a = CoLocationSimulator(parsec_mix3, catalog=catalog6, seed=5)
        sim_b = CoLocationSimulator(parsec_mix3, catalog=catalog6, seed=5)
        ours, _ = drive(bopf, sim_a, 30)
        theirs, _ = drive(satori, sim_b, 30)
        assert ours == theirs
        assert tilt_level(bopf) == 0


class TestGuaranteePhase:
    def make(self, space, **kwargs):
        defaults = dict(qos_jobs=(0,), min_speedup=0.6, rng=0)
        defaults.update(kwargs)
        return BoPFPolicy(space, **defaults)

    def test_no_escalation_while_probing(self, space):
        policy = self.make(space)
        probe_steps = len(policy._inner.initial_configurations)
        feed(policy, (0.1, 0.9, 0.9), probe_steps)
        assert tilt_level(policy) == 0

    def test_violation_escalates_to_full_tilt_then_backs_off(self, space):
        # A qos job pinned far below its floor: the tilt must climb to
        # the budget, and — when full tilt provably buys nothing (the
        # speedup never moves) — release into a cooldown rather than
        # chase an infeasible guarantee forever.
        policy = self.make(space)
        observation = None
        seen_full = seen_backoff = False
        for _ in range(60):
            observation = feed(policy, (0.2, 0.9, 0.9), 1, observation)
            level = tilt_level(policy)
            seen_full = seen_full or level == 3
            if seen_full and level == 0:
                seen_backoff = policy.diagnostics()["bopf_cooldown"] > 0
                break
        assert seen_full, "tilt never reached the full boost budget"
        assert seen_backoff, "full tilt with zero progress never released"
        assert policy.diagnostics()["bopf_boosts_total"] >= 3

    def test_recovery_decays_tilt_and_clears_cooldown(self, space):
        policy = self.make(space)
        # Violate until at least one level is engaged...
        observation = None
        for _ in range(60):
            observation = feed(policy, (0.2, 0.9, 0.9), 1, observation)
            if tilt_level(policy) >= 1:
                break
        assert tilt_level(policy) >= 1
        # ...then clear the floor with hysteresis headroom
        # (0.9 > 0.6 * 1.15): the tilt decays back to plain SATORI.
        feed(policy, (0.9, 0.9, 0.9), 30, observation)
        assert tilt_level(policy) == 0
        assert policy.diagnostics()["bopf_cooldown"] == 0

    def test_meeting_the_floor_never_tilts(self, space):
        policy = self.make(space)
        feed(policy, (0.8, 0.9, 0.9), 40)
        assert tilt_level(policy) == 0
        assert policy.diagnostics()["bopf_boosts_total"] == 0


class TestSnapshotRestore:
    def test_mid_tilt_resume_is_bit_identical(self, space):
        """Snapshot while the guarantee phase is engaged; the restored
        policy must continue with the same tilt, cooldown bookkeeping,
        and decisions as the uninterrupted one."""
        reference = BoPFPolicy(
            space, qos_jobs=(0,), min_speedup=0.6, rng=3
        )
        observation = None
        for _ in range(60):
            observation = feed(reference, (0.2, 0.9, 0.9), 1, observation)
            if tilt_level(reference) >= 1:
                break
        assert tilt_level(reference) >= 1

        state = PolicyState.from_dict(
            json.loads(json.dumps(reference.snapshot().to_dict()))
        )
        restored = BoPFPolicy(
            space, qos_jobs=(0,), min_speedup=0.6, rng=999
        )
        restored.restore(state)
        assert tilt_level(restored) == tilt_level(reference)

        feed(reference, (0.2, 0.9, 0.9), 10, observation)
        feed(restored, (0.2, 0.9, 0.9), 10, observation)
        assert restored.diagnostics() == reference.diagnostics()
        assert restored.snapshot() == reference.snapshot()

    def test_cooldown_survives_the_round_trip(self, space):
        policy = BoPFPolicy(space, qos_jobs=(0,), min_speedup=0.6, rng=0)
        observation = None
        for _ in range(60):
            observation = feed(policy, (0.2, 0.9, 0.9), 1, observation)
            if policy.diagnostics()["bopf_cooldown"] > 0:
                break
        assert policy.diagnostics()["bopf_cooldown"] > 0
        clone = BoPFPolicy(space, qos_jobs=(0,), min_speedup=0.6, rng=1)
        clone.restore(PolicyState.from_dict(
            json.loads(json.dumps(policy.snapshot().to_dict()))
        ))
        assert clone.diagnostics()["bopf_cooldown"] == (
            policy.diagnostics()["bopf_cooldown"]
        )

    def test_kind_mismatch_rejected(self, space):
        policy = BoPFPolicy(space, qos_jobs=(0,), rng=0)
        with pytest.raises(PolicyError):
            policy.restore(PolicyState(policy="SATORI", payload={}))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"policy": "Random"},
             "cannot restore 'Random' state into SatoriController (expects 'SATORI')"),
            ({"version": 2},
             "PolicyState version 2 is newer than this code understands (1)"),
            ({"policy": "Random", "version": 2},
             "PolicyState version 2 is newer than this code understands (1)"),
            ({"payload": [1, 2]}, "SATORI state payload is not a mapping: list"),
        ],
    )
    def test_bad_inner_state_rejected(self, space, change, message):
        # The messages an inner PolicyState.from_dict and
        # SatoriController.restore raised before BoPF checked the
        # nested state itself.
        donor = BoPFPolicy(space, qos_jobs=(0,), rng=0)
        feed(donor, (0.2, 0.9, 0.9), 5)
        data = json.loads(json.dumps(donor.snapshot().to_dict()))
        data["payload"]["inner"].update(change)
        policy = BoPFPolicy(space, qos_jobs=(0,), rng=1)
        with pytest.raises(PolicyError) as raised:
            policy.restore(PolicyState.from_dict(data))
        assert str(raised.value) == message

    def test_one_envelope_per_snapshot_and_none_per_restore(self, space, monkeypatch):
        reference = BoPFPolicy(space, qos_jobs=(0,), min_speedup=0.6, rng=3)
        observation = feed(reference, (0.2, 0.9, 0.9), 20)
        built = []
        post_init = PolicyState.__post_init__

        def counting_post_init(state):
            built.append(state.policy)
            post_init(state)

        monkeypatch.setattr(PolicyState, "__post_init__", counting_post_init)
        state = reference.snapshot()
        assert built == ["BoPF"]
        assert state.payload_dict()["inner"] == reference._inner.snapshot().to_dict()
        built.clear()
        restored = BoPFPolicy(space, qos_jobs=(0,), min_speedup=0.6, rng=9)
        restored.restore(state)
        assert built == []
        monkeypatch.undo()
        feed(reference, (0.2, 0.9, 0.9), 10, observation)
        feed(restored, (0.2, 0.9, 0.9), 10, observation)
        assert restored.snapshot() == reference.snapshot()


class TestBaselineTilt:
    """``SatoriController.set_baseline_tilt`` — the scoring context BoPF
    escalates; tested directly at the controller seam."""

    def test_validates_shape_and_sign(self, space):
        controller = SatoriController(space, rng=0)
        with pytest.raises(PolicyError, match="entries"):
            controller.set_baseline_tilt((1.2, 1.0))
        with pytest.raises(PolicyError, match="positive"):
            controller.set_baseline_tilt((1.2, -1.0, 1.0))

    def test_all_ones_is_a_clear(self, space):
        controller = SatoriController(space, rng=0)
        assert controller.set_baseline_tilt((1.0, 1.0, 1.0)) == 0
        assert controller.set_baseline_tilt(None) == 0

    def test_tilt_rescoring_changes_the_record_book(
        self, space, catalog6, parsec_mix3
    ):
        controller = SatoriController(space, rng=0)
        sim = CoLocationSimulator(parsec_mix3, catalog=catalog6, seed=7)
        drive(controller, sim, 20)
        before = [s.scores for s in controller.records.samples]
        changed = controller.set_baseline_tilt((1.4, 1.0, 1.0))
        after = [s.scores for s in controller.records.samples]
        assert changed > 0
        assert before != after
        # Clearing the tilt rescoring back restores the original book.
        controller.set_baseline_tilt(None)
        assert [s.scores for s in controller.records.samples] == before

    def test_unchanged_tilt_is_a_no_op(self, space, catalog6, parsec_mix3):
        controller = SatoriController(space, rng=0)
        drive(controller, CoLocationSimulator(
            parsec_mix3, catalog=catalog6, seed=7), 15)
        assert controller.set_baseline_tilt((1.4, 1.0, 1.0)) > 0
        assert controller.set_baseline_tilt((1.4, 1.0, 1.0)) == 0

    def test_tilt_round_trips_through_snapshot(self, space):
        controller = SatoriController(space, rng=0)
        controller.set_baseline_tilt((1.4, 1.0, 1.0))
        restored = SatoriController(space, rng=1)
        restored.restore(PolicyState.from_dict(
            json.loads(json.dumps(controller.snapshot().to_dict()))
        ))
        assert restored._loop.baseline_tilt == (1.4, 1.0, 1.0)
