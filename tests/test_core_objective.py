"""Tests for the per-goal records and objective reconstruction (Sec. III-B)."""

import numpy as np
import pytest

from repro.core.objective import GoalRecords
from repro.errors import ModelError
from repro.resources.space import ConfigurationSpace
from repro.resources.types import default_catalog
from repro.rng import make_rng


@pytest.fixture
def space():
    return ConfigurationSpace(default_catalog(6, 6, 6), 3)


@pytest.fixture
def records(space):
    recs = GoalRecords(("throughput", "fairness"))
    rng = make_rng(0)
    for i in range(6):
        config = space.sample(rng)
        recs.add(config, space.encode(config), (0.1 * i, 1.0 - 0.1 * i))
    return recs


class TestRecording:
    def test_length(self, records):
        assert len(records) == 6

    def test_goal_names(self, records):
        assert records.goal_names == ("throughput", "fairness")

    def test_inputs_shape(self, records, space):
        assert records.inputs().shape == (6, space.dimensions)

    def test_goal_values(self, records):
        assert records.goal_values("throughput")[2] == pytest.approx(0.2)
        assert records.goal_values("fairness")[2] == pytest.approx(0.8)

    def test_unknown_goal(self, records):
        with pytest.raises(ModelError):
            records.goal_values("energy")

    def test_wrong_score_count_rejected(self, records, space):
        config = space.equal_partition()
        with pytest.raises(ModelError):
            records.add(config, space.encode(config), (0.5,))

    def test_latest(self, records):
        assert records.latest().scores == (0.5, 0.5)

    def test_empty_records_raise(self):
        empty = GoalRecords()
        with pytest.raises(ModelError):
            empty.inputs()
        with pytest.raises(ModelError):
            empty.latest()

    def test_max_samples_evicts_oldest(self, space):
        recs = GoalRecords(max_samples=4)
        rng = make_rng(1)
        for i in range(6):
            config = space.sample(rng)
            recs.add(config, space.encode(config), (float(i), 0.0))
        assert len(recs) == 4
        assert recs.goal_values("throughput")[0] == pytest.approx(2.0)

    def test_reevaluation_appends(self, space):
        recs = GoalRecords()
        config = space.equal_partition()
        recs.add(config, space.encode(config), (0.5, 0.5))
        recs.add(config, space.encode(config), (0.6, 0.4))
        assert len(recs) == 2


class TestObjectiveReconstruction:
    def test_weighted_combination(self, records):
        values = records.objective_values((1.0, 0.0))
        assert values[3] == pytest.approx(0.3)
        values = records.objective_values((0.0, 1.0))
        assert values[3] == pytest.approx(0.7)

    def test_reconstruction_without_resampling(self, records):
        """Changing weights re-scores existing samples — no re-runs."""
        before = len(records)
        a = records.objective_values((0.75, 0.25))
        b = records.objective_values((0.25, 0.75))
        assert len(records) == before
        assert not np.allclose(a, b)

    def test_best_depends_on_weights(self, records):
        best_t, _ = records.best((1.0, 0.0))
        best_f, _ = records.best((0.0, 1.0))
        assert best_t != best_f  # throughput grows, fairness shrinks across samples

    def test_best_value(self, records):
        _, value = records.best((1.0, 0.0))
        assert value == pytest.approx(0.5)

    def test_wrong_weight_count(self, records):
        with pytest.raises(ModelError):
            records.objective_values((0.5,))

    def test_three_goal_extensibility(self, space):
        """The records are goal-count agnostic (paper's extensibility claim)."""
        recs = GoalRecords(("throughput", "fairness", "energy"))
        config = space.equal_partition()
        recs.add(config, space.encode(config), (0.5, 0.6, 0.7))
        values = recs.objective_values((0.2, 0.3, 0.5))
        assert values[0] == pytest.approx(0.2 * 0.5 + 0.3 * 0.6 + 0.5 * 0.7)

    def test_goal_trace(self, records):
        trace = records.goal_trace()
        assert set(trace) == {"throughput", "fairness"}
        assert len(trace["throughput"]) == 6


class TestRescore:
    """In-place score reconstruction from raw telemetry — the mechanism
    baseline tilts (BoPF's guarantee phase) ride on."""

    def add_with_telemetry(self, space, recs, scores, ips=(1e9, 2e9, 3e9)):
        config = space.equal_partition()
        recs.add(config, space.encode(config), scores,
                 ips=ips, isolation_ips=(2e9, 2e9, 4e9))

    def test_rescore_counts_only_changed_samples(self, space):
        recs = GoalRecords()
        self.add_with_telemetry(space, recs, (0.5, 0.5))
        self.add_with_telemetry(space, recs, (0.3, 0.3))
        # Rescore everything to (0.5, 0.5): the first sample already
        # has those scores, so only the second counts as changed.
        assert recs.rescore(lambda s: (0.5, 0.5)) == 1
        assert all(s.scores == (0.5, 0.5) for s in recs.samples)

    def test_none_leaves_sample_untouched(self, space):
        recs = GoalRecords()
        self.add_with_telemetry(space, recs, (0.4, 0.6))
        scorer = lambda s: None if s.ips is not None else (0.0, 0.0)
        assert recs.rescore(scorer) == 0
        assert recs.samples[0].scores == (0.4, 0.6)

    def test_raw_telemetry_reaches_the_scorer(self, space):
        recs = GoalRecords()
        self.add_with_telemetry(space, recs, (0.4, 0.6))
        seen = []
        recs.rescore(lambda s: seen.append((s.ips, s.isolation_ips)) or None)
        assert seen == [((1e9, 2e9, 3e9), (2e9, 2e9, 4e9))]

    def test_wrong_arity_rejected(self, space):
        recs = GoalRecords()
        self.add_with_telemetry(space, recs, (0.4, 0.6))
        with pytest.raises(ModelError, match="goal scores"):
            recs.rescore(lambda s: (0.5,))


class TestSnapshotTelemetry:
    """Raw ips/isolation_ips survive the snapshot round trip — and old
    snapshots that predate those keys still restore cleanly."""

    def test_round_trip_keeps_raw_telemetry(self, space):
        recs = GoalRecords()
        config = space.equal_partition()
        recs.add(config, space.encode(config), (0.4, 0.6),
                 ips=(1e9,) * 3, isolation_ips=(2e9,) * 3)
        restored = GoalRecords().restore(recs.snapshot())
        assert restored.samples[0].ips == (1e9,) * 3
        assert restored.samples[0].isolation_ips == (2e9,) * 3

    def test_samples_without_telemetry_snapshot_without_keys(self, space):
        # Keeping the keys absent (not null) preserves the historical
        # snapshot schema for records that never saw raw telemetry.
        recs = GoalRecords()
        config = space.equal_partition()
        recs.add(config, space.encode(config), (0.4, 0.6))
        sample = recs.snapshot()["samples"][0]
        assert "ips" not in sample and "isolation_ips" not in sample

    def test_old_snapshot_without_keys_restores(self, space):
        recs = GoalRecords()
        config = space.equal_partition()
        recs.add(config, space.encode(config), (0.4, 0.6))
        state = recs.snapshot()
        restored = GoalRecords().restore(state)
        assert restored.samples[0].ips is None
        assert restored.samples[0].isolation_ips is None
        # And such samples are simply skipped by telemetry rescorers.
        assert restored.rescore(
            lambda s: None if s.ips is None else (0.0, 0.0)
        ) == 0
