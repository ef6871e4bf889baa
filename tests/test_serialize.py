"""Round-trip property tests for the shared serialization helpers.

Every value type that rides through the engine's worker pipe or the
on-disk run cache must survive ``to_dict`` → ``json`` → ``from_dict``
losslessly; these tests pin that with hypothesis-generated instances
rather than a handful of hand-picked examples.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.budget import ResourceBudget
from repro.errors import ExperimentError
from repro.experiments.runner import RunConfig, RunResult, run_policy
from repro.faults.plan import FaultPlan
from repro.policies.registry import make_policy
from repro.resources.allocation import Configuration
from repro.serialize import (
    FieldCodec,
    dataclass_from_dict,
    dataclass_to_dict,
    mapping_to_dict,
    object_codec,
    optional,
)
from repro.state import PolicyState

# -- strategies ------------------------------------------------------------

run_configs = st.builds(
    RunConfig,
    duration_s=st.floats(min_value=1.0, max_value=60.0, allow_nan=False),
    interval_s=st.sampled_from([0.05, 0.1, 0.2]),
    baseline_reset_s=st.floats(min_value=0.5, max_value=30.0, allow_nan=False),
    noise_sigma=st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
    phase_offset_s=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    warmup_fraction=st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
    actuation_retries=st.integers(min_value=0, max_value=5),
)

rates = st.floats(min_value=0.0, max_value=0.99, allow_nan=False)
durations = st.floats(min_value=0.05, max_value=10.0, allow_nan=False)

fault_plans = st.builds(
    FaultPlan,
    start_s=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    end_s=st.one_of(st.none(), st.floats(min_value=6.0, max_value=60.0, allow_nan=False)),
    actuation_fail_rate=rates,
    actuation_fail_attempts=st.integers(min_value=1, max_value=4),
    actuation_outage_rate=rates,
    actuation_outage_duration_s=durations,
    sample_drop_rate=rates,
    sample_nan_rate=rates,
    sample_stuck_rate=rates,
    sample_stuck_duration_s=durations,
    sample_outlier_rate=rates,
    sample_outlier_scale=st.floats(min_value=1.5, max_value=32.0, allow_nan=False),
    crash_rate=rates,
    crash_restart_s=durations,
    hang_rate=rates,
    hang_duration_s=durations,
)


@st.composite
def configurations(draw):
    n_jobs = draw(st.integers(min_value=1, max_value=5))
    n_resources = draw(st.integers(min_value=1, max_value=3))
    names = [f"resource{i}" for i in range(n_resources)]
    units = st.lists(
        st.integers(min_value=0, max_value=8), min_size=n_jobs, max_size=n_jobs
    )
    return Configuration({name: draw(units) for name in names})


safe_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
names = st.text(alphabet="abcdefghij", min_size=1, max_size=8)

#: Arbitrary JSON-native data (string keys only — JSON stringifies
#: mapping keys, so non-string keys would not round-trip by design).
json_payloads = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-1000, 1000), safe_floats, names),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(names, children, max_size=3),
    ),
    max_leaves=12,
)

policy_states = st.builds(
    PolicyState,
    policy=names,
    payload=st.dictionaries(names, json_payloads, max_size=4),
)

resource_budgets = st.dictionaries(
    names, st.integers(min_value=1, max_value=64), min_size=1, max_size=4
).map(ResourceBudget)

def json_round(data):
    """Force the dict through an actual JSON encode/decode cycle."""
    return json.loads(json.dumps(data))


# -- round trips -----------------------------------------------------------


class TestRoundTrips:
    @given(run_configs)
    @settings(max_examples=50, deadline=None)
    def test_run_config(self, config):
        assert RunConfig.from_dict(json_round(config.to_dict())) == config

    @given(fault_plans)
    @settings(max_examples=50, deadline=None)
    def test_fault_plan(self, plan):
        assert FaultPlan.from_dict(json_round(plan.to_dict())) == plan

    @given(configurations())
    @settings(max_examples=50, deadline=None)
    def test_configuration(self, config):
        assert Configuration.from_dict(json_round(config.to_dict())) == config

    @given(resource_budgets)
    @settings(max_examples=50, deadline=None)
    def test_resource_budget(self, budget):
        assert ResourceBudget.from_dict(json_round(budget.to_dict())) == budget

    def test_run_result(self, catalog6, parsec_mix3, goals):
        policy = make_policy("EqualPartition", parsec_mix3, catalog6, goals=goals)
        result = run_policy(
            policy,
            parsec_mix3,
            catalog=catalog6,
            run_config=RunConfig(duration_s=1.0),
            goals=goals,
            seed=7,
        )
        rebuilt = RunResult.from_dict(json_round(result.to_dict()))
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.policy_name == result.policy_name
        assert rebuilt.throughput == pytest.approx(result.throughput)
        assert rebuilt.fairness == pytest.approx(result.fairness)


# -- policy-state round trips ----------------------------------------------


class TestPolicyStateRoundTrips:
    """The snapshot envelope must survive JSON losslessly.

    It carries controller state across process boundaries (the engine
    worker pipe), into the on-disk run cache, and back into live
    controllers — a lossy field would silently break bit-identical
    warm starts. The components' own JSON dicts are round-tripped by
    ``tests/test_resume_fuzz.py`` on real controller state.
    """

    @given(policy_states)
    @settings(max_examples=50, deadline=None)
    def test_policy_state(self, state):
        rebuilt = PolicyState.from_dict(json_round(state.to_dict()))
        assert rebuilt == state
        assert rebuilt.payload_dict() == state.payload_dict()

    def test_version_gate_rejects_future_snapshots(self):
        state = PolicyState(policy="SATORI", payload={}, version=99)
        with pytest.raises(Exception, match="newer than this code"):
            PolicyState.from_dict(state.to_dict())


# -- payload canonicalization ----------------------------------------------


def canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


class TestFreezeThaw:
    """A :class:`PolicyState` fixes its payload's canonical JSON at
    construction (freeze) and hands the payload back unchanged (thaw)."""

    @given(json_payloads)
    @settings(max_examples=100, deadline=None)
    def test_thaw_inverts_freeze(self, data):
        state = PolicyState(policy="P", payload=data)
        assert state.to_dict()["payload"] == data
        assert PolicyState.from_dict(json_round(state.to_dict())).payload == data

    @given(json_payloads)
    @settings(max_examples=100, deadline=None)
    def test_freeze_is_idempotent(self, data):
        state = PolicyState(policy="P", payload=data)
        again = PolicyState.from_dict(state.to_dict())
        assert again == state
        assert canonical(again.to_dict()) == canonical(state.to_dict())

    @given(json_payloads)
    @settings(max_examples=100, deadline=None)
    def test_frozen_data_is_hashable(self, data):
        state = PolicyState(policy="P", payload=data)
        assert hash(state) == hash(PolicyState.from_dict(json_round(state.to_dict())))

    def test_mapping_keys_sorted_canonically(self):
        a = PolicyState(policy="P", payload={"b": 1, "a": {"y": [2], "x": 3}})
        b = PolicyState(policy="P", payload={"a": {"x": 3, "y": [2]}, "b": 1})
        assert a == b and hash(a) == hash(b)


# -- mode semantics --------------------------------------------------------


class TestModes:
    def test_fault_plan_rejects_unknown_fields(self):
        with pytest.raises(ExperimentError, match="unknown FaultPlan fields"):
            FaultPlan.from_dict({"crash_rate": 0.1, "meltdown_rate": 0.5})

    def test_run_config_ignores_unknown_fields(self):
        config = RunConfig.from_dict({"duration_s": 3.0, "future_knob": 1})
        assert config.duration_s == 3.0

    def test_lenient_missing_fields_use_defaults(self):
        assert RunConfig.from_dict({}) == RunConfig()

    def test_strict_accepts_exact_fields(self):
        plan = FaultPlan(crash_rate=0.2)
        assert FaultPlan.from_dict(plan.to_dict()) == plan


# -- helper primitives -----------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _Point:
    x: int = 0
    y: int = 0

    def to_dict(self):
        return dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data):
        return dataclass_from_dict(cls, data)


@dataclasses.dataclass(frozen=True)
class _Nested:
    label: str
    point: _Point
    maybe: _Point = None


class TestHelpers:
    def test_object_codec_round_trip(self):
        codecs = {"point": object_codec(_Point), "maybe": optional(object_codec(_Point))}
        nested = _Nested(label="a", point=_Point(1, 2), maybe=None)
        data = json_round(dataclass_to_dict(nested, codecs=codecs))
        assert dataclass_from_dict(_Nested, data, codecs=codecs) == nested

    def test_optional_codec_encodes_value(self):
        codecs = {"point": object_codec(_Point), "maybe": optional(object_codec(_Point))}
        nested = _Nested(label="b", point=_Point(0, 0), maybe=_Point(3, 4))
        data = dataclass_to_dict(nested, codecs=codecs)
        assert data["maybe"] == {"x": 3, "y": 4}
        assert dataclass_from_dict(_Nested, data, codecs=codecs) == nested

    def test_strict_error_names_class_and_fields(self):
        with pytest.raises(ExperimentError, match=r"unknown _Point fields \['z'\]"):
            dataclass_from_dict(_Point, {"x": 1, "z": 9}, strict=True)

    def test_mapping_to_dict_listifies(self):
        out = mapping_to_dict({"cores": (1, 2), "llc": (3, 4)})
        assert out == {"cores": [1, 2], "llc": [3, 4]}
        assert all(isinstance(v, list) for v in out.values())

    def test_field_codec_applies_both_directions(self):
        codec = FieldCodec(encode=str, decode=int)
        assert codec.encode(5) == "5"
        assert codec.decode("5") == 5
