"""Resume fuzzer for the policy snapshot/restore protocol.

Each draw builds a policy through :func:`~repro.policies.registry.make_policy`
— SATORI in any mode with or without hardening and idle detection, BoPF
guarding one or two qos jobs, or Random — over a 2-4-job mix drawn from
PARSEC, CloudSuite and ECP at 4-6 units per resource, optionally under
a realized :class:`~repro.faults.FaultSchedule`. The policy steps to a
random split point, is snapshotted, and the snapshot goes through JSON
into a policy built from another seed. A twin simulator replays the
recorded decisions to the split, and from there the two runs must
agree on every decision, on the final diagnostics (NaN-aware: the
unhardened controller reports NaN under faults) and on the final
snapshot. The SATORI components inside the split snapshot (the GP, the
optimizer, the goal records and the weight scheduler) must each
reproduce their own JSON dict through ``restore`` and ``snapshot``.

Draws whose uninterrupted run raises (an unhardened controller scoring
a fully crashed interval, say) are discarded: the contract is about
resume, not about surviving every fault. Tier-1 runs hypothesis's
default ~100 derandomized examples; ``--hypothesis-profile=deep``
(registered in ``conftest.py``) runs a thousand.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.bo import BayesianOptimizer
from repro.core.gp import GaussianProcess
from repro.core.objective import GoalRecords
from repro.core.weights import DynamicWeightScheduler
from repro.errors import ReproError
from repro.experiments.runner import experiment_catalog
from repro.faults import FaultPlan, FaultSchedule
from repro.policies.registry import make_policy
from repro.state import PolicyState
from repro.system.simulation import CoLocationSimulator
from repro.workloads.mixes import mix_from_names
from repro.workloads.registry import default_registry

#: Decisions compared after the split.
TAIL = 20

REGISTRY = default_registry()
WORKLOADS = tuple(
    w.name for suite in ("parsec", "cloudsuite", "ecp") for w in REGISTRY.suite(suite)
)

rates = st.sampled_from((0.0, 0.0, 0.05, 0.15, 0.3))

fault_plans = st.builds(
    FaultPlan,
    actuation_fail_rate=rates,
    actuation_outage_rate=st.sampled_from((0.0, 0.0, 0.05)),
    actuation_outage_duration_s=st.sampled_from((0.3, 1.0)),
    sample_drop_rate=rates,
    sample_nan_rate=rates,
    sample_stuck_rate=rates,
    sample_outlier_rate=rates,
    crash_rate=st.sampled_from((0.0, 0.0, 0.02, 0.05)),
    hang_rate=st.sampled_from((0.0, 0.0, 0.02, 0.05)),
)


@st.composite
def policies(draw, n_jobs):
    """``(factory id, builder kwargs)``."""
    name = draw(st.sampled_from(("SATORI", "SATORI", "BoPF", "Random")))
    if name == "SATORI":
        return name, dict(
            mode=draw(st.sampled_from(("dynamic", "static", "throughput", "fairness"))),
            hardening=draw(st.booleans()),
            idle_detection=draw(st.booleans()),
        )
    if name == "BoPF":
        return name, dict(
            qos_jobs=tuple(draw(st.lists(
                st.integers(0, n_jobs - 1), min_size=1, max_size=2, unique=True
            ))),
            qos_min_speedup=draw(st.floats(0.5, 0.9)),
        )
    return name, {}


@st.composite
def scenarios(draw):
    names = draw(st.lists(st.sampled_from(WORKLOADS), min_size=2, max_size=4, unique=True))
    name, kwargs = draw(policies(len(names)))
    return dict(
        mix=mix_from_names(names, REGISTRY),
        catalog=experiment_catalog(draw(st.integers(4, 6))),
        policy=name,
        kwargs=kwargs,
        plan=draw(st.none() | fault_plans),
        seed=draw(st.integers(0, 2**16)),
        split=draw(st.integers(1, 40)),
    )


def json_round(state: PolicyState) -> PolicyState:
    return PolicyState.from_dict(json.loads(json.dumps(state.to_dict())))


def canonical(data) -> str:
    """Canonical JSON: exact float bits, NaN equal to NaN."""
    return json.dumps(data, sort_keys=True)


def simulator(scenario):
    mix, plan, seed = scenario["mix"], scenario["plan"], scenario["seed"]
    schedule = None
    if plan is not None:
        schedule = FaultSchedule.generate(
            plan,
            n_jobs=len(mix),
            duration_s=0.1 * (scenario["split"] + TAIL + 1),
            interval_s=0.1,
            seed=seed,
        )
    return CoLocationSimulator(
        mix, catalog=scenario["catalog"], seed=seed, fault_schedule=schedule
    )


def build(scenario, rng, initial_state=None):
    return make_policy(
        scenario["policy"],
        scenario["mix"],
        scenario["catalog"],
        rng=rng,
        initial_state=initial_state,
        **scenario["kwargs"],
    )


def check_components(payload, space):
    """``restore(json(snapshot()))`` reproduces each component's dict."""
    components = [
        (GaussianProcess(), payload["bo"]["gp"]),
        (BayesianOptimizer(space), payload["bo"]),
        (GoalRecords(), payload["records"]),
    ]
    if payload["scheduler"] is not None:
        components.append((DynamicWeightScheduler(), payload["scheduler"]))
    for component, state in components:
        component.restore(json.loads(json.dumps(state)))
        assert canonical(component.snapshot()) == canonical(state)


def drive(policy, sim, n_steps, observation):
    configs = []
    for _ in range(n_steps):
        config = policy.decide(observation)
        configs.append(config)
        observation = sim.step(config)
    return configs, observation


@settings(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(scenarios())
def test_restored_policy_continues_bit_identically(scenario):
    split = scenario["split"]
    reference = build(scenario, rng=scenario["seed"])
    sim_a = simulator(scenario)
    try:
        head, obs_a = drive(reference, sim_a, split, None)
        snapshot = json_round(reference.snapshot())
        tail_a, _ = drive(reference, sim_a, TAIL, obs_a)
    except ReproError:
        assume(False)

    payload = snapshot.payload_dict()
    if scenario["policy"] == "BoPF":
        payload = payload["inner"]["payload"]
    if scenario["policy"] != "Random":
        check_components(payload, reference.space)

    restored = build(scenario, rng=scenario["seed"] + 1, initial_state=snapshot)
    sim_b = simulator(scenario)
    obs_b = None
    for config in head:
        obs_b = sim_b.step(config)
    tail_b, _ = drive(restored, sim_b, TAIL, obs_b)

    assert tail_b == tail_a
    assert canonical(restored.diagnostics()) == canonical(reference.diagnostics())
    assert restored.snapshot() == reference.snapshot()
