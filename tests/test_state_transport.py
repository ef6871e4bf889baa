"""Pairing tests for the policy-state text transport.

A :class:`~repro.state.PolicyState` renders its payload to canonical
JSON once, where it is built, and that text is its one encoding across
processes: a pickle carries ``(policy, version, text)``, and the
receiving side decodes the payload on its first read. These tests pair
that transport with the object graph it replaced:

* a state that crossed ``pickle`` restores SATORI, BoPF (qos jobs, tilt
  engaged) and Random controllers that continue bit for bit like ones
  restored from the original, and its pickle carries the text, not the
  payload tree;
* a warm spec's ``digest``, ``cold_digest`` and ``environment_digest``
  equal a test-local copy of the full-render formulas for generated
  payloads (NaN, ±inf, -0.0, subnormals, big ints, escaped and
  non-ASCII strings, empty and nested containers, tuples), whether its
  state was built here or crossed a pickle;
* a 2-worker pooled fleet with warm start, recovery and a broker
  decodes no payload in the parent, and every spec of a serial and a
  pooled fleet keeps its digests byte for byte.

Tier-1 runs hypothesis's default ~100 derandomized examples;
``--hypothesis-profile=deep`` (registered in ``conftest.py``) runs a
thousand.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import pickletools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engine.engine
import repro.state
from repro.cluster import ClusterSimulator, MigrationConfig, RecoveryConfig
from repro.engine import ExecutionEngine, RunSpec
from repro.experiments.runner import RunConfig, experiment_catalog
from repro.faults import FaultPlan, NodeFaultPlan
from repro.policies.registry import make_policy
from repro.qos import SLOSpec
from repro.state import PolicyState
from repro.system.simulation import CoLocationSimulator, Observation
from repro.workloads.arrivals import (
    KIND_BATCH,
    KIND_QOS,
    ArrivalTrace,
    JobArrival,
    poisson_trace,
)
from repro.workloads.mixes import mix_from_names
from repro.workloads.registry import default_registry
from tests.platform_fingerprint import numeric_platform

#: Decisions compared after the restore.
TAIL = 15

REGISTRY = default_registry()
CATALOG = experiment_catalog(units=6)
MIX = mix_from_names(["canneal", "fluidanimate", "streamcluster"], REGISTRY)

FIXED = settings(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def canonical(data) -> str:
    """The canonical JSON a state check and a spec digest render."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def same_data(a, b) -> bool:
    """JSON-data equality: a tuple equals a list, floats compare by
    ``repr`` (NaN equals NaN, -0.0 differs from 0.0), and ``1``,
    ``1.0`` and ``True`` all differ."""
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same_data(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_data(a[k], b[k]) for k in a)
    if type(a) is not type(b):
        return False
    return repr(a) == repr(b) if isinstance(a, float) else a == b


def shipped(state: PolicyState) -> PolicyState:
    """``state`` as the other side of a process pool receives it."""
    return pickle.loads(pickle.dumps(state))


def full_render_digests(spec: RunSpec):
    """``(digest, cold_digest, environment_digest)`` as the whole
    content rendered in one ``json.dumps`` gives them, the warm-start
    payload included."""
    content = spec.to_dict()
    digest = sha(canonical(content))
    content.pop("initial_state", None)
    cold = sha(canonical(content))
    for key in ("policy", "policy_kwargs", "goals"):
        del content[key]
    return digest, cold, sha(canonical(content))


def digests(spec: RunSpec):
    return spec.digest, spec.cold_digest, spec.environment_digest


# -- (a) a shipped state continues like the original ----------------------


def feed(policy, speedups, n_steps, observation=None, iso=1e9):
    """Decide against synthetic observations at fixed speedups."""
    t = 0.0 if observation is None else observation.time_s
    decisions = []
    for _ in range(n_steps):
        config = policy.decide(observation)
        decisions.append(config)
        t += 0.1
        observation = Observation(
            time_s=t,
            interval_s=0.1,
            ips=tuple(s * iso for s in speedups),
            isolation_ips=(iso,) * len(speedups),
            config=config,
            completed_runs=(0,) * len(speedups),
        )
    return decisions, observation


def drive(policy, simulator, n_steps, observation=None):
    decisions = []
    for _ in range(n_steps):
        config = policy.decide(observation)
        decisions.append(config)
        observation = simulator.step(config)
    return decisions, observation


@st.composite
def sessions(draw):
    name = draw(st.sampled_from(("SATORI", "BoPF", "Random")))
    kwargs = {}
    if name == "BoPF":
        kwargs = {"qos_jobs": (draw(st.integers(0, 2)),), "qos_min_speedup": 0.6}
    return dict(
        policy=name,
        kwargs=kwargs,
        seed=draw(st.integers(0, 2**16)),
        split=draw(st.integers(1, 30)),
    )


def build(session, rng, initial_state=None):
    return make_policy(
        session["policy"], MIX, CATALOG, rng=rng, initial_state=initial_state,
        **session["kwargs"],
    )


def run_to_split(session):
    """The reference policy stepped to its split, and how to continue
    it: BoPF against a qos job held below its floor until the tilt is
    engaged, the others against a simulator."""
    policy = build(session, rng=session["seed"])
    if session["policy"] == "BoPF":
        speedups = [0.9, 0.9, 0.9]
        speedups[session["kwargs"]["qos_jobs"][0]] = 0.2
        observation = None
        for _ in range(60):
            _, observation = feed(policy, speedups, 1, observation)
            if policy.diagnostics()["bopf_tilt_level"] >= 1:
                break
        _, observation = feed(policy, speedups, session["split"] % 6, observation)
        assert policy.diagnostics()["bopf_tilt_level"] >= 1
        return policy, lambda p: feed(p, speedups, TAIL, observation)[0]
    simulator = CoLocationSimulator(MIX, catalog=CATALOG, seed=session["seed"])
    head, _ = drive(policy, simulator, session["split"])

    def tail(p):
        twin = CoLocationSimulator(MIX, catalog=CATALOG, seed=session["seed"])
        observation = None
        for config in head:
            observation = twin.step(config)
        return drive(p, twin, TAIL, observation)[0]

    return policy, tail


@FIXED
@given(sessions())
def test_shipped_state_continues_like_the_original(session):
    reference, tail = run_to_split(session)
    original = reference.snapshot()
    data = pickle.dumps(original)
    copy = pickle.loads(data)

    # The pickle carries the canonical text and no payload tree.
    assert canonical(original.payload).encode() in data
    opcodes = {op.name for op, _, _ in pickletools.genops(data)}
    assert not opcodes & {"BINFLOAT", "EMPTY_DICT", "EMPTY_LIST"}
    assert copy == original and hash(copy) == hash(original)
    assert same_data(copy.to_dict(), original.to_dict())

    from_original = build(session, rng=session["seed"] + 1, initial_state=original)
    from_copy = build(session, rng=session["seed"] + 2, initial_state=copy)
    assert tail(from_copy) == tail(from_original)
    assert canonical(from_copy.diagnostics()) == canonical(from_original.diagnostics())
    assert from_copy.snapshot() == from_original.snapshot()


def test_a_shipped_state_decodes_once(monkeypatch):
    """Every read of a shipped state's payload after the first returns
    the object the first one decoded; a fresh state never decodes."""
    decoded = []
    decode = repro.state._decode
    monkeypatch.setattr(repro.state, "_decode", lambda text: decoded.append(text) or decode(text))
    state = PolicyState(policy="P", payload={"b": [1.5, None], "a": {"x": "y"}})
    copy = shipped(state)
    assert decoded == [] and "payload" not in vars(copy)
    payload = copy.payload_dict()
    assert copy.payload is payload and copy.to_dict()["payload"] is payload
    assert shipped(copy).payload == payload
    assert decoded == [canonical(state.payload)] * 2
    assert state.payload_dict() is state.payload and len(decoded) == 2


# -- (b) spliced digests equal the full render ----------------------------

SPECIAL_FLOATS = (
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 2.2250738585072e-308,
    1e308, 0.1,
)
SPECIAL_STRINGS = ('"', "\\", "\n\t\x00\x1f", " ", "é", "日本", "\U0001f600", "</x>", "")

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.sampled_from((2**100, -(2**100), 2**63, -(2**63) - 1))
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(SPECIAL_FLOATS)
    | st.text(max_size=8)
    | st.sampled_from(SPECIAL_STRINGS)
)
keys = st.text(max_size=6) | st.sampled_from(SPECIAL_STRINGS + ("payload", "policy"))
payloads = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(keys, children, max_size=4)
    ),
    max_leaves=24,
)


@st.composite
def warm_specs(draw):
    state = PolicyState(
        policy=draw(st.sampled_from(("SATORI", "BoPF", "Random")) | st.text(max_size=6)),
        payload=draw(payloads),
        version=draw(st.integers(0, 1)),
    )
    faults = draw(st.none() | st.builds(FaultPlan, sample_drop_rate=st.sampled_from((0.05, 0.3))))
    return state, dict(
        mix=MIX,
        policy=draw(st.sampled_from(("SATORI", "BoPF"))),
        catalog=CATALOG,
        policy_kwargs=draw(st.dictionaries(keys, st.integers(0, 3) | st.text(max_size=4), max_size=2)),
        seed=draw(st.integers(0, 2**40)),
        fault_plan=faults,
    )


@FIXED
@given(warm_specs())
def test_spliced_digests_equal_the_full_render(case):
    state, fields = case
    reference = full_render_digests(RunSpec(initial_state=state, **fields))
    assert digests(RunSpec(initial_state=state, **fields)) == reference
    # A state that crossed a pickle splices its text without decoding it.
    arrived = shipped(state)
    spec = RunSpec(initial_state=arrived, **fields)
    assert digests(spec) == reference
    assert "payload" not in vars(arrived)
    # So does a spec that crossed one before it was hashed.
    assert digests(pickle.loads(pickle.dumps(spec))) == reference
    # The first read decodes the payload exactly.
    assert same_data(arrived.to_dict(), state.to_dict())
    assert arrived == state and arrived.to_json() == canonical(state.to_dict())
    # The cold twin keeps its own digests.
    cold = RunSpec(**fields)
    assert digests(cold) == full_render_digests(cold)
    assert cold.digest == reference[1]


# -- (c) fleets: no parent-side decode, digests byte for byte ---------------


def capture_specs(engine):
    """Record every spec ``engine.run`` is given, in submission order."""
    seen = []
    run = engine.run

    def recording(specs, **kwargs):
        seen.extend(specs)
        return run(specs, **kwargs)

    engine.run = recording
    return seen


def digest_lines(specs) -> str:
    return "\n".join(" ".join(digests(spec)) for spec in specs)


def every_feature_fleet(engine):
    """Three capacity-2 BoPF nodes with every fleet feature on: node
    2's crash queues its pair until the node rejoins, where the pair
    reassembles and resurrects the epoch-0 checkpoint; warm starts,
    a straggler, flaky telemetry, a migration, the trade broker and a
    qos SLO fill the rest."""
    names = ["canneal", "streamcluster", "vips", "freqmine", "fluidanimate", "blackscholes"]
    trace = ArrivalTrace(n_epochs=5, jobs=tuple(
        JobArrival(job_id, REGISTRY.get(name), 0,
                   departure_epoch=3 if job_id == 5 else None,
                   kind=KIND_QOS if job_id in (0, 2) else KIND_BATCH)
        for job_id, name in enumerate(names)
    ))
    plans = {
        0: NodeFaultPlan(straggler_rate=0.95, straggler_slowdown=3.5,
                         start_epoch=3, end_epoch=4),
        1: NodeFaultPlan(flaky_rate=0.5, flaky_intensity=0.5),
        2: NodeFaultPlan(crash_epoch=1, crash_rejoin_epochs=1),
    }
    return ClusterSimulator(
        trace, n_nodes=3, placement="least_loaded", policy="BoPF",
        catalog=experiment_catalog(), seed=1, node_capacity=2,
        epoch_config=RunConfig(duration_s=1.0, baseline_reset_s=0.5), fleet_plans=plans,
        recovery=RecoveryConfig(snapshot_cadence_epochs=1),
        migration=MigrationConfig(fairness_threshold=0.9, patience=1),
        broker="trade", warm_start=True,
        qos_slo=SLOSpec(min_speedup=0.55, window=2, attain_target=0.75),
        engine=engine,
    ).run()


def test_pooled_fleet_parent_decodes_no_payload(monkeypatch):
    """Warm starts, recovery checkpoints, a resurrection and broker
    transfers on a 2-worker pool all forward each state as its text:
    the parent decodes none outside the runs it executes itself (the
    engine runs a one-spec batch in-process), and every spec keeps its
    digests."""
    decoded, in_parent, running = [], [], []
    decode, execute = repro.state._decode, repro.engine.engine.execute_run

    def counting(text):
        if not running:
            decoded.append(len(text))
        return decode(text)

    def executing(spec):
        running.append(spec)
        in_parent.append(spec)
        try:
            return execute(spec)
        finally:
            running.pop()

    # The pool's workers fork with both patches in place but record
    # into their own copies of these lists.
    monkeypatch.setattr(repro.state, "_decode", counting)
    monkeypatch.setattr(repro.engine.engine, "execute_run", executing)
    with ExecutionEngine(workers=2) as engine:
        specs = capture_specs(engine)
        result = every_feature_fleet(engine)
    pooled_warm = [
        spec for spec in specs
        if spec.initial_state is not None and not any(spec is run for run in in_parent)
    ]
    assert len(pooled_warm) >= 3
    assert any(record.warm_started for record in result.records)
    assert result.resurrections and result.budget_transfers and result.migrations
    assert decoded == []
    # Every spec, warm and cold, keeps the digests the full render gives
    # (compared last: the reference formula decodes each payload).
    for spec in specs:
        assert digests(spec) == full_render_digests(spec)
    assert sha(digest_lines(specs)) == (
        "4f48e375640f5b2ee813411e75363dd87d74bbbb017bca6d1540ee0f9b80f7fa"
    ), numeric_platform()


def test_serial_fleet_digests_are_unchanged():
    """The fleet-dense feature set: SATORI on the serial engine."""
    trace = poisson_trace(
        n_epochs=3, arrival_rate=1.5, mean_residency=2.0, suites=("parsec",),
        seed=5, initial_jobs=7,
    )
    with ExecutionEngine() as engine:
        specs = capture_specs(engine)
        ClusterSimulator(
            trace, n_nodes=3, placement="least_loaded", policy="SATORI",
            catalog=experiment_catalog(), epoch_config=RunConfig(duration_s=2.0),
            seed=1, node_capacity=4, engine=engine,
        ).run()
    assert specs
    for spec in specs:
        assert digests(spec) == full_render_digests(spec)
    assert sha(digest_lines(specs)) == (
        "68264f2bfda200050b7093b09d4c38e27035e1a78d245754ee67aa19d4ca97f5"
    )
