"""Interval bookkeeping pairing fuzzer.

Each control interval crosses two pieces of bookkeeping that keep their
data in a cheaper form than the obvious one (DESIGN.md "Interval
bookkeeping"):

* :class:`~repro.hardware.pqos.PqosMonitor` draws an interval's noise
  factors in one ``lognormal`` call. :func:`per_job_observe` below
  keeps the monitor as it was before: three scalar draws per job, in
  job order. The two must produce the same samples and leave the
  generator in the same state.
* :class:`~repro.core.objective.GoalRecords` keeps its inputs and goal
  scores as arrays, updated on add, window slide, rescore and restore.
  After every operation of a drawn stream those arrays, ``inputs()``,
  ``objective_values`` and ``best`` must equal, bit for bit, what the
  sample list rebuilds.

Tier-1 runs hypothesis's default ~100 derandomized examples;
``--hypothesis-profile=deep`` (registered in ``conftest.py``) runs a
thousand.
"""

from __future__ import annotations

import json
from typing import List, Optional, Sequence

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.objective import GoalRecords
from repro.hardware.pqos import PqosMonitor, PqosSample
from repro.resources.allocation import Configuration

FUZZ = settings(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def per_job_observe(
    rng: np.random.Generator,
    noise_sigma: float,
    true_ips: Sequence[float],
    interval_s: float,
    llc_occupancy_bytes: Optional[Sequence[float]] = None,
    memory_bandwidth_bytes_s: Optional[Sequence[float]] = None,
) -> List[PqosSample]:
    """The monitor's per-job draw loop (glitch-free): for each job in
    order, one scalar ``lognormal`` draw each for IPS, occupancy and
    bandwidth."""

    def noise() -> float:
        if noise_sigma == 0:
            return 1.0
        return float(rng.lognormal(mean=0.0, sigma=noise_sigma))

    n = len(true_ips)
    occupancy = llc_occupancy_bytes if llc_occupancy_bytes is not None else [0.0] * n
    bandwidth = memory_bandwidth_bytes_s if memory_bandwidth_bytes_s is not None else [0.0] * n
    samples = []
    for job in range(n):
        ips = max(0.0, float(true_ips[job]) * noise())
        samples.append(
            PqosSample(
                job=job,
                interval_s=interval_s,
                instructions=ips * interval_s,
                ips=ips,
                llc_occupancy_bytes=float(occupancy[job]) * noise(),
                memory_bandwidth_bytes_s=float(bandwidth[job]) * noise(),
            )
        )
    return samples


class CountingGenerator(np.random.Generator):
    """A generator that counts its ``lognormal`` calls."""

    def __init__(self, bit_generator) -> None:
        super().__init__(bit_generator)
        self.lognormal_calls = 0

    def lognormal(self, *args, **kwargs):
        self.lognormal_calls += 1
        return super().lognormal(*args, **kwargs)


rates = st.floats(0.0, 5e9, allow_nan=False)


@st.composite
def intervals(draw):
    """One monitor call: true IPS, optional occupancy and bandwidth."""
    n = draw(st.integers(1, 5))
    per_job = st.lists(rates, min_size=n, max_size=n)
    return (
        draw(per_job),
        draw(st.sampled_from((0.1, 0.5))),
        draw(st.none() | per_job),
        draw(st.none() | per_job),
    )


@FUZZ
@given(
    sigma=st.sampled_from((0.0, 0.02, 0.03)),
    seed=st.integers(0, 2**32 - 1),
    calls=st.lists(intervals(), min_size=1, max_size=4),
)
def test_batched_monitor_matches_the_per_job_loop(sigma, seed, calls):
    monitor = PqosMonitor(noise_sigma=sigma, rng=0)
    monitor.rng = CountingGenerator(np.random.PCG64(seed))
    reference = np.random.Generator(np.random.PCG64(seed))
    for true_ips, interval_s, occupancy, bandwidth in calls:
        got = monitor.observe(true_ips, interval_s, occupancy, bandwidth)
        want = per_job_observe(reference, sigma, true_ips, interval_s, occupancy, bandwidth)
        assert repr(got) == repr(want)
        assert monitor.rng.bit_generator.state == reference.bit_generator.state
    # One draw per interval, none without noise.
    assert monitor.rng.lognormal_calls == (len(calls) if sigma else 0)


# -- goal records -------------------------------------------------------------

scores_st = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def record_streams(draw):
    d = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    add = st.tuples(
        st.just("add"),
        st.tuples(
            st.integers(0, 3),
            st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d),
            st.lists(scores_st, min_size=k, max_size=k),
            st.booleans(),
        ),
    )
    rescore = st.tuples(st.just("rescore"), st.tuples(scores_st, st.integers(1, 3)))
    restore = st.tuples(st.just("restore"), st.booleans())
    ops = draw(st.lists(st.one_of(add, add, add, rescore, restore), min_size=1, max_size=40))
    weights = draw(st.lists(st.lists(scores_st, min_size=k, max_size=k), min_size=1, max_size=3))
    return dict(
        k=k, max_samples=draw(st.sampled_from((2, 3, 5, 64))), ops=ops, weights=weights
    )


def rebuilt(records: GoalRecords):
    """The (inputs, scores) arrays the sample list rebuilds."""
    samples = records.samples
    return (
        np.asarray([s.encoded for s in samples], dtype=float),
        np.asarray([s.scores for s in samples], dtype=float),
    )


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_in_step(records: GoalRecords, weights) -> None:
    if not len(records):
        return
    inputs, scores = rebuilt(records)
    n = len(records)
    assert same_bits(records._inputs[:n], inputs)
    assert same_bits(records._scores[:n], scores)
    handed_out = records.inputs()
    assert same_bits(handed_out, inputs)
    handed_out[:] = -1.0  # the caller owns it
    assert same_bits(records.inputs(), inputs)
    for w in weights:
        values = scores @ np.asarray(w, dtype=float)
        assert same_bits(records.objective_values(w), values)
        index = int(np.argmax(values))
        config, value = records.best(w)
        assert config == records.samples[index].config
        assert repr(value) == repr(float(values[index]))


@FUZZ
@given(record_streams())
def test_goal_record_arrays_match_the_samples(stream):
    k = stream["k"]
    names = ("throughput", "fairness", "energy")[:k]
    records = GoalRecords(names, max_samples=stream["max_samples"])
    for op, arg in stream["ops"]:
        if op == "add":
            pick, encoded, scores, raw = arg
            config = Configuration({"cores": (pick + 1, 4 - pick)})
            records.add(
                config,
                encoded,
                scores,
                ips=(1e9, 2e9) if raw else None,
                isolation_ips=(2e9, 3e9) if raw else None,
            )
        elif op == "rescore":
            shift, every = arg

            def scorer(sample, shift=shift, every=every):
                if sample.ips is None or int(sample.encoded[0] * 100) % every:
                    return None
                return tuple(s + shift for s in sample.scores)

            records.rescore(scorer)
        else:
            state = json.loads(json.dumps(records.snapshot()))
            records = (GoalRecords(names) if arg else records).restore(state)
        assert_in_step(records, stream["weights"])
