"""Execution-engine tests: spec identity, determinism, cache, drivers.

The engine's contract (DESIGN.md "Execution engine"):

* a :class:`RunSpec` fully determines its :class:`RunResult` — equal
  content means equal digest means bit-identical results;
* worker count, submission order, and completion order never change
  the results;
* the on-disk cache serves prior results without re-executing anything
  and invalidates itself when the code-version salt changes.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import pickle
import threading
import weakref

import pytest

import repro.engine.engine as engine_module
import repro.engine.spec as spec_module
from repro.engine import (
    CACHE_SCHEMA_VERSION,
    ExecutionEngine,
    RunCache,
    RunError,
    RunSpec,
    default_cache_salt,
    derive_seed,
    execute_run,
)
from repro.errors import EngineError, ExperimentError, PolicyError
from repro.experiments.comparison import compare_on_mix, compare_on_mixes
from repro.experiments.runner import RunConfig, RunResult, experiment_catalog
from repro.obs import TraceCollector, use_collector
from repro.workloads.mixes import JobMix, suite_mixes

FAST = RunConfig(duration_s=2.0, interval_s=0.1, baseline_reset_s=1.0)


@pytest.fixture(scope="module")
def catalog():
    return experiment_catalog(units=6)


@pytest.fixture(scope="module")
def mixes():
    return suite_mixes("parsec", mix_size=2)[:4]


def spec(mix, catalog, policy="Random", **overrides):
    fields = dict(mix=mix, policy=policy, catalog=catalog, run_config=FAST, seed=3)
    fields.update(overrides)
    return RunSpec(**fields)


# -- RunSpec identity ----------------------------------------------------


class TestRunSpec:
    def test_equal_content_equal_digest(self, mixes, catalog):
        assert spec(mixes[0], catalog) == spec(mixes[0], catalog)
        assert spec(mixes[0], catalog).digest == spec(mixes[0], catalog).digest
        assert hash(spec(mixes[0], catalog)) == hash(spec(mixes[0], catalog))

    def test_any_field_changes_digest(self, mixes, catalog):
        base = spec(mixes[0], catalog)
        variants = [
            spec(mixes[1], catalog),
            spec(mixes[0], catalog, policy="PARTIES"),
            spec(mixes[0], catalog, seed=4),
            spec(mixes[0], catalog, goals=("hmean_speedup", "jain")),
            spec(mixes[0], catalog, run_config=dataclasses.replace(FAST, duration_s=3.0)),
            spec(mixes[0], catalog, policy_kwargs={"mode": "throughput"}),
            spec(mixes[0], experiment_catalog(units=4)),
        ]
        digests = {base.digest} | {v.digest for v in variants}
        assert len(digests) == len(variants) + 1

    def test_kwargs_order_is_canonical(self, mixes, catalog):
        a = spec(mixes[0], catalog, policy_kwargs={"a": 1, "b": 2})
        b = spec(mixes[0], catalog, policy_kwargs={"b": 2, "a": 1})
        assert a == b and a.digest == b.digest

    def test_kwargs_reject_non_plain_data(self, mixes, catalog):
        with pytest.raises(EngineError):
            spec(mixes[0], catalog, policy_kwargs={"kernel": object()})

    def test_spec_dict_is_json_round_trippable(self, mixes, catalog):
        d = spec(mixes[0], catalog, policy_kwargs={"resources": ("llc_ways",)}).to_dict()
        assert json.loads(json.dumps(d)) == d
        rebuilt = RunSpec.catalog_from_dict(d["catalog"])
        assert rebuilt == catalog

    def test_seed_for_streams_differ(self, mixes, catalog):
        s = spec(mixes[0], catalog)
        assert s.seed_for("policy") != s.seed_for("noise")
        assert s.seed_for("policy") == derive_seed(s.digest, "policy")

    def test_workload_payloads_render_once_per_workload(self, mixes, catalog, monkeypatch):
        """Specs over the same workload objects share each workload's
        rendered payload; the memo is bounded, keyed by identity, and
        leaves the workloads' pickles, ``asdict`` and equality alone."""
        monkeypatch.setattr(spec_module, "_WORKLOAD_PAYLOADS", {})
        monkeypatch.setattr(spec_module, "_WORKLOAD_PAYLOAD_LIMIT", 3)
        mix = mixes[0]
        pickled = [pickle.dumps(w) for w in mix]
        first = spec(mix, catalog, seed=1)
        second = spec(mix, catalog, seed=2)
        for a, b, w in zip(first.mix_payload["workloads"], second.mix_payload["workloads"], mix):
            assert a is b
            assert a == spec_module._listify(dataclasses.asdict(w))
        assert [pickle.dumps(w) for w in mix] == pickled
        # Equal but not identical: rendered on its own (``2e11`` and
        # ``200000000000`` are equal workloads with different JSON).
        twin = dataclasses.replace(mix[0], total_instructions=int(mix[0].total_instructions))
        assert twin == mix[0]
        twin_spec = spec(JobMix((twin, mix[1])), catalog, seed=1)
        assert type(twin_spec.mix_payload["workloads"][0]["total_instructions"]) is int
        assert twin_spec.digest != first.digest
        for other in mixes[1:]:
            assert spec(other, catalog).digest
        assert len(spec_module._WORKLOAD_PAYLOADS) == 3
        full = json.dumps(
            {**first.to_dict(), "mix": {
                "label": mix.label,
                "workloads": [spec_module._listify(dataclasses.asdict(w)) for w in mix],
            }},
            sort_keys=True, separators=(",", ":"),
        )
        assert first.digest == hashlib.sha256(full.encode()).hexdigest()

    def test_workers_validated(self):
        with pytest.raises(EngineError):
            ExecutionEngine(workers=0)


# -- determinism ---------------------------------------------------------


class TestDeterminism:
    @pytest.fixture(scope="class")
    def batch(self, mixes, catalog):
        specs = [
            spec(mix, catalog, policy=policy)
            for mix in mixes
            for policy in ("Random", "SATORI")
        ]
        serial = ExecutionEngine(workers=1).run(specs)
        return specs, serial

    def test_workers_do_not_change_results(self, batch):
        specs, serial = batch
        parallel = ExecutionEngine(workers=4).run(specs)
        assert [r.to_dict() for r in parallel] == [r.to_dict() for r in serial]

    def test_submission_order_does_not_change_results(self, batch):
        specs, serial = batch
        shuffled = list(reversed(specs))
        results = ExecutionEngine(workers=4).run(shuffled)
        expected = list(reversed([r.to_dict() for r in serial]))
        assert [r.to_dict() for r in results] == expected

    def test_single_spec_matches_batch(self, batch):
        specs, serial = batch
        assert execute_run(specs[0]).to_dict() == serial[0].to_dict()

    def test_serial_path_skips_the_result_codec(self, mixes, catalog, monkeypatch):
        # The serial result never leaves the process: it is handed back
        # as execute_run built it (to_dict equality with the pool path
        # is test_workers_do_not_change_results).
        calls = []
        to_dict, from_dict = RunResult.to_dict, RunResult.from_dict.__func__

        def counting_to_dict(self):
            calls.append("to_dict")
            return to_dict(self)

        def counting_from_dict(cls, data):
            calls.append("from_dict")
            return from_dict(cls, data)

        monkeypatch.setattr(RunResult, "to_dict", counting_to_dict)
        monkeypatch.setattr(RunResult, "from_dict", classmethod(counting_from_dict))
        specs = [spec(mixes[0], catalog, policy="SATORI"), spec(mixes[1], catalog)]
        engine = ExecutionEngine(workers=1)
        results = engine.run(specs)
        assert all(isinstance(result, RunResult) for result in results)
        assert results[0].final_state is not None
        assert calls == []

    def test_pool_path_skips_the_result_codec(self, mixes, catalog, monkeypatch):
        # A worker's result crosses the pool pipe as the object
        # execute_run built; neither side runs the codec.
        cold_bopf = spec(mixes[1], catalog, policy="BoPF",
                         policy_kwargs={"qos_jobs": (0,), "qos_min_speedup": 1.0})
        satori = spec(mixes[0], catalog, policy="SATORI")
        random = spec(mixes[2], catalog)
        serial = ExecutionEngine().run([satori, cold_bopf, random])
        assert serial[1].final_state.payload_dict()["level"] > 0
        warm_bopf = dataclasses.replace(cold_bopf, initial_state=serial[1].final_state)
        specs = [satori, cold_bopf, warm_bopf, random]
        expected = [result.to_dict() for result in serial[:2]]
        expected += [execute_run(warm_bopf).to_dict(), serial[2].to_dict()]

        def refuse(*args):
            raise AssertionError("the result codec ran")

        # Pools fork, so the workers inherit the patches.
        monkeypatch.setattr(RunResult, "to_dict", refuse)
        monkeypatch.setattr(RunResult, "from_dict", classmethod(refuse))
        with ExecutionEngine(workers=2) as engine:
            outcomes = engine.run(specs, on_error="record")
        monkeypatch.undo()
        assert all(isinstance(outcome, RunResult) for outcome in outcomes), outcomes
        assert [outcome.to_dict() for outcome in outcomes] == expected

    def test_duplicates_coalesce(self, mixes, catalog):
        engine = ExecutionEngine()
        one = spec(mixes[0], catalog)
        a, b = engine.run([one, spec(mixes[0], catalog)])
        assert a.to_dict() == b.to_dict()
        assert engine.stats.submitted == 2
        assert engine.stats.executed == 1
        assert engine.stats.deduplicated == 1


class TestPoolRound:
    def test_one_round_returns_every_result_in_order(self, mixes, catalog):
        # The pool harvests each future as it completes; every result
        # still lands in its own position, and the round sets the
        # utilization gauge.
        specs = [spec(mix, catalog) for mix in mixes]
        collector = TraceCollector()
        with use_collector(collector), ExecutionEngine(workers=2) as engine:
            results = engine.run(specs)
        assert all(isinstance(result, RunResult) for result in results)
        assert [result.mix_label for result in results] == [mix.label for mix in mixes]
        assert engine.stats.executed == len(specs)
        assert engine.stats.failed == 0
        assert collector.metrics.gauge("engine.worker_utilization").value > 0

    def test_failed_spec_raises_after_the_round(self, mixes, catalog, monkeypatch):
        real = engine_module.execute_run
        doomed = spec(mixes[1], catalog)

        def selective(run_spec):
            if run_spec == doomed:
                raise RuntimeError("injected worker failure")
            return real(run_spec)

        # Pools fork, so the workers inherit the patched execute_run.
        monkeypatch.setattr(engine_module, "execute_run", selective)
        specs = [spec(mixes[0], catalog), doomed, spec(mixes[2], catalog)]
        with ExecutionEngine(workers=2) as engine:
            with pytest.raises(EngineError, match="RuntimeError: injected worker failure"):
                engine.run(specs)
            # The whole round ran before the raise: the other specs
            # executed and the failed one ran once.
            assert engine.stats.executed == 2
            assert engine.stats.failed == 1
            # The pool outlives the failed batch.
            assert [r.mix_label for r in engine.run(specs[::2])] == [
                mixes[0].label, mixes[2].label
            ]


class TestFailedPoolSpec:
    def test_failure_does_not_pin_caller_frames(self, mixes, catalog, monkeypatch):
        """A worker exception must not keep the caller's frames alive.

        With the collector off, anything a reference cycle holds stays
        alive: re-raising the failure through ``future.result()`` would
        tie the future, the traceback and every frame up to the caller
        into one cycle.
        """
        real = engine_module.execute_run
        doomed = spec(mixes[0], catalog)

        def selective(run_spec):
            if run_spec == doomed:
                raise RuntimeError("injected worker failure")
            return real(run_spec)

        # Pools fork, so the workers inherit the patched execute_run.
        monkeypatch.setattr(engine_module, "execute_run", selective)

        class Local:
            pass

        def caller():
            local = Local()
            with ExecutionEngine(workers=2) as engine:
                results = engine.run([doomed, spec(mixes[1], catalog)], on_error="record")
            return weakref.ref(local), results

        gc.collect()
        gc.disable()
        try:
            ref, results = caller()
            assert isinstance(results[0], RunError)
            assert "RuntimeError: injected worker failure" in results[0].error
            assert isinstance(results[1], RunResult)
            assert ref() is None
        finally:
            gc.enable()


# -- interrupted batches -------------------------------------------------


class _Interrupt(BaseException):
    """Stands in for Ctrl-C or ``SystemExit`` escaping a batch (pytest
    intercepts a real ``KeyboardInterrupt``)."""


class TestInterruptedRun:
    """A ``BaseException`` escaping ``run()`` must not wedge the engine:
    the next ``run()`` of an equal spec executes it afresh."""

    @staticmethod
    def rerun(engine, specs):
        """``engine.run(specs)`` on a daemon thread, so a hang fails
        the test instead of blocking the suite."""
        results = []
        thread = threading.Thread(
            target=lambda: results.extend(engine.run(specs)), daemon=True
        )
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), "run() hung after an interrupted run()"
        return results

    def test_serial_engine(self, mixes, catalog, monkeypatch):
        real = engine_module.execute_run
        interrupted = []

        def interrupt_once(run_spec):
            if not interrupted:
                interrupted.append(run_spec)
                raise _Interrupt()
            return real(run_spec)

        monkeypatch.setattr(engine_module, "execute_run", interrupt_once)
        specs = [spec(mixes[0], catalog)]
        engine = ExecutionEngine()
        with pytest.raises(_Interrupt):
            engine.run(specs)
        results = self.rerun(engine, specs)
        expected = ExecutionEngine().run(specs)
        assert [r.to_dict() for r in results] == [r.to_dict() for r in expected]

    def test_pool_engine(self, mixes, catalog, monkeypatch):
        note_success = ExecutionEngine._note_success
        interrupted = []

        def interrupt_once(self, slot, result, obs):
            if not interrupted:
                interrupted.append(result)
                raise _Interrupt()
            return note_success(self, slot, result, obs)

        # Raised in the parent while it files the first worker result.
        monkeypatch.setattr(ExecutionEngine, "_note_success", interrupt_once)
        specs = [spec(mixes[0], catalog), spec(mixes[1], catalog)]
        with ExecutionEngine(workers=2) as engine:
            with pytest.raises(_Interrupt):
                engine.run(specs)
            results = self.rerun(engine, specs)
        expected = ExecutionEngine().run(specs)
        assert [r.to_dict() for r in results] == [r.to_dict() for r in expected]


# -- cache ---------------------------------------------------------------


class TestRunCache:
    def test_hit_after_put(self, mixes, catalog, tmp_path):
        cache = RunCache(tmp_path)
        s = spec(mixes[0], catalog)
        assert cache.get(s) is None
        result = execute_run(s)
        cache.put(s, result)
        assert cache.get(s).to_dict() == result.to_dict()

    def test_warm_engine_executes_nothing(self, mixes, catalog, tmp_path, monkeypatch):
        specs = [spec(mix, catalog) for mix in mixes]
        cold = ExecutionEngine(cache=RunCache(tmp_path))
        cold_results = cold.run(specs)
        assert cold.stats.cache_misses == len(specs)
        assert cold.stats.executed == len(specs)

        def boom(*args, **kwargs):
            raise AssertionError("run_policy called on a warm cache")

        monkeypatch.setattr(engine_module, "run_policy", boom)
        warm = ExecutionEngine(cache=RunCache(tmp_path))
        warm_results = warm.run(specs)
        assert warm.stats.cache_hits == len(specs)
        assert warm.stats.executed == 0
        assert [r.to_dict() for r in warm_results] == [r.to_dict() for r in cold_results]

    def test_salt_change_invalidates(self, mixes, catalog, tmp_path):
        s = spec(mixes[0], catalog)
        RunCache(tmp_path, salt="v1").put(s, execute_run(s))
        assert RunCache(tmp_path, salt="v1").get(s) is not None
        assert RunCache(tmp_path, salt="v2").get(s) is None
        assert f"schema{CACHE_SCHEMA_VERSION}" in default_cache_salt()

    def test_invalidate_and_clear(self, mixes, catalog, tmp_path):
        cache = RunCache(tmp_path)
        s0, s1 = spec(mixes[0], catalog), spec(mixes[1], catalog)
        cache.put(s0, execute_run(s0))
        cache.put(s1, execute_run(s1))
        assert cache.invalidate(s0) is True
        assert cache.invalidate(s0) is False
        assert cache.get(s0) is None
        assert cache.clear() == 1
        assert cache.get(s1) is None

    def test_corrupt_artifact_is_a_miss(self, mixes, catalog, tmp_path):
        cache = RunCache(tmp_path)
        s = spec(mixes[0], catalog)
        cache.put(s, execute_run(s))
        cache.path_for(s).write_text("{not json")
        assert cache.get(s) is None
        engine = ExecutionEngine(cache=cache)
        engine.run([s])
        assert engine.stats.cache_misses == 1
        assert engine.stats.executed == 1
        assert cache.get(s) is not None  # the recomputed result replaced it


# -- driver acceptance ---------------------------------------------------


class TestComparisonAcceptance:
    def test_parallel_comparison_is_byte_identical_to_serial(self, mixes, catalog):
        """ISSUE acceptance: >=4 PARSEC mixes, workers=4 vs serial."""
        kwargs = dict(catalog=catalog, run_config=FAST, seed=11)
        serial = compare_on_mixes(mixes, engine=ExecutionEngine(workers=1), **kwargs)
        parallel = compare_on_mixes(mixes, engine=ExecutionEngine(workers=4), **kwargs)
        assert len(serial) == len(mixes) == 4
        for s, p in zip(serial, parallel):
            assert s.scores == p.scores
            assert s.oracle.to_dict() == p.oracle.to_dict()

    def test_warm_cache_reruns_whole_comparison(self, mixes, catalog, tmp_path, monkeypatch):
        """ISSUE acceptance: warm rerun with zero run_policy invocations."""
        kwargs = dict(catalog=catalog, run_config=FAST, seed=11)
        cold_engine = ExecutionEngine(cache=RunCache(tmp_path))
        cold = compare_on_mixes(mixes, engine=cold_engine, **kwargs)

        monkeypatch.setattr(
            engine_module,
            "run_policy",
            lambda *a, **k: pytest.fail("run_policy called on a warm cache"),
        )
        warm_engine = ExecutionEngine(cache=RunCache(tmp_path))
        warm = compare_on_mixes(mixes, engine=warm_engine, **kwargs)
        assert warm_engine.stats.executed == 0
        assert warm_engine.stats.cache_hits == warm_engine.stats.submitted
        assert [c.scores for c in warm] == [c.scores for c in cold]

    def test_compare_on_mix_matches_compare_on_mixes(self, mixes, catalog):
        single = compare_on_mix(mixes[0], catalog=catalog, run_config=FAST, seed=11)
        batched = compare_on_mixes([mixes[0]], catalog=catalog, run_config=FAST, seed=11)
        assert single.scores == batched[0].scores

    def test_unknown_policy_name_raises(self, mixes, catalog):
        with pytest.raises(ExperimentError):
            compare_on_mix(mixes[0], catalog=catalog, run_config=FAST, include=("Nope",))

    def test_unknown_factory_raises_policy_error(self, mixes, catalog):
        with pytest.raises(PolicyError):
            execute_run(spec(mixes[0], catalog, policy="Nope"))

    def test_engine_stats_to_dict(self, mixes, catalog, tmp_path):
        engine = ExecutionEngine(cache=RunCache(tmp_path))
        engine.run([spec(mixes[0], catalog)])
        stats = engine.stats.to_dict()
        assert stats["executed"] == 1
        assert stats["cache_misses"] == 1
        assert json.loads(json.dumps(stats)) == stats
