"""Engine scaling: serial vs multi-worker wall time on a comparison grid.

Records how long the same 4-mix x 6-run comparison batch takes with
one worker versus a process fan-out, plus the warm-cache replay time.
No speedup is asserted — the figure machines this runs on range from
laptops to single-core CI boxes where process fan-out cannot win — but
the printed table makes regressions in engine overhead visible, and
the warm-cache replay must stay orders of magnitude below recompute.
"""

from __future__ import annotations

import time

import pytest

from repro.engine import ExecutionEngine, RunCache
from repro.experiments import compare_on_mixes, experiment_catalog
from repro.experiments.runner import RunConfig
from repro.workloads.mixes import suite_mixes

RUN_CONFIG = RunConfig(duration_s=5.0)
WORKER_COUNTS = (1, 4)


@pytest.mark.slow
def test_engine_scaling(tmp_path):
    catalog = experiment_catalog()
    mixes = suite_mixes("parsec", mix_size=2)[:4]

    timings = {}
    results = {}
    for workers in WORKER_COUNTS:
        started = time.perf_counter()
        results[workers] = compare_on_mixes(
            mixes, catalog, RUN_CONFIG, seed=0, engine=ExecutionEngine(workers=workers)
        )
        timings[f"{workers} worker(s)"] = time.perf_counter() - started

    cache = RunCache(tmp_path)
    compare_on_mixes(
        mixes, catalog, RUN_CONFIG, seed=0, engine=ExecutionEngine(cache=cache)
    )
    warm_engine = ExecutionEngine(cache=cache)
    started = time.perf_counter()
    warm = compare_on_mixes(mixes, catalog, RUN_CONFIG, seed=0, engine=warm_engine)
    warm_s = time.perf_counter() - started

    print("\nEngine scaling (4 mixes x 6 runs, 5 s each):")
    for label, seconds in timings.items():
        print(f"  {label:>12}: {seconds:7.2f} s")
    print(f"  {'warm cache':>12}: {warm_s:7.2f} s ({warm_engine.stats.summary()})")

    # Correctness invariants ride along with the timing: fan-out and
    # cache replay must reproduce the serial tables exactly.
    serial_tables = [c.scores for c in results[1]]
    for workers in WORKER_COUNTS[1:]:
        assert [c.scores for c in results[workers]] == serial_tables
    assert [c.scores for c in warm] == serial_tables
    assert warm_engine.stats.executed == 0
