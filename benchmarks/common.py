"""Shared helpers for the paper-reproduction benchmarks.

The heavy suite sweeps (21 PARSEC mixes x 6 policies) back several
figures (Figs. 7, 8, 9), so their results are computed once per
pytest session and shared. Scales are the reproduction defaults of
DESIGN.md: an 8-unit-per-resource server (identical combinatorial
structure to the paper's 10-unit testbed, tractable Oracle) and 20 s
online runs per policy per mix.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from repro.experiments import (
    MixComparison,
    RunConfig,
    compare_on_mixes,
    experiment_catalog,
)
from repro.workloads.mixes import suite_mixes

#: Run length per policy per mix, simulated seconds.
RUN_SECONDS = 20.0


def run_config() -> RunConfig:
    return RunConfig(duration_s=RUN_SECONDS)


@lru_cache(maxsize=None)
def suite_comparisons(suite: str) -> Tuple[MixComparison, ...]:
    """All-policy comparisons for every mix of a suite (memoized)."""
    catalog = experiment_catalog()
    mixes = suite_mixes(suite)
    return tuple(compare_on_mixes(mixes, catalog, run_config(), seed=0))


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
