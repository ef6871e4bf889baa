"""Shared helpers for the paper-reproduction benchmarks.

Scales are the reproduction defaults of DESIGN.md: an
8-unit-per-resource server (identical combinatorial structure to the
paper's 10-unit testbed, tractable Oracle) and 20 s online runs per
policy per mix. The gates of the figures in
``repro.experiments.figures.FIGURES`` read their inputs from there;
the heavy suite sweeps behind Figs. 7-13 are shared and run once per
pytest session.
"""

from __future__ import annotations

#: Run length per policy per mix, simulated seconds.
RUN_SECONDS = 20.0


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
