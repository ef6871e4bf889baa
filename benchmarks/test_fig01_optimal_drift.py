"""Fig. 1: the throughput-optimal configuration drifts over time.

Paper finding: for a five-job PARSEC mix sharing three resources, the
optimal configuration "can change by more than 20 %" over a run and
changes frequently.
"""

from repro.experiments.figures import FIGURES

from common import run_once


def test_fig01_optimal_configuration_drift(benchmark):
    (claim,) = FIGURES["fig1"]  # a five-job mix as in the paper's Fig. 1

    drift = run_once(benchmark, claim.run)

    print(f"\n{claim.render(drift)}")

    # Observation 1: the optimum changes significantly and frequently.
    assert drift.n_distinct_configs() >= 3
    assert drift.max_share_change_percent() >= 20.0  # paper: >20% change
