"""Sec. V overhead: SATORI is practical for real systems.

Paper findings: all BO-related tasks take ~1.2 ms of each 100 ms
interval; decisions are off the critical path (jobs keep running under
the previous configuration); the idle optimization skips BO work when
performance is stable. This bench measures the reproduction's
controller on a live run plus the raw GP-update + acquisition
micro-cost.
"""

import numpy as np

from repro.core.bo import BayesianOptimizer
from repro.core.objective import GoalRecords
from repro.experiments import experiment_catalog
from repro.experiments.comparison import full_space
from repro.experiments.figures import FIGURES

from common import run_once


def test_overhead_controller_decision_time(benchmark):
    (claim,) = FIGURES["overhead"]

    result = run_once(benchmark, claim.run)

    print(f"\n{claim.render(result)}")

    # Decisions fit comfortably inside one control interval, and the
    # idle optimization actually engages.
    assert result.decision_fraction_of_interval < 0.5
    assert result.idle_fraction > 0.0


def test_overhead_bo_engine_microbench(benchmark):
    """Raw cost of one GP update + acquisition pass (the paper's 1.2 ms)."""
    catalog = experiment_catalog()
    space = full_space(catalog, 5)
    records = GoalRecords()
    rng = np.random.default_rng(0)
    import repro.rng as rng_mod

    gen = rng_mod.make_rng(0)
    for _ in range(64):
        config = space.sample(gen)
        records.add(config, space.encode(config), (rng.random(), rng.random()))
    bo = BayesianOptimizer(space, rng=1)
    bo.suggest(records, (0.5, 0.5))  # warm the probe state

    suggestion = benchmark(lambda: bo.suggest(records, (0.5, 0.5)))
    assert suggestion.config is not None
