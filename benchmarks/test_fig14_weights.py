"""Fig. 14: dynamic weight re-balancing and its benefit over static weights.

Paper findings: (a) the overall throughput/fairness weights deviate by
up to 50 % from 0.5 through temporary prioritization, but average 0.5
over every equalization period; (b) dynamic prioritization yields up
to 10 % additional benefit over static 0.5/0.5 weights, on both goals.
"""

import numpy as np

from repro.experiments.figures import FIGURES

from common import run_once

FIG14A, FIG14B = FIGURES["fig14"]


def test_fig14a_weight_trace(benchmark):
    traced = run_once(benchmark, FIG14A.run)
    trace, _ = traced

    print(f"\n{FIG14A.render(traced)}")
    mean_t, mean_f = trace.mean_weights()
    deviation = trace.max_deviation_from_equal()

    assert abs(mean_t - 0.5) < 0.1, "equalization must pin long-term weights to ~0.5"
    assert deviation > 0.02, "temporary prioritization must actually move the weights"
    assert deviation <= 0.25 + 1e-9, "weights must respect the [0.25, 0.75] bounds"


def test_fig14b_dynamic_vs_static(benchmark):
    results = run_once(benchmark, FIG14B.run)

    print(f"\n{FIG14B.render(results)}")

    # Dynamic prioritization must not lose to static weighting on the
    # combined objective on average.
    combined_dynamic = np.mean([r.dynamic.throughput + r.dynamic.fairness for r in results])
    combined_static = np.mean([r.other.throughput + r.other.fairness for r in results])
    assert combined_dynamic >= combined_static * 0.97
