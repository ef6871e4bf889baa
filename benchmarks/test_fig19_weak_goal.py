"""Fig. 19: prioritizing the weaker goal beats prioritizing the stronger one.

Paper finding: giving the next prioritization window to the goal that
improved *less* (SATORI's Eq. 4) reaches higher levels of both goals
than favoring the goal that just improved more; the paper measured
the alternative to underperform by roughly 5 %.
"""

import numpy as np

from repro.experiments.figures import FIGURES

from common import run_once


def test_fig19_weak_goal_prioritization(benchmark):
    (claim,) = FIGURES["fig19"]

    results = run_once(benchmark, claim.run)

    print(f"\n{claim.render(results)}")
    weaker = np.mean([r.dynamic.throughput + r.dynamic.fairness for r in results])
    stronger = np.mean([r.other.throughput + r.other.fairness for r in results])

    # The chosen design must not lose to the alternative.
    assert weaker >= stronger * 0.98
