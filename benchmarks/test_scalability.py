"""Sec. V scalability: SATORI's advantage grows with co-location degree.

Paper finding: the %-point gap between SATORI and PARTIES increases
monotonically with the number of co-located applications
(8 / 11 / 13 / 13 / 15 points for 3-7 applications) because the
configuration space and its local maxima grow, defeating gradient
descent first.
"""

import numpy as np

from repro.experiments.figures import FIGURES

from common import run_once


def test_scalability_colocation_degree(benchmark):
    (claim,) = FIGURES["scalability"]

    result = run_once(benchmark, claim.run)

    print(f"\n{claim.render(result)}")
    gaps = result.gaps()

    # The trend: the gap at high degree clearly exceeds the gap at low
    # degree (gradient descent degrades first as the space grows).
    low = np.mean(gaps[:2])
    high = np.mean(gaps[-2:])
    assert high > low, "SATORI's advantage must grow with co-location degree"
    assert gaps[-1] > 0, "SATORI must lead PARTIES outright at degree 7"
