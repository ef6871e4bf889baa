"""Fig. 3 / Observation 3: the re-balancing opportunity exists.

Paper finding: at two different times, configuration pairs exist with
(approximately) the same throughput difference but fairness
differences in opposite directions — so prioritizing different goals
at different times yields a net gain.
"""

from repro.experiments.figures import FIGURES

from common import run_once


def test_fig03_rebalancing_opportunity(benchmark):
    (claim,) = FIGURES["fig3"]

    example = run_once(benchmark, claim.run)

    assert example is not None, "no re-balancing opportunity found (Observation 3 fails)"
    print(f"\n{claim.render(example)}")

    assert example.demonstrates_opportunity
    # The throughput deltas are matched within the search tolerance.
    assert abs(example.throughput_delta_a - example.throughput_delta_b) <= 0.25 * abs(
        example.throughput_delta_a
    )
