"""Fig. 18: observed-performance variation is similar with and without
dynamic prioritization.

Paper finding: SATORI's throughput/fairness curves sit above the
no-prioritization variant's but vary comparably over time — the
changing weights do not make behaviour erratic.
"""

from repro.experiments.figures import FIGURES

from common import run_once


def test_fig18_performance_variation(benchmark):
    (claim,) = FIGURES["fig18"]

    variation = run_once(benchmark, claim.run)

    print(f"\n{claim.render(variation)}")

    # Similar variation: neither variant is more than ~2.5x noisier.
    assert variation.dynamic_throughput_std <= variation.static_throughput_std * 2.5 + 1e-3
    assert variation.dynamic_fairness_std <= variation.static_fairness_std * 2.5 + 1e-3
    # And the dynamic variant sits at or above the static level.
    dynamic_level = sum(variation.dynamic_means)
    static_level = sum(variation.static_means)
    assert dynamic_level >= static_level * 0.97
