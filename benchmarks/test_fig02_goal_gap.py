"""Fig. 2 / Observation 2: throughput- and fairness-optimal configs differ.

Paper findings at one instant: the two optimal configurations differ
by up to 40 %; the throughput-optimal config reaches only 67 % of the
optimal fairness and the fairness-optimal config only 59 % of the
optimal throughput; averaging the two optima or alternating between
them stays well below the Balanced Oracle.
"""

from repro.experiments.figures import FIGURES

from common import run_once


def test_fig02_conflicting_goal_gap(benchmark):
    (claim,) = FIGURES["fig2"]

    gaps = run_once(benchmark, claim.run)

    print(f"\n{claim.render(gaps)}")

    for gap in gaps:
        # The optima genuinely conflict...
        assert gap.cross_fairness_ratio < 0.97
        assert gap.cross_throughput_ratio < 0.97
        assert gap.config_distance > 0
        # ...and naive compromises do not reach the Balanced Oracle.
        balanced = 0.5 * sum(gap.balanced_opt)
        assert 0.5 * sum(gap.average_config) <= balanced + 1e-9
        assert 0.5 * sum(gap.alternating) <= balanced + 1e-9
