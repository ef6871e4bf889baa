"""Fig. 16: low sensitivity to the prioritization and equalization periods.

Paper findings: SATORI's throughput and fairness are flat across a
wide range of T_P and T_E; degradation appears only for very long
periods (T_P > 5 s, T_E > 30 s). No tuning effort is required.
"""

from repro.experiments.figures import FIGURES

from common import run_once


def test_fig16_period_sensitivity(benchmark):
    (claim,) = FIGURES["fig16"]

    result = run_once(benchmark, claim.run)

    print(f"\n{claim.render(result)}")

    # Low sensitivity: parameter choice in a reasonable range moves the
    # outcome by far less than the SATORI-vs-baseline gaps (~15+ pts).
    assert result.prioritization_spread() < 15.0
    assert result.equalization_spread() < 15.0
    for point in result.prioritization + result.equalization:
        assert point.throughput_vs_oracle > 75.0
        assert point.fairness_vs_oracle > 80.0
