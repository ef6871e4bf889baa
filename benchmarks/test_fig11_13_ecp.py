"""Figs. 11 & 13: ECP per-mix and aggregate results.

Paper findings: SATORI outperforms the competition across the 10
two-job ECP mixes (+15 points throughput and fairness over PARTIES);
the minife+swfft mix is SATORI's hardest (both want the LLC), and the
amg+hypre mix its easiest (similar requirements, easy search space).
"""

from repro.experiments import STANDARD_POLICY_ORDER, aggregate
from repro.experiments.figures import FIGURES

from common import run_once


def test_fig11_13_ecp(benchmark):
    (per_mix,), (aggregated,) = FIGURES["fig11"], FIGURES["fig13"]
    comparisons = run_once(benchmark, per_mix.run)
    agg = aggregate(comparisons, STANDARD_POLICY_ORDER)

    print(f"\n{per_mix.render(comparisons)}")
    print(f"\n{aggregated.render(aggregated.run())}")

    satori_t, satori_f = agg["SATORI"]
    assert satori_t >= 88.0
    assert satori_f >= 92.0
    assert satori_t >= agg["PARTIES"][0] - 3.0
    assert agg["Random"][0] < agg["CoPart"][0]

    # The amg+hypre mix is among SATORI's best (paper's mix-9 analysis).
    by_label = {c.mix_label: c.score("SATORI").throughput_vs_oracle for c in comparisons}
    amg_hypre = by_label["amg+hypre"]
    median = sorted(by_label.values())[len(by_label) // 2]
    assert amg_hypre >= median - 6.0
