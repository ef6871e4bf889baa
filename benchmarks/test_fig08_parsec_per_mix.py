"""Fig. 8: per-mix PARSEC results — SATORI consistent across all 21 mixes.

Paper findings: SATORI outperforms the competition for every job mix
(up to +20 points throughput / +10 points fairness over PARTIES),
never worse than the competing techniques.
"""

from repro.experiments.figures import FIGURES

from common import run_once


def test_fig08_parsec_per_mix(benchmark):
    (claim,) = FIGURES["fig8"]
    comparisons = run_once(benchmark, claim.run)

    print(f"\n{claim.render(comparisons)}")

    combined_wins = sum(
        c.score("SATORI").throughput_vs_oracle + c.score("SATORI").fairness_vs_oracle
        > c.score("PARTIES").throughput_vs_oracle + c.score("PARTIES").fairness_vs_oracle
        for c in comparisons
    )
    throughput_wins = sum(
        c.score("SATORI").throughput_vs_oracle > c.score("PARTIES").throughput_vs_oracle
        for c in comparisons
    )

    # Consistency: SATORI wins the combined objective on a strong
    # majority of mixes and throughput on nearly all.
    assert throughput_wins >= 17
    assert combined_wins >= 14

    # SATORI is never catastrophically worse than PARTIES anywhere.
    for comparison in comparisons:
        satori = comparison.score("SATORI")
        parties = comparison.score("PARTIES")
        assert satori.throughput_vs_oracle > parties.throughput_vs_oracle - 10.0
