"""Fig. 8: per-mix PARSEC results — SATORI consistent across all 21 mixes.

Paper findings: SATORI outperforms the competition for every job mix
(up to +20 points throughput / +10 points fairness over PARTIES),
never worse than the competing techniques.
"""

from repro.experiments import STANDARD_POLICY_ORDER, format_table

from common import run_once, suite_comparisons


def test_fig08_parsec_per_mix(benchmark):
    comparisons = run_once(benchmark, lambda: suite_comparisons("parsec"))

    # The paper sorts mixes by SATORI's performance.
    ordered = sorted(
        comparisons, key=lambda c: c.score("SATORI").throughput_vs_oracle
    )
    print("\nFig. 8 — per-mix PARSEC results (% of Balanced Oracle, T/F)")
    rows = []
    for index, comparison in enumerate(ordered):
        row = [index, comparison.mix_label[:44]]
        for name in STANDARD_POLICY_ORDER:
            score = comparison.score(name)
            row.append(f"{score.throughput_vs_oracle:.0f}/{score.fairness_vs_oracle:.0f}")
        rows.append(row)
    print(format_table(["#", "mix"] + list(STANDARD_POLICY_ORDER), rows))

    combined_wins = sum(
        c.score("SATORI").throughput_vs_oracle + c.score("SATORI").fairness_vs_oracle
        > c.score("PARTIES").throughput_vs_oracle + c.score("PARTIES").fairness_vs_oracle
        for c in comparisons
    )
    throughput_wins = sum(
        c.score("SATORI").throughput_vs_oracle > c.score("PARTIES").throughput_vs_oracle
        for c in comparisons
    )
    print(
        f"\nSATORI beats PARTIES: throughput on {throughput_wins}/21 mixes, "
        f"combined objective on {combined_wins}/21 mixes"
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
