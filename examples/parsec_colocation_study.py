#!/usr/bin/env python3
"""Co-location study: all competing policies on PARSEC mixes (mini Fig. 7/8).

Runs Random, dCAT, CoPart, PARTIES, and SATORI on several five-job
PARSEC mixes and reports throughput and fairness as a percentage of
the Balanced Oracle — the paper's Fig. 7/8 presentation. Use
``--mixes N`` for more mixes (all 21 reproduces Fig. 8; the default
subset keeps the example fast).

Run:
    python examples/parsec_colocation_study.py [--mixes 4] [--duration 20]
"""

import argparse

from repro import RunConfig, experiment_catalog, suite_mixes
from repro.experiments import (
    STANDARD_POLICY_ORDER,
    aggregate,
    compare_on_mixes,
    format_table,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mixes", type=int, default=4, help="number of PARSEC mixes (max 21)")
    parser.add_argument("--duration", type=float, default=20.0, help="simulated seconds per run")
    args = parser.parse_args()

    catalog = experiment_catalog()
    all_mixes = suite_mixes("parsec")
    stride = max(1, len(all_mixes) // args.mixes)
    mixes = all_mixes[::stride][: args.mixes]

    comparisons = compare_on_mixes(
        mixes, catalog, RunConfig(duration_s=args.duration), seed=0
    )

    print("Per-mix results (% of Balanced Oracle, throughput/fairness):\n")
    rows = []
    for comparison in comparisons:
        row = [comparison.mix_label[:48]]
        for name in STANDARD_POLICY_ORDER:
            score = comparison.score(name)
            row.append(f"{score.throughput_vs_oracle:.0f}/{score.fairness_vs_oracle:.0f}")
        rows.append(row)
    print(format_table(["mix"] + list(STANDARD_POLICY_ORDER), rows))

    print("\nAggregate (mean % of Balanced Oracle):\n")
    agg = aggregate(comparisons, STANDARD_POLICY_ORDER)
    print(
        format_table(
            ["policy", "throughput %", "fairness %"],
            [[name, t, f] for name, (t, f) in agg.items()],
        )
    )

    satori_t, satori_f = agg["SATORI"]
    parties_t, parties_f = agg["PARTIES"]
    print(
        f"\nSATORI vs PARTIES: {satori_t - parties_t:+.1f} throughput points, "
        f"{satori_f - parties_f:+.1f} fairness points "
        "(paper: +14 points on both at this co-location degree)."
    )


if __name__ == "__main__":
    main()
