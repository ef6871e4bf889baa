#!/usr/bin/env python3
"""Inside SATORI: dynamic goal prioritization at work (mini Fig. 14).

Runs full SATORI on one mix, prints the throughput/fairness weight
trace with its equalization and prioritization components, and then
compares against the static-0.5/0.5 variant to show the gain that
"sacrificing short-term benefits for long-term gains" buys.

Run:
    python examples/dynamic_prioritization_demo.py
"""

from repro import RunConfig, experiment_catalog, suite_mixes
from repro.experiments import dynamic_vs_static, format_table, weight_trace


def main() -> None:
    catalog = experiment_catalog()
    mix = suite_mixes("parsec")[17]  # a high-gain mix per the paper's analysis
    run_config = RunConfig(duration_s=20.0)

    print(f"Job mix: {mix.label}\n")
    trace, _ = weight_trace(mix, catalog, run_config, seed=3)

    print("Weight trace (1 s samples) — Fig. 14(a) decomposition:\n")
    rows = []
    for i in range(0, len(trace.times), 10):
        rows.append(
            [
                trace.times[i],
                trace.w_throughput[i],
                trace.w_fairness[i],
                trace.prioritization_throughput[i],
                trace.equalization_throughput[i],
            ]
        )
    print(
        format_table(
            ["t (s)", "W_T", "W_F", "W_T prioritization", "W_T equalization"],
            rows,
            precision=3,
        )
    )

    mean_t, mean_f = trace.mean_weights()
    print(
        f"\nLong-term averages: W_T={mean_t:.3f}, W_F={mean_f:.3f} "
        "(the equalization period pins both to ~0.5)"
    )
    print(
        f"Largest short-term deviation from 0.5: {trace.max_deviation_from_equal():.2f} "
        "(the paper observes deviations up to 0.25, i.e. 50 %)"
    )

    print("\nDynamic vs static weights — Fig. 14(b):\n")
    comparison = dynamic_vs_static(mix, catalog, run_config, seed=3)
    print(
        format_table(
            ["variant", "throughput", "fairness"],
            [
                ["SATORI (dynamic)", comparison.dynamic.throughput, comparison.dynamic.fairness],
                ["SATORI (static 0.5/0.5)", comparison.other.throughput, comparison.other.fairness],
            ],
            precision=3,
        )
    )
    print(
        f"\nDynamic prioritization gain: {comparison.throughput_gain_percent:+.1f} % throughput, "
        f"{comparison.fairness_gain_percent:+.1f} % fairness "
        "(paper: up to +10 % on both)."
    )


if __name__ == "__main__":
    main()
