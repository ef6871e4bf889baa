"""Sec. V resource-subset ablation: SATORI's benefit is the search itself.

Paper findings: restricted to dCAT's single resource (LLC ways),
SATORI still beats dCAT by 4 points throughput / 5 points fairness;
restricted to CoPart's two resources (LLC + bandwidth), it beats
CoPart by 7 / 4 points. Also includes the BO design-choice ablation
(acquisition function and kernel) DESIGN.md calls out.
"""

import numpy as np

from repro.experiments import bo_design_ablation, experiment_catalog, format_table
from repro.experiments.figures import FIGURES
from repro.experiments.runner import RunConfig
from repro.workloads.mixes import suite_mixes

from common import run_once


def test_ablation_resource_subsets(benchmark):
    (claim,) = FIGURES["ablation"]

    results = run_once(benchmark, claim.run)
    llc_results, both_results = results

    print(f"\n{claim.render(results)}")
    llc_gap_t = np.mean([r.throughput_gap_points for r in llc_results])
    both_gap_t = np.mean([r.throughput_gap_points for r in both_results])

    # SATORI's search advantage survives the restricted knob sets.
    assert llc_gap_t > -2.0
    assert both_gap_t > -2.0


def test_ablation_bo_design_choices(benchmark):
    catalog = experiment_catalog()
    mix = suite_mixes("parsec")[17]

    result = run_once(
        benchmark,
        lambda: bo_design_ablation(mix, catalog, RunConfig(duration_s=15.0), seed=7),
    )

    print(f"\nBO design-choice ablation ({mix.label}, % of Balanced Oracle)")
    print(
        format_table(
            ["variant", "throughput %", "fairness %"],
            [[label, t, f] for label, (t, f) in result.scores.items()],
        )
    )

    paper_t, paper_f = result.scores["EI + Matern52 (paper)"]
    # The paper's choice is competitive with every alternative.
    for label, (t, f) in result.scores.items():
        assert paper_t + paper_f >= (t + f) - 12.0, f"{label} dominates the paper design"
