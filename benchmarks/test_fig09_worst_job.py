"""Fig. 9: the worst-performing job in a mix does best under SATORI.

Paper findings: across all 21 PARSEC mixes, the worst-performing job
performs better with SATORI than with any competing technique,
averaging 87 % of the Balanced Oracle's worst-job performance.
"""

import numpy as np

from repro.experiments import STANDARD_POLICY_ORDER
from repro.experiments.figures import FIGURES

from common import run_once


def test_fig09_worst_job(benchmark):
    (claim,) = FIGURES["fig9"]
    comparisons = run_once(benchmark, claim.run)

    means = {
        name: float(
            np.mean([c.score(name).worst_job_vs_oracle for c in comparisons])
        )
        for name in STANDARD_POLICY_ORDER
    }

    print(f"\n{claim.render(comparisons)}")

    # SATORI protects the worst job better than the non-fairness
    # baselines and lands near the oracle (paper: 87 %).
    assert means["SATORI"] >= 70.0
    assert means["SATORI"] > means["Random"]
    assert means["SATORI"] > means["dCAT"]
    satori_wins = sum(
        c.score("SATORI").worst_job_vs_oracle > c.score("Random").worst_job_vs_oracle
        for c in comparisons
    )
    assert satori_wins >= 15
