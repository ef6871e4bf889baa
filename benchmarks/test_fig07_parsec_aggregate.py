"""Fig. 7: PARSEC aggregate — SATORI beats all techniques on both goals.

Paper findings (21 five-job mixes, % of Balanced Oracle): SATORI
reaches 92 % on throughput and fairness, +14 points over the next
best technique (PARTIES) on both; ordering Random < dCAT < CoPart <
PARTIES < SATORI.
"""

from repro.experiments import STANDARD_POLICY_ORDER, aggregate
from repro.experiments.figures import FIGURES

from common import run_once


def test_fig07_parsec_aggregate(benchmark):
    (claim,) = FIGURES["fig7"]
    comparisons = run_once(benchmark, claim.run)
    agg = aggregate(comparisons, STANDARD_POLICY_ORDER)

    print(f"\n{claim.render(comparisons)}")

    satori_t, satori_f = agg["SATORI"]
    parties_t, parties_f = agg["PARTIES"]

    # Headline shape: SATORI near the oracle and ahead of PARTIES.
    assert satori_t >= 85.0, "SATORI should be near the Balanced Oracle (paper: 92 %)"
    assert satori_f >= 85.0
    assert satori_t > parties_t + 5.0, "paper: +14 points over PARTIES on throughput"

    # Throughput ordering of the baselines (paper Fig. 7(a)).
    assert agg["Random"][0] < agg["CoPart"][0] < agg["PARTIES"][0] < satori_t
    assert agg["dCAT"][0] < agg["PARTIES"][0]

    # Fairness: every managed technique above Random (paper Fig. 7(b)).
    for name in ("dCAT", "CoPart", "PARTIES", "SATORI"):
        assert agg[name][1] > agg["Random"][1]
