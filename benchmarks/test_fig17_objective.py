"""Fig. 17: the moving-goal-post objective helps without destabilizing BO.

Paper findings: (a) SATORI achieves higher objective-function values
over time than SATORI without dynamic prioritization; (b) the
percentage change of the proxy model per iteration stays in the same
range for both variants — the bounded weights keep the BO engine near
its expected behaviour.
"""

import numpy as np

from repro.experiments.figures import FIGURES

from common import run_once


def test_fig17_objective_and_proxy_stability(benchmark):
    (claim,) = FIGURES["fig17"]  # the paper's Fig. 17 mix

    traces = run_once(benchmark, claim.run)

    print(f"\n{claim.render(traces)}")
    (_, dyn_hi), (_, sta_hi) = traces.proxy_change_ranges()

    # (a) dynamic prioritization does not lower the achieved objective.
    assert np.nanmean(traces.dynamic_objective) >= np.nanmean(traces.static_objective) - 0.02

    # (b) proxy-model churn stays in the same range for both variants:
    # the dynamic objective does not blow up the BO engine.
    assert dyn_hi <= max(sta_hi, 1e-9) * 5.0 + 5.0
    assert np.nanmedian(traces.dynamic_proxy_change) <= (
        np.nanmedian(traces.static_proxy_change) * 5.0 + 5.0
    )
