"""BO hot-path microbenchmark: gated length-scale refits + incremental
Cholesky versus the naive per-interval grid search.

The controller calls ``BayesianOptimizer.suggest()`` every 100 ms
control interval. The naive proxy-model update re-runs the length-scale
grid search — ``len(_LENGTHSCALE_GRID)`` full Cholesky factorizations —
and refactorizes from scratch on every call, so its per-step cost grows
cubically with the sample count. The gated path (the default) searches
the grid only every ``lengthscale_refit_every`` new samples and extends
the persistent GP's Cholesky factor incrementally in between.

This benchmark replays the same growing-sample trace through both
update strategies and reports the per-step time series plus the total
speedup. The speedup assertion is deliberately loose (>1.5x) because
figure machines range from laptops to single-core CI boxes; typical
speedups on the 150-sample trace are well above 3x.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.bo import BayesianOptimizer
from repro.core.gp import GaussianProcess
from repro.core.kernels import Matern52
from repro.core.objective import GoalRecords
from repro.resources.space import ConfigurationSpace
from repro.experiments.runner import experiment_catalog

from common import run_once

#: Samples in the replayed controller trace (≈ 15 s at 0.1 s intervals).
N_SAMPLES = 150

#: Gated refit period benchmarked here (the BO default is 10).
REFIT_EVERY = 5

#: Alternating passes of each suggest() loop; each side's fastest counts.
TIMING_ROUNDS = 3


def _trace(n: int, d: int = 12, seed: int = 0):
    """A synthetic growing (x, y) trace shaped like encoded configs."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, d))
    y = np.sin(3.0 * x[:, 0]) + 0.5 * x[:, 1] + rng.normal(scale=0.05, size=n)
    return x, y


def _replay(gp_factory, x, y, persistent: bool):
    """Per-step fit times replaying the trace through a GP strategy."""
    times = []
    gp = gp_factory() if persistent else None
    for n in range(4, x.shape[0] + 1):
        model = gp if persistent else gp_factory()
        started = time.perf_counter()
        model.fit(x[:n], y[:n], optimize_lengthscale=True)
        times.append(time.perf_counter() - started)
    return np.asarray(times)


@pytest.mark.slow
def test_bo_refit_speedup(benchmark):
    x, y = _trace(N_SAMPLES)

    def measure():
        naive = _replay(
            lambda: GaussianProcess(kernel=Matern52(), noise=5e-2),
            x, y, persistent=False,
        )
        gated = _replay(
            lambda: GaussianProcess(
                kernel=Matern52(), noise=5e-2, lengthscale_refit_every=REFIT_EVERY
            ),
            x, y, persistent=True,
        )
        return naive, gated

    naive, gated = run_once(benchmark, measure)
    speedup = naive.sum() / max(gated.sum(), 1e-12)
    print(
        f"\nGP proxy update over {N_SAMPLES} samples: "
        f"naive {naive.sum() * 1e3:.1f} ms total "
        f"({naive[-1] * 1e6:.0f} us last step), "
        f"gated {gated.sum() * 1e3:.1f} ms total "
        f"({gated[-1] * 1e6:.0f} us last step), "
        f"speedup {speedup:.1f}x"
    )
    assert speedup > 1.5


@pytest.mark.slow
def test_controller_step_speedup():
    """End-to-end suggest() loop: gated default vs forced every-step refit."""
    catalog = experiment_catalog(units=6)
    space = ConfigurationSpace(catalog, 3)

    def loop(refit_every: int) -> float:
        bo = BayesianOptimizer(space, lengthscale_refit_every=refit_every, rng=1)
        # Window wider than the trace so the proxy-model update (the
        # part the gating accelerates) dominates candidate scoring.
        records = GoalRecords(max_samples=N_SAMPLES + 8)
        rng = np.random.default_rng(2)
        total = 0.0
        for _ in range(N_SAMPLES):
            config = space.sample(rng)
            encoded = space.encode_batch([config])[0]
            records.add(config, encoded, scores=(rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)))
            started = time.perf_counter()
            bo.suggest(records, (0.5, 0.5))
            total += time.perf_counter() - started
        return total

    # A single pass of each is one wall-clock race that a load burst during
    # either pass can decide, so alternate them and compare each side's
    # best pass.
    forced_passes, gated_passes = [], []
    for _ in range(TIMING_ROUNDS):
        forced_passes.append(loop(refit_every=1))
        gated_passes.append(loop(refit_every=REFIT_EVERY))
    forced, gated = min(forced_passes), min(gated_passes)
    print(
        f"\nsuggest() loop over {N_SAMPLES} intervals, best of {TIMING_ROUNDS} "
        f"alternating passes: every-step refit {forced * 1e3:.1f} ms, "
        f"gated (K={REFIT_EVERY}) {gated * 1e3:.1f} ms, "
        f"speedup {forced / max(gated, 1e-12):.2f}x"
    )
    # Both loops share the incremental-Cholesky path; the gated one
    # additionally skips 4 of every 5 grid searches, so it must win.
    assert gated < forced
