"""The BO engine: proxy model + acquisition over the configuration space.

Implements the iterative loop of Algorithm 1's lines 6-8: update the
GP proxy model on the (freshly reconstructed) objective values, score
a candidate pool with the acquisition function, and emit the next
configuration to run.

Because the configuration space is discrete and combinatorially large,
the acquisition is maximized over a *candidate pool* rather than the
full space: uniform samples for global exploration, the one-unit-move
neighbors of the current best for local refinement, and the previously
sampled points themselves (the paper explicitly allows re-evaluation
of sampled configurations so phase changes are tracked, Sec. III-C).

The pool is one ``(n, dimensions)`` int array in the space's row form
(``repro.resources.space``), deduplicated and encoded as a block; only
the winning row becomes a :class:`Configuration`, the type every
boundary (suggestions, probes, snapshots) carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.acquisition import AcquisitionFunction, make_acquisition
from repro.core.gp import GaussianProcess
from repro.core.kernels import Kernel, Matern52
from repro.core.objective import GoalRecords
from repro.errors import ModelError
from repro.obs import active_collector
from repro.resources.allocation import Configuration
from repro.resources.space import ConfigurationSpace
from repro.rng import SeedLike, make_rng, rng_from_state, rng_state
from repro.state import STATE_VERSION, check_version


#: Spaces up to this size get exact acquisition maximization.
_EXACT_ACQUISITION_LIMIT = 2048

#: GP observation-noise variance (standardized units).
_NOISE = 5e-2

#: Size of the fixed probe set that reports the proxy-model change
#: metric of Fig. 17(b).
_N_PROBES = 48


@dataclass(frozen=True)
class Suggestion:
    """The BO engine's output for one iteration."""

    config: Configuration
    acquisition_value: float
    predicted_mean: float
    predicted_std: float
    incumbent_value: float
    proxy_change_percent: float


class BayesianOptimizer:
    """Suggests the next configuration to evaluate (Algorithm 1, lines 6-8).

    Args:
        space: the configuration space being searched.
        acquisition: acquisition function or name (default the paper's
            Expected Improvement).
        kernel: GP kernel (default the paper's Matérn 5/2).
        candidate_pool_size: uniform random candidates per iteration.
        lengthscale_refit_every: re-select the kernel length scale by
            marginal likelihood after every N *new samples* (0 pins the
            initial length scale forever). Between refits the incumbent
            length scale is reused and the GP extends its Cholesky
            factor incrementally, keeping the per-interval cost of
            ``suggest()`` quadratic rather than cubic in the sample
            count (see ``benchmarks/test_bo_refit.py``). The default of
            10 keeps proxy-model trajectories indistinguishable from
            search-every-interval runs on the reproduction suite while
            skipping 90% of grid searches; pushing the cadence to ~5
            starts to chase GoalRecords window churn (transient grid
            winners) and measurably hurts adaptation after workload-mix
            changes.
        rng: seed or generator for candidate sampling.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        acquisition: "AcquisitionFunction | str" = "ei",
        kernel: Optional[Kernel] = None,
        candidate_pool_size: int = 96,
        lengthscale_refit_every: int = 10,
        rng: SeedLike = None,
    ):
        if candidate_pool_size < 1:
            raise ModelError(f"candidate_pool_size must be >= 1, got {candidate_pool_size}")
        self._space = space
        self._acquisition = (
            make_acquisition(acquisition) if isinstance(acquisition, str) else acquisition
        )
        self._pool_size = candidate_pool_size
        self._refit_every = max(0, lengthscale_refit_every)
        # One persistent GP: reusing the instance is what lets fit()
        # extend its Cholesky factor as samples accumulate instead of
        # refactorizing from scratch each control interval.
        self._gp = GaussianProcess(
            kernel=kernel or Matern52(),
            noise=_NOISE,
            lengthscale_refit_every=max(1, self._refit_every),
        )
        self._rng = make_rng(rng)

        self._iteration = 0
        # The probes stay rows; a snapshot renders them as
        # configuration dicts.
        self._probe_rows = space.sample_rows(_N_PROBES, self._rng)
        self._probe_x = space.encode_rows(self._probe_rows)
        self._last_probe_means: Optional[np.ndarray] = None

        # On small spaces the acquisition is maximized exactly over the
        # whole space (Algorithm 1's "optimize a(x)"); on large spaces
        # a sampled candidate pool approximates it. The enumeration and
        # its encoding never change, so they are built once.
        self._full_space: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if space.size() <= _EXACT_ACQUISITION_LIMIT:
            rows = space.enumerate_rows()
            self._full_space = (rows, space.encode_rows(rows))

    @property
    def space(self) -> ConfigurationSpace:
        return self._space

    @property
    def iteration(self) -> int:
        return self._iteration

    # -- snapshot / restore ----------------------------------------------

    def snapshot(self) -> dict:
        """The optimizer's mutable state as a versioned JSON dict.

        Captures the GP posterior, the candidate-sampling RNG position
        (the numpy bit-generator state), the iteration counter, the
        proxy-change probe set (drawn from the RNG at construction — a
        restored optimizer is built from a different seed, so the
        probes must travel) and the previous probe means. The
        precomputed full-space enumeration is *not* state: it is a pure
        function of the space and is rebuilt by the constructor.
        """
        means = self._last_probe_means
        return {
            "gp": self._gp.snapshot(),
            "rng": rng_state(self._rng),
            "iteration": self._iteration,
            "probes": self._space.row_dicts(self._probe_rows),
            "last_probe_means": None if means is None else means.tolist(),
            "version": STATE_VERSION,
        }

    def restore(self, state: dict) -> "BayesianOptimizer":
        """Resume from a :meth:`snapshot`; returns self for chaining.

        Only reads ``state``: its data is shared with the snapshot. The
        probe encodings are recomputed from the space.
        """
        check_version("BO state", state.get("version", STATE_VERSION))
        self._gp.restore(state["gp"])
        self._rng = rng_from_state(state["rng"])
        self._iteration = int(state["iteration"])
        probes = [Configuration.from_dict(d) for d in state["probes"]]
        for probe in probes:
            if not self._space.contains(probe):
                raise ModelError(f"probe {probe!r} is outside this optimizer's space")
        self._probe_rows = self._space.to_rows(probes)
        self._probe_x = self._space.encode_rows(self._probe_rows)
        means = state.get("last_probe_means")
        self._last_probe_means = None if means is None else np.asarray(means, dtype=float)
        return self

    def suggest(self, records: GoalRecords, weights: Sequence[float]) -> Suggestion:
        """Fit the proxy model and pick the next configuration.

        Args:
            records: the per-goal evaluation records.
            weights: current goal weights; the objective values are
                reconstructed from the records under these weights
                (Sec. III-B) before the GP is fitted.
        """
        if len(records) < 1:
            raise ModelError("BO needs at least one recorded sample; run the initial set first")
        obs = active_collector()
        gp = self._gp
        with obs.span("suggest", "bo"):
            # The gp_fit span covers the whole model update of
            # Algorithm 1 lines 6-7: reconstructing the objective
            # values under the current weights (Sec. III-B) and
            # conditioning the GP on them. The GP itself gates the grid
            # search by sample growth (lengthscale_refit_every);
            # refit_every == 0 disables it.
            with obs.span("gp_fit", "bo"):
                x = records.inputs()
                y = records.objective_values(weights)
                incumbent = float(np.max(y))
                gp.fit(x, y, optimize_lengthscale=self._refit_every > 0)

            # The acquisition span covers everything posterior-side:
            # the probe-set predictions of the proxy-change metric,
            # candidate generation, and the acquisition scan itself.
            with obs.span("acquisition", "bo"):
                proxy_change = self._track_proxy_change(gp)

                rows, encoded = self._candidate_pool(x, y)
                mean, std = gp.predict(encoded)
                scores = self._acquisition(mean, std, incumbent)
                best = int(np.argmax(scores))

            self._iteration += 1
            return Suggestion(
                config=self._space.from_row(rows[best]),
                acquisition_value=float(scores[best]),
                predicted_mean=float(mean[best]),
                predicted_std=float(std[best]),
                incumbent_value=incumbent,
                proxy_change_percent=proxy_change,
            )

    def _candidate_pool(self, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Random + local-neighbor + already-sampled candidates.

        ``x`` and ``y`` are the recorded encodings and objective values
        the GP was just fitted on, in sample order; the incumbent is
        the first argmax of ``y``, the sample ``GoalRecords.best``
        picks under the same weights.

        Returns the pool as rows and its encoding. Small spaces return
        the full enumeration instead — the acquisition is then
        maximized exactly.
        """
        if self._full_space is not None:
            return self._full_space
        space = self._space
        best = space.decode_rows(x[[int(np.argmax(y))]])
        blocks = [
            space.sample_rows(self._pool_size, self._rng),
            space.neighbor_rows(best[0]),
            best,
        ]
        # Previously sampled configurations stay eligible (re-evaluation
        # keeps the model honest across phase changes).
        blocks.append(space.decode_rows(x[-8:]))

        # Keep first occurrences in pool order: argmax breaks ties by
        # position, so the order is part of the result. Each row is
        # viewed as one opaque bytes item, which np.unique sorts several
        # times faster than it sorts rows with axis=0 (same indices).
        pool = np.concatenate(blocks)
        items = pool.view(np.dtype((np.void, pool.itemsize * pool.shape[1]))).ravel()
        _, first = np.unique(items, return_index=True)
        pool = pool[np.sort(first)]
        return pool, space.encode_rows(pool)

    def _track_proxy_change(self, gp: GaussianProcess) -> float:
        """Mean absolute change of proxy estimates on the probe set.

        This is the Fig. 17(b) metric: the percentage change in the
        proxy model's estimates from one iteration to the next,
        measured on a fixed set of configurations.
        """
        means = gp.predict_mean(self._probe_x)
        if self._last_probe_means is None:
            self._last_probe_means = means
            return 0.0
        denom = max(float(np.mean(np.abs(self._last_probe_means))), 1e-9)
        change = float(np.mean(np.abs(means - self._last_probe_means))) / denom * 100.0
        self._last_probe_means = means
        return change
