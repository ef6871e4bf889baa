"""Workload-churn adaptation experiment (Sec. III-C claim).

"Be it a phase change or a change in the workload mixes, SATORI
requires no further initialization. It adaptively configures itself to
find the optimal configuration." This driver tests exactly that: run
SATORI on a mix, swap one job for a different workload halfway
through, and measure how quickly performance recovers relative to the
(re-computed) Balanced Oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.controller import SatoriController
from repro.errors import ExperimentError
from repro.policies.oracle import OracleSearch
from repro.resources.types import ResourceCatalog
from repro.rng import SeedLike, make_rng, spawn_rng
from repro.system.session import ControlSession
from repro.system.simulation import CoLocationSimulator
from repro.system.telemetry import TelemetryLog
from repro.experiments.comparison import full_space
from repro.experiments.runner import experiment_catalog
from repro.workloads.mixes import JobMix
from repro.workloads.model import Workload


@dataclass(frozen=True)
class ChurnResult:
    """SATORI's behaviour across a mid-run workload swap."""

    mix_label: str
    newcomer: str
    swap_time_s: float
    telemetry: TelemetryLog
    #: mean weighted objective ratio vs oracle in the window before the swap.
    before_ratio: float
    #: same, in the disturbed window right after the swap.
    disturbance_ratio: float
    #: same, at the end of the run (recovered level).
    recovered_ratio: float

    @property
    def recovers(self) -> bool:
        """Did SATORI re-converge to (near) its pre-swap optimality?

        The pre-swap window is itself a noisy estimate (a lucky
        window can sit a few points above the true steady level), so
        recovery tolerates a 0.10 ratio gap — well below the drop a
        genuinely failed re-convergence produces.
        """
        return self.recovered_ratio >= self.before_ratio - 0.10


def workload_churn(
    mix: JobMix,
    newcomer: Workload,
    swap_index: int = 0,
    catalog: Optional[ResourceCatalog] = None,
    duration_s: float = 30.0,
    swap_time_s: Optional[float] = None,
    seed: SeedLike = 0,
    window_s: float = 4.0,
) -> ChurnResult:
    """Swap ``mix[swap_index]`` for ``newcomer`` mid-run under SATORI.

    The oracle reference is evaluated against whichever mix is active
    at each instant, so the reported ratios compare SATORI to the best
    achievable *for the current workloads*.
    """
    catalog = catalog or experiment_catalog()
    if swap_time_s is None:
        swap_time_s = duration_s / 2.0
    if not 0 < swap_time_s < duration_s:
        raise ExperimentError("swap time must fall inside the run")
    if newcomer.name in mix.names:
        raise ExperimentError(f"{newcomer.name!r} is already part of the mix")

    rng = make_rng(seed)
    simulator = CoLocationSimulator(mix, catalog, seed=spawn_rng(rng))
    controller = SatoriController(full_space(catalog, len(mix)), rng=spawn_rng(rng))
    # The churn driver manages baselines itself: re-measured on the
    # swap, never periodically.
    session = ControlSession(controller, simulator)
    telemetry = session.telemetry

    searches = {
        "before": OracleSearch(mix, catalog),
        "after": None,  # built lazily after the swap
    }

    swapped = False
    n_steps = round(duration_s / simulator.control_interval_s)
    oracle_ratio = []

    for step in range(n_steps):
        raw = session.step()
        if not swapped and raw.time_s >= swap_time_s:
            simulator.replace_workload(swap_index, newcomer)
            searches["after"] = OracleSearch(simulator.mix, catalog)
            session.refresh_baseline()
            swapped = True
        search = searches["after"] if swapped else searches["before"]
        best = search.best(raw.time_s, 0.5, 0.5)
        achieved = telemetry[-1].scores.weighted(0.5, 0.5)
        oracle_ratio.append(achieved / max(best.objective, 1e-12))

    ratios = np.asarray(oracle_ratio)
    interval = simulator.control_interval_s
    window = max(1, round(window_s / interval))
    swap_step = round(swap_time_s / interval)

    return ChurnResult(
        mix_label=mix.label,
        newcomer=newcomer.name,
        swap_time_s=swap_time_s,
        telemetry=telemetry,
        before_ratio=float(np.mean(ratios[max(0, swap_step - window) : swap_step])),
        disturbance_ratio=float(np.mean(ratios[swap_step : swap_step + window])),
        recovered_ratio=float(np.mean(ratios[-window:])),
    )
