"""Co-location-degree scalability (Sec. V, "scalability" paragraph).

The paper: as the co-location degree grows from 3 to 7 applications,
the %-point gap between SATORI and PARTIES grows monotonically
(8, 11, 13, 13, 15 points) because the configuration space grows and
gradient descent gets stuck in the proliferating local maxima.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.engine import ExecutionEngine
from repro.errors import ExperimentError
from repro.resources.types import ResourceCatalog
from repro.rng import SeedLike
from repro.experiments.comparison import compare_on_mixes, seed_to_int
from repro.experiments.runner import RunConfig, experiment_catalog
from repro.workloads.mixes import suite_mixes
from repro.workloads.registry import default_registry


@dataclass(frozen=True)
class DegreePoint:
    """Scores at one co-location degree."""

    degree: int
    satori_throughput: float
    satori_fairness: float
    parties_throughput: float
    parties_fairness: float

    @property
    def throughput_gap_points(self) -> float:
        return self.satori_throughput - self.parties_throughput

    @property
    def fairness_gap_points(self) -> float:
        return self.satori_fairness - self.parties_fairness


@dataclass(frozen=True)
class ScalabilityResult:
    """SATORI-vs-PARTIES gap across co-location degrees."""

    points: List[DegreePoint]

    def gaps(self) -> List[float]:
        """Mean of the throughput and fairness gaps per degree."""
        return [
            0.5 * (p.throughput_gap_points + p.fairness_gap_points) for p in self.points
        ]


def colocation_scalability(
    degrees: Sequence[int] = (3, 4, 5, 6, 7),
    mixes_per_degree: int = 2,
    catalog: Optional[ResourceCatalog] = None,
    run_config: Optional[RunConfig] = None,
    seed: SeedLike = 0,
    engine: Optional[ExecutionEngine] = None,
) -> ScalabilityResult:
    """Compare SATORI and PARTIES across co-location degrees.

    For each degree, a few representative PARSEC mixes (deterministically
    chosen from the ``C(7, degree)`` combinations) are averaged; each
    degree's mixes go to the engine as one batch.
    """
    catalog = catalog or experiment_catalog()
    engine = engine or ExecutionEngine()
    seed_int = seed_to_int(seed)
    n_available = len(default_registry().suite("parsec"))

    points = []
    for degree in degrees:
        if degree > n_available:
            raise ExperimentError(
                f"degree {degree} exceeds the {n_available} workloads of suite 'parsec'"
            )
        all_mixes = suite_mixes("parsec", mix_size=degree)
        stride = max(1, len(all_mixes) // mixes_per_degree)
        chosen = all_mixes[::stride][:mixes_per_degree]

        comparisons = compare_on_mixes(
            chosen,
            catalog=catalog,
            run_config=run_config,
            seed=seed_int,
            include=("PARTIES", "SATORI"),
            engine=engine,
        )
        sat_t = [c.score("SATORI").throughput_vs_oracle for c in comparisons]
        sat_f = [c.score("SATORI").fairness_vs_oracle for c in comparisons]
        par_t = [c.score("PARTIES").throughput_vs_oracle for c in comparisons]
        par_f = [c.score("PARTIES").fairness_vs_oracle for c in comparisons]

        points.append(
            DegreePoint(
                degree=degree,
                satori_throughput=float(np.mean(sat_t)),
                satori_fairness=float(np.mean(sat_f)),
                parties_throughput=float(np.mean(par_t)),
                parties_fairness=float(np.mean(par_f)),
            )
        )
    return ScalabilityResult(points=points)
