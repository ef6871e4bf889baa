"""Synthetic workload generation.

Random-but-plausible workload models for property-based tests and for
stress-testing policies beyond the fixed benchmark suites. Parameter
ranges bracket the benchmark profiles in :mod:`repro.workloads.parsec`
/ ``cloudsuite`` / ``ecp``.
"""

from __future__ import annotations

from typing import List

from repro.rng import SeedLike, make_rng
from repro.workloads.model import Phase, PhaseSchedule, Workload

MB = float(2**20)


def random_phase(rng: SeedLike = None) -> Phase:
    """Draw one random phase with realistic parameter ranges."""
    rng = make_rng(rng)
    miss_floor = float(rng.uniform(0.0003, 0.006))
    return Phase(
        ips_per_core=float(rng.uniform(0.8e9, 3.0e9)),
        parallel_fraction=float(rng.uniform(0.5, 0.99)),
        working_set_bytes=float(rng.uniform(0.5, 40.0)) * MB,
        miss_peak=miss_floor + float(rng.uniform(0.001, 0.02)),
        miss_floor=miss_floor,
        stream_bytes_per_instr=float(rng.uniform(0.0, 2.0)),
    )


def random_workload(name: str = "synthetic", rng: SeedLike = None) -> Workload:
    """Draw one random workload with three cyclic phases."""
    rng = make_rng(rng)
    segments = tuple((float(rng.uniform(1.5, 6.0)), random_phase(rng)) for _ in range(3))
    return Workload(
        name=name,
        suite="synthetic",
        description="randomly generated workload",
        schedule=PhaseSchedule(segments),
        contention_sensitivity=float(rng.uniform(0.02, 0.12)),
    )


def random_workloads(count: int, rng: SeedLike = None) -> List[Workload]:
    """Draw ``count`` distinct random workloads."""
    rng = make_rng(rng)
    return [random_workload(f"synthetic_{i}", rng=rng) for i in range(count)]
