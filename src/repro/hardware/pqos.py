"""Simulated ``pqos`` performance monitoring.

The paper samples per-workload instructions-per-second with the
``pqos`` utility at 10 Hz (Sec. IV). This monitor reproduces that
measurement path: it receives the substrate's *true* per-job rates
each interval and reports noisy sampled counters — IPS, LLC occupancy,
and local memory bandwidth — the way Intel RDT event counters would.

Measurement noise is multiplicative lognormal (a few percent), which
matches the jitter of hardware counter sampling and is what makes the
Gaussian-process noise term in SATORI's proxy model meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import HardwareError
from repro.rng import SeedLike, make_rng

#: The paper's sampling rate: 10 Hz.
DEFAULT_SAMPLE_HZ = 10.0


@dataclass(frozen=True)
class PqosSample:
    """One monitoring sample for one job over one interval."""

    job: int
    interval_s: float
    instructions: float
    ips: float
    llc_occupancy_bytes: float
    memory_bandwidth_bytes_s: float


class PqosMonitor:
    """Produces noisy per-job monitoring samples from true rates.

    Counter glitches are not drawn here: the fault model
    (``FaultPlan.sample_outlier_rate``) injects them into the reported
    samples.

    Args:
        noise_sigma: standard deviation of the lognormal multiplicative
            measurement noise (0.02 means roughly +/-2 % jitter).
        rng: seed or generator for the noise stream.
    """

    def __init__(self, noise_sigma: float = 0.02, rng: SeedLike = None):
        if noise_sigma < 0:
            raise HardwareError(f"noise_sigma must be >= 0, got {noise_sigma}")
        self._noise_sigma = noise_sigma
        self._rng = make_rng(rng)

    @property
    def sample_interval_s(self) -> float:
        """Length of one nominal sampling interval in seconds."""
        return 1.0 / DEFAULT_SAMPLE_HZ

    @property
    def rng(self) -> np.random.Generator:
        """The monitor's private noise stream.

        Exposed for snapshot/restore: resuming a server bit-identically
        requires resuming this stream at its exact position
        (:func:`repro.rng.rng_state` / :func:`repro.rng.rng_from_state`).
        """
        return self._rng

    @rng.setter
    def rng(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def observe(
        self,
        true_ips: Sequence[float],
        interval_s: float,
        llc_occupancy_bytes: Sequence[float] = None,
        memory_bandwidth_bytes_s: Sequence[float] = None,
    ) -> List[PqosSample]:
        """Sample one interval: true rates in, noisy counters out.

        Args:
            true_ips: the substrate's true per-job IPS this interval.
            interval_s: interval length in seconds.
            llc_occupancy_bytes: optional true per-job LLC occupancy.
            memory_bandwidth_bytes_s: optional true per-job bandwidth.
        """
        if interval_s <= 0:
            raise HardwareError(f"interval must be positive, got {interval_s}")
        n = len(true_ips)
        occupancy = llc_occupancy_bytes if llc_occupancy_bytes is not None else [0.0] * n
        bandwidth = memory_bandwidth_bytes_s if memory_bandwidth_bytes_s is not None else [0.0] * n
        if len(occupancy) != n or len(bandwidth) != n:
            raise HardwareError("per-job monitoring inputs must have equal lengths")

        noise = self._noise_factors(3 * n)
        samples = []
        for job in range(n):
            ips = max(0.0, float(true_ips[job]) * noise[3 * job])
            samples.append(
                PqosSample(
                    job=job,
                    interval_s=interval_s,
                    instructions=ips * interval_s,
                    ips=ips,
                    llc_occupancy_bytes=float(occupancy[job]) * noise[3 * job + 1],
                    memory_bandwidth_bytes_s=float(bandwidth[job]) * noise[3 * job + 2],
                )
            )
        return samples

    def _noise_factors(self, count: int) -> List[float]:
        """``count`` noise factors in one draw, as Python floats.

        One ``lognormal(size=count)`` call yields the same values, in
        the same order, and leaves the generator in the same state as
        ``count`` scalar draws: the generator fills the array one
        scalar draw at a time. Job ``j``'s IPS, occupancy and bandwidth
        factors are entries ``3j``, ``3j + 1`` and ``3j + 2``, the order
        per-job scalar draws take.
        """
        if self._noise_sigma == 0:
            return [1.0] * count
        return self._rng.lognormal(mean=0.0, sigma=self._noise_sigma, size=count).tolist()
