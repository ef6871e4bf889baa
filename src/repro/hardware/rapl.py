"""Simulated RAPL power capping.

The paper lists power (RAPL) among the partitionable resources and the
conclusion notes SATORI "can effectively handle ... power-cap
resources". The main evaluation partitions three resources; power is
the extension point, so this controller exists for the extensibility
experiments and the energy-goal example.

RAPL exposes a package power limit in units of 1/8 W written to
``MSR_PKG_POWER_LIMIT``. Per-job power budgets are enforced here as
logical shares of the package cap (real RAPL caps the package; per-job
attribution is done in software, as in the paper's setup).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.errors import HardwareError
from repro.hardware.msr import MSR_PKG_POWER_LIMIT, MsrFile

#: RAPL power unit: 1/8 watt.
POWER_UNIT_WATTS = 0.125

#: The package's thermal design power, the highest cap it accepts.
TDP_WATTS = 85.0


class PowerCapController:
    """Package power cap plus logical per-job power-share accounting."""

    def __init__(self, msr: MsrFile):
        self._msr = msr
        self._job_units: Dict[int, int] = {}
        self.set_package_limit(TDP_WATTS)

    def set_package_limit(self, watts: float) -> None:
        """Program the package power cap.

        Raises:
            HardwareError: if the cap is non-positive or above TDP.
        """
        if not 0 < watts <= TDP_WATTS:
            raise HardwareError(
                f"MSR_PKG_POWER_LIMIT: package limit {watts} W outside "
                f"(0, {TDP_WATTS}] W"
            )
        self._msr.write(MSR_PKG_POWER_LIMIT, int(round(watts / POWER_UNIT_WATTS)))

    def package_limit(self) -> float:
        """Read back the package power cap in watts."""
        return self._msr.read(MSR_PKG_POWER_LIMIT) * POWER_UNIT_WATTS

    def apply_partition(self, unit_counts: Sequence[int]) -> List[int]:
        """Record per-job power-unit budgets (software attribution).

        Returns:
            The per-job unit counts as applied.

        Raises:
            HardwareError: if any count is below 1.
        """
        if any(count < 1 for count in unit_counts):
            raise HardwareError(
                f"MSR_PKG_POWER_LIMIT: every job needs >= 1 power unit, "
                f"got {list(unit_counts)}"
            )
        self._job_units = {job: int(count) for job, count in enumerate(unit_counts)}
        return list(self._job_units.values())

    def units_of(self, job: int) -> int:
        """Power units currently budgeted to ``job``."""
        try:
            return self._job_units[job]
        except KeyError:
            raise HardwareError(
                f"MSR_PKG_POWER_LIMIT: job {job} has no power budget set"
            ) from None
