"""Simulated Intel Memory Bandwidth Allocation (MBA).

MBA throttles the request rate of each class of service in steps of
10 %: a programmed throttle value of 0 means unthrottled, 90 means the
COS is limited to roughly 10 % of peak bandwidth. The reproduction
maps a partitioning policy's per-job *bandwidth unit* counts onto
throttle values — job with ``u`` of ``U`` units is throttled to
``u / U`` of the machine bandwidth — mirroring how the paper's service
uses MBA to enforce bandwidth shares.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import HardwareError
from repro.hardware.msr import IA32_L2_QOS_EXT_BW_THRTL_BASE, MsrFile

#: Hardware throttle granularity, percent.
THROTTLE_STEP = 10


#: Classes of service supported (8 for MBA on Skylake).
N_COS = 8


class MemoryBandwidthAllocator:
    """Programs per-COS MBA throttle values into the MSR file.

    Args:
        msr: the register file to program.
        total_units: number of bandwidth units the server exposes to
            partitioning policies (10 in the paper's setup, matching
            MBA's 10 % granularity).
    """

    def __init__(self, msr: MsrFile, total_units: int = 10):
        if total_units < 1:
            raise HardwareError(f"total_units must be >= 1, got {total_units}")
        self._msr = msr
        self._total_units = total_units

    @property
    def total_units(self) -> int:
        return self._total_units

    def set_throttle(self, cos: int, throttle_percent: int) -> None:
        """Program a raw throttle value (percent slowdown) for a COS.

        Raises:
            HardwareError: if the COS is out of range or the value is
                not a multiple of the 10 % hardware step in [0, 90].
        """
        self._check_cos(cos)
        if not 0 <= throttle_percent <= 100 - THROTTLE_STEP:
            raise HardwareError(
                f"IA32_L2_QOS_EXT_BW_THRTL[{cos}]: throttle {throttle_percent}% "
                f"out of [0, {100 - THROTTLE_STEP}]"
            )
        if throttle_percent % THROTTLE_STEP:
            raise HardwareError(
                f"IA32_L2_QOS_EXT_BW_THRTL[{cos}]: throttle must be a multiple "
                f"of {THROTTLE_STEP}%, got {throttle_percent}%"
            )
        self._msr.write(IA32_L2_QOS_EXT_BW_THRTL_BASE + cos, throttle_percent)

    def throttle_of(self, cos: int) -> int:
        """Read back the throttle value programmed for a COS."""
        self._check_cos(cos)
        return self._msr.read(IA32_L2_QOS_EXT_BW_THRTL_BASE + cos)

    def units_of(self, cos: int) -> int:
        """Bandwidth units currently granted to a COS."""
        throttle = self.throttle_of(cos)
        share = (100 - throttle) / 100.0
        return max(1, round(share * self._total_units))

    def apply_partition(self, unit_counts: Sequence[int]) -> List[int]:
        """Program throttles so job ``i`` gets ``unit_counts[i]`` units.

        Returns:
            The programmed throttle percentages, one per job.

        Raises:
            HardwareError: if counts exceed the unit total, any count
                is below 1, or there are more jobs than classes of
                service.
        """
        if len(unit_counts) > N_COS:
            raise HardwareError(
                f"IA32_L2_QOS_EXT_BW_THRTL: {len(unit_counts)} jobs exceed "
                f"the {N_COS} classes of service"
            )
        if any(count < 1 for count in unit_counts):
            raise HardwareError(
                f"IA32_L2_QOS_EXT_BW_THRTL: every COS needs >= 1 bandwidth unit, "
                f"got {list(unit_counts)}"
            )
        if sum(unit_counts) > self._total_units:
            raise HardwareError(
                f"IA32_L2_QOS_EXT_BW_THRTL: unit counts {list(unit_counts)} exceed "
                f"the {self._total_units} available units"
            )
        throttles = []
        for cos, count in enumerate(unit_counts):
            share = count / self._total_units
            throttle = 100 - int(round(share * 100))
            throttle -= throttle % THROTTLE_STEP
            throttle = min(max(throttle, 0), 100 - THROTTLE_STEP)
            self.set_throttle(cos, throttle)
            throttles.append(throttle)
        return throttles

    def _check_cos(self, cos: int) -> None:
        if not 0 <= cos < N_COS:
            raise HardwareError(
                f"IA32_L2_QOS_EXT_BW_THRTL: COS {cos} out of range [0, {N_COS})"
            )
