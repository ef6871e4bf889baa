"""Simulated Intel Cache Allocation Technology (CAT).

CAT partitions the LLC by assigning each class of service (COS) a
bitmask over the cache ways; a job's memory traffic can only allocate
into ways whose bit is set for its COS. Real CAT requires the mask to
be a contiguous run of set bits and non-empty — both constraints are
enforced here so policies cannot make moves impossible on hardware.

The reproduction assigns one COS per co-located job and converts a
per-job way *count* into non-overlapping contiguous masks laid out
left to right, which is how the paper's user-space service (and tools
such as ``pqos -e``) program exclusive partitions.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import HardwareError
from repro.hardware.msr import IA32_L3_QOS_MASK_BASE, MsrFile


def is_contiguous_mask(mask: int) -> bool:
    """Whether ``mask`` is one non-empty contiguous run of set bits."""
    if mask <= 0:
        return False
    shifted = mask >> (mask & -mask).bit_length() - 1
    return (shifted & (shifted + 1)) == 0


#: Classes of service the hardware supports (Skylake server exposes 16
#: for L3 CAT).
N_COS = 16


class CacheAllocationTechnology:
    """Programs per-COS LLC way masks into the MSR file.

    Args:
        msr: the register file to program.
        n_ways: number of allocatable LLC ways.
    """

    def __init__(self, msr: MsrFile, n_ways: int):
        if n_ways < 1:
            raise HardwareError(f"n_ways must be >= 1, got {n_ways}")
        self._msr = msr
        self._n_ways = n_ways

    @property
    def n_ways(self) -> int:
        return self._n_ways

    def set_mask(self, cos: int, mask: int) -> None:
        """Program a raw way bitmask for one COS.

        Raises:
            HardwareError: if the COS is out of range, the mask has
                bits beyond the last way, or the mask is empty or
                non-contiguous (real CAT rejects those with ``#GP``).
        """
        self._check_cos(cos)
        if mask >> self._n_ways:
            raise HardwareError(
                f"IA32_L3_QOS_MASK[{cos}]: mask {mask:#x} has bits beyond "
                f"the {self._n_ways} available ways"
            )
        if not is_contiguous_mask(mask):
            raise HardwareError(
                f"IA32_L3_QOS_MASK[{cos}]: CAT requires a non-empty contiguous "
                f"way mask, got {mask:#x}"
            )
        self._msr.write(IA32_L3_QOS_MASK_BASE + cos, mask)

    def mask_of(self, cos: int) -> int:
        """Read back the way mask currently programmed for a COS."""
        self._check_cos(cos)
        return self._msr.read(IA32_L3_QOS_MASK_BASE + cos)

    def ways_of(self, cos: int) -> int:
        """Number of ways currently granted to a COS."""
        return bin(self.mask_of(cos)).count("1")

    def apply_partition(self, way_counts: Sequence[int]) -> List[int]:
        """Program exclusive contiguous partitions for jobs 0..n-1.

        Job ``i`` (COS ``i``) receives ``way_counts[i]`` ways, packed
        left to right without overlap.

        Returns:
            The programmed masks, one per job.

        Raises:
            HardwareError: if counts exceed the way total, any count is
                below 1, or there are more jobs than classes of service.
        """
        if len(way_counts) > N_COS:
            raise HardwareError(
                f"IA32_L3_QOS_MASK: {len(way_counts)} jobs exceed "
                f"the {N_COS} classes of service"
            )
        if any(count < 1 for count in way_counts):
            raise HardwareError(
                f"IA32_L3_QOS_MASK: every COS needs >= 1 way, got {list(way_counts)}"
            )
        if sum(way_counts) > self._n_ways:
            raise HardwareError(
                f"IA32_L3_QOS_MASK: way counts {list(way_counts)} exceed "
                f"the {self._n_ways} available ways"
            )
        masks = []
        offset = 0
        for cos, count in enumerate(way_counts):
            mask = ((1 << count) - 1) << offset
            self.set_mask(cos, mask)
            masks.append(mask)
            offset += count
        return masks

    def _check_cos(self, cos: int) -> None:
        if not 0 <= cos < N_COS:
            raise HardwareError(
                f"IA32_L3_QOS_MASK: COS {cos} out of range [0, {N_COS})"
            )
