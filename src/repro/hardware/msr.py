"""Simulated Model-Specific Register (MSR) file.

The paper's SATORI deployment actuates Intel CAT and MBA "via setting
Model Specific Registers (MSRs)" (Sec. IV). The reproduction keeps the
same layering: the CAT/MBA/RAPL actuators translate partitioning
decisions into register writes against this simulated MSR file. The
simulated server never reads the registers back: its contention model
reads the installed configuration, and the registers record what was
programmed. This preserves the real failure modes (invalid masks,
out-of-range classes of service, injected write faults) and makes the
actuator layer testable in isolation.

Register addresses follow the Intel SDM:

* ``0xC8F`` ``IA32_PQR_ASSOC`` (per logical core): the class of
  service (COS) the core's traffic is tagged with.
* ``0xC90 + n`` ``IA32_L3_QOS_MASK_n``: the LLC way bitmask of COS n.
* ``0xD50 + n`` ``IA32_L2_QOS_EXT_BW_THRTL_n``: the MBA throttle value
  of COS n (percent slowdown).
* ``0x610`` ``MSR_PKG_POWER_LIMIT``: the RAPL package power cap.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.errors import HardwareError

IA32_PQR_ASSOC = 0xC8F
IA32_L3_QOS_MASK_BASE = 0xC90
IA32_L2_QOS_EXT_BW_THRTL_BASE = 0xD50
MSR_PKG_POWER_LIMIT = 0x610


class MsrFile:
    """A per-package register file keyed by (register, sub-index).

    ``sub_index`` disambiguates per-core registers (e.g. each logical
    core has its own ``IA32_PQR_ASSOC``); package-wide registers use
    sub-index 0.
    """

    def __init__(self) -> None:
        self._registers: Dict[Tuple[int, int], int] = {}

    def write(self, register: int, value: int, sub_index: int = 0) -> None:
        """Write ``value`` to a register.

        Raises:
            HardwareError: for negative addresses, sub-indices, or
                values (MSRs are unsigned 64-bit).
        """
        if register < 0 or sub_index < 0:
            raise HardwareError(f"MSR {register:#x}[{sub_index}]: invalid address")
        if not 0 <= value < 2**64:
            raise HardwareError(
                f"MSR {register:#x}[{sub_index}]: value {value} outside the "
                f"unsigned 64-bit range"
            )
        self._registers[(register, sub_index)] = value

    def read(self, register: int, sub_index: int = 0) -> int:
        """Read a register; unwritten registers read as 0."""
        return self._registers.get((register, sub_index), 0)

    def __iter__(self) -> Iterator[Tuple[Tuple[int, int], int]]:
        return iter(sorted(self._registers.items()))

    def __len__(self) -> int:
        return len(self._registers)
