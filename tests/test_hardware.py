"""Unit tests for the simulated hardware substrate (MSR/CAT/MBA/affinity/RAPL)."""

import pytest

from repro.errors import HardwareError
from repro.hardware.affinity import CoreAffinityController
from repro.hardware.cat import N_COS, CacheAllocationTechnology, is_contiguous_mask
from repro.hardware.mba import THROTTLE_STEP, MemoryBandwidthAllocator
from repro.hardware.msr import (
    IA32_L2_QOS_EXT_BW_THRTL_BASE,
    IA32_L3_QOS_MASK_BASE,
    MSR_PKG_POWER_LIMIT,
    MsrFile,
)
from repro.hardware.rapl import POWER_UNIT_WATTS, PowerCapController


class TestMsrFile:
    def test_unwritten_reads_zero(self):
        assert MsrFile().read(0xC90) == 0

    def test_write_read_roundtrip(self):
        msr = MsrFile()
        msr.write(0xC90, 0xFF)
        assert msr.read(0xC90) == 0xFF

    def test_sub_index_isolated(self):
        msr = MsrFile()
        msr.write(0xC8F, 1, sub_index=0)
        msr.write(0xC8F, 2, sub_index=1)
        assert msr.read(0xC8F, 0) == 1
        assert msr.read(0xC8F, 1) == 2

    def test_negative_address_rejected(self):
        with pytest.raises(HardwareError):
            MsrFile().write(-1, 0)

    def test_value_over_64_bits_rejected(self):
        with pytest.raises(HardwareError):
            MsrFile().write(0xC90, 2**64)

    def test_iteration_sorted(self):
        msr = MsrFile()
        msr.write(0xD50, 1)
        msr.write(0xC90, 2)
        keys = [k for k, _ in msr]
        assert keys == sorted(keys)


class TestContiguousMask:
    @pytest.mark.parametrize("mask", [0b1, 0b11, 0b1110, 0b1111111111])
    def test_contiguous(self, mask):
        assert is_contiguous_mask(mask)

    @pytest.mark.parametrize("mask", [0, 0b101, 0b1001, 0b1101])
    def test_non_contiguous(self, mask):
        assert not is_contiguous_mask(mask)


class TestCat:
    @pytest.fixture
    def cat(self):
        return CacheAllocationTechnology(MsrFile(), n_ways=10)

    def test_apply_partition_masks_disjoint(self, cat):
        masks = cat.apply_partition([3, 3, 4])
        assert masks == [0b111, 0b111000, 0b1111000000]
        combined = 0
        for mask in masks:
            assert combined & mask == 0
            combined |= mask

    def test_ways_readback(self, cat):
        cat.apply_partition([2, 5, 3])
        assert [cat.ways_of(cos) for cos in range(3)] == [2, 5, 3]

    def test_mask_written_to_msr(self):
        msr = MsrFile()
        cat = CacheAllocationTechnology(msr, n_ways=10)
        cat.apply_partition([4, 6])
        assert msr.read(IA32_L3_QOS_MASK_BASE + 1) == 0b1111110000

    def test_non_contiguous_mask_rejected(self, cat):
        with pytest.raises(HardwareError, match="contiguous"):
            cat.set_mask(0, 0b101)

    def test_empty_mask_rejected(self, cat):
        with pytest.raises(HardwareError):
            cat.set_mask(0, 0)

    def test_mask_beyond_ways_rejected(self, cat):
        with pytest.raises(HardwareError):
            cat.set_mask(0, 1 << 10)

    def test_cos_out_of_range(self, cat):
        with pytest.raises(HardwareError):
            cat.set_mask(16, 1)

    def test_too_many_ways_requested(self, cat):
        with pytest.raises(HardwareError):
            cat.apply_partition([6, 6])

    def test_zero_way_job_rejected(self, cat):
        with pytest.raises(HardwareError):
            cat.apply_partition([0, 10])

    def test_more_jobs_than_cos_rejected(self):
        cat = CacheAllocationTechnology(MsrFile(), n_ways=2 * N_COS)
        with pytest.raises(HardwareError):
            cat.apply_partition([1] * (N_COS + 1))


class TestMba:
    @pytest.fixture
    def mba(self):
        return MemoryBandwidthAllocator(MsrFile(), total_units=10)

    def test_apply_partition_throttles(self, mba):
        throttles = mba.apply_partition([2, 3, 5])
        assert throttles == [80, 70, 50]

    def test_units_roundtrip(self, mba):
        mba.apply_partition([2, 3, 5])
        assert [mba.units_of(cos) for cos in range(3)] == [2, 3, 5]

    def test_throttle_written_to_msr(self):
        msr = MsrFile()
        mba = MemoryBandwidthAllocator(msr, total_units=10)
        mba.apply_partition([1, 9])
        assert msr.read(IA32_L2_QOS_EXT_BW_THRTL_BASE) == 90

    def test_non_step_throttle_rejected(self, mba):
        with pytest.raises(HardwareError, match="multiple"):
            mba.set_throttle(0, 45)

    def test_throttle_out_of_range(self, mba):
        with pytest.raises(HardwareError):
            mba.set_throttle(0, 100)

    def test_full_allocation_unthrottled(self, mba):
        mba.apply_partition([10])
        assert mba.throttle_of(0) == 0

    def test_oversubscription_rejected(self, mba):
        with pytest.raises(HardwareError):
            mba.apply_partition([6, 6])

    def test_zero_unit_job_rejected(self, mba):
        with pytest.raises(HardwareError):
            mba.apply_partition([0, 10])

    def test_step_constant(self):
        assert THROTTLE_STEP == 10


class TestAffinity:
    @pytest.fixture
    def affinity(self):
        return CoreAffinityController(n_cores=10)

    def test_apply_partition_disjoint_ranges(self, affinity):
        sets = affinity.apply_partition([3, 3, 4])
        assert sets == [{0, 1, 2}, {3, 4, 5}, {6, 7, 8, 9}]

    def test_affinity_readback(self, affinity):
        affinity.apply_partition([5, 5])
        assert affinity.core_count_of(1) == 5

    def test_unset_job_raises(self, affinity):
        with pytest.raises(HardwareError):
            affinity.affinity_of(0)

    def test_bad_core_id_rejected(self, affinity):
        with pytest.raises(HardwareError):
            affinity.set_affinity(0, [10])

    def test_empty_core_set_rejected(self, affinity):
        with pytest.raises(HardwareError):
            affinity.set_affinity(0, [])

    def test_oversubscription_rejected(self, affinity):
        with pytest.raises(HardwareError):
            affinity.apply_partition([6, 6])


class TestRapl:
    def test_package_limit_roundtrip(self):
        rapl = PowerCapController(MsrFile())
        rapl.set_package_limit(60.0)
        assert rapl.package_limit() == pytest.approx(60.0, abs=POWER_UNIT_WATTS)

    def test_limit_above_tdp_rejected(self):
        rapl = PowerCapController(MsrFile())
        with pytest.raises(HardwareError):
            rapl.set_package_limit(100.0)

    def test_msr_encoding(self):
        msr = MsrFile()
        rapl = PowerCapController(msr)
        rapl.set_package_limit(10.0)
        assert msr.read(MSR_PKG_POWER_LIMIT) == 80  # 10 W / (1/8 W)

    def test_partition_and_readback(self):
        rapl = PowerCapController(MsrFile())
        rapl.apply_partition([3, 7])
        assert rapl.units_of(1) == 7

    def test_unbudgeted_job_raises(self):
        rapl = PowerCapController(MsrFile())
        with pytest.raises(HardwareError):
            rapl.units_of(0)

    def test_zero_unit_job_rejected(self):
        with pytest.raises(HardwareError):
            PowerCapController(MsrFile()).apply_partition([0, 5])
