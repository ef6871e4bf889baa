"""Unit tests for resources.allocation: Configuration and helpers."""

import pytest

from repro.errors import ConfigurationError
from repro.resources.allocation import Configuration, equal_partition
from repro.resources.types import CORES, LLC_WAYS, MEMORY_BANDWIDTH, default_catalog


@pytest.fixture
def config():
    return Configuration({CORES: (3, 3, 4), LLC_WAYS: (2, 4, 4), MEMORY_BANDWIDTH: (5, 3, 2)})


class TestConfigurationBasics:
    def test_n_jobs(self, config):
        assert config.n_jobs == 3

    def test_resource_names_sorted(self, config):
        assert config.resource_names == tuple(sorted(config.resource_names))

    def test_units(self, config):
        assert config.units(CORES) == (3, 3, 4)

    def test_units_unknown_resource_raises(self, config):
        with pytest.raises(ConfigurationError, match="not partitioned"):
            config.units("gpu")

    def test_partitions(self, config):
        assert config.partitions(CORES)
        assert not config.partitions("power")

    def test_job_allocation(self, config):
        assert config.job_allocation(2) == {CORES: 4, LLC_WAYS: 4, MEMORY_BANDWIDTH: 2}

    def test_job_allocation_out_of_range(self, config):
        with pytest.raises(ConfigurationError):
            config.job_allocation(3)

    def test_equality_and_hash(self, config):
        same = Configuration(
            {MEMORY_BANDWIDTH: (5, 3, 2), CORES: (3, 3, 4), LLC_WAYS: (2, 4, 4)}
        )
        assert config == same
        assert hash(config) == hash(same)

    def test_inequality(self, config):
        other = config.move_unit(CORES, 2, 0)
        assert config != other

    def test_usable_as_dict_key(self, config):
        assert {config: 1}[config] == 1

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Configuration({})

    def test_negative_units_rejected(self):
        with pytest.raises(ConfigurationError):
            Configuration({CORES: (3, -1, 4)})

    def test_mismatched_job_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            Configuration({CORES: (3, 3, 4), LLC_WAYS: (5, 5)})


class TestConfigurationTransforms:
    def test_move_unit(self, config):
        moved = config.move_unit(CORES, donor=2, receiver=0)
        assert moved.units(CORES) == (4, 3, 3)
        assert config.units(CORES) == (3, 3, 4)  # original untouched

    def test_move_unit_same_job_rejected(self, config):
        with pytest.raises(ConfigurationError):
            config.move_unit(CORES, 1, 1)

    def test_move_unit_from_empty_rejected(self):
        c = Configuration({CORES: (0, 10)})
        with pytest.raises(ConfigurationError):
            c.move_unit(CORES, 0, 1)

    def test_replace(self, config):
        replaced = config.replace(CORES, (5, 3, 2))
        assert replaced.units(CORES) == (5, 3, 2)

    def test_restrict(self, config):
        sub = config.restrict([LLC_WAYS])
        assert sub.resource_names == (LLC_WAYS,)
        assert sub.units(LLC_WAYS) == config.units(LLC_WAYS)

    def test_as_vector_order(self, config):
        vec = config.as_vector((CORES, LLC_WAYS))
        assert list(vec) == [3, 3, 4, 2, 4, 4]

    def test_shares(self, config):
        shares = config.shares(default_catalog())
        assert shares[CORES] == (0.3, 0.3, 0.4)


class TestValidation:
    def test_valid_configuration_passes(self, config):
        config.validate(default_catalog())

    def test_wrong_sum_rejected(self):
        bad = Configuration({CORES: (3, 3, 3)})
        with pytest.raises(ConfigurationError, match="allocates"):
            bad.validate(default_catalog().subset([CORES]))

    def test_below_min_units_rejected(self):
        bad = Configuration({CORES: (0, 5, 5)})
        with pytest.raises(ConfigurationError, match="min_units"):
            bad.validate(default_catalog().subset([CORES]))


class TestEqualPartition:
    def test_even_split(self):
        c = equal_partition(default_catalog(), 5)
        assert c.units(CORES) == (2, 2, 2, 2, 2)

    def test_remainder_goes_to_low_indices(self):
        c = equal_partition(default_catalog(), 3)
        assert c.units(CORES) == (4, 3, 3)

    def test_sum_preserved_all_resources(self):
        catalog = default_catalog()
        c = equal_partition(catalog, 7)
        for name in catalog.names:
            assert sum(c.units(name)) == catalog.get(name).units

    def test_too_many_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            equal_partition(default_catalog(), 11)

    def test_zero_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            equal_partition(default_catalog(), 0)

