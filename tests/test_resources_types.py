"""Unit tests for resources.types: Resource, ResourceCatalog."""

import copy
import dataclasses
import pickle

import pytest

from repro.errors import SpaceError
from repro.resources.types import (
    CORES,
    LLC_WAYS,
    MEMORY_BANDWIDTH,
    Resource,
    ResourceCatalog,
    ResourceKind,
    default_catalog,
)


class TestResource:
    def test_name_matches_kind(self):
        r = Resource(ResourceKind.CORES, 10)
        assert r.name == "cores"

    def test_capacity_is_units_times_unit_capacity(self):
        r = Resource(ResourceKind.MEMORY_BANDWIDTH, 10, unit_capacity=1.2e9)
        assert r.capacity == pytest.approx(12e9)

    def test_zero_units_rejected(self):
        with pytest.raises(SpaceError):
            Resource(ResourceKind.CORES, 0)

    def test_negative_min_units_rejected(self):
        with pytest.raises(SpaceError):
            Resource(ResourceKind.CORES, 4, min_units=-1)

    def test_max_jobs(self):
        assert Resource(ResourceKind.LLC_WAYS, 10, min_units=2).max_jobs() == 5

    def test_max_jobs_unbounded_raises(self):
        with pytest.raises(SpaceError):
            Resource(ResourceKind.LLC_WAYS, 10, min_units=0).max_jobs()

    def test_frozen(self):
        r = Resource(ResourceKind.CORES, 10)
        with pytest.raises(AttributeError):
            r.units = 5

    def test_stored_name_stays_out_of_identity(self):
        """``name`` is stored at construction; equality, hashing, repr,
        pickling and ``dataclasses.replace`` see only the four
        constructor fields."""
        r = Resource(ResourceKind.LLC_WAYS, 10, min_units=2, unit_capacity=1.5e6)
        assert [f.name for f in dataclasses.fields(r) if f.init] == [
            "kind", "units", "min_units", "unit_capacity",
        ]
        assert r == Resource(ResourceKind.LLC_WAYS, 10, min_units=2, unit_capacity=1.5e6)
        assert r != Resource(ResourceKind.LLC_WAYS, 11, min_units=2, unit_capacity=1.5e6)
        assert hash(r) == hash((ResourceKind.LLC_WAYS, 10, 2, 1.5e6))
        assert repr(r) == (
            "Resource(kind=<ResourceKind.LLC_WAYS: 'llc_ways'>, units=10, "
            "min_units=2, unit_capacity=1500000.0)"
        )
        for twin in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
            assert twin == r and hash(twin) == hash(r) and twin.name == "llc_ways"
        moved = dataclasses.replace(r, kind=ResourceKind.CORES)
        assert moved.name == "cores"
        assert moved == Resource(ResourceKind.CORES, 10, min_units=2, unit_capacity=1.5e6)
        with pytest.raises(AttributeError):
            r.name = "cores"


class TestResourceCatalog:
    def test_iteration_preserves_order(self):
        catalog = default_catalog()
        assert catalog.names == (CORES, LLC_WAYS, MEMORY_BANDWIDTH)

    def test_len(self):
        assert len(default_catalog()) == 3

    def test_contains(self):
        catalog = default_catalog()
        assert CORES in catalog
        assert "gpu" not in catalog

    def test_get_unknown_raises(self):
        with pytest.raises(SpaceError, match="unknown resource"):
            default_catalog().get("gpu")

    def test_duplicate_resources_rejected(self):
        r = Resource(ResourceKind.CORES, 4)
        with pytest.raises(SpaceError, match="duplicate"):
            ResourceCatalog([r, r])

    def test_empty_catalog_rejected(self):
        with pytest.raises(SpaceError):
            ResourceCatalog([])

    def test_subset_preserves_order(self):
        catalog = default_catalog()
        sub = catalog.subset([MEMORY_BANDWIDTH, CORES])
        assert sub.names == (CORES, MEMORY_BANDWIDTH)

    def test_subset_unknown_raises(self):
        with pytest.raises(SpaceError):
            default_catalog().subset(["gpu"])

    def test_equality_and_hash(self):
        assert default_catalog() == default_catalog()
        assert hash(default_catalog()) == hash(default_catalog())

    def test_default_catalog_unit_counts(self):
        catalog = default_catalog()
        assert catalog.get(CORES).units == 10
        assert catalog.get(LLC_WAYS).units == 10
        assert catalog.get(MEMORY_BANDWIDTH).units == 10

    def test_default_catalog_capacities(self):
        catalog = default_catalog()
        assert catalog.get(LLC_WAYS).capacity == pytest.approx(13.75 * 2**20)
        assert catalog.get(MEMORY_BANDWIDTH).capacity == pytest.approx(12e9)
