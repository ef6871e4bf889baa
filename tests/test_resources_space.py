"""Unit and property tests for the configuration space combinatorics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SpaceError
from repro.resources.space import (
    ConfigurationSpace,
    compositions_matrix,
    count_compositions,
    iter_compositions,
)
from repro.resources.types import Resource, ResourceCatalog, ResourceKind, default_catalog
from repro.rng import make_rng


class TestCompositions:
    def test_count_matches_paper_formula(self):
        # Sec. II: 3 jobs, 2 resources of 10 units -> C(9,2)^2 = 1296.
        assert count_compositions(10, 3) ** 2 == 1296

    def test_count_four_jobs(self):
        # 4 jobs, 2 resources of 10 units -> 7056 (paper Sec. II).
        assert count_compositions(10, 4) ** 2 == 7056

    def test_count_three_resources(self):
        # adding a third resource -> 592,704 (paper Sec. II).
        assert count_compositions(10, 4) ** 3 == 592704

    def test_enumeration_matches_count(self):
        rows = list(iter_compositions(8, 3))
        assert len(rows) == count_compositions(8, 3)

    def test_all_rows_sum_to_units(self):
        for row in iter_compositions(7, 4):
            assert sum(row) == 7

    def test_all_rows_respect_min(self):
        for row in iter_compositions(9, 3, min_units=2):
            assert min(row) >= 2

    def test_rows_unique(self):
        rows = list(iter_compositions(8, 3))
        assert len(set(rows)) == len(rows)

    def test_single_part(self):
        assert list(iter_compositions(5, 1)) == [(5,)]

    def test_infeasible_yields_nothing(self):
        assert list(iter_compositions(2, 3)) == []
        assert count_compositions(2, 3) == 0

    def test_matrix_shape(self):
        m = compositions_matrix(8, 3)
        assert m.shape == (count_compositions(8, 3), 3)

    def test_matrix_empty_when_infeasible(self):
        assert compositions_matrix(2, 5).shape == (0, 5)

    def test_zero_parts_rejected(self):
        with pytest.raises(SpaceError):
            count_compositions(5, 0)

    @given(
        units=st.integers(min_value=1, max_value=12),
        parts=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_sample_is_valid_composition(self, units, parts):
        if units < parts:
            return
        rng = make_rng(units * 31 + parts)
        (comp,) = cores_space(units, parts).sample_rows(1, rng).tolist()
        assert len(comp) == parts
        assert sum(comp) == units
        assert min(comp) >= 1

    def test_sample_roughly_uniform(self):
        # All C(3,1)=3 compositions of 4 into 2 parts appear.
        rows = cores_space(4, 2).sample_rows(200, make_rng(0))
        assert set(map(tuple, rows.tolist())) == {(1, 3), (2, 2), (3, 1)}

    def test_sample_infeasible_raises(self):
        with pytest.raises(SpaceError):
            cores_space(2, 3)


def cores_space(units, n_jobs):
    """The space of one ``units``-core resource among ``n_jobs`` jobs."""
    return ConfigurationSpace(ResourceCatalog([Resource(ResourceKind.CORES, units)]), n_jobs)


class TestConfigurationSpace:
    @pytest.fixture
    def space(self):
        return ConfigurationSpace(default_catalog(6, 6, 6), 3)

    def test_size(self, space):
        assert space.size() == count_compositions(6, 3) ** 3

    def test_dimensions(self, space):
        assert space.dimensions == 9

    def test_enumerate_matches_size_small(self):
        space = ConfigurationSpace(default_catalog(4, 4, 4), 2)
        configs = list(space.enumerate())
        assert len(configs) == space.size()
        assert len(set(configs)) == space.size()

    def test_all_enumerated_are_members(self):
        space = ConfigurationSpace(default_catalog(4, 4, 4), 2)
        for config in space.enumerate():
            assert space.contains(config)

    def test_equal_partition_member(self, space):
        assert space.contains(space.equal_partition())

    def test_sample_members(self, space):
        rng = make_rng(5)
        for _ in range(30):
            assert space.contains(space.sample(rng))

    def test_sample_batch_length(self, space):
        assert len(space.sample_batch(7, make_rng(1))) == 7

    def test_contains_rejects_wrong_jobs(self, space):
        other = ConfigurationSpace(default_catalog(6, 6, 6), 2).equal_partition()
        assert not space.contains(other)

    def test_neighbors_are_members_and_one_move_away(self, space):
        row = space.to_rows([space.equal_partition()])[0]
        neighbors = space.neighbor_rows(row)
        assert len(neighbors)
        for n in neighbors:
            assert space.contains(space.from_row(n))
            assert np.abs(n - row).sum() == 2  # one unit moved

    def test_neighbors_unique(self, space):
        neighbors = space.neighbor_rows(space.to_rows([space.equal_partition()])[0])
        assert len(set(map(tuple, neighbors.tolist()))) == len(neighbors)

    def test_encode_range_and_shape(self, space):
        vec = space.encode(space.equal_partition())
        assert vec.shape == (space.dimensions,)
        assert np.all(vec > 0) and np.all(vec < 1)

    def test_encode_shares_sum_to_one_per_resource(self, space):
        vec = space.encode(space.sample(make_rng(2)))
        per_resource = vec.reshape(len(space.catalog), space.n_jobs)
        assert np.allclose(per_resource.sum(axis=1), 1.0)

    def test_encode_rejects_non_member(self, space):
        foreign = ConfigurationSpace(default_catalog(8, 8, 8), 3).equal_partition()
        with pytest.raises(SpaceError):
            space.encode(foreign)

    def test_encode_batch(self, space):
        batch = space.sample_batch(4, make_rng(3))
        encoded = space.encode_batch(batch)
        assert encoded.shape == (4, space.dimensions)

    @pytest.mark.parametrize("n_jobs", [1, 2, 3, 4])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_row_dicts_are_the_configuration_dicts(self, n_jobs, reverse):
        resources = tuple(default_catalog())
        catalog = ResourceCatalog(resources[::-1] if reverse else resources)
        space = ConfigurationSpace(catalog, n_jobs)
        rows = space.sample_rows(40, make_rng(n_jobs))
        dicts = space.row_dicts(rows)
        expected = [space.from_row(row).to_dict() for row in rows]
        assert dicts == expected
        assert [list(d) for d in dicts] == [list(d) for d in expected]
        assert {type(u) for d in dicts for units in d.values() for u in units} == {int}
        assert space.row_dicts(space.sample_rows(0)) == []

    def test_encode_batch_empty(self, space):
        assert space.encode_batch([]).shape == (0, space.dimensions)

    @pytest.mark.parametrize("units", [10, 22, 47, 49, 120, 199])
    def test_decode_rows_inverts_encode_rows(self, units):
        """Every share of every resource size round-trips exactly; at
        22, 47, 49 and 199 units some ``u / units * units`` fall just
        below ``u``, so a truncating decode would be off by one."""
        catalog = default_catalog(units, units, units)
        space = ConfigurationSpace(catalog, 2)
        shares = np.arange(1, units)
        rows = np.concatenate(
            [np.stack([shares, units - shares], axis=1)] * len(catalog), axis=1
        )
        assert np.array_equal(space.decode_rows(space.encode_rows(rows)), rows)
        assert space.decode_rows(space.encode_rows(rows)).dtype == rows.dtype

    def test_per_resource_matrices_roundtrip(self, space):
        matrices = space.per_resource_matrices()
        config = space.configuration_from_indices((0, 0, 0), matrices)
        assert space.contains(config)

    def test_configuration_from_indices_wrong_len(self, space):
        with pytest.raises(SpaceError):
            space.configuration_from_indices((0,), space.per_resource_matrices())

    def test_too_many_jobs_rejected(self):
        with pytest.raises(SpaceError):
            ConfigurationSpace(default_catalog(4, 4, 4), 5)

    def test_zero_jobs_rejected(self):
        with pytest.raises(SpaceError):
            ConfigurationSpace(default_catalog(), 0)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_sampled_configs_validate(self, seed):
        catalog = default_catalog(7, 7, 7)
        space = ConfigurationSpace(catalog, 3)
        config = space.sample(make_rng(seed))
        config.validate(catalog)
