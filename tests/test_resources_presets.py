"""Tests for server presets."""

import pytest

from repro.errors import SpaceError
from repro.resources.presets import preset_catalog, preset_names
from repro.resources.types import CORES, LLC_WAYS, MEMORY_BANDWIDTH


class TestPresets:
    def test_names_nonempty_sorted(self):
        names = preset_names()
        assert names
        assert list(names) == sorted(names)

    @pytest.mark.parametrize("name", preset_names())
    def test_every_preset_builds_valid_catalog(self, name):
        catalog = preset_catalog(name)
        assert {CORES, LLC_WAYS, MEMORY_BANDWIDTH} <= set(catalog.names)
        for resource in catalog:
            assert resource.units >= 2
            assert resource.capacity > 0

    def test_paper_testbed_preset(self):
        catalog = preset_catalog("skylake-sp-10")
        assert catalog.get(CORES).units == 10
        assert catalog.get(LLC_WAYS).capacity == pytest.approx(13.75 * 2**20)

    def test_unknown_preset(self):
        with pytest.raises(SpaceError, match="unknown server preset"):
            preset_catalog("epyc-9999")

    def test_presets_usable_in_simulation(self, parsec_mix3):
        from repro.system.simulation import CoLocationSimulator

        sim = CoLocationSimulator(parsec_mix3, preset_catalog("milan-ccx-8"), seed=0)
        obs = sim.step(sim.equal_partition())
        assert all(v > 0 for v in obs.ips)

