"""Tests for the benchmark suite registries and job mixes (Tables I-III)."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.mixes import SUITE_MIX_SIZE, JobMix, mix_from_names, suite_mixes
from repro.workloads.registry import default_registry, get_workload
from repro.workloads.synthetic import random_workload, random_workloads

PARSEC_NAMES = {
    "blackscholes",
    "canneal",
    "fluidanimate",
    "freqmine",
    "streamcluster",
    "swaptions",
    "vips",
}
CLOUDSUITE_NAMES = {
    "data_analytics",
    "graph_analytics",
    "in_memory_analytics",
    "media_streaming",
    "web_search",
}
ECP_NAMES = {"minife", "xsbench", "swfft", "amg", "hypre"}


class TestRegistry:
    def test_total_workload_count(self, registry):
        assert len(registry) == 17

    def test_suites(self, registry):
        assert set(registry.suites) == {"parsec", "cloudsuite", "ecp"}

    def test_parsec_names(self, registry):
        assert {w.name for w in registry.suite("parsec")} == PARSEC_NAMES

    def test_cloudsuite_names(self, registry):
        assert {w.name for w in registry.suite("cloudsuite")} == CLOUDSUITE_NAMES

    def test_ecp_names(self, registry):
        assert {w.name for w in registry.suite("ecp")} == ECP_NAMES

    def test_get_unknown_raises(self, registry):
        with pytest.raises(WorkloadError, match="unknown workload"):
            registry.get("doom")

    def test_unknown_suite_raises(self, registry):
        with pytest.raises(WorkloadError, match="unknown suite"):
            registry.suite("spec")

    def test_contains(self, registry):
        assert "canneal" in registry
        assert "doom" not in registry

    def test_default_registry_cached(self):
        assert default_registry() is default_registry()

    def test_get_workload_helper(self):
        assert get_workload("canneal").suite == "parsec"

    def test_descriptions_nonempty(self, registry):
        for name in registry.names:
            assert registry.get(name).description

    def test_every_workload_has_multiple_phases(self, registry):
        """Phase behaviour is required for the Fig. 1 drift phenomenon."""
        for name in registry.names:
            assert len(registry.get(name).schedule.segments) >= 2


class TestSuiteCharacters:
    """Sanity-check the qualitative characters the paper relies on."""

    def test_fluidanimate_is_core_sensitive(self, registry):
        p = registry.get("fluidanimate").phase_at(0.0).parallel_fraction
        assert p >= 0.95

    def test_canneal_is_cache_hungry_and_serial(self, registry):
        phase = registry.get("canneal").phase_at(0.0)
        assert phase.working_set_bytes > 8 * 2**20
        assert phase.parallel_fraction < 0.7

    def test_streamcluster_is_bandwidth_bound(self, registry):
        phase = registry.get("streamcluster").phase_at(0.0)
        assert phase.stream_bytes_per_instr > 1.5

    def test_swaptions_is_cache_resident(self, registry):
        phase = registry.get("swaptions").phase_at(0.0)
        assert phase.working_set_bytes < 2**20

    def test_minife_high_compute_and_llc(self, registry):
        phase = registry.get("minife").phase_at(0.0)
        assert phase.ips_per_core >= 2e9
        assert phase.working_set_bytes > 5 * 2**20

    def test_xsbench_latency_bound(self, registry):
        phase = registry.get("xsbench").phase_at(0.0)
        assert phase.miss_floor >= 0.005
        assert phase.latency_sensitivity >= 0.5

    def test_amg_hypre_similar_requirements(self, registry):
        """The paper notes AMG and Hypre have similar resource needs."""
        a = registry.get("amg").phase_at(0.0)
        h = registry.get("hypre").phase_at(0.0)
        assert abs(a.stream_bytes_per_instr - h.stream_bytes_per_instr) < 0.3
        assert abs(a.parallel_fraction - h.parallel_fraction) < 0.1


class TestMixes:
    def test_parsec_mix_count(self):
        assert len(suite_mixes("parsec")) == 21  # C(7,5)

    def test_cloudsuite_mix_count(self):
        assert len(suite_mixes("cloudsuite")) == 10  # C(5,3)

    def test_ecp_mix_count(self):
        assert len(suite_mixes("ecp")) == 10  # C(5,2)

    def test_default_sizes(self):
        assert SUITE_MIX_SIZE == {"parsec": 5, "cloudsuite": 3, "ecp": 2}

    def test_mix_sizes(self):
        assert all(len(m) == 5 for m in suite_mixes("parsec"))
        assert all(len(m) == 3 for m in suite_mixes("cloudsuite"))
        assert all(len(m) == 2 for m in suite_mixes("ecp"))

    def test_mixes_deterministic_order(self):
        assert [m.label for m in suite_mixes("ecp")] == [
            m.label for m in suite_mixes("ecp")
        ]

    def test_custom_mix_size(self):
        assert len(suite_mixes("parsec", mix_size=3)) == 35  # C(7,3)

    def test_oversized_mix_rejected(self):
        with pytest.raises(WorkloadError):
            suite_mixes("parsec", mix_size=8)

    def test_mix_from_names_cross_suite(self):
        mix = mix_from_names(["canneal", "amg"])
        assert mix.names == ("canneal", "amg")

    def test_duplicate_names_rejected(self, registry):
        with pytest.raises(WorkloadError):
            mix_from_names(["canneal", "canneal"], registry)

    def test_single_job_mix_rejected(self, registry):
        with pytest.raises(WorkloadError):
            JobMix((registry.get("canneal"),))

    def test_label(self):
        mix = mix_from_names(["amg", "hypre"])
        assert mix.label == "amg+hypre"

    def test_indexing_and_iteration(self):
        mix = mix_from_names(["amg", "hypre"])
        assert mix[0].name == "amg"
        assert [w.name for w in mix] == ["amg", "hypre"]


class TestSynthetic:
    def test_random_workload_valid(self):
        w = random_workload(rng=0)
        assert w.suite == "synthetic"
        assert w.schedule.period > 0

    def test_random_workloads_distinct_names(self):
        names = [w.name for w in random_workloads(5, rng=1)]
        assert len(set(names)) == 5

    def test_deterministic_given_seed(self):
        a = random_workload(rng=7).phase_at(0.0)
        b = random_workload(rng=7).phase_at(0.0)
        assert a.ips_per_core == b.ips_per_core

    def test_phase_count(self):
        w = random_workload(rng=2)
        assert len(w.schedule.segments) == 3
