"""Hardware simulation tests: specs, cache policies, cost and memory models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import HardwareError
from repro.hardware import (
    CACHE_POLICIES,
    DeviceCache,
    DeviceSpec,
    HostSpec,
    LinkSpec,
    PLATFORMS,
    batch_time,
    gamma_cache,
    gamma_model,
    gamma_runtime,
    get_platform,
    model_costing,
    t_compute,
    t_replace,
    t_sample,
    t_transfer,
)


class TestSpecs:
    def test_catalog_contains_paper_devices(self):
        assert {"rtx4090", "a100", "m90"} <= set(PLATFORMS)

    def test_lookup_case_insensitive(self):
        assert get_platform("RTX4090").name == "rtx4090"

    def test_unknown_platform(self):
        with pytest.raises(HardwareError):
            get_platform("h100")

    def test_effective_bandwidth_below_both(self):
        link = LinkSpec("l", pcie_bandwidth_gbps=32.0, gather_bandwidth_gbps=1.0, latency_s=0.0)
        eff = link.effective_bytes_per_s
        assert eff < 1.0e9 and eff < 32.0e9

    def test_rejects_bad_specs(self):
        with pytest.raises(HardwareError):
            HostSpec("h", cores=0, sample_rate_vps=1e6, sample_overhead_s=0)
        with pytest.raises(HardwareError):
            DeviceSpec("d", memory_bytes=0, fp32_tflops=1, mem_bandwidth_gbps=1, kernel_overhead_s=0)
        with pytest.raises(HardwareError):
            LinkSpec("l", pcie_bandwidth_gbps=-1, gather_bandwidth_gbps=1, latency_s=0)

    def test_as_features_length(self):
        assert len(get_platform("a100").as_features()) == 6


class TestDeviceCache:
    def test_policies_list(self):
        assert CACHE_POLICIES == ("none", "static", "fifo", "lru")

    def test_static_prefills_priority(self):
        cache = DeviceCache(10, 3, policy="static", priority=np.array([5, 7, 9, 1]))
        assert set(cache.hot_nodes()) == {5, 7, 9}
        assert cache.occupancy == 3

    def test_static_never_updates(self):
        cache = DeviceCache(10, 2, policy="static", priority=np.arange(10))
        cache.lookup(np.array([8, 9]))
        admitted, evicted = cache.update(np.array([8, 9]))
        assert admitted == evicted == 0
        assert set(cache.hot_nodes()) == {0, 1}

    def test_hit_statistics(self):
        cache = DeviceCache(10, 2, policy="static", priority=np.arange(10))
        mask = cache.lookup(np.array([0, 1, 5]))
        assert mask.tolist() == [True, True, False]
        assert cache.stats.hits == 2
        assert cache.stats.lookups == 3
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_fifo_evicts_oldest(self):
        cache = DeviceCache(10, 2, policy="fifo")
        cache.update(np.array([1]))
        cache.update(np.array([2]))
        cache.update(np.array([3]))  # evicts 1
        assert set(cache.hot_nodes()) == {2, 3}

    def test_lru_refreshes_on_hit(self):
        cache = DeviceCache(10, 2, policy="lru")
        cache.update(np.array([1]))
        cache.update(np.array([2]))
        cache.lookup(np.array([1]))  # touch 1, making 2 the LRU victim
        cache.update(np.array([3]))
        assert set(cache.hot_nodes()) == {1, 3}

    def test_none_policy_never_holds(self):
        cache = DeviceCache(10, 0, policy="none")
        cache.update(np.arange(5))
        assert cache.occupancy == 0
        assert not cache.lookup(np.arange(5)).any()

    def test_oversized_admission_clipped(self):
        cache = DeviceCache(100, 5, policy="fifo")
        admitted, evicted = cache.update(np.arange(50))
        assert admitted == 5
        assert cache.occupancy == 5

    def test_capacity_bounds(self):
        with pytest.raises(HardwareError):
            DeviceCache(10, 11)
        with pytest.raises(HardwareError):
            DeviceCache(10, -1)

    def test_static_requires_priority(self):
        with pytest.raises(HardwareError):
            DeviceCache(10, 2, policy="static")

    def test_is_resident_does_not_count(self):
        cache = DeviceCache(10, 2, policy="static", priority=np.arange(10))
        cache.is_resident(np.array([0, 5]))
        assert cache.stats.lookups == 0

    def test_reset_stats_keeps_contents(self):
        cache = DeviceCache(10, 2, policy="static", priority=np.arange(10))
        cache.lookup(np.array([0]))
        cache.reset_stats()
        assert cache.stats.lookups == 0
        assert cache.occupancy == 2

    def test_admitted_nodes_hit_next_time(self):
        cache = DeviceCache(50, 10, policy="lru")
        nodes = np.arange(8)
        cache.update(nodes)
        assert cache.lookup(nodes).all()

    def test_update_admits_each_distinct_miss_once(self):
        cache = DeviceCache(50, 10, policy="fifo")
        assert cache.update(np.array([7, 3, 7, 3, 9])) == (3, 0)
        assert cache.hot_nodes().tolist() == [3, 7, 9]

    @pytest.mark.parametrize("bad", [-1, 50])
    def test_update_rejects_out_of_range_ids(self, bad):
        cache = DeviceCache(50, 10, policy="lru")
        with pytest.raises(HardwareError, match="out of range"):
            cache.update(np.array([0, bad]))
        assert cache.occupancy == 0


class TestCostModel:
    def setup_method(self):
        self.platform = get_platform("rtx4090")

    def test_sample_time_monotone(self):
        assert t_sample(1000, self.platform) < t_sample(100_000, self.platform)

    def test_transfer_zero_when_all_hit(self):
        assert t_transfer(0, 100, self.platform) == 0.0

    def test_transfer_scales_with_features(self):
        t1 = t_transfer(1000, 50, self.platform)
        t2 = t_transfer(1000, 500, self.platform)
        assert t2 > t1 * 5

    def test_replace_zero_without_updates(self):
        assert t_replace(0, 0, 100, self.platform) == 0.0

    def test_compute_roofline_picks_slower_bound(self):
        costing = model_costing(
            "sage", 4000, 30_000, in_dim=96, hidden_dim=64, out_dim=40, num_layers=2
        )
        t = t_compute(costing, self.platform)
        device = self.platform.device
        assert t >= costing.bytes_moved / device.bytes_per_s
        assert t >= costing.flops / device.flops_per_s

    def test_gat_costs_more_than_sage(self):
        kwargs = dict(in_dim=96, hidden_dim=64, out_dim=40, num_layers=2)
        sage = model_costing("sage", 4000, 30_000, **kwargs)
        gat = model_costing("gat", 4000, 30_000, heads=4, **kwargs)
        assert gat.bytes_moved > sage.bytes_moved

    def test_unknown_arch(self):
        with pytest.raises(HardwareError):
            model_costing("mlp", 10, 10, in_dim=4, hidden_dim=4, out_dim=2, num_layers=1)

    def test_batch_time_is_pipeline_max(self):
        assert batch_time(1.0, 2.0, 0.5, 1.0) == 3.0
        assert batch_time(0.1, 0.2, 1.0, 3.0) == 4.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(HardwareError):
            t_sample(-1, self.platform)
        with pytest.raises(HardwareError):
            t_transfer(-1, 10, self.platform)
        with pytest.raises(HardwareError):
            t_replace(-1, 0, 10, self.platform)


class TestMemoryModel:
    def test_gamma_model_counts_optimizer(self):
        plain = gamma_model(1000, optimizer_state_factor=0.0)
        adam = gamma_model(1000, optimizer_state_factor=2.0)
        assert adam == pytest.approx(plain * 2.0)

    def test_gamma_cache_linear(self):
        assert gamma_cache(2000, 100) == pytest.approx(2 * gamma_cache(1000, 100))

    def test_gamma_runtime_attention_adds_edge_buffers(self):
        base = dict(n_attr=96, hidden_dim=64, out_dim=40, num_layers=2)
        plain = gamma_runtime(4000, 30_000, **base)
        gat = gamma_runtime(4000, 30_000, heads=4, attention=True, **base)
        assert gat > plain

    def test_rejects_negative(self):
        with pytest.raises(HardwareError):
            gamma_model(-1)
        with pytest.raises(HardwareError):
            gamma_cache(-1, 10)
        with pytest.raises(HardwareError):
            gamma_runtime(-1, 0, n_attr=1, hidden_dim=1, out_dim=1, num_layers=1)

    def test_breakdown_total(self):
        from repro.hardware import MemoryBreakdown

        b = MemoryBreakdown(model=1.0, cache=2.0, runtime=3.0)
        assert b.total == 6.0
        assert b.total_gib == pytest.approx(6.0 / 1024**3)
