"""Configuration profiles and parameter plumbing."""

import pytest
from dataclasses import FrozenInstanceError

from repro.config import (
    SystemConfig, MemoryParams, CacheParams, TLBParams, OSParams,
    MultiprocessorParams, PipelineParams, SCHEMES, ConfigError,
)


class TestPaperProfile:
    """The paper profile must be Table 1/2 exactly."""

    def test_table1_cache_sizes(self):
        cfg = SystemConfig.paper()
        assert cfg.memory.l1i.size == 64 * 1024
        assert cfg.memory.l1d.size == 64 * 1024
        assert cfg.memory.l2.size == 1024 * 1024
        for cache in (cfg.memory.l1i, cfg.memory.l1d, cfg.memory.l2):
            assert cache.line_size == 32

    def test_table1_occupancies(self):
        cfg = SystemConfig.paper()
        assert cfg.memory.l1d.read_occupancy == 1
        assert cfg.memory.l1d.invalidate_occupancy == 2
        assert cfg.memory.l1i.fill_occupancy == 8
        assert cfg.memory.l2.read_occupancy == 2
        assert cfg.memory.l2.invalidate_occupancy == 4

    def test_table2_latencies(self):
        cfg = SystemConfig.paper()
        assert cfg.memory.l1_hit_latency == 1
        assert cfg.memory.l2_hit_latency == 9
        assert cfg.memory.memory_latency == 34

    def test_os_parameters(self):
        cfg = SystemConfig.paper()
        assert cfg.os.time_slice == 6_000_000   # 30 ms at 200 MHz
        assert cfg.os.affinity_slices == 3

    def test_pipeline_parameters(self):
        pp = SystemConfig.paper().pipeline
        assert pp.int_depth == 7
        assert pp.fp_depth == 9
        assert pp.btb_entries == 2048
        assert pp.mispredict_penalty == 3
        assert pp.explicit_switch_cost == 3
        assert pp.backoff_cost == 1
        assert pp.issue_width == 1


class TestFastProfile:
    def test_preserves_ratios(self):
        paper, fast = SystemConfig.paper(), SystemConfig.fast()
        assert paper.memory.l1d.size // fast.memory.l1d.size == 8
        assert paper.memory.l2.size // fast.memory.l2.size == 8
        # Latencies are untouched.
        assert fast.memory.l2_hit_latency == paper.memory.l2_hit_latency
        assert fast.memory.memory_latency == paper.memory.memory_latency
        # Pipeline untouched.
        assert fast.pipeline == paper.pipeline

    def test_workload_scale_tracks_caches(self):
        assert SystemConfig.paper().workload_scale == \
            8 * SystemConfig.fast().workload_scale


class TestModifiers:
    def test_with_memory(self):
        cfg = SystemConfig.fast().with_memory(memory_latency=99)
        assert cfg.memory.memory_latency == 99
        assert SystemConfig.fast().memory.memory_latency == 34

    def test_with_pipeline(self):
        cfg = SystemConfig.fast().with_pipeline(issue_width=4)
        assert cfg.pipeline.issue_width == 4

    def test_frozen(self):
        cfg = SystemConfig.fast()
        with pytest.raises(FrozenInstanceError):
            cfg.workload_scale = 2.0


class TestOSInterference:
    def test_lookup_rounds_up(self):
        os_params = OSParams(interference={1: (10, 5), 4: (40, 20)})
        assert os_params.interference_for(1) == (10, 5)
        assert os_params.interference_for(2) == (40, 20)
        assert os_params.interference_for(4) == (40, 20)

    def test_above_table_clamps(self):
        os_params = OSParams(interference={1: (10, 5), 4: (40, 20)})
        assert os_params.interference_for(64) == (40, 20)

    def test_zero_is_free(self):
        assert OSParams().interference_for(0) == (0, 0)


class TestMultiprocessorParams:
    def test_latency_ordering(self):
        p = MultiprocessorParams()
        assert p.local_memory[1] < p.remote_memory[0]
        assert p.remote_memory[1] <= p.remote_cache[0] + 10

    def test_cache_params(self):
        p = MultiprocessorParams()
        assert p.cache.size == 64 * 1024
        assert p.cache.line_size == 32


class TestMisc:
    def test_scheme_registry(self):
        assert SCHEMES == ("single", "blocked", "interleaved")

    def test_cache_n_lines(self):
        assert CacheParams("x", 1024, 32).n_lines == 32

    def test_tlb_defaults(self):
        t = TLBParams()
        assert t.entries == 64
        assert t.page_size == 4096


class TestValidation:
    """Machines that cannot be simulated are rejected at construction."""

    @pytest.mark.parametrize("params,field", [
        (MemoryParams, "n_banks"),
        (OSParams, "time_slice"),
        (PipelineParams, "issue_width"),
    ])
    def test_zero_rejected_naming_the_field(self, params, field):
        with pytest.raises(ConfigError, match=field):
            params(**{field: 0})
        with pytest.raises(ValueError):
            params(**{field: -1})
        assert getattr(params(**{field: 1}), field) == 1
