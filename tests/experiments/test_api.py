"""The repro.api facade: construction, dispatch, RunResult contract."""

import json

import pytest

import repro
from repro.api import Simulation, RunResult
from repro.config import SystemConfig, MultiprocessorParams


def ws_simulation(**kwargs):
    defaults = dict(scheme="interleaved", n_contexts=4, seed=1994)
    defaults.update(kwargs)
    return Simulation.from_config(SystemConfig.fast(), **defaults)


class TestConstruction:
    def test_top_level_export(self):
        assert repro.Simulation is Simulation
        assert repro.RunResult is RunResult

    def test_config_type_dispatch(self):
        assert ws_simulation().kind == "workstation"
        mp = Simulation.from_config(MultiprocessorParams(n_nodes=2))
        assert mp.kind == "multiprocessor"
        assert Simulation.from_config(None).kind == "workstation"

    def test_rejects_unknown_config_type(self):
        with pytest.raises(TypeError, match="SystemConfig"):
            Simulation.from_config(42)

    def test_run_before_load_rejected(self):
        with pytest.raises(RuntimeError, match="load"):
            ws_simulation().run(measure=100)

    def test_double_load_rejected(self):
        simulation = ws_simulation().load("DC")
        with pytest.raises(RuntimeError, match="already loaded"):
            simulation.load("FP")


class TestWorkstationRuns:
    def test_mix_run(self):
        result = ws_simulation().load("DC").run(warmup=2_000,
                                                measure=10_000)
        assert result.kind == "workstation"
        assert result.workload == "DC"
        assert result.scheme == "interleaved"
        assert result.n_contexts == 4
        assert result.completed is True
        assert result.cycles == 10_000
        assert result.retired > 0
        assert result.ipc == pytest.approx(result.retired / 10_000)
        assert 0.0 < result.utilization <= 1.0
        assert abs(sum(result.breakdown.values()) - 1.0) < 1e-9
        assert sum(result.per_process.values()) == result.retired

    def test_kernel_run_matches_dedicated_construction(self):
        """Single-kernel load() reproduces the calibration-run path."""
        result = Simulation.from_config(
            SystemConfig.fast(), scheme="single",
            n_contexts=1).load("cfft2d").run(warmup=2_000,
                                             measure=10_000)
        assert list(result.per_process) == ["cfft2d.0"]
        assert result.retired > 0

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            ws_simulation().load("no-such-workload")

    def test_until_is_absolute(self):
        simulation = ws_simulation().load("DC")
        result = simulation.run(until=12_000, warmup=2_000)
        assert simulation.simulator.now == 12_000
        assert result.cycles == 10_000

    def test_until_before_warmup_rejected(self):
        with pytest.raises(ValueError, match="warmup"):
            ws_simulation().load("DC").run(until=1_000, warmup=2_000)

    def test_measure_or_until_required(self):
        with pytest.raises(TypeError):
            ws_simulation().load("DC").run()


class TestMultiprocessorRuns:
    def _simulation(self, **kwargs):
        return Simulation.from_config(
            MultiprocessorParams(n_nodes=2), scheme="interleaved",
            n_contexts=2, seed=7, **kwargs).load("mp3d", scale=0.25)

    def test_run_until_completion(self):
        result = self._simulation().run(until=10_000_000)
        assert result.kind == "multiprocessor"
        assert result.workload == "mp3d"
        assert result.completed is True
        assert result.cycles > 0
        assert len(result.per_process) == 4      # 2 nodes x 2 contexts

    def test_bound_hit_reports_incomplete(self):
        result = self._simulation().run(until=100)
        assert result.completed is False
        assert result.cycles == 100

    def test_warmup_measure_rejected(self):
        with pytest.raises(ValueError, match="workstation"):
            self._simulation().run(warmup=1_000)


class TestRunResultJson:
    def test_stable_and_raw_excluded(self):
        run = lambda: ws_simulation().load("DC").run(warmup=2_000,
                                                     measure=10_000)
        a, b = run(), run()
        assert a.to_json() == b.to_json()
        payload = json.loads(a.to_json())
        assert "raw" not in payload
        assert payload["kind"] == "workstation"
        assert payload["counts"]["BUSY"] > 0
        # sorted-keys contract: byte-stable across dict orderings
        assert list(payload) == sorted(payload)

    def test_raw_keeps_core_result(self):
        from repro.core.simulator import RunResult as CoreRunResult
        result = ws_simulation().load("DC").run(warmup=2_000,
                                                measure=10_000)
        assert isinstance(result.raw, CoreRunResult)
        assert result.raw.total_ipc() == pytest.approx(result.ipc)

    def test_with_workload(self):
        result = ws_simulation().load("DC").run(measure=5_000)
        renamed = result.with_workload("DC-alias")
        assert renamed.workload == "DC-alias"
        assert renamed.retired == result.retired
