"""Multiprocessor idle fast-forward and run API.

The burst engine parks idle nodes and jumps when *every* node is parked
or mid-burst; it must still reproduce the naive per-cycle loop bit for
bit — including the RNG-sensitive interconnect latencies, which is why
it steps runnable nodes in node order every cycle.  The small-machine
identity grid lives in tests/coherence/test_burst_engine_mp.py; this
file covers the memory-bound machine where the jumps are longest, and
the ``run(until=...)`` entry point.
"""

import dataclasses

import pytest

from repro.api import Simulation
from repro.config import MultiprocessorParams

SMALL_PARAMS = MultiprocessorParams(n_nodes=2)

#: Memory-latency-bound machine (~4x DASH latencies) where the idle
#: fast-forward dominates; mirrors benchmarks.
STRESS_PARAMS = MultiprocessorParams(
    n_nodes=4,
    local_memory=(120, 160),
    remote_memory=(400, 520),
    remote_cache=(520, 640),
)


def comparable(result):
    d = dataclasses.asdict(result)
    d.pop("engine")
    d.pop("raw")
    return d


def run_app(app, scheme, n_contexts, engine, params=SMALL_PARAMS,
            scale=0.25, seed=7):
    simulation = Simulation.from_config(
        params, scheme=scheme, n_contexts=n_contexts, seed=seed,
        engine=engine).load(app, scale=scale)
    return simulation.run()


class TestBitIdentical:
    @pytest.mark.slow
    @pytest.mark.parametrize("app", ("mp3d", "cholesky"))
    def test_memory_bound_stress_machine(self, app):
        """The benchmark-gate configuration, where jumps are longest."""
        burst = run_app(app, "interleaved", 2, "burst",
                        params=STRESS_PARAMS, scale=0.5, seed=1994)
        naive = run_app(app, "interleaved", 2, "naive",
                        params=STRESS_PARAMS, scale=0.5, seed=1994)
        assert burst.completed and naive.completed
        assert comparable(burst) == comparable(naive)


class TestUnifiedRunAPI:
    def _sim(self, **kwargs):
        return Simulation.from_config(
            SMALL_PARAMS, scheme="interleaved", n_contexts=2, seed=7,
            **kwargs).load("mp3d", scale=0.25).simulator

    def test_positional_cycles_rejected(self):
        sim = self._sim()
        with pytest.raises(TypeError):
            sim.run(1_000)
        assert sim.now == 0

    def test_run_defaults_to_completion(self):
        from repro.api import RunResult
        sim = self._sim()
        result = sim.run()
        assert isinstance(result, RunResult)
        assert result.kind == "multiprocessor"
        assert result.completed
        assert result.cycles == sim.now

    def test_run_until_bound_reports_incomplete(self):
        sim = self._sim()
        result = sim.run(until=10)
        assert result.completed is False
        assert sim.now == 10

    def test_engine_argument_validated(self):
        # "events" names the retired idle-only engine.
        for engine in ("warp", "events"):
            with pytest.raises(ValueError, match="engine"):
                self._sim(engine=engine)
