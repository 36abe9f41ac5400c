"""The event protocol and the run API of the workstation simulator.

The burst engine fast-forwards idle windows through the
``next_event_cycle``/``idle_until`` protocol; its bit-identity with the
naive per-cycle reference lives in tests/core/test_burst_engine.py.
These tests check the protocol's no-overshoot property with hypothesis,
pin the deadlock semantics that separate the two engines, and pin the
``run(until=...)`` entry point.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.core.context import HardwareContext
from repro.core.simulator import (
    WorkstationSimulator, Process, SimulationDeadlock,
)
from repro.isa import AsmBuilder
from repro.workloads.generator import GenSpec, generate_process


class TestNextEventProtocol:
    """``next_event_cycle`` never overshoots a wakeup.

    Property: whenever the processor predicts its next issue opportunity
    strictly in the future, stepping the current cycle must not issue or
    retire anything — a prediction that skipped over real work would
    corrupt the fast-forward.  Checked on the burst engine's processor,
    stepping the way its loop does: a dispatched burst owns the cycles
    up to ``burst_until``.
    """

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1 << 16),
           scheme=st.sampled_from(["blocked", "interleaved"]),
           n_contexts=st.sampled_from([1, 2, 4]),
           load=st.floats(0.05, 0.35),
           fdiv=st.integers(0, 2),
           distance=st.integers(1, 8))
    def test_never_overshoots(self, seed, scheme, n_contexts, load,
                              fdiv, distance):
        spec = GenSpec(load_fraction=load, fdiv_per_block=fdiv,
                       dependency_distance=distance,
                       footprint_words=4096, seed=seed)
        procs = [generate_process(spec, index=i, verify=False)
                 for i in range(n_contexts)]
        sim = WorkstationSimulator(procs, scheme=scheme,
                                   n_contexts=n_contexts,
                                   config=SystemConfig.fast(),
                                   restart_halted=False, engine="burst")
        proc = sim.processor
        proc.burst_limit = 3_000
        stats = proc.stats
        now = 0
        while now < 3_000:
            predicted = proc.next_event_cycle(now)
            assert predicted >= now
            if predicted > now:
                retired, issued = stats.retired, stats.issued
                proc.step(now)
                assert stats.retired == retired, (
                    "retired at %d despite wake predicted at %d"
                    % (now, predicted))
                assert stats.issued == issued, (
                    "issued at %d despite wake predicted at %d"
                    % (now, predicted))
            else:
                proc.step(now)
            now = max(now + 1, proc.burst_until)


class TestDeadlockSemantics:
    """The one documented behavioural difference between the engines."""

    def _blocked_sim(self, engine):
        lock_addr = 0x7000
        b = AsmBuilder("p", code_base=0x1000, data_base=0x400000)
        b.li("t0", lock_addr)
        b.lock(0, "t0")
        b.halt()
        sim = WorkstationSimulator([Process("p", b.build())],
                                   scheme="single", n_contexts=1,
                                   config=SystemConfig.fast(),
                                   restart_halted=False, engine=engine)
        # Pre-hold the lock on behalf of a phantom owner, so the one
        # process blocks on something no one will ever release.
        sim.sync.try_acquire(lock_addr, "phantom", HardwareContext(9))
        return sim

    def test_burst_engine_raises(self):
        sim = self._blocked_sim("burst")
        with pytest.raises(SimulationDeadlock):
            sim.run(until=50_000)

    def test_naive_engine_burns_to_the_bound(self):
        # The reference loop has no deadlock detector: it charges SYNC
        # idle slots until the bound.  The burst engine adds detection
        # because jumping would otherwise spin forever at one cycle.
        sim = self._blocked_sim("naive")
        result = sim.run(until=50_000)
        assert sim.now == 50_000
        assert result.retired <= 2


class TestUnifiedRunAPI:
    """run(until=...) is the one entry point; until is keyword-only."""

    def _sim(self, **kwargs):
        b = AsmBuilder("p", code_base=0x1000, data_base=0x400000)
        b.label("top")
        b.addi("t0", "t0", 1)
        b.j("top")
        b.halt()
        return WorkstationSimulator([Process("p", b.build())],
                                    scheme="single", n_contexts=1,
                                    config=SystemConfig.fast(), **kwargs)

    def test_positional_cycles_rejected(self):
        sim = self._sim()
        with pytest.raises(TypeError):
            sim.run(1_000)
        assert sim.now == 0

    def test_until_is_absolute_and_does_not_warn(self):
        import warnings
        sim = self._sim()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim.run(until=1_500)
        assert sim.now == 1_500

    def test_both_forms_rejected(self):
        sim = self._sim()
        with pytest.raises(TypeError):
            sim.run(1_000, until=2_000)

    def test_neither_form_rejected(self):
        sim = self._sim()
        with pytest.raises(TypeError):
            sim.run()

    def test_run_returns_api_run_result(self):
        from repro.api import RunResult
        sim = self._sim()
        result = sim.run(until=1_000)
        assert isinstance(result, RunResult)
        assert result.kind == "workstation"
        assert result.cycles == 1_000
        assert result.retired > 0

    def test_engine_argument_validated(self):
        # "events" names the retired idle-only engine.
        for engine in ("warp", "events"):
            with pytest.raises(ValueError, match="engine"):
                self._sim(engine=engine)

    def test_default_engine_is_burst(self):
        assert self._sim().engine == "burst"
