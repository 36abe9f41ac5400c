"""Multi-issue burst scheduling: slot packing, truncation, memo keys.

The Section 7 extension gives every cycle ``issue_width`` slots; the
burst compile step (repro.isa.segments) packs straight-line runs into
those slots with the per-cycle loop's exact hazard and stall-category
rules.  These tests pin the packing rules directly (known schedules,
WAW tails, cycle-boundary truncation), property-check the packed
schedule against a naive width-slot replay, cover the width-scaled
bulk stall-window charging in ``Processor._skip_stall_window``, and
regress the ``Program.bursts_for`` memo key (a width-2 run after a
width-1 run in the same process must not reuse stale schedules).
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.core.simulator import WorkstationSimulator
from repro.api import workstation_run_result
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.isa.segments import MIN_BURST, schedule_burst
from repro.pipeline.scoreboard import Scoreboard
from repro.workloads.generator import GenSpec, generate_process

#: PipelineParams.short_stall_threshold default — the short/long split.
THRESHOLD = 4

WIDTHS = (2, 4)


def alu(rd, rs1=9, rs2=10):
    return Instruction(Op.ADD, rd=rd, rs1=rs1, rs2=rs2)


def fp(op, rd, rs1, rs2):
    return Instruction(op, rd=rd, rs1=rs1, rs2=rs2)


def replay_multi_issue(insts, scoreboard, threshold, width, now=0):
    """The naive ``width``-slot loop for a sole-running context with all
    live-ins ready: each cycle offers ``width`` slots, a hazarded slot
    charges one stall in the naive category, an issued slot advances to
    the next instruction.  Returns the position *after the final
    issue* — ``(cycle, slot)`` — plus the per-category stall slots."""
    short = long_ = 0
    slot = 0
    i = 0
    while i < len(insts):
        inst = insts[i]
        until, kind = scoreboard.hazard_until(0, inst, now)
        if until > now:
            assert kind == "data"
            if until - now <= threshold:
                short += 1
            else:
                long_ += 1
        else:
            scoreboard.issue(0, inst, now)
            i += 1
        slot += 1
        if slot == width:
            slot = 0
            now += 1
    return now, slot, short, long_


class TestSlotPacking:
    """schedule_burst at width > 1 == the per-cycle slot rules."""

    def test_independent_pairs_dual_issue(self):
        """Four independent ALU ops fill two width-2 cycles exactly."""
        insts = [alu(1), alu(2), alu(3), alu(4)]
        burst = schedule_burst(insts, 0, THRESHOLD, width=2)
        assert burst.n == 4
        assert burst.duration == 2
        assert burst.width == 2
        assert burst.short_stalls == burst.long_stalls == 0

    def test_dependent_pair_truncates_to_none(self):
        """A 1-latency dependent pair never fills a width-2 cycle: both
        instructions issue in slot 0 of their cycles, so no prefix ends
        on a cycle boundary and no burst is built."""
        insts = [alu(1, 9, 10), alu(2, 1, 9)]
        assert schedule_burst(insts, 0, THRESHOLD, width=2) is None

    def test_odd_run_truncates_to_aligned_prefix(self):
        """Three independent ops at width 2: the third would leave its
        cycle half-filled (the trailing slot belongs to whatever follows
        the run), so the burst covers only the aligned pair."""
        insts = [alu(1), alu(2), alu(3)]
        burst = schedule_burst(insts, 0, THRESHOLD, width=2)
        assert burst.n == 2
        assert burst.duration == 1
        assert burst.instructions == tuple(insts[:2])
        # ... and the truncated schedule's stats describe only the pair.
        assert burst.short_stalls == burst.long_stalls == 0
        assert [r for r, _ in burst.writes_out] == [1, 2]

    def test_min_burst_respected_after_truncation(self):
        """An aligned prefix shorter than MIN_BURST yields no burst."""
        insts = [alu(1), alu(2, 1, 9), alu(3, 2, 9), alu(4, 3, 9)]
        # Every instruction depends on its predecessor: each issues in
        # slot 0 of its own cycle at width 4, so aligned prefix is 0.
        assert schedule_burst(insts, 0, THRESHOLD, width=4) is None
        assert MIN_BURST > 1

    def test_hazard_wastes_remaining_slots_of_cycle(self):
        """FADD f1; ALU; FMUL<-f1; ALU at width 2: the FMUL stalls from
        slot 0 of cycle 1 until f1 completes, charging width slots per
        full stall cycle, then co-issues with the trailing independent
        ALU — exactly the naive loop's per-slot accounting."""
        insts = [fp(Op.FADD, 33, 34, 35), alu(1),
                 fp(Op.FMUL, 36, 33, 34), alu(2)]
        lat = insts[0].info.latency
        assert lat > 1   # the scenario needs a real FP latency
        burst = schedule_burst(insts, 0, THRESHOLD, width=2)
        assert burst is not None
        assert burst.n == 4
        # Cycle 0: FADD+ALU.  Cycles 1..lat-1: FMUL hazarded, both
        # slots stall.  Cycle lat: FMUL + trailing ALU.
        assert burst.duration == lat + 1
        assert burst.short_stalls + burst.long_stalls == 2 * (lat - 1)
        sb = Scoreboard(1)
        now, slot, short, long_ = replay_multi_issue(
            list(burst.instructions), sb, THRESHOLD, 2)
        assert (burst.duration, 0) == (now, slot)
        assert burst.short_stalls == short
        assert burst.long_stalls == long_

    def test_partial_final_cycle_truncates_before_hazard(self):
        """When the post-stall tail cannot fill its cycle the burst is
        truncated back to the last aligned prefix — the hazarded
        instruction is left for per-issue stepping (which redispatches
        the suffix burst after the stall resolves)."""
        insts = [fp(Op.FADD, 33, 34, 35), alu(1),
                 alu(2), fp(Op.FMUL, 36, 33, 34)]
        burst = schedule_burst(insts, 0, THRESHOLD, width=2)
        # ALU2 issues at (1,0) and FMUL at (lat,0): neither ends its
        # cycle, so the aligned prefix is the first pair.
        assert burst is not None
        assert burst.instructions == tuple(insts[:2])
        assert burst.duration == 1
        assert burst.short_stalls == burst.long_stalls == 0

    def test_waw_tail_write_out_delta(self):
        """A WAW pair: the later write wins the write-out delta, and the
        WAW hazard (ready - latency) delays it exactly as the
        scoreboard's issue rule would — at width 2 as at width 1."""
        insts = [fp(Op.FADD, 33, 34, 35), alu(1),
                 fp(Op.FMUL, 33, 34, 35), alu(2)]
        for width in (1, 2):
            burst = schedule_burst(insts, 0, THRESHOLD, width=width)
            assert burst is not None and burst.n == 4, width
            sb = Scoreboard(1)
            now, slot, short, long_ = replay_multi_issue(
                list(burst.instructions), sb, THRESHOLD, width)
            assert burst.duration == now, width
            out = dict(burst.writes_out)
            assert out[33] == sb.reg_ready[33], width

    @pytest.mark.parametrize("width", WIDTHS)
    def test_slot_accounting_invariant(self, width):
        """Every slot of the window is an issue or an attributed stall:
        n + short + long == duration * width for cycle-aligned runs."""
        insts = [fp(Op.FADD, 33, 34, 35), alu(1), alu(2), alu(3),
                 fp(Op.FMUL, 36, 33, 34), alu(4), alu(5), alu(6)]
        burst = schedule_burst(insts, 0, THRESHOLD, width=width)
        assert burst is not None
        assert (burst.n + burst.short_stalls + burst.long_stalls
                == burst.duration * width)


_INT_OPS = (Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SLT)
_SHIFT_OPS = (Op.SLL, Op.SRL, Op.SRA)
_FP_OPS = (Op.FADD, Op.FSUB, Op.FMUL)


@st.composite
def straight_line_runs(draw):
    """A random burstable run mixing 1-cycle ALU, 2-cycle shifts, and
    5-cycle FP ops over a small register pool (dense dependencies)."""
    n = draw(st.integers(MIN_BURST, 24))
    insts = []
    for _ in range(n):
        family = draw(st.integers(0, 2))
        if family == 2:
            op = draw(st.sampled_from(_FP_OPS))
            regs = st.integers(33, 40)
        else:
            op = draw(st.sampled_from(
                _INT_OPS if family == 0 else _SHIFT_OPS))
            regs = st.integers(1, 8)
        insts.append(Instruction(op, rd=draw(regs), rs1=draw(regs),
                                 rs2=draw(regs)))
    return insts


class TestPackedScheduleProperty:
    @settings(max_examples=200, deadline=None)
    @given(insts=straight_line_runs(),
           threshold=st.integers(1, 8),
           width=st.sampled_from((2, 4)))
    def test_schedule_matches_width_slot_replay(self, insts, threshold,
                                                width):
        """The packed schedule reproduces the naive width-slot loop —
        duration, per-category stalls, and final scoreboard state — for
        whatever cycle-aligned prefix it covers."""
        burst = schedule_burst(insts, 0, threshold, width=width)
        if burst is None:
            # No cycle-aligned prefix of useful length; nothing to pin.
            return
        covered = list(burst.instructions)
        assert covered == insts[:burst.n]   # in order, prefix only

        sb = Scoreboard(1)
        now, slot, short, long_ = replay_multi_issue(
            covered, sb, threshold, width)
        assert slot == 0, "burst must end on a cycle boundary"
        assert burst.duration == now
        assert burst.short_stalls == short
        assert burst.long_stalls == long_
        assert (burst.n + burst.short_stalls + burst.long_stalls
                == burst.duration * width)

        bulk = Scoreboard(1)
        bulk.apply_burst_compiled(0, 0, burst)
        assert list(bulk.reg_ready) == list(sb.reg_ready)
        assert bytes(bulk.reg_mem) == bytes(sb.reg_mem)


# -- the dispatch side: _skip_stall_window width scaling -----------------------

def _spec_with_divides(seed=3):
    """FP-divide-heavy stream: FDIV is non-pipelined (never in a
    burst), so back-to-back divides drive the per-issue path straight
    into ``_skip_stall_window`` whenever the burst engine is on."""
    return GenSpec(name="fdiv", block_size=16, loop_iterations=32,
                   load_fraction=0.0, store_fraction=0.0,
                   fp_fraction=0.3, branch_fraction=0.0,
                   fdiv_per_block=3, dependency_distance=1,
                   footprint_words=64, seed=seed)


def _run_spec(spec, engine, width, scheme="single", n_contexts=1,
              cycles=4_000):
    processes = [generate_process(spec, index=i, verify=False)
                 for i in range(n_contexts)]
    config = SystemConfig.fast().with_pipeline(issue_width=width)
    sim = WorkstationSimulator(processes, scheme=scheme,
                               n_contexts=n_contexts, config=config,
                               seed=5, engine=engine)
    window = sim.measure(cycles)
    return workstation_run_result(sim, window, workload=spec.name)


def _comparable(result):
    d = dataclasses.asdict(result)
    d.pop("engine")
    d.pop("raw")
    return d


class TestSkipStallWindowWidthScaling:
    """Bulk stall-window charges == per-slot charges, at every width.

    The window opens mid-cycle (a hazard found at slot s wastes the
    remaining ``width - s`` slots) and then ``width`` slots per stall
    cycle; the short/long split walks the closing gap.  Divide-heavy
    single-context streams make the window the dominant charge path, so
    any mis-scaling shows up as a stat divergence from naive."""

    @pytest.mark.parametrize("width", (1, 2, 4))
    def test_divide_stream_bit_identical(self, width):
        spec = _spec_with_divides()
        burst = _run_spec(spec, "burst", width)
        naive = _run_spec(spec, "naive", width)
        assert _comparable(burst) == _comparable(naive)

    @pytest.mark.parametrize("width", (2, 4))
    def test_mid_cycle_window_open(self, width):
        """An ALU op sharing the divide's first cycle forces the window
        to open at slot 1+, exercising the ``slots_left`` charge."""
        spec = GenSpec(name="mix", block_size=12, loop_iterations=32,
                       load_fraction=0.0, store_fraction=0.0,
                       fp_fraction=0.0, branch_fraction=0.0,
                       fdiv_per_block=2, dependency_distance=2,
                       footprint_words=64, seed=9)
        burst = _run_spec(spec, "burst", width)
        naive = _run_spec(spec, "naive", width)
        assert _comparable(burst) == _comparable(naive)

    def test_window_actually_taken_at_width_2(self):
        """The bulk path must really fire (guard against a silent
        fallback to per-slot stepping that would vacuously pass the
        identity tests): with divides back to back and one context, a
        window is unavoidable."""
        from repro.config import PipelineParams
        from repro.core.processor import Processor
        from repro.core.sync import SyncManager
        from repro.core.simulator import Process
        from repro.isa import AsmBuilder
        from repro.isa.executor import Memory
        from repro.experiments.microbench import (FixedLatencyMemory,
                                                  run_to_halt)
        from dataclasses import replace

        pp = replace(PipelineParams(), issue_width=2)
        memory = Memory()
        proc = Processor("single", 1, pp, FixedLatencyMemory(), memory,
                         sync=SyncManager())
        proc.burst_enabled = True
        proc.burst_limit = 1 << 60
        b = AsmBuilder("fdiv", code_base=0x1000, data_base=0x400000)
        b.addi("t0", "zero", 7)
        b.addi("t1", "zero", 3)
        b.fdiv("f1", "f2", "f3")
        b.fdiv("f4", "f1", "f2")   # RAW on f1: a long stall window
        b.halt()
        program = b.build()
        program.load(memory)
        proc.load_process(0, Process("fdiv", program))

        taken = []
        original = Processor._skip_stall_window

        def spy(self, ctx, now, until, kind, slots_left):
            ok = original(self, ctx, now, until, kind, slots_left)
            if ok:
                taken.append((now, until, slots_left))
            return ok

        Processor._skip_stall_window = spy
        try:
            run_to_halt(proc)
        finally:
            Processor._skip_stall_window = original
        assert taken, "back-to-back divides must open a stall window"
        # The window opened mid-cycle at least once (slots_left < 2
        # would mean slot 1), or at a cycle boundary with both slots
        # charged; either way the charge covered every slot:
        stats = proc.stats
        width = 2
        total = sum(stats.counts)
        # Every cycle of the run accounts exactly `width` slots.
        assert total % width == 0


# -- the memo key (satellite regression) ---------------------------------------

class TestBurstTableMemo:
    def test_memo_keys_on_width(self):
        """One Program, two widths, one process: distinct tables, both
        memoised, with width recorded on every burst."""
        program = generate_process(
            GenSpec(name="memo", seed=17), index=0).program
        t1 = program.bursts_for(THRESHOLD, 1)
        t2 = program.bursts_for(THRESHOLD, 2)
        assert t1 is not t2
        assert t1 is program.bursts_for(THRESHOLD, 1)    # memo hit
        assert t2 is program.bursts_for(THRESHOLD, 2)
        assert all(b.width == 1 for b in t1 if b is not None)
        assert all(b.width == 2 for b in t2 if b is not None)
        # The packings genuinely differ: some run is faster when dual
        # issued (otherwise this whole PR would be a no-op).
        assert any(b1 is not None and b2 is not None
                   and b1.n == b2.n and b2.duration < b1.duration
                   for b1, b2 in zip(t1, t2))

    def test_default_width_key_is_one(self):
        program = generate_process(
            GenSpec(name="memo2", seed=18), index=0).program
        assert program.bursts_for(THRESHOLD) \
            is program.bursts_for(THRESHOLD, 1)

    @pytest.mark.parametrize("first,second", [(1, 2), (2, 1), (2, 4)])
    def test_both_widths_in_one_process_stay_exact(self, first, second):
        """Run the same spec at two widths back to back in one process;
        the second run must match its own naive reference — a stale
        memo (the pre-fix bug: tables keyed on threshold alone) would
        replay the first width's schedules and diverge."""
        spec = GenSpec(name="memo3", seed=21, fp_fraction=0.2,
                       dependency_distance=2)
        for width in (first, second):
            burst = _run_spec(spec, "burst", width, scheme="interleaved",
                              n_contexts=2)
            naive = _run_spec(spec, "naive", width, scheme="interleaved",
                              n_contexts=2)
            assert _comparable(burst) == _comparable(naive), width
