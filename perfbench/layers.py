"""Per-layer metrics from one traced pass.

The catalogue (names, units, directions, and which end-to-end metric
each should move on which workload) lives in ``layers.json`` beside
this file.  :func:`simulation_metrics` derives the simulator layers'
metrics from a :class:`tracer.Tracer` plus the model counters read from
each finished simulation; :func:`fanout_metrics` does the same for the
fan-out pass.  A layer that did not run reports zeros.
"""

import json
import os
from collections import Counter

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "layers.json")) as _f:
    CATALOGUE = json.load(_f)["metrics"]

#: Metrics a second traced run of the same code must reproduce exactly:
#: model counters and call counts (never timings, and never the
#: fan-out's race-dependent burst-cache or byte counts).
DETERMINISTIC = tuple(
    m["name"] for m in CATALOGUE
    if m["unit"] != "s" and m["layer"] not in ("trace",)
    and m["name"] not in ("service.bytes_out", "burst_cache.hits",
                          "burst_cache.misses", "burst_cache.rejected"))

def _ratio(num, den):
    return num / den if den else 0.0


def model_counters(simulation):
    """Model counters of one finished simulation (absent ones are 0)."""
    out = Counter()
    sim = simulation.simulator
    memsys = getattr(sim, "memsys", None)
    if memsys is not None:
        for name in ("l1d", "l1i", "l2"):
            cache = getattr(memsys, name)
            out[name + ".hits"] += cache.hits
            out[name + ".misses"] += cache.misses
        out["tlb.hits"] += memsys.dtlb.hits
        out["tlb.misses"] += memsys.dtlb.misses
        out["mshr.structural_stalls"] += memsys.mshr.structural_stalls
    machine = getattr(sim, "machine", None)
    if machine is not None:
        for name in ("read_misses", "write_misses", "invalidations_sent",
                     "remote_fills", "nack_retries"):
            out["coherence." + name] += getattr(machine, name, 0)
    processors = getattr(sim, "processors", None) or [sim.processor]
    for proc in processors:
        out["btb.lookups"] += proc.btb.lookups
        out["btb.mispredicts"] += proc.btb.mispredicts
    return out


def simulation_metrics(tracer, model, retired, proc_cycles):
    """Per-layer metrics of a traced serial pass.

    ``model`` sums :func:`model_counters` over the pass's cells;
    ``retired`` and ``proc_cycles`` are the pass's totals over its timed
    ``run()`` calls.
    """
    t = tracer
    obs = t.counts
    m = {}
    step_calls = t.calls("Processor.step")
    m["engine.self_s"] = t.self_s("run")
    m["engine.step_calls"] = step_calls
    m["engine.stepped_cycle_share"] = _ratio(step_calls, proc_cycles)

    dispatches = t.calls("Scoreboard.apply_burst_compiled")
    guards = t.calls("Scoreboard.can_dispatch_burst")
    m["processor.self_s"] = t.layer_self_s("processor")
    m["processor.burst_dispatches"] = dispatches
    m["processor.burst_retired_share"] = _ratio(obs["burst.n"], retired)
    m["processor.burst_guard_pass_ratio"] = _ratio(dispatches, guards)
    m["processor.insts_per_burst"] = _ratio(obs["burst.n"], dispatches)

    m["policy.select_calls"] = t.layer_calls("policy")
    m["policy.self_s"] = t.layer_self_s("policy")

    m["isa.execute_calls"] = t.calls("execute")
    m["isa.execute_s"] = t.self_s("execute")
    m["isa.bursts_for_calls"] = t.calls("Program.bursts_for")
    m["isa.bursts_for_s"] = t.self_s("Program.bursts_for")

    m["scoreboard.calls"] = t.layer_calls("scoreboard")
    m["scoreboard.self_s"] = t.layer_self_s("scoreboard")

    m["btb.calls"] = t.layer_calls("btb")
    m["btb.self_s"] = t.layer_self_s("btb")
    m["btb.mispredict_ratio"] = _ratio(model["btb.mispredicts"],
                                       model["btb.lookups"])

    accesses = t.calls("MemorySystem.data_access")
    run_hits = t.calls("MemorySystem.inst_run_hits")
    m["memory.data_access_calls"] = accesses
    m["memory.data_access_s"] = t.self_s("MemorySystem.data_access")
    m["memory.inst_fetch_calls"] = t.calls("MemorySystem.inst_fetch")
    m["memory.inst_fetch_s"] = t.self_s("MemorySystem.inst_fetch")
    m["memory.inst_run_hits_calls"] = run_hits
    m["memory.inst_run_hits_pass_ratio"] = _ratio(
        obs["inst_run_hits.pass"], run_hits)
    m["memory.level_l1_share"] = _ratio(obs["level.l1"], accesses)
    m["memory.level_miss_share"] = _ratio(
        obs["level.l2"] + obs["level.mem"], accesses)
    for level in ("tlb", "mshr", "pending"):
        m["memory.level_%s_share" % level] = _ratio(
            obs["level." + level], accesses)
    for name in ("l1d", "l1i", "l2", "tlb"):
        m["memory.%s_miss_ratio" % name] = _ratio(
            model[name + ".misses"],
            model[name + ".hits"] + model[name + ".misses"])
    m["memory.mshr_structural_stalls"] = model["mshr.structural_stalls"]

    m["coherence.access_calls"] = t.calls("DSMachine.access")
    m["coherence.access_s"] = t.layer_self_s("coherence")
    for name in ("read_misses", "write_misses", "invalidations_sent",
                 "remote_fills", "nack_retries"):
        m["coherence." + name] = model["coherence." + name]

    m["sync.calls"] = t.layer_calls("sync")
    m["sync.self_s"] = t.layer_self_s("sync")
    m["sync.acquire_fail_ratio"] = _ratio(
        obs["acquire.fail"], t.calls("SyncManager.try_acquire"))

    m["os.calls"] = t.layer_calls("os")
    m["os.self_s"] = t.layer_self_s("os")

    build_s = t.layer_self_s("setup")
    m["setup.build_s"] = build_s
    # The load span minus workload build and burst-table compile.
    m["setup.sim_init_s"] = sum(
        r[2] for (name, _p, phase), r in t.agg.items()
        if phase == "setup" and name != "Program.bursts_for"
        and t.layers.get(name) != "setup")
    return m


def fanout_metrics(tracer, p, serial_s, workers):
    """Per-layer metrics of a traced fan-out pass ``p``.

    ``fanout.overhead_s`` is the pass's wall time over both paths minus
    what ``workers`` perfectly parallel workers would need for the
    points' ``serial_s`` in-process compute seconds, once per path.
    """
    m = {"sweep.wall_s": tracer.self_s("sweep.run"),
         "service.wall_s": (tracer.self_s("service.submit")
                            + tracer.self_s("service.stream")),
         "service.requests": p.server_stats.get("requests", 0),
         "service.bytes_out": p.server_stats.get("bytes_out", 0),
         "service.frames_out": p.server_stats.get("frames_out", 0)}
    m["fanout.overhead_s"] = (m["sweep.wall_s"] + m["service.wall_s"]
                              - 2 * serial_s / workers)
    for key in ("hits", "misses", "rejected"):
        m["burst_cache." + key] = p.burst_cache.get(key, 0)
    return m


def all_metrics(values):
    """Every catalogue metric, zero where the layer did not run."""
    return {m["name"]: {"value": values.get(m["name"], 0),
                        "unit": m["unit"]} for m in CATALOGUE}
