"""The benchmark's measurement loops, checks and result assembly.

``run.py`` is the command-line entry point; this module is imported
once ``src/`` is on the path.  :func:`run` measures one workload and
returns the result object the command prints; :func:`record_digests`
rewrites ``digests.json``.
"""

import json
import os
import resource
import shutil
import time
from collections import Counter
from statistics import mean, median

import cells
import hostspeed
import layers
from tracer import Tracer, all_hooks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1994
DIGESTS = os.path.join(HERE, "digests.json")

#: The end-to-end metrics and their units (BENCHMARK.json must agree;
#: the self-test checks it).
UNITS = {"inst_per_s": "inst/s", "cycles_per_s": "cycles/s",
         "setup_s": "s", "points_per_s": "points/s",
         "first_result_s": "s", "peak_rss_mb": "MiB"}


def peak_rss_mb(children=False):
    """Peak resident memory (MiB) of this process, or of it and its
    largest finished child."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def load_reference(workload, sizing, seed):
    """Recorded digests for this workload, or None when the seed or the
    sizing differs from the recording (then the naive engine decides)."""
    if seed != DEFAULT_SEED or not os.path.exists(DIGESTS):
        return None
    with open(DIGESTS) as f:
        entry = json.load(f)["workloads"].get(workload)
    if entry is None or entry["sizing"] != sizing:
        return None
    return entry["cells"]


def naive_reference(workload, sizing, seed):
    """label -> digest under the reference engine."""
    ref = {}
    if workload == "fanout":
        spec = cells.fanout_spec(sizing, seed)
        for point in spec.points:
            payload, _ = cells.compute_point_payload(
                point, spec, cells.REFERENCE_ENGINE)
            ref[cells.label(point)] = cells.digest_of(payload)
        return ref
    for cell in cells.cells_for(workload):
        run = cells.run_cell(cell, sizing, seed,
                             engine=cells.REFERENCE_ENGINE)
        ref[cells.label(cell)] = run.digest if run.error is None else None
    return ref


class Checker:
    """Counts attempted and failed cells against a reference."""

    def __init__(self, workload, sizing, seed, reference=None):
        self.workload, self.sizing, self.seed = workload, sizing, seed
        self.reference = (reference if reference is not None
                          else load_reference(workload, sizing, seed))
        self.observed = []            # (label, digest or None, error)

    def add(self, label, digest, error=None):
        self.observed.append((label, digest, error))

    def finish(self):
        """(attempted, failed, messages), computing a naive reference
        first when no recorded one applies."""
        if self.reference is None:
            self.reference = naive_reference(self.workload, self.sizing,
                                             self.seed)
        failed, messages = 0, []
        for label, digest, error in self.observed:
            expect = self.reference.get(label)
            if error is not None:
                failed += 1
                messages.append("FAIL %s: %s" % (label, error))
            elif expect is None or digest != expect:
                failed += 1
                messages.append("FAIL %s: digest %s != reference %s"
                                % (label, digest, expect))
        return len(self.observed), failed, messages


# -- serial workloads -------------------------------------------------------------

def serial_pass(cell_list, sizing, seed, checker, gauge=None):
    """One pass over every cell; returns its per-cell runs, each with
    its host-speed factor (1.0 when no gauge is given)."""
    runs = []
    for cell in cell_list:
        run = cells.run_cell(cell, sizing, seed)
        checker.add(cells.label(cell), run.digest, run.error)
        runs.append((run, gauge.factor() if gauge else 1.0))
    return runs


def setup_samples(time_one, gauge):
    """``SETUP_REPS`` timed cold set-ups, in reference seconds, after an
    untimed one (which pays the process's one-off imports)."""
    samples = []
    for _ in range(cells.SETUP_REPS + 1):
        seconds = time_one()
        samples.append(seconds * gauge.factor())
    return samples[1:]


def rates(runs, first_results):
    """Throughputs summed over every timed cell of the run, in
    reference seconds (``runs`` holds (run, factor) pairs)."""
    run_s = sum(r.run_s * f for r, f in runs)
    busy = run_s + sum(r.setup_s * f for r, f in runs)
    return {"inst_per_s": sum(r.retired for r, _ in runs) / run_s,
            "cycles_per_s": sum(r.proc_cycles for r, _ in runs) / run_s,
            "points_per_s": len(runs) / busy,
            "first_result_s": median(first_results)}


def serial_untraced(workload, sizing, seed, seconds, checker, out):
    cell_list = cells.cells_for(workload)
    gauge = hostspeed.Gauge()
    setups = setup_samples(
        lambda: cells.time_setups(cell_list, sizing, seed), gauge)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        runs = serial_pass(cell_list, sizing, seed, checker, gauge)
        passes.append([(r._replace(simulation=None), f) for r, f in runs])
    rss = peak_rss_mb()
    good = [(r, f) for p in passes for r, f in p if r.error is None]
    if not good:
        return dict.fromkeys(UNITS, 0.0)
    firsts = [(r.setup_s + r.run_s) * f for r, f in (p[0] for p in passes)
              if r.error is None]
    metrics = rates(good, firsts or [0.0])
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = rss
    for i, cell in enumerate(cell_list):
        ok = [p[i] for p in passes if p[i][0].error is None]
        if ok:
            host_s = sum(r.run_s for r, _ in ok)
            ref_s = sum(r.run_s * f for r, f in ok)
            retired = sum(r.retired for r, _ in ok)
            cycles = sum(r.proc_cycles for r, _ in ok)
            out("cell %-22s inst_per_s=%.1f cycles_per_s=%.1f "
                "host_inst_per_s=%.1f host_cycles_per_s=%.1f "
                "setup_s=%.5f digest=%s" % (
                    cells.label(cell), retired / ref_s, cycles / ref_s,
                    retired / host_s, cycles / host_s,
                    median([r.setup_s * f for r, f in ok]),
                    ok[0][0].digest))
    out("passes=%d setup_samples=%d first_result_samples_ms=%s"
        % (len(passes), len(setups),
           " ".join("%.1f" % (1e3 * x) for x in firsts)))
    out(speed_line(gauge))
    return metrics


def speed_line(gauge):
    """Detail line: the range of the run's host-speed factors."""
    factors = sorted(gauge.factors)
    return ("host_speed factor median=%.4f min=%.4f max=%.4f probes=%d"
            % (median(factors), factors[0], factors[-1], len(factors)))


def traced_pass(cell_list, sizing, seed, checker):
    """One pass under a freshly installed tracer; returns
    (tracer, model counters, retired, proc_cycles, wall)."""
    model = Counter()
    retired = proc_cycles = 0
    with Tracer().install(all_hooks()) as tracer:
        t0 = time.perf_counter()
        with tracer.span("pass"):
            for cell in cell_list:
                run = cells.run_cell(cell, sizing, seed, tracer=tracer)
                checker.add(cells.label(cell), run.digest, run.error)
                if run.simulation is not None:
                    model.update(layers.model_counters(run.simulation))
                retired += run.retired
                proc_cycles += run.proc_cycles
        wall = time.perf_counter() - t0
    return tracer, model, retired, proc_cycles, wall


def untraced_walls(run_pass, seconds):
    walls = []
    start = time.perf_counter()
    while len(walls) < 2 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        run_pass()
        walls.append(time.perf_counter() - t0)
    return walls


def serial_traced(workload, sizing, seed, seconds, checker, out):
    cell_list = cells.cells_for(workload)
    walls = untraced_walls(
        lambda: serial_pass(cell_list, sizing, seed, checker), seconds / 2)
    del walls[0]                # the first pass warms the process up
    results = [traced_pass(cell_list, sizing, seed, checker)
               for _ in range(2)]
    metrics = []
    for tracer, model, retired, proc_cycles, wall in results:
        m = layers.simulation_metrics(tracer, model, retired, proc_cycles)
        m["trace.overhead_ratio"] = wall / median(walls)
        metrics.append(m)
    tracer, _, _, _, wall = results[0]
    problems = trace_problems(tracer, wall, metrics)
    for layer, (calls, self_s) in sorted(tracer.by_layer().items()):
        out("layer %-10s calls=%-9d self_s=%.4f share=%.3f"
            % (layer, calls, self_s, self_s / wall))
    out("trace wall_s=%.4f self_sum_s=%.4f untraced_wall_s=%.4f "
        "missing_hooks=%s" % (wall, tracer.self_total(), median(walls),
                              ",".join(tracer.missing) or "none"))
    return metrics[0], problems


#: Largest allowed gap between the traced wall time and the sum of all
#: spans' self times, as a share of the wall time.
SELF_SUM_TOLERANCE = 0.01


def trace_problems(tracer, wall, metrics):
    """Accounting and determinism failures of a traced run."""
    problems = []
    gap = abs(tracer.self_total() - wall)
    if gap > SELF_SUM_TOLERANCE * wall:
        problems.append("self times sum to %.4f s, traced wall %.4f s"
                        % (tracer.self_total(), wall))
    first, second = metrics
    for name in layers.DETERMINISTIC:
        if first.get(name, 0) != second.get(name, 0):
            problems.append("%s differs between traced runs: %r != %r"
                            % (name, first.get(name), second.get(name)))
    return problems


# -- fanout -------------------------------------------------------------------------

def fanout_check(spec, fan_pass, checker):
    """Check each point's payload from both paths (sweep, service)."""
    for point in spec.points:
        label = cells.label(point)
        got = fan_pass.payloads.get(label, [])
        for path in range(2):
            if path < len(got):
                checker.add(label, cells.digest_of(got[path]))
            else:
                checker.add(label, None, "not delivered by path %d" % path)


def fanout_rates(spec, passes):
    """Throughputs over every pass: delivered work / both paths' walls,
    in reference seconds (``passes`` holds (pass, factor) pairs)."""
    retired = cycles = delivered = 0
    for fan_pass, _ in passes:
        for payload_list in fan_pass.payloads.values():
            for payload in payload_list:
                data = json.loads(payload)
                procs = (spec.mp_params.n_nodes
                         if data["kind"] == "multiprocessor" else 1)
                retired += data["retired"]
                cycles += data["cycles"] * procs
                delivered += 1
    wall = sum((p.sweep_wall + p.service_wall) * f for p, f in passes)
    # The mean, not the median: there is one sample per pass, each noisy
    # from process starts, and over six unscaled ten-run sets the mean
    # spread less than the median in five.
    return {"inst_per_s": retired / wall, "cycles_per_s": cycles / wall,
            "points_per_s": delivered / wall,
            "first_result_s": mean([p.first_result_s * f
                                    for p, f in passes])}


def fanout_untraced(sizing, seed, seconds, checker, out, tmp):
    spec = cells.fanout_spec(sizing, seed)
    workers = cells.fanout_workers()
    gauge = hostspeed.Gauge()
    setups = setup_samples(lambda: cells.time_service_setup(tmp, workers),
                           gauge)
    # One untimed pass first: the first fork of a fresh process pays
    # one-off page-cache and import costs no later pass sees.
    fanout_check(spec, cells.fanout_pass(spec, tmp, workers), checker)
    gauge.factor()              # re-probe: the untimed pass took a while
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        fan_pass = cells.fanout_pass(spec, tmp, workers)
        passes.append((fan_pass, gauge.factor()))
        fanout_check(spec, fan_pass, checker)
    metrics = fanout_rates(spec, passes)
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb(children=True)
    for i, (p, factor) in enumerate(passes):
        out("pass %d host sweep_s=%.4f service_s=%.4f first_result_s=%.4f "
            "setup_s=%.5f speed_factor=%.4f burst_cache=%s" % (
                i, p.sweep_wall, p.service_wall, p.first_result_s,
                p.setup_s, factor,
                json.dumps(p.burst_cache, sort_keys=True)))
    out("workers=%d points=%d setup_samples_ms=%s"
        % (workers, len(spec.points),
           " ".join("%.2f" % (1e3 * x) for x in setups)))
    out(speed_line(gauge))
    return metrics


def fanout_traced(sizing, seed, seconds, checker, out, tmp):
    spec = cells.fanout_spec(sizing, seed)
    workers = cells.fanout_workers()

    def one_pass(tracer=None):
        fan_pass = cells.fanout_pass(spec, tmp, workers, tracer=tracer)
        fanout_check(spec, fan_pass, checker)
        return fan_pass

    walls = untraced_walls(one_pass, seconds / 2)
    del walls[0]                # the first pass warms the process up
    serial_s = sum(cells.compute_point_payload(p, spec, cells.ENGINE)[1]
                   for p in spec.points)
    metrics, tracers = [], []
    for _ in range(2):
        tracer = Tracer()
        t0 = time.perf_counter()
        with tracer.span("pass"):
            fan_pass = one_pass(tracer)
        wall = time.perf_counter() - t0
        m = layers.fanout_metrics(tracer, fan_pass, serial_s, workers)
        m["trace.overhead_ratio"] = wall / median(walls)
        metrics.append(m)
        tracers.append((tracer, wall))
    tracer, wall = tracers[0]
    problems = trace_problems(tracer, wall, metrics)
    out("trace wall_s=%.4f self_sum_s=%.4f untraced_wall_s=%.4f "
        "serial_compute_s=%.4f workers=%d"
        % (wall, tracer.self_total(), median(walls), serial_s, workers))
    return metrics[0], problems


# -- entry points -------------------------------------------------------------------

def run(workload, seed, seconds, trace, size="full", reference=None,
        out=print):
    """Run one workload; returns the result object the CLI prints."""
    sizing = cells.sizing_for(workload, size)
    checker = Checker(workload, sizing, seed, reference)
    tmp = os.path.join(ROOT, ".perfbench_tmp")
    problems = []
    try:
        if workload == "fanout":
            body = fanout_traced if trace else fanout_untraced
            result = body(sizing, seed, seconds, checker, out, tmp)
        else:
            body = serial_traced if trace else serial_untraced
            result = body(workload, sizing, seed, seconds, checker, out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if trace:
        values, problems = result
        metrics = layers.all_metrics(values)
    else:
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in UNITS.items()}
    attempted, failed, messages = checker.finish()
    for message in messages + ["FAIL trace: " + p for p in problems]:
        out(message)
    failed += len(problems)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def record_digests(out=print):
    """Recompute digests.json at the default seed, confirmed on naive."""
    data = {"seed": DEFAULT_SEED, "engine": cells.ENGINE,
            "reference_engine": cells.REFERENCE_ENGINE, "workloads": {}}
    for workload in cells.WORKLOADS:
        sizing = cells.sizing_for(workload, "full")
        fast = {}
        if workload == "fanout":
            spec = cells.fanout_spec(sizing, DEFAULT_SEED)
            for point in spec.points:
                payload, _ = cells.compute_point_payload(point, spec,
                                                         cells.ENGINE)
                fast[cells.label(point)] = cells.digest_of(payload)
        else:
            for cell in cells.cells_for(workload):
                run = cells.run_cell(cell, sizing, DEFAULT_SEED)
                fast[cells.label(cell)] = (run.digest if run.error is None
                                           else None)
        slow = naive_reference(workload, sizing, DEFAULT_SEED)
        bad = sorted(k for k in fast if fast[k] is None
                     or fast[k] != slow.get(k))
        if bad:
            out("%s: %s differ from the %s engine; not recorded"
                % (workload, ", ".join(bad), cells.REFERENCE_ENGINE))
            return 1
        data["workloads"][workload] = {"sizing": sizing, "cells": fast}
        out("%s: %d digests match %s" % (workload, len(fast),
                                          cells.REFERENCE_ENGINE))
    with open(DIGESTS, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0
