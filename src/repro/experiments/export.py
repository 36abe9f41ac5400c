"""Structured (JSON) export of experiment results.

Downstream analysis (plotting, regression tracking) wants numbers, not
rendered tables; this module turns stats objects and experiment results
into plain dictionaries and writes them as JSON.
"""

import json

from repro.experiments.runner import dedicated_rate_of
from repro.pipeline.stalls import Stall


def stats_to_dict(stats):
    """A CycleStats as a plain dictionary."""
    return {
        "cycles": stats.total_cycles,
        "retired": stats.retired,
        "issued": stats.issued,
        "squashed": stats.squashed,
        "context_switches": stats.context_switches,
        "backoffs": stats.backoffs,
        "utilization": stats.utilization(),
        "ipc": stats.ipc(),
        "mean_runlength": stats.mean_runlength(),
        "slots": {Stall(i).name.lower(): count
                  for i, count in enumerate(stats.counts)},
    }


def uniproc_run_to_dict(run):
    """An ExperimentContext PointRun of a workstation point as a plain
    dictionary."""
    result = run.result
    return {
        "duration": result.duration,
        "per_process": dict(result.per_process),
        "stats": stats_to_dict(result.stats),
    }


def mp_result_to_dict(result):
    """An MPResult as a plain dictionary."""
    return {
        "cycles": result.cycles,
        "nodes": [stats_to_dict(s) for s in result.node_stats],
        "stats": stats_to_dict(result.stats),
        "protocol": {
            "read_misses": result.machine.read_misses,
            "write_misses": result.machine.write_misses,
            "upgrades": result.machine.upgrades,
            "invalidations": result.machine.invalidations_sent,
            "cache_to_cache": result.machine.dirty_remote_services,
            "remote_fills": result.machine.remote_fills,
            "nack_retries": result.machine.nack_retries,
        },
    }


def context_to_dict(ctx):
    """Everything an ExperimentContext has memoised, as a dictionary.

    Points are labelled ``name/scheme/n_contexts``; a generated
    family's label carries the ``gen:`` prefix of its load name.
    """
    out = {"uniprocessor": {}, "dedicated_rates": {}, "multiprocessor": {}}
    for point, run in ctx.runs.items():
        label = "%s/%s/%d" % point[1:]
        if point.kind == "mp":
            out["multiprocessor"][label] = mp_result_to_dict(run.result)
        elif point.kind == "dedicated":
            out["dedicated_rates"][point.name] = dedicated_rate_of(
                run.result)
        else:
            if point.kind == "gen":
                label = "gen:" + label
            out["uniprocessor"][label] = uniproc_run_to_dict(run)
    return out


def sweep_report_to_dict(report, **extra):
    """A SweepReport plus arbitrary metadata, as one JSON-able dict.

    Used by the CI benchmark smoke job to publish serial-vs-parallel
    sweep timings (``BENCH_sweep.json``).
    """
    payload = report.to_dict()
    payload.update(extra)
    return payload


def write_json(path, payload):
    """Serialise ``payload`` (any of the dicts above) to ``path``."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return path
