"""The benchmark's workloads: which cells run, at what size, and how.

A *cell* is one simulation the paper's grid asks for: a workstation mix
under one scheme and context count, or a SPLASH app on the DSM machine.
``ws-multi``, ``ws-single`` and ``mp-dsm`` run their cells serially in
this process through :class:`repro.api.Simulation`.  ``fanout`` sends a
slice of the sweep's points through both process fan-outs:
:class:`repro.experiments.sweep.SweepEngine` and a
:class:`repro.service.JobManager` behind a loopback
:class:`repro.service.net.ServiceServer`, streamed by one
:class:`repro.service.client.ServiceClient`.

Every cell's result is reduced to a digest of ``RunResult.to_json()``
with the ``engine`` field dropped, so the fast engine can be checked
against the ``naive`` reference engine bit for bit.
"""

import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from collections import namedtuple
from contextlib import nullcontext

from repro.api import Simulation
from repro.config import MultiprocessorParams, SystemConfig

#: The engine under test (the one fast engine the project keeps) and
#: the reference engine every digest is confirmed against.
ENGINE = "burst"
REFERENCE_ENGINE = "naive"

#: The Table 5 mixes every workstation workload runs.
MIXES = ("DC", "IC", "FP", "SP")
#: SPLASH stand-ins for the DSM workload.
APPS = ("mp3d", "water", "locus", "cholesky")

WORKLOADS = ("ws-multi", "ws-single", "mp-dsm", "fanout")

#: One simulation.  ``kind`` is "uniproc" (workstation mix) or "mp"
#: (SPLASH app run to completion).
Cell = namedtuple("Cell", "kind name scheme n_contexts")

#: Window lengths (cycles), DSM app scale and node counts per size.
#: "full" is what the benchmark measures; "tiny" is for the self-test.
SIZES = {
    "full": {"warmup": 5_000, "measure": 20_000, "mp_scale": 0.5,
             "mp_nodes": 8, "fan_warmup": 2_000, "fan_measure": 8_000,
             "fan_nodes": 2},
    "tiny": {"warmup": 500, "measure": 2_000, "mp_scale": 0.1,
             "mp_nodes": 8, "fan_warmup": 500, "fan_measure": 2_000,
             "fan_nodes": 2},
}

#: Cold set-ups timed per run; ``setup_s`` is their median.
SETUP_REPS = 9


def label(cell):
    return "%s/%s/%d" % (cell.name, cell.scheme, cell.n_contexts)


def cells_for(workload):
    if workload == "ws-multi":
        return [Cell("uniproc", mix, scheme, 4) for mix in MIXES
                for scheme in ("blocked", "interleaved")]
    if workload == "ws-single":
        return [Cell("uniproc", mix, "single", 1) for mix in MIXES]
    if workload == "mp-dsm":
        return [Cell("mp", app, scheme, n) for app in APPS
                for scheme, n in (("single", 1), ("interleaved", 4))]
    if workload == "fanout":
        return ([Cell("uniproc", mix, scheme, 2) for mix in MIXES
                 for scheme in ("blocked", "interleaved")]
                + [Cell("mp", app, "single", 1)
                   for app in ("mp3d", "cholesky")])
    raise ValueError("unknown workload %r" % (workload,))


def sizing_for(workload, size):
    """The size parameters that shape a workload's results (digest key)."""
    s = SIZES[size]
    if workload == "mp-dsm":
        return {"mp_scale": s["mp_scale"], "mp_nodes": s["mp_nodes"]}
    if workload == "fanout":
        return {"warmup": s["fan_warmup"], "measure": s["fan_measure"],
                "mp_nodes": s["fan_nodes"]}
    return {"warmup": s["warmup"], "measure": s["measure"]}


def digest_of(payload):
    """Digest of a ``RunResult.to_json()`` string, engine field dropped."""
    data = json.loads(payload)
    data.pop("engine", None)
    text = json.dumps(data, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


# -- serial workloads (ws-multi, ws-single, mp-dsm) ---------------------------

#: One serial cell's outcome.  ``retired`` counts every instruction the
#: timed ``run()`` calls retired; ``proc_cycles`` is machine cycles x
#: processors over the same calls.
CellRun = namedtuple("CellRun",
                     "cell setup_s run_s retired proc_cycles digest error "
                     "simulation")


def _config(cell, sizing):
    if cell.kind == "mp":
        return MultiprocessorParams(n_nodes=sizing["mp_nodes"])
    return SystemConfig.fast()


def set_up(cell, sizing, seed, engine=ENGINE):
    """``Simulation.from_config`` through ``.load()`` for one cell."""
    simulation = Simulation.from_config(
        _config(cell, sizing), scheme=cell.scheme,
        n_contexts=cell.n_contexts, seed=seed, engine=engine)
    if cell.kind == "mp":
        return simulation.load(cell.name, scale=sizing["mp_scale"])
    return simulation.load(cell.name)


def run_cell(cell, sizing, seed, engine=ENGINE, tracer=None):
    """Set up and run one cell; never raises (errors are reported)."""
    span = tracer.span if tracer is not None else _no_span
    gc.collect()
    try:
        with span("cell"):
            t0 = time.perf_counter()
            with span("setup"):
                simulation = set_up(cell, sizing, seed, engine)
            t1 = time.perf_counter()
            if cell.kind == "mp":
                with span("run"):
                    result = simulation.run()
                retired = result.retired
                proc_cycles = result.cycles * sizing["mp_nodes"]
                error = (None if result.completed
                         else "did not run to completion")
            else:
                # Two timed run() calls: the warmup window, then the
                # measured window whose result the digest covers.
                with span("run"):
                    warm = simulation.run(measure=sizing["warmup"])
                with span("run"):
                    result = simulation.run(measure=sizing["measure"])
                retired = warm.retired + result.retired
                proc_cycles = warm.cycles + result.cycles
                error = None
            t2 = time.perf_counter()
    except Exception as exc:               # a failed cell is data
        return CellRun(cell, 0.0, 0.0, 0, 0, None,
                       "%s: %s" % (type(exc).__name__, exc), None)
    return CellRun(cell, t1 - t0, t2 - t1, retired, proc_cycles,
                   digest_of(result.to_json()), error, simulation)


def time_setups(cells, sizing, seed):
    """Seconds for one cold set-up of every cell (nothing carried over:
    each ``load`` builds its programs and burst tables afresh)."""
    total = 0.0
    for cell in cells:
        gc.collect()
        t0 = time.perf_counter()
        set_up(cell, sizing, seed)
        total += time.perf_counter() - t0
    return total


def _no_span(_name):
    return nullcontext()


# -- fanout ---------------------------------------------------------------------
#
# The experiment and service modules are imported inside these functions
# so that the serial workloads' set-up time and peak memory never include
# them.

def fanout_workers():
    """``nproc`` workers, capped at 4 to keep memory use small."""
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    return max(1, min(n, 4))


def fanout_spec(sizing, seed):
    from repro.service import JobSpec
    points = [tuple(c) for c in cells_for("fanout")]
    return JobSpec(points=points, config=SystemConfig.fast(),
                   mp_params=MultiprocessorParams(n_nodes=sizing["mp_nodes"]),
                   seed=seed, warmup=sizing["warmup"],
                   measure=sizing["measure"], engine=ENGINE)


def payload_label(payload):
    """The cell label of a streamed ``RunResult.to_json()`` string."""
    data = json.loads(payload)
    return "%s/%s/%d" % (data["workload"], data["scheme"],
                         data["n_contexts"])


def compute_point_payload(point, spec, engine):
    """One point computed in this process; returns (payload, seconds)."""
    from repro.experiments import runner
    from repro.experiments.cache import SERIALIZERS
    from repro.service.results import payload_from_state
    t0 = time.perf_counter()
    if point.kind == "mp":
        raw = runner.compute_mp(point.name, point.scheme, point.n_contexts,
                                spec.mp_params, spec.seed, engine=engine)
    else:
        raw, _sim = runner.compute_uniproc(
            point.name, point.scheme, point.n_contexts, spec.config,
            spec.seed, spec.warmup, spec.measure, engine=engine)
    seconds = time.perf_counter() - t0
    state = SERIALIZERS[point.kind][0](raw)
    return payload_from_state(point, spec, state), seconds


FanoutPass = namedtuple(
    "FanoutPass",
    "sweep_wall service_wall first_result_s setup_s payloads server_stats "
    "burst_cache")


def start_service(tmp, workers):
    """Manager + loopback server + connected client."""
    from repro.experiments.cache import ResultCache
    from repro.service import JobManager
    from repro.service.client import ServiceClient
    from repro.service.net import ServiceServer
    manager = JobManager(workers=workers,
                         cache=ResultCache(os.path.join(tmp, "svc-results")),
                         burst_dir=os.path.join(tmp, "svc-bursts"))
    server = ServiceServer(manager)
    try:
        host, port = server.start()
        client = ServiceClient(host, port)
        client.stats()                    # connect + one round trip
    except BaseException:
        server.stop()
        manager.shutdown()
        raise
    return manager, server, client


def stop_service(manager, server, client):
    client.close()
    server.stop()
    manager.shutdown(wait=True)


def time_service_setup(tmp, workers):
    """Seconds for a fresh process to import the service and start the
    manager and server and connect the client (see service_setup.py)."""
    shutil.rmtree(tmp, ignore_errors=True)
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "service_setup.py")
    root = os.path.dirname(os.path.dirname(script))
    done = subprocess.run([sys.executable, script, root, tmp, str(workers)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.split()[-1])


def fanout_pass(spec, tmp, workers, tracer=None):
    """Compute the slice cold through both fan-outs.

    Each path gets an empty result cache (and the service an empty
    burst-table directory).  Returns a :class:`FanoutPass` whose
    ``payloads`` map each point label to its list of delivered payloads
    (one per path).
    """
    from repro.experiments.cache import ResultCache, SERIALIZERS
    from repro.experiments.runner import ExperimentContext
    from repro.experiments.sweep import SweepEngine
    from repro.service.results import payload_from_state
    span = tracer.span if tracer is not None else _no_span
    shutil.rmtree(tmp, ignore_errors=True)
    gc.collect()
    payloads = {}

    ctx = ExperimentContext(config=spec.config, mp_params=spec.mp_params,
                            seed=spec.seed, warmup=spec.warmup,
                            measure=spec.measure, engine=spec.engine,
                            cache=ResultCache(os.path.join(tmp, "sweep")))
    t0 = time.perf_counter()
    with span("sweep.run"):
        SweepEngine(ctx, jobs=workers).run(list(spec.points))
    sweep_wall = time.perf_counter() - t0
    for point in spec.points:
        if point.kind == "mp":
            raw = ctx.mp_run(point.name, point.scheme, point.n_contexts)
        else:
            raw = ctx.uniproc_run(point.name, point.scheme,
                                  point.n_contexts).result
        state = SERIALIZERS[point.kind][0](raw)
        payloads.setdefault(label(point), []).append(
            payload_from_state(point, spec, state))

    t0 = time.perf_counter()
    with span("service.setup"):
        manager, server, client = start_service(tmp, workers)
    setup_s = time.perf_counter() - t0
    try:
        first = None
        t0 = time.perf_counter()
        with span("service.submit"):
            job_id = client.submit(spec)
        with span("service.stream"):
            for payload in client.stream(job_id):
                if first is None:
                    first = time.perf_counter() - t0
                payloads.setdefault(payload_label(payload),
                                    []).append(payload)
        service_wall = time.perf_counter() - t0
        burst_cache = client.status(job_id).get("burst_cache", {})
    finally:
        stop_service(manager, server, client)
    # Read after the server has stopped: its counters are then final.
    server_stats = server.stats.snapshot()
    return FanoutPass(sweep_wall, service_wall, first, setup_s, payloads,
                      server_stats, burst_cache)
