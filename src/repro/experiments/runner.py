"""Shared experiment machinery: the one place that knows point kinds.

The paper's results form a grid of independent points
(:data:`SweepPoint`) of four kinds: Table 5 mixes (``uniproc``), the
calibration runs behind the fair-share metric (``dedicated``), SPLASH
runs to completion (``mp``) and generated families (``gen``).  The
tables and figures share these runs (Table 7 and Figures 6/7 use the
same uniprocessor runs; Table 10 and Figures 8/9 the same
multiprocessor runs), so an :class:`ExperimentContext` memoises them in
process memory — and, when given a :class:`~repro.experiments.cache.
ResultCache`, reads/writes a content-addressed on-disk cache so the same
simulation is never computed twice across processes or invocations.

:func:`compute_point` is the one dispatch on a point's kind: the serial
context, the :class:`~repro.experiments.sweep.SweepEngine` and the
service's worker processes (:func:`repro.service.worker.compute_point`)
all compute points through it, so parallel results are bit-identical
to serial ones by construction (each point is seeded independently from
the context's seed; no state is shared between points).
:func:`point_result` rebuilds the :class:`repro.api.RunResult` of a
point from its core result for the service's payloads.
:func:`point_window` is the one statement of which cycle window a point
runs over, and so of its cache key.
"""

from collections import namedtuple

from repro.api import Simulation, multiprocessor_result, workstation_result
from repro.config import SystemConfig, MultiprocessorParams

#: Default measurement window lengths (cycles) for the fast profile.
UNIPROC_WARMUP = 30_000
UNIPROC_MEASURE = 120_000
MP_MAX_CYCLES = 20_000_000

#: One simulation point.  ``kind`` is "uniproc" (measured Table 5 mix),
#: "dedicated" (one application alone on one context: the calibration
#: run), "mp" (SPLASH run-to-completion) or "gen" (a generated family,
#: whose ``name`` is its GenSpec's canonical text, "" for the default
#: spec; its programs are verified at birth, so a bad spec fails the
#: point loudly).
SweepPoint = namedtuple("SweepPoint", "kind name scheme n_contexts")


def point_window(kind, warmup, measure):
    """(warmup, measure) a point of ``kind`` runs over: an mp point runs
    to completion within ``MP_MAX_CYCLES``, every other kind over the
    given measurement window."""
    if kind == "mp":
        return 0, MP_MAX_CYCLES
    return warmup, measure


def compute_uniproc(workload, scheme, n_contexts, config, seed,
                    warmup, measure, engine="burst"):
    """Measured run of a Table 5 workload; returns (RunResult, sim)."""
    simulation = Simulation.from_config(
        config, scheme=scheme, n_contexts=n_contexts,
        seed=seed, engine=engine).load(workload)
    result = simulation.run(warmup=warmup, measure=measure)
    return result.raw, simulation.simulator


def compute_mp(app_name, scheme, n_contexts, mp_params, seed,
               max_cycles=MP_MAX_CYCLES, engine="burst"):
    """Run-to-completion of a SPLASH stand-in; returns MPResult."""
    simulation = Simulation.from_config(
        mp_params, scheme=scheme, n_contexts=n_contexts,
        seed=seed, engine=engine).load(app_name)
    result = simulation.run(until=max_cycles)
    if not result.completed:
        raise RuntimeError(
            "application %r did not finish within %d cycles"
            % (app_name, max_cycles))
    return result.raw


def _runs_as(point):
    """(``Simulation.load`` name, scheme, n_contexts) ``point`` runs as."""
    kind, name, scheme, n_contexts = point
    if kind == "dedicated":
        return name, "single", 1
    if kind == "gen":
        return "gen:" + name, scheme, n_contexts
    if kind in ("uniproc", "mp"):
        return name, scheme, n_contexts
    raise ValueError("unknown point kind %r" % (kind,))


def compute_point(point, config, mp_params, seed, warmup, measure,
                  engine="burst"):
    """Compute one point; returns (core result, live simulator or None).

    ``warmup``/``measure`` are the context's window, which
    :func:`point_window` narrows per kind.  Only uniproc and gen points
    keep their simulator (for the analysis verbs); nothing inspects a
    calibration or multiprocessor machine after the run.
    """
    name, scheme, n_contexts = _runs_as(point)
    warmup, measure = point_window(point.kind, warmup, measure)
    if point.kind == "mp":
        return compute_mp(name, scheme, n_contexts, mp_params, seed,
                          max_cycles=measure, engine=engine), None
    result, sim = compute_uniproc(name, scheme, n_contexts, config, seed,
                                  warmup, measure, engine=engine)
    return result, (None if point.kind == "dedicated" else sim)


def point_result(point, raw, seed, engine):
    """The :class:`repro.api.RunResult` of ``point`` rebuilt from its
    core result ``raw`` (live or loaded from the cache).

    An mp core result keeps per-node stats, not per-thread retire
    counts, so ``per_process`` carries per-node totals under stable
    ``<app>.node<i>`` names; and since :func:`compute_mp` refuses an
    unfinished run, every mp result is a completed one.
    """
    _, scheme, n_contexts = _runs_as(point)
    if point.kind == "mp":
        per_node = {"%s.node%d" % (point.name, i): s.retired
                    for i, s in enumerate(raw.node_stats)}
        return multiprocessor_result(raw, point.name, scheme, n_contexts,
                                     seed, engine, True, per_node)
    return workstation_result(raw, point.name, scheme, n_contexts, seed,
                              engine)


def dedicated_rate_of(result):
    """Instructions/cycle of a dedicated calibration RunResult."""
    return sum(result.per_process.values()) / result.duration


class PointRun:
    """One point's core result plus its simulator's end state.

    ``simulator`` is None when the result was loaded from the on-disk
    cache or computed in another process (only the measured numbers
    travel, not the machine), and for the kinds :func:`compute_point`
    keeps no simulator for.
    """

    __slots__ = ("result", "simulator")

    def __init__(self, result, simulator=None):
        self.result = result
        self.simulator = simulator


class ExperimentContext:
    """Runs and memoises the simulations behind the tables/figures.

    Lookup order for every point (:meth:`run_point`): in-process memo,
    then the on-disk ``cache`` (if any), then an actual simulation
    (which populates both).  ``sim_count`` counts actual simulations, so
    tests and the sweep engine can assert that cache hits skip
    simulation.
    """

    def __init__(self, config=None, mp_params=None, seed=1994,
                 warmup=UNIPROC_WARMUP, measure=UNIPROC_MEASURE,
                 cache=None, engine="burst"):
        self.config = config if config is not None else SystemConfig.fast()
        self.mp_params = (mp_params if mp_params is not None
                          else MultiprocessorParams())
        self.seed = seed
        self.warmup = warmup
        self.measure = measure
        self.cache = cache
        #: Simulation engine for every point this context computes.  By
        #: contract both engines produce bit-identical results (enforced
        #: by the engine test suites), so the choice deliberately does
        #: NOT enter the cache keys: points computed under one engine
        #: are valid hits for the other.
        self.engine = engine
        self.sim_count = 0
        #: SweepPoint -> PointRun, in the order the points were first
        #: filled.
        self.runs = {}

    def point_cache_key(self, kind, name, scheme="single", n_contexts=1):
        """The on-disk cache key of one of this context's points."""
        from repro.experiments import cache as cache_mod
        warmup, measure = point_window(kind, self.warmup, self.measure)
        return cache_mod.point_key(
            kind, name, scheme, n_contexts, self.config, self.mp_params,
            self.seed, warmup, measure)

    def store_point(self, point, result):
        """Inject an externally computed result (service worker) into the
        in-process memo, exactly as a cache load would."""
        self.runs[point] = PointRun(result)

    def run_point(self, point, need_simulator=False):
        """The :class:`PointRun` of ``point``; memoised and cached.

        Pass ``need_simulator=True`` to guarantee a live simulator on
        the returned run (forces a simulation if the memoised result
        came from the on-disk cache).
        """
        run = self.runs.get(point)
        if run is not None and (run.simulator is not None
                                or not need_simulator):
            return run
        key = None
        if self.cache is not None:
            key = self.point_cache_key(*point)
        if key is not None and not need_simulator:
            result = self.cache.get(key, point.kind)
            if result is not None:
                run = self.runs[point] = PointRun(result)
                return run
        result, sim = compute_point(point, self.config, self.mp_params,
                                    self.seed, self.warmup, self.measure,
                                    engine=self.engine)
        self.sim_count += 1
        if key is not None:
            self.cache.put(key, point.kind, result,
                           meta=dict(point._asdict(), seed=self.seed))
        run = self.runs[point] = PointRun(result, sim)
        return run

    # -- views ---------------------------------------------------------------

    def uniproc_run(self, workload, scheme, n_contexts,
                    need_simulator=False):
        """Measured run of a Table 5 workload (a :class:`PointRun`)."""
        return self.run_point(
            SweepPoint("uniproc", workload, scheme, n_contexts),
            need_simulator)

    def dedicated_rate(self, kernel_name):
        """Instructions/cycle of one application run alone (calibration).

        The paper normalises multiprogrammed throughput against each
        application receiving a fair 1/N share of a dedicated processor;
        this is the dedicated-processor rate that normalisation needs.
        """
        return dedicated_rate_of(self.run_point(
            SweepPoint("dedicated", kernel_name, "single", 1)).result)

    def mp_run(self, app_name, scheme, n_contexts):
        """Run-to-completion of a SPLASH stand-in (its MPResult)."""
        return self.run_point(
            SweepPoint("mp", app_name, scheme, n_contexts)).result

    def normalized_throughput(self, workload, scheme, n_contexts):
        """The paper's fair-share throughput metric.

        Sum over applications of (measured rate / dedicated rate): the
        single-context timesliced run scores ~1.0; perfect latency
        overlap with N contexts scores up to N (bounded by issue width).
        This normalisation is what makes the metric robust to the
        blocked scheme's bias toward low-miss-rate applications
        (Section 5.1 of the paper).
        """
        from repro.workloads.uniprocessor import WORKLOADS
        run = self.uniproc_run(workload, scheme, n_contexts)
        members = WORKLOADS[workload]
        total = 0.0
        for i, kernel in enumerate(members):
            name = [n for n in run.result.per_process
                    if n.startswith(kernel + ".")][0]
            rate = run.result.per_process[name] / run.result.duration
            total += rate / self.dedicated_rate(kernel)
        return total

    def mp_speedup(self, app_name, scheme, n_contexts):
        """Speedup over the single-context run of the same machine.

        Like the paper's Table 10, the reported value is for the optimum
        number of contexts up to ``n_contexts`` ("on occasion, the best
        performance was encountered with fewer than the maximum number
        of hardware contexts").
        """
        base = self.mp_run(app_name, "single", 1).cycles
        best = 0.0
        c = 1
        while c <= n_contexts:
            if c == 1:
                cycles = base
            else:
                cycles = self.mp_run(app_name, scheme, c).cycles
            best = max(best, base / cycles)
            c *= 2
        return best
