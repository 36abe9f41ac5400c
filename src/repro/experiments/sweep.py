"""Parallel sweep engine: every figure/table point, fanned out over cores.

The paper's result set is an embarrassingly parallel sweep: each
(workload, scheme, n_contexts) / (app, scheme, n_contexts) point is an
independent, deterministic simulation.  :class:`SweepEngine` enumerates
the points the figures and tables declare (their ``points()`` hooks),
skips everything already memoised, and fills the context with the rest:
serially through the context's own accessors, or as one job on the
service's :class:`~repro.service.manager.JobManager` worker pool.  Either
way each point is read through the on-disk cache before it is computed.

The sweep decides the order: it submits the points heaviest first
(:func:`_cost_rank`), and the manager starts them in that order.

Determinism contract: a worker builds a point with the *same*
:mod:`repro.experiments.runner` ``compute_*`` function, the same
configuration objects, and the same per-point seed that the serial
:class:`ExperimentContext` path uses, and no state is shared between
points — so parallel results are bit-identical to serial ones, and cache
entries written by either path are interchangeable.
"""

import os
import time
from collections import namedtuple

from repro.experiments import cache as cache_mod
from repro.experiments.runner import ExperimentContext

#: One simulation point.  ``kind`` is "uniproc" (measured workload run),
#: "dedicated" (single-application calibration run), or "mp" (SPLASH
#: run-to-completion).
SweepPoint = namedtuple("SweepPoint", "kind name scheme n_contexts")

#: One finished point: where its result came from and how long it took.
PointOutcome = namedtuple("PointOutcome", "point source seconds")


def default_points(workloads=None, apps=None):
    """Every point behind Table 7, Figures 6/7, Table 10, Figures 8/9.

    Deduplicated in first-need order; the overlap between tables and
    figures (they intentionally share runs) collapses here, which is
    exactly why a shared cache computes each simulation once.
    """
    from repro.experiments import table7, figures6_7, table10, figures8_9
    from repro.workloads.uniprocessor import WORKLOAD_ORDER
    from repro.workloads.splash import SPLASH_ORDER
    workloads = tuple(workloads) if workloads else WORKLOAD_ORDER
    apps = tuple(apps) if apps else SPLASH_ORDER
    raw = []
    raw += table7.points(workloads)
    raw += figures6_7.points("blocked", workloads)
    raw += figures6_7.points("interleaved", workloads)
    raw += table10.points(apps)
    raw += figures8_9.points("blocked", apps)
    raw += figures8_9.points("interleaved", apps)
    return dedupe(SweepPoint(*p) for p in raw)


def dedupe(points):
    seen = set()
    out = []
    for p in points:
        p = SweepPoint(*p)
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def _cost_rank(point):
    """Schedule heaviest points first to shrink the parallel tail.

    Multiprocessor run-to-completion dominates; within a kind, more
    contexts means more threads and more work.
    """
    return (point.kind == "mp", point.n_contexts)


class SweepReport:
    """What a sweep did: per-point outcomes and aggregate timings."""

    def __init__(self, outcomes, wall_seconds, jobs):
        self.outcomes = outcomes
        self.wall_seconds = wall_seconds
        self.jobs = jobs

    def count(self, source):
        return sum(1 for o in self.outcomes if o.source == source)

    def summary(self):
        return ("%d points in %.1f s with %d jobs "
                "(%d computed, %d cache hits, %d memoised)"
                % (len(self.outcomes), self.wall_seconds, self.jobs,
                   self.count("computed"), self.count("cache"),
                   self.count("memo")))

    def to_dict(self):
        return {
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "computed": self.count("computed"),
            "cache_hits": self.count("cache"),
            "memoised": self.count("memo"),
            "points": [
                {"kind": o.point.kind, "name": o.point.name,
                 "scheme": o.point.scheme,
                 "n_contexts": o.point.n_contexts,
                 "source": o.source, "seconds": o.seconds}
                for o in self.outcomes],
        }


class SweepEngine:
    """Fill an :class:`ExperimentContext` with points, in parallel.

    After :meth:`run`, every requested point sits in the context's
    in-process memo (and in its on-disk cache, if one is attached), so
    rendering any table or figure afterwards is pure formatting.
    """

    def __init__(self, ctx=None, jobs=None, progress=None):
        self.ctx = ctx if ctx is not None else ExperimentContext()
        self.jobs = jobs if jobs else (os.cpu_count() or 1)
        self.progress = progress if progress is not None else lambda msg: None

    def _memoised(self, point):
        ctx = self.ctx
        if point.kind == "uniproc":
            return (point.name, point.scheme,
                    point.n_contexts) in ctx._uniproc
        if point.kind == "dedicated":
            return point.name in ctx._dedicated
        return (point.name, point.scheme, point.n_contexts) in ctx._mp

    def _announce(self, done, total, point, detail):
        self.progress("[%3d/%d] %-9s %s/%s/%d  %s"
                      % (done, total, point.kind, point.name, point.scheme,
                         point.n_contexts, detail))

    def run(self, points=None):
        """Ensure every point is available; returns a SweepReport."""
        t0 = time.perf_counter()
        points = dedupe(points if points is not None else default_points())
        outcomes, pending = [], []
        for point in points:
            if self._memoised(point):
                outcomes.append(PointOutcome(point, "memo", 0.0))
            else:
                pending.append(point)
        pending.sort(key=_cost_rank, reverse=True)
        if pending:
            if self.jobs <= 1 or len(pending) == 1:
                run = self._run_serial
            else:
                run = self._run_parallel
            outcomes += run(pending, len(outcomes), len(points))
        return SweepReport(outcomes, time.perf_counter() - t0, self.jobs)

    def _run_serial(self, pending, done, total):
        """Read through the context: its cache, else a live run."""
        out = []
        ctx = self.ctx
        for point in pending:
            start = time.perf_counter()
            sims = ctx.sim_count
            if point.kind == "uniproc":
                ctx.uniproc_run(point.name, point.scheme, point.n_contexts)
            elif point.kind == "dedicated":
                ctx.dedicated_rate(point.name)
            else:
                ctx.mp_run(point.name, point.scheme, point.n_contexts)
            seconds = time.perf_counter() - start
            source = "computed" if ctx.sim_count > sims else "cache"
            done += 1
            self._announce(done, total, point,
                           "%.2f s" % seconds if source == "computed"
                           else "cache hit")
            out.append(PointOutcome(point, source, seconds))
        return out

    def _run_parallel(self, pending, done, total):
        """Run ``pending`` as one job on the service's worker pool.

        The manager reads each point through the context's cache and
        writes what it computes back; points start in ``pending``
        order and are reported here as they complete.
        """
        from repro.service import JobManager, JobSpec
        ctx = self.ctx
        spec = JobSpec(points=pending, config=ctx.config,
                       mp_params=ctx.mp_params, seed=ctx.seed,
                       warmup=ctx.warmup, measure=ctx.measure,
                       engine=ctx.engine)
        out = []
        with JobManager(workers=min(self.jobs, len(pending)),
                        cache=ctx.cache) as manager:
            submitted = time.perf_counter()
            job_id = manager.submit(spec)
            for index, _payload in enumerate(manager.iter_results(job_id)):
                point, source, state = manager.point_states(job_id)[index]
                ctx.store_point(*point,
                                cache_mod.SERIALIZERS[point.kind][1](state))
                seconds = time.perf_counter() - submitted
                done += 1
                self._announce(done, total, point,
                               "done at +%.2f s" % seconds
                               if source == "computed" else "cache hit")
                out.append(PointOutcome(point, source, seconds))
            manager.results(job_id)    # raises unless every point finished
        return out
