"""Per-layer span tracer, installed from outside the program.

:func:`install` wraps the public functions of each simulator layer on
their classes and modules; nothing under ``src/`` changes.  Every
wrapped call records a span: its name, its duration and the span that
was open when it started.  Spans are aggregated in memory per
(span, parent span, phase), where the phase is the innermost coarse
span (``cell``, ``setup``, ``run``) the benchmark opened around its own
calls.  A span's self time is its duration minus its child spans, so
the self times of every span, the coarse ones included, add up to the
traced wall time.

The tracer is single-threaded: it is installed only around the serial
workloads, whose simulations all run on the calling thread.
"""

import importlib
import time
from collections import Counter
from contextlib import contextmanager

#: (module, class or None, attribute, layer).  A hook whose target no
#: longer exists is skipped and reported, so a refactor that renames a
#: function shows up as a missing hook rather than a crash.
HOOKS = [
    ("repro.core.processor", "Processor", "step", "processor"),
    ("repro.core.processor", "Processor", "idle_until", "processor"),
    ("repro.core.processor", "Processor", "skip_idle", "processor"),
    ("repro.core.processor", "Processor", "park", "processor"),
    ("repro.core.processor", "Processor", "unpark", "processor"),
    ("repro.core.processor", "Processor", "load_process", "processor"),
    ("repro.core.processor", "Processor", "unload_process", "os"),
    ("repro.memory.hierarchy", "MemorySystem", "scheduler_interference",
     "os"),
    ("repro.core.processor", None, "execute", "isa"),
    ("repro.isa.program", "Program", "bursts_for", "isa"),
    ("repro.pipeline.btb", "BranchTargetBuffer", "predict", "btb"),
    ("repro.pipeline.btb", "BranchTargetBuffer", "resolve", "btb"),
    ("repro.memory.hierarchy", "MemorySystem", "data_access", "memory"),
    ("repro.memory.hierarchy", "MemorySystem", "inst_fetch", "memory"),
    ("repro.memory.hierarchy", "MemorySystem", "inst_run_hits", "memory"),
    ("repro.coherence.dsm", "NodeMemory", "data_access", "coherence"),
    ("repro.coherence.dsm", "DSMachine", "access", "coherence"),
    ("repro.core.sync", "SyncManager", "try_acquire", "sync"),
    ("repro.core.sync", "SyncManager", "release", "sync"),
    ("repro.core.sync", "SyncManager", "barrier_arrive", "sync"),
    ("repro.workloads", None, "build_workload", "setup"),
    ("repro.workloads", None, "build_process", "setup"),
    ("repro.workloads.splash", None, "build_app", "setup"),
] + [("repro.pipeline.scoreboard", "Scoreboard", attr, "scoreboard")
     for attr in ("hazard_until", "issue", "set_ready", "clear_context",
                  "can_dispatch_burst", "apply_burst_compiled")]

#: Layer of the benchmark's own coarse spans.
COARSE = {"cell": "harness", "setup": "harness", "run": "engine",
          "pass": "harness", "sweep.run": "fanout",
          "service.setup": "fanout", "service.submit": "fanout",
          "service.stream": "fanout"}


def _observe_level(tracer, result, _args):
    tracer.counts["level." + result.level] += 1


def _observe_pass(tracer, result, _args):
    if result:
        tracer.counts["inst_run_hits.pass"] += 1


def _observe_burst(tracer, _result, args):
    tracer.counts["burst.n"] += args[3].n


def _observe_acquire(tracer, result, _args):
    if not result:
        tracer.counts["acquire.fail"] += 1


#: Return-value observers: (span name) -> fn(tracer, result, args).
OBSERVERS = {
    "MemorySystem.data_access": _observe_level,
    "MemorySystem.inst_run_hits": _observe_pass,
    "Scoreboard.apply_burst_compiled": _observe_burst,
    "SyncManager.try_acquire": _observe_acquire,
}


class Tracer:
    """Span stack plus in-memory aggregates."""

    def __init__(self):
        self.clock = time.perf_counter
        #: Open spans: [name, child seconds].
        self.stack = []
        #: Innermost open coarse span name (the phase).
        self.phase = [None]
        #: (name, parent, phase) -> [calls, total seconds, self seconds]
        self.agg = {}
        #: Return-value observations (memory levels, burst sizes...).
        self.counts = Counter()
        #: name -> layer for every span seen.
        self.layers = dict(COARSE)
        self.missing = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _close(self, frame, dur):
        stack = self.stack
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += dur
        key = (frame[0], parent[0] if parent is not None else None,
               self.phase[-1])
        rec = self.agg.get(key)
        if rec is None:
            rec = self.agg[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[1]

    def wrap(self, fn, name, observe=None):
        clock = self.clock
        stack = self.stack
        close = self._close
        tracer = self

        if observe is None:
            def traced(*args, **kwargs):
                frame = [name, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(frame, clock() - t0)
        else:
            def traced(*args, **kwargs):
                frame = [name, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(frame, clock() - t0)
                observe(tracer, result, args)
                return result
        return traced

    @contextmanager
    def span(self, name):
        """A coarse span opened by the benchmark's own code."""
        frame = [name, 0.0]
        self.stack.append(frame)
        self.phase.append(name)
        t0 = self.clock()
        try:
            yield
        finally:
            self._close(frame, self.clock() - t0)
            self.phase.pop()

    # -- installation --------------------------------------------------------

    def install(self, hooks):
        """Wrap every hook target; returns self (use as a context)."""
        for module_name, cls_name, attr, layer in hooks:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            if cls_name is None:
                original = getattr(owner, attr, None)
                name = attr
            else:
                owner = getattr(owner, cls_name, None)
                original = vars(owner).get(attr) if owner else None
                name = "%s.%s" % (cls_name, attr)
            if original is None:
                self.missing.append("%s:%s" % (module_name, name))
                continue
            self.layers[name] = layer
            setattr(owner, attr,
                    self.wrap(original, name, OBSERVERS.get(name)))
            self._undo.append((owner, attr, original))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reading -------------------------------------------------------------

    def calls(self, name):
        return sum(r[0] for (n, _p, _ph), r in self.agg.items() if n == name)

    def self_s(self, name):
        return sum(r[2] for (n, _p, _ph), r in self.agg.items() if n == name)

    def layer_calls(self, layer):
        return sum(r[0] for (n, _p, _ph), r in self.agg.items()
                   if self.layers.get(n) == layer)

    def layer_self_s(self, layer):
        return sum(r[2] for (n, _p, _ph), r in self.agg.items()
                   if self.layers.get(n) == layer)

    def self_total(self):
        """Sum of every span's self time (== traced wall, by design)."""
        return sum(r[2] for r in self.agg.values())

    def by_layer(self):
        """layer -> (calls, self seconds), for the detail table."""
        out = {}
        for (n, _p, _ph), r in self.agg.items():
            layer = self.layers.get(n, "?")
            calls, self_s = out.get(layer, (0, 0.0))
            out[layer] = (calls + r[0], self_s + r[2])
        return out


def policy_hooks():
    """``select`` on every ContextPolicy subclass that defines it."""
    from repro.core import policies
    base = getattr(policies, "ContextPolicy", None)
    if base is None:
        return []
    return [("repro.core.policies", cls.__name__, "select", "policy")
            for cls in _with_subclasses(base) if "select" in cls.__dict__]


def _with_subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out += _with_subclasses(sub)
    return out


def all_hooks():
    return HOOKS + policy_hooks()
