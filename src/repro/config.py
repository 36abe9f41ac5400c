"""Machine configuration (paper Tables 1, 2, 3, 6, 8).

Two profiles are provided:

* :meth:`SystemConfig.paper` — the exact parameters of the paper's base
  workstation architecture (64 KB split L1, 1 MB L2, 6 M-cycle scheduler
  slices).  Faithful, but pure-Python simulation of full-size working sets
  is slow.
* :meth:`SystemConfig.fast` — caches, workload footprints, and scheduler
  slices scaled down *together* (same line size, same latencies), which
  preserves the miss-rate and tolerance ratios that drive the paper's
  results while letting a full experiment table run in minutes.

Where the archived paper text is garbled, values are reconstructed from
the sources the paper cites and are marked ``# reconstructed``:

* Table 3 integer multiply/divide: MIPS R4000 values (12, 35 cycles).
* Table 6 scheduler interference: Torrellas's IRIX study reports O(100)
  lines of cache interference per scheduler invocation, growing with the
  number of processes switched.
* Table 8 multiprocessor latencies: Stanford DASH remote access is
  ~100–130 cycles, dirty-remote ~130–160, local ~30–40.
"""

import hashlib
import json
from dataclasses import dataclass, field, fields, is_dataclass, replace


class ConfigError(ValueError):
    """A machine configuration that cannot be simulated."""


def _require_positive(params, name):
    """Raise :class:`ConfigError` unless ``params.<name>`` is >= 1."""
    value = getattr(params, name)
    if value < 1:
        raise ConfigError("%s.%s must be >= 1, not %r"
                          % (type(params).__name__, name, value))


def to_canonical(obj):
    """A JSON-serialisable canonical form of a (nested) config object.

    Dataclasses become field-name dictionaries, mapping keys become
    strings (JSON objects cannot key on ints), and tuples become lists;
    the result round-trips through ``json.dumps(..., sort_keys=True)``
    to a stable byte string suitable for hashing.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_canonical(getattr(obj, f.name))
                for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_canonical(obj[k])
                for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [to_canonical(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError("cannot canonicalise %r" % type(obj))


def fingerprint(obj):
    """A stable content hash of any config object (see to_canonical)."""
    payload = json.dumps(to_canonical(obj), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class CacheParams:
    """One cache of Table 1 (all caches are direct-mapped)."""

    name: str
    size: int              # bytes
    line_size: int = 32    # bytes
    read_occupancy: int = 1
    write_occupancy: int = 1
    invalidate_occupancy: int = 2
    fill_occupancy: int = 1

    @property
    def n_lines(self):
        return self.size // self.line_size


@dataclass(frozen=True)
class TLBParams:
    entries: int = 64
    page_size: int = 4096
    miss_penalty: int = 30   # software-refill cost, charged as data stall


@dataclass(frozen=True)
class MemoryParams:
    """The uniprocessor hierarchy of Figure 4 / Tables 1 and 2."""

    l1i: CacheParams = field(default_factory=lambda: CacheParams(
        "l1i", 64 * 1024, fill_occupancy=8))
    l1d: CacheParams = field(default_factory=lambda: CacheParams(
        "l1d", 64 * 1024))
    l2: CacheParams = field(default_factory=lambda: CacheParams(
        "l2", 1024 * 1024, read_occupancy=2, write_occupancy=2,
        invalidate_occupancy=4, fill_occupancy=2))
    tlb: TLBParams = field(default_factory=TLBParams)
    l1_hit_latency: int = 1      # Table 2
    l2_hit_latency: int = 9      # Table 2
    memory_latency: int = 34     # Table 2
    n_banks: int = 4             # four-way interleaved memory
    bank_occupancy: int = 16     # cycles one bank is busy per line access
    bus_request_occupancy: int = 1   # split-transaction bus, address phase
    bus_reply_occupancy: int = 2     # data phase (one line)
    mshr_capacity: int = 8

    def __post_init__(self):
        _require_positive(self, "n_banks")


@dataclass(frozen=True)
class PipelineParams:
    """Figure 5 pipeline and Table 4 switch costs."""

    int_depth: int = 7          # IF1 IF2 RF EX DF1 DF2 WB
    fp_depth: int = 9           # IF1 IF2 RF EX1..EX5 WB
    #: Issue-to-detection distance for a data-cache miss (tag check folded
    #: into DF2, decision visible at WB): the blocked scheme's 7-cycle
    #: flush is this window inclusive of the issue slot.
    miss_detect_offset: int = 6
    btb_entries: int = 2048
    mispredict_penalty: int = 3
    #: Instructions issued per cycle.  1 reproduces the paper; >1 is the
    #: Section 7 extension ("future trends"): in-order multi-issue,
    #: where the interleaved scheme's independent streams are exactly
    #: what fills the extra slots (the argument that led to SMT).
    issue_width: int = 1
    explicit_switch_cost: int = 3   # blocked: explicit switch instruction
    backoff_cost: int = 1           # interleaved: backoff instruction
    #: Dependency-stall lengths <= this count as "short" in Figures 8/9.
    short_stall_threshold: int = 4

    def __post_init__(self):
        _require_positive(self, "issue_width")


@dataclass(frozen=True)
class OSParams:
    """Operating-system model (Section 4.3 / Table 6)."""

    time_slice: int = 6_000_000   # 30 ms at 200 MHz
    affinity_slices: int = 3
    #: Context-usage feedback (paper Section 5.1): "we will assume that
    #: the hardware provides context-usage feedback to the operating
    #: system, and the operating system schedules the workload to even
    #: out the amount of processor cycles devoted to each application."
    #: When enabled, group swaps pick the least-served processes instead
    #: of rotating round-robin.
    usage_feedback: bool = False
    #: Cache lines displaced by the scheduler, by number of processes
    #: switched (Table 6; reconstructed from Torrellas's IRIX study).
    interference: dict = field(default_factory=lambda: {
        1: (150, 120),
        2: (250, 200),
        4: (400, 320),
        8: (600, 480),
    })

    def __post_init__(self):
        _require_positive(self, "time_slice")

    def interference_for(self, n_switched):
        """(icache_lines, dcache_lines) displaced for ``n_switched``."""
        if n_switched <= 0:
            return (0, 0)
        keys = sorted(self.interference)
        for k in keys:
            if n_switched <= k:
                return self.interference[k]
        return self.interference[keys[-1]]


@dataclass(frozen=True)
class MultiprocessorParams:
    """DASH-like machine of Section 5.2 / Table 8."""

    n_nodes: int = 8
    #: Unloaded latency ranges (uniform distributions, Table 8;
    #: reconstructed from published DASH numbers).
    local_memory: tuple = (30, 40)
    remote_memory: tuple = (100, 130)
    remote_cache: tuple = (130, 160)
    cache: CacheParams = field(default_factory=lambda: CacheParams(
        "l1d", 64 * 1024))
    seed: int = 1994
    lock_transfer_latency: int = 20       # lock handoff when contended
    barrier_release_latency: int = 20

    def to_dict(self):
        """JSON-serialisable form (cache keys, result export)."""
        return to_canonical(self)

    def fingerprint(self):
        return fingerprint(self)


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build a simulated workstation."""

    memory: MemoryParams = field(default_factory=MemoryParams)
    pipeline: PipelineParams = field(default_factory=PipelineParams)
    os: OSParams = field(default_factory=OSParams)
    #: Footprint multiplier handed to workload factories.  Kernel default
    #: sizes are tuned for the fast profile's caches (scale 1.0); the
    #: paper profile scales footprints up with its 8x larger caches.
    workload_scale: float = 1.0

    @classmethod
    def paper(cls):
        """The paper's exact base architecture."""
        return cls(workload_scale=8.0)

    @classmethod
    def fast(cls):
        """Scaled-down profile: 1/8 caches, 1/8 footprints, short slices.

        Line size, latencies, associativity (direct-mapped), pipeline and
        switch costs are untouched — only capacities and run lengths
        shrink, preserving the ratios the results depend on.
        """
        mem = MemoryParams(
            l1i=CacheParams("l1i", 8 * 1024, fill_occupancy=8),
            l1d=CacheParams("l1d", 8 * 1024),
            l2=CacheParams("l2", 128 * 1024, read_occupancy=2,
                           write_occupancy=2, invalidate_occupancy=4,
                           fill_occupancy=2),
            tlb=TLBParams(entries=16),
        )
        os_params = OSParams(
            time_slice=5_000,
            interference={1: (40, 32), 2: (64, 52), 4: (100, 80),
                          8: (150, 120)},
        )
        return cls(memory=mem, os=os_params, workload_scale=1.0)

    def with_memory(self, **kwargs):
        """A copy with some memory parameters replaced."""
        return replace(self, memory=replace(self.memory, **kwargs))

    def with_pipeline(self, **kwargs):
        return replace(self, pipeline=replace(self.pipeline, **kwargs))

    def to_dict(self):
        """JSON-serialisable form (cache keys, result export)."""
        return to_canonical(self)

    def fingerprint(self):
        return fingerprint(self)


#: Context-selection schemes (Section 2 and 3 of the paper).
SCHEMES = ("single", "blocked", "interleaved")
