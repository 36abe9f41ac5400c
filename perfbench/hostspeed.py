"""Host-speed normalisation of the benchmark's end-to-end timings.

A shared host runs the same Python code at speeds that drift by up to
1.6x over stretches of seconds to minutes (other tenants' load on the
same cores and caches).  Longer runs do not average that away: on a
2-vCPU VM the quartile spread of raw ``ws-multi`` throughput over
10-, 20- and 40-second windows stayed at 0.23-0.29 of the median.

So each timed stretch (a serial cell, a fan-out pass, a set-up repeat)
is paired with :func:`probe`, a fixed pure-Python kernel shaped like
the simulator's inner loop (slotted attribute reads and writes, small
method calls, dict and list look-ups, integer arithmetic), timed right
after the stretch.  A stretch's *reference seconds* are its host
seconds scaled by ``REF_PROBE_S`` / (the mean of the probes on either
side of it): the time the stretch would have taken on a host where
the kernel takes exactly ``REF_PROBE_S``.  The kernel is part of the
benchmark, not of the program under test, so a change to the program
moves reference seconds as it moves host seconds, while most of the
host's drift cancels.
"""

import time

#: The kernel's reference duration.  On the 2-vCPU VM (Python 3.11)
#: the benchmark was written on, :func:`probe` read 2.0-3.8 ms, so
#: reference seconds are close to that host's seconds.
REF_PROBE_S = 0.003

_ITERATIONS = 12_000
_REPEATS = 3


class _Reg:
    __slots__ = ("ready", "value")

    def __init__(self):
        self.ready = 0
        self.value = 0


def _step(regs, table, i):
    reg = regs[i & 31]
    if reg.ready <= i:
        reg.value = (reg.value + table.get(i & 63, 1)) & 0xFFFF
        reg.ready = i + (reg.value & 3)
        return 1
    return 0


def _kernel():
    regs = [_Reg() for _ in range(32)]
    table = {k: k * 7 for k in range(48)}
    done = 0
    for i in range(_ITERATIONS):
        done += _step(regs, table, i)
    return done


def probe():
    """Host seconds for one run of the kernel: the fastest of a few, so
    that a single preemption does not count as a slow host."""
    best = None
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        _kernel()
        seconds = time.perf_counter() - t0
        best = seconds if best is None else min(best, seconds)
    return best


class Gauge:
    """Probes the host between timed stretches.

    Call :meth:`factor` right after each stretch; multiply the
    stretch's host seconds by it to get reference seconds.
    """

    def __init__(self):
        self.last = probe()
        self.factors = []

    def factor(self):
        now = probe()
        factor = REF_PROBE_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(factor)
        return factor
