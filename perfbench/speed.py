"""Timing on a CPU whose speed drifts.

On a shared 2-core x86-64 VM, CPU speed drifts by up to 2x within minutes:
an identical task takes anywhere from 0.28 s to 0.64 s.  Every timing is
therefore scaled to a reference speed.  A fixed micro-probe runs twice before and twice after the
timed call and, from a SIGALRM handler, every PROBE_INTERVAL_S inside it; the
scaled time is (raw - time spent in probes) * ref / mean probe time.

This module imports only the standard library's signal and time, so a fresh
interpreter can load it before it times its own imports (setup_child.py).
"""

from __future__ import annotations

import signal
from time import perf_counter

PROBE_INTERVAL_S = 0.2
PROBE_REF_S = 0.005           # probe_s() with its numpy part, in seconds
PLAIN_PROBE_REF_S = 0.0035    # probe_s(with_numpy=False)

_DATA = []


def _data():
    """~2 MB of Python floats read in a scattered order, plus a dict: the
    cache-sensitive part of the probe, since a busy neighbour slows the
    program's interpreter working set more than a loop that fits in L1."""
    if not _DATA:
        n = 200_000
        floats = [(k * 0.618034) % 1.0 for k in range(n)]
        order = [(k * 7919) % n for k in range(15_000)]
        table = {k: float(k) for k in range(30_000)}
        _DATA.append((floats, order, table))
    return _DATA[0]


def probe_s(with_numpy=True):
    """Seconds taken by a fixed mix of bytecode, scattered object reads and
    (unless with_numpy is false) small numpy calls: the kinds of work the
    CLI tasks do."""
    floats, order, table = _data()
    if with_numpy:
        import numpy as np
    start = perf_counter()
    total = 0
    for k in range(20_000):
        total += k * k
    acc = 0.0
    for i in order:
        acc += floats[i]
    for k in range(0, 30_000, 3):
        acc += table[k]
    if with_numpy:
        a = np.linspace(0.0, 1.0, 64)
        for _ in range(350):
            a = np.sin(a) + 0.5
    return perf_counter() - start


def timed(fn, sample_inside=True, with_numpy=True):
    """(result, raw seconds, seconds scaled to the reference probe speed).

    The probes that run inside the call are taken out of its raw time.
    sample_inside=False probes only before and after, for traced calls whose
    spans must not contain probe work."""
    def probe():
        return probe_s(with_numpy)

    ref = PROBE_REF_S if with_numpy else PLAIN_PROBE_REF_S
    probes = [probe(), probe()]
    ticks = []

    def tick(signum, frame):
        ticks.append(probe())

    if sample_inside:
        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    start = perf_counter()
    try:
        result = fn()
    finally:
        raw = perf_counter() - start
        if sample_inside:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    probes += ticks + [probe(), probe()]
    raw -= sum(ticks)
    return result, raw, raw * ref * len(probes) / sum(probes)
