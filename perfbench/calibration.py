"""Machine-speed calibration for CPU-bound metrics.

On the 2-vCPU virtual machine the reference figures come from, the vCPUs
share host cores with other tenants: the same operation takes 30-55% more
CPU time while a neighbour is busy, and busy and quiet spells switch every
few seconds.  Raw CPU-bound figures of one 30 s run therefore spread by up
to 25% from run to run.  A fixed pure-Python loop of random reads from a
table built once at import -- no program code, so a change to the program
cannot move it, and no allocation, so its speed does not depend on the
state of the program's heap -- slows down in step.  Timing it next to the
work and scaling the work's time by ``REFERENCE_S / measured`` expresses
the work at a fixed reference speed.

Samples run between stretches of the program's work, which evict the
table from the core's private caches, so a sample mostly measures reads
from the shared cache: about 3 ms, against about 0.9 ms for back-to-back
samples.  Any program with a working set of more than a few MB leaves it
so.

The loop must not allocate: a loop of small-object allocations and heap
pushes drifted on its own (lag-1 autocorrelation 0.47 between samples)
while the program's speed did not, and over 35-40 identical
``sim_agreement`` operations it raised the interquartile spread of
per-operation CPU from 3-11% raw to 10-18%, where this loop gave 7%.
"""

from __future__ import annotations

import gc
import time

#: Calibration-loop CPU seconds that define the reference speed (about
#: the loop's time in the quiet spells of the box the benchmark was built
#: on).  A fixed part of the benchmark's definition: changing it rescales
#: every calibrated metric.
REFERENCE_S = 0.0025

#: Loop iterations of one full calibration sample (about 3 ms).
FULL_ITERATIONS = 6000

_TABLE_BITS = 16
#: 65,536 int objects (about 2.5 MB with the list), read at random.
_TABLE = list(range(1 << _TABLE_BITS, 2 << _TABLE_BITS))


def _loop(iterations: int) -> int:
    table = _TABLE
    mask = (1 << _TABLE_BITS) - 1
    x = 999
    acc = 0
    for _ in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc += table[x & mask]
    return acc


def sample(fraction: float = 1.0) -> float:
    """CPU seconds of one calibration sample, scaled to a full sample.

    ``fraction`` runs a shorter loop (for callers that must not block an
    event loop for long); the result is still in full-sample seconds.
    The cyclic collector is paused for the sample only.
    """
    iterations = max(1, int(FULL_ITERATIONS * fraction))
    # A collection that the program's allocations have made due would
    # walk the program's heap inside the sample; with the collector off
    # it runs later, in the program's own time.
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.process_time()
        _loop(iterations)
        elapsed = time.process_time() - started
    finally:
        if enabled:
            gc.enable()
    return elapsed * FULL_ITERATIONS / iterations


def scale(calibration_s: float) -> float:
    """Factor that converts a time measured now to the reference speed."""
    return REFERENCE_S / calibration_s
