"""The machine's current speed, read from a fixed reference task.

On a shared machine the throughput one process gets moves in steps that
last from a fraction of a second to minutes: the same call can take 1.9x
as long a few seconds later, with CPU time moving with wall time.  Medians
over a run do not remove that, because a whole run can fall in a slow
stretch.  So the benchmark times a fixed reference task between its
measurements and rescales every measured time to the speed at which the
reference task takes `REF_NOMINAL_S`:

    rescaled = measured * REF_NOMINAL_S / (reference time around it)

The reference task is the benchmark's own Menger path count (oracles.py)
on one fixed graph: pure Python of the same kind as conndim's pure kernel,
sharing no code with the package under test, so a change to `conndim`
cannot move it.  The garbage collector is paused while it runs, so the
heap an operation leaves behind does not slow it.
"""

from __future__ import annotations

import gc
from array import array
from statistics import median
from time import perf_counter

import oracles

# a 14-cycle with chords to the vertex three ahead: 28 edges, ~2 ms a count
REF_GRAPH = (14, tuple(sorted({tuple(sorted((v, (v + d) % 14)))
                               for v in range(14) for d in (1, 3)})))
# the reference task's time at the speed every measurement is rescaled to
REF_NOMINAL_S = 0.002


def reference_task() -> None:
    oracles.kappa_table(*REF_GRAPH)


class Speed:
    """Reference-task times, taken in order.  A call in the timed loop is
    rescaled by the mean of the two samples on either side of it; a
    fresh-process probe, which lasts longer and is timed alone, by the
    median of AROUND samples before it and AROUND after it."""

    AROUND = 3

    def __init__(self):
        self.samples = array("d")

    def sample(self) -> int:
        """Time the reference task once; returns the sample's index."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            reference_task()
            self.samples.append(perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        return len(self.samples) - 1

    def scale(self, first: int, last: int) -> float:
        """Factor for a measurement made between samples first and last,
        with no other sample in between but these."""
        return REF_NOMINAL_S / median(self.samples[first:last + 1])

    def bracketed(self, fn):
        """fn() between AROUND samples before and after it; returns
        (result, factor)."""
        first = len(self.samples)
        for _ in range(self.AROUND):
            self.sample()
        result = fn()
        for _ in range(self.AROUND):
            last = self.sample()
        return result, self.scale(first, last)
