"""Host speed probe: fixed reference work timed between the benchmark's steps.

The CPU speed of a shared sandbox drifts by up to ~1.8x over tens of
seconds (other tenants contend for the same cores and caches), and a drift
that long cannot be averaged away inside one run. So the runner also times a
fixed slice of pure-Python reference work between steps, in the same
process, and expresses every end-to-end time at the host speed where one
slice takes :data:`NOMINAL_SLICE_S`: ``normalised = raw / factor`` with
``factor = (median(slice times) / NOMINAL_SLICE_S) ** SENSITIVITY``.

The reference work must never change (that would rescale every
normalised number), and it must not call the simulator (a simulator
speed-up would then cancel itself out). It mixes the two kinds of
interpreter work the simulator does: small-integer arithmetic in a loop, and
object/list/dict traffic of a toy ring of routers with evaluate/commit
phases.
"""

from __future__ import annotations

import gc
import statistics
import time

perf = time.perf_counter

#: One slice's duration at the nominal host speed (seconds).
NOMINAL_SLICE_S = 0.0025
#: How strongly the simulator's speed follows the slice's: a host state that
#: slows the slice by a factor ``x`` slows the simulator by about
#: ``x ** SENSITIVITY``.  Fitted on ten-seed sets of every workload (0.75 gave
#: the smallest worst-case spread; 1.0, i.e. full normalisation, over-corrects
#: the 8x8 campaigns).
SENSITIVITY = 0.75
#: Minimum host time between two slices taken by :meth:`SpeedProbe.maybe`.
INTERVAL_S = 0.2


class _Node:
    """A toy router: two 4-deep input FIFOs, round-robin output, activity counts."""

    __slots__ = ("fifos", "out", "nxt", "turn", "activity")

    def __init__(self) -> None:
        self.fifos = ([], [])
        self.out = None
        self.nxt = None
        self.turn = 0
        self.activity = {}

    def evaluate(self, cycle: int, upstream: "_Node") -> None:
        fifo = self.fifos[cycle & 1]
        if upstream.out is not None and len(fifo) < 4:
            fifo.append(upstream.out)
        queue = self.fifos[self.turn]
        self.nxt = queue.pop(0) if queue else None
        self.turn ^= 1

    def commit(self, cycle: int) -> None:
        self.out = self.nxt
        if self.out is not None:
            key = "toggle" if self.out & 1 else "hold"
            self.activity[key] = self.activity.get(key, 0) + 1


def reference_slice() -> int:
    """The fixed reference work; returns a checksum so nothing is optimised away."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    nodes = [_Node() for _ in range(64)]
    ring = list(zip(nodes, nodes[-1:] + nodes[:-1]))
    for cycle in range(40):
        nodes[0].out = cycle * 2654435761 & 0xFFFF
        for node, upstream in ring:
            node.evaluate(cycle, upstream)
        for node in nodes:
            node.commit(cycle)
    return total + sum(nodes[7].activity.values())


class SpeedProbe:
    """Collects slice times over a run and turns them into a speed factor."""

    def __init__(self) -> None:
        self.samples = []
        self._last = -INTERVAL_S

    def sample(self, slices: int = 1) -> None:
        # The collector stays off during a slice: it would otherwise spend the
        # slice collecting the garbage the simulator left behind.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(slices):
                start = perf()
                reference_slice()
                self.samples.append(perf() - start)
        finally:
            if enabled:
                gc.enable()
        self._last = perf()

    def maybe(self) -> None:
        """Take a slice if :data:`INTERVAL_S` passed since the last one."""
        if perf() - self._last >= INTERVAL_S:
            self.sample()

    @property
    def slice_slowdown(self) -> float:
        """How much slower than nominal the reference slice ran (1.0 = nominal)."""
        return statistics.median(self.samples) / NOMINAL_SLICE_S

    @property
    def factor(self) -> float:
        """The simulator's estimated slowdown against the nominal host speed."""
        return self.slice_slowdown ** SENSITIVITY
