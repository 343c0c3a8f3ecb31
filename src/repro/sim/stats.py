"""Scheduling statistics of the simulation kernel.

The energy model keeps its own, more specialised,
:class:`repro.energy.activity.ActivityCounters`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["SchedulerStats"]


@dataclass
class SchedulerStats:
    """Scheduling counters of the quiescence-aware simulation kernel.

    ``evaluated`` counts component-cycles that actually ran evaluate/commit;
    ``skipped`` counts component-cycles covered by deferred idle accounting —
    both cycles slept through by quiescent components and cycles the kernel
    leapt over for timed components.  Together they measure how well the
    kernel exploits fabric idleness: the :attr:`occupancy` of a fully loaded
    mesh is 1.0, of an idle mesh near 0.  ``leaps`` counts event-horizon
    jumps and ``leaped_cycles`` the clock cycles they covered — cycles on
    which the kernel did no per-cycle work at all.

    Under ``schedule="event"`` two further counters describe the event
    queue: ``events_processed`` counts heap entries popped and executed
    (components scheduled at a predicted due-cycle), and ``heap_peak`` is
    the largest number of pending entries the queue ever held.  Both stay 0
    under the ``strict`` and ``auto`` schedules.

    Under ``schedule="vector"`` the columnar fast path
    (:mod:`repro.sim.vector`) adds two counters: ``vector_batches`` counts
    fabric-wide batched cycles executed through the NumPy plane (one per
    committed cycle on the fast path; fallback cycles do not count), and
    ``vector_components`` the member component-cycles those batches covered.
    Both stay 0 under every other schedule.
    """

    evaluated: int = 0
    skipped: int = 0
    wakes: int = 0
    sleeps: int = 0
    leaps: int = 0
    leaped_cycles: int = 0
    events_processed: int = 0
    heap_peak: int = 0
    vector_batches: int = 0
    vector_components: int = 0

    @property
    def total(self) -> int:
        """Total component-cycles the schedule covered."""
        return self.evaluated + self.skipped

    @property
    def occupancy(self) -> float:
        """Fraction of component-cycles that required real work (1.0 when idle-skipping never engaged)."""
        total = self.total
        return self.evaluated / total if total else 1.0

    def as_dict(self) -> Dict[str, float]:
        """Summary suitable for report tables."""
        return {
            "evaluated": float(self.evaluated),
            "skipped": float(self.skipped),
            "wakes": float(self.wakes),
            "sleeps": float(self.sleeps),
            "leaps": float(self.leaps),
            "leaped_cycles": float(self.leaped_cycles),
            "events_processed": float(self.events_processed),
            "heap_peak": float(self.heap_peak),
            "vector_batches": float(self.vector_batches),
            "vector_components": float(self.vector_components),
            "occupancy": self.occupancy,
        }
