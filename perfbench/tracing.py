"""Boundary instrumentation for the benchmark: a cycle meter and a layer tracer.

Both work by wrapping the public functions of the simulator's modules from
the outside (class attributes and module-level names), so the program under
test is unchanged.  Install them after ``import repro`` and before any
network is built, and always :meth:`restore` them afterwards.

* :class:`CycleMeter` counts the simulated cycles every
  :class:`~repro.sim.engine.SimulationKernel` advances.  It is cheap (one
  wrapper per ``run``/``run_until``/``step`` call, never per cycle) and is
  installed for every run, traced or not.
* :class:`Tracer` times the calls into each layer (see :data:`LAYER_METRICS`)
  and counts work at the same boundaries.  Coarse calls (kernel runs, CCN
  operations, selector decisions, fault injections, network construction)
  become one span each: ``[layer, start, end, parent, step, self_s]``.
  Per-cycle component calls (router/converter/driver ``evaluate``/
  ``commit``/``tick``) are far too many to keep one by one, so each
  ``(layer, parent span, step)`` triple folds into one record
  ``[layer, parent, step, calls, total_s, self_s]``.  Self time is span time
  minus the time of the spans nested in it; the process is single-threaded,
  so there is no waiting time to separate out.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.baseline import testbench as baseline_testbench
from repro.baseline.router import PacketSwitchedRouter
from repro.common import AllocationError, MappingError
from repro.core import testbench as core_testbench
from repro.core.data_converter import DataConverter
from repro.core.router import CircuitSwitchedRouter
from repro.noc import fabric
from repro.noc import gt_network
from repro.noc.ccn import CentralCoordinationNode
from repro.noc.faults import FaultInjector
from repro.noc.selection import FabricSelector
from repro.sim.engine import SimulationKernel
from repro.sim.vector import VectorPlane

perf = time.perf_counter

#: The kernel entry points that advance simulated time.
KERNEL_RUNS = ("run", "run_until", "step")

#: SchedulerStats fields the tracer accumulates across kernel runs.
SCHEDULER_FIELDS = (
    "evaluated",
    "skipped",
    "leaped_cycles",
    "events_processed",
    "wakes",
    "vector_batches",
)

CORE_DRIVERS = (core_testbench.TileStreamDriver, core_testbench.LaneStreamDriver)
CORE_CONSUMERS = (core_testbench.TileStreamConsumer, core_testbench.LaneStreamConsumer)
BASELINE_DRIVERS = (baseline_testbench.TilePacketDriver, baseline_testbench.PacketStreamDriver)
BASELINE_CONSUMERS = (
    baseline_testbench.TilePacketConsumer,
    baseline_testbench.PacketStreamConsumer,
)
GT_DRIVERS = (gt_network.GtStreamDriver, gt_network.GtLinkStreamDriver)
GT_CONSUMERS = (gt_network.GtLinkStreamConsumer,)

#: Every per-layer metric the traced run reports: name -> (unit, better).
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "import.s": ("s", "lower"),
    "noc.fabric.build_s": ("s", "lower"),
    "noc.fabric.channels": ("count", "lower"),
    "sim.engine.self_s": ("s", "lower"),
    "sim.engine.evaluated": ("count", "lower"),
    "sim.engine.skipped": ("count", "higher"),
    "sim.engine.occupancy": ("fraction", "lower"),
    "sim.engine.leaped_cycles": ("cycles", "higher"),
    "sim.engine.events_processed": ("count", "lower"),
    "sim.engine.wakes": ("count", "lower"),
    "sim.vector.self_s": ("s", "lower"),
    "sim.vector.batches": ("count", "higher"),
    "sim.vector.batch_frac": ("fraction", "higher"),
    "sim.vector.desyncs": ("count", "lower"),
    "core.router.self_s": ("s", "lower"),
    "core.router.calls": ("count", "lower"),
    "core.data_converter.self_s": ("s", "lower"),
    "core.data_converter.calls": ("count", "lower"),
    "baseline.router.self_s": ("s", "lower"),
    "baseline.router.calls": ("count", "lower"),
    "noc.gt_network.router_self_s": ("s", "lower"),
    "noc.gt_network.driver_self_s": ("s", "lower"),
    "noc.gt_network.calls": ("count", "lower"),
    "core.testbench.self_s": ("s", "lower"),
    "baseline.testbench.self_s": ("s", "lower"),
    "drivers.words_sent": ("count", "higher"),
    "noc.ccn.self_s": ("s", "lower"),
    "noc.ccn.admits": ("count", "lower"),
    "noc.ccn.reject_frac": ("fraction", "lower"),
    "noc.ccn.releases": ("count", "lower"),
    "noc.selection.self_s": ("s", "lower"),
    "noc.selection.selects": ("count", "lower"),
    "noc.selection.probe_frac": ("fraction", "lower"),
    "noc.faults.self_s": ("s", "lower"),
    "noc.faults.faults": ("count", "lower"),
    "noc.faults.displaced": ("count", "lower"),
    "noc.faults.recovery_cycles": ("cycles", "lower"),
    "noc.faults.units_dropped": ("count", "lower"),
    "energy.self_s": ("s", "lower"),
    "energy.calls": ("count", "lower"),
    "unattributed_s": ("s", "lower"),
    "trace.overhead_x": ("x", "lower"),
}


class _Patcher:
    """Replaces attributes and puts every original back, last patch first."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class CycleMeter:
    """Sums the cycles every simulation kernel advances while installed."""

    def __init__(self) -> None:
        self.cycles = 0
        self._patcher = _Patcher()

    def install(self) -> "CycleMeter":
        for name in KERNEL_RUNS:
            self._patcher.patch(SimulationKernel, name, self._counting)
        return self

    def restore(self) -> None:
        self._patcher.restore()

    def _counting(self, fn: Callable) -> Callable:
        meter = self

        def counted(kernel, *args, **kwargs):
            before = kernel.cycle
            try:
                return fn(kernel, *args, **kwargs)
            finally:
                meter.cycles += kernel.cycle - before

        return counted


def _is_circuit_kernel(kernel: SimulationKernel) -> bool:
    return any(
        isinstance(c, (CircuitSwitchedRouter, VectorPlane)) for c in kernel.components
    )


class Tracer:
    """Spans and counters at the public boundaries of every layer."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.folded: Dict[Tuple[str, int, int], list] = {}
        self.counts: Dict[str, float] = defaultdict(float)
        #: Index of the current step (set by the workload loop).
        self.step = -1
        self.paused = False
        self._paused_s = 0.0
        self._open: List[int] = []
        #: One child-time accumulator per open span or folded call.
        self._children: List[float] = []
        self._circuit_kernels: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._patcher = _Patcher()

    # -- span recording ---------------------------------------------------------------

    def _span(
        self,
        layer: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
        error: Optional[Callable] = None,
    ) -> Callable[[Callable], Callable]:
        """Wrapper factory recording one span per call."""
        tracer = self

        def make(fn: Callable) -> Callable:
            def spanned(*args, **kwargs):
                if tracer.paused:
                    return fn(*args, **kwargs)
                parent = tracer._open[-1] if tracer._open else -1
                record = [layer, 0.0, 0.0, parent, tracer.step, 0.0]
                tracer._open.append(len(tracer.spans))
                tracer.spans.append(record)
                children = tracer._children
                children.append(0.0)
                state = before(*args) if before is not None else None
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                    if after is not None:
                        after(state, result, *args)
                    return result
                except Exception as exc:
                    if error is not None:
                        error(exc)
                    raise
                finally:
                    end = perf()
                    child = children.pop()
                    tracer._open.pop()
                    record[1], record[2], record[5] = start, end, end - start - child
                    if children:
                        children[-1] += end - start

            return spanned

        return make

    def _fold(self, layer: str, words: bool = False) -> Callable[[Callable], Callable]:
        """Wrapper factory folding per-cycle calls into one record per parent span.

        With *words* the wrapper also counts the words a stream driver sent
        during the call (``drivers.words_sent``).
        """
        tracer = self
        folded = self.folded
        counts = self.counts

        def make(fn: Callable) -> Callable:
            def folding(component, *args, **kwargs):
                if tracer.paused:
                    return fn(component, *args, **kwargs)
                children = tracer._children
                children.append(0.0)
                sent = component.words_sent if words else 0
                start = perf()
                try:
                    return fn(component, *args, **kwargs)
                finally:
                    end = perf()
                    child = children.pop()
                    key = (layer, tracer._open[-1] if tracer._open else -1, tracer.step)
                    record = folded.get(key)
                    if record is None:
                        record = folded[key] = [0, 0.0, 0.0]
                    record[0] += 1
                    record[1] += end - start
                    record[2] += end - start - child
                    if children:
                        children[-1] += end - start
                    if words:
                        counts["drivers.words_sent"] += component.words_sent - sent

            return folding

        return make

    # -- installation -----------------------------------------------------------------

    def install(self) -> "Tracer":
        patch = self._patcher.patch
        counts = self.counts
        fabric.network_kinds()  # loads every network class before patching them

        # noc.fabric: construction and channel attachment.
        original_build = fabric.build_network
        traced_build = self._span("noc.fabric")(original_build)
        for module in _modules_binding(original_build, "build_network"):
            patch(module, "build_network", lambda fn: traced_build)
        for cls in _classes_defining(fabric.NocBase, "attach_channel"):
            patch(cls, "attach_channel", self._span("noc.fabric", after=self._count("channels")))

        # sim.engine: kernel runs, with the scheduler counters they moved.
        for name in KERNEL_RUNS:
            patch(
                SimulationKernel,
                name,
                self._span("sim.engine", before=self._stats_before, after=self._stats_after),
            )

        # sim.vector: the columnar plane (never installed by the default schedule).
        patch(VectorPlane, "evaluate", self._fold("sim.vector"))
        patch(VectorPlane, "commit", self._fold("sim.vector"))
        patch(VectorPlane, "desync", self._span("sim.vector", after=self._count("desyncs")))

        # Routers, converters and stream endpoints: per-cycle work, folded.
        for cls, layer in (
            (CircuitSwitchedRouter, "core.router"),
            (PacketSwitchedRouter, "baseline.router"),
            (gt_network.SlotTableRouter, "noc.gt_network.router"),
        ):
            for name in ("evaluate", "commit"):
                patch(cls, name, self._fold(layer))
        for name in ("tick", "tick_sparse"):
            patch(DataConverter, name, self._fold("core.data_converter"))
        for classes, layer, words in (
            (CORE_DRIVERS, "core.testbench", True),
            (CORE_CONSUMERS, "core.testbench", False),
            (BASELINE_DRIVERS, "baseline.testbench", True),
            (BASELINE_CONSUMERS, "baseline.testbench", False),
            (GT_DRIVERS, "noc.gt_network.driver", True),
            (GT_CONSUMERS, "noc.gt_network.driver", False),
        ):
            for cls in classes:
                for name in ("evaluate", "commit"):
                    patch(cls, name, self._fold(layer, words=words))

        # noc.ccn: admission, traffic attachment, release, fault recovery.
        def rejected(exc: Exception) -> None:
            if isinstance(exc, (MappingError, AllocationError)):
                counts["noc.ccn.rejects"] += 1

        patch(
            CentralCoordinationNode,
            "admit",
            self._span("noc.ccn", before=self._count("noc.ccn.admits"), error=rejected),
        )
        patch(CentralCoordinationNode, "attach_traffic", self._span("noc.ccn"))
        patch(
            CentralCoordinationNode,
            "release",
            self._span("noc.ccn", before=self._count("noc.ccn.releases")),
        )
        patch(CentralCoordinationNode, "handle_fault", self._span("noc.ccn"))

        # noc.selection: one decision per call; a cache miss means a probe ran.
        def misses(selector: FabricSelector, *_: Any) -> int:
            return selector.cache_misses

        def probed(before: int, _decision: Any, selector: FabricSelector, *_: Any) -> None:
            counts["noc.selection.selects"] += 1
            if selector.cache_misses > before:
                counts["noc.selection.probed"] += 1

        patch(FabricSelector, "select", self._span("noc.selection", before=misses, after=probed))

        # noc.faults: injections and what their recovery did.
        def injected(_state: Any, report: Any, *_: Any) -> None:
            counts["noc.faults.faults"] += 1
            counts["noc.faults.units_dropped"] += report.wire_drops
            if report.recovery is not None:
                counts["noc.faults.displaced"] += len(report.recovery.displaced)
                counts["noc.faults.recovery_cycles"] += report.recovery.recovery_cycles

        patch(FaultInjector, "inject", self._span("noc.faults", after=injected))

        # energy: network-level reports and every router's power model.
        patch(fabric.NocBase, "total_power", self._fold("energy"))
        patch(fabric.NocBase, "energy_per_delivered_bit_pj", self._fold("energy"))
        for cls in (CircuitSwitchedRouter, PacketSwitchedRouter, gt_network.SlotTableRouter):
            patch(cls, "power", self._fold("energy"))
        return self

    def restore(self) -> None:
        self._patcher.restore()

    # -- counters fed by the wrappers ------------------------------------------------

    def _count(self, name: str) -> Callable:
        """A before/after hook counting the calls it sees under *name*."""
        counts = self.counts

        def count(*_: Any) -> None:
            counts[name] += 1

        return count

    def _stats_before(self, kernel: SimulationKernel, *_: Any) -> Tuple[int, ...]:
        stats = kernel.scheduler_stats
        return (kernel.cycle,) + tuple(getattr(stats, f) for f in SCHEDULER_FIELDS)

    def _stats_after(self, before: Tuple[int, ...], _result: Any, kernel: SimulationKernel, *_: Any) -> None:
        stats = kernel.scheduler_stats
        counts = self.counts
        for field, old in zip(SCHEDULER_FIELDS, before[1:]):
            counts["sim.engine." + field] += getattr(stats, field) - old
        circuit = self._circuit_kernels.get(kernel)
        if circuit is None:
            circuit = self._circuit_kernels[kernel] = _is_circuit_kernel(kernel)
        if circuit:
            counts["sim.circuit_cycles"] += kernel.cycle - before[0]

    # -- pausing (benchmark bookkeeping between steps is not traced) ------------------

    def pause(self) -> float:
        self.paused = True
        return perf()

    def resume(self, paused_at: float) -> None:
        self._paused_s += perf() - paused_at
        self.paused = False

    @property
    def paused_s(self) -> float:
        return self._paused_s

    # -- results ------------------------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        """Self time per layer, summed from the span and folded records."""
        totals: Dict[str, float] = defaultdict(float)
        for layer, _start, _end, _parent, _step, self_s in self.spans:
            totals[layer] += self_s
        for (layer, _parent, _step), (_calls, _total, self_s) in self.folded.items():
            totals[layer] += self_s
        return totals

    def calls(self) -> Dict[str, int]:
        totals: Dict[str, int] = defaultdict(int)
        for layer, *_ in self.spans:
            totals[layer] += 1
        for (layer, _parent, _step), (calls, _total, _self) in self.folded.items():
            totals[layer] += calls
        return totals

    def layer_metrics(self, traced_wall_s: float, import_s: float) -> Dict[str, float]:
        """Every metric of :data:`LAYER_METRICS` except ``trace.overhead_x``."""
        self_s = self.self_seconds()
        calls = self.calls()
        c = self.counts
        evaluated, skipped = c["sim.engine.evaluated"], c["sim.engine.skipped"]
        admits, selects = c["noc.ccn.admits"], c["noc.selection.selects"]
        circuit_cycles = c["sim.circuit_cycles"]
        return {
            "import.s": import_s,
            "noc.fabric.build_s": self_s["noc.fabric"],
            "noc.fabric.channels": c["channels"],
            "sim.engine.self_s": self_s["sim.engine"],
            "sim.engine.evaluated": evaluated,
            "sim.engine.skipped": skipped,
            "sim.engine.occupancy": evaluated / (evaluated + skipped) if evaluated + skipped else 0.0,
            "sim.engine.leaped_cycles": c["sim.engine.leaped_cycles"],
            "sim.engine.events_processed": c["sim.engine.events_processed"],
            "sim.engine.wakes": c["sim.engine.wakes"],
            "sim.vector.self_s": self_s["sim.vector"],
            "sim.vector.batches": c["sim.engine.vector_batches"],
            "sim.vector.batch_frac": (
                c["sim.engine.vector_batches"] / circuit_cycles if circuit_cycles else 0.0
            ),
            "sim.vector.desyncs": c["desyncs"],
            "core.router.self_s": self_s["core.router"],
            "core.router.calls": calls["core.router"],
            "core.data_converter.self_s": self_s["core.data_converter"],
            "core.data_converter.calls": calls["core.data_converter"],
            "baseline.router.self_s": self_s["baseline.router"],
            "baseline.router.calls": calls["baseline.router"],
            "noc.gt_network.router_self_s": self_s["noc.gt_network.router"],
            "noc.gt_network.driver_self_s": self_s["noc.gt_network.driver"],
            "noc.gt_network.calls": calls["noc.gt_network.router"] + calls["noc.gt_network.driver"],
            "core.testbench.self_s": self_s["core.testbench"],
            "baseline.testbench.self_s": self_s["baseline.testbench"],
            "drivers.words_sent": c["drivers.words_sent"],
            "noc.ccn.self_s": self_s["noc.ccn"],
            "noc.ccn.admits": admits,
            "noc.ccn.reject_frac": c["noc.ccn.rejects"] / admits if admits else 0.0,
            "noc.ccn.releases": c["noc.ccn.releases"],
            "noc.selection.self_s": self_s["noc.selection"],
            "noc.selection.selects": selects,
            "noc.selection.probe_frac": c["noc.selection.probed"] / selects if selects else 0.0,
            "noc.faults.self_s": self_s["noc.faults"],
            "noc.faults.faults": c["noc.faults.faults"],
            "noc.faults.displaced": c["noc.faults.displaced"],
            "noc.faults.recovery_cycles": c["noc.faults.recovery_cycles"],
            "noc.faults.units_dropped": c["noc.faults.units_dropped"],
            "energy.self_s": self_s["energy"],
            "energy.calls": calls["energy"],
            "unattributed_s": traced_wall_s - sum(self_s.values()),
        }

    def dump(self) -> Dict[str, Any]:
        """The recorded spans in a JSON-ready form."""
        return {
            "span_fields": ["layer", "start", "end", "parent", "step", "self_s"],
            "spans": self.spans,
            "folded_fields": ["layer", "parent", "step", "calls", "total_s", "self_s"],
            "folded": [list(key) + record for key, record in self.folded.items()],
        }


def _modules_binding(obj: Any, name: str) -> List[Any]:
    """Every loaded ``repro`` module whose global *name* is *obj*."""
    return [
        module
        for module_name, module in sorted(sys.modules.items())
        if module_name.startswith("repro") and getattr(module, name, None) is obj
    ]


def _classes_defining(base: type, name: str) -> List[type]:
    """*base* and its loaded subclasses that define *name* themselves."""
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        if name in cls.__dict__:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found
