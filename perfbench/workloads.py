"""The benchmark's workloads: seeded inputs, closed-loop steps, strict references.

Every workload turns ``--seed`` into plain input data (:meth:`generate`) —
the simulator only ever sees those generated inputs — and then

* :meth:`setup` builds what the simulator needs before its first simulated
  cycle (timed several times by the runner, which reports the median),
* :meth:`run` executes whole passes of closed-loop steps (each step starts
  after the previous one returned) until the time budget and the minimum
  step count are both met, and
* :meth:`reference` regenerates the expected output of every step under
  ``schedule="strict"``, the simulator's seed-equivalent reference
  schedule, for any seed.

All load comes from this one process: no threads, no ``shards=``, no farm
workers.  Every simulation runs on the *default* schedule (no
``schedule=`` argument), so a change of the default is measured as users
feel it.

Why each workload exists and which layers it exercises is recorded next to
it (``WHY``) and, with the layer -> metric -> workload map, in NOTES.md.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.apps import drm, hiperlan2, umts
from repro.apps.traffic import SCENARIOS, BitFlipPattern, word_generator
from repro.baseline.router import PacketSwitchedRouter
from repro.core.router import CircuitSwitchedRouter
from repro.experiments import dynamic, harness
from repro.experiments.paper_data import PAPER_POWER_RATIO
from repro.noc.ccn import CentralCoordinationNode
from repro.noc import fabric
from repro.noc.faults import (
    FaultSpec,
    loaded_link_chooser,
    random_router_chooser,
    region_chooser,
    row_cut_chooser,
)
from repro.noc.gt_network import SlotTableRouter
from repro.noc.selection import FabricSelector
from repro.noc.topology import Mesh2D
from repro.sim.engine import SimulationKernel

perf = time.perf_counter

#: Each run needs this many steps so that step_ms_p90 has >= 10 samples beyond it.
MIN_STEPS = 100
KINDS = ("circuit", "packet", "gt")


@dataclass
class Step:
    """One closed-loop step: its host time and what the simulator produced."""

    #: Which reference sequence the step belongs to, and its place in it.
    unit: Hashable
    index: int
    seconds: float = 0.0
    output: Any = None
    #: Why the step failed (exception, unreached, broken invariant), if it did.
    error: Optional[str] = None
    #: True when the step completed but its output differs from the reference.
    mismatch: bool = False


@dataclass
class Phase:
    """Everything one timed (or traced) pass over a workload produced."""

    steps: List[Step] = field(default_factory=list)
    #: Values for ``paper_power_ratio_err_pct`` (deterministic per seed).
    accuracy: Optional[float] = None

    @property
    def host_s(self) -> float:
        """Host time spent inside the simulator's steps."""
        return sum(step.seconds for step in self.steps)

    def enough(self, seconds: float) -> bool:
        return self.host_s >= seconds and len(self.steps) >= MIN_STEPS


class Hooks:
    """What the runner does around and between the steps of a phase.

    ``on_step`` tags the trace with the current step; ``outside()`` wraps the
    benchmark's own bookkeeping (output snapshots, selector construction) so
    the tracer leaves it out; ``between()`` lets the host speed probe take
    its samples between steps, outside every step's time.
    """

    def __init__(self, probe=None, tracer=None) -> None:
        self.probe = probe
        self.tracer = tracer

    def on_step(self, index: int) -> None:
        if self.tracer is not None:
            self.tracer.step = index

    @contextlib.contextmanager
    def outside(self):
        if self.tracer is None:
            yield
            return
        paused_at = self.tracer.pause()
        try:
            yield
        finally:
            self.tracer.resume(paused_at)

    def between(self, slices: int = 0) -> None:
        """Probe the host speed: *slices* samples now, or one if it is due."""
        if self.probe is not None:
            with self.outside():
                if slices:
                    self.probe.sample(slices)
                else:
                    self.probe.maybe()


def ratio_error_pct(ratio: float) -> float:
    """Distance of a packet/circuit ratio from the paper's 3.5x, in percent of 3.5."""
    return abs(ratio - PAPER_POWER_RATIO) / PAPER_POWER_RATIO * 100.0


def _describe(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} (at {frame.filename.split('/')[-1]}:{frame.lineno})"


def _strict_kernel(frequency_hz: float) -> SimulationKernel:
    return SimulationKernel(frequency_hz, schedule="strict")


def _reference_failure(exc: Exception) -> Tuple[str, str]:
    """Stands in for an output the strict reference could not produce."""
    return ("the strict reference raised", _describe(exc))


# ---------------------------------------------------------------------------
# paper_routers
# ---------------------------------------------------------------------------


class PaperRouters:
    """The paper's single-router power experiments (Figures 9 and 10)."""

    name = "paper_routers"
    WHY = (
        "Only the router, converter, testbench-driver and energy.power layers work "
        "here, with no fabric, CCN or selector; the only workload with a paper "
        "reference, so it carries the accuracy metric."
    )
    #: Figure 9 (typical data) and Figure 10 (0 / 50 / 100 % bit flips; 50 % is
    #: the typical data) for every router kind and scenario I-IV.
    CALLS = [
        (kind, scenario, pattern)
        for kind in KINDS
        for scenario in SCENARIOS
        for pattern in ("best", "typical", "worst")
    ]

    def generate(self, seed: int) -> List[Tuple[str, str, str, int]]:
        """The calls of one pass, in seeded order, each with seeded word data."""
        rng = random.Random(f"{self.name}:{seed}")
        calls = [(kind, scenario, pattern, rng.randrange(1 << 31)) for kind, scenario, pattern in self.CALLS]
        rng.shuffle(calls)
        return calls

    def setup(self, calls: Sequence[Tuple[str, str, str, int]]) -> Sequence[Tuple[str, str, str, int]]:
        """Build one router of each kind, as each scenario harness does first."""
        CircuitSwitchedRouter("dut")
        PacketSwitchedRouter("dut", position=(1, 1))
        SlotTableRouter("dut", slots=16)
        return calls

    @staticmethod
    def _call(call: Tuple[str, str, str, int]):
        kind, scenario, pattern, data_seed = call
        return harness.run_scenario(kind, scenario, pattern=BitFlipPattern(pattern), seed=data_seed)

    @staticmethod
    def _output(result) -> Tuple:
        power = result.power
        return (
            result.router_kind,
            result.cycles,
            sorted(result.words_sent.items()),
            sorted(result.words_received.items()),
            (power.static_uw, power.internal_uw, power.switching_uw, power.total_uw),
            result.activity.as_dict(),
        )

    def run(self, calls, seconds: float, hooks: Hooks) -> Phase:
        phase = Phase()
        while not phase.enough(seconds):
            for call in calls:
                hooks.between()
                hooks.on_step(len(phase.steps))
                step = Step(unit=call, index=0)
                start = perf()
                try:
                    result = self._call(call)
                except Exception as exc:  # a failed step, counted and reported
                    step.seconds = perf() - start
                    step.error = _describe(exc)
                else:
                    step.seconds = perf() - start
                    step.output = self._output(result)
                phase.steps.append(step)
        phase.accuracy = self._accuracy(phase.steps)
        return phase

    @staticmethod
    def _accuracy(steps: Sequence[Step]) -> Optional[float]:
        """Mean packet/circuit total-power ratio over scenarios I-IV vs the paper."""
        totals: Dict[Tuple[str, str], float] = {}
        for step in steps:
            kind, scenario, pattern, _ = step.unit
            if pattern == "typical" and kind != "gt" and step.output is not None:
                totals[(kind, scenario)] = step.output[4][3]
        ratios = [
            totals[("packet", s)] / totals[("circuit", s)]
            for s in SCENARIOS
            if ("packet", s) in totals and ("circuit", s) in totals
        ]
        return ratio_error_pct(sum(ratios) / len(ratios)) if ratios else None

    def reference(self, calls, units: Sequence[Hashable]) -> Dict[Hashable, List[Any]]:
        """Every call re-run with its test bench kernel on the strict schedule."""
        expected: Dict[Hashable, List[Any]] = {}
        original = harness.SimulationKernel
        harness.SimulationKernel = _strict_kernel
        try:
            for call in dict.fromkeys(units):
                try:
                    expected[call] = [self._output(self._call(call))]
                except Exception as exc:  # every step of this call then fails
                    expected[call] = [_reference_failure(exc)]
        finally:
            harness.SimulationKernel = original
        return expected


# ---------------------------------------------------------------------------
# terminal_churn
# ---------------------------------------------------------------------------

APPS = {
    "hiperlan2": hiperlan2.build_process_graph,
    "umts": umts.build_process_graph,
    "drm": drm.build_process_graph,
}
FAULT_KINDS = ("link", "router", "row_cut", "region")


def _fault_spec(kind: str, chooser_seed: int) -> FaultSpec:
    if kind == "link":
        return FaultSpec("link", chooser=loaded_link_chooser(chooser_seed))
    if kind == "router":
        return FaultSpec("router", chooser=random_router_chooser(chooser_seed))
    if kind == "row_cut":
        return FaultSpec("link", chooser=row_cut_chooser(chooser_seed))
    return FaultSpec("router", chooser=region_chooser(chooser_seed))


class _RecordingSelector(FabricSelector):
    """A FabricSelector that keeps every decision it hands out, for checking."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.decisions: List[Any] = []

    def select(self, graph):
        decision = super().select(graph)
        self.decisions.append(decision)
        return decision


class _SharedProbeSelector(_RecordingSelector):
    """Reference-side selector sharing probe results across campaigns.

    A probe is a pure function of (application, kind, topology) and the
    selector's fixed parameters, so campaigns of the reference replay reuse
    each other's probes instead of re-simulating them on the slow strict
    schedule.  The measured runs never use this class.
    """

    def __init__(self, shared: Dict[Tuple, Any], *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._shared = shared

    def evaluate(self, graph, kind):
        key = (graph.name, fabric.resolve_network_kind(kind).kind, repr(self.topology), self.seed)
        if key not in self._shared:
            self._shared[key] = super().evaluate(graph, kind)
        return self._shared[key]


@dataclass(frozen=True)
class ChurnSchedule:
    """One seeded terminal lifetime, as plain data."""

    #: The network kind the lifetime is replayed on.
    kind: str
    #: ``(cycle, action, application, fault kind, chooser seed)`` per event.
    events: Tuple[Tuple[int, str, str, str, int], ...]
    total_cycles: int
    #: Seed of the applications' word data.
    data_seed: int
    #: Seed of the selector's probe word data (one per run, so the strict
    #: reference can share probes between lifetimes).
    probe_seed: int = 0

    @property
    def epochs(self) -> int:
        return len({0} | {event[0] for event in self.events})


class TerminalChurn:
    """The multi-mode terminal: CCN churn, selector probes, faults, per kind."""

    name = "terminal_churn"
    WHY = (
        "The only workload where CCN admission/release, selector probes (cold misses, "
        "then cache hits), fault recovery and per-epoch energy reporting do real work, "
        "over bandwidth-paced channels at low occupancy where idle-skipping matters."
    )
    MESH = (8, 8)
    FREQUENCY_HZ = 100e6
    LOAD = 0.5
    #: The gaps between a lifetime's events, in cycles, dealt in seeded order.
    #: Every lifetime gets the same gaps, so the seed moves events in time
    #: without changing how many cycles a pass simulates.
    GAP_CYCLES = tuple(range(100, 201, 10))
    TAIL_CYCLES = 300
    #: Passes per run at least. One pass takes about as long as a run's time
    #: budget, and the host's speed drifts over tens of seconds: two passes
    #: average the step percentiles over twice as much of that drift.
    MIN_PASSES = 2

    def generate(self, seed: int) -> Tuple[ChurnSchedule, ...]:
        """Three seeded terminal lifetimes per network kind, kinds interleaved.

        Each lifetime: boot (the three applications arrive), a mode switch
        (one of them departs and re-arrives before any fault, so its selector
        probes are cache hits), four faults (a link, a router, a row cut and
        a region, in seeded order) and shutdown (all three depart). On every
        kind, each application is the switched one in exactly one lifetime,
        so a pass always holds the same mix of arrivals. Order, gaps, fault
        order, chooser seeds, word data and the selector's probe data are
        drawn from *seed* alone, never from simulated outcomes.
        """
        rng = random.Random(f"{self.name}:{seed}")
        switched = {kind: rng.sample(list(APPS), len(APPS)) for kind in KINDS}
        lifetimes = [self._lifetime(rng, kind, switched[kind][turn]) for turn in range(len(APPS)) for kind in KINDS]
        probe_seed = rng.randrange(1 << 31)
        return tuple(dataclasses.replace(churn, probe_seed=probe_seed) for churn in lifetimes)

    def _lifetime(self, rng: random.Random, kind: str, switched: str) -> ChurnSchedule:
        boot = rng.sample(list(APPS), len(APPS))
        faults = rng.sample(FAULT_KINDS, len(FAULT_KINDS))
        shutdown = rng.sample(list(APPS), len(APPS))
        plan = (
            [("arrive", app, "") for app in boot]
            + [("depart", switched, ""), ("arrive", switched, "")]
            + [("fault", "", fault) for fault in faults]
            + [("depart", app, "") for app in shutdown]
        )
        gaps = rng.sample(self.GAP_CYCLES, len(plan) - 1) + [0]
        events, cycle = [], 0
        for (action, app, fault), gap in zip(plan, gaps):
            chooser_seed = rng.randrange(1 << 30) if action == "fault" else 0
            events.append((cycle, action, app, fault, chooser_seed))
            cycle += gap
        return ChurnSchedule(
            kind=kind,
            events=tuple(events),
            total_cycles=cycle + self.TAIL_CYCLES,
            data_seed=rng.randrange(1 << 31),
        )

    @staticmethod
    def _events(churn: ChurnSchedule) -> List[dynamic.WorkloadEvent]:
        """Fresh event objects (fault choosers carry RNG state, so never reuse them)."""
        events = []
        for cycle, action, app, fault, chooser_seed in churn.events:
            if action == "fault":
                events.append(dynamic.WorkloadEvent(cycle, "fault", fault=_fault_spec(fault, chooser_seed)))
            else:
                factory = APPS[app] if action == "arrive" else None
                events.append(dynamic.WorkloadEvent(cycle, action, app, factory))
        return events

    def _selector(self, churn: ChurnSchedule, cls=FabricSelector, *args, **kwargs):
        """A selector with the library's default probe settings and seeded probe data."""
        return cls(*args, Mesh2D(*self.MESH), frequency_hz=self.FREQUENCY_HZ, seed=churn.probe_seed, **kwargs)

    def setup(self, lifetimes: Tuple[ChurnSchedule, ...]) -> Tuple[ChurnSchedule, ...]:
        """Network, CCN and selector for every kind, as each campaign builds them."""
        for kind in KINDS:
            network = fabric.build_network(kind, Mesh2D(*self.MESH), frequency_hz=self.FREQUENCY_HZ)
            CentralCoordinationNode(network=network)
            self._selector(lifetimes[0])
        return lifetimes

    def _campaign(
        self,
        unit: Tuple[int, str],
        churn: ChurnSchedule,
        hooks: Hooks,
        first_step: int,
        selector: _RecordingSelector,
        **params,
    ) -> Tuple[List[Step], Optional[float]]:
        """Replay *churn* on the kind named in *unit*; one step per epoch.

        Epoch boundaries are read off the construction of each
        :class:`~repro.experiments.dynamic.EpochReport`: epoch *i* runs from
        its report's creation to the next one's (the last to the return).
        The network built inside the call is captured for the final output.
        """
        marks: List[float] = []
        epochs: List[Any] = []
        networks: List[Any] = []

        class MarkedEpoch(dynamic.EpochReport):
            def __init__(self, *args, **kwargs):
                marks.append(perf())
                hooks.on_step(first_step + len(epochs))
                super().__init__(*args, **kwargs)
                epochs.append(self)

        def capture(*args, **kwargs):
            network = build(*args, **kwargs)
            networks.append(network)
            return network

        build = dynamic.build_network
        dynamic.build_network, dynamic.EpochReport = capture, MarkedEpoch
        error = None
        try:
            result = dynamic.run_dynamic_workload(
                unit[1],
                Mesh2D(*self.MESH),
                self._events(churn),
                frequency_hz=self.FREQUENCY_HZ,
                total_cycles=churn.total_cycles,
                load=self.LOAD,
                seed=churn.data_seed,
                selector=selector,
                **params,
            )
        except Exception as exc:  # the campaign's remaining epochs fail with it
            result, error = None, _describe(exc)
        finally:
            end = perf()
            dynamic.build_network, dynamic.EpochReport = build, MarkedEpoch.__base__

        with hooks.outside():
            return self._epoch_steps(unit, churn, epochs, marks, end, result, error, networks, selector)

    def _epoch_steps(self, unit, churn, epochs, marks, end, result, error, networks, selector):
        """One step per epoch of the schedule, with outputs, timings and failures."""
        steps = []
        for index in range(churn.epochs):
            step = Step(unit=unit, index=index)
            if index < len(epochs):
                step.seconds = (marks[index + 1] if index + 1 < len(marks) else end) - marks[index]
            if result is None and index == max(len(epochs) - 1, 0):
                step.error = error
            elif index >= len(epochs):
                step.error = "not reached: the campaign raised earlier"
            else:
                epoch = epochs[index]
                step.output = dataclasses.asdict(epoch)
                unaccounted = set(epoch.displaced) - set(epoch.readmitted) - set(epoch.displaced_rejected)
                if unaccounted:
                    step.error = f"displaced but neither re-admitted nor rejected: {sorted(unaccounted)}"
            steps.append(step)
        accuracy = None
        if result is not None:
            network = networks[0]
            # The final state belongs to the last epoch's output.
            steps[-1].output = (
                steps[-1].output,
                {
                    "rejected": result.rejected,
                    "fabric_choices": result.fabric_choices,
                    "fallback_kinds": result.fallback_kinds,
                    "end_leak_free": result.end_leak_free,
                    "cycle": network.kernel.cycle,
                    "streams": network.stream_statistics(),
                    "activity": network.merged_activity().as_dict(),
                    "energy_pj_per_bit": network.energy_per_delivered_bit_pj(),
                    "decisions": [
                        (d.application, d.chosen_kind, [dataclasses.astuple(c) for c in d.candidates])
                        for d in selector.decisions
                    ],
                },
            )
            if not result.end_leak_free:
                steps[-1].error = steps[-1].error or "CCN still holds resources after the last departure"
            accuracy = self._accuracy(selector.decisions)
        return steps, accuracy

    @staticmethod
    def _accuracy(decisions: Sequence[Any]) -> Optional[float]:
        """Packet/circuit energy-per-bit ratio the selector measured at boot.

        The first three decisions are the boot arrivals, scored on the intact
        mesh before any fault; applications whose probe delivered nothing
        (infinite energy per bit) are left out.
        """
        ratios = []
        for decision in decisions[: len(APPS)]:
            by_kind = {c.kind: c.energy_pj_per_bit for c in decision.candidates if c.feasible}
            circuit, packet = by_kind.get("circuit_switched"), by_kind.get("packet_switched")
            if circuit and packet and circuit != float("inf") and packet != float("inf"):
                ratios.append(packet / circuit)
        return ratio_error_pct(sum(ratios) / len(ratios)) if ratios else None

    def run(self, lifetimes: Tuple[ChurnSchedule, ...], seconds: float, hooks: Hooks) -> Phase:
        phase = Phase()
        passes = 0
        while passes < self.MIN_PASSES or not phase.enough(seconds):
            passes += 1
            for number, churn in enumerate(lifetimes):
                hooks.between(slices=3)
                with hooks.outside():
                    selector = self._selector(churn, _RecordingSelector)
                steps, accuracy = self._campaign((number, churn.kind), churn, hooks, len(phase.steps), selector)
                phase.steps.extend(steps)
                if phase.accuracy is None:
                    phase.accuracy = accuracy
        return phase

    def reference(self, lifetimes: Tuple[ChurnSchedule, ...], units) -> Dict[Hashable, List[Any]]:
        """Every campaign replayed on the strict schedule (network and probes)."""
        shared: Dict[Tuple, Any] = {}
        expected: Dict[Hashable, List[Any]] = {}
        for number, kind in dict.fromkeys(units):
            selector = self._selector(lifetimes[number], _SharedProbeSelector, shared, schedule="strict")
            steps, _ = self._campaign((number, kind), lifetimes[number], Hooks(), 0, selector, schedule="strict")
            expected[(number, kind)] = [step.output for step in steps]
        return expected


# ---------------------------------------------------------------------------
# busy_mesh
# ---------------------------------------------------------------------------


class BusyMesh:
    """A 16x16 mesh of each kind carrying the same 48 full-load channels."""

    name = "busy_mesh"
    WHY = (
        "Kernel, router and converter layers do almost all the work and CCN, selector "
        "and faults none: the busy side of the vector-plane rule, with packet "
        "contention exercising arbitration."
    )
    SIZE = 16
    FREQUENCY_HZ = 100e6
    CHUNK_CYCLES = 10
    #: Rounds (one chunk per kind) per pass. Every pass starts on freshly built
    #: networks, so the mix of steps (the packet fabric fills during a pass)
    #: does not depend on how many rounds a fast or slow host gets through.
    ROUNDS = 40
    #: The round whose snapshot carries the accuracy figure (a pass's last).
    ACCURACY_ROUND = ROUNDS - 1

    def generate(self, seed: int) -> List[Tuple[str, Tuple[int, int], Tuple[int, int], int]]:
        """Both directions of every row and one direction of every column, with
        seeded word data per channel."""
        rng = random.Random(f"{self.name}:{seed}")
        last = self.SIZE - 1
        channels = []
        for row in range(self.SIZE):
            channels.append((f"row{row}e", (0, row), (last, row)))
            channels.append((f"row{row}w", (last, row), (0, row)))
        for column in range(self.SIZE):
            channels.append((f"col{column}", (column, 0), (column, last)))
        return [(name, src, dst, rng.randrange(1 << 31)) for name, src, dst in channels]

    def setup(self, channels) -> Tuple[Any, Dict[str, Any]]:
        return channels, self._build(channels)

    def _build(self, channels, **params) -> Dict[str, Any]:
        """Build the three networks and attach every channel at full load.

        A channel's bandwidth is one circuit lane, so each circuit channel
        fills exactly one lane and the packet and GT fabrics carry the
        identical word streams.
        """
        networks = {}
        for kind in KINDS:
            network = fabric.build_network(kind, Mesh2D(self.SIZE, self.SIZE), frequency_hz=self.FREQUENCY_HZ, **params)
            networks[kind] = network
        bandwidth = networks["circuit"].admission.lane_capacity_mbps(self.FREQUENCY_HZ)
        for network in networks.values():
            for name, src, dst, word_seed in channels:
                source = word_generator(BitFlipPattern.TYPICAL, seed=word_seed)
                network.attach_channel(name, src, dst, bandwidth, source, load=1.0)
        return networks

    @staticmethod
    def _output(network) -> Tuple:
        return (
            network.kernel.cycle,
            network.stream_statistics(),
            network.merged_activity().as_dict(),
            network.energy_per_delivered_bit_pj(),
        )

    def run(self, state: Tuple[Any, Dict[str, Any]], seconds: float, hooks: Hooks) -> Phase:
        channels, networks = state
        phase = Phase()
        while not phase.enough(seconds):
            if networks is None:
                with hooks.outside():
                    networks = self._build(channels)
            for number in range(self.ROUNDS):
                hooks.between()
                for kind in KINDS:
                    hooks.on_step(len(phase.steps))
                    step = Step(unit=kind, index=number)
                    start = perf()
                    try:
                        networks[kind].run(self.CHUNK_CYCLES)
                    except Exception as exc:
                        step.seconds = perf() - start
                        step.error = _describe(exc)
                    else:
                        step.seconds = perf() - start
                        with hooks.outside():
                            step.output = self._output(networks[kind])
                    phase.steps.append(step)
            networks = None
        phase.accuracy = self._accuracy(phase.steps)
        return phase

    def _accuracy(self, steps: Sequence[Step]) -> Optional[float]:
        """Packet/circuit energy per delivered bit at a fixed round, vs the paper."""
        energy = {
            step.unit: step.output[3]
            for step in steps
            if step.index == self.ACCURACY_ROUND and step.output is not None
        }
        if "packet" not in energy or "circuit" not in energy:
            return None
        return ratio_error_pct(energy["packet"] / energy["circuit"])

    def reference(self, channels, units) -> Dict[Hashable, List[Any]]:
        """One pass on strict-schedule networks, snapshotted per chunk."""
        expected: Dict[Hashable, List[Any]] = {}
        for kind, network in self._build(channels, schedule="strict").items():
            expected[kind] = []
            try:
                for _ in range(self.ROUNDS):
                    network.run(self.CHUNK_CYCLES)
                    expected[kind].append(self._output(network))
            except Exception as exc:  # the remaining steps of this kind then fail
                expected[kind] += [_reference_failure(exc)] * (self.ROUNDS - len(expected[kind]))
        return expected


WORKLOADS = {cls.name: cls for cls in (PaperRouters, TerminalChurn, BusyMesh)}
