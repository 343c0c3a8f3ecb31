"""The columnar vector schedule: quad-modal bit-identity and plane guards.

The :class:`repro.sim.vector.VectorPlane` is tier four of the scheduling
stack and, like every tier before it, must be an *invisible* optimisation:
``schedule="vector"`` has to reproduce the strict reference bit for bit —
per-router activity counters, delivered words, drop counts, cycle counts —
on every scenario the event schedule handles, including mid-run
reconfiguration and live faults.  These tests stress
that contract on drawn scenarios (kind × mesh/torus × load × churn × live
fault), pin the plane's version guards (reconfiguration and fault
injection must invalidate the compiled gather), and cover the correlated
fault models (row cuts, power-domain region kills) that ride along in this
PR.
"""

from __future__ import annotations

import random

import pytest

from repro.apps.traffic import BitFlipPattern, word_generator
from repro.common import FaultError
from repro.experiments.storm import storm_schedule
from repro.noc.ccn import CentralCoordinationNode
from repro.noc.fabric import build_network
from repro.noc.faults import (
    FaultInjector,
    FaultSpec,
    region_chooser,
    row_cut_chooser,
)
from repro.noc.topology import Mesh2D, Torus2D

FREQUENCY_HZ = 100e6
KINDS = ("circuit", "packet", "gt")
FABRICS = (("mesh", (3, 3)), ("mesh", (4, 2)), ("mesh", (4, 4)), ("torus", (4, 3)))


def _build_topology(family, extent):
    width, height = extent
    return Mesh2D(width, height) if family == "mesh" else Torus2D(width, height)


def _snapshot(network):
    """Everything the experiments read from a network, in comparable form."""
    activity = {
        position: (router.activity.as_dict(), router.activity.cycles)
        for position, router in network.routers.items()
    }
    return {
        "cycle": network.kernel.cycle,
        "activity": activity,
        "streams": network.stream_statistics(),
        "fault_drops": network.fault_drops(),
    }


def _random_plan(seed: int) -> dict:
    """Draw one deterministic scenario from *seed*."""
    rng = random.Random(seed)
    kind = rng.choice(KINDS)
    family, extent = rng.choice(FABRICS)
    width, height = extent
    tiles = [(x, y) for x in range(width) for y in range(height)]
    channels = []
    for index in range(rng.randint(2, 3)):
        src, dst = rng.sample(tiles, 2)
        channels.append(
            {
                "name": f"ch{index}",
                "src": src,
                "dst": dst,
                "bandwidth": rng.choice((50.0, 100.0)),
                "load": rng.choice((0.1, 0.5, 1.0)),
                "seed": rng.randint(0, 2**16),
            }
        )
    return {
        "kind": kind,
        "family": family,
        "extent": extent,
        "channels": channels,
        "churn": rng.random() < 0.5,
        "fault": rng.random() < 0.5,
        "phase_cycles": rng.choice((250, 400)),
    }


def _execute(plan: dict, schedule: str):
    """Build and run one drawn scenario under *schedule*."""
    network = build_network(
        plan["kind"],
        _build_topology(plan["family"], plan["extent"]),
        frequency_hz=FREQUENCY_HZ,
        schedule=schedule,
    )
    for channel in plan["channels"]:
        generator = word_generator(BitFlipPattern.TYPICAL, seed=channel["seed"])
        network.attach_channel(
            channel["name"],
            channel["src"],
            channel["dst"],
            channel["bandwidth"],
            generator,
            load=channel["load"],
        )
    network.run(plan["phase_cycles"])
    if plan["fault"]:
        network.fail_link((1, 0), (2, 0))
        network.refresh_routing(network.degraded_topology())
        network.run(plan["phase_cycles"])
    if plan["churn"]:
        network.detach_channel(plan["channels"][0]["name"], drain_cycles=64)
        network.run(plan["phase_cycles"])
    return network


def _full_load_circuit(schedule, size=4):
    """A size×size circuit mesh with one full-load row stream per row."""
    from repro.noc.path_allocation import LaneAllocator

    mesh = Mesh2D(size, size)
    network = build_network(
        "circuit", mesh, frequency_hz=FREQUENCY_HZ, schedule=schedule
    )
    allocator = LaneAllocator(mesh)
    for row in range(size):
        name = f"row{row}"
        allocation = allocator.allocate(
            name, (0, row), (size - 1, row), 100.0, FREQUENCY_HZ
        )
        network.apply_allocation(allocation)
        generator = word_generator(BitFlipPattern.TYPICAL, seed=row)
        network.add_stream(name, allocation, generator, load=1.0)
    return network


# ---------------------------------------------------------------------------
# Quad-modal bit-identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_random_scenarios_are_quadmodal_identical(seed):
    """Drawn kind × fabric × load × churn × fault scenarios: strict = auto
    = event = vector, per-router and per-stream."""
    plan = _random_plan(seed)
    nets = {
        schedule: _execute(plan, schedule)
        for schedule in ("strict", "auto", "event", "vector")
    }
    reference = _snapshot(nets["strict"])
    for schedule in ("auto", "event", "vector"):
        assert _snapshot(nets[schedule]) == reference, (
            f"seed {seed}: {schedule} diverged from strict "
            f"(kind={plan['kind']}, fabric={plan['family']}{plan['extent']}, "
            f"churn={plan['churn']}, fault={plan['fault']})"
        )


def test_vector_plane_batches_busy_cycles():
    """On a saturated circuit fabric the plane must actually take the fast
    path (batched fabric-wide cycles), not silently fall back."""
    strict = _full_load_circuit("strict")
    vector = _full_load_circuit("vector")
    strict.run(400)
    vector.run(400)
    assert _snapshot(vector) == _snapshot(strict)
    stats = vector.kernel.scheduler_stats
    assert stats.vector_batches > 300
    assert stats.vector_components == stats.vector_batches * len(vector.routers)


def test_vector_on_gt_and_packet_degrades_to_event():
    """Non-circuit fabrics accept schedule="vector" but register no plane."""
    for kind in ("packet", "gt"):
        network = build_network(
            kind, Mesh2D(3, 3), frequency_hz=FREQUENCY_HZ, schedule="vector"
        )
        assert network.vector_plane is None
        generator = word_generator(BitFlipPattern.TYPICAL, seed=5)
        network.attach_channel("a", (0, 0), (2, 2), 100.0, generator, load=0.5)
        network.run(300)
        assert network.kernel.scheduler_stats.vector_batches == 0


def test_clock_gated_circuit_registers_no_plane():
    """The gated commit holds register values the columnar latch would
    overwrite, so gated fabrics run plain event-driven."""
    from repro.noc.network import CircuitSwitchedNoC

    network = CircuitSwitchedNoC(
        Mesh2D(3, 3), frequency_hz=FREQUENCY_HZ, schedule="vector", clock_gating=True
    )
    assert network.vector_plane is None


# ---------------------------------------------------------------------------
# Version guards: reconfiguration and faults invalidate the compiled gather
# ---------------------------------------------------------------------------


def test_reconfiguration_invalidates_compiled_gather():
    """A post-start circuit write must force a reference cycle + recompile,
    and the recompiled plane must still match strict bit for bit."""
    from repro.noc.path_allocation import LaneAllocator

    def scenario(schedule):
        mesh = Mesh2D(4, 4)
        network = build_network(
            "circuit", mesh, frequency_hz=FREQUENCY_HZ, schedule=schedule
        )
        allocator = LaneAllocator(mesh)
        first = allocator.allocate("a", (0, 0), (3, 3), 100.0, FREQUENCY_HZ)
        network.apply_allocation(first)
        network.add_stream(
            "a", first, word_generator(BitFlipPattern.TYPICAL, seed=2), load=0.8
        )
        network.run(250)
        second = allocator.allocate("b", (3, 0), (0, 3), 100.0, FREQUENCY_HZ)
        network.apply_allocation(second)
        network.add_stream(
            "b", second, word_generator(BitFlipPattern.TYPICAL, seed=4), load=1.0
        )
        network.run(250)
        network.remove_allocation(first)
        network.run(150)
        return network

    strict = scenario("strict")
    vector = scenario("vector")
    assert _snapshot(vector) == _snapshot(strict)
    plane = vector.vector_plane
    assert plane is not None
    # The plane ended the run recompiled against the *current* configuration.
    assert plane._compiled
    assert plane._member_versions == [
        member.config.version for member in plane._members
    ]


def test_live_fault_desyncs_and_recompiles_the_plane():
    """Fault injection flushes the plane before wires die (exact in-flight
    drop counts) and reclassifies the dead bundle on recompile."""

    def scenario(schedule):
        network = _full_load_circuit(schedule)
        network.run(200)
        network.fail_link((1, 1), (2, 1))
        network.refresh_routing(network.degraded_topology())
        network.run(200)
        return network

    strict = scenario("strict")
    vector = scenario("vector")
    assert _snapshot(vector) == _snapshot(strict)
    # The dead bundle swallowed the identical in-flight payload.
    assert vector.fault_drops() == strict.fault_drops()
    assert vector.fault_drops() > 0
    assert vector.vector_plane._compiled


def test_sync_flush_makes_scalar_state_observable():
    """After every run() the crossbar registers and wires must hold the
    same values the strict schedule leaves behind (the flush contract)."""
    strict = _full_load_circuit("strict")
    vector = _full_load_circuit("vector")
    strict.run(157)
    vector.run(157)
    for position in strict.routers:
        s_router = strict.routers[position]
        v_router = vector.routers[position]
        assert v_router.crossbar.committed_data == s_router.crossbar.committed_data
        assert v_router.crossbar.committed_acks == s_router.crossbar.committed_acks
    for key in strict.links:
        assert vector.links[key].forward == strict.links[key].forward
        assert vector.links[key].ack == strict.links[key].ack


def test_kernel_reset_resets_the_plane():
    network = _full_load_circuit("vector")
    network.run(200)
    assert network.kernel.scheduler_stats.vector_batches > 0
    network.kernel.reset()
    plane = network.vector_plane
    assert not plane._compiled
    assert plane._batched == 0
    assert network.kernel.scheduler_stats.vector_batches == 0
    # The plane comes back: first cycle is a dense reference, then batching.
    network.run(120)
    assert plane._compiled
    assert network.kernel.scheduler_stats.vector_batches > 0


# ---------------------------------------------------------------------------
# Correlated fault models
# ---------------------------------------------------------------------------


class TestCorrelatedFaults:
    def _loaded_network(self, schedule="auto"):
        network = build_network(
            "circuit", Mesh2D(4, 4), frequency_hz=FREQUENCY_HZ, schedule=schedule
        )
        network.attach_channel(
            "a", (0, 0), (3, 0), 100.0,
            word_generator(BitFlipPattern.TYPICAL, seed=1), load=0.9,
        )
        network.run(200)
        return network

    def test_row_cut_kills_the_whole_row_atomically(self):
        network = self._loaded_network()
        injector = FaultInjector(network)
        report = injector.inject(FaultSpec("link", chooser=row_cut_chooser(seed=3, row=0)))
        assert report.kind == "link_group"
        # Every horizontal link of row 0 died in one fault event.
        assert set(report.target) == {
            ((x, 0), (x + 1, 0)) for x in range(3)
        }
        assert set(report.target) <= set(network.dead_links)
        assert len(injector.reports) == 1
        assert report.wire_drops == network.fault_drops()
        assert "3 links" in report.describe()

    def test_region_kill_takes_down_a_power_domain(self):
        network = self._loaded_network()
        injector = FaultInjector(network)
        report = injector.inject(
            FaultSpec("router", chooser=region_chooser(seed=5, width=2, height=2,
                                                       region=(2, 2)))
        )
        assert report.kind == "router_group"
        # The greedy connectivity filter may drop a window member whose kill
        # would transiently disconnect (here (3,2), which would isolate the
        # not-yet-dead (3,3)); everything it keeps dies atomically.
        window = {(2, 2), (2, 3), (3, 2), (3, 3)}
        assert set(report.target) <= window
        assert len(report.target) >= 3
        assert set(report.target) <= set(network.dead_routers)

    def test_region_chooser_never_touches_the_ccn(self):
        network = build_network("circuit", Mesh2D(4, 4), frequency_hz=FREQUENCY_HZ)
        ccn = CentralCoordinationNode(network=network)
        chooser = region_chooser(seed=1, width=4, height=4)
        group = chooser(network, ccn)
        assert ccn.be_network.ccn_position not in group

    def test_group_validation_is_cumulative_and_atomic(self):
        # On a 2-wide line fabric, cutting both parallel columns' links
        # jointly disconnects — the group kill must refuse as a whole.
        network = build_network("circuit", Mesh2D(2, 2), frequency_hz=FREQUENCY_HZ)
        injector = FaultInjector(network)
        with pytest.raises(FaultError):
            injector.kill_link_group([((0, 0), (1, 0)), ((0, 1), (1, 1)),
                                      ((0, 0), (0, 1)), ((1, 0), (1, 1))])
        assert not network.dead_links  # nothing was touched

    def test_row_cut_is_quadmodal_identical(self):
        def scenario(schedule):
            network = self._loaded_network(schedule)
            injector = FaultInjector(network)
            injector.inject(FaultSpec("link", chooser=row_cut_chooser(seed=3, row=1)))
            network.run(200)
            return network

        reference = _snapshot(scenario("strict"))
        for schedule in ("auto", "event", "vector"):
            assert _snapshot(scenario(schedule)) == reference, schedule

    def test_storm_schedule_wires_correlated_choosers(self):
        events, _ = storm_schedule(
            4, seed=7, row_cut_every=2, region_every=3, fault_spacing=100
        )
        faults = [event.fault for event in events if event.action == "fault"]
        assert len(faults) == 4
        # Indices 2 and 4 are row cuts (every 2nd), index 3 a region kill.
        network = build_network("circuit", Mesh2D(4, 4), frequency_hz=FREQUENCY_HZ)
        row_cut = faults[1].chooser(network, None)
        assert isinstance(row_cut, list) and all(len(link) == 2 for link in row_cut)
        region = faults[2].chooser(network, None)
        assert isinstance(region, list) and all(len(p) == 2 for p in region)
