"""Tests for the dynamic multi-application workload engine."""

from __future__ import annotations

import pytest

from repro.apps import drm, hiperlan2, umts
from repro.common import ReproError
from repro.experiments.dynamic import (
    WorkloadEvent,
    paper_churn_events,
    run_dynamic_workload,
)
from repro.noc import Mesh2D

KINDS = ("circuit", "packet", "gt")


class TestWorkloadEvents:
    def test_arrival_needs_a_graph_factory(self):
        with pytest.raises(ValueError):
            WorkloadEvent(0, "arrive", "app")

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            WorkloadEvent(0, "reboot", "app")

    def test_negative_cycle_rejected(self):
        with pytest.raises(ValueError):
            WorkloadEvent(-1, "depart", "app")

    def test_paper_schedule_is_deterministic_and_sorted(self):
        events = paper_churn_events()
        assert events == paper_churn_events()
        assert [e.cycle for e in events] == sorted(e.cycle for e in events)
        arrivals = sum(1 for e in events if e.action == "arrive")
        departures = sum(1 for e in events if e.action == "depart")
        assert arrivals == 5 and departures == 2


class TestChurnRun:
    @pytest.fixture(scope="class")
    def results(self):
        return {kind: run_dynamic_workload(kind, seed=11) for kind in KINDS}

    @pytest.mark.parametrize("kind", KINDS)
    def test_churn_delivers_and_rejects_deterministically(self, results, kind):
        result = results[kind]
        assert result.words_delivered > 500
        # The over-subscribed HiperLAN/2 re-arrival at cycle 1700 is rejected
        # on every kind (not enough type-compatible free tiles).
        assert result.rejections == 1
        assert result.rejected == ["hiperlan2"]
        assert result.peak_tile_occupancy == pytest.approx(17 / 25)
        # The schedule ends with HiperLAN/2 + DRM admitted.
        assert len(result.epochs[-1].admitted) == 2

    def test_energy_ordering_survives_churn(self, results):
        circuit = results["circuit"].energy_pj_per_bit
        packet = results["packet"].energy_pj_per_bit
        gt = results["gt"].energy_pj_per_bit
        assert circuit < gt < packet

    def test_reconfiguration_cost_contrast(self, results):
        assert results["packet"].reconfiguration_time_s == 0.0
        assert (
            results["circuit"].reconfiguration_time_s
            < results["gt"].reconfiguration_time_s
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_epoch_accounting_is_consistent(self, results, kind):
        result = results[kind]
        assert result.epochs[0].start_cycle == 0
        assert result.epochs[-1].end_cycle == result.total_cycles
        for before, after in zip(result.epochs, result.epochs[1:]):
            assert before.end_cycle == after.start_cycle
        assert sum(e.words_delivered for e in result.epochs) == result.words_delivered
        # Departures release tiles: occupancy drops after the UMTS departure.
        by_start = {e.start_cycle: e for e in result.epochs}
        assert by_start[2000].tile_occupancy < by_start[1700].tile_occupancy

    def test_utilization_tracks_admissions_on_admitted_kinds(self, results):
        for kind in ("circuit", "gt"):
            epochs = results[kind].epochs
            busy = max(e.link_utilization for e in epochs)
            assert busy > 0.0
            # Packet switching performs no admission, so no units are held.
        assert all(e.link_utilization == 0.0 for e in results["packet"].epochs)


class TestValidation:
    def test_event_beyond_total_cycles_rejected(self):
        events = [WorkloadEvent(100, "arrive", "h2", hiperlan2.build_process_graph)]
        with pytest.raises(ReproError):
            run_dynamic_workload("circuit", Mesh2D(4, 4), events, total_cycles=100)

    def test_departure_without_admission_rejected(self):
        events = [WorkloadEvent(10, "depart", "ghost")]
        with pytest.raises(ReproError):
            run_dynamic_workload("circuit", Mesh2D(4, 4), events, total_cycles=100)

    def test_departure_of_rejected_arrival_is_logged(self):
        # UMTS and DRM leave no DSP/DSRH/FPGA slack on the 5x5 grid for
        # HiperLAN/2's filters (the paper schedule's cycle-1700 rejection);
        # the rejected arrival's scheduled departure finds nothing to release.
        events = [
            WorkloadEvent(0, "arrive", "umts", umts.build_process_graph),
            WorkloadEvent(100, "arrive", "drm", drm.build_process_graph),
            WorkloadEvent(200, "arrive", "hiperlan2", hiperlan2.build_process_graph),
            WorkloadEvent(300, "depart", "hiperlan2"),
            WorkloadEvent(400, "depart", "umts"),
            WorkloadEvent(500, "depart", "drm"),
        ]
        result = run_dynamic_workload("circuit", events=events, total_cycles=600)
        assert result.rejected == ["hiperlan2"]
        assert result.epochs[3].events == ["depart hiperlan2 (never admitted)"]
        assert result.end_leak_free

    def test_custom_schedule_on_custom_topology(self):
        events = [
            WorkloadEvent(0, "arrive", "umts", umts.build_process_graph),
            WorkloadEvent(300, "depart", "umts"),
            WorkloadEvent(400, "arrive", "umts", umts.build_process_graph),
        ]
        result = run_dynamic_workload(
            "gt", Mesh2D(4, 4), events, total_cycles=800, seed=5
        )
        assert result.rejections == 0
        assert result.words_delivered > 0
        assert [e.events for e in result.epochs] == [
            ["arrive umts"],
            ["depart umts"],
            ["arrive umts"],
        ]

    def test_selector_runs_on_every_arrival_and_hits_its_cache(self):
        """Per-arrival fabric selection (the cached probes make churn cheap)."""
        from repro.noc.selection import FabricSelector

        events = [
            WorkloadEvent(0, "arrive", "umts", umts.build_process_graph),
            WorkloadEvent(300, "depart", "umts"),
            WorkloadEvent(400, "arrive", "umts", umts.build_process_graph),
        ]
        topology = Mesh2D(4, 4)
        selector = FabricSelector(topology, probe_cycles=200, seed=5)
        result = run_dynamic_workload(
            "circuit", topology, events, total_cycles=800, seed=5, selector=selector
        )
        assert result.fabric_choices == {"umts": "circuit_switched"}
        assert any(
            e.startswith("select circuit_switched")
            for epoch in result.epochs
            for e in epoch.events
        )
        # The second arrival re-used every probe of the first.
        assert selector.cache_misses == len(selector.kinds)
        assert selector.cache_hits == len(selector.kinds)
