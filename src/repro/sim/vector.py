"""The columnar fast path: a struct-of-arrays wire plane for busy fabrics.

Every prior scheduling tier (quiescence wakes, timed leaps, the event heap)
attacks *idle* cost; a fully loaded fabric still pays a pure-Python
per-component loop on every busy cycle.  The :class:`VectorPlane` flattens
that loop: all crossbar output/acknowledge registers of a whole
circuit-switched fabric live in preallocated NumPy arrays, and one busy cycle
becomes a handful of gathers, XORs and popcounts instead of N×routers Python
calls.

How it stays bit-identical to the strict reference schedule:

* **Compiled gather per configuration version.**  The active routes of every
  member crossbar (:meth:`repro.core.crossbar.Crossbar.active_routes` /
  :meth:`~repro.core.crossbar.Crossbar.ack_fanins`) compile into flat index
  arrays: ``next_vals = data[src_idx]`` replays exactly the scalar
  evaluate-phase sampling, because an internal lane wire always equals the
  driving router's committed register (the scalar commit drives the wire on
  every register change).  A sentinel slot pinned to the idle value stands in
  for constant sources (unattached ports); tile-port serialiser outputs and
  *foreign* wires (dead links) are patched scalar per cycle.
* **Vectorised activity accounting.**  Register/crossbar toggles come from
  ``popcount(xor(new, old))`` (:func:`numpy.bitwise_count`), which equals the
  scalar ``int.bit_count`` path exactly; acknowledge flips count one bit
  each; per-member sums are deferred in columnar accumulators and folded into
  the scalar :class:`~repro.energy.activity.ActivityCounters` at
  :meth:`flush` time, so the per-router totals match the strict schedule
  ULP-exactly (they are integer sums either way).
* **Version guards and the reference fallback.**  Any member wake
  (reconfiguration, fault, tile write) lands in the plane's
  dirty list via :attr:`repro.sim.engine.ClockedComponent._batch_plane`.  A
  configuration-version change triggers one *reference cycle*: the plane
  flushes its arrays back into the scalar objects and runs every member's
  dense ``evaluate``/``commit`` — exactly the dense sweep the scalar event
  schedule performs per configuration version — then recompiles.  Fault
  injection calls :meth:`desync` *before* wires die, so in-flight drop
  counts read true wire state and dead bundles reclassify onto the scalar
  drive path.
* **Converters stay scalar.**  Serialiser/deserialiser state machines are
  word-level and branchy; the plane keeps them on the scalar
  :meth:`~repro.core.data_converter.DataConverter.tick_sparse` path, ticking
  only the *live* set (members whose tile lanes moved or whose interfaces
  were written) and batch-accounting everyone else's constant idle bits —
  the same accounting ``tick_sparse`` itself performs for an idle converter.

The plane registers with the kernel as **one** composite component in place
of its member routers (the members are never registered themselves), so the
registration-index ordering against stream endpoints — and therefore the
commit-phase replay semantics of the event schedule — is preserved.  GT slot
wires are *not* vectorised: the TDMA router's per-slot table walk is control
flow, not a static gather, so ``schedule="vector"`` on a GT (or packet, or
clock-gated circuit) network simply behaves as ``schedule="event"``.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as np

from repro.common import SimulationError, toggle_count
from repro.energy.activity import ActivityKeys
from repro.sim.engine import ClockedComponent

__all__ = ["VectorPlane"]


class VectorPlane(ClockedComponent):
    """Columnar batch executor for a set of circuit-switched routers.

    Parameters
    ----------
    members:
        The routers to batch, in the order they would have been registered
        with the kernel.  All must share one lane geometry and have clock
        gating disabled (the gated commit path holds register values the
        columnar latch would overwrite).
    name:
        Kernel component name (one plane per kernel).
    """

    supports_quiescence = True
    supports_timed_wake = True

    def __init__(self, members: List[Any], name: str = "vector_plane") -> None:
        super().__init__(name)
        if not members:
            raise SimulationError("a vector plane needs at least one member")
        first = members[0]
        for member in members:
            if member.clock_gating:
                raise SimulationError(
                    f"vector plane member {member.name!r} uses clock gating; "
                    "the columnar latch only models the non-gated commit"
                )
            if (
                member.lanes_per_port != first.lanes_per_port
                or member.lane_width != first.lane_width
            ):
                raise SimulationError("vector plane members must share one lane geometry")
        self._members: List[Any] = list(members)
        self._r = len(members)
        self._l = first.lanes_per_port
        self._t = first.NUM_PORTS * first.lanes_per_port
        self._n = self._r * self._t
        self._width = first.lane_width
        #: Constant per-cycle crossbar clocked bits of one member (the
        #: non-gated commit clocks every output lane's data+ack register).
        self._xbar_bits = self._t * (self._width + 1)
        #: Constant per-cycle converter clocked bits per member (idle lanes).
        self._conv_bits = [m.converter._idle_bits_total for m in members]

        # Scheduling state ------------------------------------------------
        self._dirty: List[Any] = []
        self._member_versions = [-1] * self._r
        self._compiled = False
        #: A member's configuration version moved: the next cycle must be a
        #: dense reference cycle before the gather can be recompiled.
        self._structural = True
        #: The previous executed cycle was a clean dense reference cycle, so
        #: the scalar state is coherent and the gather may compile.
        self._fallback_ready = False
        #: Dense member evaluates already ran for the in-flight cycle.
        self._fallback_eval = False
        #: The last batched commit latched no change and ticked no converter
        #: — the plane is at a fixed point and may park.
        self._settled = False
        self._changed = True
        self._batched = 0
        self._last_cycle = 0
        self._live: set = set()
        self._live_cycles = [0] * self._r
        self._pending_link = [0] * self._r

        for index, member in enumerate(members):
            member._batch_plane = self
            member._plane_index = index
            member._plane_pending = False

        # Compiled columnar state (built by _compile) ---------------------
        self._data = np.zeros(self._n + 1, dtype=np.int64)
        self._acks = np.zeros(self._n + 1, dtype=bool)
        self._m = 0
        self._q = 0
        self._k = 0

    # -- wake plumbing -----------------------------------------------------

    def member_dirty(self, member: Any) -> None:
        """A member's input changed outside the batched execution."""
        if not member._plane_pending:
            member._plane_pending = True
            self._dirty.append(member)
            self.wake()

    def _drain_dirty(self) -> None:
        versions = self._member_versions
        compiled = self._compiled
        live = self._live
        for member in self._dirty:
            member._plane_pending = False
            index = member._plane_index
            if member.config.version != versions[index]:
                self._structural = True
            if compiled:
                # Conservative: any external write may have unfrozen the
                # converter (tile send/receive, flow reconfiguration).  An
                # idle converter demotes itself after one batched tick.
                live.add(index)
        self._dirty.clear()
        self._settled = False

    def desync(self) -> None:
        """Flush and drop the compiled gather (called before wire surgery).

        Fault injection reads and mutates wire state directly
        (:meth:`repro.core.lane.LaneLink.fail` counts in-flight phits), so
        the plane must first write its columnar state back and then
        recompile — the recompile reclassifies dead bundles onto the exact
        scalar drive path.  The scalar state is coherent after the flush, so
        no reference cycle is needed before recompiling.
        """
        self.flush()
        if self._compiled:
            self._compiled = False
            self._fallback_ready = True
        self._settled = False
        self.wake()

    # -- compilation -------------------------------------------------------

    def _compile(self) -> None:
        """Build the route-index gather from the current configuration.

        Requires coherent scalar state: the previous executed cycle was a
        dense reference cycle (or a flush just ran), so every internal wire
        equals its driver's committed register, ``_tx_previous`` mirrors the
        registers, and the tile snapshots are current.
        """
        members = self._members
        lanes = self._l
        t = self._t
        sentinel = self._n

        # Where each link's driver register / reader ack register lives.
        tx_map: dict = {}
        rx_map: dict = {}
        ambiguous: set = set()
        for index, member in enumerate(members):
            base = index * t
            for port, link in member._tx_links.items():
                if link is None:
                    continue
                key = id(link)
                if key in tx_map:
                    ambiguous.add(key)
                tx_map[key] = base + int(port) * lanes
            for port, link in member._rx_links.items():
                if link is None:
                    continue
                key = id(link)
                if key in rx_map:
                    ambiguous.add(key)
                rx_map[key] = base + int(port) * lanes
        for key in ambiguous:
            # A link object attached at more than one port cannot be indexed
            # unambiguously; both endpoints take the scalar wire path, which
            # is always correct (and symmetric by construction).
            tx_map.pop(key, None)
            rx_map.pop(key, None)

        src_idx: List[int] = []
        dst_idx: List[int] = []
        route_member: List[int] = []
        internal_pos: List[int] = []
        tile_srcs: List[Tuple[int, Any]] = []
        foreign_srcs: List[Tuple[int, Any, int]] = []
        tile_outs: List[Tuple[int, Any, int]] = []
        foreign_outs: List[Tuple[int, Any, int, Any, int, int]] = []
        wire_syncs: List[Tuple[int, Any, int, Any, int]] = []

        ack_src_idx: List[int] = []
        seg_starts: List[int] = []
        feed_dst_idx: List[int] = []
        feed_member: List[int] = []
        tile_ack_srcs: List[Tuple[int, Any]] = []
        foreign_ack_srcs: List[Tuple[int, Any, int]] = []
        tile_feeds: List[Tuple[int, Any, int]] = []
        foreign_ack_outs: List[Tuple[int, Any, int]] = []
        ack_wire_syncs: List[Tuple[int, Any, int]] = []

        for index, member in enumerate(members):
            base = index * t
            rx_by_port = {
                int(p): l for p, l in member._rx_links.items() if l is not None
            }
            tx_by_port = {
                int(p): l for p, l in member._tx_links.items() if l is not None
            }
            serializers = member.converter.serializers
            deserializers = member.converter.deserializers

            for out_idx, route_src in member.crossbar.active_routes():
                mi = len(dst_idx)
                dst_idx.append(base + out_idx)
                route_member.append(index)
                if route_src < lanes:
                    src_idx.append(sentinel)
                    tile_srcs.append((mi, serializers[route_src]))
                else:
                    port = route_src // lanes
                    lane = route_src - port * lanes
                    rx = rx_by_port.get(port)
                    if rx is None:
                        # Unattached port: the scalar snapshot keeps its
                        # preset idle value, which the sentinel reproduces.
                        src_idx.append(sentinel)
                    elif rx.dead or id(rx) not in tx_map:
                        src_idx.append(sentinel)
                        foreign_srcs.append((mi, rx, lane))
                    else:
                        src_idx.append(tx_map[id(rx)] + lane)
                if out_idx < lanes:
                    tile_outs.append((mi, member, out_idx))
                else:
                    port = out_idx // lanes
                    lane = out_idx - port * lanes
                    tx = tx_by_port.get(port)
                    if tx is None:
                        pass
                    elif tx.dead or id(tx) not in rx_map:
                        foreign_outs.append((mi, member, index, tx, lane, out_idx))
                    else:
                        internal_pos.append(mi)
                        wire_syncs.append((base + out_idx, tx, lane, member, out_idx))

            for in_idx, outs in member.crossbar.ack_fanins():
                qi = len(feed_dst_idx)
                feed_dst_idx.append(base + in_idx)
                feed_member.append(index)
                seg_starts.append(len(ack_src_idx))
                for out_idx in outs:
                    k = len(ack_src_idx)
                    if out_idx < lanes:
                        ack_src_idx.append(sentinel)
                        tile_ack_srcs.append((k, deserializers[out_idx]))
                    else:
                        port = out_idx // lanes
                        lane = out_idx - port * lanes
                        tx = tx_by_port.get(port)
                        if tx is None:
                            ack_src_idx.append(sentinel)
                        elif tx.dead or id(tx) not in rx_map:
                            ack_src_idx.append(sentinel)
                            foreign_ack_srcs.append((k, tx, lane))
                        else:
                            ack_src_idx.append(rx_map[id(tx)] + lane)
                if in_idx < lanes:
                    tile_feeds.append((qi, member, in_idx))
                else:
                    port = in_idx // lanes
                    lane = in_idx - port * lanes
                    rx = rx_by_port.get(port)
                    if rx is None:
                        pass
                    elif rx.dead or id(rx) not in tx_map:
                        foreign_ack_outs.append((base + in_idx, rx, lane))
                    else:
                        ack_wire_syncs.append((base + in_idx, rx, lane))

        m = len(dst_idx)
        q = len(feed_dst_idx)
        k = len(ack_src_idx)
        self._m = m
        self._q = q
        self._k = k
        self._src_idx = np.array(src_idx, dtype=np.intp)
        self._dst_idx = np.array(dst_idx, dtype=np.intp)
        self._route_member = np.array(route_member, dtype=np.intp)
        internal = np.array(internal_pos, dtype=np.intp)
        self._internal_pos = internal
        self._internal_member = self._route_member[internal]
        self._next_vals = np.zeros(m, dtype=np.int64)
        self._old_vals = np.zeros(m, dtype=np.int64)
        self._xor = np.zeros(m, dtype=np.int64)
        self._tog8 = np.zeros(m, dtype=np.uint8)
        self._pending_tog = np.zeros(m, dtype=np.int64)

        self._ack_src_idx = np.array(ack_src_idx, dtype=np.intp)
        self._seg_starts = np.array(seg_starts, dtype=np.intp)
        self._feed_dst_idx = np.array(feed_dst_idx, dtype=np.intp)
        self._feed_member = np.array(feed_member, dtype=np.intp)
        self._ack_gather = np.zeros(k, dtype=bool)
        self._next_acks = np.zeros(q, dtype=bool)
        self._old_acks = np.zeros(q, dtype=bool)
        self._flips = np.zeros(q, dtype=bool)
        self._pending_flips = np.zeros(q, dtype=np.int64)

        self._tile_srcs = tile_srcs
        self._foreign_srcs = foreign_srcs
        self._tile_outs = tile_outs
        self._foreign_outs = foreign_outs
        self._wire_syncs = wire_syncs
        self._tile_ack_srcs = tile_ack_srcs
        self._foreign_ack_srcs = foreign_ack_srcs
        self._tile_feeds = tile_feeds
        self._foreign_ack_outs = foreign_ack_outs
        self._ack_wire_syncs = ack_wire_syncs

        # Load the committed register state and reset the accumulators.
        data = self._data
        acks = self._acks
        for index, member in enumerate(members):
            base = index * t
            data[base : base + t] = member.crossbar.committed_data
            acks[base : base + t] = member.crossbar.committed_acks
            self._member_versions[index] = member.config.version
        data[sentinel] = 0
        acks[sentinel] = False
        self._batched = 0
        self._pending_link = [0] * self._r
        self._live_cycles = [0] * self._r
        # Every converter starts live and demotes itself once provably idle.
        self._live = set(range(self._r))
        self._changed = True
        self._settled = False
        self._compiled = True

    # -- two-phase execution ----------------------------------------------

    def evaluate(self, cycle: int) -> None:
        if self._dirty:
            self._drain_dirty()
        if self._structural or not self._compiled:
            if self._structural or not self._fallback_ready:
                if self._compiled:
                    self.flush()
                    self._compiled = False
                self._fallback_eval = True
                for member in self._members:
                    member.evaluate(cycle)
                return
            self._compile()
        self._eval_batched()

    def _eval_batched(self) -> None:
        if self._m:
            np.take(self._data, self._src_idx, out=self._next_vals)
            next_vals = self._next_vals
            for mi, serializer in self._tile_srcs:
                next_vals[mi] = serializer._current_phit
            for mi, link, lane in self._foreign_srcs:
                next_vals[mi] = link.forward[lane]
        if self._q:
            np.take(self._acks, self._ack_src_idx, out=self._ack_gather)
            gather = self._ack_gather
            for k, deserializer in self._tile_ack_srcs:
                gather[k] = deserializer._ack_pulse
            for k, link, lane in self._foreign_ack_srcs:
                gather[k] = link.ack[lane]
            np.logical_or.reduceat(gather, self._seg_starts, out=self._next_acks)

    def commit(self, cycle: int) -> None:
        if self._dirty:
            self._drain_dirty()
        if self._structural and not self._fallback_eval:
            # A structural change landed between our evaluate and commit
            # (e.g. a configuration write during another component's turn):
            # discard the batched buffers — they were never applied — and
            # run the reference cycle instead.
            if self._compiled:
                self.flush()
                self._compiled = False
            self._fallback_eval = True
            for member in self._members:
                member.evaluate(cycle)
        if self._fallback_eval:
            versions = self._member_versions
            for index, member in enumerate(self._members):
                versions[index] = member.config.version
            for member in self._members:
                member.commit(cycle)
            self._fallback_eval = False
            self._structural = False
            self._fallback_ready = True
            self._settled = False
            self._changed = True
            self._last_cycle = cycle
            return
        self._commit_batched(cycle)

    def _commit_batched(self, cycle: int) -> None:
        data_changed = False
        ack_changed = False
        ticked = bool(self._live)
        live = self._live
        if self._m:
            np.take(self._data, self._dst_idx, out=self._old_vals)
            np.bitwise_xor(self._next_vals, self._old_vals, out=self._xor)
            xor = self._xor
            if xor.any():
                data_changed = True
                np.bitwise_count(xor, out=self._tog8)
                self._pending_tog += self._tog8
                next_vals = self._next_vals
                self._data[self._dst_idx] = next_vals
                for mi, member, lane in self._tile_outs:
                    if xor[mi]:
                        member._tile_rx[lane] = int(next_vals[mi])
                        live.add(member._plane_index)
        if self._q:
            np.take(self._acks, self._feed_dst_idx, out=self._old_acks)
            np.not_equal(self._next_acks, self._old_acks, out=self._flips)
            flips = self._flips
            if flips.any():
                ack_changed = True
                self._pending_flips += flips
                next_acks = self._next_acks
                self._acks[self._feed_dst_idx] = next_acks
                for qi, member, lane in self._tile_feeds:
                    if flips[qi]:
                        member._tile_ack[lane] = bool(next_acks[qi])
                        live.add(member._plane_index)
        if live:
            members = self._members
            live_cycles = self._live_cycles
            demote: List[int] = []
            for index in live:
                member = members[index]
                converter = member.converter
                converter.tick_sparse(member._tile_rx, member._tile_ack, cycle, False)
                live_cycles[index] += 1
                if (
                    converter._sparse_idle
                    and not any(member._tile_rx)
                    and not any(member._tile_ack)
                ):
                    demote.append(index)
            if demote:
                live.difference_update(demote)
        if self._foreign_outs:
            width = self._width
            next_vals = self._next_vals
            pending_link = self._pending_link
            for mi, member, index, link, lane, idx in self._foreign_outs:
                value = int(next_vals[mi])
                previous = member._tx_previous[idx]
                if value != previous:
                    pending_link[index] += toggle_count(previous, value, width)
                    member._tx_previous[idx] = value
                    link.drive_forward(lane, value)
        if self._foreign_ack_outs:
            acks = self._acks
            for g, link, lane in self._foreign_ack_outs:
                value = bool(acks[g])
                if link.ack[lane] != value:
                    link.drive_ack(lane, value)
        self._batched += 1
        self._last_cycle = cycle
        self._changed = data_changed or ack_changed
        self._settled = not data_changed and not ack_changed and not ticked
        stats = self._scheduler.scheduler_stats
        stats.vector_batches += 1
        stats.vector_components += self._r

    # -- flush -------------------------------------------------------------

    def flush(self) -> None:
        """Fold the batched state back into the scalar component objects.

        Registered as a kernel sync hook, so it runs at the end of every
        ``run``/``step`` — external readers (benchmarks, equivalence tests,
        reports) always observe scalar-coherent registers,
        wires and activity counters.  Idempotent: with nothing batched it
        returns immediately.
        """
        if not self._compiled or self._batched == 0:
            return
        members = self._members
        r = self._r
        batched = self._batched
        if self._m:
            data_tog = np.bincount(
                self._route_member, weights=self._pending_tog, minlength=r
            )
            if self._internal_pos.size:
                link_tog = np.bincount(
                    self._internal_member,
                    weights=self._pending_tog[self._internal_pos],
                    minlength=r,
                )
            else:
                link_tog = None
        else:
            data_tog = None
            link_tog = None
        if self._q:
            ack_tog = np.bincount(
                self._feed_member, weights=self._pending_flips, minlength=r
            )
        else:
            ack_tog = None
        live_cycles = self._live_cycles
        pending_link = self._pending_link
        xbar_bits = self._xbar_bits
        conv_bits = self._conv_bits
        last = self._last_cycle + 1
        for index, member in enumerate(members):
            activity = member.activity
            data_toggles = int(data_tog[index]) if data_tog is not None else 0
            ack_toggles = int(ack_tog[index]) if ack_tog is not None else 0
            if data_toggles:
                activity.add(ActivityKeys.XBAR_TOGGLE_BITS, data_toggles)
            if data_toggles or ack_toggles:
                activity.add(ActivityKeys.REG_TOGGLE_BITS, data_toggles + ack_toggles)
            link_toggles = pending_link[index]
            if link_tog is not None:
                link_toggles += int(link_tog[index])
            if link_toggles:
                activity.add(ActivityKeys.LINK_TOGGLE_BITS, link_toggles)
            idle_cycles = batched - live_cycles[index]
            activity.add(
                ActivityKeys.REG_CLOCKED_BITS,
                xbar_bits * batched + conv_bits[index] * idle_cycles,
            )
            if activity.cycles < last:
                activity.cycles = last
        data = self._data
        acks = self._acks
        t = self._t
        for index, member in enumerate(members):
            base = index * t
            member.crossbar.committed_data[:] = data[base : base + t].tolist()
            member.crossbar.committed_acks[:] = acks[base : base + t].tolist()
        for dst_abs, link, lane, member, idx in self._wire_syncs:
            value = int(data[dst_abs])
            link.sync_forward_silent(lane, value)
            member._tx_previous[idx] = value
        for g, link, lane in self._ack_wire_syncs:
            link.sync_ack_silent(lane, bool(acks[g]))
        if self._m:
            self._pending_tog[:] = 0
        if self._q:
            self._pending_flips[:] = 0
        for index in range(r):
            live_cycles[index] = 0
            pending_link[index] = 0
        self._batched = 0

    # -- quiescence / timed protocol --------------------------------------

    def quiescent(self) -> bool:
        """True when another batched cycle would latch nothing anywhere.

        Requires a settled batch: the previous batched commit latched no
        register change, flipped no acknowledge *and* ticked no converter —
        so every gather source is provably frozen (internal sources are the
        unchanged registers, tile sources the untouched serialisers, and a
        foreign wire write would have landed in the dirty list).
        """
        return (
            self._compiled
            and not self._dirty
            and not self._structural
            and self._settled
            and not self._live
        )

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        return None if self.quiescent() else cycle

    def idle_tick(self, start_cycle: int, cycles: int) -> None:
        """The members' constant idle accounting, bulk-applied."""
        xbar_bits = self._xbar_bits
        conv_bits = self._conv_bits
        end = start_cycle + cycles
        for index, member in enumerate(self._members):
            activity = member.activity
            activity.add(
                ActivityKeys.REG_CLOCKED_BITS,
                (xbar_bits + conv_bits[index]) * cycles,
            )
            activity.cycles = end
    def reset(self) -> None:
        self._compiled = False
        self._structural = True
        self._fallback_ready = False
        self._fallback_eval = False
        self._settled = False
        self._changed = True
        self._batched = 0
        self._last_cycle = 0
        self._live = set()
        self._live_cycles = [0] * self._r
        self._pending_link = [0] * self._r
        for member in self._dirty:
            member._plane_pending = False
        self._dirty.clear()
        self._member_versions = [-1] * self._r
        for member in self._members:
            member.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VectorPlane {self.name!r} members={self._r} compiled={self._compiled}>"
