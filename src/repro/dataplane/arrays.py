"""Struct-of-arrays fluid state and the vectorized max-min kernel.

This is the data plane's one solver path.  Every reallocation runs on
numpy state that persists across recomputes:

* :class:`FlowArrays` / :class:`LinkArrays` — interned
  struct-of-arrays mirrors of the cached walks: per-flow demand, rate
  and host slots; a padded path→direction incidence matrix (the CSR
  expansion is derived per solve); per-direction capacities.
* :class:`ArraysState` — the slotted container the
  :class:`~repro.dataplane.realloc.ReallocEngine` keeps **across
  recomputes**.  Stable components only patch demands, rates and
  capacities in place; rows are re-interned only when a flow is
  re-walked, and the whole state resets only on ``topo_epoch`` bumps /
  path-cache invalidation (full recomputes).
* :func:`bottleneck_filling_arrays` — the vectorized kernel.  It is
  event-ordered water filling run in *batches*: per round it
  recomputes every live saturation key ``(capacity − frozen_load) /
  alive``, then freezes either every unfrozen flow whose demand is ≤
  the minimum key (in (demand, flow) order) or every unfrozen member
  of the links at the minimum key.  Within a batch the
  ``frozen_load`` additions run through ``np.add.at`` one flow at a
  time, and runs of equal addends commute, so the float trajectory is
  bit-for-bit that of a one-event-at-a-time heap replay — pinned by
  ``tests/property/test_maxmin_oracle.py``, which keeps that replay
  as its reference and also holds both to an exact rational oracle.
* :class:`AccrualBatch` — one vectorized byte-accrual pass per rate
  timeline segment: ``rate · dt / 8`` elementwise, then ``np.add.at``
  scatters into gathered host/port/direction/flow-entry counter
  buffers in per-flow (flow id, path) order, keeping every counter
  bit-identical to integrating the flows one by one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataplane.flow import FluidFlow
    from repro.dataplane.host import Host
    from repro.dataplane.link import LinkDirection

#: Demands at or below this many bps are zero: such flows are born
#: frozen at rate 0 and take no share of any link.
EPSILON = 1e-9

_INF = float("inf")


# ---------------------------------------------------------------------------
# The vectorized kernel
# ---------------------------------------------------------------------------


def _batch_fill(demands, capacities, entry_flow, entry_link):
    """Batched heap-order water filling over a dense instance.

    ``entry_flow``/``entry_link`` are the parallel CSR expansion of the
    flow→link incidence in flow-major, path order, **deduplicated per
    flow** (a path crossing a link twice counts once).  Returns the
    per-flow rate vector (float64).
    """
    num_flows = int(demands.shape[0])
    num_links = int(capacities.shape[0])
    rates = np.zeros(num_flows)
    if num_flows == 0:
        return rates
    unfrozen = demands > EPSILON           # member flows not yet frozen
    active_demand = np.where(unfrozen, demands, _INF)
    if entry_link.size:
        alive = np.bincount(entry_link[unfrozen[entry_flow]],
                            minlength=num_links)
    else:
        alive = np.zeros(num_links, dtype=np.int64)
    frozen_load = np.zeros(num_links)
    keys = np.empty(num_links)
    # Link -> entries CSR (entries within a link in flow-major order),
    # for the tied-saturation member scan below; flow -> entries CSR
    # (the stream is flow-major, so ranges are contiguous) for the
    # freeze scatter — O(frozen hops) per round, O(incidence) overall.
    # (value·n + position) makes the default sort stable — this
    # numpy's stable kind is several times slower than quicksort.
    total = entry_link.size
    link_order = np.argsort(entry_link * total + np.arange(total))
    link_start = np.zeros(num_links + 1, dtype=np.int64)
    if entry_link.size:
        np.cumsum(np.bincount(entry_link, minlength=num_links),
                  out=link_start[1:])
    flow_start = np.zeros(num_flows + 1, dtype=np.int64)
    np.cumsum(np.bincount(entry_flow, minlength=num_flows),
              out=flow_start[1:])
    level = 0.0

    while True:
        valid = alive > 0
        keys.fill(_INF)
        # The identical IEEE expression push_sat evaluates, on the
        # identical operands: frozen_load/alive only change when a
        # link is touched, and push_sat refreshes its key right then.
        np.divide(capacities - frozen_load, alive, out=keys, where=valid)
        ksat = float(keys.min()) if num_links else _INF
        dmin = float(active_demand.min())
        if dmin == _INF and ksat == _INF:
            break
        if dmin <= ksat:
            # Demand batch: the heap pops every demand event ≤ ksat
            # before any saturation event — freezing at the demand
            # only *raises* saturation keys (exactly; float noise can
            # undershoot by an ulp, which the next round handles the
            # same way the heap does).  Pop order is (demand, flow);
            # with all-equal demands that is plain flow order, so the
            # sort (and the freeze re-sort below) can be skipped.
            batch = np.nonzero(unfrozen & (active_demand <= ksat))[0]
            new_rates = demands[batch]
            peak = float(new_rates.max())
            if batch.size > 1 and peak != float(new_rates.min()):
                order = np.argsort(new_rates, kind="stable")
                batch = batch[order]
                new_rates = new_rates[order]
            if peak > level:
                level = peak
        else:
            # Saturation batch.  Exactly tied links are popped by the
            # heap in index order, and freezing one link's members
            # *recomputes* the keys of every tied link sharing a
            # member — float rounding can drift them off the tie by
            # an ulp, changing the rate its remaining members freeze
            # at.  Batching is therefore only exact for the maximal
            # index-order prefix of tied links with pairwise-disjoint
            # member sets: those are precisely the pops the heap
            # executes back to back with no key interference.  The
            # rest wait for the next round's fresh key recompute,
            # which replays any drift bit-for-bit.
            if ksat > level:
                level = ksat
            tied = np.nonzero(valid & (keys == ksat))[0]
            if level > ksat and tied.size > 1:
                # Water level above the key (float-undershoot clamp):
                # batch members may freeze at *unequal* rates
                # min(level, demand), so the multi-link order argument
                # below no longer holds — take one link at a time.
                tied = tied[:1]
            if tied.size == 1:
                span_ = link_order[link_start[tied[0]]:link_start[tied[0] + 1]]
                members = entry_flow[span_]
                batch = members[unfrozen[members]]
            else:
                claimed = np.zeros(num_flows, dtype=bool)
                accepted_any = False
                for link in tied.tolist():
                    span_ = link_order[link_start[link]:link_start[link + 1]]
                    members = entry_flow[span_]
                    members = members[unfrozen[members]]
                    if accepted_any and bool(claimed[members].any()):
                        break
                    claimed[members] = True
                    accepted_any = True
                batch = np.nonzero(claimed)[0]
            new_rates = np.minimum(level, demands[batch])
        rates[batch] = new_rates
        unfrozen[batch] = False
        active_demand[batch] = _INF
        # Freeze side effects, replayed in the heap's add order: the
        # entry stream is flow-major, so concatenating each frozen
        # flow's contiguous entry range in pop order — (demand, flow)
        # for demand pops, flow order for saturation pops — visits
        # links exactly as the heap's freeze() loop does.
        counts_b = flow_start[batch + 1] - flow_start[batch]
        total_b = int(counts_b.sum())
        if total_b:
            ends_b = np.cumsum(counts_b)
            sel = (np.repeat(flow_start[batch] - (ends_b - counts_b),
                             counts_b) + np.arange(total_b))
            links_sel = entry_link[sel]
            np.add.at(frozen_load, links_sel, rates[entry_flow[sel]])
            alive -= np.bincount(links_sel, minlength=num_links)
    return rates


def bottleneck_filling_arrays(
    demands: Sequence[float],
    capacities: Sequence[float],
    flow_links: Sequence[Sequence[int]],
) -> List[float]:
    """Max-min rates of one dense instance; lists in, list out.

    ``flow_links[i]`` lists the link indices on flow ``i``'s path,
    deduplicated per flow (a path crossing a link twice counts once).
    Flows with demand at or below :data:`EPSILON` get rate 0.
    """
    demand_vec = np.asarray(demands, dtype=np.float64)
    cap_vec = np.asarray(capacities, dtype=np.float64)
    counts = np.fromiter((len(links) for links in flow_links),
                         dtype=np.int64, count=len(flow_links))
    total = int(counts.sum()) if counts.size else 0
    entry_flow = np.repeat(np.arange(counts.size), counts)
    entry_link = np.fromiter(
        (link for links in flow_links for link in links),
        dtype=np.int64, count=total)
    return _batch_fill(demand_vec, cap_vec, entry_flow, entry_link).tolist()


# ---------------------------------------------------------------------------
# Persistent struct-of-arrays state
# ---------------------------------------------------------------------------


class FlowArrays:
    """Slotted per-flow columns: demand, rate, hosts, padded path rows.

    ``path[slot, :path_len[slot]]`` holds the direction slots of the
    flow's cached hops *including duplicates* (byte accrual visits
    every hop); ``path_first`` marks the first occurrence of each
    direction so solves count a twice-crossed link once.
    """

    __slots__ = ("demand", "rate", "src_host", "dst_host", "path",
                 "path_len", "path_first", "has_entries", "cap", "width")

    def __init__(self, cap: int = 64, width: int = 8) -> None:
        self.cap = cap
        self.width = width
        self.demand = np.zeros(cap)
        self.rate = np.zeros(cap)
        self.src_host = np.zeros(cap, dtype=np.int32)
        self.dst_host = np.zeros(cap, dtype=np.int32)
        self.path = np.zeros((cap, width), dtype=np.int32)
        self.path_len = np.zeros(cap, dtype=np.int32)
        self.path_first = np.zeros((cap, width), dtype=bool)
        # The walk crossed installed flow-table entries, whose byte
        # counters and last_used_at stamps accrual must also feed.
        self.has_entries = np.zeros(cap, dtype=bool)

    def grow_rows(self, need: int) -> None:
        new_cap = max(self.cap * 2, need)
        for name in ("demand", "rate"):
            col = np.zeros(new_cap)
            col[: self.cap] = getattr(self, name)
            setattr(self, name, col)
        for name in ("src_host", "dst_host", "path_len"):
            col = np.zeros(new_cap, dtype=np.int32)
            col[: self.cap] = getattr(self, name)
            setattr(self, name, col)
        entries = np.zeros(new_cap, dtype=bool)
        entries[: self.cap] = self.has_entries
        self.has_entries = entries
        path = np.zeros((new_cap, self.width), dtype=np.int32)
        path[: self.cap] = self.path
        self.path = path
        first = np.zeros((new_cap, self.width), dtype=bool)
        first[: self.cap] = self.path_first
        self.path_first = first
        self.cap = new_cap

    def grow_width(self, need: int) -> None:
        new_width = max(self.width * 2, need)
        path = np.zeros((self.cap, new_width), dtype=np.int32)
        path[:, : self.width] = self.path
        self.path = path
        first = np.zeros((self.cap, new_width), dtype=bool)
        first[:, : self.width] = self.path_first
        self.path_first = first
        self.width = new_width


class LinkArrays:
    """Slotted per-direction columns: capacity plus the object table."""

    __slots__ = ("capacity", "objs", "slot_of", "cap")

    def __init__(self, cap: int = 64) -> None:
        self.cap = cap
        self.capacity = np.zeros(cap)
        self.objs: List["LinkDirection"] = []
        self.slot_of: Dict["LinkDirection", int] = {}

    def intern(self, direction: "LinkDirection") -> int:
        slot = self.slot_of.get(direction)
        if slot is None:
            slot = len(self.objs)
            if slot >= self.cap:
                new_cap = self.cap * 2
                capacity = np.zeros(new_cap)
                capacity[: self.cap] = self.capacity
                self.capacity = capacity
                self.cap = new_cap
            self.objs.append(direction)
            self.slot_of[direction] = slot
            self.capacity[slot] = direction.capacity_bps
        return slot


class ArraysState:
    """The engine-persisted SoA mirror of the cached walks.

    Interning happens when the engine (re-)walks a flow; dropping when
    a cached walk is evicted.  Between those, solves and accrual run
    purely on the arrays — stable churn only patches rates and
    capacities in place.
    """

    def __init__(self) -> None:
        self.flows = FlowArrays()
        self.links = LinkArrays()
        self.slot_of: Dict[int, int] = {}      # flow id -> slot
        self.objs: List[Optional["FluidFlow"]] = []   # slot -> flow
        self._free: List[int] = []
        self._top = 0                           # slot high-water mark
        self.hosts: List["Host"] = []
        self._host_slot: Dict[int, int] = {}    # id(host) -> slot
        self._live_cache = None  # (fids, slots), fid-ascending
        # Counters for benchmarks and tests.
        self.interned = 0
        self.dropped = 0
        self.resets = 0

    def reset(self) -> None:
        """Drop every interned row (full recompute / cache flush)."""
        self.flows = FlowArrays()
        self.links = LinkArrays()
        self.slot_of = {}
        self.objs = []
        self._free = []
        self._top = 0
        self.hosts = []
        self._host_slot = {}
        self._live_cache = None
        self.resets += 1

    # -- interning --------------------------------------------------------

    def _host(self, host: "Host") -> int:
        slot = self._host_slot.get(id(host))
        if slot is None:
            slot = len(self.hosts)
            self._host_slot[id(host)] = slot
            self.hosts.append(host)
        return slot

    def intern_flow(self, fid: int, flow: "FluidFlow",
                    dirs: Sequence["LinkDirection"]) -> int:
        """(Re-)intern one delivered flow's row; returns its slot."""
        fa = self.flows
        slot = self.slot_of.get(fid)
        if slot is None:
            if self._free:
                slot = self._free.pop()
            else:
                slot = self._top
                self._top += 1
                if slot >= fa.cap:
                    fa.grow_rows(slot + 1)
            self.slot_of[fid] = slot
            self._live_cache = None
        while len(self.objs) <= slot:
            self.objs.append(None)
        self.objs[slot] = flow
        hops = len(dirs)
        if hops > fa.width:
            fa.grow_width(hops)
        fa.demand[slot] = flow.demand_bps
        fa.rate[slot] = flow.rate_bps
        fa.path_len[slot] = hops
        fa.has_entries[slot] = bool(flow.path is not None
                                    and flow.path.entries)
        row = fa.path[slot]
        first = fa.path_first[slot]
        seen = set()
        for pos, direction in enumerate(dirs):
            dslot = self.links.intern(direction)
            row[pos] = dslot
            first[pos] = dslot not in seen
            seen.add(dslot)
        fa.src_host[slot] = self._host(flow.src)
        fa.dst_host[slot] = self._host(flow.dst)
        self.interned += 1
        return slot

    def drop_flow(self, fid: int) -> None:
        slot = self.slot_of.pop(fid, None)
        if slot is not None:
            self.flows.path_len[slot] = 0
            self.flows.rate[slot] = 0.0
            self.flows.has_entries[slot] = False
            self.objs[slot] = None
            self._free.append(slot)
            self._live_cache = None
            self.dropped += 1

    def patch_capacity(self, link) -> None:
        """A link's capacity changed; patch interned directions in place."""
        for direction in (link.forward, link.reverse):
            slot = self.links.slot_of.get(direction)
            if slot is not None:
                self.links.capacity[slot] = direction.capacity_bps

    def set_rate(self, fid: int, rate: float) -> None:
        """Mirror a rate written outside a solve (``stop_flow`` zeroes
        it)."""
        slot = self.slot_of.get(fid)
        if slot is not None:
            self.flows.rate[slot] = rate

    # -- live-set views ---------------------------------------------------

    def live_sorted(self):
        """``(fids, slots)`` arrays over every live row, fid-ascending.

        Cached between intern/drop events.  Fid order is the canonical
        add order of every per-host and per-direction sum, which is
        what makes incremental and full recomputes agree bit for bit.
        """
        cached = self._live_cache
        if cached is None:
            count = len(self.slot_of)
            fids = np.fromiter(self.slot_of.keys(), dtype=np.int64,
                               count=count)
            slots = np.fromiter(self.slot_of.values(), dtype=np.int64,
                                count=count)
            order = np.argsort(fids)       # unique keys: kind moot
            cached = self._live_cache = (fids[order], slots[order])
        return cached

    def host_rates(self):
        """Per-host ``(rx, tx)`` rate sums over live flows, fid order."""
        __, slots = self.live_sorted()
        fa = self.flows
        rates = fa.rate[slots]
        rx = np.zeros(len(self.hosts))
        tx = np.zeros(len(self.hosts))
        np.add.at(rx, fa.dst_host[slots], rates)
        np.add.at(tx, fa.src_host[slots], rates)
        return rx, tx

    def accruing(self):
        """``(flows, slots)`` of the live flows with a positive rate,
        in fid order."""
        __, slots = self.live_sorted()
        sel = slots[self.flows.rate[slots] > 0.0]
        objs = self.objs
        return [objs[slot] for slot in sel.tolist()], sel

    def components(self, seeds: Sequence["LinkDirection"]):
        """Partition the live flow/direction graph reachable from
        *seeds* into connected components.

        Returns ``(components, touched)``: per component the
        ``(fids, slots)`` pair in fid-ascending order, plus every
        direction visited, including seed directions no live flow
        crosses (their stale loads still get zeroed).
        """
        fids_sorted, slots_sorted = self.live_sorted()
        fa = self.flows
        rows = fa.path[slots_sorted]
        lens = fa.path_len[slots_sorted]
        mask = np.arange(rows.shape[1]) < lens[:, None]
        hop_dir = rows[mask]                       # flow-major stream
        hop_flow = np.repeat(np.arange(slots_sorted.size), lens)
        num_dirs = len(self.links.objs)
        # direction -> member flows CSR.  Within-direction order is
        # irrelevant here (components are membership sets; each gets
        # sorted on emit), so the faster default sort is fine.
        order = np.argsort(hop_dir)
        flows_by_dir = hop_flow[order]
        start = np.zeros(num_dirs + 1, dtype=np.int64)
        if hop_dir.size:
            np.cumsum(np.bincount(hop_dir, minlength=num_dirs),
                      out=start[1:])
        visited = np.zeros(num_dirs, dtype=bool)
        in_comp = np.zeros(slots_sorted.size, dtype=bool)
        components = []
        touched: List["LinkDirection"] = []
        dir_slot_of = self.links.slot_of
        dir_objs = self.links.objs
        for seed in seeds:
            dslot = dir_slot_of.get(seed)
            if dslot is None:
                # Never interned: no delivered flow ever crossed it.
                touched.append(seed)
                continue
            if visited[dslot]:
                continue
            visited[dslot] = True
            frontier = np.array([dslot], dtype=np.int64)
            added = []
            scratch_flow = np.zeros(slots_sorted.size, dtype=bool)
            scratch_dir = np.zeros(num_dirs, dtype=bool)
            while frontier.size:
                # Expand frontier directions to their member flows.
                counts = start[frontier + 1] - start[frontier]
                total = int(counts.sum())
                if total:
                    ends = np.cumsum(counts)
                    idx = (np.repeat(start[frontier] - (ends - counts),
                                     counts) + np.arange(total))
                    member = flows_by_dir[idx]
                    scratch_flow[member] = True
                    scratch_flow &= ~in_comp
                    fresh = np.nonzero(scratch_flow)[0]
                    scratch_flow[fresh] = False
                else:
                    fresh = frontier[:0]
                if not fresh.size:
                    break
                in_comp[fresh] = True
                added.append(fresh)
                # Expand fresh flows to their unvisited directions.
                cand = rows[fresh][mask[fresh]]
                scratch_dir[cand] = True
                scratch_dir &= ~visited
                cand = np.nonzero(scratch_dir)[0]
                scratch_dir[cand] = False
                visited[cand] = True
                frontier = cand
            if added:
                sel = np.sort(np.concatenate(added))
                components.append((fids_sorted[sel], slots_sorted[sel]))
        for dslot in np.nonzero(visited)[0].tolist():
            touched.append(dir_objs[dslot])
        return components, touched

    # -- solving ----------------------------------------------------------

    def solve_component(self, slots):
        """Solve one component given its flow slots (component fid order).

        Returns ``(rates, dirs, loads)``: the per-flow rate vector plus
        the component's directions and their refreshed loads.
        """
        fa = self.flows
        demands = fa.demand[slots]
        rows = fa.path[slots]
        lens = fa.path_len[slots]
        raw_mask = np.arange(rows.shape[1]) < lens[:, None]
        first_mask = raw_mask & fa.path_first[slots]
        counts = first_mask.sum(axis=1)
        entry_flow = np.repeat(np.arange(slots.size), counts)
        entry_global = rows[first_mask]
        num_dirs = len(self.links.objs)
        # Dense-intern directions in first-appearance order along the
        # flow-major entry stream: a canonical instance, so exactly
        # tied links break in the same order on every recompute of
        # this component.  (value·n + position) stabilizes the
        # default sort, which beats both np.unique and stable argsort.
        total = entry_global.size
        order = np.argsort(entry_global.astype(np.int64) * total
                           + np.arange(total))
        sorted_vals = entry_global[order]
        boundary = np.empty(sorted_vals.size, dtype=bool)
        if boundary.size:
            boundary[0] = True
            np.not_equal(sorted_vals[1:], sorted_vals[:-1],
                         out=boundary[1:])
        uniq = sorted_vals[boundary]
        first_pos = order[boundary]      # stable ⇒ earliest entry index
        appearance = np.argsort(first_pos, kind="stable")
        rank = np.empty(num_dirs, dtype=np.int64)
        rank[uniq[appearance]] = np.arange(uniq.size)
        entry_link = rank[entry_global]
        caps = self.links.capacity[uniq[appearance]]
        rates = _batch_fill(demands, caps, entry_flow, entry_link)
        fa.rate[slots] = rates
        # Loads sum over the *raw* hop incidence (a twice-crossed
        # direction counts the flow twice), added flow by flow in row
        # order; the dense numbering is arbitrary, only the add order
        # matters.
        hop_dir = rows[raw_mask]
        crossed = np.nonzero(np.bincount(hop_dir, minlength=num_dirs))[0]
        rank[crossed] = np.arange(crossed.size)
        loads = np.zeros(crossed.size)
        np.add.at(loads, rank[hop_dir],
                  rates[np.repeat(np.arange(lens.size), lens)])
        return rates, [self.links.objs[i] for i in crossed.tolist()], loads

    @property
    def stats(self) -> dict:
        return {
            "interned": self.interned,
            "dropped": self.dropped,
            "resets": self.resets,
            "live_flows": len(self.slot_of),
            "live_dirs": len(self.links.objs),
        }


class AccrualBatch:
    """One recompute's accruing set, prepared for vectorized flushes.

    Built after every recompute from the accruing flows (fid order).
    Each :meth:`flush` integrates one rate-timeline segment: ``rate *
    dt / 8.0`` per flow, scattered through ``np.add.at`` into flow,
    host, direction, port and flow-table-entry byte counters in (flow
    id, path) order — the order integrating the flows one by one adds
    in, so every counter is bit-identical to that, at O(numpy) instead
    of O(flows × hops) Python.  Rates are read from the mirror at flush
    time: a flow stopped since the batch was built adds exactly 0 and
    stamps no entry.
    """

    __slots__ = ("state", "flows", "slots", "hop_flow", "hop_dir", "dirs",
                 "src_idx", "src_hosts", "dst_idx", "dst_hosts",
                 "entries", "entry_idx", "entry_flow")

    def __init__(self, state: ArraysState, flows: List["FluidFlow"],
                 slots) -> None:
        self.state = state
        self.flows = flows
        self.slots = slots
        fa = state.flows
        rows = fa.path[slots]
        lens = fa.path_len[slots]
        mask = np.arange(rows.shape[1]) < lens[:, None]
        self.hop_flow = np.repeat(np.arange(slots.size), lens)
        num_dirs = len(state.links.objs)
        hop_global = rows[mask]
        uniq = np.nonzero(np.bincount(hop_global, minlength=num_dirs))[0]
        rank = np.zeros(num_dirs, dtype=np.int64)
        rank[uniq] = np.arange(uniq.size)
        self.hop_dir = rank[hop_global]
        self.dirs = [state.links.objs[i] for i in uniq.tolist()]
        num_hosts = len(state.hosts)
        src = fa.src_host[slots]
        dst = fa.dst_host[slots]
        hrank = np.zeros(num_hosts, dtype=np.int64)
        uniq_src = np.nonzero(np.bincount(src, minlength=num_hosts))[0]
        hrank[uniq_src] = np.arange(uniq_src.size)
        self.src_idx = hrank[src]
        uniq_dst = np.nonzero(np.bincount(dst, minlength=num_hosts))[0]
        hrank[uniq_dst] = np.arange(uniq_dst.size)
        self.dst_idx = hrank[dst]
        self.src_hosts = [state.hosts[i] for i in uniq_src.tolist()]
        self.dst_hosts = [state.hosts[i] for i in uniq_dst.tolist()]
        # Flow-table entries the walks crossed (OpenFlow fabrics), in
        # (flow, path.entries) order; one entry may serve many flows.
        entries: List = []
        entry_idx: List[int] = []
        entry_flow: List[int] = []
        position: Dict[int, int] = {}   # id(FlowEntry) -> buffer index
        for pos in np.nonzero(fa.has_entries[slots])[0].tolist():
            for __, entry in flows[pos].path.entries:
                at = position.get(id(entry))
                if at is None:
                    at = position[id(entry)] = len(entries)
                    entries.append(entry)
                entry_idx.append(at)
                entry_flow.append(pos)
        self.entries = entries
        self.entry_idx = np.array(entry_idx, dtype=np.int64)
        self.entry_flow = np.array(entry_flow, dtype=np.int64)

    def flush(self, dt: float, now: float) -> None:
        """Accrue one piecewise-constant segment of length ``dt``
        ending at ``now``."""
        rates = self.state.flows.rate[self.slots]
        transferred = rates * dt / 8.0
        for flow, amount in zip(self.flows, transferred.tolist()):
            flow.delivered_bytes += amount
        buf = np.fromiter((h.tx_bytes for h in self.src_hosts),
                          dtype=np.float64, count=len(self.src_hosts))
        np.add.at(buf, self.src_idx, transferred)
        for host, value in zip(self.src_hosts, buf.tolist()):
            host.tx_bytes = value
        buf = np.fromiter((h.rx_bytes for h in self.dst_hosts),
                          dtype=np.float64, count=len(self.dst_hosts))
        np.add.at(buf, self.dst_idx, transferred)
        for host, value in zip(self.dst_hosts, buf.tolist()):
            host.rx_bytes = value
        per_hop = transferred[self.hop_flow]
        dirs = self.dirs
        buf = np.fromiter((d.bytes_carried for d in dirs),
                          dtype=np.float64, count=len(dirs))
        np.add.at(buf, self.hop_dir, per_hop)
        for direction, value in zip(dirs, buf.tolist()):
            direction.bytes_carried = value
        buf = np.fromiter((d.src_port.tx_bytes for d in dirs),
                          dtype=np.float64, count=len(dirs))
        np.add.at(buf, self.hop_dir, per_hop)
        for direction, value in zip(dirs, buf.tolist()):
            direction.src_port.tx_bytes = value
        buf = np.fromiter((d.dst_port.rx_bytes for d in dirs),
                          dtype=np.float64, count=len(dirs))
        np.add.at(buf, self.hop_dir, per_hop)
        for direction, value in zip(dirs, buf.tolist()):
            direction.dst_port.rx_bytes = value
        entries = self.entries
        if entries:
            buf = np.fromiter((e.byte_count for e in entries),
                              dtype=np.float64, count=len(entries))
            np.add.at(buf, self.entry_idx, transferred[self.entry_flow])
            # Idle timeouts read last_used_at: only entries carrying a
            # flow that is still sending count as used.
            used = np.zeros(len(entries), dtype=bool)
            used[self.entry_idx[rates[self.entry_flow] > 0.0]] = True
            for entry, value, hit in zip(entries, buf.tolist(),
                                         used.tolist()):
                entry.byte_count = value
                if hit:
                    entry.last_used_at = now


__all__ = [
    "EPSILON",
    "AccrualBatch",
    "ArraysState",
    "FlowArrays",
    "LinkArrays",
    "bottleneck_filling_arrays",
]
