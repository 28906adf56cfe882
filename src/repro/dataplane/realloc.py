"""Incremental fluid reallocation: dirty-flow tracking + scoped solves.

Pre-PR-2, every reallocation re-walked the forwarding path of *every*
active flow and re-solved the *global* max-min allocation — O(flows ×
hops) + O(rounds × links × flows) per flow start/stop, route install or
failure injection.  This module makes the hot path incremental:

**Path caching with epoch invalidation.**  Every node exposes a
monotonic ``fwd_epoch`` (folding in flow-table, group-table and FIB
versions plus up/down state) and every link a ``path_epoch`` /
``cap_epoch`` pair.  The engine caches each flow's walked path together
with a reverse dependency index (node → flows whose walk visited it,
link → flows whose walk crossed or was blocked by it).  A recompute
scans the epochs — O(nodes + links), far below O(flows × hops) — and
re-walks only the flows reachable from a changed entity, plus flows
that explicitly started or stopped.

**Scoped re-solve.**  Rates only change inside the connected
component(s) of the flow/link sharing graph that a dirty flow or a
capacity change touches.  The engine seeds a search with the old and
new link directions of every re-walked flow (and the directions of
capacity-changed links), partitions the reachable flows into
components, and re-solves each component independently on the
struct-of-arrays mirror (:mod:`repro.dataplane.arrays`), splicing
unchanged rates through untouched components.  Loads, host rates and
the accrual batch are rebuilt from the same mirror.

A *full* recompute runs through the same partition-and-solve code with
every active flow marked dirty, so the incremental path is bit-for-bit
identical to a from-scratch recompute: a component's solve is a pure
function of the component instance (flows in id order, directions in
first-appearance order), and any change to an instance dirties it.

Topology growth (new nodes/links) bumps ``Network.topo_epoch`` and
falls back to one full recompute — cables appearing mid-run invalidate
walk outcomes that no per-entity epoch witnesses (a previously
unconnected port, say).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, TYPE_CHECKING

from repro.dataplane.arrays import AccrualBatch, ArraysState
from repro.dataplane.flow import FluidFlow, PathStatus
from repro.obs.spans import span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataplane.link import LinkDirection
    from repro.dataplane.network import Network


class _CachedWalk:
    """One flow's cached walk result and its dependency footprint."""

    __slots__ = ("flow", "result", "node_deps", "link_deps", "dirs")

    def __init__(self, flow: FluidFlow, result) -> None:
        self.flow = flow
        self.result = result
        node_deps = {flow.src.name}
        for hop in result.hops:
            node_deps.add(hop.dst_port.node.name)
        link_deps = {hop.link.id for hop in result.hops}
        if result.blocking_link is not None:
            link_deps.add(result.blocking_link.id)
        self.node_deps = node_deps
        self.link_deps = link_deps
        # Directions only matter for delivered flows: undelivered flows
        # carry no rate and constrain nobody.
        self.dirs: List["LinkDirection"] = (
            list(result.hops) if result.delivered else []
        )

    @property
    def delivered(self) -> bool:
        return self.result.delivered


class ReallocEngine:
    """Owns the dirty-set logic and the scoped max-min re-solve."""

    def __init__(self, network: "Network") -> None:
        self.network = network
        # The struct-of-arrays mirror of the delivered cached walks.
        self.arrays = ArraysState()
        self._cache: Dict[int, _CachedWalk] = {}
        self._node_flows: Dict[str, Set[int]] = {}
        self._link_flows: Dict[int, Set[int]] = {}
        self._dir_flows: Dict["LinkDirection", Set[int]] = {}
        self._seen_node_epoch: Dict[str, int] = {}
        self._seen_link_path_epoch: Dict[int, int] = {}
        self._seen_link_cap_epoch: Dict[int, int] = {}
        self._seen_topo_epoch: Optional[int] = None
        # Flows whose activation changed since the last recompute.
        self._pending: Dict[int, FluidFlow] = {}
        # Counters for benchmarks and tests.
        self.full_recomputes = 0
        self.incremental_recomputes = 0
        self.flows_walked = 0
        self.components_solved = 0
        self.flows_solved = 0

    # -- mutation notifications -------------------------------------------

    def mark_flow_dirty(self, flow: FluidFlow) -> None:
        """A flow started or stopped; re-walk it next recompute."""
        self._pending[flow.id] = flow

    # -- the recompute ----------------------------------------------------

    def recompute(self, now: float, full: bool = False) -> None:
        """Refresh paths and rates; called by :meth:`Network.recompute`."""
        with span("realloc.recompute", full=full) as sp:
            self._recompute(now, full)
            sp.set(flows_walked=self.flows_walked,
                   components_solved=self.components_solved)

    def _recompute(self, now: float, full: bool) -> None:
        net = self.network
        state = self.arrays
        if self._seen_topo_epoch != net.topo_epoch:
            self._seen_topo_epoch = net.topo_epoch
            full = True

        # Any path below here may change flow rates, so deferred byte
        # accrual must be brought current first (the pending segments
        # were integrated against the *old* rate vector).  The one
        # exception — an incremental recompute that finds no dirt at
        # all — returns early below, leaving accrual deferred: that is
        # the rate-epoch short-circuit for recompute storms.
        cap_dirty_links: List = []
        if full:
            net._flush_accrual()
            self.full_recomputes += 1
            self._cache.clear()
            self._node_flows.clear()
            self._link_flows.clear()
            self._dir_flows.clear()
            state.reset()
            dirty = {flow.id: flow for flow in net.flows if flow.active}
            for name, node in net.nodes.items():
                self._seen_node_epoch[name] = node.fwd_epoch
            for link in net.links:
                self._seen_link_path_epoch[link.id] = link.path_epoch
                self._seen_link_cap_epoch[link.id] = link.cap_epoch
        else:
            self.incremental_recomputes += 1
            dirty, cap_dirty_links = self._scan_epochs()
            for link in cap_dirty_links:
                state.patch_capacity(link)
            if not dirty and not cap_dirty_links:
                # Nothing changed: no walk, no solve, no rate change —
                # and no accrual flush needed (rates are unchanged, so
                # pending segments stay mergeable).
                self._pending.clear()
                return
            net._flush_accrual()
        self._pending.clear()

        # Re-walk dirty flows (in id order, for deterministic PACKET_IN
        # ordering), keeping the mirror in lockstep with the cache and
        # collecting the seed directions of the re-solve.
        seed_dirs: List["LinkDirection"] = []
        seen_seeds: Set[int] = set()  # id() of LinkDirection

        def seed(direction: "LinkDirection") -> None:
            if id(direction) not in seen_seeds:
                seen_seeds.add(id(direction))
                seed_dirs.append(direction)

        for fid in sorted(dirty):
            flow = dirty[fid]
            old = self._cache.pop(fid, None)
            if old is not None:
                self._unindex(fid, old)
                for direction in old.dirs:
                    seed(direction)
            if not flow.active:
                state.drop_flow(fid)
                continue  # stopped: rate already zeroed by the network
            result = net.compute_path(flow)
            flow.path = result
            self.flows_walked += 1
            if result.status is PathStatus.MISS:
                net._report_miss(flow, result, now)
            entry = _CachedWalk(flow, result)
            self._cache[fid] = entry
            self._index(fid, entry)
            if entry.delivered:
                state.intern_flow(fid, flow, entry.dirs)
                for direction in entry.dirs:
                    seed(direction)
            else:
                state.drop_flow(fid)
                flow.rate_bps = 0.0
        for link in cap_dirty_links:
            seed(link.forward)
            seed(link.reverse)

        # Partition the affected region into connected components of
        # the flow/direction sharing graph and re-solve each.
        if full:
            seed_dirs = list(self._dir_flows)
        seed_dirs.sort(key=lambda d: d.key())
        components, touched_dirs = state.components(seed_dirs)
        comp_loads = []
        if components:
            with span("realloc.solve", components=len(components)) as sp:
                for __, slots in components:
                    comp_loads.append(self._solve_component(slots))
                sp.set(flows=sum(len(f) for f, __ in components))

        # Refresh link loads: only directions in the affected region
        # can have changed.  (A full recompute zeroes everything: stale
        # loads may linger on directions no current flow crosses.)  A
        # direction belongs to exactly one component, so assignment
        # of the per-component sums is exact.
        for direction in (net._all_directions() if full else touched_dirs):
            direction.current_load_bps = 0.0
        for dirs, loads in comp_loads:
            for direction, load in zip(dirs, loads.tolist()):
                direction.current_load_bps = load
        self._publish()

    def _publish(self) -> None:
        # Host rates and the accruing set come from the mirror in
        # canonical (flow id) order, so incremental and full recomputes
        # produce identical floating-point sums.
        net = self.network
        state = self.arrays
        for host in net.hosts():
            host.rx_rate_bps = 0.0
            host.tx_rate_bps = 0.0
        rx, tx = state.host_rates()
        for host, rx_rate, tx_rate in zip(state.hosts, rx.tolist(),
                                          tx.tolist()):
            host.rx_rate_bps = rx_rate
            host.tx_rate_bps = tx_rate
        accruing, slots = state.accruing()
        net._accrual_batch = (AccrualBatch(state, accruing, slots)
                              if accruing else None)

    # -- internals --------------------------------------------------------

    def _scan_epochs(self):
        """Incremental dirt detection: pending flows + epoch changes.

        Returns (dirty flows by id, capacity-dirty links); updates the
        seen-epoch maps as it goes.
        """
        net = self.network
        dirty = dict(self._pending)
        cap_dirty_links: List = []
        for name, node in net.nodes.items():
            epoch = node.fwd_epoch
            if self._seen_node_epoch.get(name) != epoch:
                self._seen_node_epoch[name] = epoch
                for fid in self._node_flows.get(name, ()):
                    if fid not in dirty:
                        dirty[fid] = self._cache[fid].flow
        for link in net.links:
            path_epoch = link.path_epoch
            if self._seen_link_path_epoch.get(link.id) != path_epoch:
                self._seen_link_path_epoch[link.id] = path_epoch
                for fid in self._link_flows.get(link.id, ()):
                    if fid not in dirty:
                        dirty[fid] = self._cache[fid].flow
            cap_epoch = link.cap_epoch
            if self._seen_link_cap_epoch.get(link.id) != cap_epoch:
                self._seen_link_cap_epoch[link.id] = cap_epoch
                cap_dirty_links.append(link)
        return dirty, cap_dirty_links

    def _index(self, fid: int, entry: _CachedWalk) -> None:
        for name in entry.node_deps:
            self._node_flows.setdefault(name, set()).add(fid)
        for link_id in entry.link_deps:
            self._link_flows.setdefault(link_id, set()).add(fid)
        for direction in entry.dirs:
            self._dir_flows.setdefault(direction, set()).add(fid)

    def _unindex(self, fid: int, entry: _CachedWalk) -> None:
        for name in entry.node_deps:
            flows = self._node_flows.get(name)
            if flows is not None:
                flows.discard(fid)
        for link_id in entry.link_deps:
            flows = self._link_flows.get(link_id)
            if flows is not None:
                flows.discard(fid)
        for direction in entry.dirs:
            flows = self._dir_flows.get(direction)
            if flows is not None:
                flows.discard(fid)
                if not flows:
                    del self._dir_flows[direction]

    def _solve_component(self, slots):
        """Solve one component (its mirror slots, fid order) and write
        the rates onto the flows; returns its ``(dirs, loads)``."""
        self.components_solved += 1
        self.flows_solved += len(slots)
        state = self.arrays
        rates, dirs, loads = state.solve_component(slots)
        objs = state.objs
        for slot, rate in zip(slots.tolist(), rates.tolist()):
            objs[slot].rate_bps = rate
        return dirs, loads

    @property
    def stats(self) -> dict:
        """Counters for benchmarks and tests."""
        return {
            "cached_paths": len(self._cache),
            "full_recomputes": self.full_recomputes,
            "incremental_recomputes": self.incremental_recomputes,
            "flows_walked": self.flows_walked,
            "components_solved": self.components_solved,
            "flows_solved": self.flows_solved,
            "arrays": self.arrays.stats,
        }
