"""Property tests: the max-min solver against an exact oracle.

The data plane has one solver, the vectorized kernel
:func:`repro.dataplane.arrays.bottleneck_filling_arrays`.  It is held
to ground truth at every level:

* **Exact oracle.**  :func:`exact_maxmin` is progressive filling in
  :class:`fractions.Fraction` arithmetic — no rounding and no epsilon
  anywhere in the filling — so it is the single ground truth.  Float
  results must land within a few ulps of the instance's magnitude per
  event (:func:`assert_near_oracle`), never within an absolute epsilon.
* **Bit-for-bit replay.**  The kernel freezes in batches; the
  one-event-at-a-time heap replay :func:`heap_replay` performs exactly
  the same float additions, so the two agree with ``==`` per element.
* **Engine and scenario level.**  The reallocation engine's persisted
  struct-of-arrays mirror, driven through random churn, matches the
  oracle at every step and a from-scratch full recompute bit for bit;
  scenario fingerprints are equal with incremental reallocation on
  and off.
"""

import heapq
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.dataplane.arrays import EPSILON, bottleneck_filling_arrays
from repro.dataplane.flow import FluidFlow
from repro.dataplane.fluid import max_min_allocation, validate_allocation
from repro.dataplane.network import Network
from repro.scenarios import (
    LinkFail,
    ProtocolRecipe,
    ScenarioSpec,
    TopologyRecipe,
    TrafficRecipe,
    run_scenario,
)

GBPS = 1_000_000_000

# Tie-heavy values: uniform demands over power-of-two capacities make
# exactly-equal saturation levels the common case, which is where the
# heap's index-ordered tie-breaking (and the kernel's disjoint-prefix
# batching of it) actually matters.
CLEAN_DEMANDS = (2.5e8, 5e8, 1e9)
CLEAN_CAPS = (1e9, 2e9, 4e9)

#: Rounding slack per solver event (flow or link), in ulps of the
#: instance's largest demand or capacity.
ULPS_PER_EVENT = 4


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


def exact_maxmin(demands, capacities, flow_links):
    """Max-min fair rates by progressive filling in exact rationals.

    Same model as the float kernel: ``flow_links`` is deduplicated per
    flow, and a demand at or below ``EPSILON`` is zero (rate 0, no link
    share).  Every round raises all unfrozen flows by the largest
    uniform increment any demand or link allows, then freezes the flows
    at their demand or on a saturated link; each round freezes at least
    one flow.  Returns one :class:`Fraction` per flow.
    """
    wanted = [Fraction(d) if d > EPSILON else Fraction(0) for d in demands]
    residual = [Fraction(c) for c in capacities]
    rates = [Fraction(0)] * len(wanted)
    active = {i for i, demand in enumerate(wanted) if demand > 0}
    while active:
        live = [0] * len(residual)
        for i in active:
            for link in flow_links[i]:
                live[link] += 1
        step = min(wanted[i] - rates[i] for i in active)
        for link, count in enumerate(live):
            if count:
                step = min(step, residual[link] / count)
        for i in active:
            rates[i] += step
        for link, count in enumerate(live):
            residual[link] -= step * count
        full = {link for link, count in enumerate(live)
                if count and residual[link] == 0}
        active = {i for i in active
                  if rates[i] < wanted[i] and full.isdisjoint(flow_links[i])}
    return rates


def assert_near_oracle(rates, demands, capacities, flow_links, what=""):
    """Each float rate within ``ULPS_PER_EVENT`` ulps of the instance
    magnitude per solver event of the exact max-min rate."""
    exact = exact_maxmin(demands, capacities, flow_links)
    magnitude = max([*demands, *capacities], default=0.0)
    events = len(demands) + len(capacities)
    slack = Fraction(ULPS_PER_EVENT * events * math.ulp(magnitude))
    for i, (rate, truth) in enumerate(zip(rates, exact)):
        assert abs(Fraction(rate) - truth) <= slack, (
            f"{what} flow {i}: {rate!r} vs exact {float(truth)!r} "
            f"(slack {float(slack)!r})")


# ---------------------------------------------------------------------------
# Kernel level
# ---------------------------------------------------------------------------


@st.composite
def dense_instances(draw, clean):
    """A random interned instance (demands, capacities, flow_links) in
    the shape the engine hands the kernel.

    ``clean=True`` draws from small tie-heavy value sets; ``clean=False``
    draws messy floats (exercises the generic event ordering).
    """
    num_flows = draw(st.integers(min_value=1, max_value=24))
    num_links = draw(st.integers(min_value=0, max_value=12))
    if clean:
        demand = st.sampled_from(CLEAN_DEMANDS)
        capacity = st.sampled_from(CLEAN_CAPS)
    else:
        demand = st.floats(min_value=0.0, max_value=3e9)
        capacity = st.floats(min_value=1e8, max_value=5e9)
    demands = [draw(demand) for __ in range(num_flows)]
    capacities = [draw(capacity) for __ in range(num_links)]
    flow_links = []
    for __ in range(num_flows):
        length = draw(st.integers(0, min(6, num_links)))
        flow_links.append(list(draw(st.permutations(range(num_links)))
                               [:length]))
    return demands, capacities, flow_links


def heap_replay(demands, capacities, flow_links):
    """Event-ordered max-min water filling, one event at a time.

    The water level jumps straight to the next event — the smallest
    unfrozen demand, or the smallest link saturation level
    ``(capacity − frozen_load) / alive`` kept in a lazy heap — and
    freezing a flow adds its rate to each of its links' ``frozen_load``
    in path order.  This is the bit-for-bit reference the batched
    :func:`bottleneck_filling_arrays` is held to.
    """
    num_flows = len(demands)
    num_links = len(capacities)
    rates = [0.0] * num_flows
    # Zero-demand flows are born frozen at 0.
    frozen = [demands[i] <= EPSILON for i in range(num_flows)]
    members = [[] for __ in range(num_links)]
    for i, links in enumerate(flow_links):
        if not frozen[i]:
            for link in links:
                members[link].append(i)
    alive_count = [len(m) for m in members]
    frozen_load = [0.0] * num_links
    current_key = [0.0] * num_links  # latest valid sat-heap key per link

    demand_heap = [(demands[i], i) for i in range(num_flows) if not frozen[i]]
    heapq.heapify(demand_heap)
    sat_heap = []

    def push_sat(link):
        count = alive_count[link]
        if count > 0:
            key = (capacities[link] - frozen_load[link]) / count
            current_key[link] = key
            heapq.heappush(sat_heap, (key, link))

    for link in range(num_links):
        push_sat(link)

    level = 0.0  # monotonically non-decreasing water level

    def freeze(i, rate):
        frozen[i] = True
        rates[i] = rate
        for link in flow_links[i]:
            frozen_load[link] += rate
            alive_count[link] -= 1
            push_sat(link)

    while True:
        while demand_heap and frozen[demand_heap[0][1]]:
            heapq.heappop(demand_heap)
        while sat_heap and (alive_count[sat_heap[0][1]] == 0
                            or sat_heap[0][0] != current_key[sat_heap[0][1]]):
            heapq.heappop(sat_heap)
        if not demand_heap and not sat_heap:
            break
        # Ties freeze by demand: the flow then gets its full demand.
        if sat_heap and (not demand_heap
                         or sat_heap[0][0] < demand_heap[0][0]):
            sat_level, link = heapq.heappop(sat_heap)
            if sat_level > level:
                level = sat_level  # clamp against float undershoot
            for i in members[link]:
                if not frozen[i]:
                    # level can overshoot a member's demand only by
                    # float noise; never exceed the demand.
                    freeze(i, level if level < demands[i] else demands[i])
        else:
            demand, i = heapq.heappop(demand_heap)
            if frozen[i]:
                continue
            if demand > level:
                level = demand
            freeze(i, demand)
    return rates


@pytest.mark.parametrize("clean", [False, True], ids=["messy", "ties"])
@given(data=st.data())
@settings(max_examples=250, deadline=None)
def test_arrays_bitwise_equals_heap_replay(clean, data):
    """The batched kernel replays the heap's float additions exactly."""
    demands, capacities, flow_links = data.draw(dense_instances(clean))
    arrays = bottleneck_filling_arrays(demands, capacities, flow_links)
    heap = heap_replay(demands, capacities, flow_links)
    assert arrays == heap  # exact, element-wise — no tolerance


@pytest.mark.parametrize("clean", [False, True], ids=["messy", "ties"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_arrays_matches_exact_oracle(clean, data):
    demands, capacities, flow_links = data.draw(dense_instances(clean))
    rates = bottleneck_filling_arrays(demands, capacities, flow_links)
    assert_near_oracle(rates, demands, capacities, flow_links)


@st.composite
def mapping_instances(draw):
    """Named flows over named links, for the mapping-level API."""
    num_links = draw(st.integers(min_value=0, max_value=8))
    link_ids = [f"l{i}" for i in range(num_links)]
    capacities = {link: draw(st.floats(min_value=0.1, max_value=1e10))
                  for link in link_ids}
    paths = {}
    demands = {}
    for flow in range(draw(st.integers(min_value=1, max_value=12))):
        length = draw(st.integers(min_value=0, max_value=min(4, num_links)))
        paths[flow] = list(draw(st.permutations(link_ids))[:length])
        demands[flow] = draw(st.floats(min_value=0.0, max_value=3e9))
    return paths, demands, capacities


@given(mapping_instances())
@example(({0: [], 1: [], 2: []},
          {0: 1073742901.0, 1: 1.8613001108169556, 2: 1073741826.8261569},
          {}))
@settings(max_examples=200, deadline=None)
def test_max_min_allocation_matches_exact_oracle(instance):
    """The mapping API on the oracle.  The pinned example is demand-
    limited only, at Gbps magnitudes: round-based filling with an
    absolute freeze epsilon left flow 0 ~1 kbps short of its demand."""
    paths, demands, capacities = instance
    rates = max_min_allocation(paths, demands, capacities)
    flows = list(paths)
    link_index = {}
    flow_links = []
    for flow in flows:
        links = []
        for link in paths[flow]:
            dense = link_index.setdefault(link, len(link_index))
            if dense not in links:
                links.append(dense)
        flow_links.append(links)
    dense_caps = [capacities[link] for link in link_index]
    assert_near_oracle([rates[f] for f in flows],
                       [demands[f] for f in flows], dense_caps, flow_links)
    assert validate_allocation(paths, demands, capacities, rates,
                               tolerance=1e-9) == []


# ---------------------------------------------------------------------------
# Engine level: the persisted mirror across churn
# ---------------------------------------------------------------------------


def build_leaf_spine():
    """2 spines, 3 edge routers, 2 hosts per edge, ECMP uplinks."""
    sim = Simulation(SimulationConfig())
    net = Network("oracle-churn")
    sim.attach_network(net)
    spines = [net.add_router(f"s{i}") for i in range(2)]
    edges = [net.add_router(f"e{i}") for i in range(3)]
    hosts = []
    links = []
    for e_idx, edge in enumerate(edges):
        for h_idx in range(2):
            host = net.add_host(f"h{e_idx}_{h_idx}",
                                f"10.0.{e_idx}.{h_idx + 1}",
                                gateway=f"10.0.{e_idx}.254")
            hosts.append(host)
            links.append(net.add_link(host, edge, capacity_bps=GBPS))
            edge.fib.install(f"10.0.{e_idx}.{h_idx + 1}/32",
                             [(h_idx + 1, None)])
    for edge in edges:
        for spine in spines:
            links.append(net.add_link(edge, spine,
                                      capacity_bps=GBPS // 2))
    for e_idx, edge in enumerate(edges):
        for other in range(3):
            if other != e_idx:
                edge.fib.install(f"10.0.{other}.0/24",
                                 [(3, None), (4, None)])
    for spine in spines:
        for e_idx in range(3):
            spine.fib.install(f"10.0.{e_idx}.0/24", [(e_idx + 1, None)])
    return sim, net, hosts, links


_churn_ops = st.one_of(
    st.tuples(st.just("start_flow"), st.integers(0, 5), st.integers(0, 5),
              st.sampled_from(CLEAN_DEMANDS + (1.7e8, 2e9))),
    st.tuples(st.just("stop_flow"), st.integers(0, 31)),
    st.tuples(st.just("fail_link"), st.integers(0, 11)),
    st.tuples(st.just("restore_link"), st.integers(0, 11)),
    st.tuples(st.just("degrade"), st.integers(0, 11),
              st.floats(0.1, 1.0)),
    st.tuples(st.just("advance"), st.floats(0.001, 0.05)),
)


class _Driver:
    """Applies an op stream to one leaf-spine network."""

    def __init__(self):
        self.sim, self.net, self.hosts, self.links = build_leaf_spine()
        self.flows = []
        self.t = 0.0

    def apply(self, op):
        kind = op[0]
        if kind == "start_flow":
            __, src, dst, demand = op
            if src != dst:
                flow = FluidFlow(self.hosts[src], self.hosts[dst],
                                 demand_bps=demand,
                                 src_port=41000 + len(self.flows),
                                 start_time=self.t)
                self.net.flows.append(flow)
                self.flows.append(flow)
                self.net.start_flow(flow)
        elif kind == "stop_flow":
            if self.flows:
                self.net.stop_flow(self.flows[op[1] % len(self.flows)])
        elif kind in ("fail_link", "restore_link"):
            self.links[op[1]].set_up(kind == "restore_link")
            self.net.invalidate_routing()
        elif kind == "degrade":
            link = self.links[op[1]]
            link.set_capacity(link.nominal_capacity_bps * op[2])
            self.net.invalidate_routing()
        self.t += op[1] if kind == "advance" else 1e-4
        self.sim.run(until=self.t)

    def sending(self):
        return [flow for flow in self.flows
                if flow.active and flow.path is not None
                and flow.path.delivered]


@given(st.lists(_churn_ops, min_size=1, max_size=30))
@settings(max_examples=40, deadline=None)
def test_engine_rates_match_oracle_under_churn(ops):
    """After every step of random churn, the incrementally maintained
    mirror's rates are the exact max-min point of the live instance;
    and a from-scratch full recompute (fresh interning, fresh
    components) lands on the very same floats."""
    drv = _Driver()
    for step, op in enumerate(ops):
        drv.apply(op)
        flows = drv.sending()
        index = {}
        flow_links = []
        for flow in flows:
            links = []
            for hop in flow.path.hops:
                dense = index.setdefault(id(hop), len(index))
                if dense not in links:
                    links.append(dense)
            flow_links.append(links)
        capacities = [0.0] * len(index)
        for flow in flows:
            for hop in flow.path.hops:
                capacities[index[id(hop)]] = hop.capacity_bps
        assert_near_oracle([flow.rate_bps for flow in flows],
                           [flow.demand_bps for flow in flows],
                           capacities, flow_links, f"step {step} {op}")

    persisted = [(flow, flow.rate_bps) for flow in drv.flows]
    drv.net.incremental_realloc = False
    drv.net.invalidate_routing()
    drv.t += 1e-4
    drv.sim.run(until=drv.t)
    for flow, rate in persisted:
        assert flow.rate_bps == rate, f"full recompute shifted {flow.name}"


# ---------------------------------------------------------------------------
# Scenario level: fingerprints across incremental on/off
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("injections", [
    pytest.param((), id="steady"),
    pytest.param((LinkFail(at=3.0, node_a="c0_0", node_b="a0_0"),),
                 id="linkfail"),
])
def test_scenario_fingerprint_equal_across_engine_modes(injections):
    base = dict(
        name="engine-modes", seed=7, duration=10.0,
        topology=TopologyRecipe("fattree", {"k": 4, "device": "router"}),
        protocol=ProtocolRecipe("static", {}),
        traffic=TrafficRecipe(pattern="stride", stride=4,
                              rate_bps=400_000_000.0,
                              start_time=1.0, duration=15.0),
        injections=list(injections),
    )
    prints = {}
    for incremental in (False, True):
        result = run_scenario(ScenarioSpec(
            **base, sim_params={"incremental_realloc": incremental}))
        assert result.delivered_bytes > 0
        prints[incremental] = result.fingerprint()
    assert len(set(prints.values())) == 1, prints
