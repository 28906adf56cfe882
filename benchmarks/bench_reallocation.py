"""Reallocation hot path — incremental engine vs full recompute.

The PR-2 microbenchmark: a leaf-spine fabric carries N active fluid
flows; the workload then churns flows (stop one, start one, each at
its own instant, each triggering a reallocation).  The baseline is the
same engine with ``incremental_realloc=False``: every such event
re-walks all N paths and re-solves the whole allocation.  The
incremental engine re-walks only the dirty flow and re-solves the
affected component.

Both modes are driven through identical churn sequences and must
produce the same aggregate rate at the end — the speedup may not come
from computing something different.

Knobs:

* ``REPRO_BENCH_REALLOC_FLOWS`` — comma-separated flow counts
  (default ``1000,10000``)
* ``REPRO_BENCH_REALLOC_EVENTS`` — churn events per measurement
  (default ``30``)

Run:  pytest benchmarks/bench_reallocation.py --benchmark-only
"""

import os
import random

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.dataplane.flow import FluidFlow
from repro.dataplane.network import Network, reset_process_counters

from conftest import record_json, record_rows

GBPS = 1_000_000_000
NUM_EDGES = 8
HOSTS_PER_EDGE = 8
NUM_SPINES = 4

_results = {}


def flow_counts():
    raw = os.environ.get("REPRO_BENCH_REALLOC_FLOWS", "1000,10000")
    return [int(part) for part in raw.split(",") if part.strip()]


def churn_events() -> int:
    return int(os.environ.get("REPRO_BENCH_REALLOC_EVENTS", "30"))


def build_fabric(num_flows: int, incremental: bool):
    """A routed leaf-spine with static ECMP FIBs and N active flows."""
    # Identical process-global counters for both engines, so the two
    # fabrics (and their flows' five-tuples) are exact clones.
    reset_process_counters()

    sim = Simulation(SimulationConfig(incremental_realloc=incremental))
    net = Network("bench-leaf-spine")
    sim.attach_network(net)

    spines = [net.add_router(f"s{i}") for i in range(NUM_SPINES)]
    hosts = []
    for e_idx in range(NUM_EDGES):
        edge = net.add_router(f"e{e_idx}")
        for h_idx in range(HOSTS_PER_EDGE):
            host = net.add_host(f"h{e_idx}_{h_idx}",
                                f"10.0.{e_idx}.{h_idx + 1}")
            hosts.append(host)
            net.add_link(host, edge, capacity_bps=GBPS)
            edge.fib.install(f"10.0.{e_idx}.{h_idx + 1}/32",
                             [(h_idx + 1, None)])
        uplinks = []
        for spine in spines:
            net.add_link(edge, spine, capacity_bps=4 * GBPS)
            uplinks.append((HOSTS_PER_EDGE + 1 + len(uplinks), None))
        for other in range(NUM_EDGES):
            if other != e_idx:
                edge.fib.install(f"10.0.{other}.0/24", uplinks)
    for spine in spines:
        for e_idx in range(NUM_EDGES):
            spine.fib.install(f"10.0.{e_idx}.0/24", [(e_idx + 1, None)])

    rng = random.Random(1234)
    flows = []
    for __ in range(num_flows):
        src, dst = rng.sample(hosts, 2)
        flow = FluidFlow(src, dst, demand_bps=rng.uniform(1e6, 40e6),
                         start_time=0.0)
        net.add_flow(flow)
        flows.append(flow)
    sim.run(until=0.001)  # initial (full) reallocation, not measured
    return sim, net, hosts, flows, rng


def churn(sim, net, hosts, flows, rng, events: int):
    """Stop/start flows at distinct instants; each fires a realloc."""
    t = sim.now
    for i in range(events):
        t += 0.001
        net.stop_flow(flows[i])
        sim.run(until=t)
        t += 0.001
        src, dst = rng.sample(hosts, 2)
        flow = FluidFlow(src, dst, demand_bps=rng.uniform(1e6, 40e6),
                         start_time=t)
        net.add_flow(flow)
        flows.append(flow)
        sim.run(until=t)
    return net


@pytest.mark.parametrize("mode", ["full", "incremental"])
@pytest.mark.parametrize("num_flows", flow_counts())
def test_reallocation_churn(benchmark, num_flows, mode):
    sim, net, hosts, flows, rng = build_fabric(
        num_flows, incremental=(mode == "incremental"))
    events = churn_events()
    benchmark.pedantic(churn, args=(sim, net, hosts, flows, rng, events),
                       rounds=1, iterations=1)
    aggregate = net.aggregate_rx_rate()
    assert aggregate > 0
    assert net.recomputations >= 2 * events
    if mode == "incremental":
        assert net.realloc.full_recomputes <= 1
    _results[(num_flows, mode)] = {
        "wall_s": benchmark.stats.stats.mean,
        "events": 2 * events,
        "aggregate_bps": aggregate,
        "recomputations": net.recomputations,
    }


def test_reallocation_report(benchmark):
    benchmark(lambda: None)  # report-only test; table assembly below
    sizes = sorted({size for size, __ in _results})
    if not sizes:
        pytest.skip("no measurements collected")
    rows = []
    payload = {"flow_counts": sizes, "cases": {}}
    for size in sizes:
        full = _results.get((size, "full"))
        inc = _results.get((size, "incremental"))
        if full is None or inc is None:
            continue
        # Equivalence: both engines end in the same allocation state.
        assert inc["aggregate_bps"] == pytest.approx(
            full["aggregate_bps"], rel=1e-9)
        speedup = full["wall_s"] / inc["wall_s"]
        payload["cases"][str(size)] = {
            "events": full["events"],
            "full_wall_s": full["wall_s"],
            "incremental_wall_s": inc["wall_s"],
            "events_per_s_incremental": inc["events"] / inc["wall_s"],
            "speedup": speedup,
        }
        rows.append(
            f"{size:>7} {full['events']:>7} "
            f"{full['wall_s'] * 1e3:>10.1f} {inc['wall_s'] * 1e3:>12.1f} "
            f"{full['wall_s'] * 1e3 / full['events']:>10.2f} "
            f"{inc['wall_s'] * 1e3 / inc['events']:>9.2f} "
            f"{speedup:>8.2f}x"
        )
        if size >= 10_000:
            # The PR-2 acceptance floor (with slack for noisy CI boxes;
            # the recorded table carries the real measurement).
            assert speedup >= 5.0, f"{size}-flow churn speedup {speedup:.2f}x < 5x"
    record_rows(
        "reallocation",
        f"{'flows':>7} {'events':>7} {'full_ms':>10} {'incr_ms':>12} "
        f"{'full_ms/ev':>10} {'inc_ms/ev':>9} {'speedup':>8}",
        rows,
    )
    record_json("reallocation", payload)

