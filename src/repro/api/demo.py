"""The paper's demonstration, scripted end-to-end.

Three traffic-engineering experiments on a k-ary fat-tree with the
demo workload (every server sends one CBR UDP flow to another server):

1. ``run_bgp_ecmp``   — BGP routers + ECMP by hash of (IP src, dst);
2. ``run_hedera``     — Hedera polling statistics every 5 s;
3. ``run_sdn_ecmp``   — OpenFlow controller, 5-tuple ECMP.

``run_full_demonstration`` executes all three for one k, measuring the
wall-clock execution time the way Figure 3 does (topology creation +
experiment execution).  ``realtime_factor`` paces FTI mode against the
wall clock, which is how real Horse behaves (the emulated control
plane runs in real time); benches pass the same scale factor to the
Mininet-style baseline so the comparison is like-for-like.  A
demonstration first resets the process-global id counters (flows,
links, MACs, dpids) that ECMP and Hedera see, so the n-th
demonstration in a process equals the first; its three schemes then
share one counter sequence, in the order above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.api.control_setup import setup_bgp_for_routers
from repro.api.experiment import Experiment, ExperimentResult
from repro.controllers.ecmp import FiveTupleEcmpApp
from repro.controllers.hedera import HederaApp
from repro.core.clock import ClockPolicy
from repro.core.config import SimulationConfig
from repro.dataplane.network import reset_process_counters
from repro.topology.fattree import FatTreeTopo

GBPS = 1_000_000_000.0


@dataclass
class DemoSettings:
    """Knobs shared by the demo experiments."""

    k: int = 4
    rate_bps: float = GBPS
    duration: float = 20.0
    margin: float = 2.0            # extra simulated time after flows end
    settle: float = 5.0            # samples before this are transient
    stats_interval: float = 0.5
    hedera_poll_interval: float = 5.0
    realtime_factor: float = 0.0   # FTI wall pacing (0 = free-running)
    fti_increment: float = 0.001
    des_fallback_timeout: float = 0.1
    clock_policy: ClockPolicy = ClockPolicy.HYBRID
    # Models FIB/TCAM programming latency; coalesces reallocation
    # bursts during convergence (see Network.recompute_min_interval).
    fib_latency: float = 0.005
    seed: int = 42

    def sim_config(self) -> SimulationConfig:
        """The SimulationConfig these settings describe."""
        return SimulationConfig(
            fti_increment=self.fti_increment,
            des_fallback_timeout=self.des_fallback_timeout,
            clock_policy=self.clock_policy,
            realtime_factor=self.realtime_factor,
            stats_interval=self.stats_interval,
            seed=self.seed,
        )

    @property
    def horizon(self) -> float:
        """Total simulated time per experiment."""
        return self.duration + self.margin


def run_sdn_ecmp(settings: DemoSettings) -> ExperimentResult:
    """TE scheme (iii): SDN 5-tuple ECMP on an OpenFlow fat-tree."""
    exp = Experiment(f"sdn-ecmp-k{settings.k}", config=settings.sim_config())
    exp.load_topo(FatTreeTopo(k=settings.k))
    exp.network.recompute_min_interval = settings.fib_latency
    app = FiveTupleEcmpApp(exp.topology_view(), hash_seed=settings.seed)
    exp.use_controller(apps=[app])
    exp.add_demo_traffic(rate_bps=settings.rate_bps, duration=settings.duration)
    exp.add_stats(interval=settings.stats_interval)
    return exp.run(until=settings.horizon, settle=settings.settle,
                   measure_until=settings.duration)


def run_hedera(settings: DemoSettings) -> ExperimentResult:
    """TE scheme (ii): Hedera with 5 s statistics polling."""
    exp = Experiment(f"hedera-k{settings.k}", config=settings.sim_config())
    exp.load_topo(FatTreeTopo(k=settings.k))
    exp.network.recompute_min_interval = settings.fib_latency
    app = HederaApp(
        exp.topology_view(),
        poll_interval=settings.hedera_poll_interval,
        nic_bps=settings.rate_bps,
        hash_seed=settings.seed,
    )
    exp.use_controller(apps=[app])
    exp.add_demo_traffic(rate_bps=settings.rate_bps, duration=settings.duration)
    exp.add_stats(interval=settings.stats_interval)
    return exp.run(until=settings.horizon, settle=settings.settle,
                   measure_until=settings.duration)


def run_bgp_ecmp(settings: DemoSettings) -> ExperimentResult:
    """TE scheme (i): BGP fat-tree, ECMP by hash of (IP src, IP dst)."""
    exp = Experiment(f"bgp-ecmp-k{settings.k}", config=settings.sim_config())
    topo = FatTreeTopo(k=settings.k, device="router")
    exp.load_topo(topo)
    exp.network.recompute_min_interval = settings.fib_latency
    setup_bgp_for_routers(
        exp, asn_map=topo.asn, max_paths=max(2, settings.k // 2),
        seed=settings.seed,
    )
    exp.add_demo_traffic(rate_bps=settings.rate_bps, duration=settings.duration)
    exp.add_stats(interval=settings.stats_interval)
    return exp.run(until=settings.horizon, settle=settings.settle,
                   measure_until=settings.duration)


@dataclass
class DemonstrationReport:
    """Figure 3 measurement for one fat-tree size."""

    k: int
    results: Dict[str, ExperimentResult] = field(default_factory=dict)

    @property
    def total_wall_seconds(self) -> float:
        """Topology creation + consolidated execution of the three TE
        experiments (what Figure 3 plots)."""
        return sum(result.total_wall_seconds for result in self.results.values())

    @property
    def setup_wall_seconds(self) -> float:
        """Topology-creation share of the total."""
        return sum(result.setup_wall_seconds for result in self.results.values())

    def aggregate_gbps(self) -> Dict[str, float]:
        """Steady-state aggregate host receive rate per TE scheme —
        the demo's closing graph."""
        return {
            name: result.mean_aggregate_rx_bps / 1e9
            for name, result in self.results.items()
        }


def run_full_demonstration(settings: DemoSettings) -> DemonstrationReport:
    """All three TE experiments for one fat-tree size."""
    reset_process_counters()
    report = DemonstrationReport(k=settings.k)
    report.results["bgp_ecmp"] = run_bgp_ecmp(settings)
    report.results["hedera"] = run_hedera(settings)
    report.results["sdn_ecmp"] = run_sdn_ecmp(settings)
    return report
