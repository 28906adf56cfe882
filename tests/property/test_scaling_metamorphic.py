"""Metamorphic property: a scenario is invariant under power-of-two
scaling of every bandwidth.

Multiplying each link capacity and each offered rate by ``2**k`` moves
every float in the max-min solve and in byte accrual by an exact power
of two — sums, differences, divisions by flow counts and ``rate · dt /
8`` all round identically at every scale.  So every flow's final rate
and delivered bytes must scale by exactly ``2**k``, compared with
``==``.  A threshold in absolute bps that the scaled values straddle
(an epsilon that means "almost zero" at one scale and "a real rate"
at another) breaks the equality.  The scales stay well inside the
range where :data:`repro.dataplane.arrays.EPSILON` (1e-9 bps) is
negligible.
"""

import pytest

from repro.scenarios import (
    LinkFail,
    ProtocolRecipe,
    ScenarioRunner,
    ScenarioSpec,
    TopologyRecipe,
    TrafficRecipe,
)

GBPS = 1_000_000_000.0
DURATION = 10.0


def run_flows(scale: float, stagger: float):
    """``(name, rate_bps, delivered_bytes)`` of every flow after a k=4
    router fat-tree run with all bandwidths multiplied by ``scale``."""
    spec = ScenarioSpec(
        name="scaling", seed=11, duration=DURATION,
        topology=TopologyRecipe("fattree", {
            "k": 4, "device": "router", "capacity_bps": GBPS * scale}),
        protocol=ProtocolRecipe("static", {}),
        traffic=TrafficRecipe(pattern="random", rate_bps=7e8 * scale,
                              start_time=1.0, duration=2 * DURATION,
                              stagger=stagger),
        injections=[LinkFail(at=3.0, node_a="c0_0", node_b="a0_0")],
    )
    exp, __ = ScenarioRunner().materialize(spec)
    exp.run(until=spec.duration)
    exp.network.finalize_accounting()
    return [(flow.name, flow.rate_bps, flow.delivered_bytes)
            for flow in exp.network.flows]


@pytest.mark.parametrize("stagger", [0.0, 0.37])
@pytest.mark.parametrize("k", [1, 3, 10, -4])
def test_power_of_two_scaling_is_exact(k, stagger):
    base = run_flows(1.0, stagger)
    assert len(base) == 16
    assert any(rate > 0 for __, rate, __ in base)
    factor = 2.0 ** k
    scaled = run_flows(factor, stagger)
    assert [name for name, __, __ in scaled] == [n for n, __, __ in base]
    mismatched = [
        (name, rate, got_rate, sent, got_sent)
        for (name, rate, sent), (__, got_rate, got_sent) in zip(base, scaled)
        if got_rate != rate * factor or got_sent != sent * factor
    ]
    assert mismatched == []  # exact — no tolerance
