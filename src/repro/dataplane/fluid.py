"""Max-min fair rate allocation — the fluid traffic model.

This is Horse's speed trick: instead of simulating packets, the data
plane assigns each flow a rate.  We use the classic *progressive
filling* (water-filling) algorithm:

1. all active flows start at rate 0 and grow together;
2. a flow freezes when it reaches its demand, or when some link on its
   path saturates;
3. repeat until every flow is frozen.

The result is the unique max-min fair allocation subject to demands
and directional link capacities.  ``validate_allocation`` checks the
defining properties and is used heavily by the property-based tests:

* feasibility — no link carries more than its capacity;
* demand-boundedness — no flow exceeds its demand;
* bottleneck justification — every flow not meeting its demand crosses
  at least one saturated link where it receives a maximal share.

The solve itself is :func:`repro.dataplane.arrays.bottleneck_filling_arrays`,
the same vectorized kernel the reallocation engine runs; this module
keeps the mapping-level API (:func:`max_min_allocation`,
:func:`validate_allocation`) over it.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Sequence

from repro.dataplane.arrays import EPSILON, bottleneck_filling_arrays

__all__ = ["EPSILON", "max_min_allocation", "validate_allocation"]


def max_min_allocation(
    flow_paths: Mapping[Hashable, Sequence[Hashable]],
    flow_demands: Mapping[Hashable, float],
    link_capacities: Mapping[Hashable, float],
) -> Dict[Hashable, float]:
    """Compute the max-min fair allocation.

    Parameters
    ----------
    flow_paths:
        flow id -> sequence of link ids the flow crosses.  A flow with
        an empty path is only demand-limited.
    flow_demands:
        flow id -> desired rate (bps).  Must cover every flow.
    link_capacities:
        link id -> capacity (bps).  Must cover every link referenced.

    Returns
    -------
    dict
        flow id -> allocated rate.
    """
    # Intern flows (mapping order) and links (first-reference order)
    # to dense indices, then run the array kernel.
    flow_ids = list(flow_paths)
    demands: List[float] = []
    for flow_id in flow_ids:
        demand = flow_demands[flow_id]
        if demand < 0:
            raise ValueError(f"negative demand for flow {flow_id!r}")
        demands.append(demand)

    link_index: Dict[Hashable, int] = {}
    capacities: List[float] = []
    flow_links: List[List[int]] = []
    for flow_id in flow_ids:
        links_here: List[int] = []
        for link_id in flow_paths[flow_id]:
            pos = link_index.get(link_id)
            if pos is None:
                capacity = link_capacities[link_id]
                if capacity < 0:
                    raise ValueError(f"negative capacity for link {link_id!r}")
                pos = len(capacities)
                link_index[link_id] = pos
                capacities.append(capacity)
            if pos not in links_here:  # a path crossing a link twice
                links_here.append(pos)  # counts once
        flow_links.append(links_here)

    rates = bottleneck_filling_arrays(demands, capacities, flow_links)
    return {flow_id: rates[pos] for pos, flow_id in enumerate(flow_ids)}


def validate_allocation(
    flow_paths: Mapping[Hashable, Sequence[Hashable]],
    flow_demands: Mapping[Hashable, float],
    link_capacities: Mapping[Hashable, float],
    rates: Mapping[Hashable, float],
    tolerance: float = 1e-6,
) -> List[str]:
    """Check the max-min fairness properties; returns violation strings.

    An empty list means the allocation is a valid max-min fair
    assignment.  Tolerance is relative to each constraint's scale.
    """
    problems: List[str] = []

    loads: Dict[Hashable, float] = {}
    for flow_id, path in flow_paths.items():
        rate = rates[flow_id]
        if rate < -tolerance:
            problems.append(f"flow {flow_id!r} has negative rate {rate}")
        if rate > flow_demands[flow_id] * (1 + tolerance) + tolerance:
            problems.append(
                f"flow {flow_id!r} exceeds demand: {rate} > {flow_demands[flow_id]}"
            )
        for link_id in path:
            loads[link_id] = loads.get(link_id, 0.0) + rate

    for link_id, load in loads.items():
        capacity = link_capacities[link_id]
        if load > capacity * (1 + tolerance) + tolerance:
            problems.append(
                f"link {link_id!r} over capacity: load {load} > {capacity}"
            )

    # Bottleneck justification: a flow below its demand must cross a
    # saturated link on which no co-flow gets a strictly larger rate.
    for flow_id, path in flow_paths.items():
        rate = rates[flow_id]
        if rate >= flow_demands[flow_id] * (1 - tolerance) - tolerance:
            continue  # demand met
        justified = False
        for link_id in path:
            capacity = link_capacities[link_id]
            saturated = loads.get(link_id, 0.0) >= capacity * (1 - tolerance) - tolerance
            if not saturated:
                continue
            max_share = max(
                (
                    rates[other]
                    for other, other_path in flow_paths.items()
                    if link_id in set(other_path)
                ),
                default=0.0,
            )
            if rate >= max_share * (1 - tolerance) - tolerance:
                justified = True
                break
        if not justified:
            problems.append(
                f"flow {flow_id!r} below demand ({rate} < {flow_demands[flow_id]}) "
                "with no justifying bottleneck"
            )

    return problems
