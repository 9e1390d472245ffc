"""The dynamic-programming insertion operator (Xu et al., ICDE'19).

pGreedyDP's name comes from computing each candidate taxi's optimal
insertion with dynamic programming instead of enumerating all
``(m+1)(m+2)/2`` schedule instances.  The key observation: with the
existing stop order fixed, the best drop-off position for a given
pick-up position ``i`` can be found in one backward sweep, because the
only coupling between positions is the accumulated delay each insertion
pushes onto later stops.

This module implements that operator in ``O(m^2)`` worst case with the
same pruning the original uses (abort a pick-up position as soon as its
delay already violates a later stop), against the enumeration's
``O(m^3)``.  Results are bit-identical to
:func:`repro.fleet.schedule.enumerate_insertions` + feasibility
filtering — the property-based tests assert exactly that — so either
implementation can back any scheme.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..demand.request import RideRequest
from .schedule import CostFn, Stop, dropoff, pickup


def _prefix_state(
    start_node: int,
    start_time: float,
    stops: Sequence[Stop],
    cost_fn: CostFn,
    capacity: int,
    initial_onboard: int,
) -> tuple[list[float], list[int]]:
    """Arrival time and occupancy *before* each position of the base
    schedule, plus validity of the base prefix."""
    m = len(stops)
    arrive = [0.0] * (m + 1)  # arrive[k]: time when leaving stop k-1
    onboard = [0] * (m + 1)
    arrive[0] = start_time
    onboard[0] = initial_onboard
    node = start_node
    t = start_time
    load = initial_onboard
    for k, stop in enumerate(stops):
        t = t + cost_fn(node, stop.node)
        node = stop.node
        load += stop.passenger_delta
        arrive[k + 1] = t
        onboard[k + 1] = load
    return arrive, onboard


def _slack_after(stops: Sequence[Stop], arrive: Sequence[float]) -> list[float]:
    """``slack[k]``: max delay insertable before stop ``k`` that keeps
    every stop ``>= k`` on deadline (assuming the base schedule)."""
    m = len(stops)
    slack = [float("inf")] * (m + 1)
    running = float("inf")
    for k in range(m - 1, -1, -1):
        running = min(running, stops[k].deadline - arrive[k + 1])
        slack[k] = running
    return slack


def best_insertion_dp(
    start_node: int,
    start_time: float,
    stops: Sequence[Stop],
    request: RideRequest,
    cost_fn: CostFn,
    capacity: int,
    initial_onboard: int = 0,
) -> tuple[float, list[Stop]] | None:
    """Optimal feasible insertion of ``request`` into ``stops``.

    Returns ``(detour_cost, new_stops)`` minimising the added travel
    time, or ``None`` when no feasible insertion exists.  Semantics
    match the exhaustive enumeration exactly: existing stop order is
    preserved, the pick-up precedes the drop-off, deadlines and
    capacity hold throughout.
    """
    m = len(stops)
    pax = request.num_passengers
    pu_node = request.origin
    do_node = request.destination
    nodes = [start_node] + [s.node for s in stops]

    arrive, onboard = _prefix_state(
        start_node, start_time, stops, cost_fn, capacity, initial_onboard
    )
    slack = _slack_after(stops, arrive)
    if slack[0] < -1e-9:
        # The base schedule already misses a deadline (a traffic shock
        # delayed it).  Every instance keeps those stops at least as
        # late, so the enumeration rejects them all; the DP only
        # re-checks stops from the pick-up position on, so it must
        # refuse here instead.
        return None

    best_cost = float("inf")
    best_pair: tuple[int, int] | None = None

    for i in range(m + 1):
        # Capacity on boarding at position i.
        if onboard[i] + pax > capacity:
            continue
        prev = nodes[i]
        t_pick = arrive[i] + cost_fn(prev, pu_node)
        if t_pick > request.pickup_deadline + 1e-9:
            continue

        # Case j == i: drop off immediately after picking up.
        t_drop = t_pick + cost_fn(pu_node, do_node)
        if t_drop <= request.deadline + 1e-9:
            if i == m:
                detour = t_drop - arrive[m]
                if detour < best_cost - 1e-12:
                    best_cost = detour
                    best_pair = (i, i)
            else:
                nxt = nodes[i + 1]
                delay = (
                    t_drop + cost_fn(do_node, nxt) - arrive[i + 1]
                )
                if delay <= slack[i] + 1e-9 and delay < best_cost - 1e-12:
                    best_cost = delay
                    best_pair = (i, i)

        # Case j > i: the passenger rides along through stops i..j-1.
        # Track the delay injected by the pick-up alone and the time at
        # which the taxi reaches each subsequent stop with the rider.
        if i < m:
            nxt = nodes[i + 1]
            pick_delay = t_pick + cost_fn(pu_node, nxt) - arrive[i + 1]
            if pick_delay > slack[i] + 1e-9:
                continue  # later positions only get worse for this i
        else:
            continue  # i == m handled by the j == i case above

        t = t_pick
        node = pu_node
        for j in range(i, m):
            # Arrive at stop j with the rider aboard.
            t = t + cost_fn(node, stops[j].node)
            node = stops[j].node
            if t > stops[j].deadline + 1e-9:
                break
            if onboard[j + 1] + pax > capacity:
                break  # the rider cannot stay aboard past stop j
            # Try dropping off right after stop j (position j+1 in the
            # original indexing).
            t_drop = t + cost_fn(node, do_node)
            if t_drop <= request.deadline + 1e-9:
                if j + 1 == m:
                    detour = t_drop - arrive[m]
                    if detour < best_cost - 1e-12:
                        best_cost = detour
                        best_pair = (i, j + 1)
                else:
                    nxt = nodes[j + 2]
                    delay = t_drop + cost_fn(do_node, nxt) - arrive[j + 2]
                    if delay <= slack[j + 1] + 1e-9 and delay < best_cost - 1e-12:
                        best_cost = delay
                        best_pair = (i, j + 1)

    if best_pair is None:
        return None
    i, j = best_pair
    new_stops = list(stops[:i])
    new_stops.append(pickup(request))
    new_stops.extend(stops[i:j])
    new_stops.append(dropoff(request))
    new_stops.extend(stops[j:])
    # Recompute the exact detour for the returned schedule (the DP's
    # delta already equals it; this keeps the contract obvious).
    return best_cost, new_stops
