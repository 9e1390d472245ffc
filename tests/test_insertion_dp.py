"""Equivalence tests: DP insertion operator vs exhaustive enumeration."""

import numpy as np
import pytest

from repro.fleet.insertion_dp import best_insertion_dp
from repro.fleet.schedule import (
    arrival_times,
    capacity_ok,
    deadlines_met,
    enumerate_insertions,
)
from tests.conftest import make_request


def grid_cost(u, v):
    """Manhattan travel cost on an abstract 10x10 grid of nodes 0..99."""
    ux, uy = u % 10, u // 10
    vx, vy = v % 10, v // 10
    return 10.0 * (abs(ux - vx) + abs(uy - vy))


def reference_best(start_node, start_time, stops, request, cost_fn, capacity, onboard):
    """Ground truth: full enumeration + feasibility filtering."""
    best = None
    for _i, _j, new_stops in enumerate_insertions(stops, request):
        if not capacity_ok(new_stops, onboard, capacity):
            continue
        times = arrival_times(start_node, start_time, new_stops, cost_fn)
        if not deadlines_met(times and new_stops, times):
            continue
        base = arrival_times(start_node, start_time, list(stops), cost_fn)
        base_total = (base[-1] - start_time) if base else 0.0
        detour = (times[-1] - start_time) - base_total
        if best is None or detour < best[0] - 1e-12:
            best = (detour, new_stops)
    return best


def random_case(seed):
    rng = np.random.default_rng(seed)
    m_pairs = int(rng.integers(0, 4))
    start_node = int(rng.integers(100))
    start_time = float(rng.uniform(0, 100))
    capacity = int(rng.integers(1, 5))
    onboard = 0

    from repro.demand.request import RideRequest
    from repro.fleet.schedule import dropoff, pickup

    # Draw OD pairs, lay out a provisional schedule, then derive each
    # existing passenger's deadline from their *actual* arrival times so
    # the base schedule is always feasible but still binding.
    pairs = []
    provisional = []
    for k in range(m_pairs):
        o = int(rng.integers(100))
        d = int(rng.integers(100))
        if o == d:
            d = (d + 1) % 100
        r = make_request(request_id=100 + k, release_time=start_time,
                         origin=o, destination=d,
                         direct_cost=grid_cost(o, d), rho=5.0)
        pairs.append(r)
        provisional.append(pickup(r))
        provisional.append(dropoff(r))
    if len(provisional) >= 4 and rng.random() < 0.5:
        provisional[1], provisional[2] = provisional[2], provisional[1]

    times = arrival_times(start_node, start_time, provisional, grid_cost)
    arrival_of = {}
    for stop, t in zip(provisional, times):
        arrival_of[(stop.request.request_id, stop.kind.value)] = t

    rebuilt = {}
    for r in pairs:
        direct = r.direct_cost
        need = max(
            start_time + direct,
            arrival_of[(r.request_id, "pickup")] + direct,
            arrival_of[(r.request_id, "dropoff")],
        )
        margin = float(rng.uniform(0.0, 60.0))
        rebuilt[r.request_id] = RideRequest(
            request_id=r.request_id,
            release_time=start_time,
            origin=r.origin,
            destination=r.destination,
            deadline=need + margin,
            direct_cost=direct,
        )
    stops = []
    for stop in provisional:
        r2 = rebuilt[stop.request.request_id]
        stops.append(pickup(r2) if stop.kind.value == "pickup" else dropoff(r2))

    times = arrival_times(start_node, start_time, stops, grid_cost)
    assert deadlines_met(stops, times)
    if not capacity_ok(stops, onboard, capacity):
        return None

    o = int(rng.integers(100))
    d = int(rng.integers(100))
    if o == d:
        d = (d + 1) % 100
    request = make_request(
        request_id=1,
        release_time=start_time,
        origin=o,
        destination=d,
        direct_cost=grid_cost(o, d),
        rho=float(rng.uniform(1.1, 3.0)),
    )
    return start_node, start_time, stops, request, capacity, onboard


@pytest.mark.parametrize("seed", range(150))
def test_dp_matches_enumeration(seed):
    case = random_case(seed)
    if case is None:
        pytest.skip("infeasible base draw")
    start_node, start_time, stops, request, capacity, onboard = case
    expected = reference_best(start_node, start_time, stops, request,
                              grid_cost, capacity, onboard)
    got = best_insertion_dp(start_node, start_time, stops, request,
                            grid_cost, capacity, onboard)
    if expected is None:
        assert got is None
        return
    assert got is not None
    assert got[0] == pytest.approx(expected[0], abs=1e-6)
    # The returned schedule must itself be feasible with the same detour.
    times = arrival_times(start_node, start_time, got[1], grid_cost)
    assert deadlines_met(got[1], times)
    assert capacity_ok(got[1], onboard, capacity)


def test_empty_schedule_insertion():
    r = make_request(request_id=1, origin=3, destination=47,
                     direct_cost=grid_cost(3, 47), rho=2.0)
    got = best_insertion_dp(0, 0.0, [], r, grid_cost, capacity=3)
    assert got is not None
    detour, stops = got
    assert detour == pytest.approx(grid_cost(0, 3) + grid_cost(3, 47))
    assert [s.kind.value for s in stops] == ["pickup", "dropoff"]


def test_full_taxi_returns_none():
    r = make_request(request_id=1, origin=3, destination=47,
                     direct_cost=grid_cost(3, 47), rho=2.0)
    assert best_insertion_dp(0, 0.0, [], r, grid_cost, capacity=1,
                             initial_onboard=1) is None


def test_late_base_stop_matches_enumeration():
    # A traffic shock has already made the onboard rider late: the
    # enumeration rejects every instance, because none makes that
    # drop-off earlier.  The DP only re-checks stops from the pick-up
    # position on, so an append after the late stop must not slip by.
    from repro.demand.request import RideRequest
    from repro.fleet.schedule import dropoff

    late = RideRequest(request_id=50, release_time=0.0, origin=5, destination=9,
                       deadline=40.0, direct_cost=grid_cost(5, 9))
    stops = [dropoff(late)]
    request = make_request(request_id=1, origin=9, destination=19,
                           direct_cost=grid_cost(9, 19), rho=50.0)
    expected = reference_best(0, 0.0, stops, request, grid_cost, 4, 1)
    assert expected is None
    assert best_insertion_dp(0, 0.0, stops, request, grid_cost, 4, 1) is None
