"""Tests for basic and probabilistic routing (Algorithms 3 and 4)."""

import math

import numpy as np
import pytest

from repro.core.mobility_cluster import MobilityVector
from repro.core.partition_filter import PartitionFilter
from repro.core.routing import (
    BasicRouter,
    ProbabilisticRouter,
    RouteInfeasible,
    compose_route,
)
from repro.fleet.schedule import dropoff, pickup
from repro.network.landmarks import LandmarkGraph
from repro.network.shortest_path import ShortestPathEngine
from repro.partitioning.transition import TransitionModel
from tests.conftest import make_request


@pytest.fixture(scope="module")
def row_lg(tiny_net, tiny_engine):
    return LandmarkGraph(tiny_net, [[0, 1, 2], [3, 4, 5], [6, 7, 8]], tiny_engine)


@pytest.fixture(scope="module")
def tiny_model(row_lg):
    """Transition model over the tiny grid's 3 row-partitions.

    Vertex 7 (top middle) is the pick-up hotspot; trips from everywhere
    head to row 2.
    """
    labels = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
    trips = np.array([[7, 8]] * 10 + [[1, 6]] * 3 + [[4, 2]] * 2)
    return TransitionModel.fit(trips, labels, 3)


def trip_request(engine, origin, destination, rho=1.5, release=0.0, rid=0):
    return make_request(
        request_id=rid,
        release_time=release,
        origin=origin,
        destination=destination,
        direct_cost=engine.cost(origin, destination),
        rho=rho,
    )


class TestComposeRoute:
    def test_single_leg(self, tiny_net):
        route = compose_route(tiny_net, 0, 10.0, [[0, 1, 2]])
        assert route.nodes == [0, 1, 2]
        assert route.stop_positions == [2]
        assert route.times[0] == 10.0

    def test_legs_must_chain(self, tiny_net):
        with pytest.raises(ValueError):
            compose_route(tiny_net, 0, 0.0, [[0, 1], [2, 5]])

    def test_stationary_leg(self, tiny_net):
        route = compose_route(tiny_net, 4, 0.0, [[4], [4, 5]])
        assert route.stop_positions == [0, 1]


class TestBasicRouter:
    def test_route_is_shortest(self, tiny_net, tiny_engine, row_lg):
        router = BasicRouter(tiny_net, tiny_engine, PartitionFilter(row_lg))
        r = trip_request(tiny_engine, 1, 7)
        route = router.route_for_schedule(1, 0.0, [pickup(r), dropoff(r)])
        assert route.total_cost() == pytest.approx(tiny_engine.cost(1, 7))
        assert tiny_net.is_path(route.nodes)

    def test_no_filter_works(self, tiny_net, tiny_engine):
        router = BasicRouter(tiny_net, tiny_engine, None)
        r = trip_request(tiny_engine, 0, 8)
        route = router.route_for_schedule(0, 0.0, [pickup(r), dropoff(r)])
        assert route.nodes[-1] == 8

    def test_deadline_violation_raises(self, tiny_net, tiny_engine):
        router = BasicRouter(tiny_net, tiny_engine, None)
        r = trip_request(tiny_engine, 1, 7, rho=1.01)
        # Start far away: even the shortest route misses the pick-up window.
        with pytest.raises(RouteInfeasible):
            router.route_for_schedule(2, 1e6, [pickup(r), dropoff(r)])

    def test_cost_matches_engine(self, tiny_net, tiny_engine, row_lg):
        router = BasicRouter(tiny_net, tiny_engine, PartitionFilter(row_lg))
        assert router.cost(0, 8) == tiny_engine.cost(0, 8)

    def test_lazy_engine_uses_filtered_dijkstra(self, tiny_net, row_lg):
        lazy = ShortestPathEngine(tiny_net, mode="lazy")
        router = BasicRouter(tiny_net, lazy, PartitionFilter(row_lg))
        path = router.leg_path(0, 8)
        assert tiny_net.is_path(path)
        assert path[0] == 0 and path[-1] == 8

    def test_multi_stop_schedule(self, tiny_net, tiny_engine):
        router = BasicRouter(tiny_net, tiny_engine, None)
        r1 = trip_request(tiny_engine, 1, 7, rho=2.0, rid=1)
        r2 = trip_request(tiny_engine, 4, 8, rho=2.0, rid=2)
        stops = [pickup(r1), pickup(r2), dropoff(r1), dropoff(r2)]
        route = router.route_for_schedule(0, 0.0, stops)
        assert len(route.stop_positions) == 4
        # stop nodes line up
        for stop, pos in zip(stops, route.stop_positions):
            assert route.nodes[pos] == stop.node


class TestProbabilisticRouter:
    @pytest.fixture()
    def router(self, tiny_net, tiny_engine, row_lg, tiny_model):
        return ProbabilisticRouter(
            tiny_net, tiny_engine, PartitionFilter(row_lg), tiny_model, lam=0.0
        )

    def test_requires_filter(self, tiny_net, tiny_engine, tiny_model):
        with pytest.raises(ValueError):
            ProbabilisticRouter(tiny_net, tiny_engine, None, tiny_model)

    def test_without_vector_falls_back_to_basic(self, router, tiny_engine):
        r = trip_request(tiny_engine, 1, 7)
        route = router.route_for_schedule(1, 0.0, [pickup(r), dropoff(r)])
        assert route.total_cost() == pytest.approx(tiny_engine.cost(1, 7))

    def test_route_meets_deadlines(self, router, tiny_engine, tiny_net):
        r = trip_request(tiny_engine, 1, 7, rho=1.8)
        vec = MobilityVector(*tiny_net.xy[1], *tiny_net.xy[7])
        route = router.route_for_schedule(1, 0.0, [pickup(r), dropoff(r)], taxi_vector=vec)
        arrival = route.times[route.stop_positions[-1]]
        assert arrival <= r.deadline + 1e-6
        assert tiny_net.is_path(route.nodes)

    def test_infeasible_schedule_raises(self, router, tiny_engine):
        r = trip_request(tiny_engine, 1, 7, rho=1.01)
        vec = MobilityVector(0, 0, 0, 100)
        with pytest.raises(RouteInfeasible):
            router.route_for_schedule(2, 1e6, [pickup(r), dropoff(r)], taxi_vector=vec)

    def test_partition_probability_positive_towards_demand(self, router):
        # Direction north (towards row 2 where trips end): row 2's
        # pick-up hotspot (vertex 7) lies in partition 2.
        p = router.partition_probability(2, (0.0, 1.0))
        assert p >= 0.0

    def test_steers_through_hot_vertex_when_free(self, router, tiny_engine, tiny_net):
        # Trip 6 -> 8 (along the top row).  Shortest is 6-7-8 which
        # already passes the hotspot 7; with slack the route must still
        # be valid and end on time.
        r = trip_request(tiny_engine, 6, 8, rho=2.0)
        vec = MobilityVector(*tiny_net.xy[6], *tiny_net.xy[8])
        route = router.route_for_schedule(6, 0.0, [pickup(r), dropoff(r)], taxi_vector=vec)
        assert 7 in route.nodes

    def test_cruise_route(self, router):
        route = router.cruise_route(0, 0.0)
        assert route is not None
        assert route.stop_positions == []
        assert route.nodes[0] == 0
        assert len(route.nodes) >= 2
        # The cruise should end at a demand vertex (7, 1 or 4 have pickups).
        assert route.nodes[-1] in {7, 1, 4}

    def test_cruise_deterministic(self, router):
        a = router.cruise_route(0, 100.0)
        b = router.cruise_route(0, 100.0)
        assert a.nodes == b.nodes

    def test_cruise_from_hotspot_moves_on(self, router):
        route = router.cruise_route(7, 0.0)
        # Either relocates elsewhere or declines; never a zero-length route.
        assert route is None or len(route.nodes) >= 2

    def test_cruise_does_not_poison_west_direction(self, tiny_net, tiny_engine, row_lg,
                                                   tiny_model):
        # A cruise routes with the zero direction, which every partition
        # suits.  Heading due west-south-west (atan2 < -7/8 pi) used to
        # share that memo key, so a taxi planned after a cruise saw
        # "every partition" instead of its own suitable set.
        def make():
            return ProbabilisticRouter(
                tiny_net, tiny_engine, PartitionFilter(row_lg), tiny_model, lam=0.0
            )

        west = (-1.0, -0.1)
        cruised = make()
        for start in range(tiny_net.num_vertices):
            cruised.cruise_route(start, 0.0)
        for pi in range(row_lg.num_partitions):
            assert cruised.partition_probability(pi, west) == make().partition_probability(
                pi, west
            )

    def test_zero_direction_has_its_own_sector(self):
        from repro.core.routing import ZERO_SECTOR, _sector

        sectors = {_sector((math.cos(a), math.sin(a)))
                   for a in np.linspace(-math.pi, math.pi, 97)}
        assert sectors == set(range(16))
        assert _sector((0.0, 0.0)) == ZERO_SECTOR


def _sector_directions():
    """One direction per memo key: the 16 sector centres and the zero vector.

    A sector memo keeps the answer of the first direction that reached
    it, so two routers only agree when each sector is only ever asked
    with the same direction.
    """
    angles = [-math.pi + (k + 0.5) * math.pi / 8 for k in range(16)]
    return [(math.cos(a), math.sin(a)) for a in angles] + [(0.0, 0.0)]


class TestProbabilisticMemos:
    """A router that has served many legs answers like a fresh one."""

    DIRECTIONS = _sector_directions()

    @pytest.fixture(scope="class")
    def make(self, small_net, small_engine, small_landmarks, small_partitioning):
        def make():
            return ProbabilisticRouter(
                small_net,
                small_engine,
                PartitionFilter(small_landmarks),
                small_partitioning.transition_model,
            )

        return make

    @pytest.fixture(scope="class")
    def driven(self, make, small_net, small_engine):
        router = make()
        rng = np.random.default_rng(21)
        n = small_net.num_vertices
        for i in range(150):
            u, v = (int(x) for x in rng.integers(0, n, size=2))
            dx, dy = self.DIRECTIONS[int(rng.integers(0, len(self.DIRECTIONS)))]
            r = trip_request(small_engine, u, v, rho=2.0, rid=i)
            vec = MobilityVector(0.0, 0.0, dx, dy)
            try:
                router.route_for_schedule(u, 0.0, [pickup(r), dropoff(r)], taxi_vector=vec)
            except RouteInfeasible:
                pass
            router.cruise_route(v, float(rng.uniform(0.0, 86_400.0)))
        return router

    def _cases(self, small_net, seed):
        rng = np.random.default_rng(seed)
        n = small_net.num_vertices
        for _ in range(60):
            u, v = (int(x) for x in rng.integers(0, n, size=2))
            d = self.DIRECTIONS[int(rng.integers(0, len(self.DIRECTIONS)))]
            yield u, v, d, float(rng.uniform(0.0, 86_400.0))

    def test_corridors_and_legs_match_fresh(self, make, driven, small_net, small_landmarks):
        lg = small_landmarks
        checked = 0
        for u, v, d, _t in self._cases(small_net, 5):
            pz, pz1 = lg.partition_of(u), lg.partition_of(v)
            corridors = driven._corridors(pz, pz1, d)
            assert corridors == make()._corridors(pz, pz1, d)
            cruise_corridor = driven._filter.filter_partitions(pz, pz1)
            for corridor in [*corridors, cruise_corridor]:
                assert driven._weighted_leg(u, v, corridor, d) == make()._weighted_leg(
                    u, v, corridor, d
                )
                checked += 1
        assert checked > 60

    def test_leg_weights_follow_corridor_vertices(self, driven):
        assert driven._weight_cache
        for (corridor, _sector_key), weights in driven._weight_cache.items():
            assert weights.shape == (len(driven._filter.corridor_vertices(corridor)),)

    def test_cruise_matches_fresh(self, make, driven, small_net):
        for u, _v, _d, t in self._cases(small_net, 9):
            a = driven.cruise_route(u, t)
            b = make().cruise_route(u, t)
            if a is None or b is None:
                assert a is b
                continue
            assert a.nodes == b.nodes
            assert a.times == b.times
