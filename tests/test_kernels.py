"""Kernel-equivalence property tests.

The fast paths (batched cost queries, the distance-row insertion
scorer and every entry point over it, CSR-subgraph restricted
Dijkstra) must be *bit-identical* to the retained scalar reference
paths: same costs, same feasibility verdicts, same chosen schedules.
Every test here drives both paths over randomized small networks and
diffs the results exactly — no ``approx`` — in the ``full``, ``lazy``
and ``ch`` engine modes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.base import DispatchScheme
from repro.config import SystemConfig
from repro.core.matching import Matcher
from repro.core.mobility_cluster import (
    ZERO_UNIT,
    MobilityClusterIndex,
    MobilityVector,
    direction_unit,
    unit_similarity,
)
from repro.core.routing import BasicRouter, RouteInfeasible, compose_route
from repro.demand.request import RideRequest
from repro.fleet.schedule import (
    _insertion_sequences,
    arrival_times,
    capacity_ok,
    deadlines_met,
    dropoff,
    enumerate_insertions,
    materialize_insertion,
    pickup,
    request_stop_pair,
    score_insertions_tight,
)
from repro.network.generators import grid_city
from repro.network.geo import cosine_similarity
from repro.network.landmarks import LandmarkGraph
from repro.network.shortest_path import (
    PathNotFound,
    ShortestPathEngine,
    clear_subgraph_cache,
    dijkstra_restricted,
    subgraph_cache_stats,
)
from repro.obs import NULL


@pytest.fixture(scope="module")
def net():
    """Perturbed directed grid: irregular edge lengths, no cost ties."""
    return grid_city(rows=7, cols=7, spacing_m=140.0, seed=17)


@pytest.fixture(scope="module", params=["full", "lazy", "ch"])
def engine(request, net):
    return ShortestPathEngine(net, mode=request.param)


def _random_request(rng, net, engine, rid):
    n = net.num_vertices
    origin = int(rng.integers(n))
    destination = int(rng.integers(n))
    while destination == origin or not engine.reachable(origin, destination):
        destination = int(rng.integers(n))
    direct = engine.cost(origin, destination)
    deadline = (1.0 + rng.uniform(0.0, 2.0)) * direct + rng.uniform(0.0, 600.0)
    return RideRequest(
        request_id=rid,
        release_time=0.0,
        origin=origin,
        destination=destination,
        deadline=deadline,
        direct_cost=direct,
    )


def _random_pending(rng, net, engine, base_rid):
    """A structurally valid pending schedule plus its onboard count."""
    stops = []
    onboard = 0
    rid = base_rid
    for _ in range(int(rng.integers(0, 3))):  # passengers already aboard
        r = _random_request(rng, net, engine, rid)
        rid += 1
        stops.append(dropoff(r))
        onboard += r.num_passengers
    for _ in range(int(rng.integers(0, 3))):  # assigned, not yet aboard
        r = _random_request(rng, net, engine, rid)
        rid += 1
        i = int(rng.integers(0, len(stops) + 1))
        j = int(rng.integers(i, len(stops) + 1))
        stops.insert(i, pickup(r))
        stops.insert(j + 1, dropoff(r))
    return stops, onboard


def _scalar_best(engine, start, t0, pending, request, onboard, capacity):
    """Scalar reference: first minimum-arrival feasible instance.

    Drives :func:`enumerate_insertions` through :func:`capacity_ok`,
    :func:`arrival_times` and :func:`deadlines_met` one instance at a
    time and returns ``(last_arrival, i, j)``, or ``None``.
    """
    best = None
    for i, j, stops in enumerate_insertions(pending, request):
        if not capacity_ok(stops, onboard, capacity):
            continue
        times = arrival_times(start, t0, stops, engine.cost)
        if not deadlines_met(stops, times):
            continue
        if best is None or times[-1] < best[0]:
            best = (times[-1], i, j)
    return best


# ----------------------------------------------------------------------
# batched cost queries
# ----------------------------------------------------------------------
class TestBatchedCosts:
    def test_cost_many_bit_identical(self, net, engine):
        rng = np.random.default_rng(1)
        for _ in range(20):
            u = int(rng.integers(net.num_vertices))
            vs = rng.integers(0, net.num_vertices, size=15)
            batch = engine.cost_many(u, vs)
            scalar = np.array([engine.cost(u, int(v)) for v in vs])
            assert np.array_equal(batch, scalar)

    def test_cost_matrix_bit_identical(self, net, engine):
        rng = np.random.default_rng(2)
        # Duplicate sources on purpose: exercises the lazy-mode dedup.
        us = rng.integers(0, net.num_vertices, size=12)
        us[5] = us[0]
        vs = rng.integers(0, net.num_vertices, size=9)
        mat = engine.cost_matrix(us, vs)
        assert mat.shape == (12, 9)
        for a, u in enumerate(us):
            for b, v in enumerate(vs):
                assert mat[a, b] == engine.cost(int(u), int(v))

    def test_cost_matrix_accepts_lists(self, net, engine):
        mat = engine.cost_matrix([0, 3], [1])
        assert mat[0, 0] == engine.cost(0, 1)
        assert mat[1, 0] == engine.cost(3, 1)


# ----------------------------------------------------------------------
# batched insertion scoring (one walk over a whole candidate set)
# ----------------------------------------------------------------------
class TestBatchedInsertions:
    def test_matches_scalar_reference(self, net, engine):
        rng = np.random.default_rng(3)
        found = 0
        for trial in range(60):
            pending, onboard = _random_pending(rng, net, engine, base_rid=trial * 10)
            request = _random_request(rng, net, engine, rid=trial * 10 + 9)
            start = int(rng.integers(net.num_vertices))
            t0 = float(rng.uniform(0.0, 100.0))
            capacity = int(rng.integers(max(1, onboard + 1), 7))

            # The scorer's instance table is the enumeration, in order.
            rows = list(enumerate_insertions(pending, request))
            seqs = _insertion_sequences(len(pending))
            assert len(seqs) == len(rows)
            ext = tuple(pending) + request_stop_pair(request)
            for (i, j, stops), (si, sj, positions) in zip(rows, seqs):
                assert (si, sj) == (i, j)
                assert [ext[p] for p in positions] == stops

            # Its verdict: the scalar reference's winner, bit for bit.
            out = score_insertions_tight(
                engine, [(start, t0, pending, onboard, capacity)], request
            )
            ref = _scalar_best(engine, start, t0, pending, request, onboard, capacity)
            assert out == ([] if ref is None else [(0, *ref)])
            if ref is not None:
                found += 1
        assert found > 0

    def test_negative_occupancy_raises_like_scalar(self, net, engine):
        rng = np.random.default_rng(4)
        r1 = _random_request(rng, net, engine, rid=1)
        request = _random_request(rng, net, engine, rid=2)
        # Drop-off with nobody aboard: scalar capacity_ok raises, and so
        # does the scorer even when the bad candidate sits among good ones.
        pending = [dropoff(r1)]
        with pytest.raises(ValueError):
            capacity_ok(pending, 0, 4)
        with pytest.raises(ValueError):
            score_insertions_tight(
                engine, [(0, 0.0, [], 0, 4), (0, 0.0, pending, 0, 4)], request
            )


# ----------------------------------------------------------------------
# matcher- and scheme-level choice equivalence
# ----------------------------------------------------------------------
class _FakeTaxi:
    """Just enough taxi surface for the matcher's and schemes' scorers."""

    def __init__(self, node, ready, pending, onboard, capacity, taxi_id=0):
        self._node = node
        self._ready = ready
        self._pending = pending
        self.occupancy = onboard
        self.committed = onboard
        self.capacity = capacity
        self.taxi_id = taxi_id

    def position_at(self, now):
        return self._node, self._ready

    def pending_stops(self):
        return list(self._pending)

    def remaining_route_cost(self, ready):
        return 0.0


class _OneTaxiScheme(DispatchScheme):
    """A concrete scheme exposing the base ``generic_insertion``."""

    def dispatch(self, request, now):
        return None


def _bare_matcher(net, engine):
    matcher = Matcher.__new__(Matcher)
    matcher._engine = engine
    matcher._obs = NULL
    matcher._basic = BasicRouter(net, engine)
    return matcher


def _random_taxi(rng, net, engine, trial):
    pending, onboard = _random_pending(rng, net, engine, base_rid=trial * 10)
    return _FakeTaxi(
        node=int(rng.integers(net.num_vertices)),
        ready=float(rng.uniform(0.0, 100.0)),
        pending=pending,
        onboard=onboard,
        capacity=int(rng.integers(max(1, onboard + 1), 7)),
        taxi_id=trial,
    )


class TestMatcherEquivalence:
    def test_best_insertion_matches_scalar(self, net, engine):
        matcher = _bare_matcher(net, engine)
        rng = np.random.default_rng(5)
        chosen = 0
        for trial in range(60):
            taxi = _random_taxi(rng, net, engine, trial)
            request = _random_request(rng, net, engine, rid=trial * 10 + 9)
            node, ready = taxi.position_at(0.0)
            scored = matcher.score_insertions_for(
                [(taxi, node, ready, taxi.pending_stops())], request
            )
            scalar = matcher._best_insertion_scalar(taxi, request, now=0.0)
            if scalar is None:
                assert scored == []
                continue
            chosen += 1
            [(detour, _taxi, build_stops)] = scored
            assert detour == scalar[0]  # detour, bit-identical
            assert build_stops() == scalar[1]  # chosen stop sequence
        assert chosen > 0  # the fuzz actually exercised feasible cases

    def test_single_taxi_paths_choose_scalar_instance(self, net, engine):
        # The offline-encounter paths — ``Matcher.insertion_for_taxi``
        # and ``DispatchScheme.generic_insertion`` — install the scalar
        # reference's instance (or refuse when its route cannot be met).
        matcher = _bare_matcher(net, engine)
        scheme = _OneTaxiScheme(net, engine, SystemConfig())
        router = BasicRouter(net, engine)
        rng = np.random.default_rng(16)
        installed = 0
        for trial in range(60):
            taxi = _random_taxi(rng, net, engine, trial)
            request = _random_request(rng, net, engine, rid=trial * 10 + 9)
            scalar = matcher._best_insertion_scalar(taxi, request, now=0.0)
            for result in (
                matcher.insertion_for_taxi(taxi, request, now=0.0),
                scheme.generic_insertion(taxi, request, now=0.0),
            ):
                if scalar is None:
                    assert result is None
                elif result is None:
                    node, ready = taxi.position_at(0.0)
                    with pytest.raises(RouteInfeasible):
                        router.route_for_schedule(node, ready, scalar[1])
                else:
                    installed += 1
                    assert list(result.stops) == scalar[1]
                    assert result.taxi_id == taxi.taxi_id
        assert installed > 0


# ----------------------------------------------------------------------
# CSR-subgraph restricted Dijkstra
# ----------------------------------------------------------------------
class TestRestrictedDijkstra:
    def _random_allowed(self, rng, net):
        n = net.num_vertices
        size = int(rng.integers(8, n + 1))
        return frozenset(int(v) for v in rng.choice(n, size=size, replace=False))

    def test_csr_matches_scalar_cost(self, net):
        rng = np.random.default_rng(6)
        compared = 0
        for _ in range(40):
            allowed = self._random_allowed(rng, net)
            nodes = sorted(allowed)
            u, v = (int(x) for x in rng.choice(nodes, size=2, replace=False))
            try:
                cost_s, path_s = dijkstra_restricted(net, u, v, allowed, method="scalar")
            except PathNotFound:
                with pytest.raises(PathNotFound):
                    dijkstra_restricted(net, u, v, allowed, method="csr")
                continue
            cost_c, path_c = dijkstra_restricted(net, u, v, allowed, method="csr")
            compared += 1
            assert cost_c == cost_s
            assert path_c[0] == u and path_c[-1] == v
            assert all(w in allowed for w in path_c)
        assert compared > 0

    def test_csr_matches_scalar_with_vertex_weights(self, net):
        rng = np.random.default_rng(7)
        compared = 0
        for _ in range(40):
            allowed = self._random_allowed(rng, net)
            # One weight per allowed vertex, in ascending vertex order.
            weights = rng.uniform(0.0, 30.0, size=len(allowed))
            nodes = sorted(allowed)
            u, v = (int(x) for x in rng.choice(nodes, size=2, replace=False))
            try:
                cost_s, _ = dijkstra_restricted(
                    net, u, v, allowed, vertex_weight=weights, method="scalar"
                )
            except PathNotFound:
                continue
            cost_c, path_c = dijkstra_restricted(
                net, u, v, allowed, vertex_weight=weights, method="csr"
            )
            compared += 1
            assert cost_c == cost_s
            assert path_c[0] == u and path_c[-1] == v
        assert compared > 0

    def test_source_equals_target(self, net):
        allowed = frozenset(range(10))
        assert dijkstra_restricted(net, 3, 3, allowed) == (0.0, [3])
        assert dijkstra_restricted(net, 3, 3, allowed, method="scalar") == (0.0, [3])

    def test_endpoints_outside_allowed_fall_back(self, net):
        # auto mode must route endpoints outside the corridor through
        # the scalar path instead of failing.
        allowed = frozenset(range(1, net.num_vertices))
        cost, path = dijkstra_restricted(net, 0, net.num_vertices - 1, allowed)
        assert path[0] == 0
        with pytest.raises(ValueError):
            dijkstra_restricted(net, 0, net.num_vertices - 1, allowed, method="csr")

    def test_subgraph_cache_hits(self, net):
        clear_subgraph_cache()
        allowed = frozenset(range(net.num_vertices))
        dijkstra_restricted(net, 0, 5, allowed)
        before = subgraph_cache_stats()
        dijkstra_restricted(net, 1, 6, allowed)
        after = subgraph_cache_stats()
        assert after["builds"] == before["builds"]
        assert after["hits"] == before["hits"] + 1
        assert after["entries"] >= 1
        assert after["memory_bytes"] > 0
        clear_subgraph_cache()


# ----------------------------------------------------------------------
# tight small-dispatch insertion walk
# ----------------------------------------------------------------------
class TestTightInsertion:
    def test_matches_scalar_reference(self, net, engine):
        # Tight capacities on purpose: most draws fail the scorer's
        # capacity precheck, so the per-instance capacity walk runs.
        rng = np.random.default_rng(7)
        found = 0
        for trial in range(60):
            pending, onboard = _random_pending(rng, net, engine, base_rid=trial * 10)
            request = _random_request(rng, net, engine, rid=trial * 10 + 9)
            start = int(rng.integers(net.num_vertices))
            t0 = float(rng.uniform(0.0, 100.0))
            capacity = int(rng.integers(max(1, onboard + 1), onboard + 3))
            out = score_insertions_tight(
                engine, [(start, t0, pending, onboard, capacity)], request
            )
            ref = _scalar_best(engine, start, t0, pending, request, onboard, capacity)
            # Last arrival bit-identical, same (i, j).
            assert out == ([] if ref is None else [(0, *ref)])
            if ref is not None:
                found += 1
        assert found > 0

    def test_whole_dispatch_scorer(self, net, engine):
        rng = np.random.default_rng(8)
        request = _random_request(rng, net, engine, rid=999)
        starts = []
        refs = []
        for trial in range(12):
            pending, onboard = _random_pending(rng, net, engine, base_rid=trial * 10)
            start = int(rng.integers(net.num_vertices))
            t0 = float(rng.uniform(0.0, 100.0))
            capacity = int(rng.integers(max(1, onboard + 1), 7))
            starts.append((start, t0, pending, onboard, capacity))
            refs.append(
                _scalar_best(engine, start, t0, pending, request, onboard, capacity)
            )
        out = score_insertions_tight(engine, starts, request)
        expected = [(idx, *ref) for idx, ref in enumerate(refs) if ref is not None]
        assert out == expected

    def test_negative_occupancy_raises_like_scalar(self, net, engine):
        rng = np.random.default_rng(9)
        r1 = _random_request(rng, net, engine, rid=1)
        request = _random_request(rng, net, engine, rid=2)
        with pytest.raises(ValueError):
            score_insertions_tight(engine, [(0, 0.0, [dropoff(r1)], 0, 4)], request)
        # Idle-taxi special case: a negative initial occupancy raises
        # exactly like the scalar capacity walk.
        with pytest.raises(ValueError):
            score_insertions_tight(engine, [(0, 0.0, [], -1, 4)], request)

    def test_materialize_matches_enumeration(self, net, engine):
        rng = np.random.default_rng(10)
        for trial in range(20):
            pending, _onboard = _random_pending(rng, net, engine, base_rid=trial * 10)
            request = _random_request(rng, net, engine, rid=trial * 10 + 9)
            for i, j, stops in enumerate_insertions(pending, request):
                assert materialize_insertion(pending, request, i, j) == stops


# ----------------------------------------------------------------------
# direction units (scalar mobility-cluster fast path)
# ----------------------------------------------------------------------
class TestDirectionUnits:
    def _random_dirs(self, rng, k):
        dirs = [(float(x), float(y)) for x, y in rng.uniform(-3000.0, 3000.0, (k, 2))]
        dirs += [(0.0, 0.0), (1250.0, 0.0), (0.0, -40.0), (1e-8, 1e-8)]
        return dirs

    def test_unit_similarity_matches_cosine(self):
        rng = np.random.default_rng(11)
        dirs = self._random_dirs(rng, 40)
        for ax, ay in dirs:
            ua = direction_unit(ax, ay)
            for bx, by in dirs:
                ub = direction_unit(bx, by)
                assert unit_similarity(ua, ub) == cosine_similarity(ax, ay, bx, by)

    def test_cluster_lookups_match_brute_force(self):
        rng = np.random.default_rng(12)
        index = MobilityClusterIndex(lam=0.5)
        for rid in range(40):
            ox, oy, dx, dy = rng.uniform(-5000.0, 5000.0, 4)
            index.add_request(rid, MobilityVector(float(ox), float(oy), float(dx), float(dy)))
        assert index.num_clusters > 1
        for _ in range(25):
            ox, oy, dx, dy = rng.uniform(-5000.0, 5000.0, 4)
            vec = MobilityVector(float(ox), float(oy), float(dx), float(dy))
            brute = [
                cid
                for cid in index.cluster_ids()
                if index.general_vector(cid).similarity(vec) >= index.lam
            ]
            assert index.matching_clusters(vec) == brute
            best_id, best_sim = index._best_cluster(vec)
            exp_id, exp_sim = None, -2.0
            for cid in index.cluster_ids():
                sim = index.general_vector(cid).similarity(vec)
                if sim > exp_sim:
                    exp_id, exp_sim = cid, sim
            assert (best_id, best_sim) == (exp_id, exp_sim)

    def test_taxi_units_track_vectors(self):
        index = MobilityClusterIndex(lam=0.5)
        index.add_request(0, MobilityVector(0.0, 0.0, 100.0, 0.0))
        index.update_taxi(7, MobilityVector(5.0, 5.0, 90.0, 12.0))
        assert index.taxi_unit(7) == direction_unit(85.0, 7.0)
        index.update_taxi(8, MobilityVector(3.0, 4.0, 3.0, 4.0))
        assert index.taxi_unit(8) is ZERO_UNIT
        index.update_taxi(7, None)
        assert index.taxi_unit(7) is None


# ----------------------------------------------------------------------
# scorer entry points (greedy dispatch, window fill) vs the scalar path
# ----------------------------------------------------------------------
class TestScorerTierEquivalence:
    def test_tiers_agree_on_whole_dispatch(self, net, engine):
        matcher = _bare_matcher(net, engine)
        rng = np.random.default_rng(13)
        request = _random_request(rng, net, engine, rid=888)
        candidates = [_random_taxi(rng, net, engine, trial) for trial in range(10)]

        greedy = [
            (d, t.taxi_id, build())
            for d, t, build in matcher._score_candidates(candidates, request, now=0.0)
        ]
        items = [(t, *t.position_at(0.0), t.pending_stops()) for t in candidates]
        window = sorted(
            (d, t.taxi_id, build())
            for d, t, build in matcher.score_insertions_for(items, request)
        )
        scalar = sorted(
            (best[0], t.taxi_id, best[1])
            for t in candidates
            if (best := matcher._best_insertion_scalar(t, request, now=0.0)) is not None
        )
        assert greedy == window == scalar
        assert len(greedy) > 0


# ----------------------------------------------------------------------
# basic-router leg cache
# ----------------------------------------------------------------------
class TestLegCache:
    def _feasible_stops(self, rng, net, engine, k):
        stops = []
        for rid in range(k):
            r = _random_request(rng, net, engine, rid=rid)
            big = RideRequest(
                request_id=r.request_id,
                release_time=r.release_time,
                origin=r.origin,
                destination=r.destination,
                deadline=r.deadline + 1e9,
                direct_cost=r.direct_cost,
            )
            stops.append(pickup(big))
            stops.append(dropoff(big))
        return stops

    def test_cached_routes_bit_identical(self, net, engine):
        rng = np.random.default_rng(14)
        router = BasicRouter(net, engine)
        for trial in range(8):
            stops = self._feasible_stops(rng, net, engine, k=2)
            start = int(rng.integers(net.num_vertices))
            t0 = float(rng.uniform(0.0, 100.0))
            cold = router.route_for_schedule(start, t0, stops)
            warm = router.route_for_schedule(start, t0, stops)
            legs = []
            node = start
            for stop in stops:
                legs.append(engine.path(node, stop.node))
                node = stop.node
            ref = compose_route(net, start, t0, legs)
            for route in (cold, warm):
                assert route.nodes == ref.nodes
                assert route.times == ref.times  # same sequential float adds
                assert route.stop_positions == ref.stop_positions


# ----------------------------------------------------------------------
# disc-intersection coordinate cache
# ----------------------------------------------------------------------
class TestDiscCache:
    def test_cached_answers_match_array_formula(self, net):
        engine = ShortestPathEngine(net, mode="full")
        n = net.num_vertices
        parts = [list(range(i, n, 4)) for i in range(4)]
        lg = LandmarkGraph(net, parts, engine)
        rng = np.random.default_rng(15)
        for _ in range(30):
            v = int(rng.integers(n))
            x, y = (float(c) for c in net.xy[v])
            radius = float(rng.uniform(0.0, 900.0))
            expected = [
                int(z)
                for z in np.flatnonzero(
                    np.hypot(lg.centroids[:, 0] - x, lg.centroids[:, 1] - y)
                    <= np.array([lg.radius(z) for z in range(4)]) + radius
                )
            ]
            assert lg.partitions_intersecting_disc(x, y, radius) == expected
            # warm (cached distances) answer is identical
            assert lg.partitions_intersecting_disc(x, y, radius) == expected
