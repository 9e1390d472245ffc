"""Taxi schedules (Definition 4) and insertion feasibility machinery.

A taxi schedule is a sequence of *stops* — pick-up or drop-off events at
road vertices, each with a deadline inherited from its request.  All
ridesharing schemes in the paper share the same scheduling primitive:
insert the new request's pick-up and drop-off into the existing stop
sequence *without reordering it* (Section IV-C2), then test the
resulting schedule against every passenger's deadline and the taxi's
capacity.  This module implements stops, insertion enumeration, and the
feasibility checks; routing (how inter-stop costs are obtained) is
supplied by the caller as a cost function, so the same machinery serves
basic routing, probabilistic routing and the grid-based baselines.

:func:`score_insertions_tight` is the production form of the primitive:
one plain-Python walk over cached distance rows scores every candidate
of a dispatch and returns each one's minimum-arrival feasible
instance, bit-identical to the scalar enumeration
(:func:`enumerate_insertions` + :func:`arrival_times` +
:func:`capacity_ok` + :func:`deadlines_met`), which is retained as the
reference the kernel tests diff against.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..demand.request import RideRequest

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..network.shortest_path import ShortestPathEngine


class StopKind(enum.Enum):
    """Whether a stop picks up or drops off its request's passengers."""

    PICKUP = "pickup"
    DROPOFF = "dropoff"


@dataclass(frozen=True, slots=True)
class Stop:
    """One schedule event: pick up or drop off a request at a vertex."""

    kind: StopKind
    request: RideRequest

    @property
    def node(self) -> int:
        """The road vertex where this stop happens."""
        if self.kind is StopKind.PICKUP:
            return self.request.origin
        return self.request.destination

    @property
    def deadline(self) -> float:
        """Latest admissible service time for this stop."""
        if self.kind is StopKind.PICKUP:
            return self.request.pickup_deadline
        return self.request.deadline

    @property
    def passenger_delta(self) -> int:
        """Occupancy change when this stop executes."""
        if self.kind is StopKind.PICKUP:
            return self.request.num_passengers
        return -self.request.num_passengers

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Stop({self.kind.value}, r{self.request.request_id}@{self.node})"


def pickup(request: RideRequest) -> Stop:
    """Convenience constructor for a pick-up stop."""
    return Stop(StopKind.PICKUP, request)


def dropoff(request: RideRequest) -> Stop:
    """Convenience constructor for a drop-off stop."""
    return Stop(StopKind.DROPOFF, request)


def request_stop_pair(request: RideRequest) -> tuple[Stop, Stop]:
    """The (pick-up, drop-off) stop pair of a request."""
    return pickup(request), dropoff(request)


def remove_request_stops(stops: Sequence[Stop], request_id: int) -> list[Stop]:
    """A copy of ``stops`` without the given request's stops.

    Used when a passenger cancels pre-pickup: the relative order of
    everyone else's stops is preserved, and by the triangle inequality
    dropping stops can only shorten the remaining arrivals, so a
    feasible schedule stays feasible.
    """
    return [s for s in stops if s.request.request_id != request_id]


CostFn = Callable[[int, int], float]


def enumerate_insertions(
    stops: Sequence[Stop],
    request: RideRequest,
) -> Iterator[tuple[int, int, list[Stop]]]:
    """All schedule instances inserting ``request`` into ``stops``.

    Yields ``(i, j, new_stops)`` where the pick-up is inserted at index
    ``i`` and the drop-off ends up at index ``j > i`` of the new list.
    The relative order of the existing stops is preserved, exactly as
    the paper (and T-Share, pGreedyDP) prescribe, giving
    ``(m + 1)(m + 2) / 2`` instances for an ``m``-stop schedule.
    """
    pu, do = request_stop_pair(request)
    m = len(stops)
    for i in range(m + 1):
        for j in range(i, m + 1):
            new_stops = list(stops[:i])
            new_stops.append(pu)
            new_stops.extend(stops[i:j])
            new_stops.append(do)
            new_stops.extend(stops[j:])
            yield i, j + 1, new_stops


def arrival_times(
    start_node: int,
    start_time: float,
    stops: Sequence[Stop],
    cost_fn: CostFn,
) -> list[float]:
    """Service time of each stop when travelling via ``cost_fn``.

    ``cost_fn(u, v)`` must return the travel time in seconds between two
    vertices (typically the shortest-path cost; probabilistic routing
    substitutes its own).  Unreachable legs yield ``inf`` arrivals.
    """
    times: list[float] = []
    node = start_node
    t = start_time
    for stop in stops:
        t = t + cost_fn(node, stop.node)
        node = stop.node
        times.append(t)
    return times


def deadlines_met(
    stops: Sequence[Stop],
    times: Sequence[float],
    slack_s: float = 1e-9,
) -> bool:
    """Whether every stop is served no later than its deadline."""
    return all(t <= stop.deadline + slack_s for stop, t in zip(stops, times))


def capacity_ok(
    stops: Sequence[Stop],
    initial_onboard: int,
    capacity: int,
) -> bool:
    """Whether occupancy stays within ``capacity`` along the schedule.

    ``initial_onboard`` is the number of passengers already in the taxi
    when the schedule starts (their drop-offs appear in ``stops``).
    """
    onboard = initial_onboard
    for stop in stops:
        onboard += stop.passenger_delta
        if onboard > capacity:
            return False
        if onboard < 0:
            raise ValueError("schedule drops off passengers that were never aboard")
    return True


def schedule_cost(
    start_node: int,
    start_time: float,
    stops: Sequence[Stop],
    cost_fn: CostFn,
) -> float:
    """Total travel time (seconds) to execute ``stops`` from the start."""
    times = arrival_times(start_node, start_time, stops, cost_fn)
    return (times[-1] - start_time) if times else 0.0


def is_feasible(
    start_node: int,
    start_time: float,
    stops: Sequence[Stop],
    cost_fn: CostFn,
    initial_onboard: int,
    capacity: int,
) -> bool:
    """Combined deadline + capacity feasibility of a schedule instance."""
    if not capacity_ok(stops, initial_onboard, capacity):
        return False
    times = arrival_times(start_node, start_time, stops, cost_fn)
    return deadlines_met(stops, times)


def validate_stop_order(stops: Sequence[Stop]) -> None:
    """Assert structural sanity: each drop-off follows its pick-up and no
    request appears twice in the same role.

    Pick-ups without a drop-off (or vice versa, for onboard passengers)
    are allowed; pairing is only checked when both stops are present.
    """
    picked: set[int] = set()
    dropped: set[int] = set()
    for stop in stops:
        rid = stop.request.request_id
        if stop.kind is StopKind.PICKUP:
            if rid in picked:
                raise ValueError(f"request {rid} has two pick-ups")
            picked.add(rid)
        else:
            if rid in dropped:
                raise ValueError(f"request {rid} has two drop-offs")
            if rid in picked or rid not in picked and rid not in dropped:
                # A drop-off with no preceding pick-up is legal only for
                # passengers already onboard; the caller knows which
                # those are, so only the double-event cases are errors.
                pass
            dropped.add(rid)
    for stop in stops:
        rid = stop.request.request_id
        if stop.kind is StopKind.DROPOFF and rid in picked:
            # ensure order: pick-up index < drop-off index
            pu_idx = next(
                i for i, s in enumerate(stops)
                if s.kind is StopKind.PICKUP and s.request.request_id == rid
            )
            do_idx = next(
                i for i, s in enumerate(stops)
                if s.kind is StopKind.DROPOFF and s.request.request_id == rid
            )
            if do_idx < pu_idx:
                raise ValueError(f"request {rid} is dropped off before pick-up")


# ----------------------------------------------------------------------
# the production insertion scorer
# ----------------------------------------------------------------------
#: Per-m instance sequences as plain Python tuples, enumeration order.
_SEQ_TUPLE_CACHE: dict[int, list[tuple[int, int, tuple[int, ...]]]] = {}


def _insertion_sequences(m: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """``(i, j, positions)`` per instance of an ``m``-stop schedule.

    ``positions`` names the extended stop (``0..m-1`` pending, ``m``
    pick-up, ``m+1`` drop-off) at each slot of the new stop list; rows
    follow :func:`enumerate_insertions` order.
    """
    cached = _SEQ_TUPLE_CACHE.get(m)
    if cached is None:
        cached = [
            (i, j + 1, (*range(i), m, *range(i, j), m + 1, *range(j, m)))
            for i in range(m + 1)
            for j in range(i, m + 1)
        ]
        _SEQ_TUPLE_CACHE[m] = cached  # repro-lint: disable=REP101 reason=pure memo keyed by stop count; value depends only on m
    return cached


def materialize_insertion(
    pending: Sequence[Stop], request: RideRequest, i: int, j: int
) -> list[Stop]:
    """The stop list of insertion instance ``(i, j)``.

    ``(i, j)`` follows the :func:`enumerate_insertions` convention:
    pick-up at index ``i``, drop-off at index ``j`` of the new list.
    Lets callers that only track winning indices (every caller of
    :func:`score_insertions_tight`) build the one stop list they
    actually install.
    """
    pu, do = request_stop_pair(request)
    jo = j - 1
    out = list(pending[:i])
    out.append(pu)
    out.extend(pending[i:jo])
    out.append(do)
    out.extend(pending[jo:])
    return out


def score_insertions_tight(
    engine: ShortestPathEngine,
    starts: Sequence[tuple[int, float, Sequence[Stop], int, int]],
    request: RideRequest,
    slack_s: float = 1e-9,
) -> list[tuple[int, float, int, int]]:
    """Best feasible insertion per candidate via scalar distance-row reads.

    ``starts`` holds one ``(start_node, start_time, pending_stops,
    initial_onboard, capacity)`` tuple per candidate; the return value
    lists ``(index, last_arrival, i, j)`` for every candidate with a
    feasible instance, where ``(i, j)`` is the first minimum-arrival
    instance in :func:`enumerate_insertions` order.  Arrival times
    accumulate left to right with the exact operations of
    :func:`arrival_times` over ``engine.cost``, capacity follows
    :func:`capacity_ok` (including its ``ValueError`` on impossible
    drop-offs), and deadlines follow :func:`deadlines_met`, so costs
    and verdicts are bit-identical to the scalar reference.

    Distance rows are fetched once per distinct vertex and shared
    across the whole candidate set, so a dispatch costs one
    ``row.item`` read per hop — no per-call numpy overhead.  Every
    insertion decision in the program (greedy dispatch, the window's
    busy fill, offline encounters) goes through this one walk.
    """
    pu, do = request_stop_pair(request)
    pu_node = pu.node
    do_node = do.node
    pu_dead = pu.deadline + slack_s
    do_dead = do.deadline + slack_s
    n_pass = request.num_passengers
    speed = engine.network.speed_mps
    dist_row = engine.dist_row
    row_cache: dict[int, np.ndarray] = {pu_node: dist_row(pu_node)}
    pu_row = row_cache[pu_node]
    inf = np.inf

    out: list[tuple[int, float, int, int]] = []
    for idx, (start_node, start_time, pending, onboard, capacity) in enumerate(starts):
        start_row = row_cache.get(start_node)
        if start_row is None:
            start_row = dist_row(start_node)
            row_cache[start_node] = start_row
        m = len(pending)

        if m == 0:
            # Idle candidate: the single pick-up-then-drop-off instance,
            # checked in ``capacity_ok`` order (over-capacity fails
            # before a negative occupancy can raise).
            occ = onboard + n_pass
            if occ > capacity:
                continue
            if occ < 0 or onboard < 0:
                raise ValueError("schedule drops off passengers that were never aboard")
            t = start_time + start_row.item(pu_node) / speed
            if t > pu_dead:
                continue
            t = t + pu_row.item(do_node) / speed
            if t > do_dead:
                continue
            out.append((idx, t, 0, 1))
            continue

        ext_nodes: list[int] = []
        ext_dead: list[float] = []
        ext_delta: list[int] = []
        rows: list[np.ndarray] = []
        # Capacity precheck while filling: any instance's occupancy
        # profile is the pending-only running occupancy, plus the
        # request's passengers over the pickup..dropoff span.  When the
        # peak with them aboard fits and no running value is negative,
        # every instance is capacity-feasible and the per-instance walk
        # can skip occupancy entirely — same verdicts, no ValueError
        # possible.
        run = onboard
        run_min = run
        run_max = run
        for stop in pending:
            v = stop.node
            ext_nodes.append(v)
            ext_dead.append(stop.deadline + slack_s)
            delta = stop.passenger_delta
            ext_delta.append(delta)
            row = row_cache.get(v)
            if row is None:
                row = dist_row(v)
                row_cache[v] = row
            rows.append(row)
            run += delta
            if run < run_min:
                run_min = run
            elif run > run_max:
                run_max = run
        ext_nodes.append(pu_node)
        ext_nodes.append(do_node)
        ext_dead.append(pu_dead)
        ext_dead.append(do_dead)
        ext_delta.append(n_pass)
        ext_delta.append(-n_pass)
        rows.append(pu_row)
        do_row = row_cache.get(do_node)
        if do_row is None:
            do_row = dist_row(do_node)
            row_cache[do_node] = do_row
        rows.append(do_row)
        cap_all_ok = run_min >= 0 and run_max + n_pass <= capacity

        best_last = inf
        best_i = -1
        best_j = -1
        for i, j, positions in _insertion_sequences(m):
            if not cap_all_ok:
                # Faithful scalar capacity walk (first over-capacity
                # stop fails the instance; a negative occupancy reached
                # before one raises, exactly like ``capacity_ok``).
                occ = onboard
                ok = True
                for p in positions:
                    occ += ext_delta[p]
                    if occ > capacity:
                        ok = False
                        break
                    if occ < 0:
                        raise ValueError(
                            "schedule drops off passengers that were never aboard"
                        )
                if not ok:
                    continue
            t = start_time
            row = start_row
            ok = True
            for p in positions:
                t = t + row.item(ext_nodes[p]) / speed
                if t > ext_dead[p]:
                    ok = False
                    break
                row = rows[p]
            if ok and t < best_last:
                best_last = t
                best_i = i
                best_j = j
        if best_i >= 0:
            out.append((idx, best_last, best_i, best_j))
    return out

