"""Span tracing from the outside: wrap each layer's public entry points.

Nothing in ``src/`` knows about these spans.  :func:`install` replaces
the functions listed in :data:`SPANS` with timing wrappers, so every
call records one span: its name, start, end, the span open around it
(its parent) and the id of the request the client was submitting.
Spans live in flat in-memory arrays and are folded into per-name
calls / total / self time when the run ends (:meth:`Tracer.summary`).

A span's *self time* is its duration minus the time its child spans
cover.  The wrappers add work to every call, which is why end-to-end
numbers only ever come from untraced runs.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections.abc import Callable
from typing import Any

import numpy as np

#: Maps a call's result to what it adds to its span's ``tally``.
Tally = Callable[[Any], int] | None


def _is_not_none(result: Any) -> int:
    return result is not None


def _size(result: Any) -> int:
    return int(result.size)


#: ``(module, attribute path, span name, tally)``.
#:
#: The attribute path is ``Class.method`` or a module-level function.
#: Module-level functions that a caller bound by name at import time are
#: wrapped in the *calling* module (``repro.core.routing`` holds its own
#: reference to ``dijkstra_restricted``), and class methods are wrapped
#: on the class that defines them, so subclasses that inherit them are
#: covered too.  The tally, when given, sums a number taken from each
#: result: calls that did useful work, for the ``*_ratio`` metrics,
#: candidates found, or the entries of each cost matrix.
SPANS: tuple[tuple[str, str, str, Tally], ...] = (
    # set-up
    ("repro.demand.generator", "ChengduLikeDemand.generate_days", "demand.generate_days", None),
    ("repro.demand.prediction", "DemandPredictor.fit", "demand.predictor_fit", None),
    ("repro.demand.dataset", "TripDataset.to_requests", "demand.to_requests", None),
    ("repro.network.shortest_path", "ShortestPathEngine.__init__", "network.engine_build", None),
    ("repro.network.ch", "ContractionHierarchy.build", "network.ch_build", None),
    ("repro.network.landmarks", "LandmarkGraph.__init__", "network.landmarks_build", None),
    ("repro.sim.scenario", "bipartite_partition", "partitioning.partition", None),
    # the client's three calls
    ("repro.service.service", "DispatchService.submit", "service.submit", None),
    ("repro.service.service", "DispatchService.pump", "sim.pump", None),
    ("repro.service.service", "DispatchService.finish", "sim.finish", None),
    # fleet sweep and scheme hooks
    ("repro.fleet.taxi", "Taxi.advance", "fleet.advance", None),
    ("repro.baselines.base", "DispatchScheme.maybe_cruise", "baselines.maybe_cruise", bool),
    ("repro.baselines.base", "DispatchScheme.on_taxi_advanced", "index.on_taxi_advanced", None),
    # matching
    ("repro.core.mtshare", "MTShare.dispatch", "core.dispatch", _is_not_none),
    ("repro.core.mtshare", "MTShare.install", "core.install", None),
    ("repro.core.mtshare", "MTShare.try_offline", "core.try_offline", _is_not_none),
    ("repro.core.matching", "Matcher.candidate_taxis", "core.matching.candidates", len),
    # The greedy matcher scores through its private per-dispatch scorer;
    # the window builder through the public one.  Both are "score the
    # insertions of one candidate set", so they share a span name.
    ("repro.core.matching", "Matcher._score_candidates", "core.matching.score_insertions", None),
    ("repro.core.matching", "Matcher.score_insertions_for", "core.matching.score_insertions", None),
    # routing
    ("repro.core.routing", "BasicRouter.route_for_schedule", "core.routing.basic_route", None),
    ("repro.core.routing", "ProbabilisticRouter.route_for_schedule", "core.routing.prob_route", None),
    ("repro.core.routing", "ProbabilisticRouter.cruise_route", "core.routing.cruise_route",
     _is_not_none),
    ("repro.core.routing", "dijkstra_restricted", "network.dijkstra_restricted", None),
    # shortest-path queries
    ("repro.network.shortest_path", "ShortestPathEngine.cost_matrix", "network.cost_matrix", _size),
    ("repro.network.shortest_path", "ShortestPathEngine.dist_row", "network.dist_row", None),
    ("repro.network.shortest_path", "ShortestPathEngine.path", "network.path", None),
    # dispatch windows
    ("repro.core.window", "WindowLAP.match_window", "core.window.match_window", None),
    ("repro.core.window", "WindowLAP.build_cost_matrix", "core.window.build_cost_matrix", None),
    ("repro.core.window", "solve_window_lap", "core.window.lap_solve", None),
)


class Tracer:
    """In-memory span recorder shared by every installed wrapper."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: Id of the request being submitted, stamped on every span
        #: opened meanwhile (``-1`` outside a submission).
        self.request_id = -1
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._rid = array("i")
        self._tally = array("q")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self._start)

    def span_id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        return sid

    def wrap(self, fn: Callable, name: str, tally: Tally = None) -> Callable:
        """A drop-in replacement for ``fn`` that records one span per call."""
        sid = self.span_id(name)
        perf = time.perf_counter
        stack = self._stack
        names, starts, ends = self._name, self._start, self._end
        parents, rids, tallies = self._parent, self._rid, self._tally
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(starts)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            rids.append(tracer.request_id)
            starts.append(0.0)
            ends.append(0.0)
            tallies.append(0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if tally is not None:
                tallies[idx] = tally(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as columns (``parent`` indexes the rows)."""
        return {
            "name": np.frombuffer(self._name, dtype=np.uint16).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "request_id": np.frombuffer(self._rid, dtype=np.int32).copy(),
            "tally": np.frombuffer(self._tally, dtype=np.int64).copy(),
        }

    def summary(self, since: float = float("-inf")) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s``, ``self_s`` and ``tally``.

        Only spans that started at or after ``since`` are counted, so
        the run phase can be summarised apart from set-up.
        """
        cols = self.arrays()
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        covered = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        keep = cols["start"] >= since
        ids = cols["name"][keep].astype(np.int64)
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur[keep], minlength=k)
        own = np.bincount(ids, weights=self_time[keep], minlength=k)
        tally = np.bincount(ids, weights=cols["tally"][keep], minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(own[i]),
                "tally": int(tally[i]),
            }
            for i, name in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        """Write every span to ``path`` (``.npz``: the columns plus ``names``)."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _resolve(module: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every entry in :data:`SPANS`; returns an ``uninstall`` callable.

    Static and class methods are rewrapped as such, so ``cls.build(...)``
    still receives its class.  Wrapping a name its owner does not
    define itself (an inherited method) is refused: the wrapper would
    shadow the parent's method only for that one subclass.
    """
    undo: list[tuple[Any, str, Any]] = []
    for module, path, name, tally in SPANS:
        owner, attr = _resolve(module, path)
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)
        if raw is None:
            raise AttributeError(f"{module}.{path} is not defined by its owner")
        if isinstance(raw, (classmethod, staticmethod)):
            new: Any = type(raw)(tracer.wrap(raw.__func__, name, tally))
        else:
            new = tracer.wrap(raw, name, tally)
        setattr(owner, attr, new)
        undo.append((owner, attr, raw))

    def uninstall() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return uninstall
