"""The dispatch service: admission + kernel + decision stream.

:class:`DispatchService` wraps a :class:`~repro.sim.engine.Simulator`
constructed with an empty workload and feeds it through the streaming
entry points (``stream_begin`` / ``stream_submit`` / ``stream_finish``).
Every submission passes the :class:`~repro.service.admission.AdmissionPolicy`
first; every dispatch outcome and every rejection becomes one
:class:`DecisionRecord` on the decision stream.

Equivalence guarantee: replaying a workload through the service (any
submission order, any pumping cadence) produces decisions bit-identical
to ``Simulator.run()`` over the same workload, because both reduce to
the same heap-ordered event sequence — the equivalence tests in
``tests/test_service.py`` pin this.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from ..demand.request import RideRequest
from ..sim.engine import Simulator
from ..sim.metrics import SimulationMetrics
from .admission import Admission, AdmissionPolicy

#: Decision stream statuses.
MATCHED = "matched"
UNMATCHED = "unmatched"
REJECTED = "rejected"

DecisionSink = Callable[["DecisionRecord"], None]


@dataclass(frozen=True, slots=True)
class DecisionRecord:
    """One entry of the decision stream.

    ``status`` is ``"matched"``/``"unmatched"`` for dispatch outcomes
    (then ``kind`` says which path decided: ``"online"``,
    ``"redispatch"`` or ``"offline"``) or ``"rejected"`` for admission
    refusals (then ``kind`` is the rejection reason).
    """

    request_id: int
    time: float
    status: str
    kind: str
    taxi_id: int | None = None
    elapsed_ms: float = 0.0


@dataclass(frozen=True)
class ServiceConfig:
    """Service knobs; admission rules live in :class:`AdmissionPolicy`."""

    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    #: Retain the decision stream in memory when no sink is given.
    #: Soak runs with a sink (or with neither) keep memory flat.
    keep_decisions: bool = True


class DispatchService:
    """Streaming façade over one simulator run.

    Parameters
    ----------
    sim:
        A :class:`~repro.sim.engine.Simulator` built with
        ``requests=[]``; the service takes over its decision hook and
        drives it through the streaming API.
    config:
        Admission policy and decision-stream retention.
    on_decision:
        Optional sink called once per decision record, in decision
        order.  When given, records are *not* retained in memory.
    """

    def __init__(
        self,
        sim: Simulator,
        config: ServiceConfig | None = None,
        on_decision: DecisionSink | None = None,
    ) -> None:
        self._sim = sim
        self._config = config or ServiceConfig()
        self._sink = on_decision
        self._decisions: list[DecisionRecord] = []
        self._seen: set[int] | None = set() if self._config.admission.dedupe else None
        self._started = False
        self._finished = False
        self._submitted = 0
        self._admitted = 0
        self._rejections: dict[str, int] = {}
        sim.on_decision = self._on_dispatch_decision

    # ------------------------------------------------------------------
    @property
    def sim(self) -> Simulator:
        """The wrapped simulator (metrics, kernel, fleet)."""
        return self._sim

    def set_sink(self, sink: DecisionSink | None) -> None:
        """Redirect the decision stream (``None`` reverts to retention)."""
        self._sink = sink

    @property
    def decisions(self) -> list[DecisionRecord]:
        """Retained decision records (empty when a sink consumes them)."""
        return self._decisions

    @property
    def submitted(self) -> int:
        """Submissions screened so far (admitted + rejected)."""
        return self._submitted

    @property
    def admitted(self) -> int:
        """Submissions that became kernel events."""
        return self._admitted

    @property
    def rejections(self) -> dict[str, int]:
        """Rejection counts by reason."""
        return dict(self._rejections)

    @property
    def pending(self) -> int:
        """Admitted requests not yet dispatched (the in-flight queue)."""
        return self._sim.kernel.pending

    # ------------------------------------------------------------------
    def _emit(self, record: DecisionRecord) -> None:
        if self._sink is not None:
            self._sink(record)
        elif self._config.keep_decisions:
            self._decisions.append(record)

    def _on_dispatch_decision(
        self,
        request: RideRequest,
        now: float,
        matched: bool,
        taxi_id: int | None,
        elapsed_s: float,
        kind: str,
    ) -> None:
        self._emit(
            DecisionRecord(
                request_id=request.request_id,
                time=now,
                status=MATCHED if matched else UNMATCHED,
                kind=kind,
                taxi_id=taxi_id,
                elapsed_ms=round(1000.0 * elapsed_s, 4),
            )
        )

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open the stream (idempotent)."""
        if not self._started:
            self._sim.stream_begin()
            self._started = True

    def submit(self, request: RideRequest) -> Admission:
        """Screen one request and enqueue it if admitted."""
        if not self._started:
            self.start()
        if self._finished:
            raise RuntimeError("submit() after finish()")
        self._submitted += 1
        outcome = self._config.admission.screen(
            request, self._sim.kernel.now, self._sim.kernel.pending, self._seen
        )
        if not outcome.accepted:
            reason = outcome.reason or "unknown"
            self._rejections[reason] = self._rejections.get(reason, 0) + 1
            self._sim.record_rejection(request, reason)
            self._emit(
                DecisionRecord(
                    request_id=request.request_id,
                    time=self._sim.kernel.now,
                    status=REJECTED,
                    kind=reason,
                )
            )
            return outcome
        admitted = outcome.request if outcome.request is not None else request
        self._sim.stream_submit(admitted)
        self._admitted += 1
        if self._seen is not None:
            self._seen.add(request.request_id)
        return outcome

    def pump(self, until: float | None = None) -> int:
        """Dispatch queued events; returns how many fired."""
        if not self._started:
            self.start()
        return self._sim.stream_pump(until)

    def finish(self) -> SimulationMetrics:
        """Flush, drain and close the run; returns the final metrics."""
        if not self._started:
            self.start()
        if self._finished:
            raise RuntimeError("finish() called twice")
        self._finished = True
        return self._sim.stream_finish()

    # ------------------------------------------------------------------
    def replay(
        self,
        source: Iterable[RideRequest],
        pump_every: int | None = 1,
    ) -> SimulationMetrics:
        """Feed an entire source through the service and finish.

        ``pump_every=k`` dispatches the events due by the latest
        admitted request's release time after every ``k``-th admitted
        request (eager, bounded queue); ``None`` defers all dispatching
        to :meth:`finish` (the queue then holds the whole admitted
        stream, exactly like batch ``run()``).  The bound matters: an
        unbounded pump would fire future ``window.tick`` /
        ``rebalance.tick`` events, move the clock past the next
        release and get every later request rejected as late.
        """
        if pump_every is not None and pump_every < 1:
            raise ValueError("pump_every must be a positive int or None")
        self.start()
        for request in source:
            outcome = self.submit(request)
            if (
                outcome.accepted
                and pump_every is not None
                and self._admitted % pump_every == 0
            ):
                admitted = outcome.request if outcome.request is not None else request
                self.pump(until=admitted.release_time)
        return self.finish()


__all__ = [
    "MATCHED",
    "REJECTED",
    "UNMATCHED",
    "DecisionRecord",
    "DispatchService",
    "ServiceConfig",
]
