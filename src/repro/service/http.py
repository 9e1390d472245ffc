"""Minimal HTTP endpoint over :class:`DispatchService` (stdlib only).

One process, one simulator run, many clients::

    POST /requests   {request json}  -> admission outcome + decisions fired
    GET  /metrics                    -> current metrics summary
    GET  /healthz                    -> liveness + queue depth
    POST /finish                     -> drain, close the run, final summary

The simulator is single-threaded by design (determinism), so the
handler serialises everything behind one lock; concurrency here means
"many clients", not "many dispatches at once".  Decision records fired
by a submission's pump are returned in that submission's response —
they may belong to earlier queued requests, which is the nature of a
stream.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from ..demand.request import RequestError
from .codec import decision_to_dict, request_from_dict
from .service import DecisionRecord, DispatchService


class ServiceState:
    """The shared state behind the handler: service + lock + buffer."""

    def __init__(self, service: DispatchService) -> None:
        self.service = service
        self.lock = threading.Lock()
        self.buffer: list[DecisionRecord] = []
        self.finished_summary: dict[str, Any] | None = None
        service.set_sink(self.buffer.append)  # the server owns the stream

    def drain(self) -> list[dict[str, Any]]:
        fired = [decision_to_dict(d) for d in self.buffer]
        self.buffer.clear()
        return fired


def _make_handler(state: ServiceState) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *args: Any) -> None:  # silence stderr
            pass

        def _reply(self, code: int, payload: dict[str, Any]) -> None:
            body = json.dumps(payload).encode()
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:
            if self.path == "/healthz":
                with state.lock:
                    self._reply(
                        200,
                        {
                            "ok": True,
                            "finished": state.finished_summary is not None,
                            "pending": state.service.pending,
                            "submitted": state.service.submitted,
                        },
                    )
            elif self.path == "/metrics":
                with state.lock:
                    summary = state.finished_summary or state.service.sim.metrics.summary()
                    self._reply(200, summary)
            else:
                self._reply(404, {"error": f"no such path: {self.path}"})

        def do_POST(self) -> None:
            if self.path == "/requests":
                self._post_request()
            elif self.path == "/finish":
                with state.lock:
                    if state.finished_summary is None:
                        metrics = state.service.finish()
                        state.finished_summary = metrics.summary()
                    self._reply(
                        200,
                        {"summary": state.finished_summary, "decisions": state.drain()},
                    )
            else:
                self._reply(404, {"error": f"no such path: {self.path}"})

        def _post_request(self) -> None:
            try:
                length = int(self.headers.get("Content-Length", "0"))
                payload = json.loads(self.rfile.read(length))
                request = request_from_dict(payload)
            except (json.JSONDecodeError, KeyError, ValueError, RequestError) as exc:
                self._reply(400, {"error": str(exc)})
                return
            with state.lock:
                if state.finished_summary is not None:
                    self._reply(409, {"error": "run already finished"})
                    return
                outcome = state.service.submit(request)
                if outcome.accepted:
                    # Only the events due by this release: an unbounded
                    # pump would fire future window/rebalance ticks and
                    # reject every later request as late.
                    admitted = outcome.request if outcome.request is not None else request
                    state.service.pump(until=admitted.release_time)
                self._reply(
                    200 if outcome.accepted else 429 if outcome.reason == "backpressure" else 409,
                    {
                        "accepted": outcome.accepted,
                        "reason": outcome.reason,
                        "clamped": outcome.clamped,
                        "decisions": state.drain(),
                    },
                )

    return Handler


def make_server(
    service: DispatchService, host: str = "127.0.0.1", port: int = 0
) -> tuple[ThreadingHTTPServer, ServiceState]:
    """Build (not start) an HTTP server over one dispatch service.

    ``port=0`` binds an ephemeral port (tests); the bound address is
    ``server.server_address``.  Call ``serve_forever()`` to run.
    """
    state = ServiceState(service)
    server = ThreadingHTTPServer((host, port), _make_handler(state))
    return server, state


__all__ = ["ServiceState", "make_server"]
