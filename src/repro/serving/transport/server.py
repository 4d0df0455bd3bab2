"""HTTP front-end over an in-process :class:`NavigationServer`.

:class:`NavigationHTTPServer` binds a ``ThreadingHTTPServer`` (stdlib; one
handler thread per connection, and a client keeps one HTTP/1.1 connection
alive per calling thread) in front of an existing navigation server,
translating the wire protocol of :mod:`.protocol` into the same calls a
local :class:`~repro.serving.client.NavigationClient` would make.  The
navigation server stays the single source of truth — the transport owns no
job state beyond the idempotency replay table.

The routes are the rows of :data:`.protocol.ENDPOINTS` (listed in
``docs/ARCHITECTURE.md``, *Serving over the network*): ``_Handler`` matches
the row, decodes its request message, calls the ``NavigationHTTPServer``
method named after the row and encodes the row's response message.

Long-polls wait server-side up to ``min(timeout, MAX_POLL_SECONDS)`` per
round and return ``done=False`` for the client to re-arm, and a kept
connection that sends nothing for ``IDLE_TIMEOUT_SECONDS`` is closed, so a
dead client can never park a handler thread indefinitely.

Lifecycle::

    with NavigationServer(...) as nav, NavigationHTTPServer(nav) as http:
        print(http.url)        # e.g. http://127.0.0.1:43211
        ...                    # background thread serves until exit
"""

from __future__ import annotations

import json
import math
import socket
import threading
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.errors import (
    ProtocolError,
    ReproError,
    ServerStoppingError,
    ServingError,
    UnknownExecutorError,
    UnknownJobError,
)
from repro.serving.events import EventBatch
from repro.serving.fleet.dispatcher import ClaimGrant, CommitOutcome
from repro.serving.server import NavigationServer
from repro.serving.transport.protocol import (
    MAX_BODY_BYTES,
    MAX_POLL_SECONDS,
    CancelResponse,
    DrainResponse,
    FleetClaimRequest,
    FleetCommitRequest,
    FleetDeregisterResponse,
    FleetGraphResponse,
    FleetHeartbeatRequest,
    FleetHeartbeatResponse,
    FleetRegisterRequest,
    FleetRegisterResponse,
    FleetStatusResponse,
    HealthResponse,
    JobsResponse,
    MetricsResponse,
    ResultResponse,
    SubmitRequest,
    SubmitResponse,
    encode_error,
    error_body,
    graph_to_wire,
    match_endpoint,
    parse_json,
)
from repro.serving.types import JobSnapshot, NavigationRequest

__all__ = ["NavigationHTTPServer"]

#: a kept-alive connection that sends no request for this long is closed;
#: its client reconnects (and resends the request it was about to send).
IDLE_TIMEOUT_SECONDS = 30.0


def _http_status(exc: ReproError) -> int:
    """HTTP status code for a typed serving error."""
    if isinstance(exc, (UnknownJobError, UnknownExecutorError)):
        return 404
    return 503 if isinstance(exc, ServerStoppingError) else 400


class _Handler(BaseHTTPRequestHandler):
    """One request: route, delegate to the navigation server, reply JSON."""

    # HTTP/1.1 keeps client connections alive between calls (every
    # response carries an explicit Content-Length).  On a kept connection
    # Nagle's algorithm would hold a reply's body behind its headers until
    # the client's delayed ACK (~40 ms per call), so it is switched off.
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    # The connection's socket timeout: waiting for the next request, or
    # reading or writing one, past it ends the connection.
    timeout = IDLE_TIMEOUT_SECONDS
    server: "_Server"

    # ------------------------------------------------------------- plumbing
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Quiet: long-polling makes per-request logs pure noise."""

    def _reply(self, code: int, payload: dict, *, close: bool = False) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _reply_error(self, exc: BaseException) -> None:
        code = _http_status(exc) if isinstance(exc, ReproError) else 500
        # Error paths may reply before the request body was drained (routing
        # errors, oversize bodies); on a keep-alive connection the unread
        # bytes would be parsed as the next request line, so close instead.
        self._reply(code, error_body(exc), close=True)

    def _read_body(self) -> bytes:
        raw = self.headers.get("Content-Length") or "0"
        # Checked before any read: a negative length would read to EOF and
        # park this thread until the client hangs up.
        if not (raw.isascii() and raw.isdigit()):
            raise ProtocolError(f"invalid Content-Length {raw!r}")
        length = int(raw)
        if length > MAX_BODY_BYTES:
            raise ProtocolError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        return self.rfile.read(length) if length else b""

    # ------------------------------------------------------------- dispatch
    def _dispatch(self, verb: str) -> None:
        """Answer one request through its :data:`ENDPOINTS` row."""
        if self.server.stopping:
            # Read off a kept connection after stop() ended its reading side:
            # close it unanswered, as if the request had come a moment later.
            self.close_connection = True
            return
        try:
            url = urlparse(self.path)
            endpoint, args = match_endpoint(verb, url.path)
            raw = self._read_body() if verb == "POST" else b""
            if endpoint.request is not None:
                args["request"] = endpoint.request.from_wire(
                    parse_json(raw), self.headers
                )
            query = parse_qs(url.query)
            for name in endpoint.query:
                args[name] = _query_number(query, name)
            answer = getattr(self.server.transport, f"_{endpoint.name}")
            response = answer(**args)
            if not isinstance(response, endpoint.response):
                raise TypeError(
                    f"{endpoint.name} answered {type(response).__name__}, "
                    f"its row says {endpoint.response.__name__}"
                )
            self._reply(200, response.to_wire())
        except Exception as exc:  # noqa: BLE001 — every reply must be JSON
            self._reply_error(exc)

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler contract
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")


def _query_number(query: dict, name: str) -> float | int:
    """One numeric query parameter (``timeout`` seconds, capped at one
    long-poll round; ``since`` sequence number), 0 when absent.  NaN and
    infinities are refused: ``Condition.wait_for(pred, nan)`` never returns,
    so a ``timeout=nan`` would park its handler thread for the job's life."""
    raw = query.get(name, ["0"])[0]
    try:
        value = float(raw) if name == "timeout" else int(raw)
    except ValueError:
        raise ProtocolError(f"invalid {name} {raw!r}") from None
    if not 0 <= value < math.inf:
        raise ProtocolError(f"{name} must be finite and non-negative")
    return min(value, MAX_POLL_SECONDS) if name == "timeout" else value


class _Server(ThreadingHTTPServer):
    daemon_threads = True  # handler threads must not outlive shutdown
    allow_reuse_address = True
    stopping = False
    transport: "NavigationHTTPServer"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._connections_lock = threading.Lock()
        self._connections: set[socket.socket] = set()  # guarded-by: _connections_lock

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """End every open connection's reading side: an idle handler's
        wait for the next request returns at once and its thread exits; a
        request in flight still writes its reply, then finds no next one.
        A request read after this is closed on unanswered, never served."""
        self.stopping = True
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:  # already closed by its handler
                pass


class NavigationHTTPServer:
    """Network transport wrapping one :class:`NavigationServer`.

    Parameters
    ----------
    navigation:
        The in-process server to expose.  Its lifecycle stays the caller's:
        stopping the transport does not stop the navigation server.
    host / port:
        Bind address; port ``0`` picks a free ephemeral port (tests).
    """

    def __init__(
        self,
        navigation: NavigationServer,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.navigation = navigation
        self._http = _Server((host, port), _Handler)
        self._http.transport = self
        self._thread: threading.Thread | None = None
        #: whether a serving loop began: ``shutdown()`` waits for the loop
        #: to end, so on a transport that never served it would never return.
        self._served = False
        self._idempotency_lock = threading.Lock()
        #: (tenant, key) -> the SubmitResponse to replay on a retried POST.
        #: FIFO-bounded: a key only matters during its submit's retry window
        #: (seconds), so the oldest entries are safe to forget — without the
        #: cap a long-lived server would grow this dict per submit, forever.
        self._idempotency: OrderedDict[tuple[str, str], SubmitResponse] = (
            OrderedDict()
        )
        self._idempotency_cap = 4096

    # ------------------------------------------------------------ lifecycle
    @property
    def host(self) -> str:
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Serve in a daemon background thread (idempotent)."""
        if self._thread is not None:
            return
        self._served = True
        self._thread = threading.Thread(
            target=self._http.serve_forever,
            name="nav-http",
            daemon=True,
        )
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (the CLI path)."""
        self._served = True
        self._http.serve_forever()

    def stop(self) -> None:
        """Stop accepting connections, end the kept-alive ones and release
        the socket (idempotent).  Idle connections' handler threads exit at
        once; a request in flight finishes its reply first (a long-poll
        round at its window, or when the navigation server stops)."""
        if self._served:
            self._http.shutdown()
        self._http.close_connections()
        self._http.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "NavigationHTTPServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------- one answer per route
    def _health(self) -> HealthResponse:
        return HealthResponse(ok=True, jobs=len(self.navigation.jobs()))

    def _submit(self, request: SubmitRequest) -> SubmitResponse:
        """Enqueue the spec(s), replaying a known idempotency key.

        The replay table is checked and — after a successful submit —
        updated under one lock *around* the enqueue, so two racing retries
        with the same key serialize: the loser sees the winner's entry and
        replays it instead of double-enqueuing.
        """
        specs = request.specs
        key = None
        if request.idempotency_key is not None:
            # Scope keys per tenant so two tenants choosing "retry-1" don't
            # collide; the first spec's lane names the scope.
            scope = specs[0].get("tenant", "") if specs else ""
            key = (scope, request.idempotency_key)

        with self._idempotency_lock:
            if key is not None:
                known = self._idempotency.get(key)
                if known is not None:
                    return SubmitResponse(
                        job_ids=known.job_ids,
                        batch=request.batch,
                        deduplicated=True,
                    )
            requests = [NavigationRequest.from_dict(spec) for spec in specs]
            job_ids = self.navigation.submit_many(requests)
            response = SubmitResponse(job_ids=job_ids, batch=request.batch)
            if key is not None:
                self._idempotency[key] = response
                while len(self._idempotency) > self._idempotency_cap:
                    self._idempotency.popitem(last=False)
            return response

    def _jobs(self) -> JobsResponse:
        return JobsResponse(self.navigation.snapshots())

    def _job(self, job_id: str) -> JobSnapshot:
        return self.navigation.snapshot(job_id)

    def _result(self, job_id: str, timeout: float) -> ResultResponse:
        """One long-poll round: wait, then encode whatever outcome
        ``NavigationServer.result`` returns or raises for a terminal job."""
        nav = self.navigation
        snapshot = nav.wait(job_id, timeout)
        status = snapshot.status.value
        if not snapshot.done:
            return ResultResponse(done=False, status=status)
        try:
            result = nav.result(job_id, 0)
        except ServingError as exc:  # FAILED / CANCELLED, typed by result()
            return ResultResponse(done=True, status=status, error=encode_error(exc))
        return ResultResponse(done=True, status=status, result=result)

    def _events(self, job_id: str, since: int, timeout: float) -> EventBatch:
        return self.navigation.events(job_id, since=since, timeout=timeout)

    def _cancel(self, job_id: str) -> CancelResponse:
        return CancelResponse(self.navigation.cancel(job_id))

    def _drain(self, timeout: float) -> DrainResponse:
        try:
            self.navigation.drain(timeout)
            done = True
        except ServingError:
            done = False
        return DrainResponse(done=done, jobs=self.navigation.snapshots())

    def _metrics(self) -> MetricsResponse:
        return MetricsResponse(self.navigation.metrics.snapshot())

    def _fleet(self) -> FleetStatusResponse:
        return FleetStatusResponse(**self.navigation.fleet.status())

    def _fleet_graph(self, fingerprint: str) -> FleetGraphResponse:
        graph = self.navigation.fleet.graph(fingerprint)
        return FleetGraphResponse(graph_to_wire(graph))

    def _fleet_register(
        self, request: FleetRegisterRequest
    ) -> FleetRegisterResponse:
        fleet = self.navigation.fleet
        info = fleet.register(
            workers=request.workers, executor_id=request.executor_id
        )
        return FleetRegisterResponse(
            executor_id=info.executor_id,
            heartbeat_seconds=fleet.heartbeat_interval,
            lease_ttl=fleet.lease_ttl,
        )

    def _fleet_heartbeat(
        self, request: FleetHeartbeatRequest
    ) -> FleetHeartbeatResponse:
        renewed = self.navigation.fleet.touch(request.executor_id)
        return FleetHeartbeatResponse(renewed=renewed)

    def _fleet_claim(self, request: FleetClaimRequest) -> ClaimGrant:
        return self.navigation.fleet.claim(
            request.executor_id,
            max_candidates=request.max_candidates,
            timeout=min(request.timeout, MAX_POLL_SECONDS),
        )

    def _fleet_commit(self, request: FleetCommitRequest) -> CommitOutcome:
        return self.navigation.fleet.commit(
            request.executor_id,
            request.lease_id,
            request.keys,
            request.records,
            idempotency_key=request.idempotency_key,
        )

    def _fleet_deregister(
        self, request: FleetHeartbeatRequest
    ) -> FleetDeregisterResponse:
        existed = self.navigation.fleet.deregister(request.executor_id)
        return FleetDeregisterResponse(deregistered=existed)
