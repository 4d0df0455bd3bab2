"""HTTP front-end over an in-process :class:`NavigationServer`.

:class:`NavigationHTTPServer` binds a ``ThreadingHTTPServer`` (stdlib; one
handler thread per connection) in front of an existing navigation server,
translating the wire protocol of :mod:`.protocol` into the same calls a
local :class:`~repro.serving.client.NavigationClient` would make.  The
navigation server stays the single source of truth — the transport owns no
job state beyond the idempotency replay table.

Endpoints (all under ``/v1``)::

    GET  /v1/health                     liveness + protocol version
    POST /v1/jobs                       submit one spec or a batch
    GET  /v1/jobs                       list job snapshots
    GET  /v1/jobs/<id>                  one job snapshot
    GET  /v1/jobs/<id>/result?timeout=  long-poll for the result
    GET  /v1/jobs/<id>/events?since=&timeout=  long-poll the progress stream
    POST /v1/jobs/<id>/cancel           cancel (PENDING drop / RUNNING coop)
    POST /v1/drain?timeout=             long-poll until all jobs terminal
    GET  /v1/metrics                    flat MetricsRegistry scrape
    GET  /v1/fleet                      fleet census (executors, queues)
    GET  /v1/fleet/graph/<fingerprint>  graph arrays for remote executors
    POST /v1/fleet/register             join (or rejoin) the fleet
    POST /v1/fleet/heartbeat            liveness beat + lease renewal
    POST /v1/fleet/claim?               long-poll work pull (body timeout)
    POST /v1/fleet/commit               deliver finished records (idempotent)
    POST /v1/fleet/deregister           graceful fleet exit

Long-polls wait server-side up to ``min(timeout, MAX_POLL_SECONDS)`` per
round and return ``done=False`` for the client to re-arm, so a dead client
can never park a handler thread for more than one round.

Lifecycle::

    with NavigationServer(...) as nav, NavigationHTTPServer(nav) as http:
        print(http.url)        # e.g. http://127.0.0.1:43211
        ...                    # background thread serves until exit
"""

from __future__ import annotations

import json
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
from repro.runtime.parallel import record_from_dict
from repro.serving.server import NavigationServer
from repro.serving.transport.protocol import (
    API_PREFIX,
    IDEMPOTENCY_HEADER,
    MAX_BODY_BYTES,
    MAX_POLL_SECONDS,
    PROTOCOL_VERSION,
    TENANT_HEADER,
    CancelResponse,
    DrainResponse,
    EventsResponse,
    FleetClaimRequest,
    FleetClaimResponse,
    FleetCommitRequest,
    FleetCommitResponse,
    FleetDeregisterResponse,
    FleetGraphResponse,
    FleetHeartbeatRequest,
    FleetHeartbeatResponse,
    FleetRegisterRequest,
    FleetRegisterResponse,
    FleetStatusResponse,
    HealthResponse,
    MetricsResponse,
    ResultResponse,
    SubmitRequest,
    SubmitResponse,
    encode_error,
    error_body,
    graph_to_wire,
    parse_json,
    task_to_wire,
)
from repro.serving.types import NavigationRequest

__all__ = ["NavigationHTTPServer"]


def _http_status(exc: ReproError) -> int:
    """HTTP status code for a typed serving error."""
    if isinstance(exc, (UnknownJobError, UnknownExecutorError)):
        return 404
    if isinstance(exc, ProtocolError):
        return 400
    if isinstance(exc, ServerStoppingError):
        return 503
    return 400


class _Handler(BaseHTTPRequestHandler):
    """One request: route, delegate to the navigation server, reply JSON."""

    # HTTP/1.1 keeps client connections alive between long-poll rounds
    # (every response carries an explicit Content-Length).
    protocol_version = "HTTP/1.1"
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
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ProtocolError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        return self.rfile.read(length) if length else b""

    def _query_timeout(self, query: dict, default: float = 0.0) -> float:
        raw = query.get("timeout", [None])[0]
        if raw is None:
            return default
        try:
            timeout = float(raw)
        except ValueError:
            raise ProtocolError(f"invalid timeout {raw!r}") from None
        if timeout < 0:
            raise ProtocolError("timeout must be non-negative")
        return min(timeout, MAX_POLL_SECONDS)

    def _query_since(self, query: dict) -> int:
        raw = query.get("since", ["0"])[0]
        try:
            since = int(raw)
        except ValueError:
            raise ProtocolError(f"invalid since {raw!r}") from None
        if since < 0:
            raise ProtocolError("since must be non-negative")
        return since

    def _route(self) -> tuple[list[str], dict]:
        url = urlparse(self.path)
        if url.path != API_PREFIX and not url.path.startswith(API_PREFIX + "/"):
            raise UnknownJobError(
                f"unknown endpoint {url.path!r} (expected {API_PREFIX}/...)"
            )
        parts = [p for p in url.path[len(API_PREFIX) :].split("/") if p]
        return parts, parse_qs(url.query)

    # --------------------------------------------------------------- verbs
    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler contract
        try:
            parts, query = self._route()
            nav = self.server.transport.navigation
            if parts == ["health"]:
                self._reply(
                    200,
                    HealthResponse(ok=True, jobs=len(nav.jobs())).to_wire(),
                )
            elif parts == ["metrics"]:
                self._reply(
                    200, MetricsResponse(nav.metrics.snapshot()).to_wire()
                )
            elif parts == ["fleet"]:
                census = nav.fleet.status()
                self._reply(
                    200,
                    FleetStatusResponse(
                        executors=census["executors"],
                        pending=census["pending"],
                        leased=census["leased"],
                    ).to_wire(),
                )
            elif len(parts) == 3 and parts[0] == "fleet" and parts[1] == "graph":
                graph = nav.fleet.graph(parts[2])
                self._reply(
                    200, FleetGraphResponse(graph_to_wire(graph)).to_wire()
                )
            elif parts == ["jobs"]:
                payload = {
                    "protocol": PROTOCOL_VERSION,
                    "jobs": [s.to_dict() for s in nav.snapshots()],
                }
                self._reply(200, payload)
            elif len(parts) == 2 and parts[0] == "jobs":
                snapshot = nav.snapshot(parts[1]).to_dict()
                snapshot["protocol"] = PROTOCOL_VERSION
                self._reply(200, snapshot)
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
                response = self.server.transport._poll_result(
                    parts[1], self._query_timeout(query)
                )
                self._reply(200, response.to_wire())
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events":
                batch = nav.events(
                    parts[1],
                    since=self._query_since(query),
                    timeout=self._query_timeout(query),
                )
                self._reply(
                    200,
                    EventsResponse(
                        done=batch.done,
                        next_seq=batch.next_seq,
                        gap=batch.gap,
                        events=[e.to_dict() for e in batch.events],
                    ).to_wire(),
                )
            else:
                raise UnknownJobError(f"unknown endpoint {self.path!r}")
        except Exception as exc:  # noqa: BLE001 — every reply must be JSON
            self._reply_error(exc)

    def do_POST(self) -> None:  # noqa: N802
        try:
            parts, query = self._route()
            raw = self._read_body()
            if parts == ["jobs"]:
                request = SubmitRequest.from_wire(
                    parse_json(raw),
                    header_key=self.headers.get(IDEMPOTENCY_HEADER),
                )
                response = self.server.transport._submit(
                    request, tenant_header=self.headers.get(TENANT_HEADER)
                )
                self._reply(200, response.to_wire())
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
                nav = self.server.transport.navigation
                cancelled = nav.cancel(parts[1])
                self._reply(200, CancelResponse(cancelled).to_wire())
            elif parts == ["drain"]:
                response = self.server.transport._drain(
                    self._query_timeout(query)
                )
                self._reply(200, response.to_wire())
            elif len(parts) == 2 and parts[0] == "fleet":
                self._fleet_post(parts[1], raw)
            else:
                raise UnknownJobError(f"unknown endpoint {self.path!r}")
        except Exception as exc:  # noqa: BLE001
            self._reply_error(exc)

    def _fleet_post(self, action: str, raw: bytes) -> None:
        """Dispatch one ``POST /v1/fleet/<action>`` to the dispatcher."""
        fleet = self.server.transport.navigation.fleet
        if action == "register":
            request = FleetRegisterRequest.from_wire(parse_json(raw))
            info = fleet.register(
                workers=request.workers, executor_id=request.executor_id
            )
            self._reply(
                200,
                FleetRegisterResponse(
                    executor_id=info.executor_id,
                    heartbeat_seconds=fleet.heartbeat_interval,
                    lease_ttl=fleet.lease_ttl,
                ).to_wire(),
            )
        elif action == "heartbeat":
            request = FleetHeartbeatRequest.from_wire(parse_json(raw))
            renewed = fleet.heartbeat(request.executor_id)
            self._reply(200, FleetHeartbeatResponse(renewed=renewed).to_wire())
        elif action == "claim":
            request = FleetClaimRequest.from_wire(parse_json(raw))
            grant = fleet.claim(
                request.executor_id,
                max_candidates=request.max_candidates,
                timeout=min(request.timeout, MAX_POLL_SECONDS),
            )
            self._reply(
                200,
                FleetClaimResponse(
                    lease_id=grant.lease_id,
                    ttl=grant.ttl,
                    task=None if grant.task is None else task_to_wire(grant.task),
                    dataset=grant.dataset,
                    fingerprint=grant.fingerprint,
                    keys=list(grant.keys),
                    configs=[config.to_dict() for config in grant.configs],
                ).to_wire(),
            )
        elif action == "commit":
            request = FleetCommitRequest.from_wire(
                parse_json(raw),
                header_key=self.headers.get(IDEMPOTENCY_HEADER),
            )
            try:
                records = [record_from_dict(r) for r in request.records]
            except (KeyError, TypeError, ValueError) as exc:
                raise ProtocolError(f"malformed record payload: {exc}") from None
            outcome = fleet.commit(
                request.executor_id,
                request.lease_id,
                request.keys,
                records,
                idempotency_key=request.idempotency_key,
            )
            self._reply(
                200,
                FleetCommitResponse(
                    accepted=outcome.accepted,
                    duplicates=outcome.duplicates,
                    replayed=outcome.replayed,
                ).to_wire(),
            )
        elif action == "deregister":
            request = FleetHeartbeatRequest.from_wire(parse_json(raw))
            existed = fleet.deregister(request.executor_id)
            self._reply(
                200, FleetDeregisterResponse(deregistered=existed).to_wire()
            )
        else:
            raise UnknownJobError(f"unknown fleet action {action!r}")


class _Server(ThreadingHTTPServer):
    daemon_threads = True  # handler threads must not outlive shutdown
    allow_reuse_address = True
    transport: "NavigationHTTPServer"


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
        self._thread = threading.Thread(
            target=self._http.serve_forever,
            name="nav-http",
            daemon=True,
        )
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (the CLI path)."""
        self._http.serve_forever()

    def stop(self) -> None:
        """Stop accepting connections and release the socket (idempotent)."""
        self._http.shutdown()
        self._http.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "NavigationHTTPServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------- handlers
    def _submit(
        self, request: SubmitRequest, *, tenant_header: str | None
    ) -> SubmitResponse:
        """Enqueue the spec(s), replaying a known idempotency key.

        The replay table is checked and — after a successful submit —
        updated under one lock *around* the enqueue, so two racing retries
        with the same key serialize: the loser sees the winner's entry and
        replays it instead of double-enqueuing.
        """
        specs = []
        for spec in request.specs:
            if tenant_header and not spec.get("tenant"):
                spec = {**spec, "tenant": tenant_header}
            specs.append(spec)

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

    def _poll_result(self, job_id: str, timeout: float) -> ResultResponse:
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
        return ResultResponse(done=True, status=status, result=result.to_dict())

    def _drain(self, timeout: float) -> DrainResponse:
        try:
            self.navigation.drain(timeout)
            done = True
        except ServingError:
            done = False
        return DrainResponse(
            done=done,
            jobs=[s.to_dict() for s in self.navigation.snapshots()],
        )
