"""Versioned wire protocol of the navigation serving transport.

Everything that crosses the socket is declared here, once: the message
dataclasses (their fields *are* the JSON mapping — :mod:`repro.wire`
derives both codec directions from them, and from the domain dataclasses
they carry), the :data:`ENDPOINTS` table that binds each route to its
request and response message, the typed error envelope that carries
:mod:`repro.errors` across processes, and the two transport headers.
:mod:`.server` dispatches on the table and :mod:`.client` builds its calls
from it, so the two can only disagree by disagreeing with this module.
``docs/ARCHITECTURE.md`` (*Serving over the network*) states the codec
rules and lists the routes.

Versioning
----------
``PROTOCOL_VERSION`` names the wire format; the URL namespace embeds it
(``/v1/...``) and every response echoes it.  A server receiving a body whose
``protocol`` field names a different version rejects it with a
:class:`~repro.errors.ProtocolError` envelope instead of guessing.

Error envelope
--------------
Failures travel as ``{"error": {"kind", "message", ...}}`` where ``kind`` is
the :mod:`repro.errors` class name.  :func:`decode_error` reconstructs the
typed exception client-side, so ``except ServingError`` / ``except
JobFailedError`` behaves identically against a local and a remote server —
including :class:`JobFailedError`'s server-side traceback text.

Idempotent submission
---------------------
A client retrying a submit POST (connection dropped after the server read
the body but before the response landed) sends the same
``X-Repro-Idempotency-Key``; the server remembers ``(tenant, key) -> job
id`` and replays the original response instead of double-enqueuing.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
    ConfigError,
    ExplorationError,
    GraphError,
    JobCancelled,
    JobFailedError,
    ProtocolError,
    ReproError,
    ResultExpiredError,
    ServerStoppingError,
    ServingError,
    UnknownExecutorError,
    UnknownJobError,
)
from repro.graphs.csr import CSRGraph
from repro.runtime.profiler import GroundTruthRecord
from repro.serving.events import EventBatch
from repro.serving.fleet.dispatcher import ClaimGrant, CommitOutcome
from repro.serving.types import JobResult, JobSnapshot
from repro.wire import IDEMPOTENCY_HEADER, PROTOCOL_VERSION, WireMessage

__all__ = [
    "PROTOCOL_VERSION",
    "API_PREFIX",
    "TENANT_HEADER",
    "IDEMPOTENCY_HEADER",
    "MAX_POLL_SECONDS",
    "MAX_BODY_BYTES",
    "encode_error",
    "error_body",
    "decode_error",
    "parse_json",
    "graph_to_wire",
    "graph_from_wire",
    "WireMessage",
    "Endpoint",
    "ENDPOINTS",
    "match_endpoint",
    "SubmitRequest",
    "SubmitResponse",
    "JobsResponse",
    "ResultResponse",
    "CancelResponse",
    "DrainResponse",
    "MetricsResponse",
    "FleetRegisterRequest",
    "FleetRegisterResponse",
    "FleetHeartbeatRequest",
    "FleetHeartbeatResponse",
    "FleetClaimRequest",
    "FleetCommitRequest",
    "FleetGraphResponse",
    "FleetStatusResponse",
    "FleetDeregisterResponse",
    "HealthResponse",
]

#: URL prefix every endpoint lives under.
API_PREFIX = f"/v{PROTOCOL_VERSION}"

#: names the fair-share lane of a request that does not carry its own
#: ``tenant`` field (the request body wins when both are present).
TENANT_HEADER = "X-Repro-Tenant"

#: ceiling on one long-poll round's server-side wait.  Clients wanting a
#: longer overall timeout chain rounds; keeping each round short bounds how
#: long a dead client can park a handler thread.
MAX_POLL_SECONDS = 30.0

#: request bodies past this are rejected before parsing (a navigation spec
#: is a few hundred bytes; anything near this limit is not a spec).
MAX_BODY_BYTES = 4 * 2**20


# ------------------------------------------------------------ error envelope
#: exception types allowed to cross the wire, by envelope ``kind``.  Anything
#: else degrades to its nearest listed ancestor (ultimately ``ReproError``),
#: so an envelope can never instantiate an arbitrary class.
WIRE_ERRORS: dict[str, type[ReproError]] = {
    cls.__name__: cls
    for cls in (
        ReproError,
        GraphError,
        ConfigError,
        ExplorationError,
        ServingError,
        ServerStoppingError,
        UnknownJobError,
        ResultExpiredError,
        UnknownExecutorError,
        JobCancelled,
        JobFailedError,
        ProtocolError,
    )
}


def encode_error(exc: BaseException) -> dict:
    """Error envelope payload for one exception.

    Non-``ReproError`` exceptions (handler bugs) are wrapped as plain
    ``ServingError`` envelopes — the client gets a typed failure either way
    and the server's internals stay server-side.
    """
    kind = type(exc).__name__
    if kind not in WIRE_ERRORS:
        for ancestor in type(exc).__mro__:
            if ancestor.__name__ in WIRE_ERRORS:
                kind = ancestor.__name__
                break
        else:
            kind = "ServingError"
    envelope: dict = {"kind": kind, "message": str(exc)}
    if isinstance(exc, JobFailedError):
        envelope["job_id"] = exc.job_id
        envelope["message"] = exc.message
        envelope["traceback"] = exc.traceback
    return envelope


def error_body(exc: BaseException) -> dict:
    """Full HTTP error response body wrapping :func:`encode_error`."""
    return {"error": encode_error(exc), "protocol": PROTOCOL_VERSION}


def decode_error(envelope: dict) -> ReproError:
    """Typed exception for one error envelope (the ``"error"`` value)."""
    kind = WIRE_ERRORS.get(envelope.get("kind", ""), ServingError)
    message = envelope.get("message", "remote serving error")
    if kind is JobFailedError:
        return JobFailedError(
            envelope.get("job_id", "<unknown job>"),
            message,
            envelope.get("traceback"),
        )
    return kind(message)


# ---------------------------------------------------------------- primitives
def parse_json(raw: bytes) -> dict:
    """Decode one JSON object body; :class:`ProtocolError` on anything else."""
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed JSON body: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


# ------------------------------------------------------- fleet wire payloads
#: the CSRGraph arrays that cross the wire (same set graph_fingerprint hashes).
_GRAPH_ARRAYS = ("indptr", "indices", "features", "labels")


def graph_to_wire(graph: CSRGraph) -> dict:
    """Base64-array encoding of a graph for ``GET /v1/fleet/graph/<fp>``.

    Each array travels with its dtype and shape tags; optional arrays
    (features, labels) encode as ``null``.  Feeds ``tobytes`` per array —
    graph fetches are a cold path that happens once per (executor, graph).
    """
    arrays: dict = {}
    for tag in _GRAPH_ARRAYS:
        arr = getattr(graph, tag)
        if arr is None:
            arrays[tag] = None
            continue
        arrays[tag] = {
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "data": base64.b64encode(
                np.ascontiguousarray(arr).tobytes()
            ).decode("ascii"),
        }
    return {
        "name": graph.name,
        "num_classes": int(graph.num_classes),
        "arrays": arrays,
    }


def graph_from_wire(data: dict) -> CSRGraph:
    """Inverse of :func:`graph_to_wire`; :class:`ProtocolError` on bad shape."""
    if not isinstance(data, dict) or not isinstance(data.get("arrays"), dict):
        raise ProtocolError("graph payload must carry an 'arrays' object")
    arrays: dict = {}
    for tag in _GRAPH_ARRAYS:
        spec = data["arrays"].get(tag)
        if spec is None:
            arrays[tag] = None
            continue
        try:
            raw = base64.b64decode(spec["data"])
            # .copy(): frombuffer views are read-only; CSRGraph validation
            # and training both expect ordinary writable arrays.
            arrays[tag] = (
                np.frombuffer(raw, dtype=np.dtype(spec["dtype"]))
                .reshape(spec["shape"])
                .copy()
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(
                f"malformed graph array {tag!r}: {exc}"
            ) from None
    if arrays["indptr"] is None or arrays["indices"] is None:
        raise ProtocolError("graph payload missing indptr/indices arrays")
    return CSRGraph(
        indptr=arrays["indptr"],
        indices=arrays["indices"],
        features=arrays["features"],
        labels=arrays["labels"],
        num_classes=int(data.get("num_classes", 0)),
        name=str(data.get("name", "graph")),
    )


# ------------------------------------------------------------ job messages
def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ProtocolError(message)


def _in_lane(spec: dict, tenant: str) -> dict:
    """One request spec riding ``tenant``'s lane unless it names its own."""
    return spec if spec.get("tenant") else {**spec, "tenant": tenant}


@dataclass(frozen=True)
class SubmitRequest(WireMessage):
    """``POST /v1/jobs`` body: one or more request specs to enqueue.

    ``specs`` are :meth:`NavigationRequest.to_dict` payloads (the job-file
    format).  A single-spec submit (``{"request": ...}``) and a batch
    (``{"requests": [...]}``) share this one class — hence the codec
    override — and the response mirrors whichever arity was sent.  Both
    headers are fallbacks the body beats: the idempotency key for the
    submit, the tenant for every spec that names no lane of its own.
    """

    specs: list
    idempotency_key: str | None = None
    batch: bool = False

    def __post_init__(self) -> None:
        _require(isinstance(self.specs, list), "'requests' must be a JSON list")
        _require(
            all(isinstance(spec, dict) for spec in self.specs),
            "every request spec must be a JSON object",
        )
        _require(
            self.idempotency_key is None
            or isinstance(self.idempotency_key, str),
            "idempotency_key must be a string",
        )

    def to_wire(self) -> dict:
        out = super().to_wire()
        specs, batch = out.pop("specs"), out.pop("batch")
        return {**out, **({"requests": specs} if batch else {"request": specs[0]})}

    @classmethod
    def from_wire(cls, payload: dict, headers=None) -> "SubmitRequest":
        _require(
            isinstance(payload, dict)
            and ("request" in payload or "requests" in payload),
            "submit body must be a JSON object with a 'request' object or a "
            "'requests' list",
        )
        batch = "request" not in payload
        specs = payload["requests"] if batch else [payload["request"]]
        request = super().from_wire(
            {**payload, "specs": specs, "batch": batch}, headers
        )
        tenant = headers.get(TENANT_HEADER) if headers else None
        if not tenant:
            return request
        specs = [_in_lane(spec, tenant) for spec in request.specs]
        return dataclasses.replace(request, specs=specs)


@dataclass(frozen=True)
class SubmitResponse(WireMessage):
    """Submit outcome: the accepted job id(s), ``job_id`` or ``job_ids``
    after the request's arity.

    ``deduplicated`` is ``True`` when an idempotency key matched a previous
    submit and the original ids were replayed (nothing was enqueued).
    """

    job_ids: list
    batch: bool = False
    deduplicated: bool = False

    def __post_init__(self) -> None:
        _require(
            isinstance(self.job_ids, list)
            and all(isinstance(job_id, str) for job_id in self.job_ids),
            "job ids must be strings",
        )

    def to_wire(self) -> dict:
        out = super().to_wire()
        job_ids, batch = out.pop("job_ids"), out.pop("batch")
        return {**out, **({"job_ids": job_ids} if batch else {"job_id": job_ids[0]})}

    @classmethod
    def from_wire(cls, payload: dict, headers=None) -> "SubmitResponse":
        _require(
            isinstance(payload, dict)
            and ("job_id" in payload or "job_ids" in payload),
            "submit response must be a JSON object carrying a job id",
        )
        batch = "job_ids" in payload
        job_ids = payload["job_ids"] if batch else [payload["job_id"]]
        return super().from_wire(
            {**payload, "job_ids": job_ids, "batch": batch}, headers
        )


@dataclass(frozen=True)
class JobsResponse(WireMessage):
    """``GET /v1/jobs``: every job's snapshot, in submission order (one
    job's, ``GET /v1/jobs/<id>``, is a bare :class:`JobSnapshot`)."""

    jobs: list[JobSnapshot]


@dataclass(frozen=True)
class ResultResponse(WireMessage):
    """Long-poll result round: terminal payload or a keep-polling status.

    ``done=False`` means the wait timed out server-side with the job still
    live (``status`` says where it is) — the client simply opens the next
    round.  ``done=True`` carries exactly one of ``result`` or ``error``
    (an error envelope for FAILED/CANCELLED jobs, decoded client-side into
    the same exception the in-process path raises).
    """

    done: bool
    status: str
    result: JobResult | None = None
    error: dict | None = None


@dataclass(frozen=True)
class CancelResponse(WireMessage):
    """``POST /v1/jobs/<id>/cancel`` outcome (mirrors ``server.cancel``)."""

    cancelled: bool


@dataclass(frozen=True)
class DrainResponse(WireMessage):
    """One drain round: every job's snapshot plus whether all are terminal."""

    done: bool
    jobs: list[JobSnapshot] = field(default_factory=list)


@dataclass(frozen=True)
class MetricsResponse(WireMessage):
    """``GET /v1/metrics``: one flat name -> value scrape of the server's
    :class:`~repro.serving.metrics.MetricsRegistry` (counters and gauges
    share the namespace; gauges are evaluated at scrape time)."""

    metrics: dict


@dataclass(frozen=True)
class HealthResponse(WireMessage):
    """``GET /v1/health``: liveness plus the resident job count."""

    ok: bool
    jobs: int


# ---------------------------------------------------------- fleet messages
@dataclass(frozen=True)
class FleetRegisterRequest(WireMessage):
    """``POST /v1/fleet/register`` body: join (or rejoin) the fleet.

    ``executor_id`` is ``None`` on first contact (the server assigns one)
    and carries the previously-assigned id on re-registration after a
    server restart or heartbeat gap, so the executor keeps its counters.
    """

    workers: int = 1
    executor_id: str | None = None

    def __post_init__(self) -> None:
        _require(self.workers >= 1, "workers must be a positive integer")


@dataclass(frozen=True)
class FleetRegisterResponse(WireMessage):
    """Registration grant: the executor's id and its timing contract."""

    executor_id: str
    heartbeat_seconds: float
    lease_ttl: float


@dataclass(frozen=True)
class FleetHeartbeatRequest(WireMessage):
    """``POST /v1/fleet/heartbeat`` (liveness + lease renewal) and
    ``/v1/fleet/deregister`` body: the executor naming itself."""

    executor_id: str


@dataclass(frozen=True)
class FleetHeartbeatResponse(WireMessage):
    """Heartbeat ack: how many leases the executor holds (they live as
    long as it does)."""

    renewed: int


@dataclass(frozen=True)
class FleetClaimRequest(WireMessage):
    """``POST /v1/fleet/claim`` body: one work-pull long-poll round."""

    executor_id: str
    max_candidates: int | None = None
    timeout: float = 0.0

    def __post_init__(self) -> None:
        _require(
            self.max_candidates is None or self.max_candidates >= 1,
            "max_candidates must be a positive integer",
        )
        _require(
            0 <= self.timeout < math.inf,
            "timeout must be a finite, non-negative number",
        )


@dataclass(frozen=True)
class FleetCommitRequest(WireMessage):
    """``POST /v1/fleet/commit`` body: finished records coming home.

    ``records`` are key-aligned with ``keys`` and type-checked field by
    field, so a malformed one is a 400 that publishes nothing.
    ``idempotency_key`` (body field wins over the shared
    ``X-Repro-Idempotency-Key`` header) lets a retried commit replay its
    original outcome instead of double-counting; executors use the lease id.
    """

    executor_id: str
    lease_id: str | None
    keys: list
    records: list[GroundTruthRecord]
    idempotency_key: str | None = None

    def __post_init__(self) -> None:
        _require(
            len(self.keys) == len(self.records),
            f"commit carries {len(self.keys)} keys but "
            f"{len(self.records)} records",
        )


@dataclass(frozen=True)
class FleetGraphResponse(WireMessage):
    """``GET /v1/fleet/graph/<fp>``: one :func:`graph_to_wire` payload."""

    graph: dict


@dataclass(frozen=True)
class FleetStatusResponse(WireMessage):
    """``GET /v1/fleet``: the dispatcher's census (executor rows plus
    pending/leased queue depths)."""

    executors: list
    pending: int
    leased: int


@dataclass(frozen=True)
class FleetDeregisterResponse(WireMessage):
    """``POST /v1/fleet/deregister``: whether the executor was known."""

    deregistered: bool


# --------------------------------------------------------- the endpoint table
@dataclass(frozen=True)
class Endpoint:
    """One route: what the server matches and what the client calls.

    ``path`` is a template under :data:`API_PREFIX` (``{job_id}`` marks a
    path argument); ``query`` names the numeric query parameters the route
    reads; ``retry`` marks calls a client may repeat after a lost response
    (reads, and writes that replay by idempotency key or by id).
    """

    name: str
    verb: str
    path: str
    request: type[WireMessage] | None
    response: type[WireMessage]
    summary: str
    query: tuple[str, ...] = ()
    retry: bool = False

    def url(self, **args) -> str:
        """Path and query string of one call, relative to the prefix."""
        query = "&".join(
            f"{name}={args[name]}" for name in self.query if name in args
        )
        return self.path.format(**args) + (f"?{query}" if query else "")


#: every route of the ``/v1`` API, by name.  The server dispatches on it, the
#: clients call through it, ``docs/ARCHITECTURE.md`` lists it (a test keeps
#: the two equal): adding an endpoint is a message dataclass and a row here,
#: plus the ``_<name>`` function that answers it.
ENDPOINTS: dict[str, Endpoint] = {
    row.name: row
    for row in (
        Endpoint("health", "GET", "/health", None, HealthResponse,
                 "liveness + protocol version", retry=True),
        Endpoint("submit", "POST", "/jobs", SubmitRequest, SubmitResponse,
                 "submit one spec (`{\"request\": ...}`) or a batch "
                 "(`{\"requests\": [...]}`)", retry=True),
        Endpoint("jobs", "GET", "/jobs", None, JobsResponse,
                 "list job snapshots (submission order)", retry=True),
        Endpoint("job", "GET", "/jobs/{job_id}", None, JobSnapshot,
                 "one consistent job snapshot", retry=True),
        Endpoint("result", "GET", "/jobs/{job_id}/result", None,
                 ResultResponse, "long-poll for the result (bounded rounds)",
                 query=("timeout",), retry=True),
        Endpoint("events", "GET", "/jobs/{job_id}/events", None,
                 EventBatch, "long-poll the live progress-event stream",
                 query=("since", "timeout"), retry=True),
        Endpoint("cancel", "POST", "/jobs/{job_id}/cancel", None,
                 CancelResponse, "PENDING drop / cooperative RUNNING cancel"),
        Endpoint("drain", "POST", "/drain", None, DrainResponse,
                 "long-poll until every job is terminal",
                 query=("timeout",), retry=True),
        Endpoint("metrics", "GET", "/metrics", None, MetricsResponse,
                 "flat scrape of the server's metrics registry", retry=True),
        Endpoint("fleet", "GET", "/fleet", None, FleetStatusResponse,
                 "fleet census (executors, leases, queue depths)", retry=True),
        Endpoint("fleet_graph", "GET", "/fleet/graph/{fingerprint}", None,
                 FleetGraphResponse, "graph arrays for remote executors",
                 retry=True),
        Endpoint("fleet_register", "POST", "/fleet/register",
                 FleetRegisterRequest, FleetRegisterResponse,
                 "join (or rejoin) the profiling fleet", retry=True),
        Endpoint("fleet_heartbeat", "POST", "/fleet/heartbeat",
                 FleetHeartbeatRequest, FleetHeartbeatResponse,
                 "liveness beat + lease renewal"),
        Endpoint("fleet_claim", "POST", "/fleet/claim", FleetClaimRequest,
                 ClaimGrant, "long-poll work pull (leased candidate batch)"),
        Endpoint("fleet_commit", "POST", "/fleet/commit", FleetCommitRequest,
                 CommitOutcome, "deliver finished records (idempotent)",
                 retry=True),
        Endpoint("fleet_deregister", "POST", "/fleet/deregister",
                 FleetHeartbeatRequest, FleetDeregisterResponse,
                 "graceful fleet exit"),
    )
}


def match_endpoint(verb: str, path: str) -> tuple[Endpoint, dict]:
    """The route one request line names, with its path arguments."""
    parts = [part for part in path.split("/") if part]
    for endpoint in ENDPOINTS.values():
        slots = (API_PREFIX + endpoint.path).split("/")[1:]
        if verb != endpoint.verb or len(parts) != len(slots):
            continue
        pairs = list(zip(slots, parts, strict=True))
        if all(slot[0] == "{" or slot == part for slot, part in pairs):
            return endpoint, {s[1:-1]: p for s, p in pairs if s[0] == "{"}
    raise UnknownJobError(
        f"unknown endpoint {verb} {path!r} (see {API_PREFIX}/...)"
    )
