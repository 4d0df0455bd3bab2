"""Versioned wire protocol of the navigation serving transport.

Everything that crosses the socket is defined here — request/response
dataclasses with ``to_wire``/``from_wire`` JSON mappings, the typed error
envelope that carries :mod:`repro.errors` across processes, and the two
transport headers — so :mod:`.server` and :mod:`.client` can only disagree
with each other by disagreeing with this module.

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
from dataclasses import dataclass, field

import numpy as np

from repro.config.settings import TaskSpec
from repro.errors import (
    ConfigError,
    ExplorationError,
    GraphError,
    JobCancelled,
    JobFailedError,
    ProtocolError,
    ReproError,
    ServerStoppingError,
    ServingError,
    UnknownExecutorError,
    UnknownJobError,
)
from repro.graphs.csr import CSRGraph

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
    "check_protocol",
    "task_to_wire",
    "task_from_wire",
    "graph_to_wire",
    "graph_from_wire",
    "SubmitRequest",
    "SubmitResponse",
    "ResultResponse",
    "CancelResponse",
    "DrainResponse",
    "EventsResponse",
    "MetricsResponse",
    "FleetRegisterRequest",
    "FleetRegisterResponse",
    "FleetHeartbeatRequest",
    "FleetHeartbeatResponse",
    "FleetClaimRequest",
    "FleetClaimResponse",
    "FleetCommitRequest",
    "FleetCommitResponse",
    "FleetGraphResponse",
    "FleetStatusResponse",
    "FleetDeregisterResponse",
    "HealthResponse",
]

#: wire-format version; embedded in the URL namespace (``/v1``) and echoed
#: in every response body.  Bump on any incompatible payload change.
PROTOCOL_VERSION = 1

#: URL prefix every endpoint lives under.
API_PREFIX = f"/v{PROTOCOL_VERSION}"

#: names the fair-share lane of a request that does not carry its own
#: ``tenant`` field (the request body wins when both are present).
TENANT_HEADER = "X-Repro-Tenant"

#: submit-retry dedup key; scoped per tenant server-side.
IDEMPOTENCY_HEADER = "X-Repro-Idempotency-Key"

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


def check_protocol(payload: dict) -> None:
    """Reject bodies from a different protocol version (missing = current)."""
    version = payload.get("protocol", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: server speaks {PROTOCOL_VERSION}, "
            f"request carries {version!r}"
        )


# ------------------------------------------------------- fleet wire payloads
#: the comparable TaskSpec fields — exactly the set ``candidate_key`` hashes,
#: so a task that round-trips the wire lands on the same candidate keys.
_TASK_WIRE_FIELDS = tuple(
    f.name for f in dataclasses.fields(TaskSpec) if f.compare
)


def task_to_wire(task: TaskSpec) -> dict:
    """JSON-friendly encoding of a :class:`TaskSpec` (comparable fields)."""
    return {name: getattr(task, name) for name in _TASK_WIRE_FIELDS}


def task_from_wire(data: dict) -> TaskSpec:
    """Inverse of :func:`task_to_wire`; :class:`ProtocolError` on bad shape."""
    if not isinstance(data, dict):
        raise ProtocolError("task payload must be a JSON object")
    try:
        return TaskSpec(**{name: data[name] for name in _TASK_WIRE_FIELDS})
    except KeyError as exc:
        raise ProtocolError(f"task payload missing field {exc}") from None
    except TypeError as exc:
        raise ProtocolError(f"malformed task payload: {exc}") from None


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


# --------------------------------------------------------- request dataclasses
@dataclass(frozen=True)
class SubmitRequest:
    """``POST /v1/jobs`` body: one or more request specs to enqueue.

    ``specs`` are :meth:`NavigationRequest.to_dict` payloads (the job-file
    format).  ``idempotency_key`` may also arrive via the header; the body
    field wins.  A single-spec submit and a batch share one shape — the
    response mirrors whichever arity was sent.
    """

    specs: list[dict]
    idempotency_key: str | None = None
    batch: bool = False

    def to_wire(self) -> dict:
        out: dict = {"protocol": PROTOCOL_VERSION}
        if self.batch:
            out["requests"] = self.specs
        else:
            out["request"] = self.specs[0]
        if self.idempotency_key is not None:
            out["idempotency_key"] = self.idempotency_key
        return out

    @classmethod
    def from_wire(cls, payload: dict, *, header_key: str | None = None):
        check_protocol(payload)
        if "request" in payload:
            specs, batch = [payload["request"]], False
        elif "requests" in payload:
            specs, batch = payload["requests"], True
            if not isinstance(specs, list):
                raise ProtocolError("'requests' must be a JSON list")
        else:
            raise ProtocolError(
                "submit body needs a 'request' object or a 'requests' list"
            )
        for spec in specs:
            if not isinstance(spec, dict):
                raise ProtocolError("every request spec must be a JSON object")
        key = payload.get("idempotency_key", header_key)
        if key is not None and not isinstance(key, str):
            raise ProtocolError("idempotency_key must be a string")
        return cls(specs=specs, idempotency_key=key, batch=batch)


# -------------------------------------------------------- response dataclasses
@dataclass(frozen=True)
class SubmitResponse:
    """Submit outcome: the accepted job id(s).

    ``deduplicated`` is ``True`` when an idempotency key matched a previous
    submit and the original ids were replayed (nothing was enqueued).
    """

    job_ids: list[str]
    batch: bool = False
    deduplicated: bool = False

    def to_wire(self) -> dict:
        out: dict = {
            "protocol": PROTOCOL_VERSION,
            "deduplicated": self.deduplicated,
        }
        if self.batch:
            out["job_ids"] = self.job_ids
        else:
            out["job_id"] = self.job_ids[0]
        return out

    @classmethod
    def from_wire(cls, payload: dict) -> "SubmitResponse":
        check_protocol(payload)
        if "job_ids" in payload:
            return cls(
                job_ids=list(payload["job_ids"]),
                batch=True,
                deduplicated=payload.get("deduplicated", False),
            )
        if "job_id" not in payload:
            raise ProtocolError("submit response carries no job id")
        return cls(
            job_ids=[payload["job_id"]],
            deduplicated=payload.get("deduplicated", False),
        )


@dataclass(frozen=True)
class ResultResponse:
    """Long-poll result round: terminal payload or a keep-polling status.

    ``done=False`` means the wait timed out server-side with the job still
    live (``status`` says where it is) — the client simply opens the next
    round.  ``done=True`` carries exactly one of ``result`` (a
    :meth:`JobResult.to_dict` payload) or ``error`` (an error envelope for
    FAILED/CANCELLED jobs, decoded client-side into the same exception the
    in-process path raises).
    """

    done: bool
    status: str
    result: dict | None = None
    error: dict | None = None

    def to_wire(self) -> dict:
        out: dict = {
            "protocol": PROTOCOL_VERSION,
            "done": self.done,
            "status": self.status,
        }
        if self.result is not None:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        return out

    @classmethod
    def from_wire(cls, payload: dict) -> "ResultResponse":
        check_protocol(payload)
        if "done" not in payload or "status" not in payload:
            raise ProtocolError("result response needs 'done' and 'status'")
        return cls(
            done=payload["done"],
            status=payload["status"],
            result=payload.get("result"),
            error=payload.get("error"),
        )


@dataclass(frozen=True)
class CancelResponse:
    """``POST /v1/jobs/<id>/cancel`` outcome (mirrors ``server.cancel``)."""

    cancelled: bool

    def to_wire(self) -> dict:
        return {"protocol": PROTOCOL_VERSION, "cancelled": self.cancelled}

    @classmethod
    def from_wire(cls, payload: dict) -> "CancelResponse":
        check_protocol(payload)
        return cls(cancelled=bool(payload.get("cancelled")))


@dataclass(frozen=True)
class DrainResponse:
    """One drain round: every job's snapshot plus whether all are terminal."""

    done: bool
    jobs: list[dict] = field(default_factory=list)

    def to_wire(self) -> dict:
        return {
            "protocol": PROTOCOL_VERSION,
            "done": self.done,
            "jobs": self.jobs,
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "DrainResponse":
        check_protocol(payload)
        return cls(
            done=bool(payload.get("done")), jobs=list(payload.get("jobs", []))
        )


@dataclass(frozen=True)
class EventsResponse:
    """``GET /v1/jobs/<id>/events``: one long-poll round of the job's
    progress-event stream.

    ``events`` are :meth:`JobProgressEvent.to_dict` payloads in sequence
    order; ``next_seq`` is the ``since=`` of the next round (resumption
    across client disconnects rides this number); ``gap`` counts events
    the server's ring buffer dropped before the first one returned; and
    ``done`` means the stream has ended — the job is terminal and its
    terminal event is in (or before) this batch, so the client stops
    re-arming.
    """

    done: bool
    next_seq: int
    gap: int = 0
    events: list[dict] = field(default_factory=list)

    def to_wire(self) -> dict:
        return {
            "protocol": PROTOCOL_VERSION,
            "done": self.done,
            "next_seq": self.next_seq,
            "gap": self.gap,
            "events": self.events,
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "EventsResponse":
        check_protocol(payload)
        if "done" not in payload or "next_seq" not in payload:
            raise ProtocolError("events response needs 'done' and 'next_seq'")
        return cls(
            done=bool(payload["done"]),
            next_seq=int(payload["next_seq"]),
            gap=int(payload.get("gap", 0)),
            events=list(payload.get("events", [])),
        )


@dataclass(frozen=True)
class MetricsResponse:
    """``GET /v1/metrics``: one flat name -> value scrape of the server's
    :class:`~repro.serving.metrics.MetricsRegistry` (counters and gauges
    share the namespace; gauges are evaluated at scrape time)."""

    metrics: dict

    def to_wire(self) -> dict:
        return {"protocol": PROTOCOL_VERSION, "metrics": self.metrics}

    @classmethod
    def from_wire(cls, payload: dict) -> "MetricsResponse":
        check_protocol(payload)
        if "metrics" not in payload:
            raise ProtocolError("metrics response carries no 'metrics'")
        return cls(metrics=dict(payload["metrics"]))


# --------------------------------------------------------- fleet dataclasses
@dataclass(frozen=True)
class FleetRegisterRequest:
    """``POST /v1/fleet/register`` body: join (or rejoin) the fleet.

    ``executor_id`` is ``None`` on first contact (the server assigns one)
    and carries the previously-assigned id on re-registration after a
    server restart or heartbeat gap, so the executor keeps its ring arcs.
    """

    workers: int = 1
    executor_id: str | None = None

    def to_wire(self) -> dict:
        out: dict = {"protocol": PROTOCOL_VERSION, "workers": self.workers}
        if self.executor_id is not None:
            out["executor_id"] = self.executor_id
        return out

    @classmethod
    def from_wire(cls, payload: dict) -> "FleetRegisterRequest":
        check_protocol(payload)
        workers = payload.get("workers", 1)
        if not isinstance(workers, int) or workers < 1:
            raise ProtocolError("workers must be a positive integer")
        executor_id = payload.get("executor_id")
        if executor_id is not None and not isinstance(executor_id, str):
            raise ProtocolError("executor_id must be a string")
        return cls(workers=workers, executor_id=executor_id)


@dataclass(frozen=True)
class FleetRegisterResponse:
    """Registration grant: the executor's id and its timing contract."""

    executor_id: str
    heartbeat_seconds: float
    lease_ttl: float

    def to_wire(self) -> dict:
        return {
            "protocol": PROTOCOL_VERSION,
            "executor_id": self.executor_id,
            "heartbeat_seconds": self.heartbeat_seconds,
            "lease_ttl": self.lease_ttl,
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "FleetRegisterResponse":
        check_protocol(payload)
        try:
            return cls(
                executor_id=payload["executor_id"],
                heartbeat_seconds=float(payload["heartbeat_seconds"]),
                lease_ttl=float(payload["lease_ttl"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(
                f"malformed register response: {exc}"
            ) from None


@dataclass(frozen=True)
class FleetHeartbeatRequest:
    """``POST /v1/fleet/heartbeat`` body: liveness + lease renewal."""

    executor_id: str

    def to_wire(self) -> dict:
        return {
            "protocol": PROTOCOL_VERSION,
            "executor_id": self.executor_id,
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "FleetHeartbeatRequest":
        check_protocol(payload)
        executor_id = payload.get("executor_id")
        if not isinstance(executor_id, str):
            raise ProtocolError("heartbeat needs a string executor_id")
        return cls(executor_id=executor_id)


@dataclass(frozen=True)
class FleetHeartbeatResponse:
    """Heartbeat ack: how many of the executor's leases were renewed."""

    renewed: int

    def to_wire(self) -> dict:
        return {"protocol": PROTOCOL_VERSION, "renewed": self.renewed}

    @classmethod
    def from_wire(cls, payload: dict) -> "FleetHeartbeatResponse":
        check_protocol(payload)
        return cls(renewed=int(payload.get("renewed", 0)))


@dataclass(frozen=True)
class FleetClaimRequest:
    """``POST /v1/fleet/claim`` body: one work-pull long-poll round."""

    executor_id: str
    max_candidates: int | None = None
    timeout: float = 0.0

    def to_wire(self) -> dict:
        out: dict = {
            "protocol": PROTOCOL_VERSION,
            "executor_id": self.executor_id,
            "timeout": self.timeout,
        }
        if self.max_candidates is not None:
            out["max_candidates"] = self.max_candidates
        return out

    @classmethod
    def from_wire(cls, payload: dict) -> "FleetClaimRequest":
        check_protocol(payload)
        executor_id = payload.get("executor_id")
        if not isinstance(executor_id, str):
            raise ProtocolError("claim needs a string executor_id")
        max_candidates = payload.get("max_candidates")
        if max_candidates is not None and (
            not isinstance(max_candidates, int) or max_candidates < 1
        ):
            raise ProtocolError("max_candidates must be a positive integer")
        try:
            timeout = float(payload.get("timeout", 0.0))
        except (TypeError, ValueError):
            raise ProtocolError("timeout must be a number") from None
        return cls(
            executor_id=executor_id,
            max_candidates=max_candidates,
            timeout=timeout,
        )


@dataclass(frozen=True)
class FleetClaimResponse:
    """One claim outcome: a leased batch, or empty (``lease_id`` null).

    ``task`` is a :func:`task_to_wire` payload and ``configs`` are
    :meth:`TrainingConfig.to_dict` payloads, key-aligned with ``keys``.
    ``fingerprint`` names the graph: executors resolve it locally by
    dataset name when the fingerprints match, else fetch it from
    ``/v1/fleet/graph/<fingerprint>``.
    """

    lease_id: str | None
    ttl: float
    task: dict | None = None
    dataset: str | None = None
    fingerprint: str | None = None
    keys: list = field(default_factory=list)
    configs: list = field(default_factory=list)

    def to_wire(self) -> dict:
        return {
            "protocol": PROTOCOL_VERSION,
            "lease_id": self.lease_id,
            "ttl": self.ttl,
            "task": self.task,
            "dataset": self.dataset,
            "fingerprint": self.fingerprint,
            "keys": list(self.keys),
            "configs": list(self.configs),
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "FleetClaimResponse":
        check_protocol(payload)
        if "lease_id" not in payload or "ttl" not in payload:
            raise ProtocolError("claim response needs 'lease_id' and 'ttl'")
        keys = list(payload.get("keys", []))
        configs = list(payload.get("configs", []))
        if len(keys) != len(configs):
            raise ProtocolError(
                "claim response keys/configs are not the same length"
            )
        return cls(
            lease_id=payload["lease_id"],
            ttl=float(payload["ttl"]),
            task=payload.get("task"),
            dataset=payload.get("dataset"),
            fingerprint=payload.get("fingerprint"),
            keys=keys,
            configs=configs,
        )

    @property
    def empty(self) -> bool:
        return self.lease_id is None


@dataclass(frozen=True)
class FleetCommitRequest:
    """``POST /v1/fleet/commit`` body: finished records coming home.

    ``records`` are ``record_to_dict`` payloads, key-aligned with ``keys``.
    ``idempotency_key`` (body field wins over the shared
    ``X-Repro-Idempotency-Key`` header) lets a retried commit replay its
    original outcome instead of double-counting; executors use the lease id.
    """

    executor_id: str
    lease_id: str | None
    keys: list
    records: list
    idempotency_key: str | None = None

    def to_wire(self) -> dict:
        out: dict = {
            "protocol": PROTOCOL_VERSION,
            "executor_id": self.executor_id,
            "lease_id": self.lease_id,
            "keys": list(self.keys),
            "records": list(self.records),
        }
        if self.idempotency_key is not None:
            out["idempotency_key"] = self.idempotency_key
        return out

    @classmethod
    def from_wire(
        cls, payload: dict, *, header_key: str | None = None
    ) -> "FleetCommitRequest":
        check_protocol(payload)
        executor_id = payload.get("executor_id")
        if not isinstance(executor_id, str):
            raise ProtocolError("commit needs a string executor_id")
        keys = payload.get("keys")
        records = payload.get("records")
        if not isinstance(keys, list) or not isinstance(records, list):
            raise ProtocolError("commit needs 'keys' and 'records' lists")
        if len(keys) != len(records):
            raise ProtocolError(
                f"commit carries {len(keys)} keys but {len(records)} records"
            )
        for record in records:
            if not isinstance(record, dict):
                raise ProtocolError("every record must be a JSON object")
        key = payload.get("idempotency_key", header_key)
        if key is not None and not isinstance(key, str):
            raise ProtocolError("idempotency_key must be a string")
        return cls(
            executor_id=executor_id,
            lease_id=payload.get("lease_id"),
            keys=keys,
            records=records,
            idempotency_key=key,
        )


@dataclass(frozen=True)
class FleetCommitResponse:
    """Commit outcome: accepted vs duplicate counts, and whether this
    response was replayed from the idempotency table."""

    accepted: int
    duplicates: int
    replayed: bool = False

    def to_wire(self) -> dict:
        return {
            "protocol": PROTOCOL_VERSION,
            "accepted": self.accepted,
            "duplicates": self.duplicates,
            "replayed": self.replayed,
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "FleetCommitResponse":
        check_protocol(payload)
        if "accepted" not in payload:
            raise ProtocolError("commit response carries no 'accepted'")
        return cls(
            accepted=int(payload["accepted"]),
            duplicates=int(payload.get("duplicates", 0)),
            replayed=bool(payload.get("replayed", False)),
        )


@dataclass(frozen=True)
class FleetGraphResponse:
    """``GET /v1/fleet/graph/<fp>``: one :func:`graph_to_wire` payload."""

    graph: dict

    def to_wire(self) -> dict:
        return {"protocol": PROTOCOL_VERSION, "graph": self.graph}

    @classmethod
    def from_wire(cls, payload: dict) -> "FleetGraphResponse":
        check_protocol(payload)
        if "graph" not in payload:
            raise ProtocolError("graph response carries no 'graph'")
        return cls(graph=dict(payload["graph"]))


@dataclass(frozen=True)
class FleetStatusResponse:
    """``GET /v1/fleet``: the dispatcher's census (executor rows plus
    pending/leased queue depths)."""

    executors: list
    pending: int
    leased: int

    def to_wire(self) -> dict:
        return {
            "protocol": PROTOCOL_VERSION,
            "executors": list(self.executors),
            "pending": self.pending,
            "leased": self.leased,
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "FleetStatusResponse":
        check_protocol(payload)
        if "executors" not in payload:
            raise ProtocolError("fleet status carries no 'executors'")
        return cls(
            executors=list(payload["executors"]),
            pending=int(payload.get("pending", 0)),
            leased=int(payload.get("leased", 0)),
        )


@dataclass(frozen=True)
class FleetDeregisterResponse:
    """``POST /v1/fleet/deregister``: whether the executor was known."""

    deregistered: bool

    def to_wire(self) -> dict:
        return {
            "protocol": PROTOCOL_VERSION,
            "deregistered": self.deregistered,
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "FleetDeregisterResponse":
        check_protocol(payload)
        return cls(deregistered=bool(payload.get("deregistered")))


@dataclass(frozen=True)
class HealthResponse:
    """``GET /v1/health``: liveness plus the resident job count."""

    ok: bool
    jobs: int

    def to_wire(self) -> dict:
        return {
            "protocol": PROTOCOL_VERSION,
            "ok": self.ok,
            "jobs": self.jobs,
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "HealthResponse":
        check_protocol(payload)
        return cls(
            ok=bool(payload.get("ok")), jobs=int(payload.get("jobs", 0))
        )
