"""The HTTP transport of :class:`~repro.serving.client.NavigationClient`.

:class:`RemoteNavigationClient` inherits every tenant call and the
:class:`~repro.serving.client.JobHandle` it hands out; it only answers the
transport primitives by speaking the :mod:`.protocol` wire format to a
:class:`~repro.serving.transport.server.NavigationHTTPServer` (stdlib
``http.client``, one kept-alive HTTP/1.1 connection per calling thread).
Callers swap the constructor and keep the code — typed errors included,
since ``_call`` re-raises the server's error envelopes as the
:mod:`repro.errors` types the in-process path raises.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import uuid

from repro.errors import ProtocolError, ServingError
from repro.serving.client import NavigationClient
from repro.serving.events import EventBatch
from repro.serving.transport.protocol import (
    API_PREFIX,
    ENDPOINTS,
    IDEMPOTENCY_HEADER,
    MAX_POLL_SECONDS,
    PROTOCOL_VERSION,
    TENANT_HEADER,
    SubmitRequest,
    decode_error,
)
from repro.serving.types import JobResult, JobSnapshot, NavigationRequest

__all__ = ["RemoteNavigationClient"]


class _Connection(http.client.HTTPConnection):
    """Closes its socket when the thread or client owning it goes away."""

    def __del__(self) -> None:
        self.close()


class RemoteNavigationClient(NavigationClient):
    """A named tenant submitting navigation requests over the network.

    Parameters
    ----------
    url:
        Server base URL, e.g. ``http://127.0.0.1:8765`` (the ``/v1``
        namespace is appended here).
    tenant:
        Fair-share lane every request from this client rides (sent as the
        ``X-Repro-Tenant`` header; a request's own ``tenant`` field wins).
    request_timeout:
        Socket-level timeout for one HTTP round trip.  Long-poll rounds add
        their poll window on top, so a slow result never trips it.
    retries:
        Connection-level retries (server unreachable, response lost) for
        idempotent calls — GETs, and submits keyed for replay.
    """

    def __init__(
        self,
        url: str,
        *,
        tenant: str = "",
        request_timeout: float = 30.0,
        retries: int = 2,
    ) -> None:
        if retries < 0:
            raise ServingError("retries must be non-negative")
        self.url = url.rstrip("/")
        scheme, sep, rest = self.url.partition("://")
        if not sep or scheme.lower() != "http":
            raise ServingError(f"server URL must be http://host[:port], got {url!r}")
        host, _, base = rest.partition("/")
        self._host = host
        self._prefix = f"/{base}{API_PREFIX}" if base else API_PREFIX
        self.tenant = tenant
        self.request_timeout = request_timeout
        self.retries = retries
        # One kept-alive connection per calling thread: a connection carries
        # one request at a time, and per-thread storage needs no lock.
        self._local = threading.local()

    # -------------------------------------------------------------- plumbing
    def _call(
        self,
        method: str,
        path: str,
        *,
        body: dict | None = None,
        headers: dict[str, str] | None = None,
        retry: bool = False,
        extra_timeout: float = 0.0,
    ) -> dict:
        """One HTTP round trip; returns the parsed JSON response body.

        Server-reported failures arrive as typed error envelopes and are
        re-raised as the corresponding :mod:`repro.errors` exception.
        Connection-level failures raise :class:`ServingError` after
        ``retries`` attempts (only when ``retry`` — the call must be
        idempotent).
        """
        data = None if body is None else json.dumps(body).encode("utf-8")
        fields = {"Content-Type": "application/json"}
        if self.tenant:
            fields[TENANT_HEADER] = self.tenant
        fields.update(headers or {})
        target = f"{self._prefix}{path}"
        timeout = self.request_timeout + extra_timeout

        attempts = (self.retries if retry else 0) + 1
        last_exc: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(min(0.05 * 2**attempt, 1.0))
            try:
                status, raw = self._exchange(method, target, data, fields, timeout)
                if 200 <= status < 300:
                    payload = json.loads(raw.decode("utf-8"))
                    break
            except (OSError, http.client.HTTPException, ValueError) as exc:
                last_exc = exc
                continue
            # The server replied: decode its typed envelope (no retry — the
            # request was received and rejected).
            try:
                envelope = json.loads(raw.decode("utf-8"))
            except ValueError:
                raise ProtocolError(
                    f"non-protocol error response (HTTP {status})"
                ) from None
            raise decode_error(envelope.get("error", {})) from None
        else:
            raise ServingError(
                f"cannot reach navigation server at {self.url}: {last_exc}"
            ) from last_exc
        version = payload.get("protocol")
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version mismatch: client speaks "
                f"{PROTOCOL_VERSION}, server replied {version!r}"
            )
        return payload

    def _exchange(
        self, method: str, target: str, data, fields: dict, timeout: float
    ) -> tuple[int, bytes]:
        """Send one request on this thread's connection; ``(status, body)``.

        A kept connection the server closed while it sat idle fails the
        next request before any response byte arrives — the server never
        read it — so that request is resent once on a fresh connection (as
        ``xmlrpc.client.Transport.request`` does).  Every other failure
        propagates to ``_call``'s ``retry`` rule.  ``http.client`` drops
        the connection after a reply that says it closes (every error
        reply does) and opens a fresh one for the next request.
        """
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = _Connection(self._host)
        reused = conn.sock is not None
        conn.timeout = timeout
        if reused:
            conn.sock.settimeout(timeout)
        try:
            try:
                conn.request(method, target, body=data, headers=fields)
                response = conn.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                conn.close()
                conn.request(method, target, body=data, headers=fields)
                response = conn.getresponse()
            raw = response.read()
        except BaseException:
            conn.close()
            raise
        return response.status, raw

    def _rpc(self, name: str, request=None, *, wait: float = 0.0, **args):
        """One call of the :data:`ENDPOINTS` row ``name``: ``request`` is
        its request message, ``args`` fill the row's path and query, and
        the reply comes back decoded as the row's response message.
        ``wait`` is how long the server may hold the call open."""
        endpoint = ENDPOINTS[name]
        key = getattr(request, "idempotency_key", None)
        payload = self._call(
            endpoint.verb,
            endpoint.url(**args),
            body=None if request is None else request.to_wire(),
            headers=None if key is None else {IDEMPOTENCY_HEADER: key},
            retry=endpoint.retry,
            extra_timeout=wait,
        )
        return endpoint.response.from_wire(payload)

    def _long_poll(self, name: str, timeout: float | None, **args):
        """One call the server may hold open for ``timeout`` — capped at
        ``MAX_POLL_SECONDS``, its ceiling for one request; the inherited
        ``result`` / ``drain`` / ``watch`` chain rounds for longer waits."""
        window = MAX_POLL_SECONDS if timeout is None else timeout
        window = max(0.0, min(window, MAX_POLL_SECONDS))
        return self._rpc(name, wait=window, timeout=f"{window:.3f}", **args)

    def health(self) -> dict:
        """Liveness probe; raises :class:`ServingError` when unreachable."""
        return self._rpc("health").to_wire()

    # ------------------------------------------------- transport primitives
    def _submit_requests(self, requests: list[NavigationRequest]) -> list[str]:
        """One POST and one idempotency key per call: a retry after a lost
        response replays the same key and re-lands on the original jobs, so
        a batch can never double-enqueue, wholly or partially."""
        request = SubmitRequest(
            specs=[r.to_dict() for r in requests],
            idempotency_key=str(uuid.uuid4()),
            batch=True,
        )
        return self._rpc("submit", request).job_ids

    def _poll_result(self, job_id: str, window: float | None) -> JobResult | None:
        response = self._long_poll("result", window, job_id=job_id)
        if not response.done:
            return None
        if response.error is not None:
            raise decode_error(response.error)
        if response.result is None:
            raise ProtocolError(
                f"terminal result response for {job_id} carries "
                "neither result nor error"
            )
        return response.result

    def _poll_drain(self, window: float | None) -> list[JobSnapshot] | None:
        response = self._long_poll("drain", window)
        return response.jobs if response.done else None

    def snapshot(self, job_id: str) -> JobSnapshot:
        return self._rpc("job", job_id=job_id)

    def events(
        self, job_id: str, since: int = 0, timeout: float | None = None
    ) -> EventBatch:
        if since < 0:
            raise ServingError("since must be non-negative")
        return self._long_poll("events", timeout, job_id=job_id, since=since)

    def cancel(self, job_id: str) -> bool:
        return self._rpc("cancel", job_id=job_id).cancelled

    def metrics(self) -> dict:
        return self._rpc("metrics").metrics

    def jobs(self) -> list[JobSnapshot]:
        return self._rpc("jobs").jobs
