"""The tenant surface of the serving layer, written once.

A :class:`NavigationClient` is a tenant's handle on a shared server: it
builds requests from plain keyword arguments, tags them with the tenant
name, and wraps submitted job ids in :class:`JobHandle`\\ s that poll,
block, stream and cancel without the caller touching server internals.

Everything a tenant can do is defined here, over eight *transport
primitives* — ``_submit_requests``, ``_poll_result``, ``_poll_drain``,
``snapshot``, ``events``, ``cancel``, ``metrics``, ``jobs`` — that this
class answers by calling its in-process
:class:`~repro.serving.server.NavigationServer`.  A network client
(:class:`~repro.serving.transport.client.RemoteNavigationClient`)
overrides exactly those eight and nothing else, so the two differ in
transport only.
"""

from __future__ import annotations

import functools
import time
from typing import Iterator

from repro.config.settings import TaskSpec
from repro.errors import ServingError
from repro.serving.events import EventBatch, JobProgressEvent, watch_events
from repro.serving.server import NavigationServer
from repro.serving.types import (
    JobResult,
    JobSnapshot,
    JobStatus,
    NavigationRequest,
)

__all__ = ["JobHandle", "NavigationClient"]


def _rounds(timeout: float | None) -> Iterator[float | None]:
    """Wait windows of successive poll rounds until ``timeout`` is spent
    (a transport may end a round early).  Always at least one, so
    ``timeout=0`` is the non-blocking "return it if it's ready" probe."""
    if timeout is None:
        while True:
            yield None
    deadline = time.monotonic() + timeout
    yield timeout
    while time.monotonic() < deadline:
        yield deadline - time.monotonic()


class JobHandle:
    """One submitted job: a client plus a job id.

    ``status`` and ``done`` both derive from one :meth:`snapshot` call — a
    single consistent registry read under the server lock — instead of
    separate lookups that could interleave with the job's own terminal
    transition.
    """

    def __init__(self, client: "NavigationClient", job_id: str) -> None:
        self.client = client
        self.job_id = job_id

    def snapshot(self) -> JobSnapshot:
        """Consistent point-in-time view of the job's observable state."""
        return self.client.snapshot(self.job_id)

    @property
    def status(self) -> JobStatus:
        return self.snapshot().status

    @property
    def done(self) -> bool:
        return self.snapshot().done

    def result(self, timeout: float | None = None) -> JobResult:
        """Block for the result; raises
        :class:`~repro.errors.JobFailedError` on FAILED jobs."""
        return self.client.result(self.job_id, timeout)

    def events(
        self, since: int = 0, timeout: float | None = None
    ) -> EventBatch:
        """One bounded read of the job's progress events (resume with the
        returned ``next_seq``)."""
        return self.client.events(self.job_id, since=since, timeout=timeout)

    def watch(self, since: int = 0) -> Iterator[JobProgressEvent]:
        """Stream progress events until the job's stream ends."""
        return self.client.watch(self.job_id, since=since)

    def cancel(self) -> bool:
        return self.client.cancel(self.job_id)

    def __repr__(self) -> str:
        # No status here: repr must stay cheap and non-raising, and status
        # is a network round trip on the far side of a transport.
        return f"JobHandle({self.job_id})"


class NavigationClient:
    """A named tenant submitting navigation requests to a shared server."""

    def __init__(self, server: NavigationServer, *, tenant: str = "") -> None:
        self.server = server
        self.tenant = tenant

    # ------------------------------------------------- transport primitives
    def _submit_requests(self, requests: list[NavigationRequest]) -> list[str]:
        """Enqueue the requests; job ids in request order."""
        return self.server.submit_many(requests)

    def _poll_result(self, job_id: str, window: float | None) -> JobResult | None:
        """Wait up to ``window`` for the job; its result, ``None`` while it
        is still running, or the typed error its outcome raises."""
        if not self.server.wait(job_id, window).done:
            return None
        return self.server.result(job_id, 0)

    def _poll_drain(self, window: float | None) -> list[JobSnapshot] | None:
        """Wait up to ``window`` for every accepted job to be terminal;
        their snapshots, or ``None`` while some are still live."""
        try:
            self.server.drain(window)
        except ServingError:
            return None
        return self.server.snapshots()

    def snapshot(self, job_id: str) -> JobSnapshot:
        """One consistent view of a job's observable state."""
        return self.server.snapshot(job_id)

    def events(
        self, job_id: str, since: int = 0, timeout: float | None = None
    ) -> EventBatch:
        """One long-poll round of a job's progress-event stream: events
        with ``seq >= since`` (waiting up to ``timeout`` for the first new
        one), the ``next_seq`` to resume from, the ring-drop ``gap``, and
        ``done`` once the stream has ended."""
        return self.server.events(job_id, since=since, timeout=timeout)

    def cancel(self, job_id: str) -> bool:
        """Cancel a job (PENDING drop / cooperative RUNNING cancel)."""
        return self.server.cancel(job_id)

    def metrics(self) -> dict:
        """One flat scrape of the server's metrics registry."""
        return self.server.metrics.snapshot()

    def jobs(self) -> list[JobSnapshot]:
        """Every accepted job's snapshot, in submission order."""
        return self.server.snapshots()

    # ------------------------------------------------------------------ API
    def _build(self, task: TaskSpec | NavigationRequest, **kwargs) -> NavigationRequest:
        if isinstance(task, NavigationRequest):
            return task
        # tenant routes fair-share scheduling and quotas; tag mirrors it for
        # human-readable job listings (callers may override either).
        kwargs.setdefault("tag", self.tenant)
        kwargs.setdefault("tenant", self.tenant)
        return NavigationRequest(task=task, **kwargs)

    def submit(
        self, task: TaskSpec | NavigationRequest, **kwargs
    ) -> JobHandle:
        """Submit one request (a :class:`TaskSpec` plus request kwargs, or a
        ready-made :class:`NavigationRequest`)."""
        request = self._build(task, **kwargs)
        (job_id,) = self._submit_requests([request])
        return JobHandle(self, job_id)

    def submit_many(
        self, tasks: list[TaskSpec | NavigationRequest], **kwargs
    ) -> list[JobHandle]:
        """Submit a batch; one handle per task, in order."""
        requests = [self._build(task, **kwargs) for task in tasks]
        return [
            JobHandle(self, job_id)
            for job_id in self._submit_requests(requests)
        ]

    def navigate(
        self,
        task: TaskSpec | NavigationRequest,
        *,
        timeout: float | None = None,
        **kwargs,
    ) -> JobResult:
        """Submit and block for the result (the one-call convenience)."""
        return self.submit(task, **kwargs).result(timeout)

    def navigate_many(
        self,
        tasks: list[TaskSpec | NavigationRequest],
        *,
        timeout: float | None = None,
        **kwargs,
    ) -> list[JobResult]:
        """Submit a batch and block for every result, in submission order."""
        handles = self.submit_many(tasks, **kwargs)
        return [handle.result(timeout) for handle in handles]

    def status(self, job_id: str) -> JobStatus:
        """Current lifecycle state of a job."""
        return self.snapshot(job_id).status

    def result(self, job_id: str, timeout: float | None = None) -> JobResult:
        """Block until the job finishes and return its result.

        Raises :class:`~repro.errors.JobFailedError` (with the server-side
        traceback) on FAILED jobs and :class:`ServingError` on
        cancellation or timeout.
        """
        for window in _rounds(timeout):
            result = self._poll_result(job_id, window)
            if result is not None:
                return result
        raise ServingError(f"timed out waiting for {job_id}")

    def watch(self, job_id: str, since: int = 0) -> Iterator[JobProgressEvent]:
        """Stream a job's progress events until its stream ends.

        Chained ``events`` rounds: each resumes at the previous
        ``next_seq``, so a dropped connection or a recreated client loses
        nothing the server's ring still holds — and anything the ring did
        drop surfaces as an explicit gap-marker event, not a silent skip.
        """
        return watch_events(
            functools.partial(self.events, job_id), job_id, since=since
        )

    def drain(self, timeout: float | None = None) -> list[JobSnapshot]:
        """Block until every accepted job is terminal; returns snapshots.
        Raises :class:`ServingError` on timeout."""
        for window in _rounds(timeout):
            jobs = self._poll_drain(window)
            if jobs is not None:
                return jobs
        raise ServingError("timed out draining the server")
