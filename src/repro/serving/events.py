"""Per-job progress events: the serving layer's live-introspection spine.

A served navigation job is minutes of Step-2 profiling behind a DONE/FAILED
poll — a black box.  This module makes the box transparent without making
it chatty: the server threads one *emit* callback alongside the job's
:class:`~repro.runtime.parallel.CancellationToken` (server →
``GNNavigator`` → ``SharedProfilingService`` → ``ProfilingService``), every
phase transition and profiling-batch completion lands as a typed
:class:`JobProgressEvent` in the job's bounded :class:`EventBuffer`, and
subscribers — local handles, the HTTP transport's long-poll endpoint, the
``repro watch`` CLI — read the buffer by monotonic sequence number.

Design rules:

* **Emission never blocks on consumers.**  The buffer is a ring: a slow (or
  absent) subscriber costs the producer one deque append, nothing more.
* **Sequence numbers are the resumption contract.**  Every event carries a
  per-job monotonic ``seq``; a reader that disconnects resumes with
  ``since=next_seq`` and misses nothing the ring still holds.  When the
  ring *has* dropped past ``since``, the read reports the gap size instead
  of silently skipping — :func:`gap_event` turns it into a visible marker.
* **Terminal events are ordered before terminal status.**  The server
  appends a job's terminal event *before* flipping ``job.status``, so a
  batch reporting ``done=True`` always already delivered the terminal
  event — watchers can stop on ``done`` without losing the ending.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.wire import WireMessage

__all__ = [
    "DEFAULT_POLL_SECONDS",
    "GAP_PHASE",
    "TERMINAL_PHASES",
    "EventBatch",
    "EventBuffer",
    "JobProgressEvent",
    "gap_event",
    "watch_events",
]

#: phase name of the synthetic marker injected where the ring dropped events.
GAP_PHASE = "gap"

#: how long one ``events(..., timeout=None)`` read waits for a new event.
#: Matches the transport's ``MAX_POLL_SECONDS`` so ``timeout=None`` means
#: "one polite long-poll round" on *both* handles — without it the
#: in-process default would be a non-blocking probe and a naive local
#: poll loop would busy-spin where the remote one parks.
DEFAULT_POLL_SECONDS = 30.0

#: event statuses after which a job emits nothing further.
TERMINAL_PHASES = frozenset({"done", "failed", "cancelled"})


@dataclass(frozen=True)
class JobProgressEvent:
    """One observable step of a served job's life.

    ``seq`` is assigned by the job's :class:`EventBuffer` (per-job,
    monotonic from 0).  ``phase`` names what happened (``queued``,
    ``started``, ``profiling``, ``explored``, ``training``, a terminal
    status name, or :data:`GAP_PHASE`); ``status`` is the job's lifecycle
    state at emission time.  The profiling counters are cumulative within
    the job's Step-2 profiling call: ``runs_done`` of ``runs_total`` unique
    candidates resolved so far, ``cache_hits`` of them served without a
    training run.  ``elapsed_s`` is measured from submission on the
    server's monotonic clock.
    """

    job_id: str
    phase: str
    status: str
    seq: int = 0
    batch_index: int | None = None
    runs_done: int = 0
    runs_total: int = 0
    cache_hits: int = 0
    best_objective: float | None = None
    elapsed_s: float = 0.0
    message: str = ""

    @property
    def terminal(self) -> bool:
        """Whether this event ends the stream (a watcher may stop here)."""
        return self.status in TERMINAL_PHASES

    def describe(self) -> str:
        """One human-readable progress line (the ``repro watch`` format)."""
        line = f"{self.job_id} [{self.status}] {self.phase}"
        if self.runs_total:
            line += f" {self.runs_done}/{self.runs_total} runs"
            if self.cache_hits:
                line += f" ({self.cache_hits} cached)"
        if self.best_objective is not None:
            line += f" best={self.best_objective:.4g}"
        line += f" +{self.elapsed_s:.1f}s"
        if self.message:
            line += f" — {self.message}"
        return line


@dataclass(frozen=True)
class EventBatch(WireMessage):
    """One read of a job's event stream: what both transports return (over
    HTTP, the body of one ``GET /v1/jobs/<id>/events`` long-poll round).

    ``events`` are in sequence order; ``next_seq`` is the ``since`` of the
    follow-up read; ``gap`` counts events the ring dropped between the
    requested ``since`` and the first event returned (0 = lossless);
    ``done`` means the job is terminal *and* everything it ever emitted has
    been delivered — a watcher stops, a poller stops re-arming.
    """

    events: list[JobProgressEvent]
    next_seq: int
    gap: int = 0
    done: bool = False


class EventBuffer:
    """Bounded per-job ring of events with monotonic sequence numbers.

    Appends assign ``seq`` and never block; once ``capacity`` is reached the
    oldest event is dropped (``dropped`` counts them, ``on_drop`` notifies
    the owner's metrics).  Readers poll :meth:`read`, which can wait on the
    internal condition until something lands past their ``since`` — the
    long-poll primitive both transports build on.
    """

    def __init__(
        self,
        capacity: int = 256,
        *,
        on_drop: Callable[[int], None] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("event buffer capacity must be at least 1")
        self.capacity = capacity
        self._on_drop = on_drop
        self._events: deque[JobProgressEvent] = deque()  # guarded-by: _cond
        self._cond = threading.Condition()
        self._next_seq = 0  # guarded-by: _cond

    @property
    def next_seq(self) -> int:
        """Sequence number the next appended event will carry."""
        with self._cond:
            return self._next_seq

    @property
    def start_seq(self) -> int:
        """Sequence number of the oldest event still retained."""
        with self._cond:
            return self._start_locked()

    @property
    def dropped(self) -> int:
        """Total events the ring has evicted to stay within capacity."""
        with self._cond:
            return self._start_locked()

    def _start_locked(self) -> int:  # holds: _cond
        return self._next_seq - len(self._events)

    def append(self, event: JobProgressEvent) -> JobProgressEvent:
        """Stamp ``event`` with the next seq, retain it, wake readers."""
        dropped = 0
        with self._cond:
            stamped = dataclasses.replace(event, seq=self._next_seq)
            self._next_seq += 1
            self._events.append(stamped)
            if len(self._events) > self.capacity:
                self._events.popleft()
                dropped = 1
            self._cond.notify_all()
        if dropped and self._on_drop is not None:
            # outside the lock: the drop hook (metrics) must not be able to
            # deadlock or slow the emission path under the buffer lock.
            self._on_drop(dropped)
        return stamped

    def keep_last(self) -> None:
        """Drop every retained event but the newest (a finished job's
        terminal one).  Readers see the rest as a gap, the same as events
        the ring overflowed; the drop is not a slow consumer's, so
        ``on_drop`` is not told."""
        with self._cond:
            while len(self._events) > 1:
                self._events.popleft()

    def read(
        self,
        since: int = 0,
        timeout: float | None = None,
        *,
        done: Callable[[], bool] | None = None,
    ) -> tuple[list[JobProgressEvent], int, int]:
        """Events with ``seq >= since``; ``(events, next_seq, gap)``.

        Blocks up to ``timeout`` seconds for the first new event (or for
        ``done()`` to flip, so a reader of a finished stream returns
        immediately instead of burning its whole window).  ``gap`` counts
        dropped events between ``since`` and the first one returned —
        including a ``since`` past the retention horizon entirely.
        """
        if since < 0:
            raise ValueError("since must be non-negative")
        with self._cond:
            if timeout is not None and timeout > 0:
                self._cond.wait_for(
                    lambda: self._next_seq > since
                    or (done is not None and done()),
                    timeout,
                )
            start = self._start_locked()
            gap = max(0, min(start, self._next_seq) - since)
            events = [e for e in self._events if e.seq >= since]
            return events, self._next_seq, gap


def gap_event(job_id: str, status: str, since: int, gap: int) -> JobProgressEvent:
    """The visible marker a watcher yields where the ring dropped events."""
    return JobProgressEvent(
        job_id=job_id,
        phase=GAP_PHASE,
        status=status,
        seq=since,
        message=f"{gap} events dropped; resuming at {since + gap}",
    )


def watch_events(
    fetch: Callable[..., EventBatch],
    job_id: str,
    *,
    since: int = 0,
    poll: float = 15.0,
) -> Iterator[JobProgressEvent]:
    """Stream a job's events until its stream ends, marking any gaps.

    ``fetch(since=, timeout=)`` is one bounded read — ``server.events`` via
    a local handle or ``GET /v1/jobs/<id>/events`` via the remote client —
    so the *same* generator drives both transports (and the CLI), and a
    dropped connection resumes losslessly from the last delivered seq.
    """
    seq = since
    while True:
        batch = fetch(since=seq, timeout=poll)
        if batch.gap:
            status = batch.events[0].status if batch.events else "running"
            yield gap_event(job_id, status, seq, batch.gap)
        yield from batch.events
        seq = batch.next_seq
        if batch.done:
            return
