"""Progress-event subsystem: ring buffer, streaming, parity.

The buffer tests are pure unit tests.  The streaming tests run
real (tiny) navigation jobs and exercise the full emission chain — server
-> navigator -> shared profiling service — through the parametrized client
fixture, once in-process and once over a live HTTP socket, so the two
transports can only pass together (the event-parity contract).
"""

from __future__ import annotations

import threading
import urllib.error
import urllib.request

import pytest

from repro.config import TaskSpec
from repro.errors import ProtocolError, UnknownJobError
from repro.serving import (
    EventBuffer,
    JobProgressEvent,
    JobStatus,
    NavigationClient,
    NavigationRequest,
    NavigationServer,
)
from repro.serving.events import GAP_PHASE, EventBatch
from repro.serving.transport import (
    NavigationHTTPServer,
    RemoteNavigationClient,
)


def _task(**kwargs) -> TaskSpec:
    kwargs.setdefault("dataset", "tiny")
    kwargs.setdefault("arch", "sage")
    kwargs.setdefault("epochs", 1)
    return TaskSpec(**kwargs)


def _event(phase: str = "profiling", **fields) -> JobProgressEvent:
    fields.setdefault("job_id", "job-0000")
    fields.setdefault("status", "running")
    return JobProgressEvent(phase=phase, **fields)


# ---------------------------------------------------------------- ring buffer
class TestEventBuffer:
    def test_append_assigns_monotonic_seqs(self):
        buffer = EventBuffer(capacity=8)
        stamped = [buffer.append(_event()) for _ in range(3)]
        assert [e.seq for e in stamped] == [0, 1, 2]
        events, next_seq, gap = buffer.read(since=0, timeout=0)
        assert [e.seq for e in events] == [0, 1, 2]
        assert next_seq == 3 and gap == 0

    def test_read_since_filters(self):
        buffer = EventBuffer(capacity=8)
        for _ in range(5):
            buffer.append(_event())
        events, next_seq, gap = buffer.read(since=3, timeout=0)
        assert [e.seq for e in events] == [3, 4]
        assert gap == 0
        # since == next_seq: nothing yet, no gap — the steady poll state
        events, next_seq, gap = buffer.read(since=5, timeout=0)
        assert events == [] and next_seq == 5 and gap == 0

    def test_capacity_drops_oldest_and_counts_gap(self):
        drops: list[int] = []
        buffer = EventBuffer(capacity=3, on_drop=drops.append)
        for _ in range(10):
            buffer.append(_event())
        assert buffer.dropped == 7 and sum(drops) == 7
        events, next_seq, gap = buffer.read(since=0, timeout=0)
        assert [e.seq for e in events] == [7, 8, 9]
        assert next_seq == 10
        assert gap == 7  # everything between 0 and the horizon is gone

    def test_since_partially_past_horizon(self):
        buffer = EventBuffer(capacity=3)
        for _ in range(10):
            buffer.append(_event())
        events, _, gap = buffer.read(since=5, timeout=0)
        assert gap == 2  # seqs 5 and 6 dropped; 7..9 delivered
        assert [e.seq for e in events] == [7, 8, 9]

    def test_since_beyond_everything_is_not_a_gap(self):
        buffer = EventBuffer(capacity=3)
        buffer.append(_event())
        events, next_seq, gap = buffer.read(since=99, timeout=0)
        assert events == [] and gap == 0 and next_seq == 1

    def test_blocking_read_wakes_on_append(self):
        buffer = EventBuffer(capacity=8)
        threading.Timer(0.05, lambda: buffer.append(_event())).start()
        events, _, _ = buffer.read(since=0, timeout=5.0)
        assert len(events) == 1

    def test_blocking_read_returns_early_when_done(self):
        buffer = EventBuffer(capacity=8)
        events, _, _ = buffer.read(since=0, timeout=5.0, done=lambda: True)
        assert events == []  # returned immediately, not after 5 s

    def test_negative_since_rejected(self):
        buffer = EventBuffer(capacity=8)
        with pytest.raises(ValueError):
            buffer.read(since=-1, timeout=0)
        with pytest.raises(ValueError):
            EventBuffer(capacity=0)


# ----------------------------------------------------------------- wire forms
class TestEventWire:
    """The stream's byte-level round trip lives in ``tests/test_wire.py``."""

    def test_event_batch_validation(self):
        with pytest.raises(ProtocolError):
            EventBatch.from_wire({"done": True})  # no events, no next_seq
        parsed = EventBatch.from_wire({"protocol": 1, "events": [], "next_seq": 4})
        assert parsed.gap == 0 and not parsed.done


# ----------------------------------------------------------- streaming parity
@pytest.fixture()
def stack(small_graph, tmp_path):
    server = NavigationServer(
        workers=2,
        graphs={"tiny": small_graph},
        cache_dir=str(tmp_path / "store"),
    )
    http = NavigationHTTPServer(server)
    http.start()
    yield server, http
    http.stop()
    server.stop()


@pytest.fixture(params=["inprocess", "http"])
def client(request, stack):
    server, http = stack
    if request.param == "inprocess":
        return NavigationClient(server, tenant="team-a")
    return RemoteNavigationClient(http.url, tenant="team-a")


def _semantic(event: JobProgressEvent) -> tuple:
    """Everything but the timing — what must match across transports."""
    return (
        event.seq,
        event.phase,
        event.status,
        event.batch_index,
        event.runs_done,
        event.runs_total,
        event.cache_hits,
        event.best_objective,
        event.message,
    )


class TestEventStreamParity:
    """The acceptance suite: both transports, one set of expectations."""

    def test_watch_streams_the_whole_life(self, client):
        handle = client.submit(_task(), budget=8, profile_epochs=1)
        events = list(handle.watch())
        phases = [e.phase for e in events]
        assert phases[0] == "queued" and events[0].status == "pending"
        assert phases[1] == "started"
        assert "exploring" in phases and "explored" in phases
        assert events[-1].phase == "done" and events[-1].terminal
        # contiguous seqs: nothing dropped at the default capacity
        assert [e.seq for e in events] == list(range(len(events)))
        # profiling progress reached its own advertised total
        profiling = [e for e in events if e.phase == "profiling"]
        assert profiling and profiling[-1].runs_done == profiling[-1].runs_total > 0
        # elapsed never runs backwards
        elapsed = [e.elapsed_s for e in events]
        assert all(a <= b for a, b in zip(elapsed, elapsed[1:], strict=False))
        assert handle.status is JobStatus.DONE

    def test_identical_event_sequences_across_transports(
        self, small_graph, tmp_path
    ):
        """The same job spec produces the same event stream over both
        transports (fresh server + cold store each, so nothing leaks)."""
        streams = {}
        for transport in ("inprocess", "http"):
            server = NavigationServer(
                workers=1,
                graphs={"tiny": small_graph},
                cache_dir=str(tmp_path / transport),
            )
            http = NavigationHTTPServer(server)
            http.start()
            try:
                if transport == "inprocess":
                    tenant = NavigationClient(server, tenant="t")
                else:
                    tenant = RemoteNavigationClient(http.url, tenant="t")
                handle = tenant.submit(_task(), budget=8, profile_epochs=1)
                streams[transport] = [
                    _semantic(e) for e in handle.watch()
                ]
            finally:
                http.stop()
                server.stop()
        assert streams["inprocess"] == streams["http"]

    def test_resume_with_since_after_reconnect(self, client):
        handle = client.submit(_task(), budget=8, profile_epochs=1)
        full = list(handle.watch())
        # "reconnect": a brand-new client resumes mid-stream by seq alone
        if isinstance(client, RemoteNavigationClient):
            fresh = RemoteNavigationClient(client.url)
        else:
            fresh = NavigationClient(client.server)
        resumed = list(fresh.watch(handle.job_id, since=full[3].seq))
        assert [_semantic(e) for e in resumed] == [
            _semantic(e) for e in full[3:]
        ]

    def test_subscribe_to_already_terminal_job(self, client):
        handle = client.submit(_task(), budget=8, profile_epochs=1)
        handle.result(timeout=240)
        # first touch of the stream happens after the job ended
        batch = handle.events(since=0, timeout=0)
        assert batch.done and batch.gap == 0
        assert batch.events[-1].terminal
        replay = list(handle.watch())
        assert replay == batch.events

    def test_failed_job_stream_ends_failed(self, client):
        handle = client.submit(
            _task(dataset="no-such-dataset"), budget=8, profile_epochs=1
        )
        events = list(handle.watch())
        assert events[-1].phase == "failed"
        assert events[-1].status == "failed" and events[-1].terminal

    def test_unknown_job_events_raise(self, client):
        client.submit(_task(), budget=8, profile_epochs=1).result(timeout=240)
        with pytest.raises(UnknownJobError):
            client.events("job-9999", timeout=0)


class TestSlowConsumer:
    def test_ring_bound_yields_gap_marker(self, small_graph):
        """A consumer that only shows up after the ring wrapped sees an
        explicit gap marker, then the retained tail — never a silent skip."""
        with NavigationServer(
            workers=1, graphs={"tiny": small_graph}, event_buffer=4
        ) as server:
            tenant = NavigationClient(server)
            handle = tenant.submit(_task(), budget=8, profile_epochs=1)
            handle.result(timeout=240)
            batch = handle.events(since=0, timeout=0)
            assert batch.gap > 0
            assert len(batch.events) <= 4
            assert batch.events[-1].terminal and batch.done
            # the retained tail is seq-contiguous up to the stream end
            seqs = [e.seq for e in batch.events]
            assert seqs == list(range(batch.next_seq - len(seqs), batch.next_seq))
            # the watcher surfaces the loss as a marker event
            events = list(handle.watch())
            assert events[0].phase == GAP_PHASE
            assert str(batch.gap) in events[0].message
            assert [e.seq for e in events[1:]] == seqs
            assert server.metrics.counter("events_dropped") == batch.gap

    def test_gap_reflected_over_http(self, small_graph):
        server = NavigationServer(
            workers=1, graphs={"tiny": small_graph}, event_buffer=4
        )
        http = NavigationHTTPServer(server)
        http.start()
        try:
            client = RemoteNavigationClient(http.url)
            handle = client.submit(_task(), budget=8, profile_epochs=1)
            handle.result(timeout=240)
            batch = handle.events(since=0, timeout=0)
            assert batch.gap > 0 and batch.done
            events = list(handle.watch())
            assert events[0].phase == GAP_PHASE
        finally:
            http.stop()
            server.stop()


class TestMetricsEndpoint:
    def test_metrics_scrape_matches_server_registry(self, stack):
        server, http = stack
        client = RemoteNavigationClient(http.url)
        client.submit(_task(), budget=8, profile_epochs=1).result(timeout=240)
        scraped = client.metrics()
        assert scraped["jobs_submitted"] == 1
        assert scraped["jobs_done"] == 1
        assert scraped["profiling_executed"] == server.stats.executed > 0
        # the templates alone fold three candidates into one training
        assert 0 < scraped["profiling_trainings"] < scraped["profiling_executed"]
        assert scraped["profiling_trainings"] == server.stats.trainings
        assert scraped["events_emitted"] == server.metrics.counter(
            "events_emitted"
        )
        assert scraped["store_entries"] == len(server.store)
        # the in-process client scrapes the same registry
        local = NavigationClient(server).metrics()
        assert local["profiling_executed"] == scraped["profiling_executed"]
        assert local["jobs_submitted"] == scraped["jobs_submitted"]
        assert local["jobs_done"] == scraped["jobs_done"]

    def test_bad_since_is_a_protocol_error(self, stack):
        _, http = stack
        for query in ("since=-1", "since=abc"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"{http.url}/v1/jobs/job-0000/events?{query}", timeout=10
                )
            assert excinfo.value.code == 400

    def test_cancelled_pending_job_stream(self, small_graph):
        server = NavigationServer(
            workers=1, graphs={"tiny": small_graph}, autostart=False
        )
        try:
            job_id = server.submit(
                NavigationRequest(task=_task(), budget=8, profile_epochs=1)
            )
            assert server.cancel(job_id)
            batch = server.events(job_id, timeout=0)
            assert [e.phase for e in batch.events] == ["queued", "cancelled"]
            assert batch.done
            assert server.metrics.counter("jobs_cancelled") == 1
        finally:
            server.stop()
