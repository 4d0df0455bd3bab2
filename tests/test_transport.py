"""Network transport tests: wire protocol, HTTP server, remote client.

The parity class runs the serving-layer behavioural scenarios through a
parametrized client fixture — once with the in-process
:class:`NavigationClient`, once with :class:`RemoteNavigationClient` over a
real socket — so the two transports can only pass together.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest
from wire_samples import SAMPLES

from repro.config import TaskSpec
from repro.errors import (
    JobFailedError,
    ProtocolError,
    ServingError,
    UnknownJobError,
)
from repro.serving import (
    JobStatus,
    NavigationClient,
    NavigationRequest,
    NavigationServer,
)
from repro.serving.transport import (
    IDEMPOTENCY_HEADER,
    PROTOCOL_VERSION,
    TENANT_HEADER,
    NavigationHTTPServer,
    RemoteNavigationClient,
)
from repro.serving.transport import server as transport_server
from repro.serving.transport.protocol import (
    CancelResponse,
    decode_error,
    encode_error,
)
from repro.serving.types import JobResult
from repro.wire import decode, encode


def _task(**kwargs) -> TaskSpec:
    kwargs.setdefault("dataset", "tiny")
    kwargs.setdefault("arch", "sage")
    kwargs.setdefault("epochs", 1)
    return TaskSpec(**kwargs)


def _request(task: TaskSpec, **kwargs) -> NavigationRequest:
    kwargs.setdefault("budget", 8)
    kwargs.setdefault("profile_epochs", 1)
    return NavigationRequest(task=task, **kwargs)


@pytest.fixture()
def stack(small_graph, tmp_path):
    """A NavigationServer plus its HTTP transport; torn down in order."""
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
    """The same tenant surface over both transports (the parity fixture)."""
    server, http = stack
    if request.param == "inprocess":
        return NavigationClient(server, tenant="team-a")
    return RemoteNavigationClient(http.url, tenant="team-a")


def _post(url: str, body, headers: dict | None = None):
    """Raw POST; returns (status, payload) without raising on HTTP errors."""
    data = body if isinstance(body, bytes) else json.dumps(body).encode()
    request = urllib.request.Request(url, data=data, method="POST")
    request.add_header("Content-Type", "application/json")
    for name, value in (headers or {}).items():
        request.add_header(name, value)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


class TestClientParity:
    """tests/test_serving.py behavioural scenarios, over both transports."""

    def test_submit_result_and_snapshot(self, client):
        handle = client.submit(_task(), budget=8, profile_epochs=1)
        result = handle.result(timeout=240)
        assert "balance" in result.guidelines
        assert result.report.num_ground_truth > 0
        assert result.perf is None  # train not requested
        assert handle.done
        assert handle.status is JobStatus.DONE
        snapshot = handle.snapshot()
        assert snapshot.status is JobStatus.DONE
        assert snapshot.tenant == "team-a"
        assert snapshot.finished_at is not None

    def test_submit_many_in_order(self, client):
        handles = client.submit_many(
            [_request(_task()), _request(_task(), priorities=("ex_tm",))]
        )
        results = [h.result(timeout=240) for h in handles]
        assert [h.job_id for h in handles] == ["job-0000", "job-0001"]
        assert set(results[0].guidelines) == {"balance"}
        assert set(results[1].guidelines) == {"ex_tm"}

    def test_navigate_convenience(self, client):
        result = client.navigate(
            _task(), budget=8, profile_epochs=1, timeout=240
        )
        assert "balance" in result.guidelines

    def test_failed_job_raises_typed_error(self, client):
        handle = client.submit(
            _task(dataset="no-such-dataset"), budget=8, profile_epochs=1
        )
        with pytest.raises(JobFailedError) as excinfo:
            handle.result(timeout=60)
        assert excinfo.value.job_id == handle.job_id
        assert "no-such-dataset" in excinfo.value.message
        # the server-side traceback crosses the transport intact
        assert "Traceback" in (excinfo.value.traceback or "")
        # a typed failure is still a ServingError for coarse handlers
        assert isinstance(excinfo.value, ServingError)

    def test_unknown_job_id(self, client):
        handle = client.submit(_task(), budget=8, profile_epochs=1)
        bogus = type(handle)(handle.client, "job-9999")
        with pytest.raises(UnknownJobError):
            bogus.status  # noqa: B018 — the property raises
        with pytest.raises(UnknownJobError):
            bogus.result(timeout=1)

    def test_cancel_after_done_is_noop(self, client):
        handle = client.submit(_task(), budget=8, profile_epochs=1)
        handle.result(timeout=240)
        assert handle.cancel() is False
        assert handle.status is JobStatus.DONE

    def test_result_timeout(self, client):
        handle = client.submit(_task(), budget=8, profile_epochs=1)
        with pytest.raises(ServingError, match="timed out"):
            handle.result(timeout=0.0)
        # and the job still completes afterwards
        assert handle.result(timeout=240) is not None
        # timeout=0 on a terminal job is the non-blocking "get if ready"
        # probe on both transports — it returns, never times out
        assert handle.result(timeout=0.0) is not None

    def test_status_drain_metrics_and_jobs(self, client):
        handles = client.submit_many(
            [_task(), _task()], budget=8, profile_epochs=1
        )
        snapshots = client.drain(timeout=240)
        assert [s.job_id for s in snapshots] == [h.job_id for h in handles]
        assert all(s.status is JobStatus.DONE for s in snapshots)
        assert client.status(handles[0].job_id) is JobStatus.DONE
        assert client.jobs() == snapshots
        assert all(s.tenant == "team-a" for s in snapshots)
        metrics = client.metrics()
        assert metrics["jobs_submitted"] == metrics["jobs_done"] == 2
        assert metrics["store_persistent"] == 1
        with pytest.raises(ServingError, match="timed out draining"):
            client.submit(_task(seed=7), budget=8, profile_epochs=1)
            client.drain(timeout=0.0)
        # timeout=0 on an idle server is the non-blocking probe: it returns
        assert len(client.drain(timeout=240)) == 3
        assert len(client.drain(timeout=0.0)) == 3


def test_one_tenant_surface_two_transports():
    """The tenant surface is written once: the HTTP client adds ``health``
    and overrides the transport primitives — nothing else."""

    def public(cls):
        return {n for n in dir(cls) if not n.startswith("_")}

    assert public(RemoteNavigationClient) - public(NavigationClient) == {"health"}
    assert public(NavigationClient) <= public(RemoteNavigationClient)
    overridden = {
        name
        for name in vars(RemoteNavigationClient)
        if name != "__init__" and hasattr(NavigationClient, name)
        and callable(getattr(NavigationClient, name))
    }
    assert overridden == {
        "_submit_requests",
        "_poll_result",
        "_poll_drain",
        "snapshot",
        "events",
        "cancel",
        "metrics",
        "jobs",
    }
    # one handle class, whichever transport handed it out
    for name in ("submit", "submit_many", "navigate", "navigate_many", "watch", "_build"):
        assert name not in vars(RemoteNavigationClient)


#: one well-formed ``GET /v1/jobs/<id>`` body.
_SNAPSHOT = SAMPLES["snapshot_done"].to_wire()


class TestRemoteClient:
    def test_health_and_stats(self, stack):
        server, http = stack
        client = RemoteNavigationClient(http.url)
        health = client.health()
        assert health["ok"] and health["protocol"] == PROTOCOL_VERSION
        client.submit(_task(), budget=8, profile_epochs=1).result(timeout=240)
        metrics = client.metrics()
        assert metrics["profiling_executed"] == server.stats.executed > 0
        assert metrics["store_persistent"] == 1
        assert metrics["store_entries"] == len(server.store)
        assert metrics["jobs_done"] == 1

    @pytest.mark.parametrize(
        "body",
        [
            {"protocol": PROTOCOL_VERSION},  # no 'jobs' / no 'status'
            {"protocol": PROTOCOL_VERSION, "jobs": 7, "status": "done"},
            {"protocol": PROTOCOL_VERSION, "jobs": [{"job_id": "job-0000"}],
             "job_id": "job-0000", "status": "no-such-status"},
            # a whole snapshot, one wrong type: the timestamp is a string
            {"protocol": PROTOCOL_VERSION, "jobs": [{**_SNAPSHOT, "started_at": "noon"}],
             **_SNAPSHOT, "started_at": "noon"},
        ],
    )
    def test_malformed_snapshot_bodies_are_protocol_errors(self, body):
        client = RemoteNavigationClient("http://unused.invalid")
        client._call = lambda *args, **kwargs: dict(body)
        with pytest.raises(ProtocolError, match="JobsResponse|JobSnapshot"):
            client.jobs()
        with pytest.raises(ProtocolError, match="JobSnapshot"):
            client.snapshot("job-0000")

    def test_unknown_job_maps_to_404_and_typed_error(self, stack):
        _, http = stack
        client = RemoteNavigationClient(http.url)
        with pytest.raises(UnknownJobError, match="job-9999"):
            client.status("job-9999")
        with pytest.raises(UnknownJobError):
            client.result("job-9999", timeout=1)
        with pytest.raises(UnknownJobError):
            client.cancel("job-9999")

    def test_drain_and_jobs_listing(self, stack):
        _, http = stack
        client = RemoteNavigationClient(http.url, tenant="team-b")
        client.submit_many([_request(_task()), _request(_task())])
        snapshots = client.drain(timeout=240)
        assert len(snapshots) == 2
        assert all(s.status is JobStatus.DONE for s in snapshots)
        listed = client.jobs()
        assert [s.job_id for s in listed] == [s.job_id for s in snapshots]
        assert all(s.tenant == "team-b" for s in listed)

    def test_concurrent_remote_clients_share_one_measurement(self, stack):
        server, http = stack
        priorities = ["balance", "ex_tm", "ex_ma"]
        results: list = [None] * len(priorities)
        errors: list = []

        def run(slot: int) -> None:
            try:
                tenant_client = RemoteNavigationClient(
                    http.url, tenant=f"tenant-{slot}"
                )
                results[slot] = tenant_client.navigate(
                    _task(),
                    priorities=(priorities[slot],),
                    budget=8,
                    profile_epochs=1,
                    timeout=240,
                )
            except Exception as exc:  # pragma: no cover — surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(i,))
            for i in range(len(priorities))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # same task + seed behind every tenant: the overlapping Step-2 fold
        # was measured once across all HTTP clients, not once per client
        assert server.stats.executed == results[0].report.num_ground_truth
        for result, priority in zip(results, priorities, strict=True):
            assert set(result.guidelines) == {priority}


class TestConnections:
    """One kept-alive connection per client thread, and what ends one."""

    @pytest.fixture()
    def accepted(self, stack, monkeypatch):
        """Client addresses of the connections the server accepts from here on."""
        _, http = stack
        addresses: list = []
        process_request = http._http.process_request

        def counting(request, address):
            addresses.append(address)
            process_request(request, address)

        monkeypatch.setattr(http._http, "process_request", counting)
        return addresses

    @pytest.fixture()
    def idle_after(self, monkeypatch):
        """The server closes a kept connection after 0.2 s without a request."""
        monkeypatch.setattr(transport_server._Handler, "timeout", 0.2)
        return 0.2

    @staticmethod
    def _done_job(http) -> tuple[RemoteNavigationClient, str]:
        client = RemoteNavigationClient(http.url)
        handle = client.submit(_task(), budget=8, profile_epochs=1)
        handle.result(timeout=240)
        return client, handle.job_id

    def test_sequential_calls_ride_one_connection(self, stack, accepted):
        """Fails if the server's replies stall behind Nagle's algorithm and
        the client's delayed ACK (~40 ms a call) or the client reconnects."""
        _, http = stack
        client, job_id = self._done_job(http)
        t0 = time.perf_counter()
        for _ in range(50):
            assert client.status(job_id) is JobStatus.DONE
        elapsed = time.perf_counter() - t0
        assert len(accepted) == 1, accepted
        assert elapsed < 50 * 0.040 / 2, f"50 status calls took {elapsed:.3f}s"

    def test_each_thread_keeps_its_own_connection(self, stack, accepted):
        _, http = stack
        client, job_id = self._done_job(http)

        def calls() -> None:
            for _ in range(5):
                client.status(job_id)

        threads = [threading.Thread(target=calls) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        calls()
        assert len(accepted) == 3, accepted

    def test_retried_call_survives_an_idle_close(
        self, stack, accepted, idle_after
    ):
        _, http = stack
        client, job_id = self._done_job(http)
        accepted.clear()
        time.sleep(3 * idle_after)
        assert client.status(job_id) is JobStatus.DONE
        assert len(accepted) == 1, accepted

    def test_unretried_call_is_resent_once_after_an_idle_close(
        self, stack, accepted, idle_after, monkeypatch
    ):
        """A request that met a connection the server had closed while idle
        was never read, so even a ``retry=False`` call is resent — once."""
        _, http = stack
        client, job_id = self._done_job(http)
        executed: list[str] = []
        cancel = http._cancel

        def counting(job_id: str) -> CancelResponse:
            executed.append(job_id)
            return cancel(job_id)

        monkeypatch.setattr(http, "_cancel", counting)
        accepted.clear()
        time.sleep(3 * idle_after)
        assert client.cancel(job_id) is False
        assert executed == [job_id]
        assert len(accepted) == 1, accepted

    def test_error_reply_drops_the_connection(self, stack, accepted):
        _, http = stack
        client, job_id = self._done_job(http)
        accepted.clear()
        with pytest.raises(UnknownJobError):
            client.status("job-9999")
        assert not accepted
        assert client.status(job_id) is JobStatus.DONE
        assert client.status(job_id) is JobStatus.DONE
        assert len(accepted) == 1, accepted

    def test_unreachable_server_raises_after_retries(self, monkeypatch):
        with socket.socket() as probe:  # a port nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = RemoteNavigationClient(f"http://127.0.0.1:{port}")
        exchanges: list[str] = []
        exchange = client._exchange

        def counting(method, target, *args):
            exchanges.append(target)
            return exchange(method, target, *args)

        monkeypatch.setattr(client, "_exchange", counting)
        with pytest.raises(ServingError, match="cannot reach"):
            client.status("job-0000")
        assert len(exchanges) == client.retries + 1
        exchanges.clear()
        with pytest.raises(ServingError, match="cannot reach"):
            client.cancel("job-0000")
        assert len(exchanges) == 1

    def test_stop_ends_kept_connections(self, stack, monkeypatch):
        """An idle kept connection must not keep its handler thread alive
        past ``stop()`` until the idle timeout (30 s)."""
        _, http = stack
        handlers: list[threading.Thread] = []
        handle = transport_server._Handler.handle

        def recording(self) -> None:
            handlers.append(threading.current_thread())
            handle(self)

        monkeypatch.setattr(transport_server._Handler, "handle", recording)
        clients = [RemoteNavigationClient(http.url) for _ in range(3)]
        for client in clients:
            client.health()
        assert len(handlers) == 3 and all(t.is_alive() for t in handlers)
        t0 = time.perf_counter()
        http.stop()
        for thread in handlers:
            thread.join(timeout=5)
        assert not any(t.is_alive() for t in handlers)
        assert time.perf_counter() - t0 < 2.0
        # a kept connection is served no more after stop()
        with pytest.raises(ServingError, match="cannot reach"):
            clients[0].health()


    def test_stop_without_start_returns_and_frees_the_port(
        self, small_graph, tmp_path
    ):
        """A transport that never served must still stop: ``stop()`` on it
        returns at once and releases the listening socket."""
        server = NavigationServer(
            workers=1,
            graphs={"tiny": small_graph},
            cache_dir=str(tmp_path / "store"),
        )
        try:
            http = NavigationHTTPServer(server)
            port = http.port
            stopper = threading.Thread(target=http.stop, daemon=True)
            stopper.start()
            stopper.join(timeout=2)
            assert not stopper.is_alive(), "stop() hung on an unstarted transport"
            with socket.socket() as probe:  # the port is free again
                probe.bind(("127.0.0.1", port))
        finally:
            server.stop()

class TestWireProtocol:
    def test_malformed_json_is_a_protocol_error(self, stack):
        _, http = stack
        code, payload = _post(f"{http.url}/v1/jobs", b"{not json")
        assert code == 400
        assert payload["error"]["kind"] == "ProtocolError"
        with pytest.raises(ProtocolError):
            raise decode_error(payload["error"])

    def test_non_object_body_rejected(self, stack):
        _, http = stack
        code, payload = _post(f"{http.url}/v1/jobs", [1, 2, 3])
        assert code == 400
        assert payload["error"]["kind"] == "ProtocolError"

    def test_version_mismatch_rejected(self, stack):
        _, http = stack
        body = {"protocol": 999, "request": {"dataset": "tiny"}}
        code, payload = _post(f"{http.url}/v1/jobs", body)
        assert code == 400
        assert "version mismatch" in payload["error"]["message"]

    def test_unknown_endpoint_404(self, stack):
        _, http = stack
        code, payload = _post(f"{http.url}/v1/nonsense", {})
        assert code == 404
        # a wrong version prefix is outside the namespace entirely
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{http.url}/v0/jobs", timeout=10)
        excinfo.value.close()  # the error holds the response's socket
        assert excinfo.value.code == 404

    def test_bad_request_spec_is_typed(self, stack):
        _, http = stack
        body = {"request": {"dataset": "tiny", "budgetx": 9}}
        code, payload = _post(f"{http.url}/v1/jobs", body)
        assert code == 400
        assert payload["error"]["kind"] == "ServingError"
        assert "budgetx" in payload["error"]["message"]

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("transfer_policy", {"similarity": "feature"}, "['similarity']"),
            ("transfer_policy", "x", "transfer_policy must be an object"),
            ("budget", "x", "invalid request spec"),
            ("dataset", 5, "dataset must be a string, not int"),
            ("platform", ["a100"], "platform must be a string, not list"),
        ],
        ids=[
            "policy-naming-similarity",
            "non-object-policy",
            "mistyped-budget",
            "non-string-dataset",
            "non-string-platform",
        ],
    )
    def test_a_malformed_field_is_a_400_not_a_500(self, stack, field, value, message):
        _, http = stack
        body = {"request": {"dataset": "tiny", field: value}}
        code, payload = _post(f"{http.url}/v1/jobs", body)
        assert code == 400
        assert payload["error"]["kind"] == "ServingError"
        assert message in payload["error"]["message"]

    def test_idempotent_submit_replays_original_job(self, stack):
        server, http = stack
        body = {
            "request": {
                "dataset": "tiny",
                "epochs": 1,
                "budget": 8,
                "profile_epochs": 1,
            }
        }
        headers = {IDEMPOTENCY_HEADER: "retry-123"}
        code, first = _post(f"{http.url}/v1/jobs", body, headers)
        assert code == 200 and first["deduplicated"] is False
        code, second = _post(f"{http.url}/v1/jobs", body, headers)
        assert code == 200
        assert second["job_id"] == first["job_id"]
        assert second["deduplicated"] is True
        # a different key is a different submission
        code, third = _post(
            f"{http.url}/v1/jobs", body, {IDEMPOTENCY_HEADER: "retry-456"}
        )
        assert third["job_id"] != first["job_id"]
        assert len(server.jobs()) == 2

    def test_tenant_header_names_the_lane(self, stack):
        server, http = stack
        spec = {"dataset": "tiny", "epochs": 1, "budget": 8,
                "profile_epochs": 1}
        _post(
            f"{http.url}/v1/jobs",
            {"request": spec},
            {TENANT_HEADER: "header-tenant"},
        )
        _post(
            f"{http.url}/v1/jobs",
            {"request": {**spec, "tenant": "body-tenant"}},
            {TENANT_HEADER: "header-tenant"},
        )
        tenants = [job.request.tenant for job in server.jobs()]
        assert tenants == ["header-tenant", "body-tenant"]  # body wins

    def test_error_envelope_round_trip(self):
        original = JobFailedError("job-0007", "boom", "Traceback (most...)")
        decoded = decode_error(encode_error(original))
        assert isinstance(decoded, JobFailedError)
        assert decoded.job_id == "job-0007"
        assert decoded.message == "boom"
        assert decoded.traceback == "Traceback (most...)"

    def test_unlisted_error_degrades_to_nearest_ancestor(self):
        class Weird(UnknownJobError):
            pass

        envelope = encode_error(Weird("gone"))
        assert envelope["kind"] == "UnknownJobError"
        # and an envelope can never instantiate an arbitrary class
        hostile = decode_error({"kind": "object", "message": "x"})
        assert isinstance(hostile, ServingError)

    def test_protocol_version_is_checked(self):
        # an unstamped body speaks the current version
        assert CancelResponse.from_wire({"cancelled": True}).cancelled
        with pytest.raises(ProtocolError, match="version mismatch"):
            CancelResponse.from_wire({"cancelled": True, "protocol": 2})


class TestResultSerialization:
    def test_job_result_round_trips_through_json(self, stack):
        server, _ = stack
        job_id = server.submit(_request(_task(), train=True))
        original = server.result(job_id, timeout=240)
        clone = decode(JobResult, json.loads(json.dumps(encode(original))))
        assert set(clone.guidelines) == set(original.guidelines)
        best, best_clone = original.best(), clone.best()
        assert best_clone.config == best.config
        assert best_clone.predicted == best.predicted
        assert best_clone.score == pytest.approx(best.score)
        report, report_clone = original.report, clone.report
        assert report_clone.task == report.task
        assert report_clone.num_ground_truth == report.num_ground_truth
        assert report_clone.exploration.candidates == report.exploration.candidates
        assert report_clone.exploration.stats == report.exploration.stats
        assert report_clone.profile == report.profile
        # the measured training run survives minus the per-batch rows
        assert clone.perf is not None
        assert clone.perf.time_s == pytest.approx(original.perf.time_s)
        assert clone.perf.accuracy == pytest.approx(original.perf.accuracy)
        assert clone.perf.memory.total == pytest.approx(original.perf.memory.total)
        assert len(clone.perf.epochs) == len(original.perf.epochs)
        assert clone.perf.batches == []
