"""Serving-layer tests: queue, shared scheduler, server lifecycle, CLI."""

from __future__ import annotations

import json
import sys
import threading

import numpy as np
import pytest

from repro.config import TaskSpec
from repro.config.space import default_space
from repro.errors import JobFailedError, ServingError
from repro.explorer import GNNavigator
from repro.runtime import ProfilingService
from repro.serving import (
    JobStatus,
    NavigationClient,
    NavigationRequest,
    NavigationServer,
    PriorityJobQueue,
    SharedProfilingService,
)


def _request(task: TaskSpec, **kwargs) -> NavigationRequest:
    kwargs.setdefault("budget", 8)
    kwargs.setdefault("profile_epochs", 1)
    return NavigationRequest(task=task, **kwargs)


@pytest.fixture()
def server_factory(small_graph, tmp_path):
    """Build servers bound to the fixture graph + a tmp store; auto-stop."""
    servers = []

    def build(**kwargs):
        kwargs.setdefault("graphs", {"tiny": small_graph})
        kwargs.setdefault("cache_dir", str(tmp_path / "store"))
        server = NavigationServer(**kwargs)
        servers.append(server)
        return server

    yield build
    for server in servers:
        server.stop()


class TestPriorityJobQueue:
    def test_priority_then_fifo(self):
        q = PriorityJobQueue()
        q.push("low", 0)
        q.push("hi-a", 5)
        q.push("mid", 1)
        q.push("hi-b", 5)
        assert [q.pop(0) for _ in range(4)] == ["hi-a", "hi-b", "mid", "low"]

    def test_pop_timeout_empty(self):
        assert PriorityJobQueue().pop(timeout=0.01) is None

    def test_discard_skips_entry(self):
        q = PriorityJobQueue()
        q.push("a", 0)
        q.push("b", 1)
        q.discard("b")
        assert q.pop(0) == "a"
        assert q.pop(0) is None
        assert len(q) == 0

    def test_closed_queue_rejects_push_and_drains(self):
        q = PriorityJobQueue()
        q.push("a", 0)
        q.close()
        with pytest.raises(ServingError):
            q.push("b", 0)
        assert q.pop() == "a"
        assert q.pop() is None  # closed + empty: no block


class TestRequestSpec:
    def test_round_trip(self):
        request = NavigationRequest(
            task=TaskSpec(dataset="tiny", arch="gcn", epochs=3),
            priorities=("ex_tm", "balance"),
            budget=9,
            priority=4,
            train=True,
            tag="tenant-a",
        )
        clone = NavigationRequest.from_dict(request.to_dict())
        assert clone == request

    def test_task_split_fractions_round_trip(self):
        request = NavigationRequest(
            task=TaskSpec(dataset="tiny", train_frac=0.7, val_frac=0.1),
            budget=8,
        )
        spec = request.to_dict()
        assert spec["train_frac"] == 0.7 and spec["val_frac"] == 0.1
        clone = NavigationRequest.from_dict(spec)
        assert clone.task.train_frac == 0.7
        assert clone.task.val_frac == 0.1
        assert clone == request

    def test_constraint_round_trip(self):
        spec = {"dataset": "tiny", "max_memory_mib": 16.0, "min_accuracy": 0.5}
        request = NavigationRequest.from_dict(spec)
        assert request.constraint.max_memory_bytes == 16.0 * 2**20
        assert request.constraint.min_accuracy == 0.5
        assert request.to_dict()["max_memory_mib"] == 16.0

    def test_rejects_unknown_keys(self):
        with pytest.raises(ServingError):
            NavigationRequest.from_dict({"dataset": "tiny", "budgetx": 9})

    def test_rejects_bad_priorities(self):
        with pytest.raises(ServingError):
            _request(TaskSpec(dataset="tiny"), priorities=("speed",))

    def test_rejects_tiny_budget(self):
        with pytest.raises(ServingError):
            NavigationRequest(task=TaskSpec(dataset="tiny"), budget=2)


class TestSharedProfilingService:
    # The in-flight sharing lives in ProfilingService itself: a bare
    # service shared by threads measures the overlap once, like the wrapper.
    @pytest.mark.parametrize(
        "make",
        [ProfilingService, lambda: SharedProfilingService(ProfilingService())],
        ids=["bare", "shared"],
    )
    def test_concurrent_callers_measure_once(self, small_graph, tiny_task, make):
        shared = make()
        configs = [
            c.canonical()
            for c in default_space().sample(6, rng=np.random.default_rng(3))
        ]
        results: list = [None] * 4
        errors: list = []

        def run(slot: int) -> None:
            try:
                results[slot] = shared.profile(
                    tiny_task, configs, graph=small_graph
                )
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the claim rounds finely
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)

        assert not any(t.is_alive() for t in threads)
        assert not errors
        unique = len(set(configs))
        assert shared.stats.executed == unique
        assert all(r == results[0] for r in results)


class TestNavigationServer:
    def test_submit_and_result(self, server_factory):
        server = server_factory(workers=2)
        task = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        job_id = server.submit(_request(task))
        result = server.result(job_id, timeout=120)
        assert server.status(job_id) is JobStatus.DONE
        assert "balance" in result.guidelines
        assert result.report.num_ground_truth > 0
        assert result.perf is None  # train not requested

    def test_concurrent_submits_share_store(self, server_factory):
        server = server_factory(workers=2)
        task = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        job_ids = server.submit_many(
            [_request(task, priorities=("balance",)),
             _request(task, priorities=("ex_tm",))]
        )
        jobs = server.drain(timeout=240)
        assert [j.status for j in jobs] == [JobStatus.DONE] * 2
        # Both jobs sample the same candidates (same seed/budget/space):
        # the overlap must be measured once — by execution, not per job.
        results = [server.result(jid) for jid in job_ids]
        n_unique = results[0].report.num_ground_truth
        assert server.stats.executed == n_unique
        assert len(server.store) == n_unique

    def test_cross_task_cache_hit_runs_nothing(self, server_factory):
        task = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        first = server_factory(workers=1)
        first.submit(_request(task))
        first.drain(timeout=240)
        executed = first.stats.executed
        assert executed > 0
        first.stop()

        # A second tenant later in the day: fresh server, same store.
        second = server_factory(workers=1)
        second.submit(_request(task))
        second.drain(timeout=240)
        assert second.stats.executed == 0  # zero training runs
        assert second.stats.cache_hits == executed

    def test_priority_ordering(self, server_factory):
        server = server_factory(workers=1, autostart=False)
        task = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        low = server.submit(_request(task, priority=0))
        high = server.submit(_request(task, priorities=("ex_tm",), priority=9))
        mid = server.submit(_request(task, priorities=("ex_ma",), priority=5))
        server.start()
        server.drain(timeout=240)
        order = {jid: server.job(jid).started_seq for jid in (low, mid, high)}
        assert order[high] < order[mid] < order[low]

    def test_cancel_pending_job(self, server_factory):
        server = server_factory(workers=1, autostart=False)
        task = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        keep = server.submit(_request(task))
        drop = server.submit(_request(task, priorities=("ex_ta",)))
        assert server.cancel(drop) is True
        assert server.status(drop) is JobStatus.CANCELLED
        server.start()
        server.drain(timeout=240)
        assert server.status(keep) is JobStatus.DONE
        assert server.job(drop).started_seq is None  # never ran
        with pytest.raises(ServingError):
            server.result(drop)
        assert server.cancel(keep) is False  # terminal jobs stay put

    def test_failed_job_raises_typed_error(self, server_factory):
        server = server_factory(workers=1)
        job_id = server.submit(
            _request(TaskSpec(dataset="no-such-dataset", epochs=1))
        )
        server.drain(timeout=60)
        assert server.status(job_id) is JobStatus.FAILED
        assert "no-such-dataset" in server.job(job_id).error
        with pytest.raises(JobFailedError) as excinfo:
            server.result(job_id)
        assert excinfo.value.job_id == job_id
        assert "no-such-dataset" in excinfo.value.message
        assert "Traceback" in (excinfo.value.traceback or "")
        # still a ServingError, so coarse handlers keep working
        with pytest.raises(ServingError):
            server.result(job_id)

    def test_snapshot_is_one_consistent_view(self, server_factory):
        server = server_factory(workers=1, autostart=False)
        task = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        job_id = server.submit(_request(task, tenant="team-a", priority=3))
        snapshot = server.snapshot(job_id)
        assert snapshot.status is JobStatus.PENDING
        assert not snapshot.done
        assert snapshot.tenant == "team-a"
        assert snapshot.priority == 3
        assert snapshot.started_at is None
        server.start()
        server.drain(timeout=240)
        after = server.snapshot(job_id)
        assert after.done and after.status is JobStatus.DONE
        assert after.finished_at is not None
        # wire round trip preserves the snapshot exactly
        assert type(after).from_wire(after.to_wire()) == after

    def test_unknown_job_id(self, server_factory):
        server = server_factory()
        with pytest.raises(ServingError):
            server.status("job-9999")

    def test_restart_after_stop(self, server_factory):
        server = server_factory(workers=1)
        task = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        server.stop()
        with pytest.raises(ServingError):
            server.submit(_request(task))  # stopped: rejected cleanly
        server.start()
        job_id = server.submit(_request(task))
        assert server.result(job_id, timeout=240) is not None
        assert server.status(job_id) is JobStatus.DONE


class TestConcurrentJobs:
    def test_two_job_threads_write_the_records_one_writes(
        self, server_factory, small_graph, tmp_path
    ):
        """Jobs on two threads evaluate under ``no_grad`` at the same time;
        neither may leave the other training without gradients.  A short
        switch interval makes their evaluations interleave."""
        task = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        requests = [_request(task, seed=seed) for seed in range(6)]
        stores = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (2, 1):
                store = tmp_path / f"store-{workers}"
                server = server_factory(
                    workers=workers, profile_workers=0, cache_dir=str(store)
                )
                server.submit_many(requests)
                jobs = server.drain(timeout=240)
                assert {job.status for job in jobs} == {JobStatus.DONE}
                stores[workers] = {
                    path.name: path.read_bytes() for path in store.glob("gt_*.json")
                }
        finally:
            sys.setswitchinterval(interval)
        assert stores[2] and stores[2] == stores[1]


class TestNavigationClient:
    def test_handles_and_batch(self, server_factory):
        server = server_factory(workers=2)
        client = NavigationClient(server, tenant="team-a")
        task = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        handles = client.submit_many(
            [_request(task), _request(task, priorities=("ex_tm",))]
        )
        results = [h.result(timeout=240) for h in handles]
        assert all(h.done for h in handles)
        assert len(results) == 2

    def test_navigate_convenience_tags_tenant(self, server_factory):
        server = server_factory(workers=1)
        client = NavigationClient(server, tenant="team-b")
        task = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        result = client.navigate(
            task, budget=8, profile_epochs=1, timeout=240
        )
        assert "balance" in result.guidelines
        assert server.jobs()[-1].request.tag == "team-b"


class TestNavigatorDelegation:
    def test_profiler_seat_shares_measurements(self, small_graph, tmp_path):
        shared = SharedProfilingService(
            ProfilingService(cache_dir=tmp_path / "store")
        )
        task = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        nav_a = GNNavigator(
            task, graph=small_graph, profile_budget=8, profile_epochs=1,
            profiler=shared,
        )
        nav_a.fit_estimator()
        executed = shared.stats.executed
        assert executed == len(nav_a.records)

        nav_b = GNNavigator(
            task, graph=small_graph, profile_budget=8, profile_epochs=1,
            profiler=shared,
        )
        nav_b.fit_estimator()
        assert shared.stats.executed == executed  # second navigator: all hits
        assert nav_b.records == nav_a.records


class TestServeCLI:
    def test_serve_job_file(
        self, small_graph, tmp_path, capsys, monkeypatch
    ):
        import repro.serving.server as server_mod
        from repro.cli import main

        monkeypatch.setattr(
            server_mod, "load_dataset", lambda name: small_graph
        )
        specs = [
            {"dataset": "tiny", "epochs": 1, "budget": 8, "profile_epochs": 1},
            {
                "dataset": "tiny",
                "epochs": 1,
                "budget": 8,
                "profile_epochs": 1,
                "priorities": ["ex_tm"],
                "priority": 3,
            },
        ]
        jobs_file = tmp_path / "jobs.json"
        jobs_file.write_text(json.dumps(specs))
        code = main(
            [
                "serve",
                "--jobs",
                str(jobs_file),
                "--serve-workers",
                "2",
                "--cache-dir",
                str(tmp_path / "store"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "job-0000" in out and "job-0001" in out
        assert "cache hits" in out

    def test_serve_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--jobs", "-", "--serve-workers", "4", "--no-store"]
        )
        assert args.jobs == "-"
        assert args.serve_workers == 4
        assert args.no_store

    def test_navigate_shared_cache_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["navigate", "--shared-cache"])
        assert args.shared_cache

    def test_network_flags_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--port", "8765", "--host", "0.0.0.0",
             "--store-budget-bytes", "4096"]
        )
        assert args.port == 8765 and args.host == "0.0.0.0"
        assert args.store_budget_bytes == 4096
        assert args.jobs is None  # network mode needs no job file
        args = parser.parse_args(
            ["submit", "--server", "http://127.0.0.1:8765", "--wait",
             "--tenant", "team-a", "--queue-priority", "3"]
        )
        assert args.server == "http://127.0.0.1:8765"
        assert args.wait and args.tenant == "team-a"
        assert args.queue_priority == 3
        args = parser.parse_args(
            ["poll", "--server", "http://x", "job-0000", "job-0001"]
        )
        assert args.job_ids == ["job-0000", "job-0001"]
        args = parser.parse_args(["cancel", "--server", "http://x", "job-0000"])
        assert args.job_ids == ["job-0000"]
        assert parser.parse_args(["stats", "--server", "http://x"]).tenant == ""

    def test_serve_requires_jobs_or_port(self):
        from repro.cli import main

        with pytest.raises(ServingError, match="--jobs .*--port|--port"):
            main(["serve"])
