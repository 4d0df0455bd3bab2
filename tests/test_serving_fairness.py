"""Scheduler-hardening tests: cooperative cancellation of RUNNING jobs,
per-tenant fair-share scheduling with quotas, and server-wired store
eviction."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.config import TaskSpec, TrainingConfig
from repro.config.space import default_space
from repro.errors import JobCancelled, ServingError
from repro.runtime import CancellationToken, ProfilingService
from repro.serving.fleet import FleetDispatcher
from repro.serving.metrics import MetricsRegistry
from repro.serving import (
    JobStatus,
    NavigationRequest,
    NavigationServer,
    PriorityJobQueue,
    SharedProfilingService,
)


def _request(task: TaskSpec, **kwargs) -> NavigationRequest:
    kwargs.setdefault("budget", 8)
    kwargs.setdefault("profile_epochs", 1)
    return NavigationRequest(task=task, **kwargs)


def _wait_for(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("timed out waiting for condition")
        time.sleep(0.01)


@pytest.fixture()
def server_factory(small_graph, tmp_path):
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


@pytest.fixture()
def slow_profiling(monkeypatch):
    """Stretch every training run so cancellation windows are wide."""
    import repro.runtime.parallel as parallel_mod

    real = parallel_mod.profile_class

    def slow(task, configs, **kwargs):
        time.sleep(0.1)
        return real(task, configs, **kwargs)

    monkeypatch.setattr(parallel_mod, "profile_class", slow)


class TestCancellationToken:
    def test_checkpoint_raises_after_cancel(self):
        token = CancellationToken()
        token.raise_if_cancelled()  # no-op before cancel
        assert not token.cancelled
        token.cancel()
        token.cancel()  # idempotent
        assert token.cancelled
        with pytest.raises(JobCancelled):
            token.raise_if_cancelled()

    def test_profile_aborts_at_batch_boundary(self, small_graph, tiny_task):
        service = ProfilingService()
        configs = [
            c.canonical()
            for c in default_space().sample(6, rng=np.random.default_rng(0))
        ]
        token = CancellationToken()
        token.cancel()
        with pytest.raises(JobCancelled):
            service.profile(
                tiny_task, configs, graph=small_graph, cancel=token
            )
        assert service.stats.executed == 0  # aborted before the first run

    def test_cancelled_batch_keeps_completed_runs(
        self, small_graph, tiny_task, monkeypatch
    ):
        """Runs finished before the abort are committed; a retry measures
        only the remainder."""
        import repro.runtime.parallel as parallel_mod

        service = ProfilingService()
        token = CancellationToken()
        real = parallel_mod.profile_class
        calls: list[int] = []

        def cancelling_after_two(task, configs, **kwargs):
            calls.append(len(configs))
            if len(calls) == 2:
                token.cancel()
            return real(task, configs, **kwargs)

        monkeypatch.setattr(
            parallel_mod, "profile_class", cancelling_after_two
        )
        configs = [
            c.canonical()
            for c in default_space().sample(6, rng=np.random.default_rng(7))
        ]
        unique = len(set(configs))
        assert unique > 2
        with pytest.raises(JobCancelled):
            service.profile(
                tiny_task, configs, graph=small_graph, cancel=token
            )
        finished = sum(calls)  # candidates of the two classes that trained
        assert service.stats.executed == finished == 2
        service.profile(tiny_task, configs, graph=small_graph)
        # the retry re-measured only the remainder — nothing twice
        assert service.stats.executed == unique
        assert service.stats.cache_hits == finished

    def test_pool_path_cancellation_commits_finished_futures(
        self, small_graph, tiny_task, slow_profiling
    ):
        """Cancelling a pool batch publishes every run that finished
        (collected or not) before aborting; the retry completes cleanly.

        ``slow_profiling`` stretches each run to ~0.1s (inherited by the
        fork-started pool workers), so the 0.25s timer lands mid-batch.
        """
        service = ProfilingService(max_workers=2)
        token = CancellationToken()
        configs = [
            c.canonical()
            for c in default_space().sample(10, rng=np.random.default_rng(4))
        ]
        timer = threading.Timer(0.25, token.cancel)
        timer.start()
        try:
            with pytest.raises(JobCancelled):
                service.profile(
                    tiny_task, configs, graph=small_graph, cancel=token
                )
        finally:
            timer.cancel()
        # every salvaged/collected commit was counted exactly once
        assert service.stats.executed == len(service._memory)
        records = service.profile(tiny_task, configs, graph=small_graph)
        assert len(records) == len(configs)
        assert service.stats.executed == len(set(configs))  # nothing twice


# Every way a profiling batch can execute.  ``fleet`` runs it on a live
# in-process executor (a thread that claims one key at a time and commits
# real records); ``silent-executor`` registers an executor that never
# claims, so the caller waits while it counts as live and then trains every
# class itself.
PATHS = ("serial", "pool", "fleet", "silent-executor")


@pytest.fixture()
def path_service(request, small_graph):
    """``(service, dispatcher)`` for one path; no dispatcher off the fleet."""
    service = ProfilingService(max_workers=2 if request.param == "pool" else None)
    if request.param in ("serial", "pool"):
        yield service, None
        return
    dispatcher = FleetDispatcher(service, lease_ttl=0.3, metrics=MetricsRegistry())
    executor_id = dispatcher.register().executor_id
    stop = threading.Event()

    def executor():
        local = ProfilingService()
        while not stop.is_set():
            grant = dispatcher.claim(executor_id, max_candidates=1, timeout=0.1)
            if not grant.empty:
                records = local.profile(
                    grant.task, list(grant.configs), graph=small_graph
                )
                dispatcher.commit(
                    executor_id, grant.lease_id, list(grant.keys), records
                )

    thread = threading.Thread(target=executor, daemon=True)
    if request.param == "fleet":
        thread.start()
    yield service, dispatcher
    stop.set()
    if request.param == "fleet":
        thread.join(timeout=30)
        assert not thread.is_alive()
    dispatcher.close()
    # The batch really took the path under test.
    if request.param == "fleet":
        assert dispatcher.metrics.counter("fleet_commits") >= 1
    else:
        assert service.stats.trainings >= 1


@pytest.fixture(scope="module")
def three_classes(small_graph):
    """Three candidates in three training classes, and the records the
    serial path measures for them."""
    task = TaskSpec(dataset="tiny", arch="sage", epochs=2, lr=0.02)
    configs = [
        TrainingConfig(batch_size=b, hop_list=(4, 3), hidden_channels=16)
        for b in (32, 64, 128)
    ]
    return task, configs, ProfilingService().profile(task, configs, graph=small_graph)


@pytest.mark.parametrize("path_service", PATHS, indirect=True)
class TestSeatsReachEveryPath:
    """``on_progress`` (through ``on_run``) and ``cancel`` must reach the
    code that runs the batch on each path: a hop that drops its seat stops
    the progress short of the total, or lets a cancelled batch finish."""

    def test_progress_reaches_the_total(self, path_service, three_classes, small_graph):
        service, _ = path_service
        task, configs, reference = three_classes
        seen: list[tuple[int, int, int]] = []
        records = service.profile(
            task, configs, graph=small_graph, on_progress=lambda *s: seen.append(s)
        )
        assert records == reference
        assert seen[0] == (0, 3, 0) and seen[-1] == (3, 3, 0)
        assert [done for done, _, _ in seen] == sorted({d for d, _, _ in seen})

    def test_cancel_stops_the_batch(self, path_service, three_classes, small_graph):
        service, _ = path_service
        task, configs, _ = three_classes
        token = CancellationToken()

        def cancel_after_the_first_run(done, total, hits):
            if done:
                token.cancel()

        with pytest.raises(JobCancelled):
            service.profile(
                task,
                configs,
                graph=small_graph,
                cancel=token,
                on_progress=cancel_after_the_first_run,
            )


@pytest.mark.parametrize("path_service", PATHS, indirect=True)
def test_overlapping_callers_give_each_key_one_grant(
    request, path_service, small_graph
):
    """A key is on the queue for one caller at a time, so two concurrent
    calls on overlapping configs never publish one key twice: each key is
    published once, goes out in at most one grant (exactly one on the
    fleet), and is measured once, to the serial path's records."""
    service, dispatcher = path_service
    task = TaskSpec(dataset="tiny", arch="sage", epochs=1, lr=0.02)
    configs = [
        TrainingConfig(batch_size=b, hop_list=(3,), hidden_channels=16)
        for b in (32, 64, 96, 128)
    ]
    serial = ProfilingService().profile(task, configs, graph=small_graph)
    published: list[str] = []  # every key put on the queue, in order
    granted: list[str] = []  # the keys of every grant, as its commit returns

    class RecordingQueue(dict):
        def __setitem__(self, key, item):
            published.append(key)
            super().__setitem__(key, item)

    service._queue = RecordingQueue()
    if dispatcher is not None:
        # The executor may sit in a claim long-poll already, so grants are
        # counted where they come back; the lease TTL is far above one run.
        real_commit = dispatcher.commit

        def commit(executor_id, lease_id, keys, records, **kwargs):
            granted.extend(keys)
            return real_commit(executor_id, lease_id, keys, records, **kwargs)

        dispatcher.commit = commit
    barrier = threading.Barrier(2)
    out: dict = {}

    def call(slot: int, part: list) -> None:
        barrier.wait(10)
        out[slot] = service.profile(task, part, graph=small_graph)

    threads = [
        threading.Thread(target=call, args=(0, configs[:3])),
        threading.Thread(target=call, args=(1, configs[1:])),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)

    keys = service._keys(task, configs, small_graph)
    assert out[0] == serial[:3] and out[1] == serial[1:]
    assert sorted(published) == sorted(keys)
    if request.node.callspec.params["path_service"] == "fleet":
        assert sorted(granted) == sorted(keys)
    else:
        assert granted == []
    assert service.stats.executed == len(keys)


class TestRunningJobCancellation:
    def test_cancel_running_reaches_cancelled_and_releases_claims(
        self, server_factory, slow_profiling
    ):
        server = server_factory(workers=2, cache_dir=None)
        task = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        # Same request twice: whichever job queues the keys first, the other
        # waits on them.
        victim = server.submit(_request(task))
        buddy = server.submit(_request(task))
        _wait_for(lambda: server.status(victim) is JobStatus.RUNNING)
        assert server.cancel(victim) is True
        jobs = server.drain(timeout=240)
        assert server.status(victim) is JobStatus.CANCELLED
        # The concurrent waiter must still complete: the cancelled job's
        # keys were dropped, published again and measured by the survivor.
        assert server.status(buddy) is JobStatus.DONE
        assert server.profiler.service._queue == {}
        assert all(j.done for j in jobs)
        with pytest.raises(ServingError):
            server.result(victim)

    def test_cancel_terminal_job_returns_false(self, server_factory):
        server = server_factory(workers=1)
        task = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        job_id = server.submit(_request(task))
        server.result(job_id, timeout=240)
        assert server.cancel(job_id) is False
        assert server.status(job_id) is JobStatus.DONE


class TestOwnerDeath:
    def test_dead_owner_releases_claims_and_waiter_reclaims(
        self, small_graph, tiny_task, monkeypatch
    ):
        """An owner whose first training raises, with its keys queued, must
        drop them; the waiter parked on them publishes and measures the
        keys itself."""
        import repro.runtime.parallel as parallel_mod

        svc = ProfilingService()
        shared = SharedProfilingService(svc)
        configs = [
            c.canonical()
            for c in default_space().sample(4, rng=np.random.default_rng(5))
        ]
        keys = set(svc._keys(tiny_task, configs, small_graph))
        real = parallel_mod.profile_class
        owner_started = threading.Event()
        owner_release = threading.Event()
        calls: list[int] = []

        def flaky_class(task, members, **kwargs):
            calls.append(len(members))
            if len(calls) == 1:
                owner_started.set()
                owner_release.wait(10)
                raise RuntimeError("owner died mid-measurement")
            return real(task, members, **kwargs)

        monkeypatch.setattr(parallel_mod, "profile_class", flaky_class)
        outcome: dict = {}

        def owner():
            try:
                shared.profile(tiny_task, configs, graph=small_graph)
            except RuntimeError as exc:
                outcome["owner"] = exc

        def waiter():
            outcome["waiter"] = shared.profile(
                tiny_task, configs, graph=small_graph
            )

        threads = [
            threading.Thread(target=owner),
            threading.Thread(target=waiter),
        ]
        threads[0].start()
        assert owner_started.wait(10)
        with svc._lock:  # the owner trains with every key on the queue
            assert set(svc._queue) == keys
        threads[1].start()
        time.sleep(0.1)  # let the waiter park on the owner's keys
        assert len(calls) == 1  # the waiter trains none of them
        owner_release.set()
        for t in threads:
            t.join(30)

        assert isinstance(outcome.get("owner"), RuntimeError)
        unique = len(set(configs))
        assert len(outcome["waiter"]) == len(configs)
        assert shared.service._queue == {}  # no orphaned keys
        assert svc.stats.executed == unique  # waiter measured them itself
        assert svc.stats.shared_inflight == 0  # no record came from the owner

    def test_commit_failure_releases_claims(self, small_graph, tiny_task):
        """A commit that dies mid-publish (store I/O) must still drop the
        owner's queued keys; committed keys stay served from memory."""
        svc = ProfilingService()
        shared = SharedProfilingService(svc)
        configs = [
            c.canonical()
            for c in default_space().sample(3, rng=np.random.default_rng(9))
        ]
        real_commit = svc.commit
        fail_once = [True]

        def flaky_commit(key, record):
            if fail_once[0]:
                fail_once[0] = False
                raise OSError("disk full mid-publish")
            real_commit(key, record)

        svc.commit = flaky_commit
        with pytest.raises(OSError):
            shared.profile(tiny_task, configs, graph=small_graph)
        assert shared.service._queue == {}  # no orphaned keys
        # a later caller is not hung and measures the unpublished keys
        records = shared.profile(tiny_task, configs, graph=small_graph)
        assert len(records) == len(configs)

    def test_raising_progress_callback_releases_claims(
        self, small_graph, tiny_task
    ):
        """A progress callback that raises on the first cache hit, before
        the other keys are queued, must not strand them; a later caller
        measures them instead of hanging."""
        svc = ProfilingService()
        configs = [
            c.canonical()
            for c in default_space().sample(3, rng=np.random.default_rng(9))
        ]
        svc.profile(tiny_task, configs[:1], graph=small_graph)

        def raise_on_a_hit(done, total, hits):
            if hits:
                raise RuntimeError("subscriber died")

        with pytest.raises(RuntimeError):
            svc.profile(
                tiny_task, configs, graph=small_graph, on_progress=raise_on_a_hit
            )
        assert svc._queue == {}
        records = svc.profile(tiny_task, configs, graph=small_graph)
        assert len(records) == len(configs)
        assert svc.stats.executed == len(set(configs))


class TestFairShareQueue:
    def test_round_robin_across_tenants(self):
        q = PriorityJobQueue(fairness=True)
        for i in range(4):
            q.push(f"a{i}", 9, "a")  # chatty tenant, high priority
        q.push("b0", 0, "b")
        q.push("c0", 0, "c")
        order = [q.pop(0) for _ in range(6)]
        # one pop per tenant per cycle: b and c run inside the first cycle
        # despite tenant a's higher priorities
        assert order[:3] == ["a0", "b0", "c0"]
        assert order[3:] == ["a1", "a2", "a3"]

    def test_priority_within_a_lane(self):
        q = PriorityJobQueue(fairness=True)
        q.push("low", 0, "a")
        q.push("high", 5, "a")
        assert [q.pop(0), q.pop(0)] == ["high", "low"]

    def test_weights_skew_the_interleave(self):
        q = PriorityJobQueue(fairness=True, weights={"a": 2})
        for i in range(4):
            q.push(f"a{i}", 0, "a")
        for i in range(4):
            q.push(f"b{i}", 0, "b")
        first6 = [q.pop(0) for _ in range(6)]
        assert sum(1 for j in first6 if j.startswith("a")) == 4
        assert sum(1 for j in first6 if j.startswith("b")) == 2

    def test_max_inflight_gates_pops_until_task_done(self):
        q = PriorityJobQueue(fairness=True, max_inflight=1)
        q.push("a0", 0, "a")
        q.push("a1", 0, "a")
        q.push("b0", 0, "b")
        assert q.pop(0) == "a0"  # a now at quota
        assert q.pop(0) == "b0"
        assert q.pop(0.02) is None  # a1 blocked behind a0's slot
        q.task_done("a")
        assert q.pop(0) == "a1"

    def test_quota_override_per_tenant(self):
        q = PriorityJobQueue(max_inflight=1, quotas={"vip": 2})
        q.push("v0", 0, "vip")
        q.push("v1", 0, "vip")
        q.push("v2", 0, "vip")
        assert q.pop(0) == "v0"
        assert q.pop(0) == "v1"
        assert q.pop(0.02) is None
        q.task_done("vip")
        assert q.pop(0) == "v2"

    def test_pop_timeout_is_a_deadline_not_a_restart(self):
        """Frequent task_done wakeups must not keep resetting pop's timeout."""
        q = PriorityJobQueue(max_inflight=1)
        q.push("a0", 0, "a")
        q.push("a1", 0, "a")
        assert q.pop(0) == "a0"  # lane now at quota; a1 ineligible
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                q.task_done("b")  # releases nothing, but wakes the popper
                time.sleep(0.02)

        churner = threading.Thread(target=churn)
        churner.start()
        t0 = time.monotonic()
        assert q.pop(0.3) is None
        elapsed = time.monotonic() - t0
        stop.set()
        churner.join(5)
        assert elapsed < 2.0  # returned at the deadline despite the churn

    def test_closed_queue_drains_past_quota(self):
        q = PriorityJobQueue(max_inflight=1)
        q.push("a0", 0, "a")
        q.push("a1", 0, "a")
        assert q.pop(0) == "a0"
        q.close()
        assert q.pop() == "a1"  # quota no longer gates a draining queue
        assert q.pop() is None

    def test_rejects_bad_limits(self):
        with pytest.raises(ServingError):
            PriorityJobQueue(max_inflight=0)
        with pytest.raises(ServingError):
            PriorityJobQueue(weights={"a": 0})
        with pytest.raises(ServingError):
            PriorityJobQueue(quotas={"a": -1})


class TestLazyDiscard:
    def test_discard_absent_id_is_tolerated(self):
        q = PriorityJobQueue()
        q.discard("ghost")  # never queued: stale mark, no error
        assert len(q) == 0
        q.push("a", 0)
        assert len(q) == 1  # stale mark does not eat live entries
        assert q.pop(0) == "a"
        assert q.pop(0.01) is None

    def test_push_clears_stale_mark(self):
        q = PriorityJobQueue()
        q.discard("x")
        q.push("x", 0)
        assert q.pop(0) == "x"  # the later push supersedes the stale mark

    def test_push_rejects_still_queued_id(self):
        q = PriorityJobQueue()
        q.push("x", 0)
        with pytest.raises(ServingError):
            q.push("x", 1)  # live duplicate
        q.discard("x")
        with pytest.raises(ServingError):
            q.push("x", 1)  # discarded but still in the heap
        assert q.pop(0.01) is None  # the discarded entry never dispatches
        q.push("x", 0)  # gone from the heap now: re-push is legal again
        assert q.pop(0) == "x"

    def test_len_never_negative(self):
        q = PriorityJobQueue()
        for ghost in ("g1", "g2", "g3"):
            q.discard(ghost)
        assert len(q) == 0
        q.push("a", 0)
        q.discard("a")
        q.discard("a")  # double discard of a queued id
        assert len(q) == 0

    def test_discard_is_constant_time_marking(self):
        q = PriorityJobQueue()
        for i in range(100):
            q.push(f"j{i}", i % 3)
        q.discard("j50")
        popped = [q.pop(0) for _ in range(99)]
        assert "j50" not in popped
        assert len(q) == 0


class TestServerFairness:
    def test_fair_share_starts_starved_tenant_early(self, server_factory):
        server = server_factory(workers=1, autostart=False, fairness=True)
        task = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        chatty = [
            server.submit(
                _request(task, priority=9, seed=i, tenant="burst")
            )
            for i in range(3)
        ]
        quiet = server.submit(
            _request(task, priority=0, seed=50, tenant="quiet")
        )
        server.start()
        server.drain(timeout=480)
        # under pure priority the quiet job would start last (priority 0
        # behind three 9s); fair-share hands it the second slot
        assert server.job(quiet).started_seq == 1
        assert {server.status(j) for j in chatty + [quiet]} == {JobStatus.DONE}

    def test_max_inflight_quota_respected(self, server_factory):
        server = server_factory(
            workers=2, autostart=False, max_inflight=1
        )
        task = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        ids = [
            server.submit(_request(task, seed=i, tenant="solo"))
            for i in range(3)
        ]
        running_peak: list[int] = []

        def watch():
            while not all(server.job(j).done for j in ids):
                running_peak.append(
                    sum(
                        1
                        for j in ids
                        if server.status(j) is JobStatus.RUNNING
                    )
                )
                time.sleep(0.01)

        watcher = threading.Thread(target=watch)
        watcher.start()
        server.start()
        server.drain(timeout=480)
        watcher.join(10)
        assert max(running_peak, default=0) <= 1  # quota capped concurrency
        assert all(server.status(j) is JobStatus.DONE for j in ids)


class TestStopDrain:
    def test_stop_with_queued_jobs_leaves_no_pending(self, server_factory):
        server = server_factory(workers=1, autostart=False)
        task = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        ids = [server.submit(_request(task, seed=i)) for i in range(4)]
        server.stop()
        assert [server.status(j) for j in ids] == [JobStatus.CANCELLED] * 4

    def test_stop_on_live_server_drains_deterministically(
        self, server_factory, slow_profiling
    ):
        server = server_factory(workers=2, cache_dir=None)
        task = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        ids = [server.submit(_request(task, seed=i)) for i in range(6)]
        _wait_for(
            lambda: any(
                server.status(j) is JobStatus.RUNNING for j in ids
            )
        )
        server.stop()
        statuses = [server.status(j) for j in ids]
        assert JobStatus.PENDING not in statuses
        assert JobStatus.RUNNING not in statuses

    def test_submit_racing_stop_never_orphans(self, server_factory):
        server = server_factory(workers=1)
        task = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        # simulate stop() winning the race after submit's admission check:
        # the queue is closed but _stopping is not yet visible
        server.queue.close()
        with pytest.raises(ServingError):
            server.submit(_request(task))
        assert server.jobs()[-1].status is JobStatus.CANCELLED


class TestStoreEviction:
    def test_store_never_exceeds_budget_after_any_save(
        self, small_graph, tiny_task, tmp_path
    ):
        budget = 4
        svc = ProfilingService(
            cache_dir=tmp_path / "store", store_budget=budget
        )
        configs = [
            c.canonical()
            for c in default_space().sample(10, rng=np.random.default_rng(2))
        ]
        svc.profile(tiny_task, configs, graph=small_graph)
        assert len(svc.store.keys()) <= budget
        unique = len(set(configs))
        assert svc.stats.evictions == unique - budget

    def test_server_wires_budget_and_reports_evictions(self, server_factory):
        budget = 5
        server = server_factory(workers=1, store_budget=budget)
        task = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        job_id = server.submit(_request(task))
        server.result(job_id, timeout=240)
        measured = server.result(job_id).report.num_ground_truth
        assert measured > budget  # budget actually binding for this job
        assert len(server.store.keys()) <= budget
        assert server.stats.evictions == measured - budget

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            ProfilingService(store_budget=0)


class TestTenantRequests:
    def test_tenant_round_trips_through_spec(self):
        request = NavigationRequest(
            task=TaskSpec(dataset="tiny", epochs=2),
            budget=8,
            tenant="team-a",
        )
        clone = NavigationRequest.from_dict(request.to_dict())
        assert clone == request
        assert clone.tenant == "team-a"

    def test_client_tags_tenant_lane(self, server_factory):
        from repro.serving import NavigationClient

        server = server_factory(workers=1)
        client = NavigationClient(server, tenant="team-c")
        task = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        handle = client.submit(task, budget=8, profile_epochs=1)
        handle.result(timeout=240)
        request = server.job(handle.job_id).request
        assert request.tenant == "team-c"
        assert request.tag == "team-c"


class TestServeCLIFlags:
    def test_fairness_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "--jobs",
                "-",
                "--fair",
                "--max-inflight-per-tenant",
                "2",
                "--store-budget",
                "64",
            ]
        )
        assert args.fair
        assert args.max_inflight_per_tenant == 2
        assert args.store_budget == 64

    def test_fairness_defaults_off(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--jobs", "-"])
        assert not args.fair
        assert args.max_inflight_per_tenant is None
        assert args.store_budget is None


class TestGraphMemoization:
    def test_on_demand_dataset_loads_once(self, server_factory, monkeypatch):
        import repro.serving.server as server_mod
        from repro.graphs.generators import powerlaw_community_graph

        loads: list[str] = []
        fixture = powerlaw_community_graph(
            300, num_classes=4, feature_dim=8, seed=3, name="ondemand"
        )

        def counting_load(name):
            loads.append(name)
            return fixture

        monkeypatch.setattr(server_mod, "load_dataset", counting_load)
        server = server_factory(workers=1, graphs={})
        task = TaskSpec(dataset="ondemand", arch="sage", epochs=1)
        for seed in (0, 1):
            job_id = server.submit(_request(task, seed=seed))
            server.result(job_id, timeout=240)
        assert loads == ["ondemand"]  # second job hit the memo
