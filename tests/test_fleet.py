"""Distributed profiling fleet tests.

Covers the fleet bottom-up: the dispatcher's membership and liveness
rules (a lease lives exactly as long as its executor), the wire shapes for the
``/v1/fleet/*`` endpoints, the dispatcher's claim/commit/expiry semantics
driven in-process with fabricated records (no training), and finally real
end-to-end navigations over HTTP — fleet-vs-local result parity, the
warm-store rerun, idempotent commit replay, and the chaos scenario where
one of two executors is killed mid-job and the lease machinery hands its
work to the survivor without losing or duplicating a run.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.config import TaskSpec
from repro.config.settings import TrainingConfig
from repro.errors import (
    ProtocolError,
    ServingError,
    UnknownExecutorError,
)
from repro.runtime.parallel import (
    ProfilingService,
    graph_fingerprint,
    predicted_cost,
    record_to_dict,
)
from repro.serving import NavigationClient, NavigationServer
from repro.serving.fleet import (
    ClaimGrant,
    FleetClient,
    FleetDispatcher,
    ProfilingExecutor,
)
from repro.serving.metrics import MetricsRegistry, labeled
from repro.serving.transport import IDEMPOTENCY_HEADER, NavigationHTTPServer
from repro.serving.transport.protocol import (
    PROTOCOL_VERSION,
    FleetCommitRequest,
    graph_from_wire,
    graph_to_wire,
)
from repro.wire import decode, encode


def _task(**kwargs) -> TaskSpec:
    kwargs.setdefault("dataset", "tiny")
    kwargs.setdefault("arch", "sage")
    kwargs.setdefault("epochs", 1)
    return TaskSpec(**kwargs)


def _config(base: TrainingConfig, **overrides) -> TrainingConfig:
    return decode(TrainingConfig, {**encode(base), **overrides})


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


# --------------------------------------------------------------- membership
class TestFleetMembership:
    def test_register_assigns_sequential_ids(self, dispatcher):
        assert dispatcher.register(workers=2).executor_id == "ex-0000"
        assert dispatcher.register(workers=1).executor_id == "ex-0001"
        assert len(dispatcher) == 2

    def test_fresh_ids_skip_registered_ones(self, dispatcher):
        named = dispatcher.register(executor_id="ex-0000")
        fresh = dispatcher.register()
        assert fresh is not named
        assert fresh.executor_id == "ex-0001"
        assert [row["executor_id"] for row in dispatcher.status()["executors"]] == [
            "ex-0000",
            "ex-0001",
        ]

    def test_unknown_executor_raises(self, dispatcher):
        with pytest.raises(UnknownExecutorError):
            dispatcher.touch("ex-9999")
        with pytest.raises(UnknownExecutorError):
            dispatcher.claim("ex-9999")

    def test_reregistration_keeps_counters(self, dispatcher):
        info = dispatcher.register(workers=1)
        info.claims = 7
        again = dispatcher.register(workers=4, executor_id=info.executor_id)
        assert again is info
        assert again.claims == 7
        assert again.workers == 4
        assert len(dispatcher) == 1

    def test_deregister(self, dispatcher):
        info = dispatcher.register()
        assert dispatcher.deregister(info.executor_id) is True
        assert dispatcher.deregister(info.executor_id) is False
        assert dispatcher.status()["executors"] == []

    def test_live_and_prune_horizons(self, dispatcher):
        stale = dispatcher.register()
        fresh = dispatcher.register()
        stale.last_seen -= 100.0  # past the prune horizon (5 x the TTL)
        assert dispatcher.service.fleet_live()  # the fresh one is live
        dispatcher._sweep()
        rows = dispatcher.status()["executors"]
        assert [row["executor_id"] for row in rows] == [fresh.executor_id]
        fresh.last_seen -= 0.3  # past the 0.2s TTL, inside the prune horizon
        assert not dispatcher.service.fleet_live()
        dispatcher._sweep()
        assert len(dispatcher) == 1


# ------------------------------------------------------------------- wire
class TestFleetPayloads:
    """The graph payload; messages and tasks are in tests/test_wire.py."""

    def test_graph_wire_round_trip_preserves_fingerprint(self, small_graph):
        back = graph_from_wire(graph_to_wire(small_graph))
        assert graph_fingerprint(back) == graph_fingerprint(small_graph)
        assert back.num_nodes == small_graph.num_nodes
        with pytest.raises(ProtocolError):
            graph_from_wire({"name": "tiny"})  # no arrays at all


# ---------------------------------------------------------------- dispatcher
@pytest.fixture()
def dispatcher():
    """A dispatcher over a bare in-memory service (fabricated records —
    only a caller left without a live executor trains)."""
    service = ProfilingService()
    return FleetDispatcher(service, lease_ttl=0.2, metrics=MetricsRegistry())


def _start_batch(dispatcher, task, configs, graph):
    """Run ``service.profile`` on a thread; returns (thread, out-dict, keys).

    With a live executor registered the caller trains nothing: it waits
    for the commits, so the tests below can hand it fabricated records."""
    out: dict = {}

    def caller():
        try:
            out["records"] = dispatcher.service.profile(task, configs, graph=graph)
        except BaseException as exc:  # surfaced by the test, not swallowed
            out["error"] = exc

    thread = threading.Thread(target=caller, daemon=True)
    thread.start()
    return thread, out, dispatcher.service._keys(task, configs, graph)


def _series_of(snapshot: dict, executor_id: str) -> list[str]:
    """Names of the scraped series labeled with one executor."""
    return [name for name in snapshot if f'executor="{executor_id}"' in name]


def _finish(thread, out):
    thread.join(timeout=30.0)
    assert not thread.is_alive(), "profile never completed"
    if "error" in out:
        raise out["error"]
    return out["records"]


class TestFleetDispatcher:
    def test_live_executor_keeps_the_caller_from_training(
        self, dispatcher, tiny_task, tiny_config, small_graph
    ):
        info = dispatcher.register()
        thread, out, keys = _start_batch(
            dispatcher, tiny_task, [tiny_config], small_graph
        )
        grant = dispatcher.claim(info.executor_id, timeout=5.0)
        assert list(grant.keys) == keys
        deadline = time.monotonic() + 0.6  # 3x the TTL, the executor beating
        while time.monotonic() < deadline:
            dispatcher.touch(info.executor_id)
            assert dispatcher.service.stats.trainings == 0
            time.sleep(0.05)
        dispatcher.commit(info.executor_id, grant.lease_id, keys, ["remote"])
        assert _finish(thread, out) == ["remote"]
        stats = dispatcher.service.stats
        assert (stats.trainings, stats.executed) == (0, 1)

    def test_claim_commit_round_trip(
        self, dispatcher, tiny_task, tiny_config, small_graph
    ):
        info = dispatcher.register(workers=2)
        assert dispatcher.claim(info.executor_id).empty  # nothing pending
        configs = [_config(tiny_config, batch_size=b) for b in (32, 64, 128)]
        thread, out, keys = _start_batch(
            dispatcher, tiny_task, configs, small_graph
        )
        grant = dispatcher.claim(info.executor_id, timeout=5.0)
        assert not grant.empty
        assert sorted(grant.keys) == sorted(keys)
        assert grant.task == tiny_task
        assert grant.fingerprint == graph_fingerprint(small_graph)
        assert dispatcher.pending_count == 0
        assert dispatcher.leased_count == 3
        records = {key: f"record-for-{key}" for key in grant.keys}
        outcome = dispatcher.commit(
            info.executor_id,
            grant.lease_id,
            list(grant.keys),
            [records[key] for key in grant.keys],
            idempotency_key=grant.lease_id,
        )
        assert outcome.accepted == 3
        assert outcome.duplicates == 0
        assert not outcome.replayed
        assert _finish(thread, out) == [records[key] for key in keys]
        assert dispatcher.service.stats.executed == 3
        snap = dispatcher.metrics.snapshot()
        assert snap["fleet_claims"] == 1
        assert snap["fleet_commits"] == 1
        assert snap[labeled("fleet_claims", executor=info.executor_id)] == 1
        assert info.claims == 1 and info.commits == 1

    def test_claim_orders_batch_longest_first(
        self, dispatcher, tiny_task, tiny_config, small_graph
    ):
        info = dispatcher.register(workers=3)
        # Submitted cheapest-first; the grant must come back costliest-first
        # so the makespan isn't dominated by a long run claimed last.
        configs = [
            _config(tiny_config, hidden_channels=h, batch_size=b)
            for h, b in ((8, 256), (32, 64), (64, 32))
        ]
        costs = [predicted_cost(tiny_task, c, small_graph) for c in configs]
        assert sorted(costs) == costs and len(set(costs)) == len(costs)
        thread, out, keys = _start_batch(
            dispatcher, tiny_task, configs, small_graph
        )
        grant = dispatcher.claim(info.executor_id, timeout=5.0)
        granted_costs = [
            predicted_cost(grant.task, c, small_graph) for c in grant.configs
        ]
        assert granted_costs == sorted(granted_costs, reverse=True)
        # keys stay aligned with their (reordered) configs
        expect = {k: c for k, c in zip(keys, configs, strict=True)}
        assert [expect[k] for k in grant.keys] == list(grant.configs)
        dispatcher.commit(
            info.executor_id,
            grant.lease_id,
            list(grant.keys),
            [f"record-{k}" for k in grant.keys],
            idempotency_key=grant.lease_id,
        )
        assert _finish(thread, out) == [f"record-{k}" for k in keys]

    def test_claims_come_off_the_queue_head_in_order(
        self, dispatcher, tiny_task, tiny_config, small_graph
    ):
        # No affinity: whoever asks gets the oldest pending key.
        first, second = dispatcher.register(), dispatcher.register()
        configs = [_config(tiny_config, batch_size=b) for b in (32, 64, 96, 128)]
        thread, out, keys = _start_batch(
            dispatcher, tiny_task, configs, small_graph
        )
        granted = []
        for info in (second, first, second, first):
            grant = dispatcher.claim(
                info.executor_id, max_candidates=1, timeout=5.0
            )
            granted += grant.keys
            dispatcher.commit(
                info.executor_id, grant.lease_id, list(grant.keys), ["record"]
            )
        assert granted == keys
        assert _finish(thread, out) == ["record"] * 4

    def test_retried_commit_replays_without_side_effects(
        self, dispatcher, tiny_task, tiny_config, small_graph
    ):
        info = dispatcher.register()
        thread, out, _ = _start_batch(
            dispatcher, tiny_task, [tiny_config], small_graph
        )
        grant = dispatcher.claim(info.executor_id, timeout=5.0)
        first = dispatcher.commit(
            info.executor_id,
            grant.lease_id,
            list(grant.keys),
            ["the-record"],
            idempotency_key=grant.lease_id,
        )
        executed = dispatcher.service.stats.executed
        # the response was "dropped": the executor retries the exact POST
        second = dispatcher.commit(
            info.executor_id,
            grant.lease_id,
            list(grant.keys),
            ["the-record"],
            idempotency_key=grant.lease_id,
        )
        assert second.replayed
        assert (second.accepted, second.duplicates) == (
            first.accepted,
            first.duplicates,
        )
        assert dispatcher.service.stats.executed == executed  # no double count
        assert _finish(thread, out) == ["the-record"]

    def test_expired_lease_requeues_and_zombie_commit_is_duplicate(
        self, dispatcher, tiny_task, tiny_config, small_graph
    ):
        zombie = dispatcher.register()
        thread, out, _ = _start_batch(
            dispatcher, tiny_task, [tiny_config], small_graph
        )
        stale = dispatcher.claim(zombie.executor_id, timeout=5.0)
        assert not stale.empty
        # the zombie never heartbeats again; the survivor's long-poll spans
        # the 0.2s TTL (keeping the fleet alive) and picks up the re-queued
        # keys the moment the sweep expires the stale lease
        survivor = dispatcher.register()
        grant = dispatcher.claim(survivor.executor_id, timeout=5.0)
        assert grant.keys == stale.keys  # the work came back
        dispatcher.commit(
            survivor.executor_id,
            grant.lease_id,
            list(grant.keys),
            ["survivor-record"],
            idempotency_key=grant.lease_id,
        )
        executed = dispatcher.service.stats.executed
        late = dispatcher.commit(
            zombie.executor_id,
            stale.lease_id,
            list(stale.keys),
            ["zombie-record"],
            idempotency_key=stale.lease_id,
        )
        assert late.accepted == 0
        assert late.duplicates == 1
        assert dispatcher.service.stats.executed == executed
        # the survivor's record won; the zombie's never landed
        assert _finish(thread, out) == ["survivor-record"]
        assert dispatcher.metrics.snapshot()["fleet_lease_expiries"] >= 1
        assert zombie.lease_expiries >= 1

    def test_touch_keeps_the_executors_leases_live(
        self, dispatcher, tiny_task, tiny_config, small_graph
    ):
        info = dispatcher.register()
        thread, out, _ = _start_batch(
            dispatcher, tiny_task, [tiny_config], small_graph
        )
        grant = dispatcher.claim(info.executor_id, timeout=5.0)
        deadline = time.monotonic() + 0.6  # 3x the TTL
        while time.monotonic() < deadline:
            assert dispatcher.touch(info.executor_id) == 1
            time.sleep(0.05)
        assert (
            dispatcher.metrics.snapshot().get("fleet_lease_expiries", 0) == 0
        )
        dispatcher.commit(
            info.executor_id,
            grant.lease_id,
            list(grant.keys),
            ["kept-alive"],
            idempotency_key=grant.lease_id,
        )
        assert _finish(thread, out) == ["kept-alive"]

    def test_lease_ids_are_sequential_and_a_commit_releases_its_lease(
        self, dispatcher, tiny_task, tiny_config, small_graph
    ):
        a, b = dispatcher.register().executor_id, dispatcher.register().executor_id
        configs = [_config(tiny_config, batch_size=b) for b in (32, 64)]
        thread, out, keys = _start_batch(
            dispatcher, tiny_task, configs, small_graph
        )
        first = dispatcher.claim(a, max_candidates=1, timeout=5.0)
        second = dispatcher.claim(b, max_candidates=1, timeout=5.0)
        assert (first.lease_id, second.lease_id) == ("lease-000000", "lease-000001")
        assert (dispatcher.touch(a), dispatcher.touch(b)) == (1, 1)
        dispatcher.commit(a, first.lease_id, list(first.keys), ["a"])
        assert (dispatcher.touch(a), dispatcher.touch(b)) == (0, 1)
        assert dispatcher.leased_count == 1
        # a second commit on a released lease releases nothing more
        again = dispatcher.commit(a, first.lease_id, list(first.keys), ["a"])
        assert (again.accepted, again.duplicates) == (0, 1)
        assert dispatcher.touch(b) == 1
        dispatcher.commit(b, second.lease_id, list(second.keys), ["b"])
        assert dispatcher.touch(b) == 0
        records = dict(zip(first.keys + second.keys, ["a", "b"], strict=True))
        assert _finish(thread, out) == [records[key] for key in keys]

    def test_sweep_expires_only_the_silent_executors_leases(
        self, dispatcher, tiny_task, tiny_config, small_graph
    ):
        silent, beating = dispatcher.register(), dispatcher.register()
        configs = [_config(tiny_config, batch_size=b) for b in (32, 64)]
        thread, out, keys = _start_batch(
            dispatcher, tiny_task, configs, small_graph
        )
        lost = dispatcher.claim(silent.executor_id, max_candidates=1, timeout=5.0)
        kept = dispatcher.claim(beating.executor_id, max_candidates=1, timeout=5.0)
        silent.last_seen -= 0.3  # past the 0.2s TTL, inside the prune horizon
        dispatcher._sweep()
        assert (silent.lease_expiries, beating.lease_expiries) == (1, 0)
        assert dispatcher.leased_count == 1
        assert dispatcher.touch(beating.executor_id) == 1
        dispatcher.commit(beating.executor_id, kept.lease_id, list(kept.keys), ["kept"])
        # the fleet is still live, so the expired key waits for a claim
        regrant = dispatcher.claim(beating.executor_id, timeout=5.0)
        assert regrant.keys == lost.keys
        dispatcher.commit(
            beating.executor_id, regrant.lease_id, list(regrant.keys), ["regranted"]
        )
        records = {kept.keys[0]: "kept", regrant.keys[0]: "regranted"}
        assert _finish(thread, out) == [records[key] for key in keys]
        assert dispatcher.service.stats.trainings == 0

    def test_a_long_polling_executor_stays_live(
        self, dispatcher, tiny_task, tiny_config, small_graph
    ):
        # No heartbeat at all: the claim long-poll alone keeps an idle
        # executor live through 3x the TTL of inline sweeps, so the caller
        # leaves its key to the fleet.
        info = dispatcher.register()
        assert dispatcher.claim(info.executor_id, timeout=0.6).empty
        assert dispatcher.service.fleet_live()
        thread, out, keys = _start_batch(
            dispatcher, tiny_task, [tiny_config], small_graph
        )
        grant = dispatcher.claim(info.executor_id, timeout=5.0)
        assert list(grant.keys) == keys
        dispatcher.commit(info.executor_id, grant.lease_id, keys, ["polled"])
        assert _finish(thread, out) == ["polled"]
        assert dispatcher.service.stats.trainings == 0

    def test_a_claim_hands_back_the_claimers_dropped_lease(
        self, dispatcher, tiny_task, tiny_config, small_graph
    ):
        """A lost claim reply: the executor never saw its lease and claims
        again.  The claim requeues the lease it still holds and grants the
        keys anew, so the key is not held for as long as the executor lives."""
        info = dispatcher.register()
        thread, out, keys = _start_batch(
            dispatcher, tiny_task, [tiny_config], small_graph
        )
        lost = dispatcher.claim(info.executor_id, timeout=5.0)
        again = dispatcher.claim(info.executor_id, timeout=5.0)
        assert (lost.lease_id, again.lease_id) == ("lease-000000", "lease-000001")
        assert list(again.keys) == keys
        assert dispatcher.touch(info.executor_id) == 1
        assert dispatcher.leased_count == 1
        assert info.lease_expiries == 0
        dispatcher.commit(info.executor_id, again.lease_id, keys, ["again"])
        assert _finish(thread, out) == ["again"]
        assert dispatcher.service.stats.trainings == 0

    def test_a_dead_fleet_holds_no_lease_after_the_next_sweep(
        self, dispatcher, tiny_task, tiny_config, small_graph
    ):
        info = dispatcher.register()
        thread, out, _ = _start_batch(
            dispatcher, tiny_task, [tiny_config], small_graph
        )
        dispatcher.claim(info.executor_id, timeout=5.0)
        assert dispatcher.leased_count == 1
        info.last_seen -= 0.5  # past the 0.2s TTL, inside the prune horizon
        assert not dispatcher.service.fleet_live()
        dispatcher._sweep()
        assert dispatcher.leased_count == 0
        assert info.lease_expiries == 1
        assert dispatcher.touch(info.executor_id) == 0  # it holds nothing
        [record] = _finish(thread, out)  # the caller trained the key itself
        assert dispatcher.service.stats.trainings == 1

    def test_deregister_requeues_immediately(
        self, dispatcher, tiny_task, tiny_config, small_graph
    ):
        leaver = dispatcher.register()
        thread, out, _ = _start_batch(
            dispatcher, tiny_task, [tiny_config], small_graph
        )
        grant = dispatcher.claim(leaver.executor_id, timeout=5.0)
        assert not grant.empty
        # The taker joins first, so a live executor holds the fleet open and
        # the caller leaves the handed-back key on the queue.
        taker = dispatcher.register()
        dispatcher.deregister(leaver.executor_id)  # graceful: no TTL wait
        assert dispatcher.pending_count == 1
        regrant = dispatcher.claim(taker.executor_id, timeout=5.0)
        assert regrant.keys == grant.keys
        dispatcher.commit(
            taker.executor_id,
            regrant.lease_id,
            list(regrant.keys),
            ["taken-over"],
            idempotency_key=regrant.lease_id,
        )
        assert _finish(thread, out) == ["taken-over"]
        # every series the leaver labels is gone, the taker's remain
        snap = dispatcher.metrics.snapshot()
        assert _series_of(snap, leaver.executor_id) == []
        assert _series_of(snap, taker.executor_id) == [
            labeled(family, executor=taker.executor_id)
            for family in (
                "fleet_claims", "fleet_commits", "fleet_heartbeat_age_seconds"
            )
        ]
        assert snap["fleet_claims"] == 2  # the total keeps the leaver's claim

    def test_pruned_executor_loses_every_series(
        self, dispatcher, tiny_task, tiny_config, small_graph
    ):
        silent, other = dispatcher.register(), dispatcher.register()
        thread, out, _ = _start_batch(
            dispatcher, tiny_task, [tiny_config], small_graph
        )
        stale = dispatcher.claim(silent.executor_id, timeout=5.0)
        grant = dispatcher.claim(other.executor_id, timeout=5.0)  # after expiry
        assert grant.keys == stale.keys
        assert len(_series_of(dispatcher.metrics.snapshot(), silent.executor_id)) == 3
        silent.last_seen -= 100.0  # past the prune horizon
        dispatcher.commit(other.executor_id, grant.lease_id, list(grant.keys), ["r"])
        assert _finish(thread, out) == ["r"]
        dispatcher.claim(other.executor_id)  # its sweep prunes the silent one
        snap = dispatcher.metrics.snapshot()
        assert _series_of(snap, silent.executor_id) == []
        assert snap["fleet_lease_expiries"] == 1
        assert snap["fleet_claims"] == 2

    def test_no_live_executor_means_the_caller_trains_every_class(
        self, dispatcher, tiny_task, tiny_config, small_graph
    ):
        # one executor left, the other went silent: none is live
        dispatcher.deregister(dispatcher.register().executor_id)
        dispatcher.register().last_seen -= 100.0
        configs = [_config(tiny_config, batch_size=b) for b in (32, 64, 128)]
        records = dispatcher.service.profile(tiny_task, configs, graph=small_graph)
        assert records == ProfilingService().profile(
            tiny_task, configs, graph=small_graph
        )
        stats = dispatcher.service.stats
        assert (stats.trainings, stats.executed) == (3, 3)
        assert dispatcher.metrics.snapshot().get("fleet_claims", 0) == 0

    def test_zombie_commit_after_the_caller_trained_its_key_is_a_duplicate(
        self, tiny_task, tiny_config, small_graph, tmp_path
    ):
        service = ProfilingService(cache_dir=tmp_path)
        dispatcher = FleetDispatcher(service, lease_ttl=0.2)
        saves: list[str] = []
        real_save = service.store.save

        def save(key, record):
            saves.append(key)
            real_save(key, record)

        service.store.save = save
        zombie = dispatcher.register()
        thread, out, keys = _start_batch(
            dispatcher, tiny_task, [tiny_config], small_graph
        )
        stale = dispatcher.claim(zombie.executor_id, timeout=5.0)
        assert list(stale.keys) == keys
        # silent past the TTL: the lease expires, no executor is live, and
        # the caller trains the key itself
        records = _finish(thread, out)
        assert (service.stats.trainings, service.stats.executed) == (1, 1)
        assert saves == keys
        late = dispatcher.commit(
            zombie.executor_id,
            stale.lease_id,
            list(stale.keys),
            records,
            idempotency_key=stale.lease_id,
        )
        assert (late.accepted, late.duplicates) == (0, 1)
        assert service.stats.executed == 1
        assert saves == keys  # no second store save
        dispatcher.close()

    def test_a_commit_whose_save_fails_lands_on_the_retry(
        self, tiny_task, tiny_config, small_graph, tmp_path
    ):
        [record] = ProfilingService().profile(
            tiny_task, [tiny_config], graph=small_graph
        )
        service = ProfilingService(cache_dir=tmp_path)
        dispatcher = FleetDispatcher(service, lease_ttl=5.0)
        real_save = service.store.save
        failures = [OSError("disk full")]

        def save(key, record):
            if failures:
                raise failures.pop()
            real_save(key, record)

        service.store.save = save
        info = dispatcher.register()
        thread, out, keys = _start_batch(
            dispatcher, tiny_task, [tiny_config], small_graph
        )
        grant = dispatcher.claim(info.executor_id, timeout=5.0)

        def commit():
            return dispatcher.commit(
                info.executor_id,
                grant.lease_id,
                keys,
                [record],
                idempotency_key=grant.lease_id,
            )

        with pytest.raises(OSError):
            commit()
        assert (service.stats.executed, len(service.store)) == (0, 0)
        retried = commit()  # the executor retries the same POST
        assert (retried.accepted, retried.duplicates) == (1, 0)
        assert not retried.replayed
        assert service.store.load(keys[0]) == record
        assert _finish(thread, out) == [record]
        assert (service.stats.trainings, service.stats.executed) == (0, 1)
        dispatcher.close()

    def test_a_dropped_batch_after_a_failed_commit_is_claimed_again(
        self, tiny_task, tiny_config, small_graph, tmp_path
    ):
        """The executor drops a batch whose commit failed server-side and
        claims again.  That claim hands the batch back; the caller, left to
        a live fleet, finishes once the batch lands."""
        [record] = ProfilingService().profile(
            tiny_task, [tiny_config], graph=small_graph
        )
        service = ProfilingService(cache_dir=tmp_path)
        dispatcher = FleetDispatcher(service, lease_ttl=5.0)
        real_save = service.store.save
        failures = [OSError("disk full")]

        def save(key, record):
            if failures:
                raise failures.pop()
            real_save(key, record)

        service.store.save = save
        info = dispatcher.register()
        thread, out, keys = _start_batch(
            dispatcher, tiny_task, [tiny_config], small_graph
        )
        dropped = dispatcher.claim(info.executor_id, timeout=5.0)
        with pytest.raises(OSError):
            dispatcher.commit(
                info.executor_id, dropped.lease_id, keys, [record],
                idempotency_key=dropped.lease_id,
            )
        grant = dispatcher.claim(info.executor_id, timeout=5.0)
        assert list(grant.keys) == keys
        assert grant.lease_id != dropped.lease_id
        assert dispatcher.status()["leased"] == 1
        dispatcher.commit(
            info.executor_id, grant.lease_id, keys, [record],
            idempotency_key=grant.lease_id,
        )
        assert _finish(thread, out) == [record]
        assert (service.stats.trainings, service.stats.executed) == (0, 1)
        assert dispatcher.status()["leased"] == 0
        dispatcher.close()

    def test_a_key_resolved_during_the_store_probe_is_not_trained(
        self, tiny_task, tiny_config, small_graph, tmp_path
    ):
        configs = [tiny_config, _config(tiny_config, hidden_channels=8)]
        expected = ProfilingService().profile(tiny_task, configs, graph=small_graph)
        service = ProfilingService(cache_dir=tmp_path)
        keys = service._keys(tiny_task, configs, small_graph)
        real_load = service.store.load

        def load(key):
            record = real_load(key)
            if key == keys[0]:
                # an earlier, cancelled call's executor commits just after
                # this probe missed
                service.commit(key, expected[0])
            return record

        service.store.load = load
        assert service.profile(tiny_task, configs, graph=small_graph) == expected
        assert (service.stats.trainings, service.stats.executed) == (1, 2)

    def test_a_local_run_holds_its_keys_off_the_census_and_the_fleet(
        self, tiny_task, tiny_config, small_graph, monkeypatch
    ):
        """While the calling thread trains a class, its keys stay queued but
        held by the run: ``queue_census`` counts them neither pending nor
        leased and no lease can grant them.  A second caller wanting them
        queues nothing and counts them ``shared_inflight`` once they land."""
        import repro.runtime.parallel as parallel_mod

        service = ProfilingService()
        # One training class: the cache knobs only reach the charge.
        configs = [tiny_config, _config(tiny_config, cache_ratio=0.4)]
        keys = service._keys(tiny_task, configs, small_graph)
        real = parallel_mod.profile_class
        training, release = threading.Event(), threading.Event()

        def gated(task, members, **kwargs):
            training.set()
            release.wait(10)
            return real(task, members, **kwargs)

        monkeypatch.setattr(parallel_mod, "profile_class", gated)
        out: dict = {}
        seen: list = []
        started = threading.Event()

        def waiter_progress(*state):
            seen.append(state)
            started.set()

        owner = threading.Thread(
            target=lambda: out.setdefault(
                "owner", service.profile(tiny_task, configs, graph=small_graph)
            )
        )
        waiter = threading.Thread(
            target=lambda: out.setdefault(
                "waiter",
                service.profile(
                    tiny_task,
                    configs,
                    graph=small_graph,
                    on_progress=waiter_progress,
                ),
            )
        )
        owner.start()
        assert training.wait(10)
        with service._lock:
            queued = dict(service._queue)
        assert list(queued) == keys
        assert service.queue_census() == (0, {})
        issued: list = []
        assert service.lease(8, lambda: issued.append(1) or "l-1") is None
        assert issued == []
        waiter.start()
        assert started.wait(10)
        time.sleep(0.1)  # let the waiter park on the owner's keys
        with service._lock:  # the waiter added nothing to the queue
            assert service._queue == queued
            assert all(service._queue[k] is queued[k] for k in keys)
        assert service.queue_census() == (0, {})
        release.set()
        owner.join(30)
        waiter.join(30)
        assert not owner.is_alive() and not waiter.is_alive()
        assert out["waiter"] == out["owner"] == ProfilingService().profile(
            tiny_task, configs, graph=small_graph
        )
        stats = service.stats
        assert (stats.trainings, stats.executed) == (1, 2)
        assert (stats.shared_inflight, stats.cache_hits) == (2, 0)
        assert seen == [(0, 2, 0), (1, 2, 1), (2, 2, 2)]
        assert service._queue == {}

    def test_commit_rejects_misaligned_batch(self, dispatcher):
        info = dispatcher.register()
        with pytest.raises(ServingError):
            dispatcher.commit(info.executor_id, None, ["k1", "k2"], ["r1"])

    def test_graph_lookup(
        self, dispatcher, tiny_task, tiny_config, small_graph
    ):
        with pytest.raises(ServingError):
            dispatcher.graph("no-such-fingerprint")
        info = dispatcher.register()
        thread, out, _ = _start_batch(
            dispatcher, tiny_task, [tiny_config], small_graph
        )
        grant = dispatcher.claim(info.executor_id, timeout=5.0)
        assert dispatcher.graph(grant.fingerprint) is small_graph
        dispatcher.commit(
            info.executor_id,
            grant.lease_id,
            list(grant.keys),
            ["r"],
            idempotency_key=grant.lease_id,
        )
        _finish(thread, out)

    def test_many_callers_and_executors_resolve_each_key_once(
        self, tiny_task, tiny_config, small_graph
    ):
        """Six callers on overlapping slices, three executors claiming and
        committing off the one queue, a switch interval that preempts the
        lock-free steps between them: every key is granted and published
        once, and every caller reads the committed record."""
        service = ProfilingService()
        dispatcher = FleetDispatcher(service, lease_ttl=5.0)
        configs = [
            _config(tiny_config, batch_size=b, hidden_channels=h)
            for b in (16, 32, 48, 64, 96, 128)
            for h in (8, 16)
        ]
        keys = service._keys(tiny_task, configs, small_graph)
        executors = [dispatcher.register().executor_id for _ in range(3)]
        granted: list[str] = []
        stop = threading.Event()

        def executor(executor_id):
            while not stop.is_set():
                grant = dispatcher.claim(
                    executor_id, max_candidates=2, timeout=0.05
                )
                granted.extend(grant.keys)
                if not grant.empty:
                    dispatcher.commit(
                        executor_id,
                        grant.lease_id,
                        list(grant.keys),
                        [f"rec-{key}" for key in grant.keys],
                    )

        out: dict = {}

        def caller(slot):
            part = configs[slot * 2 : slot * 2 + 6] + configs[: slot + 1]
            out[slot] = (part, service.profile(tiny_task, part, graph=small_graph))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=executor, args=(e,)) for e in executors
            ] + [threading.Thread(target=caller, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads[len(executors):]:
                t.join(timeout=60)
            stop.set()
            for t in threads[: len(executors)]:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for part, records in out.values():
            want = service._keys(tiny_task, part, small_graph)
            assert records == [f"rec-{key}" for key in want]
        assert len(out) == 6
        assert sorted(granted) == sorted(keys)
        assert (service.stats.executed, service.stats.trainings) == (len(keys), 0)
        assert service._queue == {}
        dispatcher.close()

    def test_claim_grant_none_shape(self):
        empty = ClaimGrant.none(4.0)
        assert empty.empty
        assert empty.keys == () and empty.configs == ()
        assert empty.ttl == 4.0


# ----------------------------------------------------------------- HTTP end
@pytest.fixture()
def fleet_stack(small_graph, tmp_path):
    """A navigation server with a short fleet lease TTL plus its HTTP
    transport, for executor lifecycle and chaos tests."""
    server = NavigationServer(
        workers=2,
        graphs={"tiny": small_graph},
        cache_dir=str(tmp_path / "store"),
        fleet_lease_ttl=1.0,
    )
    http = NavigationHTTPServer(server)
    http.start()
    yield server, http
    http.stop()
    server.stop()


@pytest.fixture(scope="module")
def baseline_result(small_graph, tmp_path_factory):
    """The reference navigation, run entirely locally (no fleet) against a
    private store — the bit-for-bit yardstick for every fleet run."""
    server = NavigationServer(
        workers=2,
        graphs={"tiny": small_graph},
        cache_dir=str(tmp_path_factory.mktemp("baseline-store")),
    )
    try:
        yield NavigationClient(server).navigate(
            _task(), budget=8, profile_epochs=1, timeout=240
        )
    finally:
        server.stop()


class TestFleetHTTP:
    def test_register_heartbeat_claim_deregister(self, fleet_stack):
        server, http = fleet_stack
        client = FleetClient(http.url)
        granted = client.register(workers=2)
        assert granted.executor_id == "ex-0000"
        assert granted.lease_ttl == pytest.approx(1.0)
        assert granted.heartbeat_seconds == pytest.approx(1.0 / 3.0)
        assert client.heartbeat(granted.executor_id).renewed == 0
        assert client.claim(granted.executor_id, timeout=0.0).empty
        census = client.fleet_status()
        assert [row["executor_id"] for row in census.executors] == ["ex-0000"]
        assert census.pending == 0 and census.leased == 0
        assert client.deregister(granted.executor_id) is True
        with pytest.raises(UnknownExecutorError):
            client.heartbeat(granted.executor_id)

    def test_unknown_executor_maps_to_404(self, fleet_stack):
        _, http = fleet_stack
        code, payload = _post(
            f"{http.url}/v1/fleet/heartbeat",
            {"protocol": PROTOCOL_VERSION, "executor_id": "ex-9999"},
        )
        assert code == 404
        assert payload["error"]["kind"] == "UnknownExecutorError"

    def test_malformed_register_is_a_protocol_error(self, fleet_stack):
        _, http = fleet_stack
        code, payload = _post(
            f"{http.url}/v1/fleet/register",
            {"protocol": PROTOCOL_VERSION, "workers": 0},
        )
        assert code == 400
        assert payload["error"]["kind"] == "ProtocolError"

    def test_graph_fetch_round_trips_by_fingerprint(
        self, fleet_stack, small_graph
    ):
        server, http = fleet_stack
        fingerprint = server.service._fingerprint(small_graph)
        fetched = FleetClient(http.url).fetch_graph(fingerprint)
        assert graph_fingerprint(fetched) == fingerprint

    def test_fleet_navigation_matches_local_and_reruns_warm(
        self, fleet_stack, baseline_result
    ):
        server, http = fleet_stack
        executor = ProfilingExecutor(
            http.url, workers=2, claim_timeout=0.5
        )
        executor.start()
        try:
            client = NavigationClient(server)
            result = client.navigate(
                _task(), budget=8, profile_epochs=1, timeout=240
            )
            # bit-identical to the purely local run
            assert encode(result) == encode(baseline_result)
            # every training run happened on the executor, none on the server
            assert executor.runs > 0
            assert executor.committed == executor.runs
            snap = server.metrics.snapshot()
            assert snap["fleet_claims"] >= 1
            assert snap["fleet_commits"] >= 1
            assert snap["profiling_trainings"] == 0
            assert (
                snap[labeled("fleet_claims", executor=executor.executor_id)]
                >= 1
            )
            # warm rerun: the store answers, the fleet runs nothing new
            runs_before = executor.runs
            again = client.navigate(
                _task(), budget=8, profile_epochs=1, timeout=240
            )
            assert encode(again) == encode(result)
            assert executor.runs == runs_before
        finally:
            executor.stop()
        # graceful exit dropped the executor's labeled series
        snap = server.metrics.snapshot()
        assert (
            labeled("fleet_claims", executor=executor.executor_id) not in snap
        )
        assert snap["fleet_executors"] == 0

    def test_chaos_killing_an_executor_loses_no_work(
        self, fleet_stack, baseline_result
    ):
        server, http = fleet_stack
        victim = ProfilingExecutor(http.url, workers=1, claim_timeout=0.5)
        victim.before_run = lambda grant: victim.kill()  # die on first claim
        survivor = ProfilingExecutor(http.url, workers=2, claim_timeout=0.5)
        victim.start()
        try:
            handle = NavigationClient(server).submit(
                _task(), budget=8, profile_epochs=1
            )
            # the victim (alone in the fleet) claims the first batch and
            # vanishes without committing; its lease must expire and the
            # survivor must pick the work back up
            deadline = time.monotonic() + 30.0
            while victim.claimed == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert victim.claimed >= 1
            survivor.start()
            result = handle.result(timeout=240)
        finally:
            survivor.stop()
        assert encode(result) == encode(baseline_result)  # zero lost runs
        assert victim.committed == 0  # it really died uncommitted
        assert survivor.committed > 0
        snap = server.metrics.snapshot()
        assert snap["fleet_lease_expiries"] >= 1

    def test_idempotent_commit_over_http(
        self, fleet_stack, small_graph, tiny_config
    ):
        server, http = fleet_stack
        client = FleetClient(http.url)
        granted = client.register(workers=1)

        # keep our hand-rolled "executor" alive (and its lease renewed)
        # while the test slowly produces records on a local service
        beating = threading.Event()

        def heartbeats():
            while not beating.wait(0.2):
                client.heartbeat(granted.executor_id)

        beater = threading.Thread(target=heartbeats, daemon=True)
        beater.start()

        task = _task()
        configs = [_config(tiny_config, batch_size=b) for b in (32, 64)]
        batch: dict = {}

        def profile():
            batch["records"] = server.service.profile(
                task, configs, graph=small_graph
            )

        thread = threading.Thread(target=profile, daemon=True)
        thread.start()
        grant = client.claim(granted.executor_id, timeout=10.0)
        assert not grant.empty
        assert len(grant.keys) == 2

        # run the batch on a local service, exactly as an executor would
        local = ProfilingService()
        records = local.profile(
            grant.task, list(grant.configs), graph=small_graph
        )
        body = FleetCommitRequest(
            executor_id=granted.executor_id,
            lease_id=grant.lease_id,
            keys=list(grant.keys),
            records=records,
            idempotency_key=grant.lease_id,
        ).to_wire()
        headers = {IDEMPOTENCY_HEADER: grant.lease_id}

        code, first = _post(f"{http.url}/v1/fleet/commit", body, headers)
        assert code == 200
        assert first["accepted"] == 2 and not first["replayed"]
        executed = server.service.stats.executed
        stored = len(server.service.store)

        # the "response was lost" retry: byte-identical POST, same key
        code, second = _post(f"{http.url}/v1/fleet/commit", body, headers)
        assert code == 200
        assert second["replayed"] is True
        assert second["accepted"] == first["accepted"]
        assert second["duplicates"] == first["duplicates"]
        assert server.service.stats.executed == executed  # not double-counted
        assert len(server.service.store) == stored  # not double-written

        thread.join(timeout=60.0)
        beating.set()
        assert not thread.is_alive()
        assert [record_to_dict(r) for r in batch["records"]] == [
            record_to_dict(r) for r in records
        ]

    @pytest.mark.parametrize(
        "field, value", [("time_s", "fast"), ("num_batches", 2.5), ("accuracy", None)]
    )
    def test_a_mistyped_record_is_a_400_that_publishes_nothing(
        self, fleet_stack, small_graph, tiny_config, field, value
    ):
        server, http = fleet_stack
        record = ProfilingService().profile(
            _task(), [tiny_config], graph=small_graph
        )[0]
        body = FleetCommitRequest("ex-0000", None, ["k1"], [record]).to_wire()
        body["records"][0][field] = value
        code, payload = _post(f"{http.url}/v1/fleet/commit", body)
        assert code == 400
        assert payload["error"]["kind"] == "ProtocolError"
        assert f"GroundTruthRecord.{field}" in payload["error"]["message"]
        assert server.service._memory == {} and len(server.service.store) == 0
        assert server.service.stats.executed == 0

    def test_zero_executor_server_runs_locally(self, fleet_stack):
        server, http = fleet_stack
        # nobody ever registered: the seam must leave the local path alone
        result = NavigationClient(server).navigate(
            _task(), budget=8, profile_epochs=1, timeout=240
        )
        assert result.report.num_ground_truth > 0
        assert server.service.stats.executed > 0  # ran on the server itself
        snap = server.metrics.snapshot()
        assert snap.get("fleet_claims", 0) == 0
        assert snap.get("fleet_commits", 0) == 0
        assert snap["fleet_executors"] == 0
