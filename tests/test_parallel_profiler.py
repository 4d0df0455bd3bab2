"""Profiling service tests: parallel fan-out, dedup, persistent cache."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from wire_samples import key_with_kernel

from repro.config import TaskSpec, TrainingConfig
from repro.config.space import default_space
from repro.runtime import ProfilingService, profile_one
from repro.runtime.parallel import (
    ResultStore,
    candidate_key,
    graph_fingerprint,
    predicted_cost,
    record_from_dict,
    record_to_dict,
)


@pytest.fixture()
def configs() -> list[TrainingConfig]:
    return [
        TrainingConfig(batch_size=64, sampler="sage", hop_list=(3, 2)),
        TrainingConfig(batch_size=32, sampler="fastgcn", hop_list=(4,)),
        TrainingConfig(batch_size=64, sampler="sage", hop_list=(3, 2)),  # dup
    ]


class TestKeys:
    def test_fingerprint_distinguishes_graphs(self, small_graph, medium_graph):
        assert graph_fingerprint(small_graph) != graph_fingerprint(medium_graph)

    def test_fingerprint_deterministic(self, small_graph):
        assert graph_fingerprint(small_graph) == graph_fingerprint(small_graph)

    def test_key_uses_canonical_config(self, small_graph, tiny_task):
        fp = graph_fingerprint(small_graph)
        # bias_rate is meaningless for the sage sampler: canonicalisation
        # zeroes it, so both candidates share one measurement.
        a = TrainingConfig(sampler="sage", bias_rate=0.0)
        b = TrainingConfig(sampler="sage", bias_rate=0.7)
        assert candidate_key(tiny_task, a, fp) == candidate_key(tiny_task, b, fp)

    def test_key_separates_tasks(self, small_graph, tiny_task):
        fp = graph_fingerprint(small_graph)
        cfg = TrainingConfig()
        other = TaskSpec(dataset=tiny_task.dataset, arch="gcn", epochs=2)
        assert candidate_key(tiny_task, cfg, fp) != candidate_key(other, cfg, fp)


class TestSerialization:
    def test_record_round_trip(self, small_graph, tiny_task, configs):
        (record,) = ProfilingService().profile(
            tiny_task, configs[:1], graph=small_graph
        )
        clone = record_from_dict(json.loads(json.dumps(record_to_dict(record))))
        assert clone == record
        assert (clone.features() == record.features()).all()


class TestProfilingService:
    def test_parallel_identical_to_serial(self, small_graph, tiny_task, configs):
        serial = ProfilingService().profile(tiny_task, configs, graph=small_graph)
        with ProfilingService(max_workers=2) as service:
            parallel = service.profile(tiny_task, configs, graph=small_graph)
        assert parallel == serial

    def test_deduplicates_repeated_candidates(self, small_graph, tiny_task, configs):
        service = ProfilingService()
        records = service.profile(tiny_task, configs, graph=small_graph)
        assert len(records) == len(configs)
        assert service.stats.executed == 2
        assert service.stats.deduplicated == 1
        assert records[0] == records[2]

    def test_cache_hit_skips_training(self, small_graph, tiny_task, configs, tmp_path):
        cold = ProfilingService(cache_dir=tmp_path)
        first = cold.profile(tiny_task, configs, graph=small_graph)
        assert cold.stats.executed == 2
        assert len(cold.store) == 2

        warm = ProfilingService(cache_dir=tmp_path)
        second = warm.profile(tiny_task, configs, graph=small_graph)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == 2
        assert second == first

    def test_in_memory_reuse_without_cache_dir(self, small_graph, tiny_task, configs):
        service = ProfilingService()
        first = service.profile(tiny_task, configs, graph=small_graph)
        second = service.profile(tiny_task, configs, graph=small_graph)
        assert service.stats.executed == 2  # nothing re-ran on the second call
        assert second == first

    def test_corrupt_cache_entry_discarded(
        self, small_graph, tiny_task, configs, tmp_path
    ):
        ProfilingService(cache_dir=tmp_path).profile(
            tiny_task, configs, graph=small_graph
        )
        victim = sorted(tmp_path.glob("gt_*.json"))[0]
        victim.write_text("{this is not json")

        service = ProfilingService(cache_dir=tmp_path)
        records = service.profile(tiny_task, configs, graph=small_graph)
        assert len(records) == len(configs)
        assert service.stats.executed == 1  # only the corrupt entry re-ran
        assert service.stats.cache_hits == 1
        assert not victim.exists() or json.loads(victim.read_text())

    def test_version_skew_discarded(self, small_graph, tiny_task, configs, tmp_path):
        service = ProfilingService(cache_dir=tmp_path)
        service.profile(tiny_task, configs[:1], graph=small_graph)
        victim = next(tmp_path.glob("gt_*.json"))
        envelope = json.loads(victim.read_text())
        envelope["version"] = 999
        victim.write_text(json.dumps(envelope))

        fresh = ProfilingService(cache_dir=tmp_path)
        fresh.profile(tiny_task, configs[:1], graph=small_graph)
        assert fresh.stats.executed == 1

    def test_entry_keyed_while_configs_named_a_kernel_is_a_miss(
        self, small_graph, tiny_task, configs, tmp_path
    ):
        """A store written while ``TrainingConfig`` had a ``kernel`` field
        (``"reference"`` by default): its entry decodes, but sits under a key
        this code never asks for, so the candidate is measured again — to
        the same record."""
        (record,) = ProfilingService().profile(
            tiny_task, configs[:1], graph=small_graph
        )
        old_key = key_with_kernel(
            tiny_task, configs[0], graph_fingerprint(small_graph), "reference"
        )
        ResultStore(tmp_path).save(old_key, record)
        entry = tmp_path / f"gt_{old_key}.json"
        envelope = json.loads(entry.read_text())
        envelope["record"]["config"]["kernel"] = "reference"
        entry.write_text(json.dumps(envelope))
        assert ResultStore(tmp_path).load(old_key) == record

        fresh = ProfilingService(cache_dir=tmp_path)
        assert fresh.profile(tiny_task, configs[:1], graph=small_graph) == [record]
        assert fresh.stats.executed == 1 and fresh.stats.cache_hits == 0
        assert len(list(tmp_path.glob("gt_*.json"))) == 2

    @pytest.mark.parametrize("older", [1, 2, 3, 4, 5])
    def test_entry_keyed_under_an_older_ground_truth_version_is_a_miss(
        self, small_graph, tiny_task, configs, tmp_path, older
    ):
        """``GROUND_TRUTH_VERSION`` went 1 -> 2 with the batch path, 2 -> 3
        with GAT on blocks, 3 -> 4 with thread-local grad mode, 4 -> 5 with
        GAT's reordered attention path and 5 -> 6 with GCN/SAGE layers that
        transform before they aggregate: what an older store holds stops
        matching and is measured again — never an error, and never served as
        if this code had produced it."""
        import repro.runtime.parallel as parallel

        assert parallel.GROUND_TRUTH_VERSION == 6
        fingerprint = graph_fingerprint(small_graph)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parallel, "GROUND_TRUTH_VERSION", older)
            old_key = candidate_key(tiny_task, configs[0], fingerprint)
            ProfilingService(cache_dir=tmp_path).profile(
                tiny_task, configs[:1], graph=small_graph
            )
        assert [p.name for p in tmp_path.glob("gt_*.json")] == [f"gt_{old_key}.json"]
        assert candidate_key(tiny_task, configs[0], fingerprint) != old_key

        fresh = ProfilingService(cache_dir=tmp_path)
        fresh.profile(tiny_task, configs[:1], graph=small_graph)
        assert fresh.stats.executed == 1 and fresh.stats.cache_hits == 0
        assert len(list(tmp_path.glob("gt_*.json"))) == 2

    def test_store_load_missing_key(self, tmp_path):
        assert ResultStore(tmp_path).load("deadbeef") is None

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            ProfilingService(max_workers=-1)

    def test_cost_ordering_is_monotone(self, small_graph, tiny_task):
        cheap = TrainingConfig(
            batch_size=256, hop_list=(2,), hidden_channels=8, num_layers=1
        )
        heavy = TrainingConfig(
            batch_size=32, hop_list=(10, 10), hidden_channels=128, num_layers=3
        )
        assert predicted_cost(tiny_task, heavy, small_graph) > predicted_cost(
            tiny_task, cheap, small_graph
        )
        # more epochs, same knobs -> strictly costlier
        longer = TaskSpec(dataset=tiny_task.dataset, epochs=8)
        assert predicted_cost(longer, cheap, small_graph) > predicted_cost(
            tiny_task, cheap, small_graph
        )

    @pytest.mark.parametrize("sampler", ["saint", "cluster"])
    def test_cost_prices_what_the_sampler_is_built_with(
        self, medium_graph, tiny_task, sampler
    ):
        """Subgraph samplers read only ``len(hop_list)``: fan-out values
        must not move the price (they used to multiply into it)."""
        from dataclasses import replace

        small = TrainingConfig(sampler=sampler, batch_size=128, hop_list=(3, 2))
        large = replace(small, hop_list=(15, 10))
        assert predicted_cost(tiny_task, small, medium_graph) == predicted_cost(
            tiny_task, large, medium_graph
        )

    def test_no_saint_prices_above_its_sage_twin(self, medium_graph, tiny_task):
        from dataclasses import replace

        from repro.config.space import default_space

        saints = [c for c in default_space().enumerate() if c.sampler == "saint"]
        assert saints
        for saint in saints:
            sage = replace(saint, sampler="sage")
            assert predicted_cost(tiny_task, saint, medium_graph) <= predicted_cost(
                tiny_task, sage, medium_graph
            )

    def test_cost_of_a_class_is_one_training_plus_a_member_charge(
        self, small_graph, tiny_task, tiny_config
    ):
        one = predicted_cost(tiny_task, tiny_config, small_graph)
        two = predicted_cost(tiny_task, tiny_config, small_graph, members=2)
        three = predicted_cost(tiny_task, tiny_config, small_graph, members=3)
        assert one < two < three < 2 * one  # far cheaper than training again
        assert three - two == pytest.approx(two - one)


def _classes(graph, count: int, seed: int) -> list[TrainingConfig]:
    """Canonical configs of ``count`` distinct training classes."""
    from repro.runtime.backend import training_key

    chosen: dict = {}
    for config in default_space().sample(64, rng=np.random.default_rng(seed)):
        config = config.canonical()
        chosen.setdefault(training_key(config, graph.num_nodes), config)
        if len(chosen) == count:
            return list(chosen.values())
    raise AssertionError("the sample holds too few training classes")


def _reaped(workers) -> bool:
    return all(
        not worker.thread.is_alive()
        and worker.process.exitcode is not None
        and worker.process not in multiprocessing.active_children()
        for worker in workers
    )


class TestLocalWorkers:
    """``max_workers >= 2``: spawned processes that lease training classes
    from the queue like fleet executors, started once per service."""

    def test_workers_start_once_by_spawn_and_close_reaps_them(
        self, small_graph, tiny_task, tiny_config
    ):
        configs = _classes(small_graph, 4, seed=1)
        serial = ProfilingService().profile(tiny_task, configs, graph=small_graph)
        service = ProfilingService(max_workers=2)
        try:
            # One training class starts nothing: the calling thread trains it.
            service.profile(tiny_task, [tiny_config], graph=small_graph)
            assert service._workers == []
            assert service.profile(tiny_task, configs, graph=small_graph) == serial
            workers = list(service._workers)
            assert len(workers) == 2
            assert {type(w.process).__name__ for w in workers} == {"SpawnProcess"}
            more = _classes(small_graph, 3, seed=2)
            assert service.profile(tiny_task, more, graph=small_graph) == (
                ProfilingService().profile(tiny_task, more, graph=small_graph)
            )
            assert service._workers == workers  # not started a second time
        finally:
            service.close()
        assert _reaped(workers)
        # A closed service trains on the calling thread and starts nothing.
        again = _classes(small_graph, 3, seed=3)
        records = service.profile(tiny_task, again, graph=small_graph)
        assert records == ProfilingService().profile(
            tiny_task, again, graph=small_graph
        )
        assert service._workers == []

    def test_a_worker_killed_mid_class_is_a_dead_executor(
        self, small_graph, tiny_config
    ):
        """Its lease goes back on the queue, and the survivor (or the
        calling thread) trains the class: the call still returns the serial
        path's records, each candidate measured once."""
        task = TaskSpec(dataset="tiny", arch="sage", epochs=6, lr=0.02)
        configs = _classes(small_graph, 4, seed=4)
        serial = ProfilingService().profile(task, configs, graph=small_graph)
        service = ProfilingService(max_workers=2)
        out: dict = {}
        caller = threading.Thread(
            target=lambda: out.setdefault(
                "records", service.profile(task, configs, graph=small_graph)
            ),
            daemon=True,
        )
        killed = None
        try:
            caller.start()
            deadline = time.monotonic() + 60
            while killed is None and time.monotonic() < deadline:
                with service._lock:
                    held = [
                        (key, item.holder)
                        for key, item in service._queue.items()
                        if item.holder in service._workers
                    ]
                    for key, holder in held:
                        if key not in service._memory:
                            killed = holder
                            os.kill(holder.process.pid, signal.SIGKILL)
                            break
                time.sleep(0.005)
            assert killed is not None, "no worker was seen holding a class"
            caller.join(120)
            assert not caller.is_alive()
            assert out["records"] == serial
            assert service.stats.executed == len(configs)
            with service._lock:
                assert killed not in service._workers
                assert service._queue == {}
            assert killed.process.exitcode == -signal.SIGKILL
            survivors = list(service._workers)
        finally:
            service.close()
        assert _reaped([killed, *survivors])

    def test_more_workers_than_cores_lease_each_class_once(
        self, small_graph, tiny_task
    ):
        """Three lessees on two cores and two callers asking for the same
        classes, switching threads every 10 µs: every class is leased and
        trained exactly once (a lost update on the queue would train one
        twice, or never), and both callers get the serial records."""
        configs = _classes(small_graph, 6, seed=6)
        serial = ProfilingService().profile(tiny_task, configs, graph=small_graph)
        out: dict = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ProfilingService(max_workers=3) as service:
                callers = [
                    threading.Thread(
                        target=lambda slot=slot: out.setdefault(
                            slot,
                            service.profile(tiny_task, configs, graph=small_graph),
                        ),
                        daemon=True,
                    )
                    for slot in range(2)
                ]
                for caller in callers:
                    caller.start()
                for caller in callers:
                    caller.join(120)
                assert not any(caller.is_alive() for caller in callers)
                assert len(service._workers) == 3
        finally:
            sys.setswitchinterval(interval)
        assert out == {0: serial, 1: serial}
        assert (service.stats.trainings, service.stats.executed) == (6, 6)
        # one caller published every key; the other waited on each
        assert service.stats.shared_inflight + service.stats.cache_hits == 6

    def test_a_navigator_closes_only_the_service_it_built(self, small_graph):
        from repro.explorer import GNNavigator

        task = TaskSpec(dataset="tiny", arch="sage", epochs=1, lr=0.02)

        def navigator(**kwargs):
            return GNNavigator(
                task, graph=small_graph, profile_budget=8, profile_epochs=1, **kwargs
            )

        serial = navigator().ground_truth()
        own = navigator(workers=2)
        assert own.ground_truth() == serial
        assert own.profiler._started and own.profiler._workers == []
        with ProfilingService(max_workers=2) as shared:
            assert navigator(profiler=shared).ground_truth() == serial
            assert len(shared._workers) == 2  # an injected service stays up

    def test_profile_one_threads_beside_two_worker_services_never_hang(
        self, small_graph, tiny_task, tiny_config
    ):
        """Two threads train in a loop while the main path starts two-worker
        services and profiles on them, round after round: a worker forked
        from this process could inherit a lock one of those threads holds
        and hang.  Each join is bounded, so a hang fails here."""
        stop = threading.Event()
        failures: list[BaseException] = []

        def train() -> None:
            while not stop.is_set():
                try:
                    profile_one(tiny_task, tiny_config, graph=small_graph)
                except BaseException as exc:  # noqa: BLE001 — reported below
                    failures.append(exc)
                    return

        rounds: list[bool] = []

        def profile_rounds() -> None:
            configs = _classes(small_graph, 3, seed=5)
            serial = ProfilingService().profile(tiny_task, configs, graph=small_graph)
            for _ in range(2):
                with ProfilingService(max_workers=2) as service:
                    records = service.profile(tiny_task, configs, graph=small_graph)
                    workers = list(service._workers)
                rounds.append(
                    records == serial and len(workers) == 2 and _reaped(workers)
                )

        trainers = [threading.Thread(target=train, daemon=True) for _ in range(2)]
        main = threading.Thread(target=profile_rounds, daemon=True)
        for thread in trainers:
            thread.start()
        main.start()
        main.join(180)
        stop.set()
        for thread in trainers:
            thread.join(60)
        assert not main.is_alive(), "the profiling rounds hung"
        assert not any(thread.is_alive() for thread in trainers)
        assert failures == []
        assert rounds == [True, True]


class TestStoreManagement:
    def _populate(self, store: ResultStore, record, n: int) -> list[str]:
        keys = [f"{i:032x}" for i in range(n)]
        for key in keys:
            store.save(key, record)
        return keys

    @pytest.fixture()
    def record(self, small_graph, tiny_task, configs):
        (record,) = ProfilingService().profile(
            tiny_task, configs[:1], graph=small_graph
        )
        return record

    def test_keys_lists_entries(self, tmp_path, record):
        store = ResultStore(tmp_path)
        keys = self._populate(store, record, 3)
        assert store.keys() == sorted(keys)

    def test_len_is_cached_and_tracks_saves(self, tmp_path, record):
        store = ResultStore(tmp_path)
        self._populate(store, record, 3)
        assert len(store) == 3
        store.save("0" * 32, record)  # overwrite: count unchanged
        assert len(store) == 3
        # a second instance on the same dir counts what is on disk
        assert len(ResultStore(tmp_path)) == 3

    @pytest.mark.parametrize(
        "damage",
        [
            None,  # not JSON at all
            # parses as JSON, fails the typed decode: discarded all the same
            {"time_s": "fast"},
            {"num_batches": 2.5},
            {"accuracy": None},
        ],
        ids=["unparsable", "string-for-float", "float-for-int", "null-for-float"],
    )
    def test_len_tracks_corrupt_discard(self, tmp_path, record, damage):
        store = ResultStore(tmp_path)
        self._populate(store, record, 2)
        victim = sorted(tmp_path.glob("gt_*.json"))[0]
        if damage is None:
            victim.write_text("{broken")
        else:
            envelope = json.loads(victim.read_text())
            envelope["record"].update(damage)
            victim.write_text(json.dumps(envelope))
        assert store.load(victim.stem[len("gt_") :]) is None
        assert not victim.exists()
        assert len(store) == 1

    def test_threads_saving_one_key_do_not_collide(self, tmp_path, record):
        """Two jobs of one server committing the same key stage the same
        ``gt_*.json``: each writer needs its own staging file, or the
        loser's rename finds it already moved."""
        store = ResultStore(tmp_path)
        key = f"{0:032x}"
        failures: list[BaseException] = []
        barrier = threading.Barrier(4)

        def save():
            barrier.wait(timeout=30)
            for _ in range(40):
                try:
                    store.save(key, record)
                except BaseException as exc:  # noqa: BLE001 — reported below
                    failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=save) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert [p.name for p in tmp_path.iterdir()] == [f"gt_{key}.json"]
        assert store.load(key) == record
        assert len(store) == 1
        assert store.nbytes == (tmp_path / f"gt_{key}.json").stat().st_size

    def test_prune_evicts_oldest(self, tmp_path, record):
        store = ResultStore(tmp_path)
        keys = self._populate(store, record, 5)
        paths = [tmp_path / f"gt_{k}.json" for k in keys]
        now = paths[-1].stat().st_mtime
        for age, path in enumerate(reversed(paths)):
            os.utime(path, (now - age, now - age))  # paths[0] oldest
        assert store.prune(max_entries=2) == 3
        assert len(store) == 2
        assert store.keys() == sorted(keys[-2:])
        assert store.prune(max_entries=2) == 0  # already within budget

    def test_prune_rejects_negative(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path).prune(-1)

    def test_refresh_counts_foreign_writes(self, tmp_path, record):
        store = ResultStore(tmp_path)
        other = ResultStore(tmp_path)  # simulates another process
        other.save("f" * 32, record)
        assert len(store) == 0  # instance view is stale by design
        assert store.refresh() == 1
        assert len(store) == 1

    def test_nbytes_tracks_saves_overwrites_discards(self, tmp_path, record):
        store = ResultStore(tmp_path)
        keys = self._populate(store, record, 3)
        on_disk = sum(p.stat().st_size for p in tmp_path.glob("gt_*.json"))
        assert store.nbytes == on_disk
        store.save(keys[0], record)  # overwrite: byte total stays in sync
        assert store.nbytes == sum(
            p.stat().st_size for p in tmp_path.glob("gt_*.json")
        )
        store.prune(max_entries=1)
        assert len(store) == 1
        assert store.nbytes == sum(
            p.stat().st_size for p in tmp_path.glob("gt_*.json")
        )
        # a fresh instance and refresh() both agree with the disk
        assert ResultStore(tmp_path).nbytes == store.nbytes
        store.refresh()
        assert store.nbytes == sum(
            p.stat().st_size for p in tmp_path.glob("gt_*.json")
        )

    def test_prune_bytes_evicts_oldest_to_budget(self, tmp_path, record):
        store = ResultStore(tmp_path)
        keys = self._populate(store, record, 4)
        paths = [tmp_path / f"gt_{k}.json" for k in keys]
        now = paths[-1].stat().st_mtime
        for age, path in enumerate(reversed(paths)):
            os.utime(path, (now - age, now - age))  # paths[0] oldest
        entry = paths[0].stat().st_size
        removed = store.prune_bytes(2 * entry)
        assert removed == 2
        assert store.nbytes <= 2 * entry
        assert store.keys() == sorted(keys[-2:])  # oldest went first
        assert store.prune_bytes(2 * entry) == 0  # already within budget
        with pytest.raises(ValueError):
            store.prune_bytes(-1)

    def test_service_byte_budget_bounds_store(
        self, small_graph, tiny_task, configs, tmp_path
    ):
        probe = ProfilingService(cache_dir=tmp_path / "probe")
        probe.profile(tiny_task, configs[:1], graph=small_graph)
        entry = probe.store.nbytes  # bytes of one record on this platform

        # room for one record but not two: the second commit must evict
        budget = entry + entry // 2
        service = ProfilingService(
            cache_dir=tmp_path / "store", store_budget_bytes=budget
        )
        service.profile(tiny_task, configs, graph=small_graph)
        assert service.store.nbytes <= budget
        assert service.stats.evictions > 0
        with pytest.raises(ValueError):
            ProfilingService(store_budget_bytes=0)


class TestIntegration:
    def test_fresh_services_share_one_store(
        self, small_graph, tiny_task, configs, tmp_path
    ):
        first = ProfilingService(cache_dir=str(tmp_path)).profile(
            tiny_task, configs, graph=small_graph
        )
        second = ProfilingService(cache_dir=str(tmp_path)).profile(
            tiny_task, configs, graph=small_graph
        )
        assert second == first
        assert len(list(tmp_path.glob("gt_*.json"))) == 2

    def test_cli_exposes_service_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["navigate", "--workers", "3", "--profile-cache", "/tmp/pc"]
        )
        assert args.workers == 3
        assert args.profile_cache == "/tmp/pc"
