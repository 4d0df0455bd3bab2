"""The six ledger workloads: what one *op* is, its set-up and its checks.

Every workload runs the ``reference`` kernel with ``workers=0`` /
``profile_workers=0`` so all work stays in the measured process.  ``--seed``
drives ``TaskSpec.seed`` (split, model init, sampling and batch order), the
seed of the synthetic 1500-node graph and the order of the served requests.
The navigator's own seed is part of the workload definition and stays 0: it
chooses *which* 13 configurations Step 2 trains, so letting it follow
``--seed`` would change the amount of work between runs, and the ledger's
bounds are checked across seeds.

A workload is used as::

    w = WORKLOADS[name](seed, smoke, tmp_dir)
    w.setup()            # graph build, store priming, server start
    w.warmup()           # one untimed op; set-up + warm-up is ``setup_s``
    ops = w.measure(seconds, tracer)
    w.check(ops)         # output checks + quality numbers
    w.teardown()
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import shutil
import threading
import time
from pathlib import Path

import numpy as np

from ledger.hostspeed import HostProbe
from repro.config.settings import TaskSpec, TrainingConfig
from repro.config.space import DesignSpace, default_space
from repro.config.templates import TEMPLATES, get_template
from repro.explorer import GNNavigator
from repro.graphs.datasets import load_dataset
from repro.graphs.generators import powerlaw_community_graph
from repro.runtime.kernels import kernel_counters
from repro.runtime.parallel import record_to_dict
from repro.runtime.profiler import profile_one
from repro.serving import NavigationClient, NavigationRequest, NavigationServer
from repro.serving.transport import NavigationHTTPServer, RemoteNavigationClient
from repro.serving.types import JobStatus

__all__ = ["WORKLOADS", "Workload"]

#: Step-2 recipe shared by every navigation in the ledger
BUDGET = 8
PROFILE_EPOCHS = 2
NAV_SEED = 0
#: every wait on a job or a thread is bounded by this
WAIT_S = 60.0
#: host-speed samples taken before the first op; after an op it is one per
#: half second the op took (about 3% of the run), and at least this many
PROBE_SAMPLES = 3

#: the 48-point space of ``bench_serving_throughput``: DFS is cheap next to
#: the training runs, the regime a served job lives in
COMPACT_SPACE = DesignSpace(
    {
        "batch_size": (32, 64, 128, 256),
        "hop_list": ((3, 2), (5, 3), (10, 5)),
        "cache_ratio": (0.0, 0.25),
        "hidden_channels": (16, 32),
    },
    base=TrainingConfig(),
)


def small_graph(smoke: bool, seed: int, name: str):
    """The synthetic graph of ``nav_warm`` / ``serve_http`` (and of smoke).

    Homophily and feature noise put test accuracy near 0.9 rather than at
    1.0, so the accuracy a guideline reaches can tell two guidelines apart.
    """
    return powerlaw_community_graph(
        400 if smoke else 1500,
        num_classes=6,
        feature_dim=24,
        min_degree=3,
        max_degree=80,
        homophily=0.6,
        feature_noise=2.0,
        seed=seed,
        name=name,
    )


def _spmm_counters() -> tuple[float, float]:
    totals = kernel_counters().values()
    return (
        sum(c.get("calls", 0.0) for c in totals),
        sum(c.get("seconds", 0.0) for c in totals),
    )


def _store_entries(store: Path) -> int:
    return sum(1 for _ in store.glob("gt_*.json"))


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _fail(record: dict, exc: Exception) -> None:
    """A failed op is a result, not a crash: it counts in ``failed``."""
    record["ok"] = False
    record["error"] = f"{type(exc).__name__}: {exc}"


def _check_guidelines(result, request) -> None:
    if set(result.guidelines) != set(request.priorities):
        raise ValueError("result lacks the requested guideline")


class Workload:
    """Set-up, one op, and the output checks of one named workload."""

    name = ""

    def __init__(self, seed: int, smoke: bool, tmp: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.tmp = tmp
        #: numbers the check phase adds: ``test_accuracy`` and the per-layer
        #: values that come from outputs rather than from spans
        self.outputs: dict[str, float] = {}
        #: facts recorded in the result file as information only
        self.info: dict[str, object] = {}
        #: failed workload-level checks (each also counts in ``failed``)
        self.failures: list[str] = []
        #: sampled between ops; timings are divided by its correction
        self.probe = HostProbe()
        self.probe_samples = 1 if smoke else PROBE_SAMPLES

    # -- the parts a workload defines
    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Drop what one :meth:`setup` built (also used between repeats)."""

    def warmup(self) -> None:
        raise NotImplementedError

    def op(self, index: int) -> dict:
        """Run one op; return its numeric outputs, raise if it failed."""
        raise NotImplementedError

    def check(self, ops: list[dict]) -> None:
        """Workload-level output checks and quality numbers."""

    def _check_accuracy(self, accuracy: float) -> None:
        """Record the test accuracy; it must be clear of a coin toss."""
        self.outputs["nn.test_accuracy"] = accuracy
        floor = 2.0 / self.graph.num_classes
        if not accuracy >= floor:
            self.failures.append(f"test accuracy {accuracy:.3f} under {floor:.3f}")

    # -- the measuring loop shared by the nav_* and train_* workloads
    def _run_op(self, index: int, tracer, traced: bool) -> dict:
        record = {"index": index, "traced": traced, "ok": True, "error": None}
        calls0, spmm0 = _spmm_counters()
        frame = None
        if traced:
            tracer.enabled = True
            frame = tracer.start("op", op_id=f"{self.name}#{index}")
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            record.update(self.op(index))
        except Exception as exc:  # noqa: BLE001
            _fail(record, exc)
        record["wall_s"] = time.perf_counter() - t0
        record["cpu_s"] = time.process_time() - cpu0
        if traced:
            tracer.stop(frame)
            tracer.enabled = False
        calls1, spmm1 = _spmm_counters()
        record["spmm_calls"] = calls1 - calls0
        record["spmm_s"] = spmm1 - spmm0
        return record

    def measure(self, seconds: float, tracer) -> list[dict]:
        """Run ops for ``seconds``; with a tracer, alternate untraced and
        traced ops so each traced op has an untraced neighbour."""
        ops: list[dict] = []
        start = time.perf_counter()
        self.probe.sample(self.probe_samples)
        while True:
            traced = tracer is not None and len(ops) % 2 == 1
            ops.append(self._run_op(len(ops), tracer, traced))
            self.probe.sample(max(self.probe_samples, int(2 * ops[-1]["wall_s"])))
            paired = tracer is None or len(ops) % 2 == 0
            # stop where the next op would end further past ``seconds`` than
            # this one ended before it, so runs take ``seconds`` on average
            elapsed = time.perf_counter() - start
            step = elapsed / len(ops) * (1 if tracer is None else 2)
            if paired and (self.smoke or elapsed + step / 2 > seconds):
                return ops


# ---------------------------------------------------------------- navigation
class _Navigation(Workload):
    """Shared by ``nav_cold`` and ``nav_warm``: one ``explore`` per op."""

    space = None  # ``None`` = the default 4682-candidate space

    def _navigator(self, store: Path) -> GNNavigator:
        return GNNavigator(
            self.task,
            space=self.space,
            graph=self.graph,
            profile_budget=BUDGET,
            profile_epochs=PROFILE_EPOCHS,
            seed=NAV_SEED,
            workers=0,
            cache_dir=str(store),
        )

    def _expected_runs(self) -> int:
        """Distinct canonical configs Step 2 asks for (sample + templates)."""
        space = self.space or default_space()
        sample = space.sample(BUDGET, rng=np.random.default_rng(NAV_SEED))
        sample.extend(TEMPLATES.values())
        return len({config.canonical() for config in sample})

    def _store_outputs(self, store: Path) -> None:
        entries = list(store.glob("gt_*.json"))
        self.outputs["runtime.store.entries"] = len(entries)
        self.outputs["runtime.store.nbytes"] = sum(p.stat().st_size for p in entries)

    def _op_outputs(self, navigator: GNNavigator, report, executed: int) -> dict:
        records = navigator.records
        if not all(_finite(r.time_s, r.memory_bytes, r.accuracy) for r in records):
            raise ValueError("non-finite ground-truth record")
        return {
            "runs_executed": executed,
            "requested": len(records),
            "dfs_evaluated": report.exploration.evaluated,
            "front_size": report.guidelines["balance"].front_size,
            "batch_nodes_mean": float(np.mean([r.mean_batch_nodes for r in records])),
            "batch_edges_mean": float(np.mean([r.mean_batch_edges for r in records])),
        }


class NavCold(_Navigation):
    name = "nav_cold"

    def setup(self) -> None:
        if self.smoke:
            self.graph = small_graph(True, self.seed, "reddit2")
            self.space = COMPACT_SPACE
        else:
            self.graph = load_dataset("reddit2", use_cache=False)
        self.task = TaskSpec(dataset="reddit2", arch="sage", epochs=2, seed=self.seed)
        self.expected = self._expected_runs()

    def warmup(self) -> None:
        graph = small_graph(self.smoke, self.seed, "warmup")
        task = TaskSpec(dataset="warmup", arch="sage", epochs=1, seed=self.seed)
        profile_one(task, TEMPLATES["pyg"], graph=graph)

    def op(self, index: int) -> dict:
        store = self.tmp / f"cold-{index}"
        navigator = self._navigator(store)
        report = navigator.explore(priorities=["balance"])
        self.last = (navigator, report)
        executed = _store_entries(store)
        if executed != self.expected:
            raise ValueError(
                f"{executed} training runs for {self.expected} distinct configs"
            )
        return self._op_outputs(navigator, report, executed)

    def check(self, ops: list[dict]) -> None:
        """Step 3 on the chosen guideline: the paper's Perf(T, Γ, Acc), next
        to the profiled ``pyg`` template it is meant to beat."""
        navigator, report = self.last
        guideline = report.guidelines["balance"]
        perf = navigator.apply(guideline)
        pyg = next(
            r for r in navigator.records if r.config == TEMPLATES["pyg"].canonical()
        )
        if not _finite(perf.time_s, perf.memory.total):
            self.failures.append("applied guideline has a non-finite Perf")
        self._check_accuracy(perf.accuracy)
        self.outputs.update(
            {
                "explorer.guideline_time_ms": perf.time_s * 1e3,
                "explorer.guideline_mem_mb": perf.memory.total / 2**20,
                "explorer.guideline_speedup": pyg.time_s / perf.time_s,
                "explorer.guideline_mem_ratio": perf.memory.total / pyg.memory_bytes,
            }
        )
        self.info["guideline"] = guideline.config.describe()
        payload = [record_to_dict(r) for r in navigator.records]
        self.info["records_sha256"] = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()
        self._store_outputs(self.tmp / f"cold-{ops[-1]['index']}")


class NavWarm(_Navigation):
    name = "nav_warm"

    def setup(self) -> None:
        if self.smoke:
            self.space = COMPACT_SPACE
        self.graph = small_graph(self.smoke, self.seed, "ledger-graph")
        self.task = TaskSpec(
            dataset="ledger-graph",
            arch="sage",
            epochs=2,
            seed=self.seed,
        )
        self.store = self.tmp / "warm"
        shutil.rmtree(self.store, ignore_errors=True)
        # the priming pass: one cold navigation fills the store
        navigator = self._navigator(self.store)
        report = navigator.explore(priorities=["balance"])
        self.reference = report.guidelines["balance"].config
        self.entries = _store_entries(self.store)

    def warmup(self) -> None:
        self.op(-1)

    def op(self, index: int) -> dict:
        navigator = self._navigator(self.store)
        report = navigator.explore(priorities=["balance"])
        executed = _store_entries(self.store) - self.entries
        if executed:
            raise ValueError(f"{executed} training runs on a primed store")
        if report.guidelines["balance"].config != self.reference:
            raise ValueError("guideline differs from the priming pass")
        return self._op_outputs(navigator, report, executed)

    def check(self, ops: list[dict]) -> None:
        self._store_outputs(self.store)


# ------------------------------------------------------------------ training
class _Training(Workload):
    """One 2-epoch ground-truth run per op: the unit Step 2 repeats."""

    dataset = ""
    arch = ""

    def config(self) -> TrainingConfig:
        raise NotImplementedError

    def setup(self) -> None:
        if self.smoke:
            self.graph = small_graph(True, self.seed, self.dataset)
        else:
            self.graph = load_dataset(self.dataset, use_cache=False)
        self.task = TaskSpec(
            dataset=self.dataset,
            arch=self.arch,
            epochs=1 if self.smoke else 2,
            seed=self.seed,
        )

    def warmup(self) -> None:
        # one epoch touches every allocation size a 2-epoch op will
        task = dataclasses.replace(self.task, epochs=1)
        profile_one(task, self.config(), graph=self.graph)

    def op(self, index: int) -> dict:
        record, report = profile_one(self.task, self.config(), graph=self.graph)
        losses = [epoch.loss for epoch in report.epochs]
        if not _finite(*losses, record.time_s, record.memory_bytes, record.accuracy):
            raise ValueError(f"non-finite training output (losses {losses})")
        return {
            "runs_executed": 1,
            "accuracy": record.accuracy,
            "batches": sum(epoch.num_batches for epoch in report.epochs),
            "batch_nodes_mean": record.mean_batch_nodes,
            "batch_edges_mean": record.mean_batch_edges,
        }

    def check(self, ops: list[dict]) -> None:
        accuracies = [op["accuracy"] for op in ops if op["ok"]]
        if accuracies:
            self._check_accuracy(float(np.median(accuracies)))
        if len(set(accuracies)) > 1:
            self.failures.append(f"accuracy differs between ops: {accuracies}")


class TrainFanout(_Training):
    name = "train_fanout"
    dataset = "reddit2"
    arch = "sage"

    def config(self) -> TrainingConfig:
        return get_template("pyg", batch_size=64, hop_list=(5, 3))


class TrainDense(_Training):
    name = "train_dense"
    dataset = "reddit"
    arch = "gcn"

    def config(self) -> TrainingConfig:
        return TrainingConfig(
            sampler="cluster",
            batch_size=128 if self.smoke else 2048,
            hidden_channels=256,
        )


class TrainGat(_Training):
    name = "train_gat"
    dataset = "ogbn-arxiv"
    arch = "gat"

    def config(self) -> TrainingConfig:
        return TEMPLATES["pyg"]


# ------------------------------------------------------------------- serving
class ServeHttp(Workload):
    """Burst then closed loop through the HTTP transport.

    Phase A (*burst*): ``submit_many`` of 4 tenants x 4 priorities x 4
    navigator seeds on an empty store, then wait for all — writes, in-flight
    sharing and queueing.  Phase B (*closed loop*): 2 client threads (=
    ``nproc``), each ``submit`` then ``result``, over the now-warm store —
    reads and HTTP round trips.  Callers wait for their guideline, so there
    is no open-loop schedule.
    """

    name = "serve_http"
    CLIENTS = 2
    LOOP_SEGMENTS = 4
    PRIORITIES = ("balance", "ex_tm", "ex_ma", "ex_ta")

    def setup(self) -> None:
        self.graph = small_graph(self.smoke, self.seed, "ledger-graph")
        self.task = TaskSpec(
            dataset="ledger-graph",
            arch="sage",
            epochs=2,
            seed=self.seed,
        )
        store = self.tmp / "served"
        shutil.rmtree(store, ignore_errors=True)
        self.server = NavigationServer(
            workers=2,
            profile_workers=0,
            cache_dir=str(store),
            graphs={self.task.dataset: self.graph},
            space=COMPACT_SPACE,
        )
        self.http = NavigationHTTPServer(self.server)
        self.http.start()
        self.client = RemoteNavigationClient(self.http.url, request_timeout=WAIT_S)
        self.client.health()
        nav_seeds = range(1 if self.smoke else 4)
        tenants = range(2 if self.smoke else 4)
        self.requests = [
            NavigationRequest(
                task=self.task,
                priorities=(priority,),
                budget=BUDGET,
                profile_epochs=PROFILE_EPOCHS,
                seed=nav_seed,
                tenant=f"tenant-{tenant}",
                tag=f"tenant-{tenant}",
            )
            for tenant in tenants
            for priority in self.PRIORITIES
            for nav_seed in nav_seeds
        ]
        np.random.default_rng(self.seed).shuffle(self.requests)

    def teardown(self) -> None:
        self.http.stop()
        self.server.stop()

    def warmup(self) -> None:
        task = TaskSpec(dataset="warmup", arch="sage", epochs=1, seed=self.seed)
        profile_one(task, TEMPLATES["pyg"], graph=self.graph)

    # -- load generation
    def _job(self, client, request, tracer, traced: bool, phase: str) -> dict:
        """submit -> result for one request; the closed-loop op."""
        record = {"phase": phase, "traced": traced, "ok": True, "error": None}
        frame = tracer.start("op") if traced else None
        t0 = time.perf_counter()
        try:
            handle = client.submit(request)
            t1 = time.perf_counter()
            result = handle.result(timeout=WAIT_S)
            t2 = time.perf_counter()
            record.update(
                job_id=handle.job_id,
                submit_ms=(t1 - t0) * 1e3,
                result_ms=(t2 - t1) * 1e3,
            )
            _check_guidelines(result, request)
        except Exception as exc:  # noqa: BLE001
            _fail(record, exc)
        record["wall_s"] = time.perf_counter() - t0
        if traced:
            tracer.stop(frame)
        return record

    def _burst(self, tracer, traced: bool) -> list[dict]:
        frame = tracer.start("op", op_id="burst") if traced else None
        t0 = time.perf_counter()
        handles = self.client.submit_many(self.requests)
        jobs = []
        for handle, request in zip(handles, self.requests, strict=True):
            record = {"phase": "burst", "traced": traced, "ok": True, "error": None}
            try:
                _check_guidelines(handle.result(timeout=WAIT_S), request)
            except Exception as exc:  # noqa: BLE001
                _fail(record, exc)
            record["job_id"] = handle.job_id
            jobs.append(record)
        self.burst_wall_s = time.perf_counter() - t0
        if traced:
            tracer.stop(frame)
        return jobs

    def _closed_loop(self, seconds: float, tracer, traced: bool) -> list[dict]:
        """One segment of phase B: each client runs jobs until the deadline."""
        deadline = time.perf_counter() + seconds
        jobs: list[dict] = []

        def client_loop(offset: int) -> None:
            client = RemoteNavigationClient(
                self.http.url, tenant=f"loop-{offset}", request_timeout=WAIT_S
            )
            count = 0
            while count < 2 or (not self.smoke and time.perf_counter() < deadline):
                request = self.requests[
                    (offset + (self._loop_jobs + count) * self.CLIENTS)
                    % len(self.requests)
                ]
                jobs.append(self._job(client, request, tracer, traced, "loop"))
                count += 1

        threads = [
            threading.Thread(target=client_loop, args=(k,), name=f"client-{k}")
            for k in range(self.CLIENTS)
        ]
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 2 * WAIT_S)
            if thread.is_alive():
                self.failures.append(f"{thread.name} did not finish")
        if not traced:
            self._loop_wall_s += time.perf_counter() - t0
            self._loop_cpu_s += time.process_time() - cpu0
            self._loop_jobs += len(jobs)
        return jobs

    @property
    def loop_cpu_s(self) -> float:
        """Server, transport and clients share the process: its CPU time
        over the untraced closed loop is what one warm job costs."""
        return self._loop_cpu_s / self._loop_jobs

    @property
    def loop_jobs_per_s(self) -> float:
        """Throughput of the untraced closed loop, both clients together."""
        return self._loop_jobs / self._loop_wall_s

    def measure(self, seconds: float, tracer) -> list[dict]:
        self._loop_wall_s, self._loop_cpu_s, self._loop_jobs = 0.0, 0.0, 0
        calls0, spmm0 = _spmm_counters()
        # the probe never runs beside the load: it would take a core from it
        self.probe.sample(4 * self.probe_samples)
        if tracer is not None:
            tracer.enabled = True
        jobs = self._burst(tracer, tracer is not None)
        if tracer is not None:
            tracer.enabled = False
        self.probe.sample(4 * self.probe_samples)
        loop_s = max(seconds - self.burst_wall_s, 0.4 * seconds)
        # phase B runs in segments with the probe between them.  With a
        # tracer the later half of the segments is traced: segments never
        # overlap, so every job is wholly traced or wholly untraced
        segments = 2 if self.smoke else self.LOOP_SEGMENTS
        for k in range(segments):
            traced = tracer is not None and k >= segments // 2
            if traced:
                tracer.enabled = True
            jobs += self._closed_loop(loop_s / segments, tracer, traced)
            if traced:
                tracer.enabled = False
            self.probe.sample(2 * self.probe_samples)
        calls1, spmm1 = _spmm_counters()
        self.spmm = (calls1 - calls0, spmm1 - spmm0)
        return jobs

    def _transport_probes(self, jobs: list[dict]) -> None:
        """Round-trip times of the cheap endpoints, after the load."""
        job_id = jobs[-1]["job_id"]
        rtts = []
        for _ in range(20 if self.smoke else 300):
            t0 = time.perf_counter()
            self.client.status(job_id)
            rtts.append((time.perf_counter() - t0) * 1e3)
        scrapes = []
        for _ in range(5):
            t0 = time.perf_counter()
            self.client.metrics()
            scrapes.append((time.perf_counter() - t0) * 1e3)
        self.outputs.update(
            {
                "transport.status_rtt_ms_p50": float(np.percentile(rtts, 50)),
                "transport.status_rtt_ms_p95": float(np.percentile(rtts, 95)),
                "transport.metrics_scrape_ms": float(np.median(scrapes)),
            }
        )

    def check(self, ops: list[dict]) -> None:
        snapshots = {s.job_id: s for s in self.client.jobs()}
        for job in ops:
            snapshot = snapshots.get(job.get("job_id"))
            if job["ok"] and (snapshot is None or snapshot.status is not JobStatus.DONE):
                job["ok"] = False
                job["error"] = f"job ended {snapshot and snapshot.status.value}"
        done = [s for s in snapshots.values() if s.status is JobStatus.DONE]
        queue_wait = [s.started_at - s.submitted_at for s in done]
        service = [s.finished_at - s.started_at for s in done]
        stats = self.server.stats
        requested = stats.executed + stats.cache_hits + stats.shared_inflight
        self.outputs.update(
            {
                "serving.queue_wait_s_p50": float(np.percentile(queue_wait, 50)),
                "serving.queue_wait_s_p90": float(np.percentile(queue_wait, 90)),
                "serving.service_s_p50": float(np.percentile(service, 50)),
                "serving.service_s_p90": float(np.percentile(service, 90)),
                "serving.cache_hits": stats.cache_hits,
                "serving.shared_inflight": stats.shared_inflight,
                "serving.deduplicated": stats.deduplicated,
                "serving.events_emitted": self.server.metrics.counter("events_emitted"),
                "serving.burst_wall_s": self.burst_wall_s,
                "runtime.runs_executed": stats.executed,
                "runtime.store.hit_ratio": stats.cache_hits / max(requested, 1),
                "runtime.store.entries": len(self.server.store),
                "runtime.store.nbytes": self.server.store.nbytes,
            }
        )
        self._transport_probes(ops)

        # HTTP == in-process: the same request through the in-process client
        # of the same server must choose the same guideline configs
        request = next(r for r in self.requests if r.priorities == ("balance",))
        remote = self.client.navigate(request, timeout=WAIT_S)
        local = NavigationClient(self.server).navigate(request, timeout=WAIT_S)
        if {k: g.config for k, g in remote.guidelines.items()} != {
            k: g.config for k, g in local.guidelines.items()
        }:
            self.failures.append("HTTP and in-process guidelines differ")
        self.outputs["explorer.front_size"] = local.guidelines["balance"].front_size
        self.outputs["explorer.dfs.evaluated"] = local.report.exploration.evaluated


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (NavCold, NavWarm, TrainFanout, TrainDense, TrainGat, ServeHttp)
}
