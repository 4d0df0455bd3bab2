"""One scenario through the whole serving stack, under the lock sanitizer.

An in-process server with its HTTP transport runs: a job cancelled while
queued, a cold and a warm-started navigation (``repro.transfer``), a repeat
that the store and the estimator memo answer, a job that fails (the server
keeps three finished jobs' results, so the two oldest expire), and a fleet
batch that an
executor claims and lets expire, a second executor claims and commits,
the first commits late and deregisters — then a batch whose fleet goes
silent, so the job's own thread trains it.

Two checks read the outcome:

* every metric family :mod:`repro.serving.metrics` declares is in the
  ``/v1/metrics`` scrape, and every scraped series belongs to one;
* the sanitizer observed every known lock-order edge of the serving stack
  and recorded no finding.  It is the project's one lock-order check, so
  these edges are what it must keep seeing.
"""

from __future__ import annotations

import threading

import pytest

from repro.analysis.sanitizer import LockSanitizer
from repro.config import TaskSpec, TrainingConfig
from repro.errors import JobFailedError
from repro.graphs.generators import powerlaw_community_graph
from repro.runtime.parallel import ProfilingService
from repro.serving import NavigationServer
from repro.serving.fleet import FleetClient
from repro.serving import server as server_mod
from repro.serving.metrics import FAMILIES
from repro.serving.transport import NavigationHTTPServer
from repro.transfer import TransferPolicy

#: (held, acquired) pairs the serving stack takes in this order.  The
#: profiling service's pending queue is leased under the service's lock,
#: which asks the fleet dispatcher whether the fleet is live and has it
#: issue the lease; the dispatcher never takes another lock inside its own.
KNOWN_EDGES = {
    ("ProfilingService._lock", "FleetDispatcher._lock"),
    ("NavigationHTTPServer._idempotency_lock", "EventBuffer._cond"),
    ("NavigationHTTPServer._idempotency_lock", "MetricsRegistry._lock"),
    ("NavigationHTTPServer._idempotency_lock", "NavigationServer._lock"),
    ("NavigationHTTPServer._idempotency_lock", "PriorityJobQueue._lock"),
    ("NavigationServer._lock", "EventBuffer._cond"),
    ("NavigationServer._lock", "MetricsRegistry._lock"),
    ("NavigationServer._lock", "PriorityJobQueue._lock"),
    ("ProfilingService._lock", "ProfilingStats._lock"),
}

LEASE_TTL = 0.5


def _graph(seed: int, nodes: int, name: str):
    return powerlaw_community_graph(
        nodes,
        num_classes=4,
        feature_dim=16,
        homophily=0.7,
        feature_noise=0.4,
        seed=seed,
        name=name,
    )


def _in_thread(fn, *args, **kwargs):
    out: dict = {}

    def run():
        try:
            out["value"] = fn(*args, **kwargs)
        except BaseException as exc:  # surfaced by the caller
            out["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()

    def join():
        thread.join(timeout=120)
        assert not thread.is_alive(), f"{fn} never returned"
        if "error" in out:
            raise out["error"]
        return out["value"]

    return join


def _fleet_batch(server, client, task, configs, graph):
    """A batch the fleet runs: one executor claims and goes silent, its
    lease expires, another claims and commits, the first commits late
    (duplicates) and deregisters."""
    measured = ProfilingService().profile(task, configs, graph=graph)
    records = {c.canonical(): r for c, r in zip(configs, measured, strict=True)}
    zombie = client.register().executor_id
    batch = _in_thread(server.profiler.profile, task, configs, graph=graph)
    stale = client.claim(zombie, timeout=10.0)
    survivor = client.register().executor_id
    grant = client.claim(survivor, timeout=10.0)  # after the lease expired
    assert set(grant.keys) == set(stale.keys)
    client.commit(
        survivor,
        grant.lease_id,
        list(grant.keys),
        [records[c] for c in grant.configs],
        idempotency_key=grant.lease_id,
    )
    assert batch() == measured
    late = client.commit(
        zombie,
        stale.lease_id,
        list(stale.keys),
        [records[c] for c in stale.configs],
        idempotency_key=stale.lease_id,
    )
    assert late.duplicates == len(stale.keys)
    assert client.deregister(zombie) is True
    return survivor


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    graphs = {"fam-a": _graph(1, 130, "fam-a"), "fam-b": _graph(2, 140, "fam-b")}
    task_a = TaskSpec(dataset="fam-a", arch="sage", epochs=2)
    task_b = TaskSpec(dataset="fam-b", arch="sage", epochs=2)
    job = {"budget": 8, "profile_epochs": 1}
    sanitizer = LockSanitizer().enable()
    patch = pytest.MonkeyPatch()
    patch.setattr(server_mod, "_RETAINED_RESULTS", 3)
    try:
        server = NavigationServer(
            workers=2,
            graphs=graphs,
            cache_dir=str(tmp_path_factory.mktemp("store")),
            autostart=False,
            event_buffer=4,
            fleet_lease_ttl=LEASE_TTL,
            transfer=TransferPolicy(min_similarity=0.2, min_budget=8),
        )
        http = NavigationHTTPServer(server)
        http.start()
        try:
            client = FleetClient(http.url)
            assert client.submit(task_a, **job).cancel() is True
            server.start()
            cold = client.navigate(task_a, timeout=240, **job)
            assert "transfer" not in cold.report.extras
            assert client.navigate(task_a, timeout=240, **job) is not None
            warm = client.navigate(task_b, timeout=240, **job)
            assert warm.report.extras["transfer"]["donors"]
            with pytest.raises(JobFailedError):
                client.navigate(
                    TaskSpec(dataset="no-such-dataset"), timeout=240, **job
                )

            gcn = TaskSpec(dataset="fam-a", arch="gcn", epochs=1)
            configs = [
                TrainingConfig(batch_size=b, hop_list=(4, 3), hidden_channels=16)
                for b in (32, 64)
            ]
            trainings = [server.service.stats.trainings]
            survivor = _fleet_batch(server, client, gcn, configs, graphs["fam-a"])
            trainings.append(server.service.stats.trainings)
            # The survivor beats once more, so the caller first leaves the
            # next batch to the fleet; it then goes silent, and the caller
            # trains both classes itself.
            client.heartbeat(survivor)
            silent = [
                TrainingConfig(batch_size=b, hidden_channels=16) for b in (48, 96)
            ]
            server.profiler.profile(gcn, silent, graph=graphs["fam-a"])
            trainings.append(server.service.stats.trainings)
            client.register()  # a live executor at scrape time
            scrape = client.metrics()
        finally:
            http.stop()
            server.stop()
    finally:
        patch.undo()
        sanitizer.disable()
    return scrape, sanitizer, trainings


def test_every_declared_metric_family_is_scraped(scenario):
    scrape, _, trainings = scenario
    # the fleet batch trained nothing here; the silent one, its two classes
    before, after_fleet, after_silent = trainings
    assert (after_fleet - before, after_silent - after_fleet) == (0, 2)
    assert scrape["profiling_trainings"] == after_silent
    assert scrape["fleet_lease_expiries"] >= 1
    assert scrape["jobs_cancelled"] == scrape["jobs_failed"] == 1
    assert scrape["estimator_fit_hits"] == 1  # the repeat
    assert scrape["results_expired"] == 2
    assert {name.split("{")[0] for name in scrape} == set(FAMILIES)
    for name in scrape:
        family, _, labels = name.partition("{")
        keys = {pair.split("=")[0] for pair in labels.rstrip("}").split(",") if pair}
        assert keys <= set(FAMILIES[family].labels), name


def test_sanitizer_observes_every_known_lock_edge(scenario):
    _, sanitizer, _ = scenario
    report = sanitizer.report()
    assert report["findings"] == []
    observed = {(edge["src"], edge["dst"]) for edge in report["edges"]}
    assert KNOWN_EDGES <= observed, KNOWN_EDGES - observed
    assert observed <= KNOWN_EDGES, observed - KNOWN_EDGES
