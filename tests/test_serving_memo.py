"""What a warm served job no longer redoes, and what a finished job keeps.

* The shared profiling service memoises fitted gray-box estimators: equal
  (records in order, donor weights, ``train_frac``, seed) fit once, and the
  memo's estimator predicts exactly what a fresh fit predicts.
* A server keeps every job's snapshot, but a finished job's result, event
  history and cancellation token only while it is among the newest
  ``_RETAINED_RESULTS`` finished jobs.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.config import TaskSpec
from repro.config.columns import ConfigColumns
from repro.config.space import default_space
from repro.config.templates import TEMPLATES
from repro.errors import EstimatorError, ResultExpiredError, UnknownJobError
from repro.estimator.graybox import GrayBoxEstimator
from repro.explorer import GNNavigator
from repro.graphs import profiling as profiling_mod
from repro.graphs.csr import CSRGraph
from repro.hardware import get_platform
from repro.runtime import ProfilingService
from repro.serving import (
    JobStatus,
    NavigationClient,
    NavigationRequest,
    NavigationServer,
    SharedProfilingService,
)
from repro.serving import scheduler as scheduler_mod
from repro.serving import server as server_mod
from repro.serving.events import GAP_PHASE, watch_events
from repro.serving.transport import NavigationHTTPServer, RemoteNavigationClient

BUDGET, PROFILE_EPOCHS = 8, 1


def _table(predictions) -> np.ndarray:
    return np.array([(p.time_s, p.memory_bytes, p.accuracy) for p in predictions])


@pytest.fixture(scope="module")
def task() -> TaskSpec:
    return TaskSpec(dataset="tiny", arch="sage", epochs=2, lr=0.02)


@pytest.fixture(scope="module")
def records(small_graph, task):
    """The records one navigation's Step 2 ends in."""
    navigator = GNNavigator(
        task,
        graph=small_graph,
        profile_budget=BUDGET,
        profile_epochs=PROFILE_EPOCHS,
        workers=0,
    )
    navigator.fit_estimator()
    return navigator.records


@pytest.fixture(scope="module")
def candidates() -> ConfigColumns:
    configs = [*default_space(), *TEMPLATES.values()]
    return ConfigColumns([c.canonical() for c in configs])


def _predict(estimator, candidates, graph) -> np.ndarray:
    return estimator.predict(candidates, graph.profile, get_platform("rtx4090"))


@pytest.fixture()
def shared() -> SharedProfilingService:
    return SharedProfilingService(ProfilingService())


def _fit(shared, records, weights=None, *, train_frac=0.6, seed=0):
    return shared.fit_estimator(
        records, weights, train_frac=train_frac, random_state=seed
    )


class TestEstimatorMemo:
    def test_a_hit_predicts_what_a_fresh_fit_predicts(
        self, shared, records, candidates, small_graph
    ):
        first = _fit(shared, records)
        hit = _fit(shared, list(records))  # an equal list, not the same one
        assert hit is first
        assert shared.estimator_fits == 1
        assert shared.estimator_fit_hits == 1
        fresh = GrayBoxEstimator(train_frac=0.6, random_state=0).fit(records)
        got = _predict(hit, candidates, small_graph)
        want = _predict(fresh, candidates, small_graph)
        for column in range(3):  # T, Γ, Acc
            assert np.array_equal(got[:, column], want[:, column])

    def test_a_weighted_hit_predicts_what_a_fresh_weighted_fit_predicts(
        self, shared, records, candidates, small_graph
    ):
        weights = np.linspace(1.0, 0.3, len(records))
        first = _fit(shared, records, weights)
        assert _fit(shared, records, weights.copy()) is first
        fresh = GrayBoxEstimator(train_frac=0.6, random_state=0).fit(
            records, sample_weight=weights
        )
        assert np.array_equal(
            _predict(first, candidates, small_graph),
            _predict(fresh, candidates, small_graph),
        )

    @pytest.mark.parametrize(
        "change",
        ["seed", "train_frac", "record order", "donor weights", "no weights"],
    )
    def test_any_input_fit_reads_is_part_of_the_key(self, shared, records, change):
        weights = np.ones(len(records))
        base = _fit(shared, records, weights)
        if change == "seed":
            other = _fit(shared, records, weights, seed=1)
        elif change == "train_frac":
            other = _fit(shared, records, weights, train_frac=0.5)
        elif change == "record order":
            other = _fit(shared, records[::-1], weights)
        elif change == "donor weights":
            bent = weights.copy()
            bent[-1] = 0.5
            other = _fit(shared, records, bent)
        else:
            other = _fit(shared, records)
        assert other is not base
        assert shared.estimator_fits == 2
        assert shared.estimator_fit_hits == 0

    def test_one_past_the_cap_evicts_the_least_recently_used(
        self, shared, records, monkeypatch
    ):
        monkeypatch.setattr(scheduler_mod, "_FITTED_ESTIMATORS", 2)
        zero, one = _fit(shared, records, seed=0), _fit(shared, records, seed=1)
        assert _fit(shared, records, seed=0) is zero  # now the newest
        _fit(shared, records, seed=2)  # cap + 1: evicts seed 1
        assert _fit(shared, records, seed=0) is zero
        assert _fit(shared, records, seed=1) is not one
        assert shared.estimator_fits == 4

    def test_two_threads_asking_for_one_key_get_one_estimator(
        self, shared, records
    ):
        barrier = threading.Barrier(2)
        got: list = [None, None]

        def ask(slot: int) -> None:
            barrier.wait(timeout=30)
            got[slot] = _fit(shared, records)

        threads = [threading.Thread(target=ask, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert got[0] is not None and got[0] is got[1]
        fits = shared.estimator_fits
        hits = shared.estimator_fit_hits
        assert (fits, hits) in ((1, 1), (2, 0))  # a concurrent miss fits twice

    def test_a_shared_estimator_is_never_refitted(self, shared, records):
        estimator = _fit(shared, records)
        with pytest.raises(EstimatorError, match="never refitted"):
            estimator.fit(records)


def _outputs(report):
    """A navigation report's guidelines and every exploration prediction."""
    guidelines = {
        name: (g.config, g.predicted) for name, g in report.guidelines.items()
    }
    return guidelines, _table(report.exploration.predictions)


class TestWarmServedJob:
    def test_a_repeat_job_fits_nothing_and_answers_the_same(
        self, small_graph, task, tmp_path
    ):
        store = tmp_path / "store"
        request = NavigationRequest(
            task=task,
            priorities=("balance", "ex_tm"),
            budget=BUDGET,
            profile_epochs=PROFILE_EPOCHS,
        )
        with NavigationServer(
            workers=1, graphs={"tiny": small_graph}, cache_dir=str(store)
        ) as server:
            client = NavigationClient(server)
            first = client.navigate(request, timeout=240)
            assert server.metrics.value("estimator_fits") == 1
            second = client.navigate(request, timeout=240)
            assert server.metrics.value("estimator_fits") == 1
            assert server.metrics.value("estimator_fit_hits") == 1
        navigator = GNNavigator(
            task,
            graph=small_graph,
            profile_budget=BUDGET,
            profile_epochs=PROFILE_EPOCHS,
            workers=0,
            cache_dir=str(store),
        )
        alone = navigator.explore(priorities=list(request.priorities))
        want_guidelines, want_predictions = _outputs(first.report)
        for got in (second.report, alone):
            guidelines, predictions = _outputs(got)
            assert guidelines == want_guidelines
            assert np.array_equal(predictions, want_predictions)

    def test_the_graph_profile_is_computed_once_per_graph(
        self, small_graph, task, monkeypatch
    ):
        graph = CSRGraph(
            indptr=small_graph.indptr,
            indices=small_graph.indices,
            features=small_graph.features,
            labels=small_graph.labels,
            num_classes=small_graph.num_classes,
            name=small_graph.name,
        )
        calls = []
        real = profiling_mod.profile_graph
        monkeypatch.setattr(
            profiling_mod, "profile_graph", lambda g: calls.append(g) or real(g)
        )
        navigators = [GNNavigator(task, graph=graph) for _ in range(3)]
        assert calls == [graph]
        assert all(n.profile is graph.profile for n in navigators)
        assert graph.profile == real(small_graph)


class TestFinishedJobRetention:
    RETAINED, EXTRA = 2, 2

    @pytest.fixture()
    def finished(self, small_graph, task, tmp_path, monkeypatch):
        """``RETAINED + EXTRA`` DONE jobs behind an HTTP transport."""
        monkeypatch.setattr(server_mod, "_RETAINED_RESULTS", self.RETAINED)
        server = NavigationServer(
            workers=1, graphs={"tiny": small_graph}, cache_dir=str(tmp_path / "s")
        )
        http = NavigationHTTPServer(server)
        http.start()
        try:
            client = NavigationClient(server)
            request = NavigationRequest(
                task=task, budget=BUDGET, profile_epochs=PROFILE_EPOCHS
            )
            job_ids = [
                client.submit(request).job_id
                for _ in range(self.RETAINED + self.EXTRA)
            ]
            for job_id in job_ids:  # one worker: they finish in this order
                client.result(job_id, timeout=240)
            yield server, RemoteNavigationClient(http.url), job_ids
        finally:
            http.stop()
            server.stop()

    def test_the_oldest_keep_their_snapshot_and_lose_their_result(self, finished):
        server, remote, job_ids = finished
        expired, kept = job_ids[: self.EXTRA], job_ids[self.EXTRA :]
        assert server.metrics.counter("results_expired") == self.EXTRA
        local = NavigationClient(server)
        for job_id in expired:
            for client in (local, remote):
                assert client.snapshot(job_id).status is JobStatus.DONE
                with pytest.raises(ResultExpiredError, match=job_id):
                    client.result(job_id, timeout=5)
            with pytest.raises(UnknownJobError):  # what older callers catch
                server.result(job_id, timeout=5)
            job = server.job(job_id)
            assert job.result is None and job.cancel_token is None
        for job_id in kept:
            for client in (local, remote):
                assert client.result(job_id, timeout=5).guidelines

    def test_an_expired_stream_is_a_gap_then_the_terminal_event(self, finished):
        server, remote, job_ids = finished
        job_id = job_ids[0]
        for client in (NavigationClient(server), remote):
            batch = client.events(job_id, since=0, timeout=0)
            assert batch.done and [e.phase for e in batch.events] == ["done"]
            assert batch.gap == batch.events[0].seq > 0
            stream = list(
                watch_events(
                    lambda c=client, **kw: c.events(job_id, **kw), job_id, poll=1.0
                )
            )
            assert [e.phase for e in stream] == [GAP_PHASE, "done"]
            assert stream[0].seq == 0
        kept = NavigationClient(server).events(job_ids[-1], since=0, timeout=0)
        assert kept.gap == 0 and kept.events[0].phase == "queued"
