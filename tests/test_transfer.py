"""Cross-task estimator transfer tests (the ``repro.transfer`` subsystem).

Covers the stack bottom-up: fingerprint identity and its noise-robust
quantization, fingerprint similarity, the corpus's incremental index over
the store and its deterministic search (which reads no record of the query's
own task),
similarity-decayed donor weights, weighted estimator fitting, and the two
system-level contracts — a warm start profiles measurably fewer candidates
than a cold one on a sibling task, and an *empty* corpus leaves navigation
bit-identical to a navigator built without transfer at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config.columns import ConfigColumns
from repro.config.settings import TaskSpec, TrainingConfig
from repro.errors import EstimatorError, ServingError
from repro.estimator.blackbox import DecisionTreeRegressor, RandomForestRegressor
from repro.estimator.graybox import GrayBoxEstimator
from repro.explorer.navigator import GNNavigator
from repro.graphs.generators import powerlaw_community_graph
from repro.graphs.profiling import GraphProfile
from repro.hardware import get_platform
from repro.runtime.parallel import ResultStore
from repro.runtime.profiler import GroundTruthRecord
from repro.serving.types import NavigationRequest
from repro.transfer import (
    TaskFingerprint,
    TransferContext,
    TransferCorpus,
    TransferPolicy,
    donor_weights,
    task_fingerprint,
)
from repro.transfer.fingerprint import record_fingerprint


def _profile(name="x", *, num_nodes=2000, avg_degree=8.0, **overrides) -> GraphProfile:
    fields = dict(
        name=name,
        num_nodes=num_nodes,
        num_edges=int(num_nodes * avg_degree),
        feature_dim=32,
        num_classes=5,
        avg_degree=avg_degree,
        max_degree=60,
        degree_std=6.0,
        degree_skew=2.1,
        powerlaw_exponent=2.4,
        feature_bytes=num_nodes * 32 * 4,
        homophily=0.7,
        separability=0.8,
    )
    fields.update(overrides)
    return GraphProfile(**fields)


def _record(
    config: TrainingConfig,
    *,
    task: TaskSpec | None = None,
    profile: GraphProfile | None = None,
    time_s: float = 0.01,
) -> GroundTruthRecord:
    return GroundTruthRecord(
        config=config,
        task=task or TaskSpec(dataset="x", arch="sage", epochs=1),
        graph_profile=profile or _profile(),
        time_s=time_s,
        memory_bytes=1e6,
        accuracy=0.8,
        mean_batch_nodes=500.0,
        mean_batch_edges=2500.0,
        hit_rate=0.5,
        t_sample=1e-3,
        t_transfer=1e-3,
        t_replace=1e-4,
        t_compute=2e-3,
        num_batches=4,
    )


# ---------------------------------------------------------------- fingerprint
class TestTaskFingerprint:
    def test_id_is_content_addressed_not_name_addressed(self):
        task_a = TaskSpec(dataset="a", arch="sage", epochs=1)
        task_b = TaskSpec(dataset="b", arch="sage", epochs=1)
        profile = _profile()
        fp_a = task_fingerprint(task_a, profile)
        fp_b = task_fingerprint(task_b, profile)
        # Same statistics under different dataset names: same family.
        assert fp_a.fingerprint_id == fp_b.fingerprint_id
        assert fp_a.dataset != fp_b.dataset

    def test_id_changes_with_statistics(self):
        task = TaskSpec(dataset="a", arch="sage", epochs=1)
        fp1 = task_fingerprint(task, _profile(num_nodes=2000))
        fp2 = task_fingerprint(task, _profile(num_nodes=4000))
        assert fp1.fingerprint_id != fp2.fingerprint_id

    def test_quantization_absorbs_last_ulp_noise(self):
        task = TaskSpec(dataset="a", arch="sage", epochs=1)
        base = _profile(degree_skew=2.2485039741859834)
        wobble = _profile(degree_skew=2.248503974185984)  # one-ulp sibling
        assert (
            task_fingerprint(task, base).fingerprint_id
            == task_fingerprint(task, wobble).fingerprint_id
        )

    def test_compatible_gates_on_arch_and_platform(self):
        profile = _profile()
        sage = task_fingerprint(TaskSpec(dataset="a", arch="sage", epochs=1), profile)
        gcn = task_fingerprint(TaskSpec(dataset="a", arch="gcn", epochs=1), profile)
        a100 = task_fingerprint(
            TaskSpec(dataset="a", arch="sage", platform="a100", epochs=1), profile
        )
        assert sage.compatible(sage)
        assert not sage.compatible(gcn)
        assert not sage.compatible(a100)

    def test_non_finite_statistics_keep_finite_features(self):
        task = TaskSpec(dataset="a", arch="sage", epochs=1)
        fp = task_fingerprint(task, _profile(powerlaw_exponent=float("inf")))
        assert np.isfinite(fp.as_features()).all()
        twin = task_fingerprint(task, _profile(powerlaw_exponent=float("inf")))
        assert twin.fingerprint_id == fp.fingerprint_id


# ------------------------------------------------------- similarity + corpus
class TestSimilarity:
    def test_feature_similarity_is_one_for_identical_tasks(self):
        fp = task_fingerprint(TaskSpec(dataset="a", arch="sage", epochs=1), _profile())
        assert fp.similarity(fp) == pytest.approx(1.0)

    def test_feature_similarity_decreases_with_distance(self):
        task = TaskSpec(dataset="a", arch="sage", epochs=1)
        fp = task_fingerprint(task, _profile(num_nodes=2000))
        near = task_fingerprint(task, _profile(num_nodes=2200))
        far = task_fingerprint(task, _profile(num_nodes=200000, avg_degree=40.0))
        assert 0.0 < fp.similarity(far) < fp.similarity(near) < 1.0


class TestTransferCorpus:
    def _seed_store(self, tmp_path) -> ResultStore:
        store = ResultStore(tmp_path)
        rng = np.random.default_rng(0)
        for fam, nodes in (("a", 2000), ("b", 2400), ("c", 60000)):
            profile = _profile(name=fam, num_nodes=nodes)
            task = TaskSpec(dataset=fam, arch="sage", epochs=1)
            for i in range(4):
                config = TrainingConfig(batch_size=int(rng.choice([64, 128, 256])))
                store.save(
                    f"{fam}-{i}",
                    _record(config, task=task, profile=profile),
                )
        return store

    def test_refresh_groups_by_family(self, tmp_path):
        store = self._seed_store(tmp_path)
        corpus = TransferCorpus(store)
        assert corpus.refresh() == 3
        assert corpus.num_records == 12
        assert all(t.num_records == 4 for t in corpus.tasks())
        for task in corpus.tasks():
            for key in task.keys:
                assert record_fingerprint(store.load(key)) == task.fingerprint
        assert sorted(p.name.split("_")[0] for p in tmp_path.iterdir()) == ["gt"] * 12

    def test_a_repeat_refresh_loads_only_new_keys(self, tmp_path, monkeypatch):
        store = self._seed_store(tmp_path)
        corpus = TransferCorpus(store)
        corpus.refresh()
        loaded = []
        real_load = store.load

        def load(key):
            loaded.append(key)
            return real_load(key)

        monkeypatch.setattr(store, "load", load)
        assert corpus.refresh() == 3
        assert loaded == []
        task = TaskSpec(dataset="a", arch="sage", epochs=1)
        store.save("a-new", _record(TrainingConfig(), task=task, profile=_profile()))
        assert corpus.refresh() == 3
        assert loaded == ["a-new"]
        assert corpus.num_records == 13

    def test_a_key_that_leaves_the_store_leaves_the_index(self, tmp_path):
        store = self._seed_store(tmp_path)
        corpus = TransferCorpus(store)
        corpus.refresh()
        for key in ("c-0", "c-1", "c-2", "c-3", "a-0"):
            (tmp_path / f"gt_{key}.json").unlink()
        assert corpus.refresh() == 2
        assert corpus.num_records == 7
        assert all("a-0" not in t.keys for t in corpus.tasks())
        store.refresh()
        assert store.prune(max_entries=0) == 7
        assert corpus.refresh() == 0
        assert corpus.tasks() == []

    def test_similar_is_deterministic_and_excludes_self(self, tmp_path):
        store = self._seed_store(tmp_path)
        query = task_fingerprint(
            TaskSpec(dataset="a", arch="sage", epochs=1), _profile(num_nodes=2000)
        )
        runs = []
        for _ in range(2):
            corpus = TransferCorpus(store)
            corpus.refresh()
            found = corpus.similar(query)
            runs.append([(t.fingerprint_id, s) for t, s, _ in found])
        assert runs[0] == runs[1]
        ids = [fid for fid, _ in runs[0]]
        assert query.fingerprint_id not in ids

    def test_similar_ranks_near_family_first(self, tmp_path):
        store = self._seed_store(tmp_path)
        corpus = TransferCorpus(store)
        corpus.refresh()
        query = task_fingerprint(
            TaskSpec(dataset="q", arch="sage", epochs=1), _profile(num_nodes=2100)
        )
        found = corpus.similar(query)
        datasets = [t.fingerprint.dataset for t, _, _ in found]
        assert datasets[0] in ("a", "b")
        assert datasets[-1] == "c"

    def test_similar_hard_gates_arch(self, tmp_path):
        corpus = TransferCorpus(self._seed_store(tmp_path))
        corpus.refresh()
        query = task_fingerprint(
            TaskSpec(dataset="q", arch="gcn", epochs=1), _profile()
        )
        assert corpus.similar(query) == []


def test_a_plan_loads_no_record_of_the_query_task(tmp_path, monkeypatch):
    """A donor is scored on its fingerprint alone, so a plan reads only the
    records of the donors it returns: none of the query task's own 64, and
    none of a family too far to qualify."""
    store = ResultStore(tmp_path)
    query_task = TaskSpec(dataset="q", arch="sage", epochs=1)
    donor_task = TaskSpec(dataset="d", arch="sage", epochs=1)
    far_task = TaskSpec(dataset="far", arch="sage", epochs=1)
    query_profile = _profile("q", num_nodes=2000)
    donor_profile = _profile("d", num_nodes=2200)
    far_profile = _profile("far", num_nodes=200000, avg_degree=40.0, num_classes=40)
    for i in range(64):
        config = TrainingConfig(batch_size=64 + i)
        store.save(f"q-{i:02d}", _record(config, task=query_task, profile=query_profile))
        store.save(f"d-{i:02d}", _record(config, task=donor_task, profile=donor_profile))
        store.save(f"far-{i:02d}", _record(config, task=far_task, profile=far_profile))
    corpus = TransferCorpus(store)
    assert corpus.refresh() == 3
    query = task_fingerprint(query_task, query_profile)
    assert corpus.task(query.fingerprint_id).num_records == 64
    loaded = []
    real_load = store.load

    def load(key):
        loaded.append(key)
        return real_load(key)

    monkeypatch.setattr(store, "load", load)
    plan = TransferContext(corpus).plan(query_task, query_profile, full_budget=16)
    assert plan is not None and [d["dataset"] for d in plan.donors] == ["d"]
    assert [key for key in loaded if key.startswith("q-")] == []
    far = task_fingerprint(far_task, far_profile)
    assert query.similarity(far) < TransferPolicy().min_similarity
    assert sorted(loaded) == [f"d-{i:02d}" for i in range(64)]


# ------------------------------------------------------------------ warmstart
class TestDonorWeights:
    def test_weights_are_monotone_in_similarity(self):
        sims = np.array([0.1, 0.3, 0.5, 0.7, 0.9, 0.9])
        for decay in (0.5, 1.0, 2.0, 4.0):
            w = donor_weights(sims, decay=decay)
            assert np.all(np.diff(w) >= 0.0), f"not monotone at decay={decay}"
            assert np.all((w >= 0.0) & (w <= 1.0))

    def test_higher_decay_concentrates_on_near_twins(self):
        sims = np.array([0.5, 1.0])
        gentle = donor_weights(sims, decay=1.0)
        harsh = donor_weights(sims, decay=4.0)
        assert harsh[0] / harsh[1] < gentle[0] / gentle[1]

    def test_validation(self):
        with pytest.raises(ValueError, match="decay"):
            donor_weights(np.array([0.5]), decay=0.0)
        with pytest.raises(ValueError, match="similarities"):
            donor_weights(np.array([1.5]), decay=1.0)


class TestWeightedEstimators:
    def test_tree_none_weight_is_bit_identical(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(48, 4))
        y = x[:, 1] * 3.0 + rng.normal(scale=0.05, size=48)
        plain = DecisionTreeRegressor(random_state=0).fit(x, y)
        weighted = DecisionTreeRegressor(random_state=0).fit(x, y, sample_weight=None)
        probe = rng.normal(size=(16, 4))
        assert np.array_equal(plain.predict(probe), weighted.predict(probe))

    def test_forest_none_weight_is_bit_identical(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(48, 4))
        y = x[:, 0] + rng.normal(scale=0.05, size=48)
        plain = RandomForestRegressor(n_estimators=4, random_state=0).fit(x, y)
        weighted = RandomForestRegressor(n_estimators=4, random_state=0).fit(
            x, y, sample_weight=None
        )
        probe = rng.normal(size=(16, 4))
        assert np.array_equal(plain.predict(probe), weighted.predict(probe))

    def test_downweighted_outliers_lose_influence(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(80, 4))
        y = x[:, 0] * 2.0
        y_poisoned = y.copy()
        y_poisoned[:40] += 25.0
        w = np.ones(80)
        w[:40] = 1e-6
        tree = DecisionTreeRegressor(random_state=0).fit(
            x, y_poisoned, sample_weight=w
        )
        baseline = DecisionTreeRegressor(random_state=0).fit(x, y_poisoned)
        clean = slice(40, 80)
        assert (
            np.abs(tree.predict(x[clean]) - y[clean]).mean()
            < np.abs(baseline.predict(x[clean]) - y[clean]).mean()
        )

    def test_tree_rejects_bad_weights(self):
        x = np.zeros((4, 2))
        y = np.zeros(4)
        tree = DecisionTreeRegressor()
        with pytest.raises(EstimatorError):
            tree.fit(x, y, sample_weight=np.ones(3))
        with pytest.raises(EstimatorError):
            tree.fit(x, y, sample_weight=np.array([1.0, -1.0, 1.0, 1.0]))
        with pytest.raises(EstimatorError):
            tree.fit(x, y, sample_weight=np.zeros(4))

    def test_graybox_estimator_accepts_weights(self):
        rng = np.random.default_rng(6)
        records = [
            _record(
                TrainingConfig(batch_size=int(rng.choice([64, 128, 256]))),
                time_s=float(rng.uniform(0.005, 0.02)),
            )
            for _ in range(12)
        ]
        est = GrayBoxEstimator(random_state=0)
        est.fit(records, sample_weight=np.linspace(0.2, 1.0, 12))
        table = est.predict(
            ConfigColumns([records[0].config]),
            records[0].graph_profile,
            get_platform("rtx4090"),
        )
        assert table.shape == (1, 3) and table[0, 0] > 0

    def test_graybox_rejects_misaligned_weights(self):
        records = [_record(TrainingConfig(batch_size=64)) for _ in range(8)]
        with pytest.raises(EstimatorError, match="align"):
            GrayBoxEstimator().fit(records, sample_weight=np.ones(5))


# -------------------------------------------------------------- system level
def _family_graph(seed: int, nodes: int, name: str):
    return powerlaw_community_graph(
        nodes,
        num_classes=4,
        feature_dim=16,
        homophily=0.7,
        feature_noise=0.4,
        seed=seed,
        name=name,
    )


class TestWarmStartNavigation:
    BUDGET = 12

    def test_warm_start_reduces_profiled_runs(self, tmp_path):
        donor_graph = _family_graph(1, 130, "fam-a")
        target_graph = _family_graph(2, 140, "fam-b")
        donor_task = TaskSpec(dataset="fam-a", arch="sage", epochs=2)
        target_task = TaskSpec(dataset="fam-b", arch="sage", epochs=2)
        store_dir = str(tmp_path / "store")

        cold = GNNavigator(
            donor_task,
            graph=donor_graph,
            profile_budget=self.BUDGET,
            profile_epochs=1,
            seed=0,
            cache_dir=store_dir,
        )
        cold.fit_estimator()
        cold_runs = len(cold.records)

        corpus = TransferCorpus(ResultStore(store_dir))
        ctx = TransferContext(
            corpus, policy=TransferPolicy(min_similarity=0.2, min_budget=8)
        )
        warm = GNNavigator(
            target_task,
            graph=target_graph,
            profile_budget=self.BUDGET,
            profile_epochs=1,
            seed=0,
            transfer=ctx,
        )
        report = warm.explore(priorities=["balance"])

        plan = warm.transfer_plan
        assert plan is not None
        assert plan.budget < plan.full_budget
        assert plan.runs_saved == plan.full_budget - plan.budget
        assert len(warm.records) < cold_runs
        # The report advertises the warm start to clients.
        info = report.extras["transfer"]
        assert info["runs_saved"] == plan.runs_saved
        assert info["donors"]
        # And still yields a usable guideline.
        assert report.guidelines["balance"].score >= 0.0

    def test_empty_corpus_is_bit_identical_to_no_transfer(self, tmp_path):
        graph = _family_graph(3, 120, "fam-c")
        task = TaskSpec(dataset="fam-c", arch="sage", epochs=2)

        plain = GNNavigator(
            task, graph=graph, profile_budget=self.BUDGET, profile_epochs=1, seed=0
        )
        report_plain = plain.explore(priorities=["balance"])

        ctx = TransferContext(TransferCorpus(ResultStore(tmp_path / "empty")))
        wired = GNNavigator(
            task,
            graph=graph,
            profile_budget=self.BUDGET,
            profile_epochs=1,
            seed=0,
            transfer=ctx,
        )
        report_wired = wired.explore(priorities=["balance"])

        assert wired.transfer_plan is None
        assert "transfer" not in report_wired.extras
        g_plain = report_plain.guidelines["balance"]
        g_wired = report_wired.guidelines["balance"]
        assert g_plain.config == g_wired.config
        assert g_plain.score == g_wired.score
        assert g_plain.predicted == g_wired.predicted
        assert [c for c in report_plain.exploration.candidates] == [
            c for c in report_wired.exploration.candidates
        ]

    def test_disabled_policy_never_plans(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("k", _record(TrainingConfig()))
        ctx = TransferContext(
            TransferCorpus(store), policy=TransferPolicy(enabled=False)
        )
        plan = ctx.plan(
            TaskSpec(dataset="x", arch="sage", epochs=1),
            _profile(),
            full_budget=16,
        )
        assert plan is None


# ------------------------------------------------------------------ the wire
class TestTransferPolicyWire:
    def test_request_round_trips_transfer_policy(self):
        request = NavigationRequest(
            task=TaskSpec(dataset="tiny", arch="sage", epochs=1),
            transfer_policy=TransferPolicy(min_similarity=0.5, max_donors=2, decay=3.0),
        )
        back = NavigationRequest.from_dict(request.to_dict())
        assert back.transfer_policy == request.transfer_policy
        assert back == request

    def test_request_without_policy_omits_the_key(self):
        request = NavigationRequest(
            task=TaskSpec(dataset="tiny", arch="sage", epochs=1)
        )
        spec = request.to_dict()
        assert "transfer_policy" not in spec
        assert NavigationRequest.from_dict(spec).transfer_policy is None

    def test_unknown_policy_key_rejected_at_submit(self):
        spec = NavigationRequest(
            task=TaskSpec(dataset="tiny", arch="sage", epochs=1),
            transfer_policy=TransferPolicy(),
        ).to_dict()
        spec["transfer_policy"]["surprise"] = 1
        with pytest.raises(ServingError, match="unknown transfer policy keys"):
            NavigationRequest.from_dict(spec)
        # Donors are scored on their fingerprint alone: a policy that still
        # names a similarity metric is a typo too.
        spec["transfer_policy"] = {"similarity": "feature"}
        with pytest.raises(ServingError, match=r"policy keys: \['similarity'\]"):
            NavigationRequest.from_dict(spec)

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="min_similarity"):
            TransferPolicy(min_similarity=1.5)
        with pytest.raises(ValueError, match="max_donors"):
            TransferPolicy(max_donors=0)
        with pytest.raises(ValueError, match="decay"):
            TransferPolicy(decay=-1.0)
        with pytest.raises(ValueError, match="min_budget"):
            TransferPolicy(min_budget=2)
        with pytest.raises(ValueError, match="max_shrink"):
            TransferPolicy(max_shrink=1.0)
