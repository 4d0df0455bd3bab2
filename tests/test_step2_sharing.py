"""Step 2 trains each trajectory once — pinned to the per-candidate loop.

Candidates that share a :func:`~repro.runtime.backend.training_key` are one
training run that lands one record per member.  The reference is the loop
that change replaced, kept here: one backend, one training run and one fresh
graph profile per candidate (:func:`solo`).  Grouped records must be ``==``
to it and the store files byte-equal, whatever the mix of classes, the
architecture and the worker count.
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.graphconv as graphconv
import repro.runtime.parallel as parallel_mod
from repro.config import TaskSpec, TrainingConfig
from repro.config.space import default_space
from repro.config.templates import TEMPLATES
from repro.errors import ConfigError, JobCancelled
from repro.graphs.profiling import profile_graph
from repro.graphs.reorder import reorder_graph
from repro.runtime import CancellationToken, ProfilingService, RuntimeBackend
from repro.runtime.backend import sampler_args, training_key
from repro.runtime.parallel import ResultStore, candidate_key, graph_fingerprint
from repro.runtime.profiler import _record_from_report, profile_class, profile_one

ARCHS = ("sage", "gcn", "gat")

#: every ``TrainingConfig`` field, classified.  A new knob must be added to
#: one of the three sets (``test_every_field_is_classified``): it is in the
#: key unless someone shows the sampler, batch order and model cannot see it.
IN_KEY = {
    "batch_size": 32,
    "sampler": "fastgcn",
    "bias_rate": 0.5,  # read under sampler="biased"
    "batch_order": "sequential",
    "hidden_channels": 32,
    "num_layers": 3,
    "heads": 2,
    "dropout": 0.1,
    "reorder": "degree",
}
VIA_SAMPLER_ARGS = {"hop_list"}
CHARGED_ONLY = {"cache_ratio": 0.3, "cache_policy": "lru"}


def task_for(arch: str) -> TaskSpec:
    return TaskSpec(dataset="tiny", arch=arch, epochs=2, lr=0.02)


def solo(task, configs, graph):
    """The reference: every candidate pays for its own backend, training
    run, reordering and graph profile."""
    records = []
    for config in configs:
        backend = RuntimeBackend(task, config, graph=graph)
        assert len(backend.members) == 1
        profile = profile_graph(reorder_graph(graph, backend.config.reorder))
        records.append(
            _record_from_report(backend.config, task, profile, backend.train())
        )
    return records


def scaled(config: TrainingConfig) -> TrainingConfig:
    """Design-space batch sizes are for 10k-node graphs; a quarter of them
    gives the 400-node graph several batches per epoch."""
    return replace(config, batch_size=config.batch_size // 4)


def candidates() -> list[TrainingConfig]:
    """All templates, a 16-candidate sample, cluster/saint fan-out twins —
    with duplicates, and class members deliberately not adjacent."""
    sample = default_space().sample(16, rng=np.random.default_rng(3))
    templates = list(TEMPLATES.values())
    twins = [
        TrainingConfig(sampler="cluster", batch_size=256, hop_list=(3, 2)),
        TrainingConfig(sampler="saint", hop_list=(15, 10), hidden_channels=32),
        TrainingConfig(sampler="cluster", batch_size=256, hop_list=(10, 5),
                       cache_ratio=0.3, cache_policy="fifo"),
        TrainingConfig(sampler="saint", hop_list=(3, 2), hidden_channels=32,
                       cache_ratio=0.15, cache_policy="lru"),
    ]
    mixed = templates[:2] + sample[:8] + twins + templates[2:] + sample[8:]
    mixed += [templates[1], sample[0], twins[2]]  # duplicates
    return [scaled(c) for c in mixed]


@pytest.fixture(scope="module")
def reference(small_graph):
    """Solo records of :func:`candidates`, once per architecture."""
    cache: dict[str, list] = {}

    def get(arch: str) -> list:
        if arch not in cache:
            cache[arch] = solo(task_for(arch), candidates(), small_graph)
        return cache[arch]

    return get


def store_bytes(root) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestEquivalence:
    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("arch", ARCHS)
    def test_grouped_equals_solo(self, small_graph, reference, tmp_path, arch, workers):
        task, configs = task_for(arch), candidates()
        want = reference(arch)
        service = ProfilingService(max_workers=workers, cache_dir=tmp_path / "grouped")
        got = service.profile(task, configs, graph=small_graph)
        assert got == want  # one record per input, in input order

        unique = len({c.canonical() for c in configs})
        stats = service.stats
        assert stats.executed == unique
        assert stats.deduplicated == len(configs) - unique
        n = small_graph.num_nodes
        assert stats.trainings == len({training_key(c, n) for c in configs})
        assert stats.trainings < stats.executed  # something was shared

        # the store a solo loop would have written, byte for byte
        solo_store = ResultStore(tmp_path / "solo")
        fingerprint = graph_fingerprint(small_graph)
        for config, record in zip(configs, want, strict=True):
            solo_store.save(candidate_key(task, config, fingerprint), record)
        assert store_bytes(tmp_path / "grouped") == store_bytes(tmp_path / "solo")

    @settings(max_examples=8, deadline=None)
    @given(
        arch=st.sampled_from(ARCHS),
        base=st.builds(
            TrainingConfig,
            batch_size=st.sampled_from([32, 64, 128]),
            sampler=st.sampled_from(["sage", "fastgcn", "saint", "cluster"]),
            hop_list=st.sampled_from([(3, 2), (5, 3), (4,)]),
            batch_order=st.sampled_from(["random", "sequential", "partition"]),
            hidden_channels=st.sampled_from([8, 16]),
            reorder=st.sampled_from(["none", "degree", "bfs"]),
        ),
        caches=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]),
                st.sampled_from(["none", "static", "fifo", "lru"]),
            ),
            min_size=2,
            max_size=3,
        ),
    )
    def test_cat2_variants_share_one_training(self, small_graph, arch, base, caches):
        """Candidates that differ only in transmission knobs: one backend
        produces what one backend each would have."""
        task = task_for(arch)
        configs = [replace(base, cache_ratio=r, cache_policy=p) for r, p in caches]
        got = [record for record, _ in profile_class(task, configs, graph=small_graph)]
        assert got == solo(task, configs, small_graph)

    def test_profile_one_is_the_class_of_one(self, small_graph, tiny_task, tiny_config):
        record, report = profile_one(tiny_task, tiny_config, graph=small_graph)
        ((same, same_report),) = profile_class(tiny_task, [tiny_config], graph=small_graph)
        assert record == same and report.epochs == same_report.epochs
        assert [record] == solo(tiny_task, [tiny_config], small_graph)


class TestClassMembership:
    def test_every_field_is_classified(self):
        names = {f.name for f in dataclasses.fields(TrainingConfig)}
        assert names == set(IN_KEY) | VIA_SAMPLER_ARGS | set(CHARGED_ONLY)

    @pytest.mark.parametrize(
        "knob, sampler",
        [
            (knob, sampler)
            for knob in sorted(IN_KEY)
            for sampler in ("sage", "saint", "biased")
            if knob != "bias_rate" or sampler == "biased"  # canonicalised away
        ],
    )
    def test_key_knobs_split_classes(self, knob, sampler):
        base = TrainingConfig(sampler=sampler, bias_rate=0.9)
        other = replace(base, **{knob: IN_KEY[knob]})
        assert training_key(base, 400) != training_key(other, 400)

    @pytest.mark.parametrize("sampler", ["sage", "fastgcn", "saint", "cluster"])
    def test_cache_knobs_are_charged_only(self, sampler):
        base = TrainingConfig(sampler=sampler)
        assert training_key(base, 400) == training_key(replace(base, **CHARGED_ONLY), 400)

    def test_biased_candidates_never_share_across_caches(self, small_graph, tiny_task):
        base = TrainingConfig(sampler="biased", bias_rate=0.9, batch_size=64,
                              cache_ratio=0.2, cache_policy="lru")
        others = [replace(base, cache_ratio=0.4), replace(base, cache_policy="fifo")]
        keys = {training_key(c, small_graph.num_nodes) for c in (base, *others)}
        assert len(keys) == 3
        with pytest.raises(ConfigError, match="training class"):
            RuntimeBackend(tiny_task, base, others[0], graph=small_graph)
        service = ProfilingService()
        got = service.profile(tiny_task, [base, *others], graph=small_graph)
        assert service.stats.trainings == service.stats.executed == 3
        assert got == solo(tiny_task, [base, *others], small_graph)

    @pytest.mark.parametrize("sampler", ["saint", "cluster"])
    def test_fanout_values_do_not_split_subgraph_samplers(
        self, small_graph, tiny_task, sampler
    ):
        a = TrainingConfig(sampler=sampler, batch_size=64, hop_list=(3, 2))
        b = replace(a, hop_list=(15, 10))
        n = small_graph.num_nodes
        assert sampler_args(a, n) == sampler_args(b, n)
        assert training_key(a, n) == training_key(b, n)
        assert training_key(a, n) != training_key(replace(a, hop_list=(3, 2, 2)), n)
        service = ProfilingService()
        got = service.profile(tiny_task, [a, b], graph=small_graph)
        assert (service.stats.trainings, service.stats.executed) == (1, 2)
        assert got == solo(tiny_task, [a, b], small_graph)
        assert got[0].config.hop_list != got[1].config.hop_list

    def test_fanout_values_split_the_samplers_that_read_them(self):
        for sampler in ("sage", "fastgcn"):
            a = TrainingConfig(sampler=sampler, batch_size=64, hop_list=(3, 2))
            assert training_key(a, 4000) != training_key(replace(a, hop_list=(5, 3)), 4000)
        # fastgcn reads the *capped* budgets: on a tiny graph they coincide
        a = TrainingConfig(sampler="fastgcn", batch_size=64, hop_list=(10, 5))
        assert training_key(a, 100) == training_key(replace(a, hop_list=(15, 10)), 100)

    def test_default_space_census(self):
        space = [c.canonical() for c in default_space().enumerate()]
        assert len(set(space)) == 4680
        assert len({training_key(c, 10_000) for c in space}) <= 2088


class TestCancellation:
    def test_cancel_inside_a_class_lands_all_its_members(
        self, small_graph, tiny_task, monkeypatch
    ):
        trio = [scaled(TEMPLATES[name]) for name in ("pyg", "pagraph_full", "pagraph_low")]
        rest = [scaled(TEMPLATES["saint"]), replace(trio[0], hidden_channels=16)]
        configs = [trio[0], rest[0], trio[1], rest[1], trio[2]]
        token = CancellationToken()
        real = parallel_mod.profile_class
        sizes: list[int] = []

        def cancelling_in_the_first(task, members, **kwargs):
            sizes.append(len(members))
            if len(sizes) == 1:
                token.cancel()  # mid-class: its members must still land
            return real(task, members, **kwargs)

        monkeypatch.setattr(parallel_mod, "profile_class", cancelling_in_the_first)
        service = ProfilingService()
        with pytest.raises(JobCancelled):
            service.profile(tiny_task, configs, graph=small_graph, cancel=token)
        assert sizes == [3]  # aborted at the next class boundary
        assert (service.stats.trainings, service.stats.executed) == (1, 3)

        got = service.profile(tiny_task, configs, graph=small_graph)
        assert sizes == [3, 1, 1]  # the retry trains only the rest
        assert service.stats.cache_hits == 3
        assert (service.stats.trainings, service.stats.executed) == (3, 5)
        assert got == solo(tiny_task, configs, small_graph)


class TestEvaluate:
    def test_one_full_graph_forward_per_epoch(self, small_graph, tiny_task, tiny_config):
        backend = RuntimeBackend(
            tiny_task, tiny_config, replace(tiny_config, cache_policy="lru"),
            graph=small_graph,
        )
        forwards: list[tuple[int, bool]] = []  # (batches trained so far, evaluating?)
        trained = [0]
        model_forward, train_step = backend.model.forward, backend._train_step

        def counting_forward(x, prop):
            forwards.append((trained[0], not backend.model.training))
            return model_forward(x, prop)

        def counting_step(batch):
            trained[0] += 1
            return train_step(batch)

        backend.model.forward = counting_forward
        backend._train_step = counting_step
        reports = backend.train_members()
        total = sum(e.num_batches for e in reports[0].epochs)
        evaluations = [at for at, evaluating in forwards if evaluating]
        # one per epoch, and exactly one after the final batch: validation
        # and test accuracy read the same pass
        assert len(evaluations) == tiny_task.epochs
        assert evaluations.count(total) == 1
        assert len(forwards) == total + tiny_task.epochs
        val, test = backend.evaluate(backend.val_nodes, backend.test_nodes)
        assert (val, test) == (reports[0].epochs[-1].val_accuracy, reports[0].accuracy)
        assert reports[0].accuracy == reports[1].accuracy

    def test_blocks_are_cut_once_per_prepared_graph(
        self, small_graph, tiny_config, monkeypatch
    ):
        """The evaluate blocks depend on the prepared graph and the rows
        alone: the first epoch cuts them without normalising the square, a
        second epoch and a second training class cut no block and build no
        GAT edge operator, and GAT's output layer attends over exactly
        |val ∪ test| rows."""
        task = task_for("gat")
        first = RuntimeBackend(task, tiny_config, graph=small_graph)
        other = replace(tiny_config, hidden_channels=8)
        second = RuntimeBackend(task, other, prepared=first.prepared)
        n = small_graph.num_nodes
        assert training_key(other, n) != training_key(tiny_config, n)

        built: list[str] = []
        segments: list[int] = []
        evaluating = [False]
        real_evaluate = RuntimeBackend.evaluate
        real = {
            name: getattr(graphconv, name)
            for name in ("normalized_adjacency", "edge_operators", "segment_softmax")
        }

        def evaluate(backend, *subsets):
            evaluating[0] = True
            try:
                return real_evaluate(backend, *subsets)
            finally:
                evaluating[0] = False

        def counted(name):
            def call(*args, **kwargs):
                if evaluating[0]:
                    if name == "segment_softmax":  # (logits, indptr)
                        segments.append(args[1].size - 1)
                    elif kwargs.get("rows") is not None:  # a block's cut
                        built.append(f"{name}(rows=…)")
                    else:
                        built.append(name)
                return real[name](*args, **kwargs)

            return call

        monkeypatch.setattr(RuntimeBackend, "evaluate", evaluate)
        for name in real:
            monkeypatch.setattr(graphconv, name, counted(name))

        first.run_epoch(0)
        assert set(built) == {"edge_operators", "normalized_adjacency(rows=…)"}
        union = np.union1d(first.val_nodes, first.test_nodes)
        assert segments[-1] == union.size < n
        built.clear()
        first.run_epoch(1)
        second.run_epoch(0)
        assert built == []
        assert segments[-1] == union.size


class TestPreparedOncePerReorder:
    def test_serial_profile_prepares_each_strategy_once(
        self, small_graph, tiny_task, monkeypatch
    ):
        import repro.runtime.backend as backend_mod

        calls: dict[str, list] = {"reorder": [], "profile": 0}
        real_reorder, real_profile = backend_mod.reorder_graph, backend_mod.profile_graph

        def reorder(graph, strategy):
            calls["reorder"].append(strategy)
            return real_reorder(graph, strategy)

        def profile(graph):
            calls["profile"] += 1
            return real_profile(graph)

        monkeypatch.setattr(backend_mod, "reorder_graph", reorder)
        monkeypatch.setattr(backend_mod, "profile_graph", profile)
        base = TrainingConfig(batch_size=64, hop_list=(3, 2), hidden_channels=8)
        configs = [
            replace(base, reorder=r, hidden_channels=h)
            for h in (8, 16)
            for r in ("degree", "none", "bfs")
        ]
        got = ProfilingService().profile(tiny_task, configs, graph=small_graph)
        assert sorted(calls["reorder"]) == ["bfs", "degree", "none"]
        assert calls["profile"] == 3
        monkeypatch.undo()
        assert got == solo(tiny_task, configs, small_graph)
