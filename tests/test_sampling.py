"""Sampler tests: unified abstraction invariants and per-strategy behaviour."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SamplingError
from repro.graphs.csr import CSRGraph
from repro.sampling import (
    BatchIterator,
    BiasedNeighborSampler,
    ClusterSampler,
    LayerSampler,
    NeighborSampler,
    SaintSampler,
    fanout_step,
    hot_set_weights,
    saturating_expectation,
    tree_growth_bound,
)


class TestFanoutStep:
    def test_respects_k(self, medium_graph, rng):
        frontier = np.arange(50)
        out = fanout_step(medium_graph, frontier, 3, rng=rng)
        # Every output vertex is a neighbour of some frontier vertex.
        all_nbrs = np.unique(
            np.concatenate([medium_graph.neighbors(int(v)) for v in frontier])
        )
        assert np.all(np.isin(out, all_nbrs))

    def test_k_larger_than_degree_takes_all(self, medium_graph, rng):
        frontier = np.array([0])
        out = fanout_step(medium_graph, frontier, 10_000, rng=rng)
        assert np.array_equal(out, np.unique(medium_graph.neighbors(0)))

    def test_per_vertex_cap(self, medium_graph, rng):
        # With k=1 the output size cannot exceed the frontier size.
        frontier = np.arange(40)
        out = fanout_step(medium_graph, frontier, 1, rng=rng)
        assert out.size <= frontier.size

    def test_rejects_nonpositive_k(self, medium_graph, rng):
        with pytest.raises(SamplingError):
            fanout_step(medium_graph, np.array([0]), 0, rng=rng)

    def test_weights_bias_selection(self, medium_graph):
        """Heavily-weighted vertices should be picked far more often."""
        rng = np.random.default_rng(5)
        hot = np.arange(200)
        weights = hot_set_weights(medium_graph.num_nodes, hot, 1.0)
        frontier = np.arange(200, 400)
        hot_hits = cold_hits = 0
        for _ in range(30):
            picked = fanout_step(medium_graph, frontier, 2, weights=weights, rng=rng)
            hot_hits += int(np.isin(picked, hot).sum())
            cold_hits += int((~np.isin(picked, hot)).sum())
        unbiased_hot = unbiased_cold = 0
        rng2 = np.random.default_rng(6)
        for _ in range(30):
            picked = fanout_step(medium_graph, frontier, 2, rng=rng2)
            unbiased_hot += int(np.isin(picked, hot).sum())
            unbiased_cold += int((~np.isin(picked, hot)).sum())
        biased_ratio = hot_hits / max(hot_hits + cold_hits, 1)
        unbiased_ratio = unbiased_hot / max(unbiased_hot + unbiased_cold, 1)
        assert biased_ratio > unbiased_ratio

    def test_rejects_nonpositive_weights(self, medium_graph, rng):
        weights = np.zeros(medium_graph.num_nodes)
        with pytest.raises(SamplingError):
            fanout_step(medium_graph, np.array([0]), 2, weights=weights, rng=rng)


def _stars(degrees: list[int]) -> tuple[CSRGraph, np.ndarray]:
    """Disjoint stars, one per entry: no two centres share a neighbour, so
    the union ``fanout_step`` returns loses no pick.  Returns the centres."""
    centres, src, dst = [], [], []
    next_id = 0
    for degree in degrees:
        centres.append(next_id)
        leaves = np.arange(next_id + 1, next_id + 1 + degree)
        src.append(np.full(degree, next_id))
        dst.append(leaves)
        next_id += 1 + degree
    graph = CSRGraph.from_edges(next_id, np.concatenate(src), np.concatenate(dst))
    return graph, np.array(centres)


class TestFanoutStepProperties:
    def test_output_sorted_unique_and_inside_the_neighbourhood(self, medium_graph, rng):
        frontier = np.sort(rng.choice(medium_graph.num_nodes, 80, replace=False))
        weights = rng.uniform(0.5, 4.0, medium_graph.num_nodes)
        for kwargs in ({}, {"weights": weights}):
            out = fanout_step(medium_graph, frontier, 3, rng=rng, **kwargs)
            assert np.all(np.diff(out) > 0)
            _, nbrs = medium_graph.gather_neighborhoods(frontier)
            assert np.all(np.isin(out, nbrs))

    @pytest.mark.parametrize("k", [1, 2, 5, 50])
    def test_each_vertex_contributes_min_k_degree_picks(self, k, rng):
        degrees = [0, 1, 2, 3, 7, 20]
        graph, centres = _stars(degrees)
        weights = rng.uniform(0.5, 4.0, graph.num_nodes)
        for kwargs in ({}, {"weights": weights}):
            out = fanout_step(graph, centres, k, rng=rng, **kwargs)
            for centre, degree in zip(centres, degrees, strict=True):
                picked = np.isin(graph.neighbors(int(centre)), out).sum()
                assert picked == min(k, degree)
            assert out.size == sum(min(k, d) for d in degrees)

    def test_frontier_order_and_repeats_are_their_own_groups(self, rng):
        graph, centres = _stars([6, 6])
        out = fanout_step(graph, centres[::-1], 2, rng=rng)
        assert out.size == 4
        # a vertex listed twice draws twice: up to 2k distinct picks, never more
        out = fanout_step(graph, np.array([0, 0]), 2, rng=rng)
        assert 2 <= out.size <= 4 and np.all(np.isin(out, graph.neighbors(0)))

    def test_empty_and_zero_degree_frontiers_return_empty(self, rng):
        graph, _ = _stars([0, 3])
        for frontier in (np.array([], dtype=np.int64), np.array([0])):
            out = fanout_step(graph, frontier, 2, rng=rng)
            assert out.size == 0 and out.dtype == np.int64

    def test_uniform_picks_are_uniform(self):
        """Chi-square on a 12-leaf star: each leaf is picked k/12 of the time."""
        from scipy.stats import chisquare

        graph, _ = _stars([12])
        rng = np.random.default_rng(11)
        trials, k = 3000, 3
        counts = np.zeros(graph.num_nodes)
        for _ in range(trials):
            counts[fanout_step(graph, np.array([0]), k, rng=rng)] += 1
        assert counts[0] == 0 and counts.sum() == trials * k
        # picks inside one draw are negatively correlated, which only makes
        # the statistic smaller than its nominal distribution
        assert chisquare(counts[1:]).pvalue > 1e-3

    def test_weighted_picks_follow_the_weights(self):
        """Chi-square with k=1: leaf i is picked with probability w_i / sum(w)."""
        from scipy.stats import chisquare

        graph, _ = _stars([8])
        weights = np.ones(graph.num_nodes)
        weights[1:] = [1, 1, 2, 2, 4, 4, 8, 8]
        rng = np.random.default_rng(12)
        trials = 6000
        counts = np.zeros(graph.num_nodes)
        for _ in range(trials):
            counts[fanout_step(graph, np.array([0]), 1, weights=weights, rng=rng)] += 1
        expected = trials * weights[1:] / weights[1:].sum()
        assert chisquare(counts[1:], expected).pvalue > 1e-3
        # and the uniform null is firmly rejected, so the test can fail
        assert chisquare(counts[1:]).pvalue < 1e-6


def _sampler_zoo(graph: CSRGraph) -> dict:
    return {
        "sage": NeighborSampler([4, 3]),
        "biased": BiasedNeighborSampler(
            [4, 3], bias_rate=0.7, hot_nodes=np.arange(graph.num_nodes // 4)
        ),
        "fastgcn": LayerSampler([90, 60]),
        "saint": SaintSampler(walk_length=3),
        "cluster": ClusterSampler(num_parts=12, parts_per_batch=2),
    }


class TestEveryBatchIsAReadyBlock:
    """What all five samplers hand to the training step."""

    @pytest.mark.parametrize("name", ["sage", "biased", "fastgcn", "saint", "cluster"])
    def test_nodes_targets_and_topology(self, medium_graph, rng, name):
        sampler = _sampler_zoo(medium_graph)[name]
        targets = rng.choice(medium_graph.num_nodes, 48, replace=False)
        targets = np.concatenate([targets, targets[:5]])  # repeats collapse
        batch = sampler.sample(medium_graph, targets, rng=rng)

        assert np.all(np.diff(batch.nodes) > 0)
        assert np.all(np.isin(targets, batch.nodes))
        if name in ("saint", "cluster"):  # the loss reads every vertex
            assert np.array_equal(batch.target_index, np.arange(batch.num_nodes))
        else:
            assert np.array_equal(batch.nodes[batch.target_index], np.unique(targets))
        assert batch.num_targets == batch.target_index.size

        induced, kept = medium_graph.induced_subgraph(batch.nodes)
        assert np.array_equal(kept, batch.nodes)
        assert np.array_equal(batch.subgraph.indptr, induced.indptr)
        assert np.array_equal(batch.subgraph.indices, induced.indices)
        assert (batch.num_nodes, batch.num_edges) == (induced.num_nodes, induced.num_edges)
        # topology only: the training step gathers the feature rows it reads
        assert batch.subgraph.features is None and batch.subgraph.labels is None
        assert induced.features.shape == (batch.num_nodes, medium_graph.feature_dim)

    @pytest.mark.parametrize("name", ["sage", "biased", "fastgcn", "saint", "cluster"])
    def test_out_of_range_targets_are_rejected(self, medium_graph, rng, name):
        sampler = _sampler_zoo(medium_graph)[name]
        for bad in (-1, medium_graph.num_nodes):
            with pytest.raises(SamplingError, match="out of range"):
                sampler.sample(medium_graph, np.array([0, bad]), rng=rng)


class TestClusterSampler:
    def test_batch_is_the_chosen_partitions_plus_targets(self, medium_graph, rng):
        sampler = ClusterSampler(num_parts=10, parts_per_batch=2)
        targets = rng.choice(medium_graph.num_nodes, 40, replace=False)
        batch = sampler.sample(medium_graph, targets, rng=rng)
        partition = sampler._ensure_partition(medium_graph)
        chosen = batch.meta["partitions"]
        assert len(chosen) == 2
        hosted = np.bincount(partition[targets], minlength=10)
        assert sorted(hosted[chosen], reverse=True) == sorted(hosted, reverse=True)[:2]
        members = np.flatnonzero(np.isin(partition, chosen))
        assert np.array_equal(batch.nodes, np.union1d(members, targets))

    def test_member_lists_follow_a_replaced_partition(self, medium_graph, rng):
        given = np.arange(medium_graph.num_nodes) % 3
        sampler = ClusterSampler(num_parts=3, parts_per_batch=1, partition=given)
        batch = sampler.sample(medium_graph, np.array([0, 3, 6]), rng=rng)
        assert np.array_equal(batch.nodes, np.flatnonzero(given == 0))
        assert batch.meta["partitions"] == [0]


class TestLayerSamplerDraws:
    def test_each_layer_draws_exactly_its_budget_of_distinct_candidates(self, medium_graph, rng):
        targets = np.sort(rng.choice(medium_graph.num_nodes, 30, replace=False))
        _, nbrs = medium_graph.gather_neighborhoods(targets)
        candidates = np.unique(nbrs)
        assert candidates.size > 20
        for importance in (True, False):
            batch = LayerSampler([20], importance=importance).sample(
                medium_graph, targets, rng=rng
            )
            drawn = np.setdiff1d(batch.nodes, targets)
            assert np.all(np.isin(drawn, candidates))
            # 20 distinct picks, some of which may be targets themselves
            assert batch.num_nodes <= targets.size + 20
            assert np.isin(batch.nodes, np.union1d(targets, candidates)).all()
        # a budget above the candidate count takes every candidate
        batch = LayerSampler([10**6]).sample(medium_graph, targets, rng=rng)
        assert np.array_equal(batch.nodes, np.union1d(targets, candidates))


class TestNeighborSampler:
    def test_targets_inside_subgraph(self, medium_graph, rng):
        sampler = NeighborSampler([5, 3])
        targets = rng.choice(medium_graph.num_nodes, 64, replace=False)
        batch = sampler.sample(medium_graph, targets, rng=rng)
        recovered = batch.nodes[batch.target_index]
        assert np.array_equal(np.sort(recovered), np.unique(targets))

    def test_batch_grows_with_fanout(self, medium_graph, rng):
        targets = rng.choice(medium_graph.num_nodes, 64, replace=False)
        small = NeighborSampler([2]).sample(medium_graph, targets, rng=rng)
        large = NeighborSampler([8, 4]).sample(medium_graph, targets, rng=rng)
        assert large.num_nodes > small.num_nodes

    def test_rejects_empty_fanouts(self):
        with pytest.raises(SamplingError):
            NeighborSampler([])

    def test_rejects_empty_targets(self, medium_graph, rng):
        with pytest.raises(SamplingError):
            NeighborSampler([2]).sample(medium_graph, np.array([]), rng=rng)

    def test_fanout_profile(self):
        assert NeighborSampler([10, 5]).fanout_profile() == [10.0, 5.0]

    def test_hops(self):
        assert NeighborSampler([10, 5]).expected_hops() == 2


class TestLayerSampler:
    def test_layer_budget_respected(self, medium_graph, rng):
        sampler = LayerSampler([100, 50])
        targets = rng.choice(medium_graph.num_nodes, 64, replace=False)
        batch = sampler.sample(medium_graph, targets, rng=rng)
        # |Vi| <= |B0| + Δ1 + Δ2
        assert batch.num_nodes <= 64 + 100 + 50

    def test_importance_prefers_high_degree(self, medium_graph):
        rng = np.random.default_rng(3)
        targets = rng.choice(medium_graph.num_nodes, 200, replace=False)
        imp = LayerSampler([80], importance=True)
        uni = LayerSampler([80], importance=False)
        deg_imp = deg_uni = 0.0
        for _ in range(15):
            b1 = imp.sample(medium_graph, targets, rng=rng)
            b2 = uni.sample(medium_graph, targets, rng=rng)
            deg_imp += medium_graph.degrees[b1.nodes].mean()
            deg_uni += medium_graph.degrees[b2.nodes].mean()
        assert deg_imp > deg_uni

    def test_fanout_profile_eq3(self):
        sampler = LayerSampler([100, 50])
        sampler._last_batch_hint = 50
        profile = sampler.fanout_profile()
        assert profile[0] == pytest.approx(2.0)  # Δ1/|B0| = 100/50
        assert profile[1] == pytest.approx(0.5)  # Δ2/Δ1 = 50/100

    def test_rejects_empty_sizes(self):
        with pytest.raises(SamplingError):
            LayerSampler([])


class TestSaintSampler:
    def test_loss_targets_cover_subgraph(self, medium_graph, rng):
        sampler = SaintSampler(walk_length=4)
        targets = rng.choice(medium_graph.num_nodes, 64, replace=False)
        batch = sampler.sample(medium_graph, targets, rng=rng)
        assert batch.num_targets == batch.num_nodes

    def test_loss_on_roots_only(self, medium_graph, rng):
        sampler = SaintSampler(walk_length=4, loss_on_all=False)
        targets = rng.choice(medium_graph.num_nodes, 64, replace=False)
        batch = sampler.sample(medium_graph, targets, rng=rng)
        assert batch.num_targets == np.unique(targets).size

    def test_fanout_profile_single_neighbor(self):
        assert SaintSampler(walk_length=3).fanout_profile() == [1.0, 1.0, 1.0]

    def test_walks_stay_connected(self, medium_graph, rng):
        """Every visited vertex is reachable within walk_length hops."""
        sampler = SaintSampler(walk_length=2)
        targets = np.array([0, 1])
        batch = sampler.sample(medium_graph, targets, rng=rng)
        # 2-hop BFS ball around the roots must contain the batch.
        ball = set(targets.tolist())
        frontier = set(targets.tolist())
        for _ in range(2):
            nxt = set()
            for v in frontier:
                nxt.update(medium_graph.neighbors(v).tolist())
            ball |= nxt
            frontier = nxt
        assert set(batch.nodes.tolist()) <= ball

    def test_rejects_bad_walk_length(self):
        with pytest.raises(SamplingError):
            SaintSampler(walk_length=0)

    def test_isolated_tail_node_does_not_crash(self, rng):
        """A degree-0 walker at the CSR tail has indptr == len(indices);
        the masked neighbour gather must not index past the edge array."""
        from repro.graphs.csr import CSRGraph

        # 0-1 connected, 2 isolated and last: indptr[2] == indices.size.
        graph = CSRGraph(
            indptr=np.array([0, 1, 2, 2]),
            indices=np.array([1, 0]),
        )
        sampler = SaintSampler(walk_length=3)
        batch = sampler.sample(graph, np.array([0, 2]), rng=rng)
        assert 2 in batch.nodes.tolist()  # the stranded root stays put


class TestBiasedSampler:
    def test_zero_bias_matches_unbiased_distribution(self, medium_graph):
        rng1 = np.random.default_rng(9)
        rng2 = np.random.default_rng(9)
        targets = np.arange(100)
        biased = BiasedNeighborSampler([4, 2], bias_rate=0.0)
        plain = NeighborSampler([4, 2])
        b1 = biased.sample(medium_graph, targets, rng=rng1)
        b2 = plain.sample(medium_graph, targets, rng=rng2)
        # Identical RNG stream + no weights => identical samples.
        assert np.array_equal(b1.nodes, b2.nodes)

    def test_bias_concentrates_on_hot_set(self, medium_graph):
        rng = np.random.default_rng(10)
        hot = np.arange(300)
        targets = np.arange(300, 500)
        biased = BiasedNeighborSampler([4, 2], bias_rate=1.0, hot_nodes=hot)
        plain = NeighborSampler([4, 2])
        hot_frac_b = hot_frac_p = 0.0
        for _ in range(10):
            bb = biased.sample(medium_graph, targets, rng=rng)
            bp = plain.sample(medium_graph, targets, rng=rng)
            hot_frac_b += np.isin(bb.nodes, hot).mean()
            hot_frac_p += np.isin(bp.nodes, hot).mean()
        assert hot_frac_b > hot_frac_p

    def test_set_hot_nodes_invalidates_cache(self, medium_graph, rng):
        sampler = BiasedNeighborSampler([3], bias_rate=0.5, hot_nodes=np.arange(10))
        sampler.sample(medium_graph, np.arange(20), rng=rng)
        sampler.set_hot_nodes(np.arange(50))
        assert sampler._weights is None

    def test_rejects_bad_bias(self):
        with pytest.raises(SamplingError):
            BiasedNeighborSampler([3], bias_rate=1.5)


class TestBatchIterator:
    def test_covers_all_nodes(self, rng):
        nodes = np.arange(100)
        it = BatchIterator(nodes, 32, seed=0)
        seen = np.concatenate(list(it.epoch()))
        assert np.array_equal(np.sort(seen), nodes)

    def test_len_matches_iteration(self):
        it = BatchIterator(np.arange(100), 32)
        assert len(it) == len(list(it.epoch())) == 4

    def test_drop_last(self):
        it = BatchIterator(np.arange(100), 32, drop_last=True)
        batches = list(it.epoch())
        assert len(batches) == 3
        assert all(b.size == 32 for b in batches)

    def test_partition_order_groups(self):
        nodes = np.arange(100)
        part = (nodes // 50).astype(np.int64)  # two partitions
        it = BatchIterator(nodes, 25, order="partition", partition=part, seed=1)
        batches = list(it.epoch())
        # Each batch stays within one partition (50 % 25 == 0).
        for b in batches:
            assert np.unique(part[b]).size == 1

    def test_sequential_order(self):
        it = BatchIterator(np.arange(10), 5, order="sequential")
        first = next(iter(it.epoch()))
        assert np.array_equal(first, np.arange(5))

    def test_partition_requires_vector(self):
        with pytest.raises(SamplingError):
            BatchIterator(np.arange(10), 5, order="partition")

    def test_rejects_empty_nodes(self):
        with pytest.raises(SamplingError):
            BatchIterator(np.array([]), 5)

    def test_epochs_shuffle_differently(self):
        it = BatchIterator(np.arange(64), 64, seed=3)
        first = next(iter(it.epoch())).copy()
        second = next(iter(it.epoch())).copy()
        assert not np.array_equal(first, second)


class TestExpectation:
    def test_tree_growth_bound(self):
        assert tree_growth_bound(10, [2.0, 1.0]) == pytest.approx(10 * 3 * 2)

    def test_tau_exponent(self):
        assert tree_growth_bound(10, [3.0], tau=0.5) == pytest.approx(20.0)

    def test_saturation_caps_at_n(self):
        assert saturating_expectation(1e9, 1000) <= 1000

    def test_saturation_monotone(self):
        lo = saturating_expectation(100, 1000)
        hi = saturating_expectation(500, 1000)
        assert hi > lo

    def test_small_bound_nearly_linear(self):
        assert saturating_expectation(10, 100_000) == pytest.approx(10, rel=0.01)

    def test_rejects_bad_args(self):
        with pytest.raises(SamplingError):
            tree_growth_bound(0, [1.0])
        with pytest.raises(SamplingError):
            saturating_expectation(10, 0)


@settings(max_examples=20, deadline=None)
@given(
    batch=st.integers(1, 200),
    fanouts=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=4),
)
def test_expectation_bound_property(batch, fanouts):
    """Saturating expectation never exceeds the tree-growth bound or |V|."""
    n = 5000
    bound = tree_growth_bound(batch, fanouts)
    expected = float(saturating_expectation(bound, n))
    assert expected <= min(bound + 1e-6, n)
