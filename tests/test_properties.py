"""Hypothesis property tests for cross-cutting invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.estimator.validation import r2_score
from repro.explorer.pareto import pareto_mask
from repro.hardware import DeviceCache, get_platform, t_sample, t_transfer
from repro.hardware.costmodel import model_costing, t_compute


@settings(max_examples=40, deadline=None)
@given(
    capacity=st.integers(0, 50),
    policy=st.sampled_from(["none", "fifo", "lru"]),
    ops=st.lists(
        st.lists(st.integers(0, 99), min_size=1, max_size=20),
        min_size=1,
        max_size=15,
    ),
)
def test_cache_occupancy_never_exceeds_capacity(capacity, policy, ops):
    """Under any lookup/update sequence the cache respects its capacity."""
    cache = DeviceCache(100, capacity, policy=policy)
    for batch in ops:
        nodes = np.array(batch, dtype=np.int64)
        mask = cache.lookup(nodes)
        cache.update(nodes[~mask])
        assert cache.occupancy <= cache.capacity
        assert cache.hot_nodes().size == cache.occupancy


@settings(max_examples=40, deadline=None)
@given(
    capacity=st.integers(1, 50),
    batches=st.lists(
        st.lists(st.integers(0, 99), min_size=1, max_size=10),
        min_size=2,
        max_size=10,
    ),
)
def test_cache_hits_only_resident_vertices(capacity, batches):
    """A lookup hit implies the vertex was admitted earlier and not evicted."""
    cache = DeviceCache(100, capacity, policy="lru")
    ever_admitted: set[int] = set()
    for batch in batches:
        nodes = np.array(batch, dtype=np.int64)
        mask = cache.lookup(nodes)
        for node, hit in zip(nodes, mask, strict=True):
            if hit:
                assert int(node) in ever_admitted
        cache.update(nodes[~mask])
        ever_admitted.update(cache.hot_nodes().tolist())


@settings(max_examples=30, deadline=None)
@given(
    expanded=st.integers(0, 100_000),
    missed=st.integers(0, 50_000),
    n_attr=st.integers(1, 600),
)
def test_cost_functions_nonnegative_and_monotone(expanded, missed, n_attr):
    platform = get_platform("rtx4090")
    t1 = t_sample(expanded, platform)
    t2 = t_sample(expanded + 1000, platform)
    assert 0 <= t1 <= t2
    tr1 = t_transfer(missed, n_attr, platform)
    tr2 = t_transfer(missed + 100, n_attr, platform)
    assert 0 <= tr1 <= tr2


@settings(max_examples=30, deadline=None)
@given(
    nodes=st.integers(1, 20_000),
    edges=st.integers(0, 200_000),
    hidden=st.sampled_from([16, 32, 64, 128]),
    arch=st.sampled_from(["gcn", "sage", "gat"]),
)
def test_compute_time_monotone_in_graph_size(nodes, edges, hidden, arch):
    platform = get_platform("a100")
    kwargs = dict(in_dim=64, hidden_dim=hidden, out_dim=16, num_layers=2)
    small = t_compute(model_costing(arch, nodes, edges, **kwargs), platform)
    large = t_compute(
        model_costing(arch, nodes * 2, edges * 2 + 1, **kwargs), platform
    )
    assert 0 < small <= large


@settings(max_examples=40, deadline=None)
@given(
    points=st.lists(
        st.tuples(st.floats(0, 100), st.floats(0, 100)),
        min_size=1,
        max_size=40,
    )
)
def test_pareto_mask_properties(points):
    """Front is non-empty; no front point dominates another front point."""
    objs = np.array(points)
    mask = pareto_mask(objs)
    assert mask.any()
    front = objs[mask]
    for i in range(front.shape[0]):
        for j in range(front.shape[0]):
            if i == j:
                continue
            strictly_better = np.all(front[i] <= front[j]) and np.any(
                front[i] < front[j]
            )
            assert not strictly_better


@settings(max_examples=30, deadline=None)
@given(
    y=st.lists(st.floats(-100, 100), min_size=3, max_size=30),
    noise=st.floats(0, 1),
)
def test_r2_upper_bound(y, noise):
    """R2 of any prediction never exceeds 1."""
    y_true = np.array(y)
    rng = np.random.default_rng(0)
    y_pred = y_true + noise * rng.normal(size=y_true.size)
    assert r2_score(y_true, y_pred) <= 1.0 + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 40),
    edges=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=150),
    frontier=st.lists(st.integers(0, 39), max_size=25),
    k=st.integers(1, 6),
    weighted=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_fanout_step_properties(n, edges, frontier, k, weighted, seed):
    """On arbitrary graphs and frontiers (unsorted, repeated, isolated):
    the picks are sorted, distinct, neighbours of the frontier, at most
    ``min(k, d)`` per frontier slot and at least that for the best slot."""
    from repro.graphs.csr import CSRGraph
    from repro.sampling import fanout_step

    src = np.array([min(a, n - 1) for a, _ in edges], dtype=np.int64)
    dst = np.array([min(b, n - 1) for _, b in edges], dtype=np.int64)
    graph = CSRGraph.from_edges(n, src, dst)
    frontier = np.array([min(v, n - 1) for v in frontier], dtype=np.int64)
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 10.0, n) if weighted else None

    out = fanout_step(graph, frontier, k, weights=weights, rng=rng)

    assert out.dtype == np.int64 and np.all(np.diff(out) > 0)
    neighbourhood = (
        np.unique(np.concatenate([graph.neighbors(int(v)) for v in frontier]))
        if frontier.size
        else np.empty(0, dtype=np.int64)
    )
    assert np.all(np.isin(out, neighbourhood))
    quota = np.minimum(graph.degrees[frontier], k)
    assert out.size <= min(int(quota.sum()), neighbourhood.size)
    assert out.size >= (int(quota.max()) if frontier.size else 0)
    for v in np.unique(frontier):  # a lone slot keeps exactly its quota
        if np.count_nonzero(frontier == v) == 1:
            alone = fanout_step(graph, np.array([v]), k, weights=weights, rng=rng)
            assert alone.size == min(k, graph.degree(int(v)))


def mask_induced_subgraph(graph, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the induced subgraph as boolean masks built
    it — the *reference* ``CSRGraph.induced_subgraph`` equals byte for byte:
    the kept slots selected by ``dst[keep]``, the row pointer read off a
    running count over every slot."""
    from repro.graphs.csr import row_slots

    member = np.zeros(graph.num_nodes, dtype=bool)
    member[np.asarray(nodes, dtype=np.int64)] = True
    nodes = np.flatnonzero(member)
    lookup = np.empty(graph.num_nodes, dtype=np.int64)
    lookup[nodes] = np.arange(nodes.size, dtype=np.int64)
    flat, bounds = row_slots(graph.indptr, nodes)
    dst = graph.indices[flat]
    keep = member[dst]
    kept = np.zeros(dst.size + 1, dtype=np.int64)
    np.cumsum(keep, out=kept[1:])
    return kept[bounds], lookup[dst[keep]]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 30),
    edges=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=120),
    picked=st.lists(st.integers(0, 29), max_size=40),
)
@example(n=5, edges=[(0, 1), (1, 2)], picked=[])  # nothing picked
@example(n=6, edges=[(0, 1), (1, 2), (2, 3)], picked=[3, 1, 1, 2, 3])  # repeats, unsorted
@example(n=8, edges=[(0, 1), (2, 3)], picked=[7, 5, 0, 1, 4])  # isolated vertices
@example(n=4, edges=[], picked=[2, 0])  # no edge at all
def test_induced_subgraph_properties(n, edges, picked):
    """Relabelled rows are the sorted intersections of the old rows with the
    kept set, with and without the feature/label slices, and the topology
    is the boolean-mask reference's byte for byte."""
    from repro.graphs.csr import CSRGraph

    src = np.array([min(a, n - 1) for a, _ in edges], dtype=np.int64)
    dst = np.array([min(b, n - 1) for _, b in edges], dtype=np.int64)
    features = np.arange(n * 2, dtype=np.float32).reshape(n, 2)
    graph = CSRGraph.from_edges(
        n, src, dst, features=features, labels=np.arange(n) % 3, num_classes=3
    )
    picked = np.array([min(v, n - 1) for v in picked], dtype=np.int64)

    sub, nodes = graph.induced_subgraph(picked)
    bare, bare_nodes = graph.induced_subgraph(picked, with_data=False)

    assert np.array_equal(nodes, np.unique(picked)) and np.array_equal(nodes, bare_nodes)
    assert np.array_equal(sub.indptr, bare.indptr)
    assert np.array_equal(sub.indices, bare.indices)
    assert bare.features is None and bare.labels is None
    assert np.array_equal(sub.features, features[nodes])
    assert np.array_equal(sub.labels, graph.labels[nodes])
    for local, v in enumerate(nodes):
        expected = np.intersect1d(graph.neighbors(int(v)), nodes)
        assert np.array_equal(nodes[sub.neighbors(local)], expected)
    reference = mask_induced_subgraph(graph, picked)
    for got, want in zip((bare.indptr, bare.indices), reference, strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
