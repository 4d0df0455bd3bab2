"""The one SpMM path: :func:`repro.autograd.sparse.spmm` and its counter.

Every aggregation — GCN/SAGE's propagation blocks, GAT's two attention-logit
gathers and one attention-weighted product per head — is a plain scipy CSR x
dense product through ``spmm`` or ``attention_spmm``.
Each product it runs is timed into the process-wide counter that
``repro.runtime.kernels.kernel_counters()`` reads (and the perf ledger and
the server's ``spmm_*`` gauges report): one call forward, one more when the
input takes a gradient and the backward reaches it.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd.functional import nll_loss
from repro.autograd.sparse import normalized_adjacency, spmm
from repro.autograd.tensor import Tensor, no_grad
from repro.config.settings import TaskSpec, TrainingConfig
from repro.graphs.csr import CSRGraph
from repro.nn.graphconv import GATConv, Propagation
from repro.nn.models import build_model
from repro.runtime.backend import RuntimeBackend
from repro.runtime.kernels import kernel_counters, reset_kernel_counters


def _random_csr(
    n_rows: int, n_cols: int, density: float, seed: int, *, empty_rows: int = 0
) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    matrix = sp.random(
        n_rows, n_cols, density=density, format="csr",
        dtype=np.float32, random_state=np.random.RandomState(seed),
    )
    if empty_rows:
        rows = rng.choice(n_rows, size=empty_rows, replace=False)
        mask = np.ones(n_rows, dtype=np.float32)
        mask[rows] = 0.0
        matrix = sp.diags(mask).astype(np.float32) @ matrix
        matrix.eliminate_zeros()
        matrix = matrix.tocsr()
    return matrix


def _counter() -> tuple[float, float]:
    (slot,) = kernel_counters().values()
    return slot["calls"], slot["seconds"]


# ----------------------------------------------------------------- products
class TestProducts:
    @pytest.mark.parametrize(
        "shape,density,empty_rows",
        [
            ((80, 80), 0.1, 0),
            ((120, 60), 0.05, 17),
            ((1, 1), 1.0, 0),
            ((16, 90), 0.1, 0),
            ((40, 30), 0.0, 0),
            ((12, 12), 1.0, 0),
        ],
        ids=[
            "square", "rectangular-empty-rows", "single-node",
            "wide", "no-entries", "dense",
        ],
    )
    def test_forward_and_backward_are_the_scipy_products(
        self, shape, density, empty_rows
    ):
        matrix = _random_csr(*shape, density, seed=3, empty_rows=empty_rows)
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((shape[1], 8)), requires_grad=True)
        out = spmm(matrix, x)
        np.testing.assert_array_equal(out.data, matrix @ x.data)
        grad = rng.standard_normal(out.shape).astype(out.data.dtype)
        out.backward(grad)
        np.testing.assert_array_equal(x.grad, matrix.T.tocsr() @ grad)

    def test_every_way_of_naming_the_transpose_gives_one_gradient(self):
        n = 60
        g = CSRGraph.from_edges(
            n,
            np.random.default_rng(5).integers(0, n, 400),
            np.random.default_rng(6).integers(0, n, 400),
        )
        sym = normalized_adjacency(g.indptr, g.indices, n, mode="sym")
        row = normalized_adjacency(g.indptr, g.indices, n, mode="row")
        grads = []
        for matrix, kwargs in (
            (sym, {"symmetric": True}),
            (sym, {}),
            (row, {"transposed": row.T.tocsr()}),
            (row, {}),
        ):
            x = Tensor(
                np.random.default_rng(7).standard_normal((n, 6)), requires_grad=True
            )
            spmm(matrix, x, **kwargs).sum().backward()
            grads.append(x.grad)
        np.testing.assert_array_equal(grads[0], grads[1])
        np.testing.assert_array_equal(grads[2], grads[3])


# ------------------------------------------------------------------ counter
class TestCounter:
    def test_one_call_forward_and_one_backward(self):
        matrix = _random_csr(30, 20, 0.2, seed=18)
        x = Tensor(np.random.default_rng(19).standard_normal((20, 3)), requires_grad=True)
        reset_kernel_counters()
        out = spmm(matrix, x)
        assert _counter()[0] == 1
        out.sum().backward()
        calls, seconds = _counter()
        assert calls == 2 and seconds > 0
        reset_kernel_counters()
        assert kernel_counters() == {"spmm": {"calls": 0.0, "seconds": 0.0}}

    def test_one_call_without_a_gradient(self):
        matrix = _random_csr(30, 20, 0.2, seed=20)
        data = np.random.default_rng(21).standard_normal((20, 3))
        reset_kernel_counters()
        out = spmm(matrix, Tensor(data)).sum()  # a constant input records no tape
        with pytest.raises(RuntimeError):
            out.backward()
        with no_grad():
            spmm(matrix, Tensor(data, requires_grad=True))
        calls, seconds = _counter()
        assert calls == 2 and seconds > 0

    @pytest.mark.parametrize("heads, products", [(1, 3), (2, 4), (4, 6)])
    def test_gat_counts_two_logit_gathers_and_a_product_per_head(
        self, small_graph, heads, products
    ):
        layer = GATConv(
            small_graph.feature_dim, 8, heads=heads, rng=np.random.default_rng(0)
        )
        prop = Propagation.from_graph(small_graph)
        x = Tensor(small_graph.features)
        reset_kernel_counters()
        with no_grad():
            layer(x, prop)
        assert _counter()[0] == products
        reset_kernel_counters()
        layer(x, prop).sum().backward()  # every product's input is learnt
        calls, seconds = _counter()
        assert calls == 2 * products and seconds > 0

    @pytest.mark.parametrize(
        "arch, trained, evaluated",
        # GCN/SAGE: the first layer's input is the constant feature matrix;
        # GAT: 2 + heads (4) products per layer
        [("gcn", 3, 2), ("sage", 3, 2), ("gat", 24, 12)],
    )
    def test_a_model_step_counts_every_product(
        self, small_graph, arch, trained, evaluated
    ):
        model = build_model(
            arch, small_graph.feature_dim, small_graph.num_classes,
            hidden_channels=16, dropout_p=0.0, seed=0,
        )
        prop = Propagation.from_graph(small_graph)
        x = Tensor(small_graph.features)
        reset_kernel_counters()
        nll_loss(model(x, prop), small_graph.labels).backward()
        assert _counter()[0] == trained
        reset_kernel_counters()
        with no_grad():
            model(x, prop)
        assert _counter()[0] == evaluated

    @pytest.mark.parametrize("sampler", ["sage", "biased", "fastgcn", "saint", "cluster"])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("arch", ["gcn", "sage", "gat"])
    def test_a_training_step_on_blocks_counts_every_product(
        self, small_graph, arch, num_layers, sampler
    ):
        """One product per layer and block (2 + heads = 6 per GAT layer),
        each timed again by the backward that reaches it; evaluate runs
        forward only."""
        task = TaskSpec(dataset="tiny", arch=arch, epochs=1, lr=0.02)
        config = TrainingConfig(
            sampler=sampler, batch_size=48, hop_list=(4, 3),
            hidden_channels=16, num_layers=num_layers,
        )
        backend = RuntimeBackend(task, config, graph=small_graph)
        targets = next(iter(backend.batches.epoch()))
        batch = backend.sampler.sample(backend.graph, targets, rng=backend._rng)
        per_layer = 6 if arch == "gat" else 1
        learnt = num_layers if arch == "gat" else num_layers - 1
        reset_kernel_counters()
        backend._train_step(batch)
        calls, seconds = _counter()
        assert calls == per_layer * (num_layers + learnt) and seconds > 0
        reset_kernel_counters()
        backend.evaluate(backend.val_nodes)
        assert _counter()[0] == per_layer * num_layers


    @pytest.mark.parametrize("arch", ["gcn", "sage"])
    def test_a_first_layer_that_halves_its_width_adds_no_backward_product(
        self, small_graph, arch
    ):
        """16 features -> hidden 8 halves the first layer's width, but its
        input is the constant feature matrix: multiplying by the weight
        first would make the product's input learnt and cost a backward
        product, so the layer aggregates first and the step counts as many
        products as a widening first layer's."""
        task = TaskSpec(dataset="tiny", arch=arch, epochs=1, lr=0.02)
        config = TrainingConfig(
            sampler="sage", batch_size=48, hop_list=(4, 3), hidden_channels=8
        )
        backend = RuntimeBackend(task, config, graph=small_graph)
        assert 2 * config.hidden_channels <= small_graph.feature_dim
        targets = next(iter(backend.batches.epoch()))
        batch = backend.sampler.sample(backend.graph, targets, rng=backend._rng)
        reset_kernel_counters()
        backend._train_step(batch)
        assert _counter()[0] == 2 + 1  # two forward, the output layer's backward


def test_server_reports_the_counter_as_two_gauges():
    from repro.serving import NavigationServer

    server = NavigationServer(workers=1, cache_dir=None, autostart=False)
    try:
        reset_kernel_counters()
        spmm(_random_csr(10, 10, 0.5, seed=22), Tensor(np.ones((10, 2))))
        snapshot = server.metrics.snapshot()
        assert snapshot["spmm_calls"] == 1 and snapshot["spmm_seconds"] > 0
        assert not any("kernel" in name for name in snapshot)
    finally:
        server.stop()
