"""The per-batch path: sampler -> relabelled block -> the rows the loss reads.

``RuntimeBackend._train_step`` tells the model which rows the loss reads and
GCN/SAGE layers multiply by per-layer rectangular blocks of the propagation
matrix.  The path it replaced — every layer on every vertex of the sampled
subgraph, then ``out[target_index]`` — is kept here as the *reference
implementation*; the block path must agree with it on the loss and on every
parameter gradient, for every sampler, depth and kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd.functional import elu, log_softmax, nll_loss, relu
from repro.autograd.sparse import normalized_adjacency, row_block
from repro.autograd.tensor import Tensor, no_grad
from repro.config.settings import KERNEL_NAMES, TaskSpec, TrainingConfig
from repro.nn.graphconv import Propagation
from repro.nn.metrics import accuracy
from repro.runtime.backend import RuntimeBackend
from repro.runtime.kernels import get_kernel

SAMPLERS = ("sage", "biased", "fastgcn", "saint", "cluster")
KERNELS = (None, *KERNEL_NAMES)


def _backend(graph, arch, sampler, num_layers, kernel_name, *, dropout=0.0, epochs=1):
    task = TaskSpec(dataset="tiny", arch=arch, epochs=epochs, lr=0.02)
    config = TrainingConfig(
        sampler=sampler,
        batch_size=48,
        hop_list=(4, 3),
        bias_rate=0.5,
        hidden_channels=16,
        num_layers=num_layers,
        dropout=dropout,
        kernel=kernel_name or "reference",
    )
    backend = RuntimeBackend(task, config, graph=graph)
    if kernel_name is None:  # the seed-era spmm code path
        backend.kernel = None
        backend._full_prop.kernel = None
    return backend


def _first_batch(backend):
    targets = next(iter(backend.batches.epoch()))
    return backend.sampler.sample(backend.graph, targets, rng=backend._rng)


def _loss_rows(backend, batch) -> np.ndarray:
    """The subgraph rows ``_train_step`` computes the loss on."""
    index = batch.target_index
    return index[backend._train_mask[batch.nodes[index]]]


def reference_step(backend, batch) -> tuple[float, list[np.ndarray]]:
    """All-rows forward + row selection: the path the blocks replaced."""
    model = backend.model
    model.train()
    for param in model.parameters():
        param.zero_grad()
    prop = Propagation.from_graph(batch.subgraph)  # square, kernel=None
    h = Tensor(backend.graph.features[batch.nodes])
    for i, layer in enumerate(model.layers):
        h = layer(h, prop)
        if i < model.num_layers - 1:
            h = elu(h) if model.arch == "gat" else relu(h)
    rows = _loss_rows(backend, batch)
    out = log_softmax(h, axis=-1)[rows]
    loss = nll_loss(out, backend.graph.labels[batch.nodes[rows]])
    loss.backward()
    return loss.item(), [p.grad.copy() for p in model.parameters()]


def block_step(backend, batch) -> tuple[float, list[np.ndarray]]:
    """The real ``_train_step``, with the parameter update held back."""
    backend.optimizer.step = lambda: None
    loss = backend._train_step(batch)
    return loss, [p.grad.copy() for p in backend.model.parameters()]


class TestBlockPathEqualsAllRowsReference:
    @pytest.mark.parametrize("kernel_name", KERNELS)
    @pytest.mark.parametrize("sampler", SAMPLERS)
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("arch", ["gcn", "sage"])
    def test_loss_and_gradients(self, small_graph, arch, num_layers, sampler, kernel_name):
        backend = _backend(small_graph, arch, sampler, num_layers, kernel_name)
        batch = _first_batch(backend)
        want_loss, want_grads = reference_step(backend, batch)
        loss, grads = block_step(backend, batch)
        assert loss == pytest.approx(want_loss, abs=1e-5)
        for got, want in zip(grads, want_grads, strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_gat_still_computes_every_row(self, small_graph, sampler):
        backend = _backend(small_graph, "gat", sampler, 2, "reference")
        batch = _first_batch(backend)
        want_loss, want_grads = reference_step(backend, batch)
        loss, grads = block_step(backend, batch)
        assert loss == pytest.approx(want_loss, abs=1e-6)
        for got, want in zip(grads, want_grads, strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)

    def test_gat_output_rows_are_the_all_rows_output(self, small_graph):
        backend = _backend(small_graph, "gat", "sage", 2, "reference")
        batch = _first_batch(backend)
        x = Tensor(small_graph.features[batch.nodes])
        backend.model.eval()
        with no_grad():
            full = backend.model(x, Propagation.from_graph(batch.subgraph))
            rows = backend.model(
                x, Propagation.from_graph(batch.subgraph, rows=batch.target_index)
            )
        np.testing.assert_array_equal(rows.data, full.data[batch.target_index])


class TestRowsAllIsTheSquareCase:
    @pytest.mark.parametrize("kernel_name", KERNELS)
    @pytest.mark.parametrize("arch", ["gcn", "sage", "gat"])
    def test_reproduces_evaluate_exactly(self, small_graph, arch, kernel_name):
        backend = _backend(small_graph, arch, "sage", 2, kernel_name)
        backend.run_epoch(0)
        graph = backend.graph
        every = Propagation.from_graph(
            graph, kernel=backend.kernel, rows=np.arange(graph.num_nodes)
        )
        blocks, inputs = every.blocks("row", 2)
        assert blocks == [every, every] and inputs is None
        backend.model.eval()
        with no_grad():
            out = backend.model(Tensor(graph.features), every)
            want = backend.model(Tensor(graph.features), backend._full_prop)
        np.testing.assert_array_equal(out.data, want.data)
        nodes = backend.val_nodes
        (got,) = backend.evaluate(nodes)
        assert got == accuracy(out.data[nodes], graph.labels[nodes])


class TestBlocks:
    def test_row_block_is_the_scipy_slice(self, medium_graph, rng):
        n = medium_graph.num_nodes
        matrix = normalized_adjacency(medium_graph.indptr, medium_graph.indices, n)
        rows = np.sort(rng.choice(n, 40, replace=False))
        block, self_index, columns = row_block(matrix, rows)
        assert block.has_sorted_indices
        np.testing.assert_array_equal(
            block.toarray(), matrix[rows][:, columns].toarray()
        )
        np.testing.assert_array_equal(columns[self_index], rows)

    def test_row_block_without_relabel_when_every_column_is_touched(self):
        indptr = np.array([0, 2, 4, 6])
        indices = np.array([1, 2, 0, 2, 0, 1])
        matrix = normalized_adjacency(indptr, indices, 3)
        block, self_index, columns = row_block(matrix, np.array([1]))
        assert columns is None and block.shape == (1, 3)
        np.testing.assert_array_equal(self_index, [1])
        np.testing.assert_array_equal(block.toarray(), matrix.toarray()[[1]])

    @pytest.mark.parametrize("mode", ["sym", "row"])
    def test_layers_shrink_towards_the_targets(self, medium_graph, rng, mode):
        rows = np.sort(rng.choice(medium_graph.num_nodes, 16, replace=False))
        prop = Propagation.from_graph(medium_graph, rows=rows)
        blocks, inputs = prop.blocks(mode, 2)
        first, last = blocks
        assert last.matrix.shape[0] == rows.size
        assert first.matrix.shape[0] == last.matrix.shape[1]
        assert first.matrix.shape[1] == inputs.size < medium_graph.num_nodes
        # whole-graph degrees normalise every block: entries are the square
        # matrix's own values
        square = getattr(prop, mode)
        middle = inputs[first.self_index]
        np.testing.assert_array_equal(
            last.matrix.toarray(), square[rows][:, middle].toarray()
        )
        np.testing.assert_array_equal(
            first.matrix.toarray(), square[middle][:, inputs].toarray()
        )

    def test_model_returns_only_the_rows_asked_for(self, small_graph):
        backend = _backend(small_graph, "sage", "sage", 2, "reference")
        batch = _first_batch(backend)
        prop = Propagation.from_graph(batch.subgraph, rows=batch.target_index)
        out = backend.model(Tensor(small_graph.features[batch.nodes]), prop)
        assert out.shape == (batch.num_targets, small_graph.num_classes)

    def test_batch_without_training_targets_reports_nan(self, small_graph):
        backend = _backend(small_graph, "sage", "sage", 2, "reference")
        batch = backend.sampler.sample(
            backend.graph, backend.test_nodes[:8], rng=backend._rng
        )
        assert np.isnan(backend._train_step(batch))


class TestLossTrajectoryWithDropout:
    """``tests/test_kernels.py``'s guards on the block path: every kernel
    draws the same dropout masks, so ``None`` and ``reference`` stay bit for
    bit and the reassociating kernels stay inside their tolerance."""

    def _losses(self, graph, arch, sampler, kernel_name):
        backend = _backend(
            graph, arch, sampler, 2, kernel_name, dropout=0.5, epochs=2
        )
        report = backend.train()
        return np.array([e.loss for e in report.epochs]), report.accuracy

    @pytest.mark.parametrize("sampler", ["sage", "saint"])
    @pytest.mark.parametrize("arch", ["gcn", "sage"])
    def test_reference_bit_identical_to_legacy(self, small_graph, arch, sampler):
        legacy_losses, legacy_acc = self._losses(small_graph, arch, sampler, None)
        losses, acc = self._losses(small_graph, arch, sampler, "reference")
        np.testing.assert_array_equal(losses, legacy_losses)
        assert acc == legacy_acc

    @pytest.mark.parametrize("kernel_name", ["fused", "parallel"])
    @pytest.mark.parametrize("sampler", ["sage", "saint"])
    @pytest.mark.parametrize("arch", ["gcn", "sage"])
    def test_optimized_within_tolerance(self, small_graph, arch, sampler, kernel_name):
        legacy_losses, _ = self._losses(small_graph, arch, sampler, None)
        losses, _ = self._losses(small_graph, arch, sampler, kernel_name)
        np.testing.assert_allclose(losses, legacy_losses, rtol=1e-3, atol=1e-4)

    def test_kernels_draw_the_same_dropout_masks(self, small_graph):
        shapes = {}
        for kernel_name in KERNELS:
            backend = _backend(small_graph, "sage", "sage", 3, kernel_name, dropout=0.5)
            batch = _first_batch(backend)
            drawn = []
            rng = backend.model._rng
            real = rng.random

            class Recorder:
                def random(self, shape, **kwargs):
                    drawn.append(tuple(shape))
                    return real(shape, **kwargs)

            backend.model._rng = Recorder()
            backend._train_step(batch)
            shapes[kernel_name] = drawn
        assert len(shapes[None]) == 2
        assert all(drawn == shapes[None] for drawn in shapes.values())
        assert get_kernel("fused").fuses_epilogue  # the path that once diverged
