"""The per-batch path: sampler -> relabelled block -> the rows the loss reads.

``RuntimeBackend._train_step`` tells the model which rows the loss reads and
every layer — GCN, SAGE and GAT alike — runs on a per-layer rectangular block
of the propagation matrix.  The path it replaced — every layer on every vertex
of the sampled subgraph, then ``out[target_index]`` — is kept here as the
*reference implementation*; the block path must agree with it on the loss and
on every parameter gradient, for every architecture, sampler, depth and batch
shape, and over a whole training run.  GAT draws its dropout masks over the
whole subgraph, as the reference does, so for GAT the two also agree with
dropout on.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.graphconv as graphconv
from repro.autograd.functional import dropout, elu, log_softmax, nll_loss, relu
from repro.autograd.sparse import _canonical_csr, normalized_adjacency
from repro.autograd.tensor import Tensor, default_dtype, no_grad
from repro.config.settings import TaskSpec, TrainingConfig
from repro.config.templates import get_template
from repro.graphs.datasets import load_dataset
from repro.graphs.csr import row_slots
from repro.nn.graphconv import Block, Propagation
from repro.nn.metrics import accuracy
from repro.nn.models import build_model
from repro.runtime.backend import RuntimeBackend

SAMPLERS = ("sage", "biased", "fastgcn", "saint", "cluster")
#: ``(batch_size, hop_list)``: what decides the shape of a layer's blocks —
#: a few neighbours per hop; every neighbour over three hops (and a longer
#: saint walk, more clusters per batch); a batch of one target; one batch
#: holding every training vertex
SHAPES = {
    "narrow": (48, (4, 3)),
    "wide": (48, (40, 40, 40)),
    "one-target": (1, (4, 3)),
    "all-train": (400, (4,)),
}


def _backend(
    graph, arch, sampler, num_layers, shape="narrow", *, dropout=0.0, epochs=1
):
    task = TaskSpec(dataset="tiny", arch=arch, epochs=epochs, lr=0.02)
    batch_size, hop_list = SHAPES[shape]
    config = TrainingConfig(
        sampler=sampler,
        batch_size=batch_size,
        hop_list=hop_list,
        bias_rate=0.5,
        hidden_channels=16,
        num_layers=num_layers,
        dropout=dropout,
    )
    return RuntimeBackend(task, config, graph=graph)


def _first_batch(backend):
    targets = next(iter(backend.batches.epoch()))
    return backend.sampler.sample(backend.graph, targets, rng=backend._rng)


def _loss_rows(backend, batch) -> np.ndarray:
    """The subgraph rows ``_train_step`` computes the loss on."""
    index = batch.target_index
    return index[backend._train_mask[batch.nodes[index]]]


def all_rows_forward(model, x: Tensor, prop: Propagation) -> Tensor:
    """Every layer on every vertex of the square ``prop``; dropout masks
    cover every vertex.  Log-probabilities of all rows."""
    h = x
    for i, layer in enumerate(model.layers):
        h = layer(h, prop)
        if i < model.num_layers - 1:
            h = elu(h) if model.arch == "gat" else relu(h)
            h = dropout(h, model.dropout_p, training=model.training, rng=model._rng)
    return log_softmax(h, axis=-1)


def reference_step(backend, batch) -> tuple[float, list[np.ndarray]]:
    """All-rows forward + row selection: the path the blocks replaced.
    Leaves the dropout stream where it found it."""
    model = backend.model
    model.train()
    for param in model.parameters():
        param.zero_grad()
    stream = model._rng.bit_generator.state
    prop = Propagation.from_graph(batch.subgraph)  # square
    h = all_rows_forward(model, Tensor(backend.graph.features[batch.nodes]), prop)
    model._rng.bit_generator.state = stream
    rows = _loss_rows(backend, batch)
    loss = nll_loss(h[rows], backend.graph.labels[batch.nodes[rows]])
    loss.backward()
    return loss.item(), [p.grad.copy() for p in model.parameters()]


def block_step(backend, batch) -> tuple[float, list[np.ndarray]]:
    """The real ``_train_step``, with the parameter update held back."""
    backend.optimizer.step = lambda: None
    loss = backend._train_step(batch)
    return loss, [p.grad.copy() for p in backend.model.parameters()]


def assert_block_step_equals_reference(backend, batch) -> None:
    want_loss, want_grads = reference_step(backend, batch)
    loss, grads = block_step(backend, batch)
    assert loss == pytest.approx(want_loss, abs=1e-5)
    for got, want in zip(grads, want_grads, strict=True):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)


def all_rows_train_step(backend, batch) -> float:
    """``_train_step`` as it was before blocks: all-rows forward, loss on the
    training targets, backward and the optimiser update."""
    rows = _loss_rows(backend, batch)
    if rows.size == 0:
        return float("nan")
    model = backend.model
    model.train()
    backend.optimizer.zero_grad()
    h = all_rows_forward(
        model,
        Tensor(backend.graph.features[batch.nodes]),
        Propagation.from_graph(batch.subgraph),
    )
    loss = nll_loss(h[rows], backend.graph.labels[batch.nodes[rows]])
    loss.backward()
    backend.optimizer.step()
    return float(loss.item())


def row_block(matrix, rows: np.ndarray):
    """``matrix[rows]`` restricted to the columns those rows touch, rows
    counted as touched: the cut ``Propagation.blocks`` took from the square
    matrix before it cut first.  The *reference* ``normalized_adjacency(...,
    rows=rows)`` equals byte for byte: ``(block, self_index, columns)``,
    ``columns`` ``None`` when nothing was relabelled."""
    rows = np.asarray(rows, dtype=np.int64)
    n = matrix.shape[1]
    flat, indptr = row_slots(matrix.indptr, rows)
    indices = matrix.indices[flat]
    touched = np.zeros(n, dtype=bool)
    touched[indices] = True
    touched[rows] = True
    columns = np.flatnonzero(touched)
    self_index = rows
    if columns.size == n:
        columns = None
    else:
        lookup = np.empty(n, dtype=np.int64)
        lookup[columns] = np.arange(columns.size, dtype=np.int64)
        indices, self_index = lookup[indices], lookup[rows]
        n = columns.size
    block = _canonical_csr(matrix.data[flat], indices, indptr, (rows.size, n))
    return block, self_index, columns


def reference_blocks(prop: Propagation, mode: str, num_layers: int):
    """``Propagation.blocks`` as the composition it replaced: the whole
    square ``mode`` matrix normalised, then every layer's block cut from it
    by :func:`row_block`."""
    square = prop.sym if mode == "sym" else prop.row
    chain, rows = [], prop.rows
    while len(chain) < num_layers and rows is not None and rows.size < prop.num_nodes:
        matrix, self_index, columns = row_block(square, rows)
        chain.append((Block(matrix, self_index, rows), columns))
        rows = columns
    blocks = [block for block, _ in reversed(chain)]
    if len(blocks) < num_layers:
        return [prop] * (num_layers - len(blocks)) + blocks, None
    return blocks, chain[-1][1]


class TestBlockPathEqualsAllRowsReference:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("sampler", SAMPLERS)
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("arch", ["gcn", "sage", "gat"])
    def test_loss_and_gradients(self, small_graph, arch, num_layers, sampler, shape):
        backend = _backend(small_graph, arch, sampler, num_layers, shape)
        assert_block_step_equals_reference(backend, _first_batch(backend))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("sampler", SAMPLERS)
    @pytest.mark.parametrize("num_layers", [2, 3])
    def test_gat_with_dropout_on(self, small_graph, num_layers, sampler, shape):
        """GAT's masks are rows of the draw the all-rows forward makes, so
        the comparison GCN/SAGE can only pass at ``dropout=0`` holds at 0.5."""
        backend = _backend(
            small_graph, "gat", sampler, num_layers, shape, dropout=0.5
        )
        batch = _first_batch(backend)
        stream = backend.model._rng.bit_generator
        start = stream.state
        assert_block_step_equals_reference(backend, batch)
        # ... and both consume the same stretch of the stream
        after, stream.state = stream.state, start
        all_rows_forward(
            backend.model,
            Tensor(small_graph.features[batch.nodes]),
            Propagation.from_graph(batch.subgraph),
        )
        assert stream.state == after != start


class TestTrainingTrajectory:
    """Two epochs of the real training loop — optimiser updates, batch order
    and the dropout stream included — against the same loop with every step
    run all-rows.  GAT keeps dropout on (its masks are the all-rows draw);
    GCN/SAGE mask only the rows a block produced, so they compare at 0."""

    @pytest.mark.parametrize("sampler", SAMPLERS)
    @pytest.mark.parametrize("arch", ["gcn", "sage", "gat"])
    def test_block_training_follows_the_all_rows_trajectory(
        self, small_graph, arch, sampler
    ):
        def run(step):
            backend = _backend(
                small_graph, arch, sampler, 2,
                dropout=0.5 if arch == "gat" else 0.0, epochs=2,
            )
            if step is not None:
                backend._train_step = lambda batch: step(backend, batch)
            return backend.train(keep_batch_records=True)

        got, want = run(None), run(all_rows_train_step)
        assert len(got.batches) == len(want.batches) > 2
        np.testing.assert_allclose(
            [b.loss for b in got.batches], [b.loss for b in want.batches],
            rtol=0, atol=1e-5,
        )
        assert [e.val_accuracy for e in got.epochs] == [
            e.val_accuracy for e in want.epochs
        ]
        assert got.accuracy == want.accuracy


class TestCutFirstIsBitExact:
    """Blocks written straight from the structure against the square
    normalised whole and cut by :func:`row_block` (``reference_blocks``):
    a short run — dropout on, so the mask stream is compared too — gives
    the same losses, records and accuracy bit for bit."""

    @pytest.mark.parametrize("sampler", SAMPLERS)
    @pytest.mark.parametrize("arch", ["gcn", "sage", "gat"])
    def test_training_equals_the_square_then_row_block(
        self, small_graph, arch, sampler, monkeypatch
    ):
        def run():
            backend = _backend(small_graph, arch, sampler, 2, dropout=0.5, epochs=2)
            return backend.train(keep_batch_records=True)

        got = run()
        monkeypatch.setattr(Propagation, "blocks", reference_blocks)
        want = run()
        assert len(got.batches) > 2
        # losses, records, epochs and accuracy: float reprs round-trip, nan too
        assert repr(got) == repr(want)


class TestRowsAllIsTheSquareCase:
    @pytest.mark.parametrize("sampler", SAMPLERS)
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("arch", ["gcn", "sage", "gat"])
    def test_reproduces_evaluate_exactly(self, small_graph, arch, num_layers, sampler):
        """``evaluate`` runs on the blocks of val ∪ test: its log-probs are
        the square full-graph forward's rows bit for bit.  ``rows=all`` is
        the square case itself."""
        backend = _backend(small_graph, arch, sampler, num_layers)
        backend.run_epoch(0)
        graph, model = backend.graph, backend.model
        x = Tensor(graph.features)
        every = Propagation.from_graph(graph, rows=np.arange(graph.num_nodes))
        blocks, inputs = every.blocks("row", num_layers)
        assert blocks == [every] * num_layers and inputs is None
        model.eval()
        with no_grad():
            square = model(x, Propagation.from_graph(graph)).data
            np.testing.assert_array_equal(model(x, every).data, square)

        seen = []
        forward = model.forward

        def recording(x, prop):
            seen.append((prop.rows, forward(x, prop)))
            return seen[-1][1]

        model.forward = recording
        val, test = backend.evaluate(backend.val_nodes, backend.test_nodes)
        ((rows, out),) = seen
        np.testing.assert_array_equal(
            rows, np.union1d(backend.val_nodes, backend.test_nodes)
        )
        np.testing.assert_array_equal(out.data, square[rows])
        for got, nodes in ((val, backend.val_nodes), (test, backend.test_nodes)):
            assert got == accuracy(square[nodes], graph.labels[nodes])


class TestBlocks:
    def test_the_cut_is_the_scipy_slice(self, medium_graph, rng):
        n = medium_graph.num_nodes
        matrix = normalized_adjacency(medium_graph.indptr, medium_graph.indices, n)
        rows = np.sort(rng.choice(n, 40, replace=False))
        block, self_index, columns = normalized_adjacency(
            medium_graph.indptr, medium_graph.indices, n, rows=rows
        )
        assert block.has_sorted_indices
        np.testing.assert_array_equal(
            block.toarray(), matrix[rows][:, columns].toarray()
        )
        np.testing.assert_array_equal(columns[self_index], rows)

    def test_the_cut_without_relabel_when_every_column_is_touched(self):
        indptr = np.array([0, 2, 4, 6])
        indices = np.array([1, 2, 0, 2, 0, 1])
        matrix = normalized_adjacency(indptr, indices, 3)
        block, self_index, columns = normalized_adjacency(
            indptr, indices, 3, rows=np.array([1])
        )
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

    def test_a_deeper_stack_cuts_only_the_layers_in_front(self, medium_graph, rng):
        rows = np.sort(rng.choice(medium_graph.num_nodes, 4, replace=False))
        prop = Propagation.from_graph(medium_graph, rows=rows)
        two, _ = prop.blocks("row", 2)
        assert prop._row is None  # the blocks are kept, not the square too
        with mock.patch.object(
            graphconv, "normalized_adjacency", wraps=normalized_adjacency
        ) as built:
            three, inputs = prop.blocks("row", 3)
            assert prop.blocks("row", 2)[0] == two
        # one cut, and no square
        ((_, kwargs),) = built.call_args_list
        assert kwargs["rows"] is not None and three[1:] == two
        assert three[0] is not prop and inputs.size < medium_graph.num_nodes

    def test_a_step_short_of_every_vertex_never_builds_the_square(self, small_graph):
        backend = _backend(small_graph, "sage", "sage", 2)
        batch = _first_batch(backend)
        built = []

        def recording(*args, **kwargs):
            built.append((kwargs.get("rows"), normalized_adjacency(*args, **kwargs)))
            return built[-1][1]

        with mock.patch.object(graphconv, "normalized_adjacency", recording):
            backend._train_step(batch)
        # both layers' rows stop short of the subgraph: no layer runs on the square
        assert [rows is not None for rows, _ in built] == [True, True]
        assert built[-1][0].size < batch.num_nodes

    def test_model_returns_only_the_rows_asked_for(self, small_graph):
        backend = _backend(small_graph, "sage", "sage", 2)
        batch = _first_batch(backend)
        prop = Propagation.from_graph(batch.subgraph, rows=batch.target_index)
        out = backend.model(Tensor(small_graph.features[batch.nodes]), prop)
        assert out.shape == (batch.num_targets, small_graph.num_classes)

    def test_batch_without_training_targets_reports_nan(self, small_graph):
        backend = _backend(small_graph, "sage", "sage", 2)
        batch = backend.sampler.sample(
            backend.graph, backend.test_nodes[:8], rng=backend._rng
        )
        assert np.isnan(backend._train_step(batch))


def normalised_entries(dataset: str = "reddit2", seed: int = 0) -> tuple[int, int]:
    """``(written, square)`` for the first batch of a ``pyg`` template run
    (sage sampler, hops ``[10, 5]``, 256 targets) on ``dataset``: the
    entries its training step normalises — the nnz of every matrix
    ``normalized_adjacency`` returns — and its subgraph's ``|E| + |V|``,
    the nnz of the square.  CI's analysis job prints both, so a return to
    normalising the square shows on a change without a timing."""
    task = TaskSpec(dataset=dataset, arch="sage", epochs=1, seed=seed)
    backend = RuntimeBackend(task, get_template("pyg"), graph=load_dataset(dataset))
    batch = _first_batch(backend)
    written = []

    def counting(*args, **kwargs):
        out = normalized_adjacency(*args, **kwargs)
        written.append((out if kwargs.get("rows") is None else out[0]).nnz)
        return out

    with mock.patch.object(graphconv, "normalized_adjacency", counting):
        backend._train_step(batch)
    return sum(written), batch.num_edges + batch.num_nodes


def test_a_fanout_batch_normalises_less_than_its_square():
    written, square = normalised_entries()
    assert 0 < written < square


class TestDropoutMasks:
    """Hidden-layer masks: GCN/SAGE draw the rows a layer produced, GAT the
    rows of the whole subgraph."""

    @staticmethod
    def _drawn_shapes(graph, arch, num_layers=3):
        backend = _backend(graph, arch, "sage", num_layers, dropout=0.5)
        batch = _first_batch(backend)
        drawn = []
        real = backend.model._rng.random

        class Recorder:
            def random(self, shape, **kwargs):
                drawn.append(tuple(shape))
                return real(shape, **kwargs)

        backend.model._rng = Recorder()
        backend._train_step(batch)
        return batch, drawn

    def test_gat_masks_cover_the_subgraph_and_sage_masks_the_block(self, small_graph):
        batch, gat = self._drawn_shapes(small_graph, "gat")
        assert gat == [(batch.num_nodes, 16)] * 2
        batch, sage = self._drawn_shapes(small_graph, "sage")
        assert [width for _, width in sage] == [16, 16]
        assert sage[1][0] < batch.num_nodes and sage[1][0] <= sage[0][0]

    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("arch", ["gcn", "sage", "gat"])
    def test_one_mask_per_hidden_layer(self, small_graph, arch, num_layers):
        """No mask after the output layer; GAT's always span the subgraph,
        GCN/SAGE's never grow from one layer to the next."""
        batch, drawn = self._drawn_shapes(small_graph, arch, num_layers)
        assert [width for _, width in drawn] == [16] * (num_layers - 1)
        rows = [count for count, _ in drawn]
        if arch == "gat":
            assert rows == [batch.num_nodes] * (num_layers - 1)
        else:
            assert rows == sorted(rows, reverse=True)
            assert all(count <= batch.num_nodes for count in rows)
            assert not rows or rows[-1] < batch.num_nodes


# --------------------------------------------------------------- properties
def _symmetric_prop(n: int, pairs: list[tuple[int, int]], rows=None) -> Propagation:
    """Undirected simple graph over ``n`` vertices (those no pair names stay
    isolated) as a propagation."""
    adj = np.zeros((n, n), dtype=bool)
    for u, v in pairs:
        if u % n != v % n:
            adj[u % n, v % n] = adj[v % n, u % n] = True
    indptr = np.concatenate([[0], np.cumsum(adj.sum(axis=1))])
    return Propagation(indptr, np.nonzero(adj)[1], n, rows=rows)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 24),
    pairs=st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23)), max_size=40),
    picked=st.sets(st.integers(0, 23), min_size=1),
    num_layers=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_gat_blocks_equal_all_rows_on_random_graphs(n, pairs, picked, num_layers, seed):
    """Outputs and every parameter gradient of block GAT equal all-rows GAT
    (dropout on: both read one mask stream); ``rows=all`` is ``rows=None``
    bit for bit; hidden layers shrink towards the targets; attention over
    every block row sums to one."""
    rows = np.array(sorted({v % n for v in picked}))
    rng = np.random.default_rng(seed)
    attention = []

    def recording_softmax(values, indptr):
        out = real_softmax(values, indptr)
        attention.append((out.data, indptr))
        return out

    real_softmax = graphconv.segment_softmax
    with default_dtype(np.float64):
        model = build_model(
            "gat", 5, 3, hidden_channels=6, heads=2, num_layers=num_layers, seed=seed
        )
        x = Tensor(rng.normal(size=(n, 5)))
        weights = rng.normal(size=(rows.size, 3))

        def grads(out: Tensor) -> list[np.ndarray]:
            for param in model.parameters():
                param.zero_grad()
            (out * weights).sum().backward()
            return [param.grad.copy() for param in model.parameters()]

        stream = model._rng.bit_generator
        start = stream.state
        want = all_rows_forward(model, x, _symmetric_prop(n, pairs))[rows]
        want_grads = grads(want)
        stream.state = start
        with mock.patch.object(graphconv, "segment_softmax", recording_softmax):
            got = model(x, _symmetric_prop(n, pairs, rows=rows))
        np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-10)
        for grad, want_grad in zip(grads(got), want_grads, strict=True):
            np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-10)

        model.eval()
        with no_grad():
            every = model(x, _symmetric_prop(n, pairs, rows=np.arange(n)))
            square = model(x, _symmetric_prop(n, pairs))
        np.testing.assert_array_equal(every.data, square.data)

    blocks, inputs = _symmetric_prop(n, pairs, rows=rows).blocks("row", num_layers)
    outs = [n if block.out_rows is None else block.out_rows.size for block in blocks]
    assert outs == sorted(outs, reverse=True) and outs[-1] in (rows.size, n)
    assert (n if inputs is None else inputs.size) >= outs[0]
    assert [indptr.size - 1 for _, indptr in attention] == outs
    for att, indptr in attention:
        np.testing.assert_allclose(np.add.reduceat(att, indptr[:-1]), 1.0, rtol=1e-12)


@pytest.mark.parametrize("arch", ["gcn", "sage"])
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 24),
    pairs=st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23)), max_size=40),
    picked=st.sets(st.integers(0, 23), min_size=1),
    num_layers=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_blocks_equal_all_rows_on_random_graphs(
    arch, n, pairs, picked, num_layers, seed
):
    """GCN/SAGE on blocks: outputs and every parameter gradient equal the
    all-rows forward's picked rows (dropout off: their masks cover only the
    rows a block produced); ``rows=all`` is ``rows=None`` bit for bit."""
    rows = np.array(sorted({v % n for v in picked}))
    rng = np.random.default_rng(seed)
    with default_dtype(np.float64):
        model = build_model(
            arch, 5, 3, hidden_channels=6, num_layers=num_layers,
            dropout_p=0.0, seed=seed,
        )
        x = Tensor(rng.normal(size=(n, 5)))
        weights = rng.normal(size=(rows.size, 3))

        def grads(out: Tensor) -> list[np.ndarray]:
            for param in model.parameters():
                param.zero_grad()
            (out * weights).sum().backward()
            return [param.grad.copy() for param in model.parameters()]

        want = all_rows_forward(model, x, _symmetric_prop(n, pairs))[rows]
        want_grads = grads(want)
        got = model(x, _symmetric_prop(n, pairs, rows=rows))
        np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-10)
        for grad, want_grad in zip(grads(got), want_grads, strict=True):
            np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-10)

        model.eval()
        with no_grad():
            every = model(x, _symmetric_prop(n, pairs, rows=np.arange(n)))
            square = model(x, _symmetric_prop(n, pairs))
        np.testing.assert_array_equal(every.data, square.data)


@st.composite
def _cut_cases(draw):
    """A structure over ``n + 1`` vertices — the last stores no entry — and
    the sorted, distinct rows to cut: one row, every row, the empty row or
    any set.  Canonical structures are simple symmetric graphs; the others
    keep their entries in drawn order, repeats and self-loops included."""
    n = draw(st.integers(1, 20))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=50)
    )
    if draw(st.booleans()):
        adj = np.zeros((n + 1, n + 1), dtype=bool)
        for u, v in pairs:
            if u != v:
                adj[u, v] = adj[v, u] = True
        indptr = np.concatenate([[0], np.cumsum(adj.sum(axis=1))])
        indices = np.nonzero(adj)[1]
    else:
        src = np.array([u for u, _ in pairs], dtype=np.int64)
        dst = np.array([v for _, v in pairs], dtype=np.int64)
        order = np.argsort(src, kind="stable")
        counts = np.bincount(src, minlength=n + 1)
        indptr, indices = np.concatenate([[0], np.cumsum(counts)]), dst[order]
    kind = draw(st.sampled_from(["one", "every", "empty", "any"]))
    if kind == "one":
        rows = [draw(st.integers(0, n))]
    elif kind == "every":
        rows = range(n + 1)
    elif kind == "empty":
        rows = [n]
    else:
        rows = sorted(draw(st.sets(st.integers(0, n), min_size=1)))
    return indptr, indices, n + 1, np.array(rows, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(
    case=_cut_cases(),
    mode=st.sampled_from(["sym", "row"]),
    dtype=st.sampled_from([np.float32, np.float64]),
    add_self_loops=st.booleans(),
)
def test_the_cut_equals_the_square_then_row_block(case, mode, dtype, add_self_loops):
    """``normalized_adjacency(..., rows=R)`` is ``row_block`` of the square
    byte for byte: data, indices, indptr (values, dtypes and shape),
    ``self_index`` and ``columns``."""
    indptr, indices, n, rows = case
    kwargs = dict(mode=mode, add_self_loops=add_self_loops, dtype=dtype)
    square = normalized_adjacency(indptr, indices, n, **kwargs)
    want = row_block(square, rows)
    got = normalized_adjacency(indptr, indices, n, rows=rows, **kwargs)

    def same(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    assert got[0].shape == want[0].shape
    for name in ("data", "indices", "indptr"):
        assert same(getattr(got[0], name), getattr(want[0], name)), name
    assert same(got[1], want[1])
    assert (got[2] is None) == (want[2] is None)
    assert got[2] is None or same(got[2], want[2])
