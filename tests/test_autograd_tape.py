"""The tape: backward consumes it, and it keeps only what backward reads.

The tape is apart from the tensors: a node holds its parents' nodes and a
closure that keeps the arrays it reads, never a parent tensor.  So an
activation no closure reads dies with the forward, and ``Tensor.backward``
frees each node's closure, parents and (non-leaf) gradient once the closure
has run, so a training step's memory falls during backward instead of
growing by a gradient per activation.  ``Linear`` with a bias is one tape
node and dropout keeps a boolean mask; the oracles below are the forms they
replaced, and the results must be bit-equal to them.

``step_memory_units``, ``carried_entries`` and ``gat_step_memory`` are also
printed by CI's job summary.
"""

from __future__ import annotations

import inspect
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest

from repro.autograd import Tensor, dropout, no_grad, sparse
from repro.autograd.tensor import _consumed
from repro.config.settings import TaskSpec, TrainingConfig
from repro.config.templates import TEMPLATES
from repro.graphs.datasets import load_dataset
from repro.graphs.generators import powerlaw_community_graph
from repro.nn.linear import Linear
from repro.runtime.backend import RuntimeBackend

#: ``step_memory_units()`` of one GCN step, in ``n × hidden`` float32
#: activations: (traced peak, live when the forward returns).  It read
#: (6.90, 5.29) while a tape node was the tensor it output — every
#: activation lived until backward reached its consumers — and read
#: (4.58, 2.26) with the tape apart from the tensors.  It reads (4.57, 2.65)
#: since the output layer (256 -> 16) transforms before it aggregates: the
#: ``x @ W`` product keeps its input, the hidden layer's every row, where
#: ``(A·x) W`` kept ``A·x``, only the rows the loss reads.
STEP_PEAK_UNITS_BOUND = 5.0
FORWARD_END_UNITS_BOUND = 2.75
#: ``gat_step_memory()`` in MiB, and the nodes of the batch it steps on.  It
#: read 8.86 MiB while the α terms were per-row sums of ``h·a`` and the
#: attention gradient a product then a per-row sum.
GAT_STEP_PEAK_MIB_BOUND = 8.86
GAT_STEP_NODES = 3269


def _backend(graph, arch: str, **config) -> RuntimeBackend:
    task = TaskSpec(dataset=graph.name, arch=arch, epochs=1, lr=0.02)
    return RuntimeBackend(task, TrainingConfig(**config), graph=graph)


def _first_batch(backend):
    targets = next(iter(backend.batches.epoch()))
    return backend.sampler.sample(backend.graph, targets, rng=backend._rng)


def _op(backward) -> str:
    """The op a backward closure belongs to: ``relu``, ``Tensor.__add__``..."""
    return backward.__qualname__.split(".<locals>")[0]


def _tensors_held(fn, depth: int = 0) -> list[Tensor]:
    """Tensors a closure holds, through the functions and containers it keeps."""
    found = []
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        values = value if isinstance(value, (list, tuple)) else [value]
        for item in values:
            if isinstance(item, Tensor):
                found.append(item)
            elif inspect.isfunction(item) and depth < 3:
                found += _tensors_held(item, depth + 1)
    return found


# ------------------------------------------------------------ consumed tape
class TestBackwardConsumesTheTape:
    @pytest.fixture()
    def recorded(self, monkeypatch):
        """Every tensor an op builds, kept alive so the test can inspect it,
        and the tensors each taped op's closure holds."""
        made: list[Tensor] = []
        held: dict[str, list[Tensor]] = {}
        make = Tensor._make

        def recording(data, parents, backward):
            out = make(data, parents, backward)
            made.append(out)
            if out.requires_grad:
                held.setdefault(_op(backward), []).extend(_tensors_held(backward))
            return out

        monkeypatch.setattr(Tensor, "_make", staticmethod(recording))
        return made, held

    @pytest.mark.parametrize("arch", ["gcn", "sage", "gat"])
    def test_a_training_step_keeps_only_the_parameters_gradients(
        self, small_graph, recorded, arch
    ):
        backend = _backend(small_graph, arch, batch_size=64, hidden_channels=16)
        backend._train_step(_first_batch(backend))
        taped = [t for t in recorded[0] if t.requires_grad]
        assert taped
        for tensor in taped:  # the step's backward consumed every node
            assert tensor.grad is None
            assert tensor._node.backward is _consumed and tensor._node.parents == ()
        for param in backend.model.parameters():
            assert param.grad is not None and param.grad.shape == param.data.shape
            assert param._node.backward is None

        loss = taped[-1]
        with pytest.raises(RuntimeError, match="consumed"):
            loss.backward()
        with pytest.raises(RuntimeError, match="consumed"):
            (taped[0] * 2.0).sum().backward()

    @pytest.mark.parametrize("arch", ["gcn", "sage", "gat"])
    def test_no_closure_holds_a_tensor(self, small_graph, recorded, arch):
        """Closures reach their parents through nodes: a closure holding a
        tensor would keep its data alive whether or not it reads it."""
        backend = _backend(small_graph, arch, batch_size=64, hidden_channels=16)
        backend._train_step(_first_batch(backend))
        held = recorded[1]
        assert held
        assert {op: len(tensors) for op, tensors in held.items() if tensors} == {}


class TestBackwardWithoutATape:
    def test_a_loss_built_under_no_grad_raises(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            loss = (w * 2.0).sum()
        with pytest.raises(RuntimeError, match="no tape"):
            loss.backward()
        assert w.grad is None

    def test_a_scalar_leaf_that_requires_grad_is_seeded(self):
        t = Tensor(3.0, requires_grad=True)
        t.backward()
        t.backward()
        assert t.grad == 2.0


class TestBackwardSeedShape:
    """The seed must have the output's shape, as in torch: numpy would
    otherwise reshape or broadcast it into a wrong gradient."""

    @pytest.mark.parametrize("seed_shape", [(6,), (1, 3), (3, 2), (2, 3, 1)])
    def test_a_seed_of_another_shape_raises(self, seed_shape):
        w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = w * 2.0
        with pytest.raises(ValueError, match="seed has shape"):
            out.backward(np.ones(seed_shape))
        assert w.grad is None

    def test_a_seed_of_the_output_shape_is_taken(self):
        w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        seed = np.arange(6.0).reshape(2, 3)
        (w * 2.0).backward(seed)
        np.testing.assert_array_equal(w.grad, 2.0 * seed)


# ------------------------------------------------------------ tape liveness
#: Per architecture, the activations of the hidden layer (op, occurrence
#: among the step's taped ops) that no backward closure reads — they must die
#: as the forward moves past them — and activations a closure does read,
#: with the op whose node frees them when backward has run it.  The GCN/SAGE
#: output layer (16 -> 5 classes) transforms before it aggregates: the
#: hidden dropout output is read by its ``x @ W`` product, and neither that
#: product nor its aggregation is read at all.
NEVER_READ = {
    "gcn": [
        ("_affine", 0),
        ("relu", 0),
        ("Tensor.__matmul__", 0),  # x W of the output layer
        ("spmm", 0),  # A·(x W)
    ],
    "sage": [
        ("_affine", 0),  # own
        ("Tensor.__matmul__", 0),  # neigh
        ("Tensor.__add__", 0),  # own + neigh
        ("relu", 0),
        ("Tensor.__matmul__", 1),  # x W_neigh of the output layer
        ("spmm", 0),  # A·(x W_neigh)
    ],
    "gat": [
        ("Tensor.__mul__", 0),  # W·a_s: in × heads × width
        ("Tensor.__matmul__", 1),  # α_src = x @ (W·a_s)
        ("Tensor.__matmul__", 2),  # α_dst
        ("attention_spmm", 0),
        ("Tensor.__add__", 1),  # + bias: the pre-elu sum
        ("elu", 0),
    ],
}
READ_UNTIL = {
    "gcn": {("dropout", 0): ("Tensor.__matmul__", 0)},
    "sage": {
        ("gather", 0): ("_affine", 1),
        ("dropout", 0): ("Tensor.__matmul__", 1),
    },
    # the hidden layer's output is read by the second layer's h product
    # (``__matmul__`` 3) and α_src product, its self rows by the α_dst one
    "gat": {
        ("dropout", 0): ("Tensor.__matmul__", 4),
        ("Tensor.sum", 2): ("Tensor.__matmul__", 4),  # W·a_s
        ("gather", 0): ("Tensor.__matmul__", 5),
    },
}


class TestTapeLiveness:
    @pytest.mark.parametrize("arch", ["gcn", "sage", "gat"])
    def test_activations_live_exactly_as_long_as_a_closure_reads_them(
        self, small_graph, monkeypatch, arch
    ):
        outputs: dict[tuple[str, int], weakref.ref] = {}
        # which watched outputs were alive as each node's closure started
        runs: list[tuple[tuple[str, int], dict]] = []
        make = Tensor._make

        def alive() -> dict:
            return {key: ref() is not None for key, ref in outputs.items()}

        def recording(data, parents, backward):
            op = _op(backward)
            key = (op, sum(k[0] == op for k in outputs))

            def traced(grad):
                runs.append((key, alive()))
                backward(grad)

            out = make(data, parents, traced)
            if out.requires_grad:
                outputs[key] = weakref.ref(out.data)
            return out

        monkeypatch.setattr(Tensor, "_make", staticmethod(recording))
        backend = _backend(small_graph, arch, batch_size=64, hidden_channels=16)
        forward, at_forward_end = backend.model.forward, {}

        def watched_forward(*args):
            out = forward(*args)
            at_forward_end.update(alive())
            return out

        backend.model.forward = watched_forward
        backend._train_step(_first_batch(backend))

        assert {k for k in NEVER_READ[arch] if at_forward_end[k]} == set()
        ran = [key for key, _ in runs]
        for array, reader in READ_UNTIL[arch].items():
            assert at_forward_end[array], array
            step = ran.index(reader)
            assert runs[step][1][array], f"{array} died before {reader} ran"
            if step + 1 < len(runs):
                assert not runs[step + 1][1][array], f"{array} outlived {reader}"
        assert not any(alive().values())


# ---------------------------------------------------------- bit-equal oracles
def linear_two_nodes(x: Tensor, layer: Linear) -> Tensor:
    """``Linear`` before it was one tape node: a matmul node, then an add."""
    return x @ layer.weight + layer.bias


class TestFusedLinearIsBitEqual:
    @pytest.mark.parametrize("x_requires_grad", [False, True])
    @pytest.mark.parametrize("shape", [(37, 19, 23), (1, 5, 3), (64, 96, 256)])
    def test_output_and_gradients(self, shape, x_requires_grad):
        n, d_in, d_out = shape
        rng = np.random.default_rng(n)
        data = rng.standard_normal((n, d_in)).astype(np.float32)
        upstream = rng.standard_normal((n, d_out)).astype(np.float32)
        bias = rng.standard_normal(d_out).astype(np.float32)
        got, want = [], []
        for build, sink in ((lambda x, lin: lin(x), got), (linear_two_nodes, want)):
            layer = Linear(d_in, d_out, rng=np.random.default_rng(1))
            layer.bias.data = bias.copy()
            x = Tensor(data, requires_grad=x_requires_grad)
            out = build(x, layer)
            out.backward(upstream)
            sink.extend([out.data, x.grad, layer.weight.grad, layer.bias.grad])
        assert got[0].dtype == np.float32
        assert (got[1] is None) == (not x_requires_grad)
        for a, b in zip(got, want, strict=True):
            assert (a is None and b is None) or np.array_equal(a, b)


def dropout_float_keep(x: Tensor, p: float, rng, within=None) -> Tensor:
    """Dropout before the tape kept a boolean mask: a float32 ``keep``."""
    if within is None:
        draw = rng.random(x.data.shape, dtype=np.float32)
    else:
        draw = rng.random((within[0], *x.data.shape[1:]), dtype=np.float32)
        draw = draw if within[1] is None else draw[within[1]]
    keep = (draw >= p).astype(x.data.dtype)
    keep /= 1.0 - p
    node = x._node

    def backward(grad):
        node.accumulate_fresh(grad * keep)

    return Tensor._make(x.data * keep, (x,), backward)


class TestBooleanDropoutMaskIsBitEqual:
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.7])
    @pytest.mark.parametrize(
        "within", [None, (50, None), (50, np.array([1, 4, 9, 20, 33, 41, 49]))]
    )
    def test_output_gradient_and_stream(self, p, within):
        rows = 50 if within is None or within[1] is None else within[1].size
        data, upstream = (
            np.random.default_rng(seed).standard_normal((rows, 12)).astype(np.float32)
            for seed in (3, 4)
        )
        results = []
        for form in (
            lambda x, rng: dropout(x, p, rng=rng, within=within),
            lambda x, rng: dropout_float_keep(x, p, rng, within),
        ):
            rng = np.random.default_rng(11)
            x = Tensor(data, requires_grad=True)
            out = form(x, rng)
            out.backward(upstream)
            results.append((out.data, x.grad, rng.random()))
        (out, grad, after), (want_out, want_grad, want_after) = results
        assert np.array_equal(out, want_out) and np.array_equal(grad, want_grad)
        assert after == want_after


# ------------------------------------------------------------ step memory
def _traced_step(backend, batch) -> tuple[int, int]:
    """Traced peak of ``backend._train_step(batch)`` and the bytes live when
    its forward returns."""
    model, forward_end = backend.model, []
    forward = model.forward

    def traced_forward(*args):
        out = forward(*args)
        forward_end.append(tracemalloc.get_traced_memory()[0])
        return out

    model.forward = traced_forward
    tracemalloc.start()
    try:
        backend._train_step(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        model.forward = forward
    return peak, forward_end[0]


#: hidden width of the ``train_dense``-shaped GCN step below
DENSE_HIDDEN = 256


def _dense_gcn_backend() -> RuntimeBackend:
    """A GCN shaped like the ledger's ``train_dense`` (96 features, hidden
    256, cluster batches) on a 2.4k-node graph with 16 classes."""
    graph = powerlaw_community_graph(
        2400, num_classes=16, feature_dim=96, min_degree=6, max_degree=200, seed=5
    )
    return _backend(
        graph, "gcn", sampler="cluster", batch_size=2048, hidden_channels=DENSE_HIDDEN
    )


def step_memory_units() -> tuple[float, float]:
    """Traced peak of one GCN ``_train_step`` (hidden 256, a 2.4k-node
    cluster batch) and the bytes live when its forward returns, each in
    units of one ``n × hidden`` float32 activation.

    The forward-end figure is the tape; the peak is that plus what backward
    and the optimizer add on top of it.
    """
    backend = _dense_gcn_backend()
    peak, forward_end = _traced_step(backend, _first_batch(backend))
    unit = backend.graph.num_nodes * DENSE_HIDDEN * np.dtype(np.float32).itemsize
    return peak / unit, forward_end / unit


def dense_step_products() -> list[tuple[int, int]]:
    """``(nnz, width)`` of every sparse product, forward and backward, of
    the GCN ``_train_step`` :func:`step_memory_units` measures."""
    backend = _dense_gcn_backend()
    batch = _first_batch(backend)
    products = []
    timed = sparse._timed_product

    def recording(matrix, dense):
        products.append((matrix.nnz, dense.shape[1]))
        return timed(matrix, dense)

    with mock.patch.object(sparse, "_timed_product", recording):
        backend._train_step(batch)
    return products


def carried_entries() -> int:
    """Σ ``nnz × width`` over :func:`dense_step_products`: the columns the
    step's sparse products carry, each once per stored entry."""
    return sum(nnz * width for nnz, width in dense_step_products())


def gat_step_memory() -> float:
    """Traced peak, in MiB, of one GAT ``_train_step`` on the first
    ogbn-arxiv batch of the ``pyg`` template (3 269 nodes)."""
    graph = load_dataset("ogbn-arxiv")
    task = TaskSpec(dataset=graph.name, arch="gat", epochs=1)
    backend = RuntimeBackend(task, TEMPLATES["pyg"], graph=graph)
    batch = _first_batch(backend)
    assert batch.subgraph.num_nodes == GAT_STEP_NODES
    return _traced_step(backend, batch)[0] / 2**20


def test_a_gcn_step_holds_few_activations_at_forward_end_and_peak():
    peak, forward_end = step_memory_units()
    assert forward_end < FORWARD_END_UNITS_BOUND
    assert peak < STEP_PEAK_UNITS_BOUND


def test_a_dense_gcn_step_aggregates_its_output_layer_at_the_class_width():
    """The first layer (96 -> 256, constant input) aggregates its features
    once, with no backward product; the output layer (256 -> 16) transforms
    first, so its products forward and backward carry 16 columns, not 256."""
    assert [width for _, width in dense_step_products()] == [96, 16, 16]


def test_a_gat_step_peaks_no_higher_than_before_the_attention_reorder():
    assert gat_step_memory() <= GAT_STEP_PEAK_MIB_BOUND
