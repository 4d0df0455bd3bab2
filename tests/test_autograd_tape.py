"""The tape: backward consumes it, and it keeps only what backward reads.

``Tensor.backward`` frees each node's closure, parents and (non-leaf)
gradient once the closure has run, so a training step's memory falls during
backward instead of growing by a gradient per activation.  ``Linear`` with a
bias is one tape node and dropout keeps a boolean mask; the oracles below are
the forms they replaced, and the results must be bit-equal to them.

``step_memory_ratio`` is also printed by CI's job summary.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.autograd import Tensor, dropout, no_grad
from repro.autograd.tensor import _consumed
from repro.config.settings import TaskSpec, TrainingConfig
from repro.graphs.generators import powerlaw_community_graph
from repro.nn.linear import Linear
from repro.runtime.backend import RuntimeBackend

#: ``step_memory_ratio()`` read 1.71 when backward kept every gradient and
#: activation to the end of its walk, and 1.30 with the tape consumed.  (The
#: consumed tape alone read 1.22: the fused ``Linear`` and the boolean dropout
#: mask shrink the forward tape the ratio divides by.)
STEP_MEMORY_RATIO_BOUND = 1.45


def _backend(graph, arch: str, **config) -> RuntimeBackend:
    task = TaskSpec(dataset=graph.name, arch=arch, epochs=1, lr=0.02)
    return RuntimeBackend(task, TrainingConfig(**config), graph=graph)


def _first_batch(backend):
    targets = next(iter(backend.batches.epoch()))
    return backend.sampler.sample(backend.graph, targets, rng=backend._rng)


# ------------------------------------------------------------ consumed tape
class TestBackwardConsumesTheTape:
    @pytest.fixture()
    def recorded(self, monkeypatch):
        """Every tensor an op builds, kept alive so the test can inspect it."""
        made: list[Tensor] = []
        make = Tensor._make

        def recording(data, parents, backward):
            out = make(data, parents, backward)
            made.append(out)
            return out

        monkeypatch.setattr(Tensor, "_make", staticmethod(recording))
        return made

    @pytest.mark.parametrize("arch", ["gcn", "sage", "gat"])
    def test_a_training_step_keeps_only_the_parameters_gradients(
        self, small_graph, recorded, arch
    ):
        backend = _backend(small_graph, arch, batch_size=64, hidden_channels=16)
        backend._train_step(_first_batch(backend))
        taped = [t for t in recorded if t.requires_grad]
        assert taped
        for tensor in taped:  # the step's backward consumed every node
            assert tensor.grad is None
            assert tensor._backward is _consumed and tensor._parents == ()
        for param in backend.model.parameters():
            assert param.grad is not None and param.grad.shape == param.data.shape
            assert param._backward is None

        loss = taped[-1]
        with pytest.raises(RuntimeError, match="consumed"):
            loss.backward()
        with pytest.raises(RuntimeError, match="consumed"):
            (taped[0] * 2.0).sum().backward()


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

    def backward(grad):
        x._accumulate_fresh(grad * keep)

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
def step_memory_ratio() -> float:
    """Traced peak of one GCN ``_train_step`` (hidden 256, a 2.4k-node
    cluster batch) over the bytes live when its forward returns.

    Forward builds the tape; what backward and the optimizer add on top of
    it is what this ratio measures.
    """
    graph = powerlaw_community_graph(
        2400, num_classes=16, feature_dim=96, min_degree=6, max_degree=200, seed=5
    )
    backend = _backend(
        graph, "gcn", sampler="cluster", batch_size=2048, hidden_channels=256
    )
    batch = _first_batch(backend)
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
    return peak / forward_end[0]


def test_backward_and_the_optimizer_add_little_to_the_forward_tape():
    assert step_memory_ratio() < STEP_MEMORY_RATIO_BOUND
