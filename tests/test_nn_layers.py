"""GNN layer and model tests: shapes, gradients, training behaviour."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import Tensor, default_dtype, leaky_relu, nll_loss, no_grad
from repro.autograd.sparse import (
    attention_spmm,
    edge_operators,
    segment_softmax,
    spmm,
)
from repro.nn import (
    GATConv,
    GCNConv,
    GNN,
    Linear,
    Propagation,
    SAGEConv,
    build_model,
)
from repro.nn import graphconv
from repro.nn.models import count_parameters
from tests.test_autograd_tensor import check_gradient


def _line_prop(n: int = 5) -> Propagation:
    """Path graph 0-1-...-n-1 as a Propagation."""
    src = np.concatenate([np.arange(n - 1), np.arange(1, n)])
    dst = np.concatenate([np.arange(1, n), np.arange(n - 1)])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return Propagation(indptr, dst, n)


class TestLinear:
    def test_shapes(self):
        lin = Linear(4, 3, rng=np.random.default_rng(0))
        out = lin(Tensor(np.ones((2, 4))))
        assert out.shape == (2, 3)

    def test_no_bias(self):
        lin = Linear(4, 3, bias=False, rng=np.random.default_rng(0))
        assert lin.bias is None
        assert sum(1 for _ in lin.parameters()) == 1

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_gradient(self):
        with default_dtype(np.float64):
            lin = Linear(3, 2, rng=np.random.default_rng(1))
            check_gradient(lambda t: lin(t), (4, 3), seed=1)


def _weighted_messages(messages: Tensor, att: Tensor) -> Tensor:
    """``messages[e, k] · att[e, k]`` for ``(e, heads, width)`` messages and
    ``(e, heads)`` attention.  The attention gradient is one width
    contraction per head over contiguous ``e × width`` operands, the
    contraction :func:`attention_spmm` forms from its two gathers."""
    data, weights = messages.data, att.data
    m_node, a_node = messages._node, att._node

    def backward(grad: np.ndarray) -> None:
        if m_node is not None:
            m_node.accumulate_fresh(grad * weights[:, :, None])
        if a_node is not None:
            grad_att = np.empty(a_node.shape, dtype=a_node.dtype)
            for k in range(weights.shape[1]):
                grad_att[:, k] = np.einsum(
                    "ew,ew->e",
                    np.ascontiguousarray(grad[:, k]),
                    np.ascontiguousarray(data[:, k]),
                )
            a_node.accumulate_fresh(grad_att)

    return Tensor._make(data * weights[:, :, None], (messages, att), backward)


def _per_edge_gat(layer: GATConv, x: Tensor, prop) -> Tensor:
    """GATConv with the per-edge message arrays: gather every edge's source
    row, scale it by the edge's attention, sum the products per row.  The
    attention itself comes from the layer's own α path.  The layer must
    compute exactly this."""
    gather_src, scatter_src, gather_dst, scatter_dst = prop.edges()
    (e, n_in), n_out = gather_src.shape, scatter_dst.shape[0]
    heads, width = layer.heads, layer.heads * layer.out_features
    h = (x @ layer.weight).reshape(n_in, heads, layer.out_features)
    alpha_src, alpha_dst = layer.attention_terms(x, prop)
    logits = leaky_relu(
        spmm(gather_src, alpha_src, transposed=scatter_src)
        + spmm(gather_dst, alpha_dst, transposed=scatter_dst),
        layer.negative_slope,
    )
    att = segment_softmax(logits, scatter_dst.indptr)
    messages = spmm(
        gather_src, h.reshape(n_in, width), transposed=scatter_src
    ).reshape(e, heads, layer.out_features)
    weighted = _weighted_messages(messages, att).reshape(e, width)
    out = spmm(scatter_dst, weighted, transposed=gather_dst)
    out = out.reshape(n_out, heads, layer.out_features)
    if layer.concat_heads:
        return out.reshape(n_out, width) + layer.bias
    return out.mean(axis=1) + layer.bias


class TestGATAggregation:
    """``attention_spmm`` is the per-edge formulation, bit for bit, in the
    float32 the models train in: output and every gradient."""

    @staticmethod
    def _run(forward, layer, x0, upstream):
        layer.zero_grad()
        x = Tensor(x0, requires_grad=True)
        out = forward(layer, x)
        (out * Tensor(upstream)).sum().backward()
        grads = [x.grad] + [
            getattr(layer, name).grad
            for name in ("weight", "att_src", "att_dst", "bias")
        ]
        return out.numpy(), grads

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("concat", [True, False])
    @pytest.mark.parametrize("shape", ["square", "block"])
    def test_equals_the_per_edge_messages(self, small_graph, shape, concat, heads):
        prop = Propagation.from_graph(small_graph)
        if shape == "block":
            prop.rows = np.arange(0, small_graph.num_nodes, 7)
            (prop,), inputs = prop.blocks("row", 1)
            n_in, n_out = inputs.size, prop.out_rows.size
        else:
            n_in = n_out = small_graph.num_nodes
        rng = np.random.default_rng(heads)
        layer = GATConv(
            small_graph.feature_dim, 5, heads=heads, concat_heads=concat, rng=rng
        )
        x0 = rng.normal(size=(n_in, small_graph.feature_dim)).astype(np.float32)
        upstream = rng.normal(size=(n_out, 5 * heads if concat else 5))
        out, grads = self._run(lambda m, x: m(x, prop), layer, x0, upstream)
        want, want_grads = self._run(
            lambda m, x: _per_edge_gat(m, x, prop), layer, x0, upstream
        )
        assert out.dtype == np.float32
        assert np.array_equal(out, want)
        for grad, expected in zip(grads, want_grads):
            assert grad.dtype == np.float32 and np.array_equal(grad, expected)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("width", [1, 7, 16, 40])
    def test_alpha_and_attention_gradient_are_float32_roundings(
        self, small_graph, width, heads
    ):
        """The α terms (``x @ (W·a)``) and the attention gradient (one width
        contraction per head) lie within the float32 rounding bound
        ``γ_n Σ|terms|`` of their float64 values, ``n`` the length of the
        longest sum: reassociation, never a lost term."""
        prop = Propagation.from_graph(small_graph)
        prop.rows = np.arange(0, small_graph.num_nodes, 7)
        (prop,), _ = prop.blocks("row", 1)
        gather_src, _, gather_dst, scatter_dst = prop.edges()
        src, dst = gather_src.indices, gather_dst.indices
        n_in, n_out, d_in = gather_src.shape[1], scatter_dst.shape[0], 128
        rng = np.random.default_rng(width * heads)
        layer = GATConv(d_in, width, heads=heads, rng=rng)
        x = rng.normal(size=(n_in, d_in)).astype(np.float32)

        def gamma(n: int) -> float:
            u = np.finfo(np.float32).eps / 2
            return n * u / (1 - n * u)

        alpha_src, alpha_dst = layer.attention_terms(Tensor(x), prop)
        weight = layer.weight.data.astype(np.float64).reshape(d_in, heads, width)
        for got, rows, att in (
            (alpha_src, x, layer.att_src),
            (alpha_dst, x[prop.self_index], layer.att_dst),
        ):
            att = att.data.astype(np.float64)
            exact = np.einsum("ni,ikw,kw->nk", rows.astype(np.float64), weight, att)
            terms = np.einsum("ni,ikw,kw->nk", np.abs(rows), np.abs(weight), np.abs(att))
            got = got.numpy()
            assert got.dtype == np.float32
            assert (np.abs(got - exact) <= gamma(d_in + width + 1) * terms).all()

        h = rng.normal(size=(n_in, heads, width)).astype(np.float32)
        att = rng.random(size=(src.size, heads)).astype(np.float32)
        upstream = rng.normal(size=(n_out, heads, width)).astype(np.float32)
        att_t = Tensor(att, requires_grad=True)
        attention_spmm(Tensor(h, requires_grad=True), att_t, prop.edges()).backward(
            upstream
        )
        g, v = upstream[dst].astype(np.float64), h[src].astype(np.float64)
        exact = np.einsum("ekw,ekw->ek", g, v)
        terms = np.einsum("ekw,ekw->ek", np.abs(g), np.abs(v))
        assert att_t.grad.dtype == np.float32
        assert (np.abs(att_t.grad - exact) <= gamma(width) * terms).all()


def _aggregated_widths(monkeypatch) -> list[tuple[int, int]]:
    """``(rows, width)`` of every product ``GCNConv``/``SAGEConv`` hand to
    ``spmm`` from now on: the width is the order's witness — ``d_in`` when
    the layer aggregates first, ``d_out`` when it transforms first."""
    seen = []

    def recording(matrix, x, **kwargs):
        seen.append((matrix.shape[0], x.shape[1]))
        return spmm(matrix, x, **kwargs)

    monkeypatch.setattr(graphconv, "spmm", recording)
    return seen


class TestAggregationOrder:
    """A GCN/SAGE layer transforms before it aggregates when that at least
    halves the width and adds no backward product; otherwise it aggregates
    first.  Both orders are the one product up to float32 reassociation."""

    @pytest.mark.parametrize(
        "d_in, d_out, x_input, aggregated",
        [
            (256, 41, "learnt", 41),  # train_dense's output layer
            (96, 256, "learnt", 96),  # widening
            (96, 32, "constant", 96),  # a first layer's step: no new backward
            (96, 32, "no_grad", 32),  # the same layer in evaluate
            (64, 41, "learnt", 64),  # fan-out SAGE output: narrows by < 2
        ],
    )
    @pytest.mark.parametrize("cls", [GCNConv, SAGEConv])
    def test_the_rule_picks_from_widths_and_grad_mode(
        self, monkeypatch, cls, d_in, d_out, x_input, aggregated
    ):
        prop = _line_prop(9)
        layer = cls(d_in, d_out, rng=np.random.default_rng(0))
        data = np.random.default_rng(1).normal(size=(9, d_in))
        x = Tensor(data, requires_grad=x_input == "learnt")
        widths = _aggregated_widths(monkeypatch)
        with no_grad() if x_input == "no_grad" else contextlib.nullcontext():
            out = layer(x, prop)
        assert out.shape == (9, d_out)
        assert widths == [(9, aggregated)]

    @pytest.mark.parametrize("cls", [GCNConv, SAGEConv])
    def test_both_orders_are_float32_roundings(self, small_graph, monkeypatch, cls):
        """On a block, each order lies within the float32 rounding bound
        ``γ_n Σ|terms|`` of the float64 value, ``n`` the depth of the
        deepest sum plus the products and the bias on its path — and the two
        differ: they reassociate, neither loses a term."""
        prop = Propagation.from_graph(small_graph)
        prop.rows = np.arange(0, small_graph.num_nodes, 7)
        mode = "sym" if cls is GCNConv else "row"
        (block,), inputs = prop.blocks(mode, 1)
        d_in, d_out = 64, 16
        rng = np.random.default_rng(5)
        layer = cls(d_in, d_out, rng=rng)
        x = rng.normal(size=(inputs.size, d_in)).astype(np.float32)
        widths = _aggregated_widths(monkeypatch)
        transformed = layer(Tensor(x, requires_grad=True), block).numpy()
        aggregated = layer(Tensor(x), block).numpy()
        assert [width for _, width in widths] == [d_out, d_in]

        def gamma(n: int) -> float:
            u = np.finfo(np.float32).eps / 2
            return n * u / (1 - n * u)

        def exact(absolute: bool) -> np.ndarray:
            f = np.abs if absolute else (lambda a: a)
            a64 = f(block.matrix.astype(np.float64))
            x64 = f(x.astype(np.float64))
            if cls is GCNConv:
                lins = [(a64, layer.lin)]
            else:
                own = f(sp.eye(x.shape[0], format="csr")[block.self_index])
                lins = [(own, layer.lin_self), (a64, layer.lin_neigh)]
            out = 0.0
            for matrix, lin in lins:
                out = out + matrix @ (x64 @ f(lin.weight.data.astype(np.float64)))
                if lin.bias is not None:
                    out = out + f(lin.bias.data.astype(np.float64))
            return out

        depth = np.diff(block.matrix.indptr).max() + d_in + 4
        want, terms = exact(False), exact(True)
        for got in (transformed, aggregated):
            assert got.dtype == np.float32
            assert (np.abs(got - want) <= gamma(depth) * terms).all()
        assert not np.array_equal(transformed, aggregated)

    @pytest.mark.parametrize(
        "grad, hidden, aggregated",
        # grad on: the output layer (16 -> 5) reads a learnt input; grad
        # off: the first layer (16 -> 8) transforms its features too
        [(True, 16, [16, 5]), (False, 8, [8, 8])],
    )
    @pytest.mark.parametrize("arch", ["gcn", "sage"])
    def test_blocks_equal_the_square_bit_for_bit(
        self, small_graph, monkeypatch, arch, grad, hidden, aggregated
    ):
        model = build_model(
            arch, small_graph.feature_dim, small_graph.num_classes,
            hidden_channels=hidden, seed=0,
        )
        model.eval()
        n = small_graph.num_nodes
        rows = np.arange(0, n, 37)
        x = Tensor(small_graph.features)
        widths = _aggregated_widths(monkeypatch)
        with contextlib.nullcontext() if grad else no_grad():
            square = model(x, Propagation.from_graph(small_graph)).numpy()
            block = model(x, Propagation.from_graph(small_graph, rows=rows))
        assert block.requires_grad == grad
        # the square and then the blocks, each layer at the width it picked
        assert [width for _, width in widths] == aggregated * 2
        assert widths[-1][0] == rows.size
        assert np.array_equal(block.numpy(), square[rows])


class TestConvLayers:
    @pytest.mark.parametrize("cls", [GCNConv, SAGEConv])
    def test_conv_shapes(self, cls):
        prop = _line_prop(6)
        layer = cls(4, 3, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((6, 4))), prop)
        assert out.shape == (6, 3)

    def test_gat_shapes_concat(self):
        prop = _line_prop(6)
        layer = GATConv(4, 3, heads=2, concat_heads=True, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((6, 4))), prop)
        assert out.shape == (6, 6)

    def test_gat_shapes_mean(self):
        prop = _line_prop(6)
        layer = GATConv(4, 3, heads=2, concat_heads=False, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((6, 4))), prop)
        assert out.shape == (6, 3)

    def test_gat_rejects_bad_heads(self):
        with pytest.raises(ValueError):
            GATConv(4, 3, heads=0)

    @pytest.mark.parametrize("cls", [GCNConv, SAGEConv])
    def test_conv_gradient(self, cls):
        with default_dtype(np.float64):
            prop = _line_prop(5)
            layer = cls(3, 2, rng=np.random.default_rng(2))
            check_gradient(lambda t: layer(t, prop), (5, 3), seed=2)

    def test_gat_gradient(self):
        with default_dtype(np.float64):
            prop = _line_prop(5)
            layer = GATConv(3, 2, heads=2, rng=np.random.default_rng(3))
            check_gradient(lambda t: layer(t, prop), (5, 3), seed=3, atol=1e-4)

    def test_gcn_respects_isolated_nodes(self):
        # Node 2 isolated: output = normalised self-loop only, finite.
        indptr = np.array([0, 1, 2, 2])
        indices = np.array([1, 0])
        prop = Propagation(indptr, indices, 3)
        layer = GCNConv(2, 2, rng=np.random.default_rng(4))
        out = layer(Tensor(np.ones((3, 2))), prop)
        assert np.all(np.isfinite(out.numpy()))


class TestPropagation:
    def test_edge_operators_shapes(self):
        prop = _line_prop(4)
        gather_src, scatter_src, gather_dst, scatter_dst = prop.edges()
        e = prop.indices.size + 4  # + self loops
        assert gather_src.shape == gather_dst.shape == (e, 4)
        assert scatter_src.shape == scatter_dst.shape == (4, e)
        # one edge per stored entry of ``row``, destination-major
        dst, src = prop.row.nonzero()
        np.testing.assert_array_equal(gather_src.indices, src)
        np.testing.assert_array_equal(gather_dst.indices, dst)
        assert scatter_dst.indptr is prop.row.indptr

    def test_edge_operators_of_a_block(self):
        prop = _line_prop(6)
        prop.rows = np.array([0, 3])
        (block,), inputs = prop.blocks("row", 1)
        np.testing.assert_array_equal(inputs, [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(block.out_rows, [0, 3])
        gather_src, scatter_src, gather_dst, scatter_dst = block.edges()
        e = block.matrix.nnz  # rows 0 and 3 of the path, loops included
        assert e == 2 + 3
        assert gather_src.shape == (e, 5) and gather_dst.shape == (e, 2)
        for gather, scatter in ((gather_src, scatter_src), (gather_dst, scatter_dst)):
            np.testing.assert_array_equal(scatter.toarray(), gather.toarray().T)
            np.testing.assert_array_equal(gather.toarray().sum(axis=1), 1)
        np.testing.assert_array_equal(gather_src.indices, [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(gather_dst.indices, [0, 0, 1, 1, 1])

    def test_scatter_src_lists_each_source_row_in_edge_order(self, small_graph):
        """The transposed attention product sums a source row's edges in
        ``scatter_src`` order: ascending edge ids, as the per-edge scatter
        summed them."""
        prop = Propagation.from_graph(small_graph)
        prop.rows = np.arange(0, small_graph.num_nodes, 5)
        (block,), _ = prop.blocks("row", 1)
        for matrix in (Propagation.from_graph(small_graph).row, block.matrix):
            gather_src, scatter_src, _, _ = edge_operators(matrix)
            source_major = np.argsort(gather_src.indices, kind="stable")
            np.testing.assert_array_equal(scatter_src.indices, source_major)

    def test_edge_operators_cached_on_the_square_propagation(self):
        prop = _line_prop(4)
        assert prop.edges() is prop.edges()

    def test_gat_attends_over_the_entries_of_its_own_row(self):
        """Aggregation is at the CSR row for every architecture: on a
        deliberately directed propagation (row 0 stores 1 and 2, rows 1 and
        2 store nothing) GAT vertex 0 mixes all three and vertices 1, 2 see
        only their self-loop — the rows SAGE's mean reads."""
        prop = Propagation(np.array([0, 2, 2, 2]), np.array([1, 2]), 3)
        x = np.random.default_rng(0).normal(size=(3, 4))
        with default_dtype(np.float64):
            gat = GATConv(4, 2, heads=2, rng=np.random.default_rng(1))
            out = gat(Tensor(x), prop).numpy()
            h = x @ gat.weight.data
            np.testing.assert_allclose(out[1:], h[1:], rtol=1e-12)  # softmax of one
            heads = h.reshape(3, 2, 2)
            logits = (heads * gat.att_src.data).sum(axis=2) + (
                heads[0] * gat.att_dst.data
            ).sum(axis=1)
            logits = np.where(logits > 0, logits, 0.2 * logits)
            att = np.exp(logits) / np.exp(logits).sum(axis=0)
            want = (att[:, :, None] * heads).sum(axis=0).reshape(4)
            np.testing.assert_allclose(out[0], want, rtol=1e-12)
        np.testing.assert_array_equal(prop.row.toarray() > 0, [[1, 1, 1], [0, 1, 0], [0, 0, 1]])

    def test_row_t_is_transpose(self):
        prop = _line_prop(4)
        np.testing.assert_allclose(
            prop.row_t.toarray(), prop.row.toarray().T, rtol=1e-6
        )


class TestGNNModels:
    @pytest.mark.parametrize("arch", ["gcn", "sage", "gat"])
    def test_forward_is_log_distribution(self, arch):
        prop = _line_prop(8)
        model = build_model(arch, 4, 3, hidden_channels=8, heads=2, seed=0)
        model.eval()
        with no_grad():
            out = model(Tensor(np.random.default_rng(0).normal(size=(8, 4))), prop)
        probs = np.exp(out.numpy())
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-4)

    def test_unknown_arch_rejected(self):
        with pytest.raises(ValueError):
            build_model("transformer", 4, 3)

    def test_bad_layers_rejected(self):
        with pytest.raises(ValueError):
            GNN("sage", 4, 8, 3, num_layers=0)

    @pytest.mark.parametrize("arch", ["gcn", "sage", "gat"])
    def test_count_parameters_matches_build(self, arch):
        model = build_model(arch, 12, 7, hidden_channels=16, heads=4, seed=0)
        counted = count_parameters(arch, 12, 7, hidden_channels=16, heads=4)
        assert model.num_parameters() == counted

    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("hidden", [2, 16, 64])
    @pytest.mark.parametrize("heads", [1, 3, 4, 8])
    def test_gat_runs_at_any_heads_and_width(self, heads, hidden, num_layers):
        """A hidden layer emits ``heads * (hidden // heads)`` channels (one a
        head at least) and the next layer is built for that, whether or not
        ``heads`` divides ``hidden_channels``."""
        knobs = dict(hidden_channels=hidden, heads=heads, num_layers=num_layers)
        model = build_model("gat", 8, 3, **knobs, seed=0)
        assert count_parameters("gat", 8, 3, **knobs) == model.num_parameters()
        x = Tensor(np.random.default_rng(0).normal(size=(6, 8)))
        out = model(x, _line_prop(6))
        assert out.shape == (6, 3)
        nll_loss(out, np.arange(6) % 3).backward()
        assert all(np.isfinite(p.grad).all() for p in model.parameters())

    def test_three_layer_count_matches(self):
        model = build_model("sage", 10, 4, hidden_channels=8, num_layers=3)
        counted = count_parameters("sage", 10, 4, hidden_channels=8, num_layers=3)
        assert model.num_parameters() == counted

    def test_training_reduces_loss(self, small_graph):
        from repro.nn import Adam

        prop = Propagation.from_graph(small_graph)
        model = build_model(
            "sage", small_graph.feature_dim, small_graph.num_classes,
            hidden_channels=16, seed=0,
        )
        opt = Adam(model.parameters(), lr=0.02)
        x = Tensor(small_graph.features)
        first = None
        for _ in range(12):
            model.train()
            opt.zero_grad()
            loss = nll_loss(model(x, prop), small_graph.labels)
            loss.backward()
            opt.step()
            first = first if first is not None else loss.item()
        assert loss.item() < first * 0.7

    def test_state_dict_roundtrip(self):
        model = build_model("gcn", 4, 3, hidden_channels=8, seed=0)
        state = model.state_dict()
        model2 = build_model("gcn", 4, 3, hidden_channels=8, seed=99)
        model2.load_state_dict(state)
        for p1, p2 in zip(model.parameters(), model2.parameters(), strict=True):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_load_state_dict_rejects_mismatch(self):
        model = build_model("gcn", 4, 3, hidden_channels=8)
        other = build_model("gcn", 4, 3, hidden_channels=16)
        with pytest.raises(ValueError):
            model.load_state_dict(other.state_dict())

    def test_train_eval_mode_propagates(self):
        model = build_model("sage", 4, 3)
        model.eval()
        assert all(not m.training for _, m in model.named_modules())
        model.train()
        assert all(m.training for _, m in model.named_modules())
