"""Gradient checks and behaviour tests for activations, losses, sparse ops."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import (
    Tensor,
    concat,
    cross_entropy,
    default_dtype,
    dropout,
    elu,
    exp,
    gather,
    leaky_relu,
    log,
    log_softmax,
    nll_loss,
    normalized_adjacency,
    relu,
    segment_softmax,
    sigmoid,
    spmm,
    tanh,
)
from repro.autograd.sparse import attention_spmm, edge_operators
from tests.test_autograd_tensor import check_gradient


class TestActivationGradients:
    def test_relu(self):
        check_gradient(lambda t: relu(t), (4, 3), seed=1)

    def test_leaky_relu(self):
        check_gradient(lambda t: leaky_relu(t, 0.1), (4, 3), seed=2)

    def test_leaky_relu_gradient_stays_in_float32(self):
        """The slope multiplies a float32 gradient as a float32: no float64
        product rounded back, which differs in the last bit."""
        rng = np.random.default_rng(0)
        data, upstream = rng.standard_normal((2, 64, 8)).astype(np.float32)
        x = Tensor(data, requires_grad=True)
        leaky_relu(x, 0.2).backward(upstream)
        want = np.where(data > 0, upstream, upstream * np.float32(0.2))
        assert x.grad.dtype == np.float32 and np.array_equal(x.grad, want)

    def test_elu(self):
        check_gradient(lambda t: elu(t), (4, 3), seed=3)

    def test_exp_log(self):
        check_gradient(lambda t: log(exp(t) + 1.0), (5,), seed=4)

    def test_sigmoid(self):
        check_gradient(lambda t: sigmoid(t), (6,), seed=5)

    def test_tanh(self):
        check_gradient(lambda t: tanh(t), (6,), seed=6)

    def test_log_softmax(self):
        check_gradient(lambda t: log_softmax(t, axis=-1), (4, 5), seed=7)

    def test_concat(self):
        check_gradient(
            lambda t: concat([t * 2.0, t + 1.0], axis=1), (3, 2), seed=8
        )


class TestLosses:
    def test_nll_matches_manual(self):
        logp = np.log(np.array([[0.7, 0.3], [0.2, 0.8]]))
        targets = np.array([0, 1])
        loss = nll_loss(Tensor(logp), targets)
        expected = -(np.log(0.7) + np.log(0.8)) / 2
        assert loss.item() == pytest.approx(expected, rel=1e-5)

    def test_cross_entropy_gradient(self):
        targets = np.array([0, 2, 1])
        check_gradient(lambda t: cross_entropy(t, targets), (3, 4), seed=9)

    def test_nll_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            nll_loss(Tensor(np.zeros((2, 3))), np.array([[0, 1]]))

    def test_perfect_prediction_loss_near_zero(self):
        logits = Tensor(np.array([[50.0, 0.0], [0.0, 50.0]]))
        loss = cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-6


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(np.ones((10, 10)))
        out = dropout(x, 0.5, training=False)
        assert out is x

    def test_zero_p_is_identity(self):
        x = Tensor(np.ones(5))
        assert dropout(x, 0.0) is x

    def test_scaling_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        out = dropout(x, 0.4, rng=rng)
        assert out.numpy().mean() == pytest.approx(1.0, abs=0.02)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            dropout(Tensor([1.0]), 1.0)

    def test_gradient_masks_match_forward(self):
        rng = np.random.default_rng(1)
        x = Tensor(np.ones((8, 8)), requires_grad=True)
        out = dropout(x, 0.5, rng=rng)
        out.sum().backward()
        dropped = out.numpy() == 0
        assert np.all(x.grad[dropped] == 0)
        assert np.all(x.grad[~dropped] == 2.0)


class TestSparseOps:
    def test_gather_forward(self):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        out = gather(x, np.array([2, 0]))
        np.testing.assert_allclose(out.numpy(), [[4.0, 5.0], [0.0, 1.0]])

    def test_gather_gradient(self):
        idx = np.array([0, 1, 1, 2])
        check_gradient(lambda t: gather(t, idx) * 2.0, (3, 2), seed=10)

    def test_segment_softmax_sums_to_one(self):
        vals = Tensor(np.random.default_rng(2).normal(size=(6, 2)))
        indptr = np.array([0, 3, 5, 6])
        out = segment_softmax(vals, indptr).numpy()
        for lo, hi in zip(indptr[:-1], indptr[1:], strict=True):
            np.testing.assert_allclose(out[lo:hi].sum(axis=0), 1.0, rtol=1e-5)

    def test_segment_softmax_is_softmax_per_segment(self):
        rng = np.random.default_rng(4)
        indptr = np.array([0, 1, 5, 7, 12])
        for shape in [(12,), (12, 3)]:
            vals = rng.normal(size=shape) * 5
            out = segment_softmax(Tensor(vals), indptr).numpy()
            for lo, hi in zip(indptr[:-1], indptr[1:], strict=True):
                want = np.exp(vals[lo:hi] - vals[lo:hi].max(axis=0))
                np.testing.assert_allclose(out[lo:hi], want / want.sum(axis=0), rtol=1e-5)

    def test_segment_softmax_gradient(self):
        indptr = np.array([0, 2, 5])
        check_gradient(
            lambda t: segment_softmax(t, indptr) * np.arange(10).reshape(5, 2),
            (5, 2),
            seed=12,
        )

    @pytest.mark.parametrize(
        "indptr", [[0, 2, 2, 5], [0, 2, 4], [1, 3, 5], [0, 3, 2, 5]]
    )
    def test_segment_softmax_rejects_empty_or_partial_segments(self, indptr):
        # ``reduceat`` would answer an empty segment with its neighbour's row
        with pytest.raises(ValueError, match="non-empty"):
            segment_softmax(Tensor(np.ones((5, 2))), np.array(indptr))


class TestSpmm:
    def test_forward_matches_dense(self):
        adj = normalized_adjacency(
            np.array([0, 1, 2]), np.array([1, 0]), 2, dtype=np.float64
        )
        x = np.array([[1.0], [2.0]])
        out = spmm(adj, Tensor(x))
        np.testing.assert_allclose(out.numpy(), adj.toarray() @ x, rtol=1e-6)

    def test_gradient(self):
        adj = normalized_adjacency(
            np.array([0, 2, 3, 5]),
            np.array([1, 2, 0, 0, 1]),
            3,
            dtype=np.float64,
        )
        check_gradient(lambda t: spmm(adj, t), (3, 4), seed=13)

    def test_gradient_with_cached_transpose(self):
        adj = normalized_adjacency(
            np.array([0, 2, 3, 5]),
            np.array([1, 2, 0, 0, 1]),
            3,
            mode="row",
            dtype=np.float64,
        )
        adj_t = adj.T.tocsr()
        check_gradient(
            lambda t: spmm(adj, t, transposed=adj_t), (3, 2), seed=14
        )


class TestAttentionSpmm:
    @staticmethod
    def _edges(block: bool):
        adj = normalized_adjacency(
            np.array([0, 2, 3, 5, 6]),
            np.array([1, 2, 0, 0, 1, 0]),
            4,
            mode="row",
            dtype=np.float64,
            rows=np.array([0, 2]) if block else None,
        )
        return edge_operators(adj[0] if block else adj)

    def test_forward_matches_dense(self):
        edges = self._edges(block=True)
        gather_src, _, _, scatter_dst = edges
        rng = np.random.default_rng(15)
        h = rng.normal(size=(gather_src.shape[1], 2, 3))
        att = rng.random((gather_src.shape[0], 2))
        with default_dtype(np.float64):
            out = attention_spmm(Tensor(h), Tensor(att), edges).numpy()
        for k in range(2):
            dense = (scatter_dst.toarray() * att[:, k]) @ gather_src.toarray()
            np.testing.assert_allclose(out[:, k], dense @ h[:, k], rtol=1e-12)

    @pytest.mark.parametrize("block", [False, True])
    def test_gradient_of_h(self, block):
        edges = self._edges(block)
        n_in, e = edges[0].shape[1], edges[0].shape[0]
        with default_dtype(np.float64):
            att = Tensor(np.random.default_rng(16).random((e, 3)))
        check_gradient(
            lambda t: attention_spmm(t, att, edges) ** 2, (n_in, 3, 2), seed=17
        )

    @pytest.mark.parametrize("block", [False, True])
    def test_gradient_of_att(self, block):
        edges = self._edges(block)
        n_in, e = edges[0].shape[1], edges[0].shape[0]
        with default_dtype(np.float64):
            h = Tensor(np.random.default_rng(18).normal(size=(n_in, 3, 2)))
        check_gradient(
            lambda t: attention_spmm(h, t, edges) ** 2, (e, 3), seed=19
        )


class TestNormalizedAdjacency:
    def test_sym_is_symmetric(self):
        # Symmetric input adjacency (the CSRGraph contract): 0-1, 0-2, 1-2.
        adj = normalized_adjacency(
            np.array([0, 2, 4, 6]),
            np.array([1, 2, 0, 2, 0, 1]),
            3,
            dtype=np.float64,
        )
        dense = adj.toarray()
        np.testing.assert_allclose(dense, dense.T, rtol=1e-12)

    def test_row_rows_sum_to_one(self):
        adj = normalized_adjacency(
            np.array([0, 2, 3, 5]),
            np.array([1, 2, 0, 0, 1]),
            3,
            mode="row",
            dtype=np.float64,
        )
        np.testing.assert_allclose(adj.toarray().sum(axis=1), 1.0, rtol=1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            normalized_adjacency(np.array([0, 0]), np.array([]), 1, mode="col")


def scipy_normalized_adjacency(
    indptr, indices, num_nodes, *, mode="sym", add_self_loops=True, dtype=np.float32
):
    """The five-construction scipy composition ``normalized_adjacency`` was
    until PR 13 (``coo -> csr``, ``+ eye``, ``sum``, two ``diags @``), kept
    as the oracle its one-pass splice must equal entry for entry."""
    src = np.repeat(np.arange(num_nodes, dtype=np.int64), np.diff(indptr))
    adj = sp.csr_matrix(
        (np.ones(len(indices), dtype=dtype), (src, indices)),
        shape=(num_nodes, num_nodes),
    )
    if add_self_loops:
        adj = adj + sp.eye(num_nodes, format="csr", dtype=dtype)
    deg = np.maximum(np.asarray(adj.sum(axis=1)).ravel(), 1.0)
    if mode == "sym":
        d_inv_sqrt = sp.diags((1.0 / np.sqrt(deg)).astype(dtype))
        return (d_inv_sqrt @ adj @ d_inv_sqrt).tocsr()
    return (sp.diags((1.0 / deg).astype(dtype)) @ adj).tocsr()


def _csr_arrays(num_nodes, rows, cols):
    """CSR arrays holding ``(rows, cols)`` in exactly the order given per row."""
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_nodes), out=indptr[1:])
    return indptr, cols[order]


#: name -> (num_nodes, indptr, indices); every edge case the splice pins
_ADJACENCY_CASES = {
    "triangle": (3, *_csr_arrays(3, [0, 0, 1, 1, 2, 2], [1, 2, 0, 2, 0, 1])),
    "isolated-vertices": (6, *_csr_arrays(6, [1, 4], [4, 1])),
    "isolated-tail": (4, *_csr_arrays(4, [0, 1], [1, 0])),
    "no-edges": (3, np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int64)),
    "empty-graph": (0, np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)),
    "stored-self-loops": (
        4,
        *_csr_arrays(4, [0, 0, 1, 1, 2, 3, 3], [0, 1, 0, 1, 2, 1, 3]),
    ),
    "unsorted-rows": (4, *_csr_arrays(4, [0, 0, 0, 1, 2, 3, 3], [3, 1, 2, 0, 0, 2, 0])),
    "repeated-columns": (3, *_csr_arrays(3, [0, 0, 0, 1, 2], [1, 1, 2, 0, 0])),
    "directed": (4, *_csr_arrays(4, [0, 0, 2, 3], [1, 3, 1, 0])),
}


class TestNormalizedAdjacencyAgainstScipyOracle:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("add_self_loops", [True, False])
    @pytest.mark.parametrize("mode", ["sym", "row"])
    @pytest.mark.parametrize("case", sorted(_ADJACENCY_CASES))
    def test_exactly_equal_and_canonical(self, case, mode, add_self_loops, dtype):
        n, indptr, indices = _ADJACENCY_CASES[case]
        kwargs = dict(mode=mode, add_self_loops=add_self_loops, dtype=dtype)
        got = normalized_adjacency(indptr, indices, n, **kwargs)
        want = scipy_normalized_adjacency(indptr, indices, n, **kwargs)
        assert got.shape == (n, n) and got.dtype == dtype
        np.testing.assert_array_equal(got.toarray(), want.toarray())
        # canonical CSR whatever the flags claim: sorted, duplicate-free
        assert got.has_sorted_indices and got.has_canonical_format
        for row in range(n):
            cols = got.indices[got.indptr[row] : got.indptr[row + 1]]
            assert np.all(np.diff(cols) > 0)
        assert got.nnz == np.count_nonzero(want.toarray())

    def test_stored_self_loop_weighs_two(self):
        n, indptr, indices = _ADJACENCY_CASES["stored-self-loops"]
        row = normalized_adjacency(indptr, indices, n, mode="row", dtype=np.float64)
        # vertex 2 holds only its loop: A + I gives it weight 2 of degree 2
        assert row[2, 2] == 1.0
        # vertex 0: loop (2) + edge to 1 (1) over degree 3
        np.testing.assert_allclose(row[0].toarray().ravel(), [2 / 3, 1 / 3, 0, 0])

    def test_random_graphs_match_in_both_modes(self, medium_graph):
        g = medium_graph
        for mode in ("sym", "row"):
            got = normalized_adjacency(g.indptr, g.indices, g.num_nodes, mode=mode)
            want = scipy_normalized_adjacency(g.indptr, g.indices, g.num_nodes, mode=mode)
            assert (got != want).nnz == 0
            assert got.nnz == want.nnz == g.num_edges + g.num_nodes

    def test_spmm_accepts_the_result(self):
        n, indptr, indices = _ADJACENCY_CASES["isolated-vertices"]
        adj = normalized_adjacency(indptr, indices, n, dtype=np.float64)
        x = np.arange(n * 2, dtype=np.float64).reshape(n, 2)
        np.testing.assert_allclose(
            spmm(adj, Tensor(x)).numpy(), adj.toarray() @ x, rtol=1e-12
        )
