"""Sparse / graph-structured differentiable operations.

GNN aggregation (Eq. 1 of the paper) reduces messages along edges.  The
primitives here cover every model we implement:

* :func:`gather` — pick rows of node embeddings;
* :func:`segment_softmax` — per-destination softmax for GAT attention;
* :func:`spmm` — CSR sparse × dense matmul (fixed topology, differentiable in
  the dense operand): GCN/SAGE aggregation, and GAT's per-edge attention
  logits through the matrices of :func:`edge_operators`;
* :func:`attention_spmm` — GAT's aggregation: one product per head with the
  attention as the CSR values, differentiable in both.  Every product
  either of them runs, forward and backward, is timed into one process-wide counter
  (:func:`spmm_stats`);
* :func:`normalized_adjacency` — the propagation matrix of a (sub)graph, or
  the rectangular share of it one layer multiplies by.
"""

from __future__ import annotations

import copy
import threading
import time

import numpy as np
import scipy.sparse as sp

from repro.autograd.tensor import Tensor, as_tensor
from repro.graphs.csr import row_slots

__all__ = [
    "gather",
    "segment_softmax",
    "spmm",
    "attention_spmm",
    "spmm_stats",
    "reset_spmm_stats",
    "normalized_adjacency",
    "edge_operators",
]

_SPMM_LOCK = threading.Lock()
#: ``[calls, seconds]`` of every product :func:`spmm` and
#: :func:`attention_spmm` ran
_SPMM_STATS = [0, 0.0]  # guarded-by: _SPMM_LOCK


def gather(x: Tensor, index: np.ndarray, *, unique: bool = False) -> Tensor:
    """Rows ``x[index]`` with scatter-add backward.

    ``unique=True`` promises ``index`` has no repeats, so the backward
    writes the rows instead of accumulating them (``np.add.at`` is ~20x
    slower than an assignment).
    """
    x = as_tensor(x)
    index = np.asarray(index, dtype=np.int64)
    out = x.data[index]
    node = x._node

    def backward(grad: np.ndarray) -> None:
        full = np.zeros(node.shape, dtype=node.dtype)
        if unique:
            full[index] = grad
        else:
            np.add.at(full, index, grad)
        node.accumulate_fresh(full)

    return Tensor._make(out, (x,), backward)


def segment_softmax(values: Tensor, indptr: np.ndarray) -> Tensor:
    """Softmax of ``values`` within each segment ``indptr[i]:indptr[i + 1]``
    of its rows.

    Used for GAT: the per-edge attention logits of a block are stored
    destination-major, so the edges sharing a destination are one contiguous
    run.  ``values`` may be 1-D (one head) or 2-D ``(num_edges, num_heads)``.
    ``reduceat`` answers an empty segment with the next one's first row, so
    one is an error (every block row holds at least its self-loop).
    """
    values = as_tensor(values)
    indptr = np.asarray(indptr, dtype=np.int64)
    data = values.data
    starts, counts = indptr[:-1], np.diff(indptr)
    if indptr[0] != 0 or indptr[-1] != data.shape[0] or (counts <= 0).any():
        raise ValueError("segments must be non-empty and cover every row of values")

    def per_row(ufunc: np.ufunc, rows: np.ndarray) -> np.ndarray:
        return np.repeat(ufunc.reduceat(rows, starts, axis=0), counts, axis=0)

    exp = np.exp(data - per_row(np.maximum, data))
    out = exp / per_row(np.add, exp)
    node = values._node

    def backward(grad: np.ndarray) -> None:
        # d softmax: s * (g - sum_j s_j g_j) within each segment.
        weighted = out * grad
        node.accumulate_fresh(weighted - out * per_row(np.add, weighted))

    return Tensor._make(out, (values,), backward)


def spmm(
    matrix: sp.csr_matrix,
    x: Tensor,
    *,
    symmetric: bool = False,
    transposed: sp.csr_matrix | None = None,
) -> Tensor:
    """``matrix @ x`` where ``matrix`` is a constant scipy CSR matrix.

    The backward pass needs ``matrix.T``; pass ``symmetric=True`` for
    symmetric propagation matrices (GCN's ``D^-1/2 Â D^-1/2``) or a cached
    ``transposed`` matrix to avoid re-transposing per call.  Otherwise the
    transpose is computed lazily on first backward and memoised.  ``matrix``
    may be rectangular: a layer's block maps ``n_in`` rows to ``n_out``.
    """
    x = as_tensor(x)
    out = _timed_product(matrix, x.data)
    node = x._node
    state: dict[str, sp.csr_matrix] = {}
    if symmetric:
        state["T"] = matrix
    elif transposed is not None:
        state["T"] = transposed

    def backward(grad: np.ndarray) -> None:
        if "T" not in state:
            state["T"] = matrix.T.tocsr()
        node.accumulate_fresh(_timed_product(state["T"], grad))

    return Tensor._make(np.asarray(out), (x,), backward)


def attention_spmm(
    h: Tensor, att: Tensor, edges: tuple[sp.csr_matrix, ...]
) -> Tensor:
    """``out[v, k] = Σ_{e ∈ row v} att[e, k] · h[src(e), k]``: multi-head
    attention aggregation without a per-edge message array.

    ``h`` is ``(n_in, heads, width)``, ``att`` ``(e, heads)`` with one row
    per edge of ``edges`` (:func:`edge_operators`), and the result
    ``(n_out, heads, width)``.  Each head is one product by the edges' CSR
    structure with ``att[:, k]`` as its values, so ``att · h`` is rounded
    once and summed in CSR row order — what gathering ``h[src]``, scaling
    it by ``att`` and scattering the products to their rows computes.  The
    backward multiplies by the transpose, whose rows list their edges in
    ``scatter_src`` order (ascending), so ``h``'s gradient is the per-edge
    one bit for bit too.  ``att``'s gradient ``grad[dst] · h[src]`` is one
    width contraction per head over a contiguous gather per side: no
    ``e × heads × width`` array and no reduction call per edge.
    """
    h, att = as_tensor(h), as_tensor(att)
    gather_src, scatter_src, gather_dst, scatter_dst = edges
    src, dst = gather_src.indices, gather_dst.indices
    n_in, heads, _ = h.shape
    n_out = scatter_dst.shape[0]
    # one container per direction; each head swaps in its values
    weights = _canonical_csr(att.data[:, 0], src, scatter_dst.indptr, (n_out, n_in))
    out = np.empty((n_out,) + h.shape[1:], dtype=h.data.dtype)
    for k in range(heads):
        weights.data = np.ascontiguousarray(att.data[:, k])
        out[:, k] = _timed_product(weights, np.ascontiguousarray(h.data[:, k]))
    # each operand's gradient reads the other
    h_node, att_node = h._node, att._node
    h_data = h.data if att_node is not None else None
    att_data = att.data if h_node is not None else None

    def backward(grad: np.ndarray) -> None:
        if h_node is not None:
            order = scatter_src.indices
            att_t = att_data[order]
            weights_t = _canonical_csr(
                att_t[:, 0], dst[order], scatter_src.indptr, (n_in, n_out)
            )
            grad_h = np.empty(h_node.shape, dtype=h_node.dtype)
            for k in range(heads):
                weights_t.data = np.ascontiguousarray(att_t[:, k])
                grad_h[:, k] = _timed_product(
                    weights_t, np.ascontiguousarray(grad[:, k])
                )
            h_node.accumulate_fresh(grad_h)
        if att_node is not None:
            # one width contraction per head: an e × width gather per side,
            # never an e × heads × width one, and no per-row sum call
            grad_att = np.empty(att_node.shape, dtype=att_node.dtype)
            for k in range(heads):
                grad_att[:, k] = np.einsum(
                    "ew,ew->e",
                    np.ascontiguousarray(grad[:, k]).take(dst, axis=0),
                    np.ascontiguousarray(h_data[:, k]).take(src, axis=0),
                )
            att_node.accumulate_fresh(grad_att)

    return Tensor._make(out, (h, att), backward)


def _timed_product(matrix: sp.csr_matrix, dense: np.ndarray) -> np.ndarray:
    start = time.perf_counter()
    out = matrix @ dense
    elapsed = time.perf_counter() - start
    with _SPMM_LOCK:
        _SPMM_STATS[0] += 1
        _SPMM_STATS[1] += elapsed
    return out


def spmm_stats() -> tuple[int, float]:
    """``(calls, seconds)`` of every sparse product :func:`spmm` and
    :func:`attention_spmm` have run in this process, forward and backward
    alike."""
    with _SPMM_LOCK:
        return _SPMM_STATS[0], _SPMM_STATS[1]


def reset_spmm_stats() -> None:
    """Zero the counter (test and bench isolation)."""
    with _SPMM_LOCK:
        _SPMM_STATS[:] = [0, 0.0]


def _canonical_csr(
    data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape: tuple[int, int]
) -> sp.csr_matrix:
    """A CSR matrix over arrays known to be sorted and duplicate-free.

    The constructor would re-validate the three arrays and copy the index
    arrays down to int32; the per-batch builders here have just produced
    them canonical, and the int64 they carry is what numpy gathers fastest
    with when the next block is cut from the result.  Even building an
    empty matrix to fill costs ~30 µs, more than cutting a small block, so
    the result is a shallow copy of an empty canonical one, given its shape
    as the constructor stores it.
    """
    out = copy.copy(_EMPTY_CANONICAL)
    out._shape = (int(shape[0]), int(shape[1]))
    out.data, out.indices, out.indptr = data, indices, indptr
    return out


_EMPTY_CANONICAL = sp.csr_matrix((0, 0))
_EMPTY_CANONICAL.has_sorted_indices = True
_EMPTY_CANONICAL.has_canonical_format = True


def normalized_adjacency(
    indptr: np.ndarray,
    indices: np.ndarray,
    num_nodes: int,
    *,
    mode: str = "sym",
    add_self_loops: bool = True,
    dtype=None,
    rows: np.ndarray | None = None,
) -> sp.csr_matrix | tuple[sp.csr_matrix, np.ndarray, np.ndarray | None]:
    """GCN-style normalised adjacency ``D^-1/2 (A + I) D^-1/2`` (or row ``D^-1 A``).

    ``mode='sym'`` gives the GCN propagation matrix; ``mode='row'`` gives the
    mean aggregator used by GraphSAGE.  Values use the autograd default dtype
    unless overridden, so spmm products do not silently upcast.

    The result is canonical CSR (sorted, duplicate-free) in both modes.  For
    the input every graph in this repo produces — sorted duplicate-free rows
    without self-loops — it is built in one pass: the diagonal is spliced
    into each row and the values are written straight from the degrees.
    Anything else (unsorted rows, repeated columns, stored self-loops, which
    ``A + I`` weighs 2) is first canonicalised by scipy.

    ``rows`` (sorted, distinct) asks for one layer's block instead of the
    square: ``A_norm[rows]`` restricted to the columns those rows touch,
    with ``rows`` counted as touched so a layer can always read its own
    previous embedding.  Only those rows are spliced and written, from the
    degrees of the whole structure, so every value is the square's bit for
    bit.  The result is then ``(block, self_index, columns)``: the position
    of each of ``rows`` among the block's columns, and the columns (sorted
    vertex ids), or ``None`` when every column is touched and nothing was
    relabelled.
    """
    from repro.autograd.tensor import get_default_dtype

    if mode not in ("sym", "row"):
        raise ValueError(f"unknown normalisation mode {mode!r}")
    dtype = np.dtype(dtype or get_default_dtype())
    n = int(num_nodes)
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    counts = np.diff(indptr)
    # Every stored entry weighs 1, so a row's weight is its stored length
    # (plus the loop) whatever the canonicalising below merges.
    deg = np.maximum(counts + bool(add_self_loops), 1).astype(dtype)
    scale = (1.0 / (np.sqrt(deg) if mode == "sym" else deg)).astype(dtype)
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
    ids = np.arange(n, dtype=np.int64) if rows is None else rows

    def select(indptr, indices):
        """Row pointer, entries, row lengths and slots of the selected rows."""
        if rows is None:
            return indptr, indices, np.diff(indptr), None
        flat, bounds = row_slots(indptr, rows)
        return bounds, indices[flat], np.diff(bounds), flat

    bounds, cols, lengths, _ = select(indptr, indices)
    owner = np.repeat(ids, lengths)
    ascending = cols[1:] > cols[:-1]
    starts = bounds[1:-1]  # a column may drop where the next row starts
    ascending[starts[(starts > 0) & (starts < cols.size)] - 1] = True
    weights = None
    if not ascending.all() or (add_self_loops and (cols == owner).any()):
        # canonicalise the whole structure once, then select from it
        adj = sp.csr_matrix(
            (np.ones(indices.size, dtype=dtype), indices, indptr), shape=(n, n)
        )
        adj.sum_duplicates()
        if add_self_loops:
            adj = adj + sp.eye(n, format="csr", dtype=dtype)
        canonical = adj.indptr.astype(np.int64), adj.indices.astype(np.int64)
        bounds, cols, lengths, flat = select(*canonical)
        weights = adj.data if flat is None else adj.data[flat]
    elif add_self_loops:
        # Each row grows by one slot: an entry moves right by one slot per
        # earlier selected row, plus one when it sits right of its own
        # diagonal.  Filling every new row with its own id first leaves
        # exactly the diagonal behind once the old entries are written over it.
        slot = np.arange(cols.size, dtype=np.int64)
        if rows is None:
            slot += owner
        else:
            slot += np.repeat(np.arange(ids.size, dtype=np.int64), lengths)
        slot += cols > owner
        lengths = lengths + 1
        spliced = np.repeat(ids, lengths)
        spliced[slot] = cols
        bounds, cols = bounds + np.arange(ids.size + 1, dtype=np.int64), spliced

    data = np.repeat(scale if rows is None else scale[rows], lengths)
    if weights is not None:
        data *= weights  # (d_i * a_ij) * d_j: the order a scipy product rounds in
    if mode == "sym":
        data *= scale[cols]
    if rows is None:
        return _canonical_csr(data, cols, bounds, (n, n))

    touched = np.zeros(n, dtype=bool)
    touched[cols] = True
    touched[rows] = True
    columns = np.flatnonzero(touched)
    self_index = rows
    if columns.size == n:
        columns = None
    else:
        # the relabel map is only read where ``touched`` holds: never filled
        lookup = np.empty(n, dtype=np.int64)
        lookup[columns] = np.arange(columns.size, dtype=np.int64)
        cols, self_index = lookup.take(cols), lookup.take(rows)
        n = columns.size
    return _canonical_csr(data, cols, bounds, (rows.size, n)), self_index, columns


def edge_operators(matrix: sp.csr_matrix) -> tuple[sp.csr_matrix, ...]:
    """``(gather_src, scatter_src, gather_dst, scatter_dst)`` over the stored
    entries of a canonical ``matrix``, one edge per entry in CSR order:
    destination = row, source = column.

    ``gather_src @ h`` (``(e, n_in)``) picks per-edge source rows,
    ``gather_dst @ a`` (``(e, n_out)``) per-edge destination rows, and
    ``scatter_dst @ m`` sums edge values per destination; each ``scatter_*``
    is its ``gather_*``'s transpose, so spmm backward passes reuse them.
    Edges are destination-major, so ``scatter_dst`` is ``matrix``'s own
    ``indptr`` over ``arange(e)`` — the contiguous segments
    :func:`segment_softmax` reduces — and only ``gather_src`` is transposed;
    each of its rows lists its edge ids in ascending order, the order
    :func:`attention_spmm`'s backward sums them in.
    """
    n_out, n_in = matrix.shape
    e = matrix.indices.size
    ones = np.ones(e, dtype=matrix.dtype)
    edge = np.arange(e + 1, dtype=np.int64)
    dst = np.repeat(np.arange(n_out, dtype=np.int64), np.diff(matrix.indptr))
    gather_src = _canonical_csr(ones, matrix.indices, edge, (e, n_in))
    gather_dst = _canonical_csr(ones, dst, edge, (e, n_out))
    scatter_dst = _canonical_csr(ones, edge[:-1], matrix.indptr, (n_out, e))
    return gather_src, gather_src.T.tocsr(), gather_dst, scatter_dst
