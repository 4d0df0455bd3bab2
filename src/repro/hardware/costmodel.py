"""Analytic time cost model — the white-box half of Eqs. 4-8.

Each ``f_*`` of the paper becomes an explicit function of the mini-batch
quantities the runtime measures (``|V_i|``, ``|E_i|``, cache hit counts) and
the platform specification.  ``t_compute`` uses a roofline: a batch is
compute-bound or memory-bound depending on the model's arithmetic intensity,
which is what makes GAT-on-arxiv nearly cache-insensitive (device-side bound)
while SAGE-on-products is transfer-bound — the Table 1 shape.

The same functions serve two roles:

* driven by *measured* per-batch quantities → the simulated ground truth the
  runtime backend reports;
* driven by *predicted* quantities (E[|V_i|], predicted hit rate) → the
  white-box prior inside the gray-box estimator.

Every batch quantity (vertex, edge, miss and update counts, ``hidden_dim``,
``heads``) may be a number or an array with one entry per candidate: the
backend charges one measured batch at a time, the estimator prices a whole
candidate set in one call, and both run the same arithmetic in the same
order, so an array entry carries exactly the bits the scalar call returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import HardwareError
from repro.hardware.specs import Platform

__all__ = [
    "ModelCosting",
    "model_costing",
    "t_sample",
    "t_transfer",
    "t_replace",
    "t_compute",
    "batch_time",
    "FLOAT_BYTES",
]

FLOAT_BYTES = 4  # features/activations are fp32 on device
#: forward + backward traffic relative to forward-only
_BACKWARD_FACTOR = 3.0
#: edge-parallel reductions hit DRAM with scattered accesses; effective
#: traffic is several times the nominal payload.  Attention (per-edge
#: softmax over irregular segments) is markedly worse than sum/mean spmm —
#: this is what makes GAT device-bound and hence cache-insensitive (Table 1).
_SCATTER_INEFFICIENCY = {"gcn": 2.0, "sage": 2.0, "gat": 6.0}


def any_negative(*counts) -> bool:
    """Whether a count — or an entry of an array of counts — is below zero."""
    return any(
        below if isinstance(below, bool) else below.any()
        for below in (count < 0 for count in counts)
    )


def larger(a, b):
    """``max(a, b)``; entry by entry when either is an array.

    The backend's per-batch numbers stay plain python floats (and cost no
    numpy call per batch); an array entry gets the same bits either way.
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


@dataclass(frozen=True)
class ModelCosting:
    """Per-batch FLOP and DRAM-byte counts of one training step."""

    flops: float | np.ndarray
    bytes_moved: float | np.ndarray
    kernel_launches: int


def model_costing(
    arch: str,
    num_nodes: int,
    num_edges: int,
    *,
    in_dim: int,
    hidden_dim: int,
    out_dim: int,
    num_layers: int,
    heads: int = 4,
) -> ModelCosting:
    """FLOPs / bytes / kernels of one forward+backward over a mini-batch.

    Aggregate traffic scales with ``|E_i| * d`` (edge-parallel reduction);
    combine compute scales with ``|V_i| * d_in * d_out`` (GEMM).  GAT adds
    per-edge attention terms with ``heads`` multiplicity.
    """
    if arch not in ("gcn", "sage", "gat"):
        raise HardwareError(f"unknown architecture {arch!r}")
    v, e = 1.0 * num_nodes, 1.0 * (num_edges + num_nodes)  # + self loops
    dims_in = [in_dim] + [hidden_dim] * (num_layers - 1)
    dims_out = [hidden_dim] * (num_layers - 1) + [out_dim]
    scatter = _SCATTER_INEFFICIENCY[arch]

    flops = 0.0
    bytes_moved = 0.0
    kernels = 0
    for layer, (d_in, d_out) in enumerate(zip(dims_in, dims_out, strict=True)):
        if arch == "gat":
            if layer > 0:
                d_in = d_in * heads  # concatenated heads widen hidden inputs
            # Projection GEMM to heads*d_out, per-edge attention (dot, softmax,
            # weighting) and edge-parallel aggregation per head.
            flops += 2.0 * v * d_in * d_out * heads
            flops += e * heads * (4.0 * d_out + 10.0)
            bytes_moved += FLOAT_BYTES * (
                v * (d_in + heads * d_out)
                + scatter * e * heads * (d_out + 2.0)
            )
            kernels += 6
        else:
            mults = 2.0 if arch == "sage" else 1.0  # SAGE: self + neighbour GEMMs
            flops += 2.0 * v * d_in * d_out * mults
            flops += 2.0 * e * d_in  # aggregation adds
            bytes_moved += FLOAT_BYTES * (
                scatter * e * d_in + v * (d_in + d_out) * mults
            )
            kernels += 3
    # Loss + optimizer step are v*out_dim-scale; folded into a small constant.
    flops += 6.0 * v * out_dim
    bytes_moved += FLOAT_BYTES * 2.0 * v * out_dim
    kernels += 2
    return ModelCosting(
        flops=flops * _BACKWARD_FACTOR,
        bytes_moved=bytes_moved * _BACKWARD_FACTOR,
        kernel_launches=kernels,
    )


def t_sample(
    num_expanded: int, platform: Platform, *, edges_touched: int = 0
) -> float:
    """Eq. 7: host sampling time for ``|V_i| - |B0|`` expanded vertices.

    ``edges_touched`` accounts for scanning adjacency of frontier vertices
    (each scanned edge costs a fraction of a vertex expansion).
    """
    if any_negative(num_expanded):
        raise HardwareError("expanded vertex count cannot be negative")
    host = platform.host
    effective = num_expanded + 0.1 * larger(edges_touched, 0)
    parallel_rate = host.sample_rate_vps * min(host.cores, 8) ** 0.5
    return host.sample_overhead_s + effective / parallel_rate


def t_transfer(num_missed: int, n_attr: int, platform: Platform) -> float:
    """Eq. 6: move ``n_attr * |V_i| * (1 - hit)`` feature volume to device."""
    if any_negative(num_missed):
        raise HardwareError("missed vertex count cannot be negative")
    volume = num_missed * n_attr * FLOAT_BYTES
    link = platform.link
    # Nothing missed, nothing sent: not even the link latency is paid.
    return (num_missed != 0) * (link.latency_s + volume / link.effective_bytes_per_s)


def t_replace(
    num_admitted: int, num_evicted: int, n_attr: int, platform: Platform
) -> float:
    """Eq. 5: cache-update overhead of replacing stale rows on device."""
    if any_negative(num_admitted, num_evicted):
        raise HardwareError("cache update counts cannot be negative")
    rows = num_admitted + num_evicted
    volume = rows * n_attr * FLOAT_BYTES
    device = platform.device
    # Device-side row scatter plus index bookkeeping; ~3x raw copy cost.  No
    # rows touched, no kernel launched.
    return (rows != 0) * (
        device.kernel_overhead_s + 3.0 * volume / device.bytes_per_s
    )


def t_compute(costing: ModelCosting, platform: Platform) -> float:
    """Eq. 8 as a roofline: max(compute-bound, memory-bound) + launch cost."""
    device = platform.device
    compute_bound = costing.flops / device.flops_per_s
    memory_bound = costing.bytes_moved / device.bytes_per_s
    return (
        costing.kernel_launches * device.kernel_overhead_s
        + larger(compute_bound, memory_bound)
    )


def batch_time(
    sample_s: float, transfer_s: float, replace_s: float, compute_s: float
) -> float:
    """Eq. 4 (per batch): host and device pipelines overlap; the slower wins."""
    return larger(sample_s + transfer_s, replace_s + compute_s)
