"""Device memory accounting — Eqs. 9-10.

``Γ = Γ_model + Γ_cache + Γ_runtime``: static model/optimizer state, the
feature cache, and the transient per-batch footprint (subgraph features,
activations for backprop, topology buffers).  The breakdown is reported per
epoch as a peak, exactly what the paper measures with the PyTorch profiler.

As in :mod:`repro.hardware.costmodel`, every size argument may be a number
or an array with one entry per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HardwareError
from repro.hardware.costmodel import FLOAT_BYTES, any_negative, larger

__all__ = ["MemoryBreakdown", "gamma_model", "gamma_cache", "gamma_runtime"]

#: activations kept for backward relative to a single forward pass
_ACTIVATION_FACTOR = 2.0
#: allocator floor present on any live device (bytes).  Real CUDA contexts
#: reserve hundreds of MiB; our datasets are ~20x scaled down (DESIGN.md), so
#: the floor is scaled too — otherwise it would mask every cache/activation
#: difference the paper's Γ comparisons are about.
RUNTIME_FLOOR_BYTES = 4 * 1024 * 1024


@dataclass(frozen=True)
class MemoryBreakdown:
    """Peak device memory split into the Eq. 9 terms (bytes)."""

    model: float
    cache: float
    runtime: float

    @property
    def total(self) -> float:
        return self.model + self.cache + self.runtime

    @property
    def total_gib(self) -> float:
        return self.total / 1024**3


def gamma_model(num_params: int, *, optimizer_state_factor: float = 2.0) -> float:
    """Γ_model ∝ |Φ|: weights + gradients + optimizer moments."""
    if any_negative(num_params):
        raise HardwareError("parameter count cannot be negative")
    copies = 1.0 + 1.0 + optimizer_state_factor  # weights + grads + state
    return num_params * FLOAT_BYTES * copies


def gamma_cache(capacity_nodes: int, n_attr: int) -> float:
    """Γ_cache = f(r|V| * n_attr): resident feature rows plus index."""
    if any_negative(capacity_nodes, n_attr):
        raise HardwareError("cache size terms cannot be negative")
    index_bytes = capacity_nodes * 8  # id -> slot map
    return capacity_nodes * n_attr * FLOAT_BYTES + index_bytes


def gamma_runtime(
    num_nodes: int,
    num_edges: int,
    *,
    n_attr: int,
    hidden_dim: int,
    out_dim: int,
    num_layers: int,
    heads: int = 1,
    attention: bool = False,
) -> float:
    """Γ_runtime = f(|V_i|, Φ): transient footprint of one mini-batch step.

    Covers input features, per-layer activations retained for backward,
    edge-level attention buffers (GAT) and CSR topology of the subgraph.
    """
    if any_negative(num_nodes, num_edges):
        raise HardwareError("subgraph size terms cannot be negative")
    features = num_nodes * n_attr * FLOAT_BYTES
    hidden_units = num_nodes * hidden_dim * larger(num_layers - 1, 0)
    if attention:
        hidden_units = hidden_units * heads
        edge_buffers = num_edges * heads * 3 * FLOAT_BYTES  # logits/att/grads
    else:
        edge_buffers = 0.0
    activations = (hidden_units + num_nodes * out_dim) * FLOAT_BYTES
    topology = (num_edges + num_nodes + 1) * 8  # int64 CSR on device
    return (
        RUNTIME_FLOOR_BYTES
        + features
        + _ACTIVATION_FACTOR * activations
        + edge_buffers
        + topology
    )
