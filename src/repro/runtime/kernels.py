"""SpMM timing, read in the shape the perf ledger and the server scrape.

Every sparse aggregation runs through :func:`repro.autograd.sparse.spmm`, the
plain scipy CSR x dense product, and that function times each product it
runs — forward and backward — into one process-wide counter.  This module
reads that counter as ``{name: {"calls", "seconds"}}``: one entry, ``spmm``.
"""

from __future__ import annotations

from repro.autograd.sparse import reset_spmm_stats as reset_kernel_counters
from repro.autograd.sparse import spmm_stats

__all__ = ["kernel_counters", "reset_kernel_counters"]


def kernel_counters() -> dict[str, dict[str, float]]:
    """``{"spmm": {"calls": float, "seconds": float}}`` since the last reset."""
    calls, seconds = spmm_stats()
    return {"spmm": {"calls": float(calls), "seconds": seconds}}
