"""Pluggable SpMM kernel backends (``docs/kernels.md``).

Sparse aggregation — the true hot path of every ground-truth training run —
is executed by a :class:`~repro.runtime.kernels.base.SpmmKernel` selected by
name through ``TrainingConfig.kernel`` / ``repro ... --kernel``:

* ``reference`` — seed-era scipy product, the bit-exactness anchor;
* ``fused`` — spmm + bias + activation in one tape node, no intermediates;
* ``parallel`` — nnz-balanced row blocks over a GIL-free thread pool.

``get_kernel(name)`` returns a shared singleton per name: kernels are
stateless apart from caches and worker pools, and sharing means the
``parallel`` pool and per-matrix plans amortise across every run in a
process.  Third-party kernels register with :func:`register_kernel`; the
static name list mirrored in ``repro.config.settings.KERNEL_NAMES`` (config
cannot import runtime) is consistency-checked by the test suite.
"""

from __future__ import annotations

import threading

from repro.runtime.kernels.base import (
    SpmmKernel,
    kernel_counters,
    reset_kernel_counters,
)
from repro.runtime.kernels.fused import FusedKernel
from repro.runtime.kernels.parallel import ParallelKernel
from repro.runtime.kernels.reference import ReferenceKernel

__all__ = [
    "SpmmKernel",
    "ReferenceKernel",
    "FusedKernel",
    "ParallelKernel",
    "register_kernel",
    "get_kernel",
    "kernel_names",
    "kernel_counters",
    "reset_kernel_counters",
    "close_kernels",
]

_LOCK = threading.Lock()
_REGISTRY: dict[str, type[SpmmKernel]] = {}  # guarded-by: _LOCK
_INSTANCES: dict[str, SpmmKernel] = {}  # guarded-by: _LOCK


def register_kernel(cls: type[SpmmKernel]) -> type[SpmmKernel]:
    """Register a kernel class under ``cls.name`` (usable as a decorator)."""
    name = cls.name
    if not name or name == SpmmKernel.name:
        raise ValueError("kernel classes must define a concrete `name`")
    with _LOCK:
        existing = _REGISTRY.get(name)
        if existing is not None and existing is not cls:
            raise ValueError(f"kernel {name!r} already registered by {existing!r}")
        _REGISTRY[name] = cls
    return cls


def get_kernel(name: str) -> SpmmKernel:
    """The shared kernel instance for ``name``; raises on unknown names."""
    with _LOCK:
        instance = _INSTANCES.get(name)
        if instance is None:
            cls = _REGISTRY.get(name)
            if cls is None:
                known = ", ".join(sorted(_REGISTRY))
                raise ValueError(f"unknown kernel {name!r}; known: {known}")
            instance = _INSTANCES[name] = cls()
        return instance


def kernel_names() -> tuple[str, ...]:
    """All registered kernel names, sorted."""
    with _LOCK:
        return tuple(sorted(_REGISTRY))


def close_kernels() -> None:
    """Close every instantiated kernel (worker pools); instances are kept."""
    with _LOCK:
        instances = list(_INSTANCES.values())
    for instance in instances:
        instance.close()


for _cls in (ReferenceKernel, FusedKernel, ParallelKernel):
    register_kernel(_cls)
del _cls
