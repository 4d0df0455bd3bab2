"""Experiment-level front of the shared ground-truth result store.

Every experiment consumes ground truth produced by executing configurations
on the runtime backend.  Profiling is the expensive step (minutes per
dataset), and several experiments share the same records (Table 2 and Fig. 5
use identical folds; Table 1 reuses each task's estimator records).

Since PR 2 the persistence layer is the *same* per-candidate
:class:`~repro.runtime.parallel.ResultStore` the profiling service and the
serving layer use (one JSON file per ``(task, config, graph)`` under
``.cache/store/``, ``REPRO_STORE_DIR`` overrides): an experiment warms the
store for ``repro serve`` and vice versa, and partial overlaps between
recipes hit instead of re-measuring.  This module only adds the in-process
memoization of whole record *sets* keyed by the profiling recipe.  Delete
the store directory (or call :func:`clear_cache`) to force re-profiling.
"""

from __future__ import annotations

import hashlib

from pathlib import Path

import numpy as np

from repro.config.settings import TaskSpec
from repro.config.space import DesignSpace, default_space
from repro.config.templates import TEMPLATES
from repro.graphs.csr import CSRGraph
from repro.runtime.parallel import ResultStore, default_store_dir
from repro.runtime.profiler import GroundTruthRecord, profile_configs

__all__ = ["profiling_records", "exhaustive_records", "cache_dir", "clear_cache"]

_MEMORY: dict[str, list[GroundTruthRecord]] = {}


def cache_dir() -> Path:
    """The shared result-store directory (created on demand)."""
    path = default_store_dir()
    path.mkdir(parents=True, exist_ok=True)
    return path


def clear_cache() -> None:
    """Drop every cached record (memory and the shared store)."""
    _MEMORY.clear()
    # Through the store (a fresh instance holds no pins: everything is
    # evictable).
    ResultStore(cache_dir()).prune(0)


def _recipe_key(
    task: TaskSpec, budget: int, seed: int, space: DesignSpace
) -> str:
    """Stable hash of everything that determines the record set."""
    text = "|".join(
        [
            task.dataset,
            task.arch,
            task.platform,
            str(task.epochs),
            str(task.lr),
            str(task.seed),
            str(budget),
            str(seed),
            str(sorted(space.domains.items())),
        ]
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def profiling_records(
    task: TaskSpec,
    *,
    budget: int = 40,
    seed: int = 0,
    space: DesignSpace | None = None,
    graph: CSRGraph | None = None,
    include_templates: bool = True,
    use_disk: bool = True,
    workers: int | None = None,
) -> list[GroundTruthRecord]:
    """Ground-truth records for ``budget`` sampled configs (+ templates).

    Memoized in-process by recipe and persisted per candidate in the shared
    result store, so experiments sharing a fold — and serving jobs sharing a
    candidate — pay for profiling once.  Misses route through the profiling
    service: ``workers`` fans them out across processes (results are
    identical to the serial path); ``use_disk=False`` skips the store.
    """
    space = space or default_space()
    key = _recipe_key(task, budget, seed, space)
    if key in _MEMORY:
        return _MEMORY[key]
    rng = np.random.default_rng(seed)
    configs = space.sample(budget, rng=rng)
    if include_templates:
        configs.extend(TEMPLATES.values())
    configs = list(dict.fromkeys(c.canonical() for c in configs))
    records = profile_configs(
        task,
        configs,
        graph=graph,
        workers=workers,
        cache_dir=str(cache_dir()) if use_disk else None,
    )
    _MEMORY[key] = records
    return records


def exhaustive_records(
    task: TaskSpec,
    space: DesignSpace,
    *,
    graph: CSRGraph | None = None,
    use_disk: bool = True,
    workers: int | None = None,
) -> list[GroundTruthRecord]:
    """Execute *every* candidate of a space (the Fig. 6 protocol), cached."""
    key = "exh_" + _recipe_key(task, 0, 0, space)
    if key in _MEMORY:
        return _MEMORY[key]
    records = profile_configs(
        task,
        space.enumerate(),
        graph=graph,
        workers=workers,
        cache_dir=str(cache_dir()) if use_disk else None,
    )
    _MEMORY[key] = records
    return records
