"""Column view of a candidate set: one numpy array per knob.

The explore stage handles thousands of candidates at a time.  Reading each
knob of each :class:`TrainingConfig` once, into an array per knob, lets
every later step — feature matrices, the analytic Eqs. 4-10, constraint
checks — run as array arithmetic instead of a python loop over candidates
(``DESIGN.md``, *The explore stage*).

The columns never change once built, so what is computed from them alone —
the estimator's model-free feature tables under one graph profile and
platform — is computed once per object and kept with it (:meth:`memo`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Hashable
from operator import attrgetter
from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.config.settings import _CACHE_POLICIES, SAMPLER_NAMES, TrainingConfig

__all__ = ["MEMO_ENTRIES", "ConfigColumns"]

#: values one :class:`ConfigColumns` keeps in its memo; past it the least
#: recently used goes.  The estimator's tables over ``default_space()`` with
#: the templates take 2.6 MiB per (graph profile, platform), so a server
#: keeps 4 datasets' tables in ~10.5 MiB; a fifth in turn misses every job
#: (``benchmarks/bench_serving_contexts.py``).
MEMO_ENTRIES = 4

_T = TypeVar("_T")
_MISSING = object()

_KNOBS = attrgetter(
    "batch_size",
    "sampler",
    "hop_list",
    "bias_rate",
    "batch_order",
    "cache_ratio",
    "cache_policy",
    "hidden_channels",
    "num_layers",
    "heads",
    "dropout",
    "reorder",
)


class ConfigColumns:
    """``n >= 1`` configs as arrays of length ``n``, one per knob.

    Numeric knobs keep their type (``batch_size`` is int64, ``bias_rate`` is
    float64), ``sampler`` and ``cache_policy`` are string arrays, and the
    two remaining categorical knobs appear as the flags the estimator reads
    (``reordered``, ``partition_order``).  ``hop_list`` has no rectangular
    form: ``hop_code`` numbers the distinct lists, its three summaries
    (``num_hops``, ``fanout_sum``, ``fanout_product``) are columns, and
    anything else that depends on it goes through :meth:`per_distinct`.
    Every array is read-only: a memoised value stays true to its rows.
    """

    def __init__(self, configs: Sequence[TrainingConfig]) -> None:
        self.configs = configs
        (
            batch_size,
            sampler,
            hop_list,
            bias_rate,
            batch_order,
            cache_ratio,
            cache_policy,
            hidden_channels,
            num_layers,
            heads,
            dropout,
            reorder,
        ) = zip(*map(_KNOBS, configs), strict=True)
        self.batch_size = np.array(batch_size, dtype=np.int64)
        self.sampler = np.array(sampler, dtype=str)
        self.bias_rate = np.array(bias_rate, dtype=np.float64)
        self.partition_order = np.array(batch_order, dtype=str) == "partition"
        self.cache_ratio = np.array(cache_ratio, dtype=np.float64)
        self.cache_policy = np.array(cache_policy, dtype=str)
        self.hidden_channels = np.array(hidden_channels, dtype=np.int64)
        self.num_layers = np.array(num_layers, dtype=np.int64)
        self.heads = np.array(heads, dtype=np.int64)
        self.dropout = np.array(dropout, dtype=np.float64)
        self.reordered = np.array(reorder, dtype=str) != "none"
        codes: dict[tuple[int, ...], int] = {}
        self.hop_code = np.array([codes.setdefault(h, len(codes)) for h in hop_list])
        self.num_hops, self.fanout_sum, self.fanout_product = self.per_distinct(
            (self.hop_code,),
            lambda c: (
                float(len(c.hop_list)),
                float(sum(c.hop_list)),
                float(np.prod([1.0 + k for k in c.hop_list])),
            ),
        ).T
        for array in vars(self).values():
            if isinstance(array, np.ndarray):
                array.setflags(write=False)
        self._memo: OrderedDict = OrderedDict()  # guarded-by: _memo_lock
        self._memo_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.configs)

    def memo(self, fn: Callable[..., _T], *args: Hashable) -> _T:
        """``fn(self, *args)``, computed once per ``(fn, *args)`` by value
        while these columns live, for at most :data:`MEMO_ENTRIES` keys (the
        least recently used goes first).

        ``fn`` runs outside the lock, so two threads missing one key at once
        both compute it and both return the value inserted first; the lock
        guards only the dict and no call is made under it.
        """
        key = (fn, *args)
        with self._memo_lock:
            value = self._memo.get(key, _MISSING)
            if value is not _MISSING:
                self._memo.move_to_end(key)
                return value
        value = fn(self, *args)
        with self._memo_lock:
            value = self._memo.setdefault(key, value)
            self._memo.move_to_end(key)
            while len(self._memo) > MEMO_ENTRIES:
                self._memo.popitem(last=False)
        return value

    def extended(self, extras: tuple[TrainingConfig, ...]) -> "ConfigColumns":
        """These rows followed by ``extras``, built once per ``extras``: an
        explored space's candidates with the templates outside it."""
        return self.memo(_extended, extras) if extras else self

    def per_distinct(
        self, knobs: tuple[np.ndarray, ...], fn: Callable[[TrainingConfig], object]
    ) -> np.ndarray:
        """``fn(config)`` for every row, computed once per distinct ``knobs``.

        For quantities that are functions of a few knobs and have no array
        form (they loop over ``hop_list``, or call scalar-only helpers): a
        design space repeats each combination of two or three knobs hundreds
        of times.  ``knobs`` are the columns ``fn`` depends on; ``fn`` may
        return a number or a tuple of numbers; the result has one row per
        config.
        """
        key = np.zeros(len(self), dtype=np.intp)
        for knob in knobs:
            _, codes = np.unique(knob, return_inverse=True)
            key = key * (codes.max() + 1) + codes
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        return np.array([fn(self.configs[i]) for i in first.tolist()])[inverse]

    def features(self) -> np.ndarray:
        """The numeric encoding of :meth:`TrainingConfig.as_features`, by row."""
        return np.column_stack(
            [
                self.batch_size,
                self.num_hops,
                self.fanout_sum,
                self.fanout_product,
                self.bias_rate,
                self.cache_ratio,
                self.hidden_channels,
                self.num_layers,
                self.heads,
                self.dropout,
                self.reordered,
                self.partition_order,
                *(self.sampler == s for s in SAMPLER_NAMES),
                *(self.cache_policy == p for p in _CACHE_POLICIES),
            ]
        ).astype(np.float64)


def _extended(
    columns: ConfigColumns, extras: tuple[TrainingConfig, ...]
) -> ConfigColumns:
    return ConfigColumns((*columns.configs, *extras))
