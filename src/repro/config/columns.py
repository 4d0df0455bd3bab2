"""Column view of a candidate set: one numpy array per knob.

The explore stage handles thousands of candidates at a time.  Reading each
knob of each :class:`TrainingConfig` once, into an array per knob, lets
every later step — feature matrices, the analytic Eqs. 4-10, constraint
checks — run as array arithmetic instead of a python loop over candidates
(``DESIGN.md``, *The explore stage*).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Sequence

import numpy as np

from repro.config.settings import _CACHE_POLICIES, SAMPLER_NAMES, TrainingConfig

__all__ = ["ConfigColumns"]

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

    def __len__(self) -> int:
        return len(self.configs)

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
