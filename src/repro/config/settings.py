"""Training configuration: the reconfigurable settings of Fig. 3.

A :class:`TrainingConfig` is one *candidate* in the design space.  Its fields
map one-to-one onto the blue dash-line knobs of the paper's backend figure:

========================  =====================================
Category (Fig. 3)         Fields
========================  =====================================
Cat. 1 Sampling           ``batch_size``, ``sampler``, ``hop_list``,
                          ``bias_rate``, ``batch_order``
Cat. 2 Transmission       ``cache_ratio``, ``cache_policy``
Cat. 3 Model design       ``hidden_channels``, ``num_layers``, ``heads``,
                          ``dropout``
Cat. 4 Computation        ``reorder``
========================  =====================================

Pre-determined settings (dataset, architecture, platform, epochs, learning
rate) live in :class:`TaskSpec` — they come from the application, not the
explorer (Fig. 4 "Pre-determined Settings").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "TrainingConfig",
    "TaskSpec",
    "SAMPLER_NAMES",
    "REORDER_NAMES",
    "ORDER_NAMES",
    "COUPLED_KNOBS",
]

SAMPLER_NAMES = ("sage", "fastgcn", "saint", "biased", "cluster")
REORDER_NAMES = ("none", "degree", "bfs")
ORDER_NAMES = ("random", "sequential", "partition")
_CACHE_POLICIES = ("none", "static", "fifo", "lru")
#: the knobs :meth:`TrainingConfig.canonical` reads and rewrites; every other
#: knob passes through it untouched.
COUPLED_KNOBS = ("sampler", "bias_rate", "cache_ratio", "cache_policy")


@dataclass(frozen=True)
class TrainingConfig:
    """One design-space candidate (all reconfigurable settings)."""

    batch_size: int = 1024
    sampler: str = "sage"
    hop_list: tuple[int, ...] = (10, 5)
    bias_rate: float = 0.0
    batch_order: str = "random"
    cache_ratio: float = 0.0
    cache_policy: str = "none"
    hidden_channels: int = 64
    num_layers: int = 2
    heads: int = 4
    dropout: float = 0.5
    reorder: str = "none"

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ConfigError("batch_size must be positive")
        if self.sampler not in SAMPLER_NAMES:
            raise ConfigError(f"unknown sampler {self.sampler!r}; known: {SAMPLER_NAMES}")
        if not self.hop_list or any(k <= 0 for k in self.hop_list):
            raise ConfigError("hop_list must be a non-empty tuple of positive fanouts")
        if not 0.0 <= self.bias_rate <= 1.0:
            raise ConfigError("bias_rate must lie in [0, 1]")
        if self.batch_order not in ORDER_NAMES:
            raise ConfigError(f"unknown batch order {self.batch_order!r}")
        if not 0.0 <= self.cache_ratio <= 1.0:
            raise ConfigError("cache_ratio must lie in [0, 1]")
        if self.cache_policy not in _CACHE_POLICIES:
            raise ConfigError(f"unknown cache policy {self.cache_policy!r}")
        if self.hidden_channels <= 0 or self.num_layers <= 0 or self.heads <= 0:
            raise ConfigError("model dimensions must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        if self.reorder not in REORDER_NAMES:
            raise ConfigError(f"unknown reorder strategy {self.reorder!r}")

    def canonical(self) -> "TrainingConfig":
        """Resolve knob interactions so equivalent candidates compare equal.

        ``bias_rate`` is meaningful only for the biased sampler; a zero-sized
        cache is the same as no cache (and vice versa).
        """
        cfg = self
        if cfg.sampler != "biased" and cfg.bias_rate != 0.0:
            cfg = replace(cfg, bias_rate=0.0)
        if cfg.sampler == "biased" and cfg.bias_rate == 0.0:
            cfg = replace(cfg, sampler="sage")
        if cfg.cache_policy == "none" and cfg.cache_ratio != 0.0:
            cfg = replace(cfg, cache_ratio=0.0)
        if cfg.cache_ratio == 0.0 and cfg.cache_policy != "none":
            cfg = replace(cfg, cache_policy="none")
        return cfg

    # ------------------------------------------------------------- encodings
    def as_features(self) -> np.ndarray:
        """Numeric encoding consumed by black-box estimator components:
        one row of :meth:`ConfigColumns.features`, which encodes whole
        candidate sets at once.
        """
        from repro.config.columns import ConfigColumns

        return ConfigColumns([self]).features()[0]

    @staticmethod
    def feature_names() -> list[str]:
        """Column names matching :meth:`as_features`."""
        return [
            "batch_size",
            "num_hops",
            "fanout_sum",
            "fanout_product",
            "bias_rate",
            "cache_ratio",
            "hidden_channels",
            "num_layers",
            "heads",
            "dropout",
            "reordered",
            "partition_order",
            *[f"sampler={s}" for s in SAMPLER_NAMES],
            *[f"policy={p}" for p in _CACHE_POLICIES],
        ]

    def describe(self) -> str:
        """Compact one-line summary used in guideline reports: the headline
        knobs always, every other knob when it is off its default — so two
        distinct canonical configs never print the same line."""
        parts = [
            f"batch={self.batch_size}",
            f"sampler={self.sampler}",
            f"hops={list(self.hop_list)}",
        ]
        if self.sampler == "biased":
            parts.append(f"bias={self.bias_rate:.2f}")
        parts.append(f"cache={self.cache_policy}@{self.cache_ratio:.2f}")
        parts.append(f"hidden={self.hidden_channels}")
        for label, knob in (
            ("order", "batch_order"),
            ("layers", "num_layers"),
            ("heads", "heads"),
            ("dropout", "dropout"),
            ("reorder", "reorder"),
        ):
            value = getattr(self, knob)
            if value != self.__dataclass_fields__[knob].default:
                parts.append(f"{label}={value}")
        return " ".join(parts)


@dataclass(frozen=True)
class TaskSpec:
    """Pre-determined settings of one training task (application side)."""

    dataset: str
    arch: str = "sage"
    platform: str = "rtx4090"
    epochs: int = 5
    lr: float = 0.01
    seed: int = 0
    train_frac: float = 0.6
    val_frac: float = 0.2
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.arch not in ("gcn", "sage", "gat"):
            raise ConfigError(f"unknown architecture {self.arch!r}")
        if self.epochs <= 0:
            raise ConfigError("epochs must be positive")
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")
