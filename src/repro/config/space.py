"""Design space: the set of all reconfigurable-setting assignments (Sec. 3.3).

A :class:`DesignSpace` is an ordered mapping ``knob -> domain``; its
assignments, one domain value per knob in knob order, are the leaves of the
paper's DFS tree.  Candidates are canonicalised (see
:meth:`TrainingConfig.canonical`) and deduplicated, which is how the
``bias_rate×sampler`` and ``cache_ratio×policy`` interactions fold
redundant branches.

The tree is never walked node by node.  Its leaves are the integers
``0 .. raw_size() - 1`` in DFS order (the mixed-radix number whose digits are
the per-knob value indices), and :attr:`DesignSpace.enumeration` folds them
onto the distinct canonical candidates with array arithmetic, constructing
each :class:`TrainingConfig` once.  Iteration, sampling's small-space
fallback and the explorer all read that one enumeration (``DESIGN.md``,
*The explore stage*).

A space is immutable once built, so :func:`default_space` and
:func:`reduced_space` each hand every caller one shared instance, and the
enumeration — with the column view of its candidates, and that view with
the templates an explore adds (:meth:`ConfigColumns.extended`) — is
computed once per process.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cache, cached_property
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from repro.config.columns import ConfigColumns
from repro.config.settings import COUPLED_KNOBS, TrainingConfig
from repro.errors import ConfigError

__all__ = ["DesignSpace", "Enumeration", "default_space", "reduced_space"]


@dataclass(frozen=True)
class Enumeration:
    """The raw Cartesian tree folded onto its distinct canonical candidates."""

    #: the distinct candidates, in the order a DFS first reaches them
    candidates: tuple[TrainingConfig, ...]
    #: ``candidates`` as columns, row ``i`` being candidate ``i``
    columns: ConfigColumns
    #: candidate -> its index in ``candidates``
    index: Mapping[TrainingConfig, int]


class DesignSpace:
    """Cartesian product of per-knob domains with canonical deduplication."""

    def __init__(self, domains: dict[str, tuple], base: TrainingConfig | None = None):
        if not domains:
            raise ConfigError("design space needs at least one dimension")
        valid = set(TrainingConfig.__dataclass_fields__)
        for name, values in domains.items():
            if name not in valid:
                raise ConfigError(f"unknown knob {name!r}")
            if not values:
                raise ConfigError(f"knob {name!r} has an empty domain")
            if len(set(values)) < len(values):
                raise ConfigError(f"knob {name!r} repeats a domain value")
        self._domains = MappingProxyType({k: tuple(v) for k, v in domains.items()})
        self._base = base or TrainingConfig()

    @property
    def domains(self) -> Mapping[str, tuple]:
        """Read-only ``knob -> values``: the enumeration is computed from it once."""
        return self._domains

    @property
    def base(self) -> TrainingConfig:
        """The config every assignment is applied onto."""
        return self._base

    @property
    def knobs(self) -> list[str]:
        """Dimension names in DFS order."""
        return list(self.domains)

    def raw_size(self) -> int:
        """Cartesian-product size before canonical deduplication."""
        size = 1
        for values in self.domains.values():
            size *= len(values)
        return size

    def build(self, assignment: dict[str, object]) -> TrainingConfig:
        """Materialise a (possibly partial) assignment onto the base config."""
        return replace(self.base, **assignment).canonical()

    @cached_property
    def enumeration(self) -> Enumeration:
        """Every distinct candidate, in the order a DFS first reaches it.

        Two leaves are the same candidate exactly when they agree on the
        uncoupled knobs and their coupled knobs canonicalise alike, so only
        the (few) combinations of coupled values go through
        :meth:`TrainingConfig.canonical`; the leaves are then keyed, matched
        and ordered as integer arrays.  Computed once per space — domains
        and base are read-only.
        """
        knobs = self.knobs
        shape = [len(self.domains[k]) for k in knobs]
        digits = dict(
            zip(knobs, np.unravel_index(np.arange(self.raw_size()), shape), strict=True)
        )
        coupled = [k for k in knobs if k in COUPLED_KNOBS]
        free = [k for k in knobs if k not in COUPLED_KNOBS]

        # One canonical config per combination of coupled values; combinations
        # that canonicalise alike share a class.
        combos = [
            replace(self.base, **dict(zip(coupled, values, strict=True))).canonical()
            for values in itertools.product(*(self.domains[k] for k in coupled))
        ]
        classes: dict[tuple, int] = {}
        combo_class = np.array(
            [
                classes.setdefault(tuple(getattr(c, k) for k in COUPLED_KNOBS), len(classes))
                for c in combos
            ]
        )
        leaf_combo = np.zeros(self.raw_size(), dtype=np.intp)
        for k in coupled:  # the position of each leaf's coupled values in ``combos``
            leaf_combo = leaf_combo * len(self.domains[k]) + digits[k]
        key = np.ravel_multi_index(
            [combo_class[leaf_combo], *(digits[k] for k in free)],
            [len(classes), *(len(self.domains[k]) for k in free)],
        )
        # The first leaf of each distinct key, in the order a DFS meets them.
        leaves = np.sort(np.unique(key, return_index=True)[1])
        free_values = [
            [self.domains[k][digit] for digit in digits[k][leaves].tolist()] for k in free
        ]
        candidates = tuple(
            TrainingConfig(**{**vars(combos[combo]), **dict(zip(free, values, strict=True))})
            for combo, *values in zip(leaf_combo[leaves].tolist(), *free_values, strict=True)
        )
        return Enumeration(
            candidates=candidates,
            columns=ConfigColumns(candidates),
            index=MappingProxyType({c: i for i, c in enumerate(candidates)}),
        )

    def __iter__(self) -> Iterator[TrainingConfig]:
        """Enumerate unique canonical candidates in DFS order."""
        return iter(self.enumeration.candidates)

    def enumerate(self) -> list[TrainingConfig]:
        """All unique candidates as a list."""
        return list(self.enumeration.candidates)

    def sample(self, count: int, *, rng: np.random.Generator) -> list[TrainingConfig]:
        """Uniformly sample ``count`` distinct canonical candidates.

        Draws assignments at random and deduplicates; falls back to full
        enumeration when the space is small enough that rejection sampling
        would stall.
        """
        if count <= 0:
            raise ConfigError("sample count must be positive")
        raw = self.raw_size()
        if raw <= 4 * count:
            candidates = self.enumerate()
            rng.shuffle(candidates)
            return candidates[:count]
        seen: set[TrainingConfig] = set()
        out: list[TrainingConfig] = []
        attempts = 0
        while len(out) < count and attempts < 50 * count:
            attempts += 1
            assignment = {
                knob: values[rng.integers(len(values))]
                for knob, values in self.domains.items()
            }
            candidate = self.build(assignment)
            if candidate not in seen:
                seen.add(candidate)
                out.append(candidate)
        return out


@cache
def default_space() -> DesignSpace:
    """The full design space used for estimator-guided exploration (one
    shared instance per process)."""
    return DesignSpace(
        {
            "batch_size": (128, 256, 512),
            "sampler": ("sage", "biased", "fastgcn", "saint"),
            "hop_list": ((3, 2), (5, 3), (10, 5), (15, 10)),
            "bias_rate": (0.0, 0.5, 0.9),
            "cache_ratio": (0.0, 0.05, 0.15, 0.3, 0.5),
            "cache_policy": ("none", "static", "fifo", "lru"),
            "hidden_channels": (16, 32, 64),
            "reorder": ("none", "degree"),
        }
    )


@cache
def reduced_space() -> DesignSpace:
    """A space small enough to exhaust by real execution (Fig. 6 protocol;
    one shared instance per process)."""
    return DesignSpace(
        {
            "batch_size": (128, 256),
            "sampler": ("sage", "biased", "saint"),
            "hop_list": ((5, 3), (10, 5)),
            "bias_rate": (0.0, 0.9),
            "cache_ratio": (0.0, 0.15, 0.4),
            "cache_policy": ("none", "static", "lru"),
            "hidden_channels": (32,),
        }
    )
