"""Feature encodings shared by every estimator component.

The estimator's inputs (Fig. 4) are the candidate's reconfigurable settings
plus the pre-determined settings — graph profile and hardware.  This module
turns a ``(config, graph_profile, platform)`` triple into a flat vector with
stable column names so trees trained on one dataset transfer to another
(leave-one-dataset-out protocol of Sec. 4.1).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.config.columns import ConfigColumns
from repro.config.settings import TrainingConfig
from repro.errors import EstimatorError
from repro.graphs.profiling import GraphProfile
from repro.hardware.specs import Platform

if TYPE_CHECKING:
    from repro.estimator.graybox import GrayBoxEstimator

__all__ = [
    "ContextGroups",
    "encode",
    "encode_columns",
    "encode_names",
    "encode_records",
    "per_context",
    "predict_configs",
]


class ContextGroups:
    """Candidates grouped by the pre-determined setting each runs under,
    each group's rows as one :class:`ConfigColumns`: built once however
    many tables :meth:`table` evaluates on them (a gray-box fit evaluates
    five over its records)."""

    def __init__(
        self, size: int, groups: list[tuple[ConfigColumns, object, list[int] | None]]
    ) -> None:
        #: ``(columns, context, rows)`` per group; ``rows`` is ``None`` when
        #: one group holds every candidate in input order
        self.size = size
        self.groups = groups

    @classmethod
    def of(
        cls, configs: Sequence[TrainingConfig], contexts: Sequence[object]
    ) -> "ContextGroups":
        """``contexts[i]`` is the setting ``configs[i]`` runs under — its
        graph profile, or a ``(profile, platform)`` pair.  Exploration passes
        one profile object ``n`` times and a store hands out equal copies;
        both collapse to a single group."""
        if len(configs) != len(contexts):
            raise EstimatorError("configs and their contexts must align")
        if not len(configs):
            raise EstimatorError("no candidates to evaluate")
        if len(set(map(id, contexts))) == 1:  # one object n times: skip the hashing
            return cls(len(configs), [(ConfigColumns(configs), contexts[0], None)])
        rows_of: dict[object, list[int]] = {}
        for i, context in enumerate(contexts):
            rows_of.setdefault(context, []).append(i)
        return cls(
            len(configs),
            [
                (ConfigColumns([configs[i] for i in rows]), context, rows)
                for context, rows in rows_of.items()
            ],
        )

    def with_contexts(self, view: Callable[[object], object]) -> "ContextGroups":
        """The same groups and columns, each context read through ``view``."""
        return ContextGroups(
            self.size,
            [(columns, view(context), rows) for columns, context, rows in self.groups],
        )

    def table(self, fn: Callable[..., np.ndarray], *aligned: np.ndarray) -> np.ndarray:
        """``fn(columns, context, *aligned_rows)`` on each group, which
        returns one output row per candidate; the rows go back in input
        order."""
        columns, context, rows = self.groups[0]
        if rows is None:
            return fn(columns, context, *aligned)
        out = None
        for columns, context, rows in self.groups:
            part = fn(columns, context, *(np.asarray(a)[rows] for a in aligned))
            if out is None:
                out = np.empty((self.size, *part.shape[1:]), dtype=part.dtype)
            out[rows] = part
        return out


def per_context(
    configs: Sequence[TrainingConfig],
    contexts: Sequence[object],
    fn: Callable[..., np.ndarray],
    *aligned: np.ndarray,
) -> np.ndarray:
    """Evaluate ``fn`` on each distinct context's candidates as columns:
    :meth:`ContextGroups.table` of a one-off grouping."""
    return ContextGroups.of(configs, contexts).table(fn, *aligned)


def predict_configs(
    estimator: GrayBoxEstimator,
    configs: Sequence[TrainingConfig],
    profiles: Sequence[GraphProfile],
    platform: Platform,
) -> np.ndarray:
    """``(n, 3)`` rows of ``(T, Γ, Acc)`` for configs that each carry their
    own graph profile: one :meth:`GrayBoxEstimator.predict` per distinct
    profile over its canonical candidates, rows in the configs' order."""
    return per_context(
        [c.canonical() for c in configs],
        profiles,
        partial(estimator.predict, platform=platform),
    )


def encode_columns(
    columns: ConfigColumns, profile: GraphProfile, platform: Platform
) -> np.ndarray:
    """Full candidate + pre-determined-settings feature matrix.

    Non-finite entries (a degenerate graph can yield an infinite power-law
    exponent) are clamped so tree thresholds stay finite.
    """
    settings = np.concatenate(
        [profile.as_features(), np.asarray(platform.as_features(), dtype=np.float64)]
    )
    raw = np.hstack(
        [columns.features(), np.broadcast_to(settings, (len(columns), settings.size))]
    )
    return np.nan_to_num(raw, nan=0.0, posinf=1e12, neginf=-1e12)


def encode(
    config: TrainingConfig, profile: GraphProfile, platform: Platform
) -> np.ndarray:
    """One candidate's row of :func:`encode_columns`."""
    return encode_columns(ConfigColumns([config]), profile, platform)[0]


def encode_names() -> list[str]:
    """Column names aligned with :func:`encode`."""
    return (
        TrainingConfig.feature_names()
        + [
            "graph_nodes",
            "graph_edges",
            "graph_feature_dim",
            "graph_avg_degree",
            "graph_max_degree",
            "graph_degree_std",
            "graph_degree_skew",
            "graph_powerlaw_exp",
            "graph_homophily",
            "graph_separability",
        ]
        + [
            "host_cores",
            "host_sample_rate",
            "device_memory",
            "device_tflops",
            "device_bandwidth",
            "link_effective_bw",
        ]
    )


def encode_records(records) -> np.ndarray:
    """Stack :class:`~repro.runtime.profiler.GroundTruthRecord` features."""
    return np.stack([r.features() for r in records])
