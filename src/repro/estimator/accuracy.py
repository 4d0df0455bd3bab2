"""Accuracy-change estimation — Eq. 11.

``δAcc = f_accuracy(Deg(G_i), Deg(G), |V_i|)``: the paper models accuracy
relative to unbiased mini-batch training from the degree distribution of the
sampled batches vs. the full graph, on the assumption that batches focusing
on important (high-degree) vertices learn more.  As the paper concedes, this
component "is still more like a black box": we expose exactly the Eq. 11
inputs plus the sampler knobs that shape them, and learn the mapping with a
forest.
"""

from __future__ import annotations

import numpy as np

from repro.config.columns import ConfigColumns
from repro.config.settings import SAMPLER_NAMES
from repro.errors import EstimatorError
from repro.estimator.blackbox import RandomForestRegressor, TreeFit, fit_together
from repro.estimator.features import ContextGroups
from repro.graphs.profiling import GraphProfile

__all__ = ["AccuracyModel", "accuracy_features"]


def accuracy_features(
    columns: ConfigColumns,
    profile: GraphProfile,
    batch_nodes: np.ndarray,
    batch_edges: np.ndarray,
) -> np.ndarray:
    """Eq. 11 inputs: batch degree stats vs graph degree stats, |V_i|, knobs.

    One row per candidate; ``batch_nodes``/``batch_edges`` are the (measured
    or predicted) batch statistics aligned with ``columns``.
    """
    batch_nodes = np.asarray(batch_nodes, dtype=np.float64)
    batch_degree = np.asarray(batch_edges, dtype=np.float64) / np.maximum(batch_nodes, 1.0)
    ones = np.ones(len(columns))
    return np.column_stack(
        [
            batch_degree,  # Deg(G_i)
            profile.avg_degree * ones,  # Deg(G)
            batch_degree / max(profile.avg_degree, 1e-9),
            np.log1p(batch_nodes),  # |V_i|
            batch_nodes / max(profile.num_nodes, 1),
            columns.bias_rate,
            columns.batch_size,
            columns.fanout_sum,
            columns.hidden_channels,
            columns.dropout,
            float(profile.num_classes) * ones,
            getattr(profile, "homophily", 0.0) * ones,
            getattr(profile, "separability", 0.0) * ones,
            *(columns.sampler == s for s in SAMPLER_NAMES),
        ]
    ).astype(np.float64)


class AccuracyModel:
    """Forest over Eq. 11 features predicting final task accuracy."""

    def __init__(self, *, n_estimators: int = 20, random_state: int = 0) -> None:
        self._forest = RandomForestRegressor(
            n_estimators=n_estimators,
            max_depth=6,
            min_samples_leaf=3,
            random_state=random_state,
        )

    def fit(self, records, sample_weight=None) -> "AccuracyModel":
        """Fit from :class:`~repro.runtime.profiler.GroundTruthRecord` list."""
        if not records:
            raise EstimatorError("no records to fit on")
        groups = ContextGroups.of(
            [r.config for r in records], [r.graph_profile for r in records]
        )
        fit_together(self.tree_fits(groups, records, sample_weight))
        return self

    def tree_fits(
        self, groups: ContextGroups, records, sample_weight=None
    ) -> list[TreeFit]:
        """The forest's trees and their bootstrap samples, for the records'
        configs already grouped by graph profile: what :meth:`fit` grows,
        for a caller that grows them with other trees."""
        x = groups.table(
            accuracy_features,
            np.array([r.mean_batch_nodes for r in records], dtype=np.float64),
            np.array([r.mean_batch_edges for r in records], dtype=np.float64),
        )
        y = np.array([r.accuracy for r in records])
        return self._forest.tree_fits(x, y, sample_weight)

    def predict(
        self,
        columns: ConfigColumns,
        profile: GraphProfile,
        batch_nodes: np.ndarray,
        batch_edges: np.ndarray,
    ) -> np.ndarray:
        """Accuracy of candidates that share one graph, given their
        (predicted) batch statistics (the forest refuses to predict before
        it is fitted)."""
        x = accuracy_features(columns, profile, batch_nodes, batch_edges)
        return np.clip(self._forest.predict(x), 0.0, 1.0)
