"""Mini-batch size estimation — Eq. 12 and the Fig. 5 comparison.

``E[|V_i|] = f_overlapping(|B0| * Π_l (1 + k_l)^τ, p(η))``: the analytic
tree-growth bound is exact for trees but overshoots on real graphs because
sampled neighbourhoods overlap.  The gray-box model therefore predicts a
*log-space correction* to the closed-form saturating expectation with a small
learned tree — theory carries the scale, learning carries the graph-specific
overlap behaviour.  The pure black-box baseline maps raw features straight to
``|V_i|``, which is exactly the model Fig. 5(b) shows scattering.
"""

from __future__ import annotations

import numpy as np

from repro.config.columns import ConfigColumns
from repro.config.settings import SAMPLER_NAMES, TrainingConfig
from repro.errors import EstimatorError
from repro.estimator.blackbox import DecisionTreeRegressor, TreeFit, fit_together
from repro.estimator.features import ContextGroups, per_context
from repro.graphs.profiling import GraphProfile
from repro.sampling.expectation import saturating_expectation, tree_growth_bound

__all__ = [
    "GrayBoxBatchSizeModel",
    "BlackBoxBatchSizeModel",
    "analytic_batch_size",
    "prior_and_features",
]


def _effective_fanouts(config: TrainingConfig) -> list[float]:
    """Per-hop expected fanout of the configured sampler (Eq. 2/3 view)."""
    if config.sampler == "saint":
        # Subgraph sampling = many hops, single-neighbour fanout.
        return [1.0] * (2 * len(config.hop_list))
    if config.sampler == "fastgcn":
        # Layer budget Δ_l = k_l * |B0| => effective fanout relative to the
        # previous layer per Eq. 3.
        profile: list[float] = []
        prev = float(config.batch_size)
        for k in config.hop_list:
            delta = float(k * config.batch_size)
            profile.append(delta / prev)
            prev = delta
        return profile
    return [float(k) for k in config.hop_list]


def analytic_batch_size(config: TrainingConfig, profile: GraphProfile) -> float:
    """Closed-form prior: saturating tree-growth expectation on this graph."""
    fanouts = _effective_fanouts(config)
    # Fanout beyond a vertex's degree cannot expand further; clip by the
    # graph's average degree, the dominant first-order overlap effect.
    clipped = [min(k, profile.avg_degree) for k in fanouts]
    bound = tree_growth_bound(config.batch_size, clipped)
    return float(saturating_expectation(bound, profile.num_nodes))


def prior_and_features(columns: ConfigColumns, profile: GraphProfile) -> np.ndarray:
    """Column 0: the analytic prior.  The rest: features of where it is off."""
    prior, log_fanout_sum, num_fanouts = columns.per_distinct(
        (columns.sampler, columns.hop_code, columns.batch_size),
        lambda c: (
            analytic_batch_size(c, profile),
            np.log1p(sum(_effective_fanouts(c))),
            float(len(_effective_fanouts(c))),
        ),
    ).T
    ones = np.ones(len(columns))
    return np.column_stack(
        [
            prior,
            np.log1p(columns.batch_size),
            log_fanout_sum,
            num_fanouts,
            columns.bias_rate,
            profile.avg_degree * ones,
            profile.degree_skew * ones,
            profile.powerlaw_exponent * ones,
            np.log1p(profile.num_nodes) * ones,
            columns.batch_size / max(profile.num_nodes, 1),
            *(columns.sampler == s for s in SAMPLER_NAMES),
        ]
    ).astype(np.float64)


class GrayBoxBatchSizeModel:
    """Eq. 12 with a learnable overlap penalty (the paper's f_overlapping)."""

    def __init__(self, *, max_depth: int = 6, random_state: int = 0) -> None:
        self._tree = DecisionTreeRegressor(
            max_depth=max_depth, min_samples_leaf=3, random_state=random_state
        )

    def fit(
        self,
        configs: list[TrainingConfig],
        profiles: list[GraphProfile],
        measured: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "GrayBoxBatchSizeModel":
        measured = np.asarray(measured, dtype=np.float64)
        if not (len(configs) == len(profiles) == measured.size):
            raise EstimatorError("configs, profiles and targets must align")
        table = ContextGroups.of(configs, profiles).table(prior_and_features)
        fit_together(self.tree_fits(table, measured, sample_weight))
        return self

    def tree_fits(
        self,
        table: np.ndarray,
        measured: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> list[TreeFit]:
        """The correction tree and what it fits on, given the candidates'
        :func:`prior_and_features` table: what :meth:`fit` grows, for a
        caller that grows it with other trees."""
        residual = np.log(np.maximum(measured, 1.0)) - np.log(
            np.maximum(table[:, 0], 1.0)
        )
        return [(self._tree, table[:, 1:], residual, sample_weight)]

    def predict(
        self, configs: list[TrainingConfig], profiles: list[GraphProfile]
    ) -> np.ndarray:
        return per_context(
            configs,
            profiles,
            lambda columns, profile: self.predict_table(
                prior_and_features(columns, profile), profile
            ),
        )

    def predict_table(self, table: np.ndarray, profile: GraphProfile) -> np.ndarray:
        """E[|V_i|] of every candidate on one graph, from the candidates'
        :func:`prior_and_features` table (the tree refuses to predict
        before it is fitted)."""
        pred = table[:, 0] * np.exp(self._tree.predict(table[:, 1:]))
        return np.minimum(pred, float(profile.num_nodes))


class BlackBoxBatchSizeModel:
    """Pure decision-tree baseline of Fig. 5(b): features → |V_i| directly."""

    def __init__(self, *, max_depth: int = 6, random_state: int = 0) -> None:
        self._tree = DecisionTreeRegressor(
            max_depth=max_depth, min_samples_leaf=3, random_state=random_state
        )
        self._fitted = False

    @staticmethod
    def _features(columns: ConfigColumns, profile: GraphProfile) -> np.ndarray:
        graph = profile.as_features()
        return np.hstack(
            [columns.features(), np.broadcast_to(graph, (len(columns), graph.size))]
        )

    def fit(
        self,
        configs: list[TrainingConfig],
        profiles: list[GraphProfile],
        measured: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "BlackBoxBatchSizeModel":
        self._tree.fit(
            per_context(configs, profiles, self._features),
            np.asarray(measured, dtype=np.float64),
            sample_weight=sample_weight,
        )
        self._fitted = True
        return self

    def predict(
        self, configs: list[TrainingConfig], profiles: list[GraphProfile]
    ) -> np.ndarray:
        if not self._fitted:
            raise EstimatorError("predict() before fit()")
        return self._tree.predict(per_context(configs, profiles, self._features))
