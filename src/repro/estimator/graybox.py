"""The gray-box performance estimator (paper Sec. 3.3, Fig. 4).

White box: the analytic skeleton of Eqs. 4-10 — phase times from the platform
cost model, memory from the Eq. 9 decomposition, epoch time from the Eq. 4
host/device overlap — evaluated on *predicted* intermediate variables.

Black box: small learned models for exactly the quantities the paper calls
"key intermediate variables": the mini-batch size E[|V_i|] (Eq. 12 wrapper),
the batch edge count, the cache hit rate, per-phase multiplicative residuals
(the learnable parts of ``f_sample``/``f_transfer``/``f_replace``/
``f_compute``), and the accuracy model of Eq. 11.

:class:`BlackBoxEstimator` maps raw features straight to the targets — the
baseline the ablation bench compares against.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter, itemgetter

import numpy as np

from repro.config.columns import ConfigColumns
from repro.config.settings import _CACHE_POLICIES, TrainingConfig
from repro.errors import EstimatorError
from repro.estimator.accuracy import AccuracyModel
from repro.estimator.batchsize import (
    BlackBoxBatchSizeModel,
    GrayBoxBatchSizeModel,
    prior_and_features,
)
from repro.estimator.blackbox import (
    DecisionTreeRegressor,
    RandomForestRegressor,
    fit_together,
)
from repro.estimator.features import ContextGroups, encode_columns, per_context
from repro.graphs.profiling import GraphProfile
from repro.hardware.costmodel import (
    batch_time,
    model_costing,
    t_compute,
    t_replace,
    t_sample,
    t_transfer,
)
from repro.hardware.memory import gamma_cache, gamma_model, gamma_runtime
from repro.hardware.specs import Platform, get_platform
from repro.nn.models import count_parameters

__all__ = ["PredictedPerf", "PerfRows", "GrayBoxEstimator", "BlackBoxEstimator"]


@dataclass(frozen=True)
class PredictedPerf:
    """Estimator output for one candidate: ``Perf(T, Γ, Acc)``."""

    time_s: float
    memory_bytes: float
    accuracy: float


def _hit_features(columns: ConfigColumns, profile: GraphProfile) -> np.ndarray:
    """Inputs explaining the average cache hit rate, one row per candidate."""
    ones = np.ones(len(columns))
    return np.column_stack(
        [
            columns.cache_ratio,
            columns.bias_rate,
            columns.partition_order,
            columns.batch_size / max(profile.num_nodes, 1),
            profile.degree_skew * ones,
            profile.avg_degree * ones,
            *(columns.cache_policy == p for p in _CACHE_POLICIES),
            columns.sampler == "biased",
            columns.sampler == "saint",
        ]
    ).astype(np.float64)


def _edge_features(columns: ConfigColumns, profile: GraphProfile) -> np.ndarray:
    """Inputs explaining the edges-per-vertex ratio of a mini-batch."""
    ones = np.ones(len(columns))
    return np.column_stack(
        [
            profile.avg_degree * ones,
            profile.degree_skew * ones,
            profile.powerlaw_exponent * ones,
            columns.fanout_sum,
            columns.num_hops,
            columns.bias_rate,
            columns.batch_size / max(profile.num_nodes, 1),
            columns.sampler == "saint",
            columns.sampler == "fastgcn",
        ]
    ).astype(np.float64)


def _feature_tables(
    columns: ConfigColumns, profile: GraphProfile, platform: Platform
) -> tuple[np.ndarray, ...]:
    """The tables :meth:`GrayBoxEstimator.predict` reads that no fitted
    model enters — batch-size, edge, hit and residual features — read-only,
    as :meth:`ConfigColumns.memo` shares them between calls and threads."""
    tables = (
        prior_and_features(columns, profile),
        _edge_features(columns, profile),
        _hit_features(columns, profile),
        encode_columns(columns, profile, platform),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


_METRICS = attrgetter("time_s", "memory_bytes", "accuracy")


class PerfRows(Sequence):
    """A read-only ``Sequence[PredictedPerf]`` over an ``(n, 3)`` table of
    ``(T, Γ, Acc)`` rows: a row becomes a :class:`PredictedPerf` only when
    it is read, so the explore stage handles thousands of candidates as one
    array (``DESIGN.md``, *The explore stage*).  Compares equal to any list
    or tuple of the same predictions."""

    __slots__ = ("table",)

    def __init__(self, table: np.ndarray) -> None:
        self.table = np.asarray(table, dtype=np.float64).reshape(-1, 3)
        self.table.flags.writeable = False

    @classmethod
    def of(cls, predictions) -> "PerfRows":
        """The rows of ``predictions`` (any iterable of ``PredictedPerf``)."""
        if isinstance(predictions, PerfRows):
            return predictions
        return cls(np.array(list(map(_METRICS, predictions)), dtype=np.float64))

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(PerfRows(self.table[index]))
        return PredictedPerf(*self.table[index].tolist())

    def __iter__(self):
        return (PredictedPerf(*row) for row in self.table.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, PerfRows):
            return np.array_equal(self.table, other.table)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"PerfRows({len(self)} rows)"


class GrayBoxEstimator:
    """Analytic Eqs. 4-10 driven by learned intermediate variables."""

    _PHASES = ("sample", "transfer", "replace", "compute")

    def __init__(
        self,
        *,
        train_frac: float = 0.6,
        use_residuals: bool = True,
        random_state: int = 0,
    ) -> None:
        self.train_frac = train_frac
        self.use_residuals = use_residuals
        self._batch_model = GrayBoxBatchSizeModel(random_state=random_state)
        self._edge_model = DecisionTreeRegressor(
            max_depth=6, min_samples_leaf=3, random_state=random_state + 1
        )
        self._hit_model = DecisionTreeRegressor(
            max_depth=6, min_samples_leaf=3, random_state=random_state + 2
        )
        self._residual_models: dict[str, DecisionTreeRegressor] = {
            phase: DecisionTreeRegressor(
                max_depth=4, min_samples_leaf=4, random_state=random_state + 3 + i
            )
            for i, phase in enumerate(self._PHASES)
        }
        self._memory_residual = DecisionTreeRegressor(
            max_depth=4, min_samples_leaf=4, random_state=random_state + 9
        )
        self._acc_model = AccuracyModel(random_state=random_state + 10)
        # The estimator is fitted per architecture (records share one arch);
        # the cost/memory analytics read it when evaluating candidates.
        self._arch = "sage"
        self._fitted = False
        self._frozen = False

    @classmethod
    def fitted(
        cls, records, sample_weight=None, *, train_frac: float, random_state: int
    ) -> "GrayBoxEstimator":
        """A fresh estimator fitted on ``records``: the one recipe Step 2
        uses, whether a navigator fits for itself or a shared profiling
        service memoises the result for every job."""
        return cls(train_frac=train_frac, random_state=random_state).fit(
            records, sample_weight=sample_weight
        )

    def freeze(self) -> "GrayBoxEstimator":
        """Mark this estimator shared: :meth:`fit` refuses from now on.

        Each tree draws from an rng created in ``__init__``, so a second fit
        of the same object would not reproduce the first — and jobs holding
        a shared estimator would see it change under them.
        """
        self._frozen = True
        return self

    # -------------------------------------------------------------- analytics
    def _intermediates(
        self,
        profile: GraphProfile,
        prior: np.ndarray,
        edge_x: np.ndarray,
        hit_x: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Predicted ``(E[|V_i|], E[|E_i|], hit rate)`` of every candidate,
        from the candidates' batch-size, edge and hit feature tables."""
        v_hat = self._batch_model.predict_table(prior, profile)
        e_hat = v_hat * np.exp(self._edge_model.predict(edge_x))
        hit_hat = np.clip(self._hit_model.predict(hit_x), 0.0, 1.0)
        return v_hat, e_hat, hit_hat

    def _analytic_phases(
        self,
        columns: ConfigColumns,
        profile: GraphProfile,
        platform: Platform,
        v_hat: np.ndarray,
        e_hat: np.ndarray,
        hit_hat: np.ndarray,
    ) -> dict[str, np.ndarray]:
        """White-box per-batch phase times at the predicted intermediates."""
        nodes, edges = v_hat.astype(np.int64), e_hat.astype(np.int64)
        missed = v_hat * (1.0 - hit_hat)
        # Dynamic policies admit roughly what they miss; static admits none.
        dynamic = np.isin(columns.cache_policy, ("fifo", "lru"))
        admitted = np.where(dynamic, missed, 0.0).astype(np.int64)
        compute = np.empty(len(columns))
        # The layer loop of ``model_costing`` needs one depth per call.
        for depth in np.unique(columns.num_layers):
            rows = columns.num_layers == depth
            costing = model_costing(
                self._arch,
                nodes[rows],
                edges[rows],
                in_dim=profile.feature_dim,
                hidden_dim=columns.hidden_channels[rows],
                out_dim=max(profile.num_classes, 2),
                num_layers=int(depth),
                heads=columns.heads[rows],
            )
            compute[rows] = t_compute(costing, platform)
        return {
            "sample": t_sample(
                np.maximum(nodes - columns.batch_size, 0),
                platform,
                edges_touched=edges,
            ),
            "transfer": t_transfer(
                missed.astype(np.int64), profile.feature_dim, platform
            ),
            "replace": t_replace(admitted, admitted, profile.feature_dim, platform),
            "compute": compute,
        }

    def _num_iters(self, batch_size, profile: GraphProfile):
        train_nodes = int(self.train_frac * profile.num_nodes)
        return np.maximum(1, -(-train_nodes // batch_size))

    # ------------------------------------------------------------------- fit
    def fit(self, records, sample_weight=None) -> "GrayBoxEstimator":
        """Fit every learned component from ground-truth records.

        ``sample_weight`` (optional, aligned with ``records``) discounts
        each record in every learned component — the transfer warm-start
        path passes the target task's records at weight 1 followed by
        similarity-decayed donor records.  ``None`` is bit-identical to
        the historical unweighted fit.
        """
        if self._frozen:
            raise EstimatorError("a shared (frozen) estimator is never refitted")
        if len(records) < 8:
            raise EstimatorError("need at least 8 ground-truth records")
        w = None
        if sample_weight is not None:
            w = np.asarray(sample_weight, dtype=np.float64).ravel()
            if w.size != len(records):
                raise EstimatorError("sample_weight must align with records")
        # One grouping of the records by (profile, platform), built once: the
        # tables below are evaluated on its columns, each once per context.
        contexts = ContextGroups.of(
            [r.config for r in records],
            [(r.graph_profile, get_platform(r.task.platform)) for r in records],
        )
        profiles = contexts.with_contexts(itemgetter(0))
        self._arch = records[0].task.arch

        measured_v = np.array([r.mean_batch_nodes for r in records])
        measured_e = np.array([r.mean_batch_edges for r in records])
        measured_hit = np.array([r.hit_rate for r in records])
        prior = profiles.table(prior_and_features)
        edge_x = profiles.table(_edge_features)
        hit_x = profiles.table(_hit_features)

        # The components' trees need nothing of each other, so they grow in
        # lockstep; the residual trees need their predictions, so they grow
        # after them.
        fit_together(
            [
                *self._batch_model.tree_fits(prior, measured_v, w),
                (
                    self._edge_model,
                    edge_x,
                    # edges per node regress on degree/config features (log-ratio)
                    np.log(measured_e / np.maximum(measured_v, 1.0)),
                    w,
                ),
                (self._hit_model, hit_x, measured_hit, w),
                *self._acc_model.tree_fits(profiles, records, w),
            ]
        )
        if self.use_residuals:
            self._fit_residuals(records, contexts, (prior, edge_x, hit_x), w)
        self._fitted = True
        return self

    def _fit_residuals(
        self, records, contexts: ContextGroups, tables, w=None
    ) -> None:
        """Learn log-ratio corrections measured/analytic per phase.  The
        intermediates are predicted from ``tables``, the records' batch-size,
        edge and hit feature tables the first trees were fitted on."""

        def analytics(columns, context, *group_tables):
            """Encoding, then the four phase times, then memory, by column."""
            profile, platform = context
            v_hat, e_hat, hit_hat = self._intermediates(profile, *group_tables)
            phases = self._analytic_phases(
                columns, profile, platform, v_hat, e_hat, hit_hat
            )
            return np.column_stack(
                [
                    encode_columns(columns, profile, platform),
                    *(phases[phase] for phase in self._PHASES),
                    self._analytic_memory(columns, profile, v_hat, e_hat),
                ]
            )

        table = contexts.table(analytics, *tables)
        feats = table[:, : -len(self._PHASES) - 1]
        *analytic_phases, analytic_mem = table[:, feats.shape[1] :].T
        floor = 1e-7
        targets = [
            np.log(
                np.maximum([getattr(r, f"t_{phase}") for r in records], floor)
                / np.maximum(analytic, floor)
            )
            for phase, analytic in zip(self._PHASES, analytic_phases, strict=True)
        ]
        measured_mem = np.array([r.memory_bytes for r in records])
        targets.append(np.log(measured_mem / analytic_mem))
        models = [*self._residual_models.values(), self._memory_residual]
        fit_together(
            [(model, feats, y, w) for model, y in zip(models, targets, strict=True)]
        )

    def _analytic_memory(
        self,
        columns: ConfigColumns,
        profile: GraphProfile,
        v_hat: np.ndarray,
        e_hat: np.ndarray,
    ) -> np.ndarray:
        out_dim = max(profile.num_classes, 2)
        params = columns.per_distinct(
            (columns.hidden_channels, columns.num_layers, columns.heads),
            lambda c: count_parameters(
                self._arch,
                profile.feature_dim,
                out_dim,
                hidden_channels=c.hidden_channels,
                num_layers=c.num_layers,
                heads=c.heads,
            ),
        )
        capacity = (columns.cache_ratio * profile.num_nodes).astype(np.int64)
        return (
            gamma_model(params)
            + gamma_cache(capacity, profile.feature_dim)
            + gamma_runtime(
                v_hat.astype(np.int64),
                e_hat.astype(np.int64),
                n_attr=profile.feature_dim,
                hidden_dim=columns.hidden_channels,
                out_dim=out_dim,
                num_layers=columns.num_layers,
                heads=columns.heads,
                attention=self._arch == "gat",
            )
        )

    # --------------------------------------------------------------- predict
    def predict(
        self, columns: ConfigColumns, profile: GraphProfile, platform: Platform
    ) -> np.ndarray:
        """Estimate ``Perf(T, Γ, Acc)`` of canonical candidates that share
        one graph profile and platform, without executing them: ``(n, 3)``
        rows of ``(T, Γ, Acc)``, the estimator's one evaluation path.  The
        model-free feature tables come from the columns' memo, so a warm
        explore pays only for the trees and the analytic formulas."""
        if not self._fitted:
            raise EstimatorError("predict() before fit()")
        prior, edge_x, hit_x, feats = columns.memo(_feature_tables, profile, platform)
        v_hat, e_hat, hit_hat = self._intermediates(profile, prior, edge_x, hit_x)
        phases = self._analytic_phases(
            columns, profile, platform, v_hat, e_hat, hit_hat
        )
        memory = self._analytic_memory(columns, profile, v_hat, e_hat)
        if self.use_residuals:
            for phase, model in self._residual_models.items():
                phases[phase] = phases[phase] * np.exp(model.predict(feats))
            memory = memory * np.exp(self._memory_residual.predict(feats))
        per_batch = batch_time(*(phases[phase] for phase in self._PHASES))
        return np.column_stack(
            [
                self._num_iters(columns.batch_size, profile) * per_batch,
                memory,
                self._acc_model.predict(columns, profile, v_hat, e_hat),
            ]
        )

    # Convenience accessors used by benches/tests.
    def predict_batch_sizes(self, configs, profiles) -> np.ndarray:
        """E[|V_i|] predictions (Fig. 5a series)."""
        return self._batch_model.predict([c.canonical() for c in configs], profiles)


class BlackBoxEstimator:
    """Feature → target forests with no analytic structure (ablation baseline)."""

    def __init__(self, *, random_state: int = 0) -> None:
        self._models = {
            "time": RandomForestRegressor(
                n_estimators=20, max_depth=7, random_state=random_state
            ),
            "memory": RandomForestRegressor(
                n_estimators=20, max_depth=7, random_state=random_state + 1
            ),
            "accuracy": RandomForestRegressor(
                n_estimators=20, max_depth=7, random_state=random_state + 2
            ),
        }
        self._batch_model: BlackBoxBatchSizeModel | None = None
        self._fitted = False

    def fit(self, records, sample_weight=None) -> "BlackBoxEstimator":
        if len(records) < 8:
            raise EstimatorError("need at least 8 ground-truth records")
        w = None
        if sample_weight is not None:
            w = np.asarray(sample_weight, dtype=np.float64).ravel()
            if w.size != len(records):
                raise EstimatorError("sample_weight must align with records")
        feats = np.stack([r.features() for r in records])
        self._models["time"].fit(
            feats, np.log(np.array([r.time_s for r in records])), sample_weight=w
        )
        self._models["memory"].fit(
            feats, np.log(np.array([r.memory_bytes for r in records])), sample_weight=w
        )
        self._models["accuracy"].fit(
            feats, np.array([r.accuracy for r in records]), sample_weight=w
        )
        self._batch_model = BlackBoxBatchSizeModel()
        self._batch_model.fit(
            [r.config for r in records],
            [r.graph_profile for r in records],
            np.array([r.mean_batch_nodes for r in records]),
            sample_weight=w,
        )
        self._fitted = True
        return self

    def predict(
        self,
        configs: list[TrainingConfig],
        profiles: list[GraphProfile],
        platform: Platform | str = "rtx4090",
    ) -> PerfRows:
        if not self._fitted:
            raise EstimatorError("predict() before fit()")
        if isinstance(platform, str):
            platform = get_platform(platform)
        feats = per_context(
            [c.canonical() for c in configs],
            profiles,
            lambda columns, profile: encode_columns(columns, profile, platform),
        )
        return PerfRows(
            np.column_stack(
                [
                    np.exp(self._models["time"].predict(feats)),
                    np.exp(self._models["memory"].predict(feats)),
                    np.clip(self._models["accuracy"].predict(feats), 0.0, 1.0),
                ]
            )
        )

    def predict_batch_sizes(self, configs, profiles) -> np.ndarray:
        """|V_i| from the raw black-box tree (Fig. 5b series)."""
        if self._batch_model is None:
            raise EstimatorError("predict_batch_sizes() before fit()")
        return self._batch_model.predict(
            [c.canonical() for c in configs], profiles
        )
