"""The explore stage at array speed, pinned to what it replaced.

Enumeration, estimation and the Pareto filter now run on columns
(``docs/ARCHITECTURE.md``, *The life of an exploration*).  The code they
replaced — one python object, recursion or ``np.all`` per candidate — is
kept here as the *reference implementations*, and the array code must agree
with it exactly: same candidates in the same order, same bits in every
``PredictedPerf``, same front, same guidelines.  The estimator's trees grow
in lockstep and must equal the recursive grower's node for node.  A
constrained explore is held to the unbounded explore's rows kept by the
constraint's filter.
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
import threading
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    SAMPLER_NAMES,
    TEMPLATES,
    DesignSpace,
    TaskSpec,
    TrainingConfig,
    default_space,
    reduced_space,
)
from repro.config import space as space_module
from repro.config.columns import MEMO_ENTRIES, ConfigColumns
from repro.errors import EstimatorError
from repro.estimator import BlackBoxEstimator, GrayBoxEstimator
from repro.estimator import blackbox, graybox
from repro.estimator.batchsize import analytic_batch_size
from repro.estimator.blackbox import DecisionTreeRegressor, RandomForestRegressor
from repro.estimator.graybox import PerfRows, PredictedPerf
from repro.explorer import (
    PRIORITY_PRESETS,
    DecisionMaker,
    DFSExplorer,
    GNNavigator,
    RuntimeConstraint,
    hypervolume_2d,
    pareto_mask,
)
from repro.explorer import dfs as dfs_module
from repro.explorer import pareto as pareto_module
from repro.explorer.pareto import _BLOCK_ROWS
from repro.explorer.dfs import ExplorationResult
from repro.graphs.generators import powerlaw_community_graph
from repro.graphs.profiling import profile_graph
from repro.hardware import get_platform
from repro.hardware.costmodel import (
    batch_time,
    model_costing,
    t_compute,
    t_replace,
    t_sample,
    t_transfer,
)
from repro.hardware.memory import gamma_cache, gamma_model, gamma_runtime
from repro.nn.models import count_parameters
from tests.test_estimator_graybox import _measured_records, _predict_rows

ARCHS = ("sage", "gcn", "gat")
_POLICIES = ("none", "static", "fifo", "lru")


def _cpu_features() -> dict[str, bool]:
    from numpy._core._multiarray_umath import __cpu_features__

    return __cpu_features__


# ===================================================================== oracles
def reference_pareto_mask(objectives: np.ndarray) -> np.ndarray:
    """The O(n^2) pairwise check the skyline replaced."""
    objectives = np.atleast_2d(np.asarray(objectives, dtype=np.float64))
    n = objectives.shape[0]
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        if not mask[i]:
            continue
        le = np.all(objectives <= objectives[i], axis=1)
        lt = np.any(objectives < objectives[i], axis=1)
        dominated_by = le & lt
        dominated_by[i] = False
        if np.any(dominated_by & mask):
            mask[i] = False
    return mask


def reference_tree_predict(tree: DecisionTreeRegressor, x: np.ndarray) -> np.ndarray:
    """One root-to-leaf walk per row."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    out = np.empty(x.shape[0])
    for i, row in enumerate(x):
        feature, threshold, left, right, value = tree._nodes[0]
        while left >= 0:
            child = left if row[feature] <= threshold else right
            feature, threshold, left, right, value = tree._nodes[child]
        out[i] = value
    return out


def reference_best_split(
    x: np.ndarray,
    y: np.ndarray,
    feature_ids: np.ndarray,
    min_leaf: int,
    w: np.ndarray | None = None,
) -> tuple[int, float, float] | None:
    """The per-feature split search the all-features-at-once scan replaced."""
    n = y.size
    best: tuple[int, float, float] | None = None
    if w is None:
        y_sum = y.sum()
        y_sq = (y**2).sum()
        parent_sse = y_sq - y_sum**2 / n
    else:
        y_sum = (w * y).sum()
        y_sq = (w * y**2).sum()
        parent_sse = y_sq - y_sum**2 / w.sum()
    for f in feature_ids:
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        ys = y[order]
        # Valid cut after position i (1-based left size i+1).
        left_n = np.arange(1, n)
        valid = (xs[1:] != xs[:-1]) & (left_n >= min_leaf) & (n - left_n >= min_leaf)
        if not np.any(valid):
            continue
        if w is None:
            csum = np.cumsum(ys)
            csq = np.cumsum(ys**2)
            ls, lq = csum[:-1], csq[:-1]
            rs, rq = y_sum - ls, y_sq - lq
            sse = (lq - ls**2 / left_n) + (rq - rs**2 / (n - left_n))
        else:
            ws = w[order]
            cw = np.cumsum(ws)
            csum = np.cumsum(ws * ys)
            csq = np.cumsum(ws * ys**2)
            lw, ls, lq = cw[:-1], csum[:-1], csq[:-1]
            rw, rs, rq = cw[-1] - lw, y_sum - ls, y_sq - lq
            valid = valid & (lw > 0.0) & (rw > 0.0)
            if not np.any(valid):
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                sse = (lq - ls**2 / lw) + (rq - rs**2 / rw)
        sse = np.where(valid, sse, np.inf)
        i = int(np.argmin(sse))
        if sse[i] < parent_sse - 1e-12 and np.isfinite(sse[i]):
            threshold = 0.5 * (xs[i] + xs[i + 1])
            if threshold >= xs[i + 1]:  # the midpoint rounded onto the upper value
                threshold = xs[i]
            if best is None or sse[i] < best[2]:
                best = (int(f), float(threshold), float(sse[i]))
    return best


def reference_grow(
    tree: DecisionTreeRegressor,
    nodes: list[list],
    x: np.ndarray,
    y: np.ndarray,
    depth: int,
    w: np.ndarray | None = None,
) -> int:
    """The recursive grower the lockstep one replaced: append the subtree
    over ``(x, y)`` to ``nodes``, one node and one split search at a time,
    and return its root id."""
    if w is None:
        value = float(y.mean())
    elif w.sum() > 0.0:
        value = float(np.average(y, weights=w))
    else:  # all-zero-weight child: only the plain mean is defined
        value = float(y.mean())
    node = len(nodes)
    nodes.append([-1, 0.0, -1, -1, value])
    if depth >= tree.max_depth or y.size < 2 * tree.min_samples_leaf:
        return node
    if np.allclose(y, y[0]):
        return node
    n_feat = x.shape[1]
    if tree.max_features is not None and tree.max_features < n_feat:
        feature_ids = tree._rng.choice(n_feat, tree.max_features, replace=False)
    else:
        feature_ids = np.arange(n_feat)
    split = reference_best_split(x, y, feature_ids, tree.min_samples_leaf, w)
    if split is None:
        return node
    feature, threshold, _ = split
    mask = x[:, feature] <= threshold
    if not np.isfinite(threshold) or mask.all() or not mask.any():
        return node
    left = reference_grow(
        tree, nodes, x[mask], y[mask], depth + 1, None if w is None else w[mask]
    )
    right = reference_grow(
        tree, nodes, x[~mask], y[~mask], depth + 1, None if w is None else w[~mask]
    )
    nodes[node][:4] = [feature, threshold, left, right]
    return node


def reference_grow_each(trees, x, y, w, roots, widths) -> None:
    """``blackbox._grow`` one tree after another, each by :func:`reference_grow`
    on its own rows and features (what each tree's ``fit`` did before the
    trees grew in lockstep)."""
    for tree, rows, width in zip(trees, roots, widths, strict=True):
        nodes: list[list] = []
        with np.errstate(all="ignore"):
            reference_grow(
                tree, nodes, x[rows, :width], y[rows], 0, None if w is None else w[rows]
            )
        tree._nodes = [tuple(node) for node in nodes]
        tree.n_features_ = width


def reference_fit(model, x, y, w=None) -> list[list[tuple]]:
    """Every tree's ``_nodes`` as ``fit`` built them before the trees grew in
    lockstep, for an unfitted ``model`` (a tree or a forest): the forest
    draws a bootstrap sample and fits a tree on it, tree after tree."""
    if isinstance(model, RandomForestRegressor):
        rng = np.random.default_rng(model.random_state)
        k = max(1, int(round(model.max_features * x.shape[1])))
        trees = []
        for t in range(model.n_estimators):
            idx = rng.integers(0, y.size, size=y.size)
            tree = DecisionTreeRegressor(
                max_depth=model.max_depth,
                min_samples_leaf=model.min_samples_leaf,
                max_features=k,
                random_state=model.random_state + 1000 + t,
            )
            trees += reference_fit(tree, x[idx], y[idx], None if w is None else w[idx])
        return trees
    if y.size == 0:
        raise EstimatorError("cannot fit on an empty dataset")
    if w is not None and (not np.all(np.isfinite(w)) or np.any(w < 0.0) or w.sum() <= 0.0):
        raise EstimatorError("sample_weight must be finite, non-negative, not all zero")
    nodes: list[list] = []
    with np.errstate(all="ignore"):
        reference_grow(model, nodes, x, y, 0, w)
    return [[tuple(node) for node in nodes]]


def reference_forest_predict(forest: RandomForestRegressor, x: np.ndarray) -> np.ndarray:
    """The seed's forest mean over a batch of rows (a ``(trees, rows)`` stack)."""
    return np.stack([reference_tree_predict(t, x) for t in forest._trees]).mean(axis=0)


def reference_forest_predict_row(forest: RandomForestRegressor, row: np.ndarray) -> float:
    """One row, trees added in order — what the stack's axis-0 mean does for
    every row of a batch of two or more.  (Numpy sums a ``(trees, 1)`` stack
    pairwise instead, which is why the seed's one-candidate ``predict`` could
    differ from its batched one in the last bit; see ``DESIGN.md``.)"""
    total = 0.0
    for tree in forest._trees:
        total += reference_tree_predict(tree, row)[0]
    return total / len(forest._trees)


def _reference_effective_fanouts(config: TrainingConfig) -> list[float]:
    if config.sampler == "saint":
        return [1.0] * (2 * len(config.hop_list))
    if config.sampler == "fastgcn":
        out: list[float] = []
        prev = float(config.batch_size)
        for k in config.hop_list:
            delta = float(k * config.batch_size)
            out.append(delta / prev)
            prev = delta
        return out
    return [float(k) for k in config.hop_list]


def _onehot(value: str, names: tuple[str, ...]) -> list[float]:
    return [1.0 if value == name else 0.0 for name in names]


def reference_config_features(config: TrainingConfig) -> np.ndarray:
    """The per-candidate ``TrainingConfig.as_features`` of the seed."""
    return np.array(
        [
            float(config.batch_size),
            float(len(config.hop_list)),
            float(sum(config.hop_list)),
            float(np.prod([1.0 + k for k in config.hop_list])),
            config.bias_rate,
            config.cache_ratio,
            float(config.hidden_channels),
            float(config.num_layers),
            float(config.heads),
            config.dropout,
            1.0 if config.reorder != "none" else 0.0,
            1.0 if config.batch_order == "partition" else 0.0,
            *_onehot(config.sampler, SAMPLER_NAMES),
            *_onehot(config.cache_policy, _POLICIES),
        ],
        dtype=np.float64,
    )


def reference_encode(config, profile, platform) -> np.ndarray:
    raw = np.concatenate(
        [
            reference_config_features(config),
            profile.as_features(),
            np.asarray(platform.as_features(), dtype=np.float64),
        ]
    )
    return np.nan_to_num(raw, nan=0.0, posinf=1e12, neginf=-1e12)


def reference_predict(
    estimator: GrayBoxEstimator, configs, profiles, platform
) -> list[PredictedPerf]:
    """The per-candidate ``GrayBoxEstimator.predict`` loop the columns replaced.

    Five per-candidate feature builders, per-row tree walks, and Eqs. 4-10
    called with python scalars, on the estimator's own fitted trees.
    """
    est = estimator
    out = []
    for config, profile in zip(configs, profiles, strict=True):
        config = config.canonical()
        fanouts = _reference_effective_fanouts(config)
        share = config.batch_size / max(profile.num_nodes, 1)
        correction = np.array(
            [
                np.log1p(config.batch_size),
                np.log1p(sum(fanouts)),
                float(len(fanouts)),
                config.bias_rate,
                profile.avg_degree,
                profile.degree_skew,
                profile.powerlaw_exponent,
                np.log1p(profile.num_nodes),
                share,
                *_onehot(config.sampler, SAMPLER_NAMES),
            ]
        )
        prior = analytic_batch_size(config, profile)
        v_hat = min(
            prior * np.exp(reference_tree_predict(est._batch_model._tree, correction)[0]),
            float(profile.num_nodes),
        )
        edge = np.array(
            [
                profile.avg_degree,
                profile.degree_skew,
                profile.powerlaw_exponent,
                float(sum(config.hop_list)),
                float(len(config.hop_list)),
                config.bias_rate,
                share,
                1.0 if config.sampler == "saint" else 0.0,
                1.0 if config.sampler == "fastgcn" else 0.0,
            ]
        )
        e_hat = v_hat * np.exp(reference_tree_predict(est._edge_model, edge)[0])
        hit = np.array(
            [
                config.cache_ratio,
                config.bias_rate,
                1.0 if config.batch_order == "partition" else 0.0,
                share,
                profile.degree_skew,
                profile.avg_degree,
                *_onehot(config.cache_policy, _POLICIES),
                1.0 if config.sampler == "biased" else 0.0,
                1.0 if config.sampler == "saint" else 0.0,
            ]
        )
        hit_hat = float(np.clip(reference_tree_predict(est._hit_model, hit)[0], 0.0, 1.0))
        batch_degree = e_hat / max(v_hat, 1.0)
        acc = np.array(
            [
                batch_degree,
                profile.avg_degree,
                batch_degree / max(profile.avg_degree, 1e-9),
                np.log1p(v_hat),
                v_hat / max(profile.num_nodes, 1),
                config.bias_rate,
                float(config.batch_size),
                float(sum(config.hop_list)),
                float(config.hidden_channels),
                config.dropout,
                float(profile.num_classes),
                profile.homophily,
                profile.separability,
                *_onehot(config.sampler, SAMPLER_NAMES),
            ]
        )
        acc_hat = float(
            np.clip(reference_forest_predict_row(est._acc_model._forest, acc), 0.0, 1.0)
        )

        out_dim = max(profile.num_classes, 2)
        missed = v_hat * (1.0 - hit_hat)
        admitted = missed if config.cache_policy in ("fifo", "lru") else 0.0
        costing = model_costing(
            est._arch,
            int(v_hat),
            int(e_hat),
            in_dim=profile.feature_dim,
            hidden_dim=config.hidden_channels,
            out_dim=out_dim,
            num_layers=config.num_layers,
            heads=config.heads,
        )
        phases = {
            "sample": t_sample(
                max(int(v_hat) - config.batch_size, 0), platform, edges_touched=int(e_hat)
            ),
            "transfer": t_transfer(int(missed), profile.feature_dim, platform),
            "replace": t_replace(
                int(admitted), int(admitted), profile.feature_dim, platform
            ),
            "compute": t_compute(costing, platform),
        }
        memory = (
            gamma_model(
                count_parameters(
                    est._arch,
                    profile.feature_dim,
                    out_dim,
                    hidden_channels=config.hidden_channels,
                    num_layers=config.num_layers,
                    heads=config.heads,
                )
            )
            + gamma_cache(int(config.cache_ratio * profile.num_nodes), profile.feature_dim)
            + gamma_runtime(
                int(v_hat),
                int(e_hat),
                n_attr=profile.feature_dim,
                hidden_dim=config.hidden_channels,
                out_dim=out_dim,
                num_layers=config.num_layers,
                heads=config.heads,
                attention=est._arch == "gat",
            )
        )
        if est.use_residuals:
            feats = reference_encode(config, profile, platform)
            for phase, model in est._residual_models.items():
                phases[phase] *= np.exp(reference_tree_predict(model, feats)[0])
            memory *= np.exp(reference_tree_predict(est._memory_residual, feats)[0])
        train_nodes = int(est.train_frac * profile.num_nodes)
        num_iters = max(1, -(-train_nodes // config.batch_size))
        per_batch = batch_time(
            phases["sample"], phases["transfer"], phases["replace"], phases["compute"]
        )
        out.append(
            PredictedPerf(
                time_s=float(num_iters * per_batch),
                memory_bytes=float(memory),
                accuracy=acc_hat,
            )
        )
    return out


def reference_enumerate(space: DesignSpace) -> tuple[list[TrainingConfig], int]:
    """The recursion ``DesignSpace.__iter__`` and the DFS each used to run."""
    seen: set[TrainingConfig] = set()
    out: list[TrainingConfig] = []
    visited = 0
    knobs = space.knobs

    def recurse(level: int, assignment: dict) -> None:
        nonlocal visited
        if level == len(knobs):
            visited += 1
            candidate = space.build(assignment)
            if candidate not in seen:
                seen.add(candidate)
                out.append(candidate)
            return
        for value in space.domains[knobs[level]]:
            assignment[knobs[level]] = value
            recurse(level + 1, assignment)
        del assignment[knobs[level]]

    recurse(0, {})
    return out, visited


# ==================================================================== fixtures
@pytest.fixture(scope="session")
def fitted(small_graph):
    """One fitted gray-box estimator per architecture, shared by every test."""
    return {
        arch: GrayBoxEstimator().fit(
            _measured_records(small_graph, n=16, epochs=1, seed=20, arch=arch)
        )
        for arch in ARCHS
    }


@pytest.fixture(scope="session")
def profile(small_graph):
    return profile_graph(small_graph)


@pytest.fixture(scope="session")
def candidates():
    """``default_space()`` followed by the templates it does not contain."""
    templates = [t.canonical() for t in TEMPLATES.values()]
    return list(dict.fromkeys(default_space().enumerate() + templates))


def _bits(preds: list[PredictedPerf]) -> np.ndarray:
    return np.array([(p.time_s, p.memory_bytes, p.accuracy) for p in preds])


@contextlib.contextmanager
def _counting():
    """Counts of ``GrayBoxEstimator.predict`` calls, of the rows they score
    and of ``PredictedPerf`` objects built inside the block."""
    counts = {"calls": 0, "rows": 0, "built": 0}
    predict, init = GrayBoxEstimator.predict, PredictedPerf.__init__

    def counting_predict(self, columns, *args, **kwargs):
        counts["calls"] += 1
        counts["rows"] += len(columns)
        return predict(self, columns, *args, **kwargs)

    def counting_init(self, *args, **kwargs):
        counts["built"] += 1
        init(self, *args, **kwargs)

    with (
        mock.patch.object(GrayBoxEstimator, "predict", counting_predict),
        mock.patch.object(PredictedPerf, "__init__", counting_init),
    ):
        yield counts


def explore_census(estimator=None, profile=None, constraint=None) -> dict[str, int]:
    """The :func:`_counting` counts of one ``default_space()`` explore with
    the templates under ``constraint``: ``calls`` / ``rows`` reads
    ``1 / 4682`` while an explore is one ``predict`` over the space and the
    two templates outside it, and ``built`` reads ``0`` while the explore
    stage stays a table, constrained or not (CI's analysis job prints
    both)."""
    if estimator is None:
        graph = powerlaw_community_graph(
            300, num_classes=4, feature_dim=12, min_degree=3, max_degree=30, seed=3
        )
        estimator = GrayBoxEstimator().fit(
            _measured_records(graph, n=16, epochs=1, seed=20)
        )
        profile = graph.profile
    explorer = DFSExplorer(default_space(), estimator, profile, get_platform("rtx4090"))
    with _counting() as counts:
        explorer.explore(constraint=constraint, initial_candidates=list(TEMPLATES.values()))
    return counts


def fit_census() -> dict[str, int]:
    """What one ``GrayBoxEstimator.fit`` on :func:`explore_census`'s records
    grows — batched split scans and nodes — and how many rows of the
    ``default_space()`` table with the templates enter the Pareto sweep
    (CI's analysis job prints both pairs)."""
    graph = powerlaw_community_graph(
        300, num_classes=4, feature_dim=12, min_degree=3, max_degree=30, seed=3
    )
    records = _measured_records(graph, n=16, epochs=1, seed=20)
    scans, swept = [], []
    split_scan, sweep = blackbox._split_scan, pareto_module._sweep

    def counting_scan(*args):
        scans.append(1)
        return split_scan(*args)

    def counting_sweep(objectives, order, mask):
        swept.append(len(order))
        return sweep(objectives, order, mask)

    with mock.patch.object(blackbox, "_split_scan", counting_scan):
        estimator = GrayBoxEstimator().fit(records)
    explorer = DFSExplorer(default_space(), estimator, graph.profile, get_platform("rtx4090"))
    result = explorer.explore(initial_candidates=list(TEMPLATES.values()))
    with mock.patch.object(pareto_module, "_sweep", counting_sweep):
        pareto_mask(result.objectives())
    return {
        "scans": len(scans),
        "nodes": sum(len(tree._nodes) for tree in _estimator_trees(estimator)),
        "swept": sum(swept),
        "rows": len(result.candidates),
    }


# ====================================================================== pareto
_grid_value = st.one_of(
    st.integers(0, 3).map(float), st.sampled_from([np.inf, -np.inf])
)


class TestSkyline:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda width: st.lists(
                st.lists(_grid_value, min_size=width, max_size=width), max_size=40
            ).map(lambda rows: np.array(rows, dtype=np.float64).reshape(len(rows), width))
        )
    )
    def test_matches_pairwise_reference(self, objectives):
        """Small integer grids: ties, duplicates and ±inf are dense."""
        np.testing.assert_array_equal(
            pareto_mask(objectives), reference_pareto_mask(objectives)
        )

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_matches_reference_across_blocks(self, width):
        """More rows than one block, so the front is carried between blocks."""
        rng = np.random.default_rng(width)
        for objectives in (
            rng.normal(size=(700, width)),
            rng.integers(0, 6, size=(700, width)).astype(float),
        ):
            np.testing.assert_array_equal(
                pareto_mask(objectives), reference_pareto_mask(objectives)
            )

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(_BLOCK_ROWS + 1, 3000),
        st.integers(1, 3),
        st.sampled_from(["normal", "grid", "non-finite", "anti-correlated"]),
        st.integers(0, 2**32 - 1),
    )
    def test_prefiltered_sets_match_pairwise_reference(self, rows, width, kind, seed):
        """More rows than one block, so the prefilter runs: duplicates and
        ties (a small grid), NaN and ±inf, and an anti-correlated set whose
        every row is on the front."""
        rng = np.random.default_rng(seed)
        if kind == "normal":
            objectives = rng.normal(size=(rows, width))
        elif kind == "grid":
            objectives = rng.integers(0, 5, size=(rows, width)).astype(float)
        elif kind == "non-finite":
            objectives = rng.integers(0, 6, size=(rows, width)).astype(float)
            for value in (np.nan, np.inf, -np.inf):
                objectives[rng.random((rows, width)) < 0.03] = value
        else:  # along a descending line (and one free objective)
            t = rng.permutation(rows).astype(float)
            objectives = np.column_stack([t, -t, rng.normal(size=rows)])[:, : max(width, 2)]
        want = reference_pareto_mask(objectives)
        np.testing.assert_array_equal(pareto_mask(objectives), want)
        if kind == "anti-correlated":
            assert want.all()

    def test_nan_rows_neither_dominate_nor_are_dominated(self):
        objectives = np.array([[1.0, np.nan], [0.0, 0.0], [2.0, 2.0], [np.nan, -1.0]])
        np.testing.assert_array_equal(
            pareto_mask(objectives), reference_pareto_mask(objectives)
        )
        assert pareto_mask(objectives).tolist() == [True, True, False, True]

    def test_empty_inputs(self):
        for width in (1, 2, 3):
            assert pareto_mask(np.zeros((0, width))).shape == (0,)

    def test_memory_stays_far_below_n_squared(self):
        """20 000 rows: an n x n boolean would be 400 MB; the sweep needs ~1."""
        objectives = np.random.default_rng(0).normal(size=(20_000, 3))
        tracemalloc.start()
        try:
            mask = pareto_mask(objectives)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mask.any()
        assert peak < 8 * 2**20

    def test_hypervolume_unchanged(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            objectives = rng.integers(0, 8, size=(60, 2)).astype(float)
            reference = objectives.max(axis=0) * 1.1 + 1.0
            front = objectives[reference_pareto_mask(objectives)]
            front = front[np.argsort(front[:, 0])]
            volume, prev_x = 0.0, reference[0]
            for x, y in front[::-1]:
                volume += (prev_x - x) * (reference[1] - y)
                prev_x = x
            assert hypervolume_2d(objectives, reference) == volume


# ======================================================================= trees
class TestTreePredict:
    @staticmethod
    def _data(seed: int, rows: int = 60, cols: int = 7):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, cols)).round(1)  # ties on thresholds
        y = np.where(x[:, 0] > 0, 2.0, -1.0) + x[:, 2] ** 2 + rng.normal(0, 0.1, rows)
        return x, y

    @pytest.mark.parametrize("seed", range(4))
    def test_tree_matches_row_walk(self, seed):
        x, y = self._data(seed)
        tree = DecisionTreeRegressor(max_depth=6, min_samples_leaf=2).fit(x, y)
        query = np.random.default_rng(seed + 100).normal(size=(500, x.shape[1])).round(1)
        np.testing.assert_array_equal(
            tree.predict(query), reference_tree_predict(tree, query)
        )

    def test_single_leaf_tree(self):
        tree = DecisionTreeRegressor().fit(np.zeros((5, 3)), np.full(5, 4.0))
        assert len(tree._nodes) == 1 and tree.depth() == 0
        query = np.random.default_rng(0).normal(size=(9, 3))
        np.testing.assert_array_equal(tree.predict(query), np.full(9, 4.0))
        np.testing.assert_array_equal(
            tree.predict(query), reference_tree_predict(tree, query)
        )

    def test_non_finite_features_take_the_same_branch(self):
        x, y = self._data(7)
        tree = DecisionTreeRegressor(max_depth=5).fit(x, y)
        query = np.random.default_rng(8).normal(size=(200, x.shape[1]))
        query[::3, 0] = np.nan
        query[1::5, 2] = np.inf
        query[2::7, 2] = -np.inf
        np.testing.assert_array_equal(
            tree.predict(query), reference_tree_predict(tree, query)
        )

    def test_forest_matches_stacked_mean_whatever_the_batch(self):
        x, y = self._data(11, rows=80)
        forest = RandomForestRegressor(n_estimators=20, max_depth=6).fit(x, y)
        query = np.random.default_rng(12).normal(size=(300, x.shape[1]))
        want = reference_forest_predict(forest, query)
        np.testing.assert_array_equal(forest.predict(query), want)
        # one row at a time: the same bits as inside the batch
        singles = np.array([forest.predict(row)[0] for row in query[:40]])
        np.testing.assert_array_equal(singles, want[:40])


_FEATURE_VALUE = st.sampled_from([0.0, 1.0, 1.0, 2.5, -3.0, np.inf, -np.inf, np.nan])
_TARGET = st.one_of(st.sampled_from([0.0, 1.0, -2.0]), st.floats(-1e3, 1e3))
_WEIGHT = st.one_of(st.sampled_from([0.0, 0.0, 1.0, 0.5]), st.floats(0.0, 10.0))


def _grid(draw, rows: int, width: int) -> np.ndarray:
    """``x`` on a small grid (ties, ±inf, NaN), sometimes with a whole
    non-finite column."""
    x = np.array(
        draw(st.lists(_FEATURE_VALUE, min_size=rows * width, max_size=rows * width)),
        dtype=np.float64,
    ).reshape(rows, width)
    if rows and draw(st.booleans()):
        x[:, draw(st.integers(0, width - 1))] = draw(st.sampled_from([np.inf, np.nan]))
    return x


@st.composite
def split_inputs(draw):
    """``x``, ``y``, weights that may be zero, ``min_leaf`` and an ordered
    feature subset."""
    n = draw(st.integers(0, 20))
    width = draw(st.integers(1, 6))
    x = _grid(draw, n, width)
    y = np.array(draw(st.lists(_TARGET, min_size=n, max_size=n)), dtype=np.float64)
    w = None
    if draw(st.booleans()):
        w = np.array(draw(st.lists(_WEIGHT, min_size=n, max_size=n)), dtype=np.float64)
    features = draw(st.permutations(range(width)))
    feature_ids = np.array(features[: draw(st.integers(0, width))], dtype=np.intp)
    return x, y, feature_ids, draw(st.integers(1, 4)), w


def _node_sums(y, w):
    """A node's ``(Σy, Σy², parent SSE)``, weighted when ``w`` is given: the
    1-D reductions the grower hands the scan."""
    if w is None:
        y_sum, y_sq = y.sum(), (y**2).sum()
        return y_sum, y_sq, y_sq - y_sum**2 / y.size
    y_sum, y_sq = (w * y).sum(), (w * y**2).sum()
    return y_sum, y_sq, y_sq - y_sum**2 / w.sum()


def scan_nodes(nodes, weighted: bool) -> list[tuple[int, float, float] | None]:
    """Each node's ``(feature, threshold, sse)`` from one batched
    ``_split_scan``, its rows and features padded as the grower pads them:
    NaN rows after a node's own, a never-cut +inf column after its
    features."""
    rows = max(x.shape[0] for x, *_ in nodes)
    width = max(ids.size for _, _, ids, _, _ in nodes)
    block = np.full((len(nodes), rows, width), np.nan)
    ys, ws = np.zeros((len(nodes), rows)), np.zeros((len(nodes), rows))
    for k, (x, y, ids, _, w) in enumerate(nodes):
        block[k, : y.size] = np.inf
        block[k, : y.size, : ids.size] = x[:, ids]
        ys[k, : y.size] = y
        if weighted:
            ws[k, : y.size] = w
    sums = np.array([_node_sums(y, w if weighted else None) for _, y, _, _, w in nodes])
    j, threshold, sse, found = blackbox._split_scan(
        block,
        ys,
        ws if weighted else None,
        np.array([y.size for _, y, *_ in nodes]),
        np.array([min_leaf for *_, min_leaf, _ in nodes]),
        *sums.T,
    )
    return [
        (int(ids[j[k]]), float(threshold[k]), float(sse[k])) if found[k] else None
        for k, (_, _, ids, _, _) in enumerate(nodes)
    ]


@st.composite
def padded_nodes(draw):
    """A step's worth of nodes to scan together: 1-5 nodes of 2-14 rows over
    one matrix width, each with its own feature subset and ``min_leaf``, all
    weighted or none."""
    width = draw(st.integers(1, 5))
    weighted = draw(st.booleans())
    nodes = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(2, 14))
        x = _grid(draw, n, width)
        y = np.array(draw(st.lists(_TARGET, min_size=n, max_size=n)), dtype=np.float64)
        w = np.array(draw(st.lists(_WEIGHT, min_size=n, max_size=n))) if weighted else None
        features = draw(st.permutations(range(width)))
        ids = np.array(features[: draw(st.integers(1, width))], dtype=np.intp)
        nodes.append((x, y, ids, draw(st.integers(1, 4)), w))
    return nodes, weighted


@st.composite
def fits(draw):
    """One lockstep growth: one to four fits, each a tree or a forest (its
    bootstrap repeats rows) on its own ``x`` on the grid and targets
    (sometimes constant, sometimes fewer rows than two leaves need), all
    weighted (sometimes all zero) or none, with ``max_features`` all or a
    subset."""
    weighted = draw(st.booleans())
    specs = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 24))
        width = draw(st.integers(1, 5))
        x = _grid(draw, n, width)
        if draw(st.booleans()):
            y = np.full(n, draw(_TARGET))
        else:
            y = np.array(draw(st.lists(_TARGET, min_size=n, max_size=n)), dtype=np.float64)
        w = None
        if weighted:
            w = np.array(draw(st.lists(_WEIGHT, min_size=n, max_size=n)), dtype=np.float64)
        forest = draw(st.booleans())
        params = {
            "max_depth": draw(st.integers(1, 6)),
            "min_samples_leaf": draw(st.integers(1, 4)),
            "random_state": draw(st.integers(0, 5)),
        }
        if forest:
            params["n_estimators"] = draw(st.integers(1, 6))
            params["max_features"] = draw(st.sampled_from([0.3, 0.7, 1.0]))
        else:
            params["max_features"] = draw(st.one_of(st.none(), st.integers(1, width)))
        specs.append((forest, params, x, y, w))
    return specs


def _split_bits(split):
    if split is None:
        return None
    feature, threshold, sse = split
    return feature, np.float64(threshold).tobytes(), np.float64(sse).tobytes()


def _nodes_bits(trees) -> str:
    """Every node of every tree, floats by their bits (``-0.0`` and NaN
    included)."""
    return repr(
        [
            [
                (f, np.float64(t).tobytes(), left, right, np.float64(v).tobytes())
                for f, t, left, right, v in nodes
            ]
            for nodes in trees
        ]
    )


def _estimator_trees(est: GrayBoxEstimator) -> list[DecisionTreeRegressor]:
    """The gray-box estimator's 28 trees."""
    return [
        est._batch_model._tree,
        est._edge_model,
        est._hit_model,
        *est._residual_models.values(),
        est._memory_residual,
        *est._acc_model._forest._trees,
    ]


class TestSplitSearch:
    @settings(max_examples=400, deadline=None)
    @given(split_inputs())
    def test_matches_per_feature_reference(self, inputs):
        """One node through the batched scan: same feature, threshold and
        SSE as the per-feature search, bit for bit."""
        x, y, feature_ids, min_leaf, w = inputs
        with np.errstate(all="ignore"):
            want = reference_best_split(*inputs)
            got = None
            if y.size >= 2 and feature_ids.size:  # the grower scans no other node
                (got,) = scan_nodes([inputs], w is not None)
        assert _split_bits(got) == _split_bits(want)

    @settings(max_examples=300, deadline=None)
    @given(padded_nodes())
    def test_padded_nodes_scan_as_they_would_alone(self, inputs):
        """Nodes of different sizes and feature counts in one scan: the NaN
        rows and +inf columns after each node's own change no cut."""
        nodes, weighted = inputs
        with np.errstate(all="ignore"):
            got = scan_nodes(nodes, weighted)
            want = [reference_best_split(*node) for node in nodes]
        assert list(map(_split_bits, got)) == list(map(_split_bits, want))

    def test_a_midpoint_that_rounds_up_is_not_the_threshold(self):
        """Between adjacent floats the midpoint rounds onto the upper one,
        and ``x <= threshold`` would send both to the left: the cut takes
        the lower value instead, and the tree separates them."""
        low, high = 1 + 2**-52, 1 + 2**-51
        assert 0.5 * (low + high) == high
        x = np.array([low] * 4 + [high] * 4)[:, None]
        y = np.array([0.0] * 4 + [1.0] * 4)
        tree = DecisionTreeRegressor(max_depth=2, min_samples_leaf=1).fit(x, y)
        assert tree._nodes[0][:2] == (0, low)
        np.testing.assert_array_equal(tree.predict(np.array([[low], [high]])), [0.0, 1.0])
        assert reference_best_split(x, y, np.array([0]), 1)[1] == low

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                [0.0, 1.0, -1.0, 5e-9, 1e-8, 2e-8, 1.0 + 1e-5, 1.0 + 2e-5, 1e5, 1e5 + 1.0,
                 1e5 + 1.5, np.inf, -np.inf, np.nan]
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(0, 3),
    )
    def test_constant_check_is_allclose(self, values, padding):
        """Per node, over its own entries of a padded row."""
        y = np.array(values)
        row = np.concatenate([y, np.full(padding, 7.0)])[None]
        member = np.arange(row.shape[1])[None] < y.size
        with np.errstate(all="ignore"):
            got = blackbox._all_close_to_first(row, member)[0]
            assert got == np.allclose(y, y[0])


class TestLockstepGrowth:
    @staticmethod
    def _model(forest, params):
        return (RandomForestRegressor if forest else DecisionTreeRegressor)(**params)

    def _fit(self, specs):
        """``_nodes`` of every tree the fits build, or their error: one fit
        through its own ``fit``, several through one ``fit_together``."""
        try:
            if len(specs) == 1:
                (forest, params, x, y, w), = specs
                model = self._model(forest, params).fit(x, y, sample_weight=w)
                trees = model._trees if forest else [model]
                return _nodes_bits(tree._nodes for tree in trees)
            fits = []
            for forest, params, x, y, w in specs:
                model = self._model(forest, params)
                fits += model.tree_fits(x, y, w) if forest else [(model, x, y, w)]
            blackbox.fit_together(fits)
            return _nodes_bits(tree._nodes for tree, *_ in fits)
        except EstimatorError as exc:
            return str(exc)

    def _reference(self, specs):
        try:
            return _nodes_bits(
                nodes
                for forest, params, x, y, w in specs
                for nodes in reference_fit(self._model(forest, params), x, y, w)
            )
        except EstimatorError as exc:
            return str(exc)

    @settings(max_examples=300, deadline=None)
    @given(fits())
    def test_lockstep_nodes_equal_recursive_nodes(self, specs):
        """Every node of every tree, against the recursive grower: weighted
        and not, all features or a drawn subset, constant targets, ±inf and
        NaN features, nodes too small to split, bootstrap duplicates, and
        trees of different sizes and widths grown together."""
        assert self._fit(specs) == self._reference(specs)

    def test_weighted_and_unweighted_fits_do_not_mix(self):
        x, y = np.zeros((4, 2)), np.arange(4.0)
        fits = [(DecisionTreeRegressor(), x, y, None), (DecisionTreeRegressor(), x, y, np.ones(4))]
        with pytest.raises(EstimatorError, match="weighted"):
            blackbox.fit_together(fits)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: DecisionTreeRegressor(max_depth=6, min_samples_leaf=2),
            lambda: DecisionTreeRegressor(max_features=3, random_state=4),
            lambda: RandomForestRegressor(n_estimators=8, max_depth=5, random_state=2),
        ],
        ids=["tree", "subsampled tree", "forest"],
    )
    def test_fitted_nodes_equal_reference_fit(self, make, weighted):
        """Fifty rows of tied values: deeper trees than the property test's."""
        for seed in range(6):
            rng = np.random.default_rng(seed)
            x = rng.integers(0, 4, size=(50, 7)).astype(np.float64)  # tied values
            x[rng.random(x.shape) < 0.05] = np.inf
            y = np.where(x[:, 0] > 1, 2.0, -1.0) + rng.integers(0, 3, 50)
            w = rng.random(50) * (rng.random(50) < 0.8) if weighted else None
            model = make().fit(x, y, sample_weight=w)
            trees = model._trees if isinstance(model, RandomForestRegressor) else [model]
            got = _nodes_bits(tree._nodes for tree in trees)
            assert got == _nodes_bits(reference_fit(make(), x, y, w))

    def test_estimator_fit_equals_reference_fit(self, small_graph):
        """The gray-box estimator's 28 trees, fitted on profiled records,
        and its predictions over ``default_space()``, bit for bit."""
        records = _measured_records(small_graph, n=16, epochs=1, seed=20)
        columns = default_space().enumeration.columns
        profile, platform = small_graph.profile, get_platform("rtx4090")

        def fit():
            est = GrayBoxEstimator().fit(records)
            trees = _nodes_bits(tree._nodes for tree in _estimator_trees(est))
            return trees, est.predict(columns, profile, platform).tobytes()

        got = fit()
        with mock.patch.object(blackbox, "_grow", reference_grow_each):
            want = fit()
        assert got == want

    #: sha256 of ``predict`` over ``default_space()`` by the
    #: ``fitted`` estimators, computed before the trees grew in lockstep —
    #: with numpy 2.4.6 on an AVX-512 x86-64 host: numpy's vectorised
    #: ``exp``/``log`` differ in the last bit from one instruction set to
    #: another, so the pin holds only where it was taken.
    _PINNED = {
        "sage": "2300e88bcb6935110fedb7c5ebdf6aa4ed6fe67978179180712388dccc6ab9a1",
        "gcn": "40eb6cb2a92c41d0b9f516fc5e25247c4818d3ce578d0154417bc33c28b2660a",
        "gat": "bbadaf7ccfd0b4cf995e5fc96d2de1cc2fc1a4d52c6f807a20df4c67c8498017",
    }

    @pytest.mark.skipif(
        np.__version__ != "2.4.6" or not _cpu_features().get("AVX512_SKX"),
        reason="the digests were taken with numpy 2.4.6 on an AVX-512 host",
    )
    @pytest.mark.parametrize("arch", ARCHS)
    def test_predictions_keep_their_pinned_bytes(self, arch, fitted, profile):
        rows = fitted[arch].predict(
            default_space().enumeration.columns, profile, get_platform("rtx4090")
        )
        digest = hashlib.sha256(np.ascontiguousarray(rows).tobytes()).hexdigest()
        assert digest == self._PINNED[arch]


# =================================================================== estimator
class TestBatchedPredict:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_equals_per_candidate_reference(self, arch, fitted, profile, candidates):
        """default_space() + the templates: every ``PredictedPerf`` bit for bit."""
        platform = get_platform("rtx4090")
        profiles = [profile] * len(candidates)
        got = _predict_rows(fitted[arch], candidates, profiles, platform)
        want = reference_predict(fitted[arch], candidates, profiles, platform)
        np.testing.assert_array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("arch", ARCHS)
    def test_equals_one_candidate_at_a_time(self, arch, fitted, profile, candidates):
        picked = candidates[::23] + [t.canonical() for t in TEMPLATES.values()]
        batched = _predict_rows(fitted[arch], picked, [profile] * len(picked), "a100")
        singles = [_predict_rows(fitted[arch], [c], [profile], "a100")[0] for c in picked]
        assert batched == singles

    def test_mixed_profiles_and_uncanonical_configs(self, fitted, profile, medium_graph):
        other = profile_graph(medium_graph)
        configs = [
            TrainingConfig(batch_size=64, sampler="sage", bias_rate=0.5),
            TrainingConfig(cache_policy="none", cache_ratio=0.3, num_layers=3),
            TrainingConfig(sampler="biased", bias_rate=0.9, hop_list=(4, 4, 2)),
            TrainingConfig(sampler="fastgcn", hidden_channels=16, heads=2),
            TrainingConfig(sampler="saint", cache_policy="lru", cache_ratio=0.2),
        ] * 2
        profiles = [profile, other, other, profile, replace(profile)] * 2
        platform = get_platform("a100")
        got = _predict_rows(fitted["gat"], configs, profiles, platform)
        want = reference_predict(fitted["gat"], configs, profiles, platform)
        np.testing.assert_array_equal(_bits(got), _bits(want))

    def test_feature_matrix_rows_are_the_per_config_encoding(self, candidates):
        picked = candidates[::97] + [TEMPLATES["2pgraph"]]
        matrix = ConfigColumns(picked).features()
        for row, config in zip(matrix, picked, strict=True):
            np.testing.assert_array_equal(row, reference_config_features(config))
            np.testing.assert_array_equal(row, config.as_features())

    def test_black_box_batches_like_singles(self, small_graph, profile, candidates):
        records = _measured_records(small_graph, n=16, epochs=1, seed=20)
        estimator = BlackBoxEstimator().fit(records)
        picked = candidates[::211]
        batched = estimator.predict(picked, [profile] * len(picked))
        assert batched == [estimator.predict([c], [profile])[0] for c in picked]


# ==================================================================== the walk
SPACES = {
    "default": default_space,
    "reduced": reduced_space,
    "no coupled knob": lambda: DesignSpace(
        {"batch_size": (32, 64), "hidden_channels": (8, 16)}
    ),
    "eight shallow knobs": lambda: DesignSpace(
        {
            "batch_size": (128, 512),
            "sampler": ("sage", "biased", "saint"),
            "hop_list": ((3, 2), (10, 5)),
            "bias_rate": (0.0, 0.9),
            "cache_ratio": (0.0, 0.15, 0.5),
            "cache_policy": ("none", "static", "lru"),
            "hidden_channels": (16, 64),
            "reorder": ("none", "degree"),
        }
    ),
    "half of each coupling": lambda: DesignSpace(
        {"bias_rate": (0.0, 0.5), "cache_ratio": (0.0, 0.1, 0.3), "batch_size": (32, 64)},
        base=TrainingConfig(sampler="biased", bias_rate=0.5, cache_policy="lru", cache_ratio=0.2),
    ),
    "canonical values outside the domains": lambda: DesignSpace(
        {
            "sampler": ("biased", "saint"),
            "bias_rate": (0.5, 0.9),
            "cache_policy": ("none", "lru"),
            "cache_ratio": (0.1, 0.3),
            "hop_list": ((3, 2), (5, 5, 5)),
        }
    ),
}


class TestOneWalk:
    @pytest.mark.parametrize("name", SPACES)
    def test_enumeration_equals_the_recursion(self, name):
        space = SPACES[name]()
        want, visited = reference_enumerate(space)
        assert space.enumerate() == want
        assert list(space) == want
        assert visited == space.raw_size()

    def test_unconstrained_explore_is_enumerate_plus_unseen_templates(
        self, fitted, profile, candidates
    ):
        space = default_space()
        explorer = DFSExplorer(space, fitted["sage"], profile, get_platform("rtx4090"))
        result = explorer.explore(initial_candidates=list(TEMPLATES.values()))
        assert result.candidates == candidates
        assert result.evaluated == len(candidates)
        want = _predict_rows(
            fitted["sage"], candidates, [profile] * len(candidates), "rtx4090"
        )
        assert result.predictions == want

    @staticmethod
    def _boxes(free) -> dict[str, RuntimeConstraint]:
        times, memory, accuracy = free.objectives().T
        return {
            "memory median": RuntimeConstraint(max_memory_bytes=float(np.median(memory))),
            "fast quarter": RuntimeConstraint(
                max_time_s=float(np.percentile(times, 25)), min_accuracy=0.3
            ),
            "three-sided": RuntimeConstraint(
                max_time_s=float(np.percentile(times, 5)),
                max_memory_bytes=float(np.percentile(memory, 60)),
                min_accuracy=float(np.percentile(-accuracy, 30)),
            ),
        }

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("space_name", ["default", "reduced"])
    def test_a_constraint_filters_the_unbounded_table(
        self, space_name, arch, fitted, profile
    ):
        """A constrained explore is the unbounded explore's rows, templates
        included, kept by the constraint's filter: same candidates in the same
        order, same table bytes, same count evaluated, same guidelines.  The
        last constraint is faster than every template outside the space, so
        the filter must drop them too."""
        space = SPACES[space_name]()
        explorer = DFSExplorer(space, fitted[arch], profile, get_platform("rtx4090"))
        templates = list(TEMPLATES.values())
        targets = list(PRIORITY_PRESETS.values())
        free = explorer.explore(initial_candidates=templates)
        outside = len(space.enumerate())
        assert len(free.candidates) > outside, "no template outside the space"
        fastest_template = float(free.table[outside:, 0].min())
        faster = RuntimeConstraint(
            max_time_s=0.999 * fastest_template / (1 + dfs_module._FILTER_SLACK)
        )
        cut = 0
        for constraint in [*self._boxes(free).values(), faster]:
            got = explorer.explore(constraint=constraint, initial_candidates=templates)
            keep = np.flatnonzero(
                constraint.feasible(*free.table.T, slack=dfs_module._FILTER_SLACK)
            )
            want = ExplorationResult(
                candidates=[free.candidates[i] for i in keep.tolist()],
                predictions=PerfRows(free.table[keep]),
            )
            assert got.candidates == want.candidates
            assert got.table.tobytes() == want.table.tobytes()
            assert got.evaluated == free.evaluated
            assert DecisionMaker(got).choose_all(targets) == DecisionMaker(
                want
            ).choose_all(targets)
            cut += len(free.candidates) - len(got.candidates)
        assert cut > 0, "no box filtered a candidate out"
        assert set(got.candidates).isdisjoint(free.candidates[outside:])

    def test_predict_calls_per_explore_are_counted_in_levels(self, fitted, profile):
        """Constrained or not, an explore costs exactly one ``predict``,
        whose rows are the space's candidates followed by the initial
        candidates outside it."""

        class Counting:
            scored: list[list[TrainingConfig]] = []

            def predict(self, columns, profile, platform):
                Counting.scored.append(list(columns.configs))
                return fitted["sage"].predict(columns, profile, platform)

        space = default_space()
        templates = list(TEMPLATES.values())
        canonical = dict.fromkeys(t.canonical() for t in templates)
        outside = [c for c in canonical if c not in space.enumeration.index]
        assert outside, "every template is in the space: no row is joined"
        explorer = DFSExplorer(space, Counting(), profile, get_platform("rtx4090"))
        free = explorer.explore()
        assert Counting.scored == [space.enumerate()]
        for constraint in [None, *self._boxes(free).values()]:
            Counting.scored = []
            explorer.explore(constraint=constraint, initial_candidates=templates)
            assert Counting.scored == [space.enumerate() + outside]

    def test_explore_census_builds_no_objects(self, fitted, profile):
        """One ``predict`` over the space and the two templates outside it;
        no ``PredictedPerf`` at all, whether or not a constraint filters the
        table."""
        rows = len(default_space().enumerate()) + 2
        census = {"calls": 1, "rows": rows, "built": 0}
        assert explore_census(fitted["sage"], profile) == census
        bounded = RuntimeConstraint(min_accuracy=0.56)
        assert explore_census(fitted["sage"], profile, bounded) == census

    def test_fit_census_sees_lockstep_growth_and_the_prefilter(self):
        """The 28 trees grow in a handful of shared scans, not one scan per
        node searched, and most of the table never reaches the sweep."""
        census = fit_census()
        assert census["scans"] < census["nodes"] // 4
        assert census["swept"] < census["rows"] // 2

    def test_a_fit_evaluates_each_intermediate_table_once_per_context(
        self, small_graph
    ):
        """The batch-size, edge and hit trees are fitted on three feature
        tables, and the residual stage predicts the same records from the
        same tables: a fit evaluates each once per context, not twice."""
        records = _measured_records(small_graph, n=12, epochs=1, seed=20)
        moved = replace(records[0].graph_profile, degree_skew=-1.0)
        two_contexts = records[:8] + [replace(r, graph_profile=moved) for r in records[8:]]
        tables = ("prior_and_features", "_edge_features", "_hit_features")
        for batch, contexts in ((records, 1), (two_contexts, 2)):
            with contextlib.ExitStack() as stack:
                counted = [
                    stack.enter_context(
                        mock.patch.object(graybox, name, wraps=getattr(graybox, name))
                    )
                    for name in tables
                ]
                GrayBoxEstimator().fit(batch)
            assert [m.call_count for m in counted] == [contexts] * 3

    def test_a_navigation_builds_a_predicted_perf_only_where_one_is_read(
        self, fitted, small_graph
    ):
        navigator = GNNavigator(TaskSpec(dataset="tiny", arch="sage"), graph=small_graph)
        navigator.estimator = fitted["sage"]
        with _counting() as counts:
            report = navigator.explore()
            assert counts["calls"] == 1
            assert counts["rows"] == report.exploration.evaluated
            assert counts["built"] == len(report.guidelines)
            front = DecisionMaker(report.exploration).front()
        assert counts["built"] == len(report.guidelines) + len(front)
        assert len(front) < len(report.exploration.candidates) // 10

    def test_the_table_reads_as_the_list_it_replaced(self):
        """``objectives()`` negates accuracy bit for bit as ``-p.accuracy``
        did — signed zeros and NaN rows included — and the predictions
        compare, index and iterate as the ``PredictedPerf`` list."""
        preds = [
            PredictedPerf(0.5, 4096.0, 0.75),
            PredictedPerf(float("nan"), 1.0, -0.0),
            PredictedPerf(1.5, float("nan"), float("nan")),
            PredictedPerf(2.0, 8.0, 0.0),
        ]
        result = ExplorationResult(candidates=[TrainingConfig()] * 4, predictions=preds)
        old = np.array(
            [(p.time_s, p.memory_bytes, -p.accuracy) for p in preds], dtype=np.float64
        )
        assert result.objectives().tobytes() == old.tobytes()
        assert result.table.tobytes() == _bits(preds).tobytes()
        assert result.predictions[0] == preds[0] and result.predictions[-1] == preds[-1]
        assert result.predictions[::3] == [preds[0], preds[3]]
        assert list(result.predictions)[0] == preds[0] and len(result.predictions) == 4
        finite = ExplorationResult([TrainingConfig()] * 2, preds[::3]).predictions
        assert finite == preds[::3] and finite != preds[:1]
        assert finite == ExplorationResult([TrainingConfig()] * 2, finite).predictions
        assert ExplorationResult([], []).objectives().shape == (0, 3)
        with pytest.raises(ValueError):
            result.table[0, 0] = 1.0

    @pytest.mark.parametrize("arch", ["sage", "gat"])
    def test_explore_equals_per_config_predict(self, arch, fitted, profile):
        """Column slices of the shared enumeration, and ``PredictedPerf`` made
        only for the survivors, against a run that predicts every row from its
        configs: same candidates, bitwise objectives, same guidelines."""

        class PerConfig:
            def predict(self, columns, profile, platform):
                fresh = ConfigColumns(list(columns.configs))
                return fitted[arch].predict(fresh, profile, platform)

        space = default_space()
        platform = get_platform("rtx4090")
        explorer = DFSExplorer(space, fitted[arch], profile, platform)
        reference = DFSExplorer(space, PerConfig(), profile, platform)
        templates = list(TEMPLATES.values())
        targets = list(PRIORITY_PRESETS.values())
        free = explorer.explore(initial_candidates=templates)
        for constraint in [None, *self._boxes(free).values()]:
            got = explorer.explore(constraint=constraint, initial_candidates=templates)
            want = reference.explore(constraint=constraint, initial_candidates=templates)
            assert got.candidates == want.candidates
            assert got.objectives().tobytes() == want.objectives().tobytes()
            assert got.predictions == want.predictions
            assert got.evaluated == want.evaluated
            assert DecisionMaker(got).choose_all(targets) == DecisionMaker(
                want
            ).choose_all(targets)


class TestFeatureMemo:
    """A warm explore runs only the fitted trees and the analytic formulas:
    the model-free feature tables are built once per (profile, platform)
    and kept with the columns, and the space keeps its columns joined with
    the templates outside it."""

    _TABLES = ("prior_and_features", "_edge_features", "_hit_features", "encode_columns")

    @contextlib.contextmanager
    def _tables_built(self):
        with contextlib.ExitStack() as stack:
            yield {
                name: stack.enter_context(
                    mock.patch.object(graybox, name, wraps=getattr(graybox, name))
                )
                for name in self._TABLES
            }

    @staticmethod
    def _explore(space, estimator, profile) -> ExplorationResult:
        return DFSExplorer(space, estimator, profile, get_platform("rtx4090")).explore(
            initial_candidates=list(TEMPLATES.values())
        )

    def test_a_warm_explore_builds_no_feature_table(self, fitted, profile):
        """An equal profile (another object) hits, whichever model predicts."""
        space = SPACES["eight shallow knobs"]()
        first = self._explore(space, fitted["sage"], profile)
        with self._tables_built() as built:
            again = self._explore(space, fitted["sage"], replace(profile))
            self._explore(space, fitted["gat"], replace(profile))
        assert {name: m.call_count for name, m in built.items()} == dict.fromkeys(
            self._TABLES, 0
        )
        assert again.candidates == first.candidates
        assert again.table.tobytes() == first.table.tobytes()

    def test_a_new_profile_builds_each_table_once(self, fitted, profile):
        space = SPACES["eight shallow knobs"]()
        self._explore(space, fitted["sage"], profile)
        moved = replace(profile, degree_skew=profile.degree_skew + 1.0)
        with self._tables_built() as built:
            for _ in range(3):
                self._explore(space, fitted["sage"], moved)
        assert {name: m.call_count for name, m in built.items()} == dict.fromkeys(
            self._TABLES, 1
        )

    def test_the_bound_evicts_the_least_recently_used_entry(self):
        """A hit makes a key the newest: a key every job reads stays while
        keys read once come and go."""
        columns = ConfigColumns([TrainingConfig()])
        calls = []

        def build(_, key):
            calls.append(key)
            return [key]

        kept = [columns.memo(build, key) for key in range(MEMO_ENTRIES)]
        assert columns.memo(build, 0) is kept[0]  # 0 is now the newest
        columns.memo(build, MEMO_ENTRIES)  # evicts 1, the least recent
        assert all(
            columns.memo(build, key) is kept[key]
            for key in (0, *range(2, MEMO_ENTRIES))
        )
        assert calls == list(range(MEMO_ENTRIES + 1))
        assert columns.memo(build, 1) is not kept[1]
        assert calls[-1] == 1 and len(calls) == MEMO_ENTRIES + 2

    def test_threads_exploring_one_space_at_once_get_identical_bytes(
        self, fitted, profile
    ):
        """More threads than cores race on a cold space's two memos: every
        explore scores the same joined columns with the same tables (the
        first insert wins, and no thread keeps one a later insert replaced)
        and reads the bytes a lone explore reads."""
        space = SPACES["eight shallow knobs"]()  # a new space: its memos are cold
        start = threading.Barrier(4)
        scored: list[tuple] = []
        tables: list[bytes] = []

        class Recording:
            """The ``sage`` estimator, noting what each explore scored."""

            def predict(self, columns, profile, platform):
                memo = columns.memo(graybox._feature_tables, profile, platform)
                scored.append((columns, memo))
                return fitted["sage"].predict(columns, profile, platform)

        def run():
            start.wait(timeout=60)
            tables.append(self._explore(space, Recording(), profile).table.tobytes())

        threads = [threading.Thread(target=run) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the misses finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        alone = self._explore(SPACES["eight shallow knobs"](), fitted["sage"], profile)
        assert tables == [alone.table.tobytes()] * 4
        assert all(columns is scored[0][0] for columns, _ in scored)
        assert all(memo is scored[0][1] for _, memo in scored)

    @pytest.mark.parametrize("arch", ARCHS)
    def test_the_joined_table_is_the_space_and_the_extras_stacked(
        self, arch, fitted, profile
    ):
        enumeration = default_space().enumeration
        extras = tuple(
            dict.fromkeys(
                c
                for c in (t.canonical() for t in TEMPLATES.values())
                if c not in enumeration.index
            )
        )
        assert extras, "every template is in the space: nothing is joined"
        joined = enumeration.columns.extended(extras)
        assert joined is enumeration.columns.extended(extras)
        assert enumeration.columns.extended(()) is enumeration.columns
        platform = get_platform("rtx4090")
        stacked = np.vstack(
            [
                fitted[arch].predict(enumeration.columns, profile, platform),
                fitted[arch].predict(ConfigColumns(extras), profile, platform),
            ]
        )
        assert fitted[arch].predict(joined, profile, platform).tobytes() == (
            stacked.tobytes()
        )


class TestSharedSpace:
    def test_one_instance_per_process(self):
        assert default_space() is default_space()
        assert reduced_space() is reduced_space()

    def test_enumeration_and_columns_are_built_once(
        self, fitted, profile, small_graph, monkeypatch
    ):
        """Navigators, explorers and iteration all reuse one enumeration."""
        built = {"enumeration": 0, "columns": 0}

        def counting(name, cls):
            def make(*args, **kwargs):
                built[name] += 1
                return cls(*args, **kwargs)

            return make

        monkeypatch.setattr(
            space_module, "Enumeration", counting("enumeration", space_module.Enumeration)
        )
        monkeypatch.setattr(
            space_module, "ConfigColumns", counting("columns", space_module.ConfigColumns)
        )
        default_space.cache_clear()
        task = TaskSpec(dataset="tiny", arch="sage")
        for _ in range(3):
            navigator = GNNavigator(task, graph=small_graph)
            assert navigator.space is default_space()
            DFSExplorer(
                navigator.space, fitted["sage"], profile, get_platform("rtx4090")
            ).explore(initial_candidates=list(TEMPLATES.values()))
            assert len(default_space().enumerate()) == len(list(default_space()))
        assert built == {"enumeration": 1, "columns": 1}
        columns = default_space().enumeration.columns
        assert len(columns) == len(default_space().enumerate())
        with pytest.raises(ValueError):
            columns.batch_size[0] = 1
