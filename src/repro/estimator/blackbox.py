"""Black-box regressors: CART decision tree and a bagged random forest.

The paper's estimator uses "black-box models based on machine learning" for
the key intermediate variables, and Fig. 5(b) names Decision Tree Regression
as the pure black-box baseline.  scikit-learn is unavailable offline, so this
module implements CART (variance-reduction splits) and bootstrap-aggregated
forests over numpy directly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EstimatorError

__all__ = ["DecisionTreeRegressor", "RandomForestRegressor"]


def _best_split(
    x: np.ndarray,
    y: np.ndarray,
    feature_ids: np.ndarray,
    min_leaf: int,
    w: np.ndarray | None = None,
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, sse) over candidate features, or None.

    Uses the classic sorted prefix-sum scan, for all candidate features at
    once: each column of the ``(n, F)`` block is sorted (stably) and the
    children's SSE at every cut position follows from column prefix sums.
    A feature offers its first cut of least SSE; the split is the first
    feature, in ``feature_ids`` order, whose offer is finite, beats the
    parent by more than 1e-12 and is strictly least.  With sample weights
    the criterion becomes weighted SSE (``Σw·y² − (Σw·y)²/Σw`` per child) and
    a cut needs weight on both sides; the ``min_leaf`` constraint stays
    count-based so weights shape the split score, not the tree's minimum
    support.  ``w=None`` takes the exact unweighted code path.
    """
    n = y.size
    if n < 2:  # no cut position
        return None
    if w is None:
        y_sum = y.sum()
        y_sq = (y**2).sum()
        parent_sse = y_sq - y_sum**2 / n
    else:
        y_sum = (w * y).sum()
        y_sq = (w * y**2).sum()
        parent_sse = y_sq - y_sum**2 / w.sum()
    block = x[:, feature_ids]
    order = np.argsort(block, axis=0, kind="stable")
    columns = np.arange(block.shape[1])
    xs = block[order, columns]
    ys = y[order]
    # Valid cut after row i (1-based left size i+1), per feature column.
    left_n = np.arange(1, n)[:, None]
    valid = (xs[1:] != xs[:-1]) & (left_n >= min_leaf) & (n - left_n >= min_leaf)
    if w is None:
        csum = ys.cumsum(axis=0)
        csq = (ys**2).cumsum(axis=0)
        ls, lq = csum[:-1], csq[:-1]
        rs, rq = y_sum - ls, y_sq - lq
        sse = (lq - ls**2 / left_n) + (rq - rs**2 / (n - left_n))
    else:
        ws = w[order]
        cw = ws.cumsum(axis=0)
        csum = (ws * ys).cumsum(axis=0)
        csq = (ws * ys**2).cumsum(axis=0)
        lw, ls, lq = cw[:-1], csum[:-1], csq[:-1]
        rw, rs, rq = cw[-1] - lw, y_sum - ls, y_sq - lq
        valid &= (lw > 0.0) & (rw > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            sse = (lq - ls**2 / lw) + (rq - rs**2 / rw)
    sse = np.where(valid, sse, np.inf)
    cut = np.argmin(sse, axis=0)
    offer = sse[cut, columns]
    accepted = (offer < parent_sse - 1e-12) & np.isfinite(offer)
    if not accepted.any():
        return None
    j = int(np.argmin(np.where(accepted, offer, np.inf)))
    i = cut[j]
    threshold = 0.5 * (xs[i, j] + xs[i + 1, j])
    return int(feature_ids[j]), float(threshold), float(offer[j])


def _all_close_to_first(y: np.ndarray) -> bool:
    """``np.allclose(y, y[0])``, spelled out to skip its per-call set-up:
    within ``1e-8 + 1e-5·|y[0]|`` of a finite ``y[0]``, or equal to it."""
    first = y[0]
    if not np.isfinite(first):
        return bool((y == first).all())
    return bool(((np.abs(y - first) <= 1e-8 + 1e-5 * abs(first)) | (y == first)).all())


class DecisionTreeRegressor:
    """CART regression tree minimising within-leaf variance."""

    def __init__(
        self,
        *,
        max_depth: int = 8,
        min_samples_leaf: int = 2,
        max_features: int | None = None,
        random_state: int | None = None,
    ) -> None:
        if max_depth < 1:
            raise EstimatorError("max_depth must be at least 1")
        if min_samples_leaf < 1:
            raise EstimatorError("min_samples_leaf must be at least 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._rng = np.random.default_rng(random_state)
        # The fitted tree, one ``(feature, threshold, left, right, value)``
        # entry per node in pre-order (node 0 is the root); ``left`` and
        # ``right`` are child ids, -1 on a leaf.
        self._nodes: list[tuple[int, float, int, int, float]] = []
        self.n_features_: int | None = None

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "DecisionTreeRegressor":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if x.ndim != 2 or x.shape[0] != y.size:
            raise EstimatorError("x must be (n_samples, n_features) matching y")
        if y.size == 0:
            raise EstimatorError("cannot fit on an empty dataset")
        w = None
        if sample_weight is not None:
            w = np.asarray(sample_weight, dtype=np.float64).ravel()
            if w.size != y.size:
                raise EstimatorError("sample_weight must match y")
            if not np.all(np.isfinite(w)) or np.any(w < 0.0) or w.sum() <= 0.0:
                raise EstimatorError(
                    "sample_weight must be finite, non-negative, not all zero"
                )
        self.n_features_ = x.shape[1]
        nodes: list[list] = []
        self._grow(nodes, x, y, depth=0, w=w)
        self._nodes = [tuple(node) for node in nodes]
        return self

    def _grow(
        self,
        nodes: list[list],
        x: np.ndarray,
        y: np.ndarray,
        depth: int,
        w: np.ndarray | None = None,
    ) -> int:
        """Append the subtree over ``(x, y)`` to ``nodes``; return its root id.

        A node is ``[feature, threshold, left, right, value]``; it starts as a
        leaf and is rewritten in place when a split is accepted.
        """
        if w is None:
            value = float(y.mean())
        elif w.sum() > 0.0:
            value = float(np.average(y, weights=w))
        else:  # all-zero-weight child: only the plain mean is defined
            value = float(y.mean())
        node = len(nodes)
        nodes.append([-1, 0.0, -1, -1, value])
        if depth >= self.max_depth or y.size < 2 * self.min_samples_leaf:
            return node
        if _all_close_to_first(y):
            return node
        n_feat = x.shape[1]
        if self.max_features is not None and self.max_features < n_feat:
            feature_ids = self._rng.choice(n_feat, self.max_features, replace=False)
        else:
            feature_ids = np.arange(n_feat)
        split = _best_split(x, y, feature_ids, self.min_samples_leaf, w)
        if split is None:
            return node
        feature, threshold, _ = split
        mask = x[:, feature] <= threshold
        # Non-finite feature values (e.g. an infinite power-law exponent on a
        # degenerate graph) can push every sample to one side; fall back to a
        # leaf rather than recurse on an empty child.
        if not np.isfinite(threshold) or mask.all() or not mask.any():
            return node
        left = self._grow(
            nodes, x[mask], y[mask], depth + 1, None if w is None else w[mask]
        )
        right = self._grow(
            nodes, x[~mask], y[~mask], depth + 1, None if w is None else w[~mask]
        )
        nodes[node][:4] = [feature, threshold, left, right]
        return node

    def predict(self, x: np.ndarray) -> np.ndarray:
        if not self._nodes:
            raise EstimatorError("predict() before fit()")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.shape[1] != self.n_features_:
            raise EstimatorError(
                f"expected {self.n_features_} features, got {x.shape[1]}"
            )
        out = np.empty(x.shape[0], dtype=np.float64)
        # Partition the row indices down the tree: one comparison per split
        # over all the rows that reach it, instead of one walk per row.
        pending = [(0, np.arange(x.shape[0]))]
        while pending:
            node, rows = pending.pop()
            feature, threshold, left, right, value = self._nodes[node]
            if left < 0:
                out[rows] = value
            elif rows.size:
                goes_left = x[rows, feature] <= threshold
                pending.append((left, rows[goes_left]))
                pending.append((right, rows[~goes_left]))
        return out

    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        if not self._nodes:
            raise EstimatorError("depth() before fit()")

        def walk(node: int) -> int:
            _, _, left, right, _ = self._nodes[node]
            return 0 if left < 0 else 1 + max(walk(left), walk(right))

        return walk(0)


class RandomForestRegressor:
    """Bootstrap-aggregated CART trees with feature subsampling."""

    def __init__(
        self,
        n_estimators: int = 30,
        *,
        max_depth: int = 8,
        min_samples_leaf: int = 2,
        max_features: float = 0.7,
        random_state: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise EstimatorError("need at least one tree")
        if not 0.0 < max_features <= 1.0:
            raise EstimatorError("max_features must lie in (0, 1]")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self._trees: list[DecisionTreeRegressor] = []

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "RandomForestRegressor":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if x.ndim != 2 or x.shape[0] != y.size:
            raise EstimatorError("x must be (n_samples, n_features) matching y")
        w = None
        if sample_weight is not None:
            w = np.asarray(sample_weight, dtype=np.float64).ravel()
            if w.size != y.size:
                raise EstimatorError("sample_weight must match y")
        rng = np.random.default_rng(self.random_state)
        n = y.size
        k = max(1, int(round(self.max_features * x.shape[1])))
        self._trees = []
        for t in range(self.n_estimators):
            idx = rng.integers(0, n, size=n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=k,
                random_state=self.random_state + 1000 + t,
            )
            # The bootstrap draw consumes the rng identically either way;
            # weights just ride along with their drawn rows.
            if w is None:
                tree.fit(x[idx], y[idx])
            else:
                tree.fit(x[idx], y[idx], sample_weight=w[idx])
            self._trees.append(tree)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if not self._trees:
            raise EstimatorError("predict() before fit()")
        # Tree by tree, in order: the sum numpy reduces a ``(trees, rows)``
        # stack to along axis 0, and the same bits whether x holds one row or
        # thousands (DESIGN.md, *The explore stage*, names this sum).
        total = self._trees[0].predict(x)
        for tree in self._trees[1:]:
            total += tree.predict(x)
        return total / len(self._trees)
