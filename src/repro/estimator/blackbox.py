"""Black-box regressors: CART decision tree and a bagged random forest.

The paper's estimator uses "black-box models based on machine learning" for
the key intermediate variables, and Fig. 5(b) names Decision Tree Regression
as the pure black-box baseline.  scikit-learn is unavailable offline, so this
module implements CART (variance-reduction splits) and bootstrap-aggregated
forests over numpy directly.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import EstimatorError

__all__ = ["DecisionTreeRegressor", "RandomForestRegressor", "TreeFit", "fit_together"]


def _split_scan(
    block: np.ndarray,
    ys: np.ndarray,
    ws: np.ndarray | None,
    n: np.ndarray,
    min_leaf: np.ndarray,
    y_sum: np.ndarray,
    y_sq: np.ndarray,
    parent_sse: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The best split of each of ``K`` nodes, all features of all nodes at once.

    ``block[k]`` is node k's ``(N, F)`` slice of its candidate feature
    columns: its own ``n[k]`` rows first, NaN after.  ``ys`` (and ``ws``, or
    ``None`` unweighted) are ``(K, N)``, anything after a node's rows.
    ``y_sum``, ``y_sq`` and ``parent_sse`` are each node's own 1-D
    reductions.  Returns, per node, the column, threshold and SSE of its
    split and whether it has one.  The padding and non-finite inputs meet
    in the arithmetic, so callers run it with numpy's warnings off.

    The classic sorted prefix-sum scan: each column is sorted (stably) and
    the children's SSE at every cut follows from column prefix sums.  NaN
    sorts after every real value and ties keep row order, so a node's own
    rows sort into its first ``n[k]`` positions exactly as they would alone,
    and every prefix sum, tie and cut before the padding is the one its
    unpadded scan computes; cuts into the padding fail ``min_leaf``.  A
    feature offers its first cut of least SSE; the split is the first
    feature, in column order, whose offer is finite, beats the parent by
    more than 1e-12 and is strictly least.  With sample weights the
    criterion becomes weighted SSE (``Σw·y² − (Σw·y)²/Σw`` per child) and a
    cut needs weight on both sides; ``min_leaf`` stays count-based so
    weights shape the split score, not the tree's minimum support.  The
    threshold is the midpoint of the cut's two values, or the lower value
    where the midpoint rounds onto the upper one (adjacent floats, or a sum
    past the float range), so that ``x <= threshold`` always separates them.
    """
    nodes, columns = np.arange(len(block)), np.arange(block.shape[2])
    order = np.argsort(block, axis=1, kind="stable")
    xs = block[nodes[:, None, None], order, columns]
    ys = ys[nodes[:, None, None], order]
    # Valid cut after position i (1-based left size i+1), per node and column.
    left_n = np.arange(1, block.shape[1])[:, None]
    last, n, min_leaf = n - 1, n[:, None, None], min_leaf[:, None, None]
    valid = (xs[:, 1:] != xs[:, :-1]) & (left_n >= min_leaf) & (n - left_n >= min_leaf)
    if ws is None:
        csum = ys.cumsum(axis=1)
        csq = (ys**2).cumsum(axis=1)
        ls, lq = csum[:, :-1], csq[:, :-1]
        rs, rq = y_sum[:, None, None] - ls, y_sq[:, None, None] - lq
        sse = (lq - ls**2 / left_n) + (rq - rs**2 / (n - left_n))
    else:
        ws = ws[nodes[:, None, None], order]
        cw = ws.cumsum(axis=1)
        csum = (ws * ys).cumsum(axis=1)
        csq = (ws * ys**2).cumsum(axis=1)
        lw, ls, lq = cw[:, :-1], csum[:, :-1], csq[:, :-1]
        # each column's own total: its prefix sum at the node's last row
        rw = cw[nodes, last][:, None, :] - lw
        rs, rq = y_sum[:, None, None] - ls, y_sq[:, None, None] - lq
        valid &= (lw > 0.0) & (rw > 0.0)
        sse = (lq - ls**2 / lw) + (rq - rs**2 / rw)
    sse = np.where(valid, sse, np.inf)
    cut = sse.argmin(axis=1)
    offer = sse[nodes[:, None], cut, columns]
    accepted = (offer < (parent_sse - 1e-12)[:, None]) & np.isfinite(offer)
    j = np.where(accepted, offer, np.inf).argmin(axis=1)
    i = cut[nodes, j]
    below, above = xs[nodes, i, j], xs[nodes, i + 1, j]
    threshold = 0.5 * (below + above)
    threshold = np.where(threshold >= above, below, threshold)
    return j, threshold, offer[nodes, j], accepted[nodes, j]


def _all_close_to_first(ys: np.ndarray, member: np.ndarray) -> np.ndarray:
    """``np.allclose(y, y[0])`` of each row's ``member`` entries ``y``,
    spelled out to skip its per-call set-up and to check many nodes at once:
    within ``1e-8 + 1e-5·|y[0]|`` of a finite ``y[0]``, or equal to it."""
    first = ys[np.arange(len(ys)), member.argmax(axis=1)][:, None]
    close = (ys == first) | (
        np.isfinite(first) & (np.abs(ys - first) <= 1e-8 + 1e-5 * np.abs(first))
    )
    return (close | ~member).all(axis=1)


def _checked_fit_inputs(
    x, y, sample_weight
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``(x, y, w)`` as float arrays, or :class:`EstimatorError`."""
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
    return x, y, w


#: one tree and what it is fitted on: ``(tree, x, y, sample_weight)``
TreeFit = tuple["DecisionTreeRegressor", np.ndarray, np.ndarray, "np.ndarray | None"]


def fit_together(fits: Sequence[TreeFit]) -> None:
    """Fit each ``tree`` on its own ``(x, y, sample_weight)``, all the trees
    grown in lockstep (:func:`_grow`).

    Every tree comes out exactly as it would fitted alone; trees that need
    not wait for each other (a forest's, or the independent components of
    an estimator) just share each step's split scan.  The fits are all
    weighted or all unweighted.
    """
    xs, ys, ws = zip(*(_checked_fit_inputs(x, y, w) for _, x, y, w in fits), strict=True)
    if len({w is None for w in ws}) > 1:
        raise EstimatorError("fit together either weighted trees or unweighted ones")
    sizes = [y.size for y in ys]
    widths = [x.shape[1] for x in xs]
    starts = np.cumsum([0, *sizes[:-1]]).tolist()
    # One matrix of every fit's rows (a narrower fit's extra columns are
    # never scanned), and where the scan's padding points: the last row is
    # NaN throughout, so it sorts after every real row, and the last column
    # is +inf on every real row, so it offers no cut, for a node that scans
    # fewer features than another.
    x = np.full((sum(sizes) + 1, max(widths) + 1), np.nan)
    x[:-1, -1] = np.inf
    for rows, start, width in zip(xs, starts, widths, strict=True):
        x[start : start + rows.shape[0], :width] = rows
    _grow(
        [tree for tree, *_ in fits],
        x,
        np.concatenate([*ys, [0.0]]),
        None if ws[0] is None else np.concatenate([*ws, [0.0]]),
        [np.arange(start, start + size) for start, size in zip(starts, sizes, strict=True)],
        widths,
    )


def _grow(
    trees: Sequence["DecisionTreeRegressor"],
    x: np.ndarray,
    y: np.ndarray,
    w: np.ndarray | None,
    roots: Sequence[np.ndarray],
    widths: Sequence[int],
) -> None:
    """Grow ``trees[t]`` on rows ``roots[t]`` of ``(x, y, w)``, over its
    first ``widths[t]`` features; the last row and column of ``x`` (and
    entry of ``y`` and ``w``) are the padding :func:`fit_together` lays out.

    The trees grow in lockstep: each keeps its own stack of pending nodes
    (popped in pre-order, so node ids are what a recursive grower assigns)
    and its own rng draws, and each step scans the next node to split of
    every tree at once (:func:`_split_scan`).  A node's value and its sums
    are 1-D reductions over its own rows, as they would be alone.
    """
    size, width = x.shape[0] - 1, x.shape[1] - 1  # the padding row and column
    every_feature = [np.arange(n_feat) for n_feat in widths]
    grown: list[list[list]] = [[] for _ in trees]

    def pad(ids, fill):
        """The 1-D arrays ``ids`` as the rows of one array, ``fill`` after
        each; and each one's length."""
        n = np.array([i.size for i in ids])
        block = np.full((len(ids), n.max()), fill)
        block[np.arange(block.shape[1]) < n[:, None]] = np.concatenate(ids)
        return block, n

    def next_to_split(t: int, stack: list):
        """Pop tree ``t``'s nodes, leaves settled as they come, up to the
        first node that needs a split search; its entry, or ``None``."""
        tree, nodes, n_feat = trees[t], grown[t], widths[t]
        while stack:
            rows, depth, constant, parent = stack.pop()
            node_y = y[rows]
            if w is None:
                y_sum = np.add.reduce(node_y)
                value = y_sum / rows.size
            else:
                node_w = w[rows]
                w_sum = np.add.reduce(node_w)
                y_sum = np.add.reduce(node_w * node_y)
                # an all-zero-weight child: only the plain mean is defined
                value = y_sum / w_sum if w_sum > 0.0 else node_y.mean()
            if parent is not None:
                parent[0][parent[1]] = len(nodes)
            node = [-1, 0.0, -1, -1, float(value)]
            nodes.append(node)
            if constant or depth >= tree.max_depth or rows.size < 2 * tree.min_samples_leaf:
                continue
            if tree.max_features is not None and tree.max_features < n_feat:
                feature_ids = tree._rng.choice(n_feat, tree.max_features, replace=False)
            else:
                feature_ids = every_feature[t]
            if not feature_ids.size:
                continue
            if w is None:
                y_sq = np.add.reduce(node_y**2)
                parent_sse = y_sq - y_sum**2 / rows.size
            else:
                y_sq = np.add.reduce(node_w * node_y**2)
                parent_sse = y_sq - y_sum**2 / w_sum
            return t, node, rows, depth, feature_ids, y_sum, y_sq, parent_sse
        return None

    # Infinite and NaN targets or features, and the padding, meet in the
    # arithmetic; their warnings say nothing the results do not.
    with np.errstate(all="ignore"):
        # pending: (rows, depth, constant targets?, the parent's node and
        # the slot that points at this one); whether a node's targets are
        # constant is checked for all the nodes of a step at once
        block_rows, _ = pad(roots, size)
        constant = _all_close_to_first(y[block_rows], block_rows < size).tolist()
        stacks = [[(rows, 0, c, None)] for rows, c in zip(roots, constant, strict=True)]
        while step := [e for e in map(next_to_split, range(len(trees)), stacks) if e]:
            tree_ids, nodes, rows, depths, feature_ids, y_sum, y_sq, parent_sse = zip(*step)
            block_rows, n = pad(rows, size)
            block_features, _ = pad(feature_ids, width)
            block = x[block_rows[:, :, None], block_features[:, None, :]]
            ys = y[block_rows]
            j, threshold, _, found = _split_scan(
                block,
                ys,
                None if w is None else w[block_rows],
                n,
                np.array([trees[t].min_samples_leaf for t in tree_ids]),
                np.array(y_sum),
                np.array(y_sq),
                np.array(parent_sse),
            )
            goes_left = block[np.arange(len(step)), :, j] <= threshold[:, None]
            goes_right = ~goes_left & (block_rows < size)
            left_n = goes_left.sum(axis=1)
            # Non-finite feature values (e.g. an infinite power-law exponent
            # on a degenerate graph) can push every sample to one side; such
            # a node stays a leaf rather than grow an empty child.
            split = found & np.isfinite(threshold) & (left_n > 0) & (left_n < n)
            constant_left = _all_close_to_first(ys, goes_left).tolist()
            constant_right = _all_close_to_first(ys, goes_right).tolist()
            for k in np.flatnonzero(split).tolist():
                node, node_rows, mask = nodes[k], rows[k], goes_left[k, : n[k]]
                node[:2] = int(feature_ids[k][j[k]]), float(threshold[k])
                stack, depth = stacks[tree_ids[k]], depths[k] + 1
                stack.append((node_rows[~mask], depth, constant_right[k], (node, 3)))
                stack.append((node_rows[mask], depth, constant_left[k], (node, 2)))
    for tree, nodes, n_feat in zip(trees, grown, widths, strict=True):
        tree.n_features_ = n_feat
        tree._nodes = [tuple(node) for node in nodes]


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
        fit_together([(self, x, y, sample_weight)])
        return self

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
        fit_together(self.tree_fits(x, y, sample_weight))
        return self

    def tree_fits(
        self,
        x: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> list[TreeFit]:
        """The forest's fresh trees, each with its bootstrap sample: what
        :meth:`fit` grows, for a caller that grows them with other trees."""
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
        self._trees = [
            DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=k,
                random_state=self.random_state + 1000 + t,
            )
            for t in range(self.n_estimators)
        ]
        fits = []
        for tree in self._trees:
            # weights ride along with their drawn rows
            idx = rng.integers(0, n, size=n)
            fits.append((tree, x[idx], y[idx], None if w is None else w[idx]))
        return fits

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
