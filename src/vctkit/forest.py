"""From-scratch random forest with fully deterministic construction.

Determinism contract:

* tree ``t`` uses the counter stream seeded with ``params.seed + t``;
* each tree trains on a bootstrap resample of size n drawn from its stream;
* at a node, ``max_features`` candidates are drawn without replacement
  ("sqrt" means ``max(1, isqrt(n_features))``, "all" means every feature);
  each tree draws for its nodes in preorder (left subtree before right);
* split thresholds are midpoints of consecutive distinct sorted values and
  rows go left when ``x <= threshold``;
* the best split maximizes impurity decrease (Gini for classification,
  variance for regression); ties break toward the lowest feature index,
  then the lowest threshold;
* growth stops when a node is pure, a split would violate
  ``min_samples_leaf``, or the best decrease is <= 1e-12.  A classifier
  node is pure when its class-1 count is 0 or n.  A regressor node is pure
  when ``y.var() <= 0``; a spread ``max - min > 1e-150`` already proves
  ``var() > 0`` (the widest deviation squares to a normal number), so only
  narrower nodes call ``var()``, which is not 0 on every all-equal array.

All trees grow in lockstep.  Each step takes the next node of each tree in
preorder (a "sqrt" draw must follow its tree's earlier draws) and scores
them in batched split searches.  A batch pads nodes of similar size
into one m x k x w block (one sort, one cumulative sum and one gain array),
with the per-feature arithmetic of a one-feature scan, so the trees equal a
feature-by-feature, node-by-node scan's bit for bit.  Each tree's splits
thus come in preorder, and its importance sums in that order.

``predict_proba`` is the fraction of trees whose leaf majority is class 1
(ties vote 1).  Feature importance is mean decrease in impurity, averaged
over trees and normalized to sum 1 (uniform if all zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .rng import Stream

GAIN_TOL = 1e-12


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    min_samples_leaf: int = 10
    max_features: str = "sqrt"
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be positive")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be positive")
        if self.max_features not in ("sqrt", "all"):
            raise ValueError("max_features must be 'sqrt' or 'all'")


REGRESSOR_PARAMS = ForestParams(min_samples_leaf=5, max_features="all")


@dataclass
class Forest:
    kind: str
    params: ForestParams
    n_features: int
    trees: list = field(default_factory=list)
    importances: np.ndarray | None = None


def _validate_xy(X, y, kind: str):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise ValueError("X must be a nonempty 2-D array")
    if y.shape != (X.shape[0],):
        raise ValueError("y length must match X rows")
    if not np.isfinite(X).all():
        raise ValueError("X must be finite")
    if not np.isfinite(y).all():
        raise ValueError("y must be finite")
    if kind == "classifier":
        labels = np.unique(y)
        if not np.isin(labels, (0.0, 1.0)).all():
            raise ValueError("classifier labels must be 0 or 1")
    return X, y


def _gini(c1, n):
    """Gini impurity of ``n`` samples of which ``c1`` are 1, elementwise on arrays."""
    p1 = c1 / n
    return 1.0 - p1 * p1 - (1.0 - p1) * (1.0 - p1)


def _best_split(x, y, n, min_leaf, kind):
    """Best (gain, column, threshold) of each node of a batch, or None.

    ``x`` is m x k x w: node i's k candidate features, in ascending feature
    order, over its ``n[i]`` samples, padded with +inf to the width w; ``y``
    is m x w, padded with 0.  The padding sorts last, adds nothing to a
    prefix sum and fails ``nr >= min_leaf``, so each node's gains and
    tie-breaks are bit-identical to its one-feature CART scans.
    """
    m, k, w = x.shape
    rows = np.arange(m)
    order = np.argsort(x, axis=-1, kind="stable")
    xs = np.take_along_axis(x, order, axis=-1)
    yo = y[rows[:, None, None], order]
    last = n - 1
    nn = n.astype(np.float64)[:, None, None]
    nl = np.arange(1, w, dtype=np.float64)
    nr = nn - nl  # <= 0 past a node's last split point
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "classifier":
            cum1 = np.cumsum(yo, axis=-1)
            c1 = cum1[rows, :, last]  # a count: the same in every row
            parent = _gini(c1[:, 0], n)
            c1l = cum1[..., :-1]
            gini_l, gini_r = _gini(c1l, nl), _gini(c1[..., None] - c1l, nr)
            gains = parent[:, None, None] - (nl * gini_l + nr * gini_r) / nn
        else:
            cy = np.cumsum(yo, axis=-1)
            cy2 = np.cumsum(yo * yo, axis=-1)
            # totals per row: each row sums in its own order, and the sums
            # can differ in the last bit between rows
            s, s2 = cy[rows, :, last], cy2[rows, :, last]
            var_l = np.maximum(cy2[..., :-1] / nl - (cy[..., :-1] / nl) ** 2, 0.0)
            var_r = np.maximum((s2[..., None] - cy2[..., :-1]) / nr
                               - ((s[..., None] - cy[..., :-1]) / nr) ** 2, 0.0)
            # the parent is a Python float per row: a scalar ** 2 is libm
            # pow, an array ** 2 an exact square, and the two can differ in
            # the last bit
            parent = np.array([max(b / c - (a / c) ** 2, 0.0) for a, b, c in
                               zip(s.ravel().tolist(), s2.ravel().tolist(),
                                   np.repeat(n, k).tolist())])
            gains = parent.reshape(m, k, 1) - (nl * var_l + nr * var_r) / nn
    thr = (xs[..., :-1] + xs[..., 1:]) / 2.0
    # x <= thr goes left, so thr must lie below the right-hand value; that
    # also rejects equal neighbours, and a midpoint that rounds up to the
    # right-hand value, which would send it left
    valid = (thr < xs[..., 1:]) & (nl >= min_leaf) & (nr >= min_leaf)
    gains = np.where(valid, gains, -np.inf).reshape(m, -1)
    # first max in row-major order: lowest feature, then lowest threshold
    best = np.argmax(gains, axis=1)
    found = []
    for g, b, t in zip(gains[rows, best].tolist(), best.tolist(),
                       thr.reshape(m, -1)[rows, best].tolist()):
        found.append((g, b // (w - 1), t) if g > GAIN_TOL else None)
    return found


def _leaf(ys, kind) -> dict:
    if kind == "classifier":
        n1 = int(ys.sum())
        return {"value": [len(ys) - n1, n1]}
    # ys.mean()'s own sum and division, without numpy's Python-level wrapper
    return {"value": float(np.add.reduce(ys) / len(ys))}


def _stops(ys, params, kind) -> bool:
    """True when a node is a leaf before any split search (or draw)."""
    n = len(ys)
    if n < 2 * params.min_samples_leaf:
        return True
    if kind == "classifier":
        n1 = int(ys.sum())
        return n1 == 0 or n1 == n
    if ys.max() - ys.min() > 1e-150:
        return False
    return max(float(ys.var()), 0.0) <= 0.0


class _Node(NamedTuple):
    """A node still to grow; once grown it is stored at ``slot[key]``."""

    slot: list | dict
    key: int | str
    rows: np.ndarray


# a batch's widest node is at most twice its narrowest, so at most half its
# cells are padding; the cell budget keeps a batch's arrays in cache
_BATCH_CELLS = 1 << 14


def _batches(ready, k):
    """Split ``ready`` (sorted by node size) into consecutive batches."""
    start = 0
    for i in range(1, len(ready)):
        width = len(ready[i][1].rows)
        if width > 2 * len(ready[start][1].rows) or (i - start + 1) * k * width > _BATCH_CELLS:
            yield ready[start:i]
            start = i
    yield ready[start:]


def fit_forest(X, y, kind: str = "classifier",
               params: ForestParams = ForestParams()) -> Forest:
    """Fit a random forest ("classifier" or "regressor")."""
    if kind not in ("classifier", "regressor"):
        raise ValueError("kind must be 'classifier' or 'regressor'")
    X, y = _validate_xy(X, y, kind)
    n, n_features = X.shape
    # feature-major, plus a padding sample n: +inf in every feature, 0 in y
    XT = np.hstack([X.T, np.full((n_features, 1), np.inf)])
    y_pad = np.append(y, 0.0)
    if params.max_features == "all":
        k, every = n_features, np.arange(n_features)
    else:
        k, every = max(1, math.isqrt(n_features)), None
    streams = [Stream(params.seed + t) for t in range(params.n_trees)]
    trees: list = [None] * params.n_trees
    gains = np.zeros((params.n_trees, n_features), dtype=np.float64)
    # per tree, the nodes still to grow; popping takes left before right
    stacks = [[_Node(trees, t, np.asarray(s.integers(n, n)))]
              for t, s in enumerate(streams)]
    while True:
        ready = []  # (tree, node, candidate features, node targets)
        for t, stack in enumerate(stacks):
            while stack:
                node = stack.pop()
                ys = y[node.rows]
                if _stops(ys, params, kind):
                    node.slot[node.key] = _leaf(ys, kind)
                    continue
                drawn = every if every is not None else np.sort(streams[t].choice(n_features, k))
                ready.append((t, node, drawn, ys))
                break  # the tree's next node waits for this node's children
        if not ready:
            break
        ready.sort(key=lambda r: len(r[1].rows))
        for batch in _batches(ready, k):
            sizes = np.array([len(node.rows) for _, node, _, _ in batch])
            index = np.full((len(batch), sizes[-1]), n)
            index[np.arange(sizes[-1]) < sizes[:, None]] = np.concatenate(
                [node.rows for _, node, _, _ in batch])
            features = np.array([f for _, _, f, _ in batch])
            xb = XT[features[:, :, None], index[:, None, :]]
            found = _best_split(xb, y_pad[index], sizes, params.min_samples_leaf, kind)
            for i, ((t, node, _, ys), best) in enumerate(zip(batch, found)):
                if best is None:
                    node.slot[node.key] = _leaf(ys, kind)
                    continue
                gain, j, thr = best
                f = int(features[i, j])
                left = xb[i, j, :len(ys)] <= thr
                split = {"feature": f, "threshold": thr, "left": None, "right": None}
                node.slot[node.key] = split
                gains[t, f] += (len(ys) / n) * gain
                stacks[t].append(_Node(split, "right", node.rows[~left]))
                stacks[t].append(_Node(split, "left", node.rows[left]))
    # adds the trees in order; with one feature numpy sums pairwise, but
    # the importance normalizes to 1 either way
    imp = gains.sum(axis=0) / params.n_trees
    total = imp.sum()
    importances = np.full(n_features, 1.0 / n_features) if total == 0.0 else imp / total
    return Forest(kind=kind, params=params, n_features=n_features,
                  trees=trees, importances=importances)


def _apply_tree(node, X, out, rows):
    if "value" in node:
        v = node["value"]
        if isinstance(v, list):
            out[rows] = 1.0 if v[1] >= v[0] else 0.0  # majority; tie votes positive
        else:
            out[rows] = v
        return
    mask = X[rows, node["feature"]] <= node["threshold"]
    _apply_tree(node["left"], X, out, rows[mask])
    _apply_tree(node["right"], X, out, rows[~mask])


def _tree_outputs(forest: Forest, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise ValueError(f"X must be 2-D with {forest.n_features} features")
    if not np.isfinite(X).all():
        raise ValueError("X must be finite")
    votes = np.empty((len(forest.trees), len(X)), dtype=np.float64)
    rows = np.arange(len(X))
    for i, tree in enumerate(forest.trees):
        _apply_tree(tree, X, votes[i], rows)
    return votes


def predict_proba(forest: Forest, X) -> np.ndarray:
    """P(class 1) per row: fraction of trees whose leaf majority is 1."""
    if forest.kind != "classifier":
        raise ValueError("predict_proba applies to classifiers")
    return _tree_outputs(forest, X).mean(axis=0)


def predict(forest: Forest, X) -> np.ndarray:
    """Class labels (proba >= 0.5 -> 1) or regression means."""
    out = _tree_outputs(forest, X).mean(axis=0)
    if forest.kind == "classifier":
        return (out >= 0.5).astype(np.int64)
    return out

