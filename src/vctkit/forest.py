"""From-scratch random forest with fully deterministic construction.

Determinism contract:

* tree ``t`` uses the counter stream seeded with ``params.seed + t``;
* each tree trains on a bootstrap resample of size n drawn from its stream;
* at a node, ``max_features`` candidates are drawn without replacement
  ("sqrt" means ``max(1, isqrt(n_features))``, "all" means every feature);
* split thresholds are midpoints of consecutive distinct sorted values and
  rows go left when ``x <= threshold``;
* the best split maximizes impurity decrease (Gini for classification,
  variance for regression); ties break toward the lowest feature index,
  then the lowest threshold;
* growth stops when a node is pure, a split would violate
  ``min_samples_leaf``, or the best decrease is <= 1e-12.

A node scores all its candidate features in one pass over a k x n block
(one sort, one cumulative sum and one gain array for all k), with the
per-feature arithmetic unchanged, so the trees equal a feature-by-feature
scan's bit for bit; the regressor's parent variance stays one scalar per
feature, because a scalar ``** 2`` (libm ``pow``) and an array ``** 2``
(an exact square) can differ in the last bit and so move a split.

``predict_proba`` is the fraction of trees whose leaf majority is class 1
(ties vote 1).  Feature importance is mean decrease in impurity, averaged
over trees and normalized to sum 1 (uniform if all zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import Stream

GAIN_TOL = 1e-12


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    min_samples_leaf: int = 10
    max_features: str = "sqrt"
    max_depth: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be positive")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be positive")
        if self.max_features not in ("sqrt", "all"):
            raise ValueError("max_features must be 'sqrt' or 'all'")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be nonnegative")


REGRESSOR_PARAMS = ForestParams(n_trees=100, min_samples_leaf=5)


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


def _gini(c1: float, n: float) -> float:
    p1 = c1 / n
    return 1.0 - p1 * p1 - (1.0 - p1) * (1.0 - p1)


def _best_split(block, ys, min_leaf, kind):
    """Best (gain, column, threshold) over a node's candidate columns, or None.

    ``block`` is k x n: one row per candidate feature, in ascending feature
    order, one column per node sample.  Each step runs once for all k rows;
    the arithmetic per row is the one-feature CART scan's, so gains and
    tie-breaks are bit-identical to scanning the features one at a time.
    """
    n = len(ys)
    order = np.argsort(block, axis=1, kind="stable")
    xs = np.sort(block, axis=1, kind="stable")  # == block gathered by order
    yo = ys[order]
    nl = np.arange(1, n, dtype=np.float64)
    nr = n - nl
    if kind == "classifier":
        cum1 = np.cumsum(yo, axis=1)
        c1l = cum1[:, :-1]
        c1r = cum1[:, -1:] - c1l
        parent = _gini(float(cum1[0, -1]), n)  # a count: the same in every row
        p1l = c1l / nl
        p1r = c1r / nr
        gini_l = 1.0 - p1l * p1l - (1.0 - p1l) * (1.0 - p1l)
        gini_r = 1.0 - p1r * p1r - (1.0 - p1r) * (1.0 - p1r)
        gains = parent - (nl * gini_l + nr * gini_r) / n
    else:
        cy = np.cumsum(yo, axis=1)
        cy2 = np.cumsum(yo * yo, axis=1)
        var_l = np.maximum(cy2[:, :-1] / nl - (cy[:, :-1] / nl) ** 2, 0.0)
        var_r = np.maximum((cy2[:, -1:] - cy2[:, :-1]) / nr
                           - ((cy[:, -1:] - cy[:, :-1]) / nr) ** 2, 0.0)
        # the parent stays a scalar per row: a scalar ** 2 is libm pow, an
        # array ** 2 an exact square, and the two can differ in the last bit
        parent = np.array([[max(float(s2 / n - (s / n) ** 2), 0.0)]
                           for s, s2 in zip(cy[:, -1], cy2[:, -1])])
        gains = parent - (nl * var_l + nr * var_r) / n
    thr = (xs[:, :-1] + xs[:, 1:]) / 2.0
    # x <= thr goes left, so thr must lie below the right-hand value; that
    # also rejects equal neighbours, and a midpoint that rounds up to the
    # right-hand value, which would send it left
    valid = (thr < xs[:, 1:]) & (nl >= min_leaf) & (nr >= min_leaf)
    gains = np.where(valid, gains, -np.inf)
    # first max in row-major order: lowest feature, then lowest threshold
    j, i = divmod(int(np.argmax(gains)), n - 1)
    if not gains[j, i] > GAIN_TOL:
        return None
    return float(gains[j, i]), j, float(thr[j, i])


def _node_impurity(ys, kind) -> float:
    n = len(ys)
    if kind == "classifier":
        return _gini(float(ys.sum()), n)
    return max(float(ys.var()), 0.0)


def _grow(XT, y, rows, depth, params, kind, stream, importances, n_total):
    ys = y[rows]
    n = len(rows)

    def leaf():
        if kind == "classifier":
            n1 = int(ys.sum())
            return {"value": [n - n1, n1]}
        return {"value": float(ys.mean())}

    if n < 2 * params.min_samples_leaf:
        return leaf()
    if params.max_depth is not None and depth >= params.max_depth:
        return leaf()
    if _node_impurity(ys, kind) <= 0.0:
        return leaf()

    n_features = XT.shape[0]
    if params.max_features == "all":
        candidates = np.arange(n_features)
    else:
        k = max(1, math.isqrt(n_features))
        candidates = stream.choice(n_features, k)

    features = sorted(int(c) for c in candidates)
    block = XT[features][:, rows]
    best = _best_split(block, ys, params.min_samples_leaf, kind)
    if best is None:
        return leaf()

    gain, j, thr = best
    f = features[j]
    mask = block[j] <= thr
    left_rows = rows[mask]
    right_rows = rows[~mask]
    importances[f] += (n / n_total) * gain
    return {
        "feature": f,
        "threshold": thr,
        "left": _grow(XT, y, left_rows, depth + 1, params, kind, stream, importances, n_total),
        "right": _grow(XT, y, right_rows, depth + 1, params, kind, stream, importances, n_total),
    }


def fit_forest(X, y, kind: str = "classifier",
               params: ForestParams = ForestParams()) -> Forest:
    """Fit a random forest ("classifier" or "regressor")."""
    if kind not in ("classifier", "regressor"):
        raise ValueError("kind must be 'classifier' or 'regressor'")
    X, y = _validate_xy(X, y, kind)
    n, n_features = X.shape
    XT = np.ascontiguousarray(X.T)  # feature-major: a node gathers its rows per feature
    trees = []
    imp = np.zeros(n_features, dtype=np.float64)
    for t in range(params.n_trees):
        stream = Stream(params.seed + t)
        boot = np.asarray(stream.integers(n, n))
        tree_imp = np.zeros(n_features, dtype=np.float64)
        root = _grow(XT, y, boot, 0, params, kind, stream, tree_imp, n)
        trees.append(root)
        imp += tree_imp
    imp /= params.n_trees
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

