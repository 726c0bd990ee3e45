"""Random forest: splits, determinism, probabilities, importances."""

import hashlib
import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vctkit.forest import (
    GAIN_TOL,
    Forest,
    ForestParams,
    REGRESSOR_PARAMS,
    _best_split,
    _gini,
    fit_forest,
    predict,
    predict_proba,
)
from vctkit.rng import Stream


def forest_to_json(forest: Forest) -> str:
    """Canonical dump of a fitted forest: equal strings mean equal forests."""
    payload = {
        "kind": forest.kind,
        # the digests below were recorded while ForestParams still had a
        # max_depth field (None in each); the key keeps the format they hash
        "params": {**asdict(forest.params), "max_depth": None},
        "n_features": forest.n_features,
        "importances": [float(v) for v in forest.importances],
        "trees": forest.trees,
    }
    return json.dumps(payload, sort_keys=True)


def _separable(n=200, seed=0):
    stream = Stream(seed)
    X = np.column_stack([stream.uniform(n), stream.uniform(n)])
    y = (X[:, 0] > 0.5).astype(np.float64)
    return X, y


def test_classifier_separable_perfect():
    X, y = _separable()
    forest = fit_forest(X[:150], y[:150], "classifier", ForestParams(seed=4))
    acc = (predict(forest, X[150:]) == y[150:]).mean()
    assert acc == 1.0


def test_same_seed_same_forest():
    X, y = _separable(120, seed=2)
    a = fit_forest(X, y, "classifier", ForestParams(seed=9))
    b = fit_forest(X, y, "classifier", ForestParams(seed=9))
    assert forest_to_json(a) == forest_to_json(b)
    c = fit_forest(X, y, "classifier", ForestParams(seed=10))
    assert forest_to_json(a) != forest_to_json(c)


def test_single_class_probability_one():
    X = np.linspace(0, 1, 30).reshape(-1, 1)
    y = np.ones(30)
    forest = fit_forest(X, y, "classifier", ForestParams(n_trees=10))
    assert (predict_proba(forest, X) == 1.0).all()


def test_proba_is_fraction_of_trees():
    X, y = _separable(200, seed=7)
    forest = fit_forest(X, y, "classifier", ForestParams(n_trees=40, seed=3))
    proba = predict_proba(forest, X)
    np.testing.assert_allclose(proba * 40, np.rint(proba * 40), atol=1e-9)
    assert proba.min() >= 0.0 and proba.max() <= 1.0


def test_regressor_tracks_mean():
    stream = Stream(12)
    X = stream.uniform(300).reshape(-1, 1)
    y = 3.0 * X[:, 0]
    forest = fit_forest(X, y, "regressor", REGRESSOR_PARAMS)
    pred = predict(forest, X)
    assert np.abs(pred - y).mean() < 0.15


def test_single_informative_feature_importance():
    stream = Stream(21)
    X = np.column_stack([stream.uniform(400) for _ in range(4)])
    y = (X[:, 2] > 0.5).astype(np.float64)  # noiseless step on feature 2
    forest = fit_forest(X, y, "classifier",
                        ForestParams(max_features="all", seed=2))
    imp = forest.importances
    assert imp[2] >= 0.8
    assert imp.sum() == pytest.approx(1.0, abs=1e-9)
    assert (imp >= 0).all()


def test_importance_uniform_when_no_splits():
    X = np.ones((30, 3))
    y = np.ones(30)
    forest = fit_forest(X, y, "classifier", ForestParams(n_trees=5))
    np.testing.assert_allclose(forest.importances, [1 / 3] * 3)


def test_min_samples_leaf_enforced():
    X, y = _separable(60, seed=8)
    forest = fit_forest(X, y, "classifier",
                        ForestParams(n_trees=10, min_samples_leaf=10, seed=0))

    def leaf_counts(node):
        if "feature" in node:
            yield from leaf_counts(node["left"])
            yield from leaf_counts(node["right"])
        else:
            yield int(sum(node["value"]))  # classifier leaves hold class counts

    payload = json.loads(forest_to_json(forest))
    for tree in payload["trees"]:
        for count in leaf_counts(tree):
            assert count >= 10


def test_validation_errors():
    X, y = _separable(30)
    with pytest.raises(ValueError):
        fit_forest(np.empty((0, 2)), np.empty(0), "classifier")
    with pytest.raises(ValueError):
        fit_forest(X, y[:-1], "classifier")
    bad = X.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        fit_forest(bad, y, "classifier")
    forest = fit_forest(X, y, "classifier", ForestParams(n_trees=5))
    with pytest.raises(ValueError):
        predict(forest, np.ones((3, 5)))


def test_params_validation():
    with pytest.raises(ValueError):
        ForestParams(n_trees=0)
    with pytest.raises(ValueError):
        ForestParams(min_samples_leaf=0)
    with pytest.raises(ValueError):
        ForestParams(max_features="log2")


# --- split search: node evaluator against the feature-by-feature scan -------


def _best_split_for_feature(xf, ys, min_leaf, kind):
    """Best (gain, threshold) for one feature at a node, or None.

    The one-feature CART scan the node evaluator replaced, kept as its oracle.
    """
    order = np.argsort(xf, kind="stable")
    xs = xf[order]
    n = len(xs)
    distinct = xs[:-1] < xs[1:]
    if not distinct.any():
        return None
    yo = ys[order]
    nl = np.arange(1, n, dtype=np.float64)
    nr = n - nl
    if kind == "classifier":
        cum1 = np.cumsum(yo)
        c1l = cum1[:-1]
        c1r = cum1[-1] - c1l
        parent = _gini(float(cum1[-1]), n)
        p1l = c1l / nl
        p1r = c1r / nr
        gini_l = 1.0 - p1l * p1l - (1.0 - p1l) * (1.0 - p1l)
        gini_r = 1.0 - p1r * p1r - (1.0 - p1r) * (1.0 - p1r)
        gains = parent - (nl * gini_l + nr * gini_r) / n
    else:
        cy = np.cumsum(yo)
        cy2 = np.cumsum(yo * yo)
        var_l = np.maximum(cy2[:-1] / nl - (cy[:-1] / nl) ** 2, 0.0)
        var_r = np.maximum((cy2[-1] - cy2[:-1]) / nr - ((cy[-1] - cy[:-1]) / nr) ** 2, 0.0)
        parent = max(float(cy2[-1] / n - (cy[-1] / n) ** 2), 0.0)
        gains = parent - (nl * var_l + nr * var_r) / n
    thr = (xs[:-1] + xs[1:]) / 2.0
    valid = distinct & (nl >= min_leaf) & (nr >= min_leaf) & (thr < xs[1:])
    if not valid.any():
        return None
    gains = np.where(valid, gains, -np.inf)
    i = int(np.argmax(gains))
    if not gains[i] > GAIN_TOL:
        return None
    return float(gains[i]), float(thr[i])


def _oracle_split(block, ys, min_leaf, kind):
    """(gain, row, threshold) of the best split, one feature (row) at a time."""
    best = None
    for j, xf in enumerate(block):
        found = _best_split_for_feature(xf, ys, min_leaf, kind)
        if found is not None and (best is None or found[0] > best[0]):
            best = (found[0], j, found[1])  # an equal gain on a later feature loses
    return best


def _pad(nodes):
    """A batch of (k x n block, targets) nodes, padded as ``fit_forest`` pads it."""
    sizes = np.array([len(ys) for _, ys in nodes])
    x = np.full((len(nodes), nodes[0][0].shape[0], sizes.max()), np.inf)
    y = np.zeros((len(nodes), sizes.max()))
    for i, (block, ys) in enumerate(nodes):
        x[i, :, :len(ys)] = block
        y[i, :len(ys)] = ys
    return x, y, sizes


@st.composite
def _batch(draw):
    """1-6 nodes of different n sharing k: candidate blocks with ties and constant rows."""
    kind = draw(st.sampled_from(["classifier", "regressor"]))
    k = draw(st.integers(1, 9))
    min_leaf = draw(st.integers(1, 8))
    nodes = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(2, 40))
        rows = []
        for _ in range(k):
            levels = draw(st.integers(0, 12))  # 0 gives a constant row
            rows.append(draw(st.lists(st.integers(0, levels), min_size=n, max_size=n)))
        block = np.array(rows, dtype=np.float64) * draw(st.sampled_from([1.0, 0.1, 1 / 3]))
        if kind == "classifier":
            ys = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                          dtype=np.float64)
        else:
            ys = np.array(draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n)),
                          dtype=np.float64) / draw(st.sampled_from([1.0, 7.0, 10.0]))
        nodes.append((block, ys))
    return kind, nodes, min_leaf


_ONE_PLUS = np.nextafter(1.0, 2.0)


@settings(max_examples=300)  # each example takes a few milliseconds
@given(_batch())
# summed in x-sorted order the node mean is m = -0.37499999999999994, and
# float(m) ** 2 != m * m: a scalar ** 2 (libm pow) and an array ** 2 differ
@example(("regressor", [(np.array([[0.0, 2.0, 1.0, 2.0]]),
                         np.array([-0.6, 0.8, -0.7, -1.0]))], 1))
# equal gains on two features at different thresholds: the lower feature wins
@example(("classifier", [(np.array([[0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 1.0, 0.0]]),
                          np.array([1.0, 1.0, 1.0, 0.0]))], 1))
# the midpoint of 1 + u and 1 + 2u rounds up to 1 + 2u, which cannot separate
@example(("classifier", [(np.array([[1.0, _ONE_PLUS, np.nextafter(_ONE_PLUS, 2.0)]]),
                          np.array([0.0, 0.0, 1.0]))], 1))
# widths 2, 6 and 3 in one batch: the narrow nodes' padding must not split,
# and a constant row and an all-equal target yield no split
@example(("regressor", [
    (np.array([[1.0, 2.0], [5.0, 5.0]]), np.array([0.3, -0.3])),
    (np.array([[3.0, 1.0, 2.0, 1.0, 3.0, 0.0], [0.1, 0.2, 0.2, 0.1, 0.3, 0.3]]),
     np.array([0.5, -0.2, 0.1, -0.2, 0.5, 0.9])),
    (np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 0.0]]), np.array([0.1, 0.1, 0.1])),
], 1))
def test_node_evaluator_matches_feature_scan(case):
    kind, nodes, min_leaf = case
    x, y, sizes = _pad(nodes)
    assert _best_split(x, y, sizes, min_leaf, kind) == [
        _oracle_split(block, ys, min_leaf, kind) for block, ys in nodes]


# --- golden forests ----------------------------------------------------------


def _golden_xy(seed: int, n: int, kind: str, runs: bool = False):
    """Audit-sized data from a fixed stream: 8 features with ties and a constant.

    With ``runs`` the regressor's y is 0.1 wherever feature 3 is at one of its
    two lowest levels, so many nodes hold one repeated value; n copies of 0.1
    often have ``var() > 0`` (n = 3, 6, 7, 12, ...), and such a node still
    draws its candidates.
    """
    stream = Stream(seed)
    X = np.column_stack([stream.uniform(n) for _ in range(8)])
    X[:, 1] = np.round(X[:, 1], 1)  # ties
    X[:, 3] = np.floor(X[:, 3] * 4.0)  # four levels
    X[:, 7] = 1.0  # a constant feature
    noise = stream.normal(n, sd=0.3)
    signal = 2.0 * X[:, 0] + X[:, 3] - X[:, 5] + noise
    if kind == "classifier":
        return X, (signal > np.median(signal)).astype(np.float64)
    return X, np.where(X[:, 3] <= 1.0, 0.1, signal) if runs else signal


# sha256 of forest_to_json, recorded with the feature-by-feature split search
# (the last two with the node-by-node recursive growth)
GOLDEN = [
    ("classifier", 150, 11, ForestParams(n_trees=60, min_samples_leaf=2, seed=3), False,
     "f45c84ae7380eacde19606175ff402af30e0a457fabbaebc339fb1281d6a2908"),
    ("classifier", 240, 12, ForestParams(n_trees=60, seed=4), False,
     "4a486a7830a3316056c74ea7b248785cb247399f9fadd4005957608731a41737"),
    ("regressor", 120, 13, replace(REGRESSOR_PARAMS, n_trees=50, max_features="all", seed=5),
     False, "19a57dd9e6c07cbd2ddcbb7fd84698356c212afdfe4264ec8d578a869d014c46"),
    ("regressor", 300, 14, replace(REGRESSOR_PARAMS, n_trees=50, max_features="all", seed=6),
     False, "19902824d32c305b5ae491c61bc51d385da259f0e615c06258a5b9d274223645"),
    # runs of 0.1: all-equal nodes with var() > 0 draw, and move later draws
    ("regressor", 200, 15, replace(REGRESSOR_PARAMS, n_trees=50, max_features="sqrt", seed=7),
     True, "a7010267388ef0596b609798598e6fade8d431cddd4602b18dd267fa350e0c89"),
]


@pytest.mark.parametrize("kind,n,data_seed,params,runs,digest", GOLDEN,
                         ids=[f"{c[0]}-{c[3].max_features}-{c[1]}" for c in GOLDEN])
def test_golden_forest_digest(kind, n, data_seed, params, runs, digest):
    X, y = _golden_xy(data_seed, n, kind, runs)
    forest = fit_forest(X, y, kind, params)
    assert hashlib.sha256(forest_to_json(forest).encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("cells", [1, 1 << 24], ids=["node-per-batch", "no-cell-limit"])
@pytest.mark.parametrize("case", [GOLDEN[0], GOLDEN[3]],
                         ids=lambda c: f"{c[0]}-{c[3].max_features}-{c[1]}")
def test_batch_budget_does_not_change_a_forest(monkeypatch, case, cells):
    # the batch a node is scored in moves no bit of the forest
    kind, n, data_seed, params, runs, digest = case
    X, y = _golden_xy(data_seed, n, kind, runs)
    monkeypatch.setattr("vctkit.forest._BATCH_CELLS", cells)
    forest = fit_forest(X, y, kind, params)
    assert hashlib.sha256(forest_to_json(forest).encode("utf-8")).hexdigest() == digest
