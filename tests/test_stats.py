"""Z-score, p-values, bootstrap, Pearson, and weighting identities."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vctkit import stats, trial
from vctkit.rng import Stream
from vctkit.stats import (
    bootstrap_ci,
    importance_weights,
    normal_cdf,
    pearson,
    percentile_ci,
    weighted_mae,
    z_score,
    z_test_p,
)

finite_lists = st.lists(
    st.floats(-100, 100, allow_nan=False, allow_infinity=False),
    min_size=2, max_size=40)


def test_z_score_hand_case():
    assert z_score([1, 2, 3], [4, 5, 6]) == pytest.approx(-3 / math.sqrt(2 / 3))


def test_z_score_identical_lists_zero():
    x = [0.3, 1.7, 2.9, 4.1]
    assert z_score(x, x) == 0.0


@given(finite_lists, finite_lists)
def test_z_score_antisymmetric(x, y):
    try:
        z1 = z_score(x, y)
    except ValueError:
        return
    assert z_score(y, x) == pytest.approx(-z1, rel=1e-12, abs=1e-12)


def test_z_score_degenerate_conventions():
    assert z_score([2.0, 2.0], [2.0, 2.0]) == 0.0
    with pytest.raises(ValueError, match="infinite"):
        z_score([1.0, 1.0], [2.0, 2.0])
    with pytest.raises(ValueError):
        z_score([1.0], [1.0, 2.0])


def test_z_test_p_reference_values():
    assert z_test_p(0.0) == 1.0
    assert z_test_p(1.959964) == pytest.approx(0.05, abs=1e-6)
    assert z_test_p(3.0) == pytest.approx(0.0026998, abs=1e-6)
    assert z_test_p(-3.0) == z_test_p(3.0)


def test_normal_cdf_symmetry():
    assert normal_cdf(0.0) == pytest.approx(0.5)
    assert normal_cdf(1.0) + normal_cdf(-1.0) == pytest.approx(1.0)


def test_pearson_hand_cases():
    x = [1.0, 2.0, 3.0, 4.0]
    assert pearson(x, x) == pytest.approx(1.0)
    assert pearson(x, [-2 * v + 7 for v in x]) == pytest.approx(-1.0)
    assert pearson(x, [1.0, 3.0, 2.0, 4.0]) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        pearson(x, [2.0, 2.0, 2.0, 2.0])


def test_weighted_mae_identities():
    e = [1.0, -1.0, 2.0]
    assert weighted_mae(e, [5.0, 5.0, 5.0]) == pytest.approx(np.abs(e).mean())
    assert weighted_mae(e, [0.0, 0.0, 3.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        weighted_mae(e, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        weighted_mae(e, [1.0, -1.0, 1.0])


def test_bootstrap_constant_samples():
    lo, hi = bootstrap_ci([4.2] * 10, n_boot=200, seed=3)
    assert lo == hi == pytest.approx(4.2)


def test_bootstrap_deterministic_and_chunk_invariant(monkeypatch):
    x = np.linspace(-2, 5, 37)
    a = bootstrap_ci(x, n_boot=5000, seed=11)
    b = bootstrap_ci(x, n_boot=5000, seed=11)
    assert a == b
    c = bootstrap_ci(x, n_boot=5000, seed=12)
    assert a != c
    # a budget of 7 resamples and a bit: 714 chunks of 7 and one of 2
    monkeypatch.setattr(stats, "_BOOT_INDEX_BUDGET", 37 * 7 + 3)
    assert bootstrap_ci(x, n_boot=5000, seed=11) == a


def test_bootstrap_rejects_bad_args():
    with pytest.raises(ValueError):
        bootstrap_ci([])
    with pytest.raises(ValueError):
        bootstrap_ci([1.0, 2.0], level=1.0)


def test_percentile_ci_draws_one_matrix_per_size_in_order():
    seen = []

    def statistic(ix, iy):
        seen.append((ix, iy))
        return ix[:, 0] - iy[:, 0]

    percentile_ci(statistic, (7, 4), 50, 0.9, 123)
    stream = Stream(123)
    expect_x = stream.integers(50 * 7, 7).reshape(50, 7)
    expect_y = stream.integers(50 * 4, 4).reshape(50, 4)
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0][0], expect_x)
    np.testing.assert_array_equal(seen[0][1], expect_y)


def test_percentile_ci_chunks_leave_one_size_interval_identical(monkeypatch):
    x = np.linspace(-2, 5, 37)
    whole = bootstrap_ci(x, n_boot=1001, seed=11)
    calls = []
    real = Stream.integers
    monkeypatch.setattr(Stream, "integers",
                        lambda self, n, upper: calls.append(n) or real(self, n, upper))
    monkeypatch.setattr(stats, "_BOOT_INDEX_BUDGET", 37 * 100)
    assert bootstrap_ci(x, n_boot=1001, seed=11) == whole
    assert calls == [37 * 100] * 10 + [37]
    # two sizes: each size's draws sit where the one-chunk call makes them
    x, y = np.linspace(0, 3, 150), np.linspace(0.5, 2, 75)

    def mean_diff(ix, iy):
        return x[ix].mean(axis=1) - y[iy].mean(axis=1)

    monkeypatch.setattr(stats, "_BOOT_INDEX_BUDGET", 4_000_000)
    whole = percentile_ci(mean_diff, (150, 75), 2000, 0.95, 3)
    assert whole == pytest.approx((0.07967, 0.42597), abs=5e-6)
    calls.clear()
    monkeypatch.setattr(stats, "_BOOT_INDEX_BUDGET", 10_000)
    assert percentile_ci(mean_diff, (150, 75), 2000, 0.95, 3) == whole
    assert calls == [44 * 150, 44 * 75] * 45 + [20 * 150, 20 * 75]


def _production_intervals(sizes, n_boot, level, seed):
    """The bootstrap mean and importance-weighted MAE intervals for one size,
    the Z interval for two, each through the function the trial calls."""
    data = np.random.default_rng(seed)
    xs = [data.normal(size=n) for n in sizes]
    if len(sizes) == 2:
        return [trial._z_ci(*xs, n_boot, level, seed)]
    p_ood = data.uniform(0.0, 1.0, size=sizes[0])
    with mock.patch.object(trial, "encode_attributes", lambda attrs: attrs), \
            mock.patch.object(trial, "predict_proba", lambda forest, X: p_ood):
        weighted = trial.weighted_degradation_estimate(xs[0], None, None, (0.7, 0.3),
                                                       n_boot, level, seed)[1]
    return [bootstrap_ci(xs[0], n_boot, level, seed), weighted]


@settings(max_examples=200)  # each example takes about 10 ms
@given(st.data(), st.integers(1, 2), st.integers(3, 150),
       st.sampled_from([0.5, 0.9, 0.95]), st.integers(0, 2**32))
def test_percentile_ci_intervals_are_equal_under_any_two_budgets(data, n_sizes, n_boot,
                                                                 level, seed):
    # the trial's z_score, which runs before each Z interval, needs two samples per list
    sizes = data.draw(st.lists(st.integers(2 if n_sizes == 2 else 1, 400),
                               min_size=n_sizes, max_size=n_sizes))
    total = sum(sizes)
    # the first budget's chunk leaves a short last chunk; the second is any
    # budget, often one under sum(sizes), whose chunks hold one resample
    chunk = data.draw(st.integers(2, n_boot - 1).filter(lambda c: n_boot % c))
    budgets = (chunk * total + data.draw(st.integers(0, total - 1)),
               data.draw(st.integers(1, total) | st.integers(1, 2 * n_boot * total)))
    intervals = []
    for budget in budgets:
        with mock.patch.object(stats, "_BOOT_INDEX_BUDGET", budget):
            intervals.append(_production_intervals(sizes, n_boot, level, seed))
    assert intervals[0] == intervals[1]


def test_bootstrap_traced_peak(traced_peak):
    _, peak = traced_peak(bootstrap_ci, np.linspace(0, 1, 300), n_boot=10_000)
    assert peak <= 4 << 20
    x, y = np.linspace(0, 3, 300), np.linspace(0.5, 2, 75)
    _, peak = traced_peak(trial._z_ci, x, y, 2000, 0.95, 3)
    assert peak <= 4 << 20


@pytest.mark.parametrize("n_boot, level", [(0, 0.95), (-3, 0.95), (10, 0.0), (10, 1.0)])
def test_percentile_ci_rejects_bad_args(n_boot, level):
    with pytest.raises(ValueError, match="n_boot" if n_boot < 1 else "level"):
        percentile_ci(lambda idx: idx.mean(axis=1), (5,), n_boot, level, 0)


def test_importance_weights_hand_case():
    w = importance_weights([0.75], 0.5, 0.5)
    assert w[0] == pytest.approx(3.0)


def test_importance_weights_constant_p_identity():
    # constant p_ood = prior_ood makes weighting a no-op on the MAE
    e = [0.5, 1.5, 2.5, 0.1]
    prior_ood = 0.3
    w = importance_weights([prior_ood] * 4, 0.7, 0.3)
    assert weighted_mae(e, w) == pytest.approx(np.abs(e).mean(), abs=1e-12)


def test_importance_weights_clip_at_one():
    w = importance_weights([1.0], 0.5, 0.5)
    assert w[0] == pytest.approx((1 - 1e-6) / 1e-6)
    assert math.isfinite(w[0])


def test_importance_weights_validation():
    with pytest.raises(ValueError):
        importance_weights([0.5], 0.6, 0.6)
    with pytest.raises(ValueError):
        importance_weights([1.5], 0.5, 0.5)
    with pytest.raises(ValueError):
        importance_weights([0.5], -0.5, 1.5)


@given(finite_lists)
def test_bootstrap_interval_ordered(xs):
    lo, hi = bootstrap_ci(xs, n_boot=200, seed=1)
    assert lo <= hi
    assert min(xs) - 1e-9 <= lo and hi <= max(xs) + 1e-9
