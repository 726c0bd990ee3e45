"""Statistical primitives: Z-scores, bootstrap CIs, correlation, weighting.

The two-sample Z-score compares list means under sample variances::

    z = (mean(x) - mean(y)) / sqrt(var(x)/|x| + var(y)/|y|)

with variances using the n-1 denominator.  Its two-sided p-value is
``2 * (1 - Phi(|z|))`` with the normal CDF evaluated through ``math.erf``.
Confidence intervals are percentile bootstrap with a seeded stream.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import Stream


def _check_finite_1d(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1 or len(a) == 0:
        raise ValueError(f"{name} must be a nonempty 1-D sequence")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def z_score(x, y) -> float:
    """Two-sample Z comparing mean(x) against mean(y)."""
    a = _check_finite_1d(x, "x")
    b = _check_finite_1d(y, "y")
    if len(a) < 2 or len(b) < 2:
        raise ValueError("z_score needs at least two samples per list")
    num = float(a.mean() - b.mean())
    denom_sq = a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b)
    if denom_sq == 0.0:
        if num == 0.0:
            return 0.0
        raise ValueError("zero variance in both lists with differing means (infinite z)")
    return num / math.sqrt(denom_sq)


def normal_cdf(t: float) -> float:
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


def z_test_p(z: float) -> float:
    """Two-sided normal p-value of a Z statistic."""
    if not math.isfinite(z):
        raise ValueError("z must be finite")
    return 2.0 * (1.0 - normal_cdf(abs(z)))


def pearson(x, y) -> float:
    a = _check_finite_1d(x, "x")
    b = _check_finite_1d(y, "y")
    if a.shape != b.shape:
        raise ValueError("pearson inputs must have equal length")
    if len(a) < 2:
        raise ValueError("pearson needs at least two points")
    sa = a - a.mean()
    sb = b - b.mean()
    va = float(sa @ sa)
    vb = float(sb @ sb)
    if va == 0.0 or vb == 0.0:
        raise ValueError("pearson is undefined for constant input")
    return float(sa @ sb) / math.sqrt(va * vb)


def weighted_mae(errors, weights) -> float:
    """sum(w * |e|) / sum(w)."""
    e = _check_finite_1d(errors, "errors")
    w = _check_finite_1d(weights, "weights")
    if e.shape != w.shape:
        raise ValueError("errors and weights must have equal length")
    if (w < 0).any():
        raise ValueError("weights must be nonnegative")
    total = float(w.sum())
    if total <= 0.0:
        raise ValueError("weights sum to zero")
    return float((w * np.abs(e)).sum() / total)


# Indices drawn per chunk of resamples.  At 1 << 16 a chunk's int64 index
# matrix and its gathered float64 matrix are 512 KB each, so both stay in a
# core's L2 cache (1-2 MB on current x86 cores) while the statistic reads them.
_BOOT_INDEX_BUDGET = 1 << 16


def percentile_ci(statistic, sizes, n_boot: int, level: float,
                  seed: int) -> tuple[float, float]:
    """Seeded percentile-bootstrap interval of ``statistic(*idx)``.

    ``idx`` holds one ``(b, n)`` index matrix per ``n`` of ``sizes`` for a
    chunk of ``b`` resamples.  A chunk holds as many resamples as fit in
    ``_BOOT_INDEX_BUDGET`` indices, and at least one, so it draws
    ``sum(sizes)`` indices when that exceeds the budget.  Over all chunks,
    size ``n``'s matrices are the ``n_boot * n`` draws of ``Stream(seed)``
    that follow those of the sizes before it, so the chunk size changes no
    draw.
    """
    if n_boot < 1:
        raise ValueError("n_boot must be positive")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    streams, drawn = [], 0
    for n in sizes:
        streams.append(Stream(seed).skip(drawn))
        drawn += n_boot * n
    stats = np.empty(n_boot, dtype=np.float64)
    chunk = max(1, min(n_boot, _BOOT_INDEX_BUDGET // max(sum(sizes), 1)))
    for done in range(0, n_boot, chunk):
        b = min(chunk, n_boot - done)
        stats[done:done + b] = statistic(
            *(stream.integers(b * n, n).reshape(b, n) for stream, n in zip(streams, sizes)))
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(stats, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def bootstrap_ci(samples, n_boot: int = 10000, level: float = 0.95,
                 seed: int = 0) -> tuple[float, float]:
    """Seeded percentile-bootstrap confidence interval of the mean."""
    x = _check_finite_1d(samples, "samples")
    return percentile_ci(lambda idx: x[idx].mean(axis=1), (len(x),), n_boot, level, seed)


def importance_weights(p_ood, prior_id: float, prior_ood: float) -> np.ndarray:
    """Density-ratio weights w = p/(1-p) * prior_id/prior_ood.

    ``p_ood`` are classifier probabilities in [0, 1]; they are clipped to at
    most 1 - 1e-6 before the odds ratio.  Priors must be positive and sum
    to 1 within 1e-9.
    """
    p = np.asarray(p_ood, dtype=np.float64)
    if p.ndim != 1 or len(p) == 0:
        raise ValueError("p_ood must be a nonempty 1-D sequence")
    if not np.isfinite(p).all() or (p < 0).any() or (p > 1).any():
        raise ValueError("p_ood values must lie in [0, 1]")
    if prior_id <= 0 or prior_ood <= 0:
        raise ValueError("priors must be positive")
    if abs(prior_id + prior_ood - 1.0) > 1e-9:
        raise ValueError("priors must sum to 1")
    p = np.minimum(p, 1.0 - 1e-6)
    return p / (1.0 - p) * (prior_id / prior_ood)
