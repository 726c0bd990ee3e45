"""The multi-window L1 loss of the paper's patch-trained image model.

Nothing in the pipeline, the CLI or ``scripts/`` calls it; ROADMAP item 4
deletes it with its tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WindowLossConfig:
    """HU windows and weights of the multi-window L1 loss.

    Windows are half-open ``[lo, hi)`` on the ground-truth value; soft and
    hard ranges must not overlap.  Voxels in neither window take
    ``other_weight``.
    """

    soft_range: tuple[float, float] = (-150.0, 250.0)
    hard_range: tuple[float, float] = (250.0, 3000.0)
    soft_weight: float = 1.0
    hard_weight: float = 0.5
    other_weight: float = 0.1

    def __post_init__(self):
        for name, (lo, hi) in (("soft_range", self.soft_range),
                               ("hard_range", self.hard_range)):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"{name} must be a finite (lo, hi) with lo < hi")
        s0, s1 = self.soft_range
        h0, h1 = self.hard_range
        if s1 > h0 and h1 > s0:
            raise ValueError("soft and hard windows overlap")
        for name, w in (("soft_weight", self.soft_weight),
                        ("hard_weight", self.hard_weight),
                        ("other_weight", self.other_weight)):
            if not (math.isfinite(w) and w >= 0):
                raise ValueError(f"{name} must be finite and nonnegative")


def multi_window_l1(x, x_hat, cfg: WindowLossConfig = WindowLossConfig()) -> float:
    """Mean over voxels of lambda(x) * |x - x_hat|.

    The weight lambda is picked by the window the *ground-truth* value x
    falls in: soft_weight on [soft), hard_weight on [hard), other_weight
    elsewhere.
    """
    x = np.asarray(x, dtype=np.float64)
    xh = np.asarray(x_hat, dtype=np.float64)
    if x.shape != xh.shape or x.size == 0:
        raise ValueError("x and x_hat must be nonempty arrays of equal shape")
    if not (np.isfinite(x).all() and np.isfinite(xh).all()):
        raise ValueError("loss inputs must be finite")
    lam = np.full(x.shape, cfg.other_weight, dtype=np.float64)
    s0, s1 = cfg.soft_range
    h0, h1 = cfg.hard_range
    lam[(x >= s0) & (x < s1)] = cfg.soft_weight
    lam[(x >= h0) & (x < h1)] = cfg.hard_weight
    return float((lam * np.abs(x - xh)).mean())
