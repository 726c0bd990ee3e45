"""Deterministic counter-based random streams.

The generator is splitmix64 run in counter mode so draws can be vectorized
and reproduced in any language.  Draw ``i`` of a stream with seed ``s`` is::

    out_i = mix64(mix64(s) + (i + 1) * GOLDEN)        (mod 2**64)

where ``GOLDEN = 0x9E3779B97F4A7C15`` and ``mix64`` is the splitmix64
finalizer::

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Uniform doubles take the top 53 bits: ``(out >> 11) * 2**-53``.  Integer
draws in ``[0, n)`` are ``floor(u * n)``.  Gaussians use Box-Muller on
uniforms; they go through numpy's ``log``, ``cos`` and ``sin``, whose last
bits can depend on the CPU and the numpy build, so only the integer and
uniform draws are reproducible across platforms.  Substreams (per tree, per
subject) are made by re-seeding with an offset or XORed hash of the parent
seed, see callers.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """splitmix64 finalizer on a Python int, modulo 2**64."""
    z = x & MASK64
    z = (z ^ (z >> 30)) * _MIX_1 & MASK64
    z = (z ^ (z >> 27)) * _MIX_2 & MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(_MIX_1)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(_MIX_2)
    return z ^ (z >> np.uint64(31))


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash; used to hash subject ids into stream seeds."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & MASK64
    return h


def subject_seed(cohort_seed: int, index: int) -> int:
    """Per-subject seed: cohort seed XOR hash of the subject index."""
    return (cohort_seed ^ mix64(index + 1)) & MASK64


class Stream:
    """A seeded, counter-based splitmix64 stream."""

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self._base = np.uint64(mix64(self.seed))
        self._counter = 0

    def u64(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit draws."""
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            return _mix64_array(self._base + idx * np.uint64(GOLDEN))

    def skip(self, n: int) -> "Stream":
        """Pass over the next ``n`` draws without making them; returns self."""
        self._counter += n
        return self

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1)."""
        return (self.u64(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def integers(self, n: int, upper: int) -> np.ndarray:
        """n integer draws in [0, upper) as int64, via floor(u * upper)."""
        if upper <= 0:
            raise ValueError("upper must be positive")
        return np.minimum((self.uniform(n) * upper).astype(np.int64), upper - 1)

    def standard_normals(self, rows: int, n: int) -> np.ndarray:
        """(rows, n) standard Gaussians via Box-Muller: row i holds the draws
        of the i-th of ``rows`` consecutive ``normal(n)`` calls.

        Each row takes ``2 * m`` draws, ``m = ceil(n / 2)``: ``m`` for
        ``u1`` on (0, 1], a safe log argument, then ``m`` for ``u2`` on [0, 1).
        """
        m = (n + 1) // 2
        raw = (self.u64(rows * 2 * m) >> np.uint64(11)).reshape(rows, 2, m)
        u1 = (raw[:, 0] + np.uint64(1)).astype(np.float64) * 2.0**-53
        u2 = raw[:, 1].astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        return np.concatenate([r * np.cos(2.0 * np.pi * u2),
                               r * np.sin(2.0 * np.pi * u2)], axis=1)[:, :n]

    def normal(self, n: int, mean: float = 0.0, sd: float = 1.0) -> np.ndarray:
        """n Gaussian draws via Box-Muller."""
        return mean + sd * self.standard_normals(1, n)[0]

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n): argsort of raw draws."""
        return np.argsort(self.u64(n), kind="stable")

    def choice(self, n: int, k: int) -> np.ndarray:
        """k indices drawn from range(n) without replacement."""
        if k > n:
            raise ValueError(f"cannot draw {k} from {n} without replacement")
        return self.permutation(n)[:k]

    # scalar conveniences
    def uniform1(self) -> float:
        return float(self.uniform(1)[0])

    def normal1(self, mean: float = 0.0, sd: float = 1.0) -> float:
        return float(self.normal(1, mean, sd)[0])
