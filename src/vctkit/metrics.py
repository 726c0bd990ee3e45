"""Anatomy agreement metrics: Dice, volumes and relative centroids, cohort consistency.

Cohort-level distribution agreement uses Q-Q correlation: per structure
class, sort each cohort's values, take ``min(n1, n2)`` evenly spaced
quantiles of each, and report the Pearson correlation between the two
quantile vectors.  This measures whether the two distributions agree up to
the identity line, and is invariant to affine rescaling of either sample.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import codec
from .stats import pearson
from .volume import LabelIndex, LabelMap, STRUCTURE_CLASSES, voxel_volume_mm3

CONSISTENCY_MIN_SAMPLES = 3


def per_class_dice(a: LabelIndex, b: LabelIndex) -> dict[int, float]:
    """Dice 2|A n B| / (|A| + |B|) per class present in either map.

    |A| and |B| are the indexes' counts; |A n B| gathers B at A's compacted
    positions of the class.
    """
    if a.grid != b.grid:
        raise ValueError("dice requires label maps on the same grid")
    inter = a.overlaps(b)
    return {c: 2.0 * inter.get(c, 0) / (a.count(c) + b.count(c))
            for c in sorted(set(a.labels) | set(b.labels))}


def _nonzero_box(data) -> tuple[np.ndarray, np.ndarray]:
    """First and last index per axis of a label map's nonzero voxels."""
    xy = data.any(axis=2)
    present = (xy.any(axis=1), xy.any(axis=0), data.any(axis=(0, 1)))
    if not present[0].any():
        raise ValueError("degenerate input: body mask is empty")
    lo = [int(np.argmax(p)) for p in present]
    hi = [len(p) - 1 - int(np.argmax(p[::-1])) for p in present]
    return np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64)


def collect_structure_measurements(structures: LabelIndex, body: LabelMap) -> dict[int, dict]:
    """Per-class volume (mm^3) and relative centroid for one subject.

    The centroid is normalized to the body's bounding box, in [0,1]^3, in
    RAS axis order; a degenerate (flat) body axis maps to 0.5.  Counts and
    index sums come from the structure map's index.
    """
    if structures.grid != body.grid:
        raise ValueError("structure and body maps must share a grid")
    spacing = np.asarray(structures.grid.spacing_mm)
    origin = np.asarray(structures.grid.origin_mm)
    lo, hi = (v * spacing + origin for v in _nonzero_box(body.data))
    span = hi - lo
    vox = voxel_volume_mm3(structures.grid)
    out = {}
    for c in structures.labels:
        n = structures.count(c)
        # per axis, the exact integer index sum over the grid, divided once
        centroid = np.array([s / n for s in structures.index_sum(c)]) * spacing + origin
        rel = np.where(span > 0, (centroid - lo) / np.where(span > 0, span, 1.0), 0.5)
        out[c] = {"volume_mm3": n * vox,
                  "centroid": (float(rel[0]), float(rel[1]), float(rel[2]))}
    return out


def qq_pearson(a, b) -> float:
    """Pearson correlation of matched quantile vectors of two samples."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    k = min(len(a), len(b))
    if k < 2:
        raise ValueError("Q-Q correlation needs at least two samples per side")
    q = np.linspace(0.0, 1.0, k)
    qa, qb = np.quantile(a, q), np.quantile(b, q)
    if np.array_equal(qa, qb):
        return 1.0  # exactly on y = x; Pearson is 0/0 when also constant
    return pearson(qa, qb)


@dataclass
class ConsistencyRow:
    class_id: int
    class_name: str
    dice_mean: float | None = None
    dice_std: float | None = None
    volume_corr: float | None = None
    centroid_r: float | None = None
    centroid_a: float | None = None
    centroid_s: float | None = None


@dataclass
class ConsistencyTable:
    rows: dict[int, ConsistencyRow] = field(default_factory=dict)

    _COLUMNS = ("dice_mean", "dice_std", "volume_corr",
                "centroid_r", "centroid_a", "centroid_s")

    def average_row(self) -> ConsistencyRow:
        avg = ConsistencyRow(class_id=0, class_name="Average")
        for col in self._COLUMNS:
            vals = [getattr(r, col) for r in self.rows.values() if getattr(r, col) is not None]
            if vals:
                setattr(avg, col, float(np.mean(vals)))
        return avg

    def write_csv(self, path):
        header = ["class", "dice_mean", "dice_std", "volume_corr",
                  "centroid_R", "centroid_A", "centroid_S"]
        codec.write_csv(path, header, [
            [r.class_name] + [getattr(r, col) for col in self._COLUMNS]
            for r in [self.rows[c] for c in sorted(self.rows)] + [self.average_row()]])


def _class_name(c: int) -> str:
    return STRUCTURE_CLASSES.get(c, f"class_{c}")


def paired_dice_stats(per_pair) -> dict[int, tuple[float, float]]:
    """Mean and std of per-class Dice over pairs, one ``per_class_dice`` dict each."""
    samples: dict[int, list[float]] = {}
    for dice in per_pair:
        for c, d in dice.items():
            samples.setdefault(c, []).append(d)
    out = {}
    for c, vals in samples.items():
        arr = np.asarray(vals, dtype=np.float64)
        sd = float(arr.std(ddof=1)) if len(arr) >= 2 else 0.0
        out[c] = (float(arr.mean()), sd)
    return out


def cohort_consistency(a: list[dict[int, dict]], b: list[dict[int, dict]],
                       dice_stats: dict[int, tuple[float, float]] | None = None
                       ) -> ConsistencyTable:
    """Cross-cohort Q-Q agreement per structure class.

    ``a`` and ``b`` hold one ``collect_structure_measurements`` dict per
    subject, in any order.  Classes with fewer than
    ``CONSISTENCY_MIN_SAMPLES`` subjects in either cohort are omitted with a
    warning.  ``dice_stats`` (from paired comparisons) is merged into the
    table when available.
    """
    table = ConsistencyTable()
    for c in sorted(set().union(*a) & set().union(*b)):
        ma = [s[c] for s in a if c in s]
        mb = [s[c] for s in b if c in s]
        if min(len(ma), len(mb)) < CONSISTENCY_MIN_SAMPLES:
            warnings.warn(f"class {c} ({_class_name(c)}) has fewer than "
                          f"{CONSISTENCY_MIN_SAMPLES} samples in a cohort; "
                          "omitted from consistency table")
            continue
        row = ConsistencyRow(class_id=c, class_name=_class_name(c))
        try:
            row.volume_corr = qq_pearson([m["volume_mm3"] for m in ma],
                                         [m["volume_mm3"] for m in mb])
        except ValueError:
            row.volume_corr = None
        ca = np.array([m["centroid"] for m in ma], dtype=np.float64)
        cb = np.array([m["centroid"] for m in mb], dtype=np.float64)
        for axis, col in enumerate(("centroid_r", "centroid_a", "centroid_s")):
            try:
                setattr(row, col, qq_pearson(ca[:, axis], cb[:, axis]))
            except ValueError:
                setattr(row, col, None)
        table.rows[c] = row
    if dice_stats:
        for c, (dm, ds) in dice_stats.items():
            if c in table.rows:
                table.rows[c].dice_mean = dm
                table.rows[c].dice_std = ds
    return table
