"""Anatomy agreement metrics: Dice, volumes and relative centroids, cohort consistency.

Cohort-level distribution agreement uses Q-Q correlation: per structure
class, sort each cohort's values, take ``min(n1, n2)`` evenly spaced
quantiles of each, and report the Pearson correlation between the two
quantile vectors.  This measures whether the two distributions agree up to
the identity line, and is invariant to affine rescaling of either sample.
"""

from __future__ import annotations

import warnings

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


# the columns of consistency.csv; a row of the table holds the six after "class"
CONSISTENCY_HEADER = ["class", "dice_mean", "dice_std", "volume_corr",
                      "centroid_R", "centroid_A", "centroid_S"]


def _class_name(c: int) -> str:
    return STRUCTURE_CLASSES.get(c, f"class_{c}")


def _qq_or_none(a, b) -> float | None:
    try:
        return qq_pearson(a, b)
    except ValueError:
        return None


def cohort_consistency(a: list[dict[int, dict]], b: list[dict[int, dict]],
                       dice: list[dict[int, float]]) -> dict[int, list]:
    """Cross-cohort agreement per structure class: its row of the cells after
    ``class`` in ``CONSISTENCY_HEADER``.

    ``a`` and ``b`` hold one ``collect_structure_measurements`` dict per
    subject, in any order; ``dice`` holds one ``per_class_dice`` dict per
    subject pair (none when unpaired).  A row is the mean and sample std of
    the class's Dice over the pairs that hold it, then the Q-Q correlations
    of volume and of each centroid axis; a cell without a value is None.
    Classes with fewer than ``CONSISTENCY_MIN_SAMPLES`` subjects in either
    cohort are omitted with a warning.
    """
    rows = {}
    for c in sorted(set().union(*a) & set().union(*b)):
        ma = [s[c] for s in a if c in s]
        mb = [s[c] for s in b if c in s]
        if min(len(ma), len(mb)) < CONSISTENCY_MIN_SAMPLES:
            warnings.warn(f"class {c} ({_class_name(c)}) has fewer than "
                          f"{CONSISTENCY_MIN_SAMPLES} samples in a cohort; "
                          "omitted from consistency table")
            continue
        d = np.array([pair[c] for pair in dice if c in pair], dtype=np.float64)
        if len(d):
            row = [float(d.mean()), float(d.std(ddof=1)) if len(d) >= 2 else 0.0]
        else:
            row = [None, None]
        # one Q-Q cell per column of (volume_mm3, *centroid)
        va, vb = ([(m["volume_mm3"], *m["centroid"]) for m in ms] for ms in (ma, mb))
        rows[c] = row + [_qq_or_none(x, y) for x, y in zip(zip(*va), zip(*vb))]
    return rows


def write_consistency_csv(path, rows: dict[int, list]) -> None:
    """Write ``cohort_consistency`` rows in class order, then the Average row:
    each column's mean over its non-None cells, empty when it has none."""
    classes = sorted(rows)
    average = []
    for j in range(len(CONSISTENCY_HEADER) - 1):
        vals = [rows[c][j] for c in classes if rows[c][j] is not None]
        average.append(float(np.mean(vals)) if vals else None)
    codec.write_csv(path, CONSISTENCY_HEADER,
                    [[_class_name(c), *rows[c]] for c in classes] + [["Average", *average]])
