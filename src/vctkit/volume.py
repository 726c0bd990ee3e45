"""Voxel grids, CT volumes, and label maps.

World convention is RAS: axis 0 grows toward patient Right, axis 1 toward
Anterior, axis 2 toward Superior.  A voxel's world position is
``origin + index * spacing`` (mm).  Arrays are indexed ``[x, y, z]`` and
held in C order, in memory and in a CTV payload alike, so the linear index
is z-fastest::

    linear = z + dims[2] * (y + dims[1] * x)

Every grid is in this frame and every volume in HU, so neither is a field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

HU_MIN = -1024
HU_MAX = 3071

VOLUME_DTYPES = {"int16": np.int16, "float32": np.float32}
LABEL_DTYPES = {"uint8": np.uint8, "uint16": np.uint16}

TISSUE_CLASSES = {
    0: "background",
    1: "body",
    2: "fat",
    3: "muscle",
    4: "bone",
}

STRUCTURE_CLASSES = {
    1: "bone",
    2: "spleen",
    3: "kidney",
    4: "liver",
    5: "lung_upper_lobes",
    6: "lung_lower_lobes",
    7: "lung_middle_lobe",
    8: "urinary_bladder",
    9: "prostate",
    10: "heart",
    11: "aorta",
    12: "gluteus_muscles",
    13: "autochthonous_muscles",
    14: "iliopsoas",
    15: "brain",
    16: "appendicular_bones",
}

LANDMARK_CLASSES = {
    20: "c1",
    21: "c2",
    22: "c7",
    23: "femur_left",
    24: "femur_right",
    25: "tibia_left",
    26: "tibia_right",
    27: "hip_left",
    28: "hip_right",
    29: "clavicle_left",
    30: "clavicle_right",
    31: "scapula_left",
    32: "scapula_right",
}

# full class table of a structure map: merged organ classes plus landmarks
STRUCTURE_TABLE = {**STRUCTURE_CLASSES, **LANDMARK_CLASSES}

# the one name -> id map of each table, read by painting and measurement
TISSUE_IDS = {name: label for label, name in TISSUE_CLASSES.items()}
STRUCTURE_IDS = {name: label for label, name in STRUCTURE_TABLE.items()}


# voxels per chunk of LabelMap validation's range tests
_CHECK_CHUNK = 1 << 18
# voxels per chunk of present_labels: np.bincount casts its input to intp,
# so a chunk's copy is 128 kB
_BINCOUNT_CHUNK = 1 << 14


def _missing_runs(class_table: dict, top: int) -> list[tuple[int, int]]:
    """Inclusive (lo, hi) runs of the values 1..top that the table lacks."""
    runs, expect = [], 1
    for k in sorted(k for k in class_table if 1 <= k <= top) + [top + 1]:
        if k > expect:
            runs.append((expect, k - 1))
        expect = k + 1
    return runs


def present_labels(data: np.ndarray) -> list[int]:
    """The distinct values of an unsigned integer label array, ascending.

    Values are counted by one chunked bincount, a flat chunk of
    ``_BINCOUNT_CHUNK`` voxels at a time, so no whole-grid copy is made.
    """
    # order="K": the counts do not depend on the order, so a contiguous
    # map a caller built in F order is read through a view too
    flat = data.ravel(order="K")
    counts = np.zeros(0, dtype=np.int64)
    for start in range(0, flat.size, _BINCOUNT_CHUNK):
        part = np.bincount(flat[start:start + _BINCOUNT_CHUNK])
        if part.size > counts.size:
            counts, part = part, counts  # the longer one accumulates
        counts[:part.size] += part
    return np.flatnonzero(counts).tolist()


@dataclass(frozen=True)
class Grid:
    """Geometry of a voxel grid in the RAS world frame."""

    dims: tuple[int, int, int]
    spacing_mm: tuple[float, float, float]
    origin_mm: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if len(self.dims) != 3 or any(int(d) != d or d < 1 for d in self.dims):
            raise ValueError(f"dims must be three positive integers, got {self.dims}")
        if len(self.spacing_mm) != 3 or any(
            not math.isfinite(s) or s <= 0 for s in self.spacing_mm
        ):
            raise ValueError(f"spacing_mm must be three positive numbers, got {self.spacing_mm}")
        if len(self.origin_mm) != 3 or any(not math.isfinite(o) for o in self.origin_mm):
            raise ValueError(f"origin_mm must be three finite numbers, got {self.origin_mm}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "spacing_mm", tuple(float(s) for s in self.spacing_mm))
        object.__setattr__(self, "origin_mm", tuple(float(o) for o in self.origin_mm))

    @property
    def n_voxels(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    def axis_coords(self, axis: int) -> np.ndarray:
        """World coordinates of voxel centers along one axis."""
        return (
            np.arange(self.dims[axis], dtype=np.float64) * self.spacing_mm[axis]
            + self.origin_mm[axis]
        )


def voxel_volume_mm3(grid: Grid) -> float:
    sx, sy, sz = grid.spacing_mm
    return sx * sy * sz


def clamp_hu(data: np.ndarray) -> np.ndarray:
    """Clamp HU values into [-1024, 3071] in place (applied at load time)."""
    return np.clip(data, HU_MIN, HU_MAX, out=data)


def _check_shape(grid: Grid, data: np.ndarray, what: str):
    if tuple(data.shape) != grid.dims:
        raise ValueError(f"{what} shape {data.shape} does not match grid dims {grid.dims}")


@dataclass(frozen=True)
class Volume:
    """A scalar image on a grid, in HU."""

    grid: Grid
    data: np.ndarray

    def __post_init__(self):
        _check_shape(self.grid, self.data, "volume")
        if self.data.dtype not in (np.int16, np.float32):
            raise ValueError(f"volume dtype must be int16 or float32, got {self.data.dtype}")


@dataclass(frozen=True)
class LabelMap:
    """An integer label image; either a tissue map or a structure map."""

    grid: Grid
    data: np.ndarray
    kind: str
    class_table: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        _check_shape(self.grid, self.data, "label map")
        if self.kind not in ("tissue", "structure"):
            raise ValueError(f"kind must be 'tissue' or 'structure', got {self.kind!r}")
        if self.data.dtype not in (np.uint8, np.uint16):
            raise ValueError(f"label dtype must be uint8 or uint16, got {self.data.dtype}")
        # values above the maximum cannot occur, so only the runs of 1..max the
        # table lacks need a look: one unsigned range test per run (values
        # below a run wrap round to large ones), one flat chunk at a time so
        # its temporaries stay bounded. Only a failing map pays for listing
        # its unknown values.
        kind = self.data.dtype.type
        runs = _missing_runs(self.class_table, int(self.data.max()))
        flat = self.data.ravel(order="K")  # order-free, as in present_labels
        chunks = (flat[i:i + _CHECK_CHUNK] for i in range(0, flat.size, _CHECK_CHUNK))
        if not any((np.subtract(chunk, kind(lo), dtype=chunk.dtype) <= kind(hi - lo)).any()
                   for chunk in chunks for lo, hi in runs):
            return
        unknown = [v for v in present_labels(self.data) if v != 0 and v not in self.class_table]
        raise ValueError(f"label values {unknown} missing from class_table")

    def body_mask(self) -> np.ndarray:
        return self.data != 0


class LabelIndex:
    """Every label's voxels of a label map, compacted in one pass over the grid.

    It stores the flat C-order positions of the nonzero voxels, sorted stably
    by label, and one run (a slice) of them per label, whose positions ascend.
    A label's count, voxel indices, exact index sums, box and Dice overlap
    are computed when asked, from that label's run alone.
    """

    def __init__(self, labelmap: LabelMap):
        data = labelmap.data
        self.grid = labelmap.grid
        self.data = data
        flat = data.ravel()  # a view of a C-ordered map
        # nonzero() of a bool mask is several times faster than of the labels
        positions = np.flatnonzero(flat != 0)
        values = flat[positions]
        self._positions = positions[np.argsort(values, kind="stable")]
        counts = np.bincount(values)
        labels = np.flatnonzero(counts).tolist()
        ends = np.cumsum(counts[labels]).tolist()
        self._runs = {c: slice(end - int(counts[c]), end) for c, end in zip(labels, ends)}
        self.labels = tuple(self._runs)

    def coords(self, label: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-axis voxel indices of a present label, in C order."""
        return np.unravel_index(self._positions[self._runs[label]], self.data.shape)

    def box(self, label: int) -> tuple[slice, slice, slice] | None:
        """Index box of a label, or None if the label is absent."""
        if label not in self._runs:
            return None
        return tuple(slice(int(c.min()), int(c.max()) + 1) for c in self.coords(label))

    def mask(self, label: int):
        """(submask, box) of a label, or None if the label is absent."""
        sl = self.box(label)
        return None if sl is None else (self.data[sl] == label, sl)

    def count(self, label: int) -> int:
        """Voxel count of a label; 0 if it is absent."""
        run = self._runs.get(label)
        return 0 if run is None else run.stop - run.start

    def index_sum(self, label: int) -> tuple[int, int, int]:
        """Exact per-axis sum of a present label's voxel indices."""
        return tuple(int(c.sum(dtype=np.int64)) for c in self.coords(label))

    def overlaps(self, other: LabelIndex) -> dict[int, int]:
        """Per label of this map, how many of its voxels hold the same label in ``other``."""
        flat = other.data.ravel()
        return {c: int(np.count_nonzero(flat[self._positions[run]] == c))
                for c, run in self._runs.items()}
