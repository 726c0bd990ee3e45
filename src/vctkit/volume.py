"""Voxel grids, CT volumes, and label maps.

World convention is RAS: axis 0 grows toward patient Right, axis 1 toward
Anterior, axis 2 toward Superior.  A voxel's world position is
``origin + index * spacing`` (mm).  Arrays are indexed ``[x, y, z]``; the
serialized linear order is x-fastest::

    linear = x + dims[0] * (y + dims[1] * z)

which corresponds to Fortran raveling of the ``[x, y, z]`` array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

HU_MIN = -1024
HU_MAX = 3071

VOLUME_UNITS = ("HU",)
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

LANDMARK_PAIRS = {
    "hip": (27, 28),
    "clavicle": (29, 30),
    "scapula": (31, 32),
}


class FormatError(ValueError):
    """Malformed file header or payload."""


@dataclass(frozen=True)
class Grid:
    """Geometry of a voxel grid in the RAS world frame."""

    dims: tuple[int, int, int]
    spacing_mm: tuple[float, float, float]
    origin_mm: tuple[float, float, float] = (0.0, 0.0, 0.0)
    orientation: str = "RAS"

    def __post_init__(self):
        if len(self.dims) != 3 or any(int(d) != d or d < 1 for d in self.dims):
            raise ValueError(f"dims must be three positive integers, got {self.dims}")
        if len(self.spacing_mm) != 3 or any(
            not math.isfinite(s) or s <= 0 for s in self.spacing_mm
        ):
            raise ValueError(f"spacing_mm must be three positive numbers, got {self.spacing_mm}")
        if len(self.origin_mm) != 3 or any(not math.isfinite(o) for o in self.origin_mm):
            raise ValueError(f"origin_mm must be three finite numbers, got {self.origin_mm}")
        if self.orientation != "RAS":
            raise ValueError(f"orientation must be 'RAS', got {self.orientation!r}")
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
    """Clamp HU values into [-1024, 3071] (applied at load time)."""
    return np.clip(data, HU_MIN, HU_MAX)


def _check_shape(grid: Grid, data: np.ndarray, what: str):
    if tuple(data.shape) != grid.dims:
        raise ValueError(f"{what} shape {data.shape} does not match grid dims {grid.dims}")


@dataclass(frozen=True)
class Volume:
    """A scalar image on a grid, in HU."""

    grid: Grid
    data: np.ndarray
    unit: str = "HU"

    def __post_init__(self):
        _check_shape(self.grid, self.data, "volume")
        if self.data.dtype not in (np.int16, np.float32):
            raise ValueError(f"volume dtype must be int16 or float32, got {self.data.dtype}")
        if self.unit not in VOLUME_UNITS:
            raise ValueError(f"unit must be one of {VOLUME_UNITS}, got {self.unit!r}")


@dataclass(frozen=True)
class LabelMap:
    """An integer label image; either a tissue map or a structure map."""

    grid: Grid
    data: np.ndarray
    kind: str
    class_table: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        _check_shape(self.grid, self.data, "label map")
        if self.data.dtype not in (np.uint8, np.uint16):
            raise ValueError(f"label dtype must be uint8 or uint16, got {self.data.dtype}")
        if self.kind not in ("tissue", "structure"):
            raise ValueError(f"kind must be 'tissue' or 'structure', got {self.kind!r}")
        # the table covers every value up to the maximum (always true of a
        # tissue map); otherwise one gather through a lookup table of size
        # max + 1. Only a failing map pays for listing its unknown values.
        top = int(self.data.max())
        if all(v in self.class_table for v in range(1, top + 1)):
            return
        allowed = np.zeros(top + 1, dtype=bool)
        allowed[0] = True
        allowed[[k for k in self.class_table if 0 < k <= top]] = True
        if allowed[self.data].all():
            return
        present = np.nonzero(np.bincount(self.data.ravel()))[0]
        unknown = [int(v) for v in present if v != 0 and int(v) not in self.class_table]
        raise ValueError(f"label values {unknown} missing from class_table")

    def body_mask(self) -> np.ndarray:
        return self.data != 0


class LabelIndex:
    """Index box of every label of a label map, from one pass over the grid.

    Per-label work (voxel counts, centroids, overlaps, moments) then runs
    inside the label's box instead of over the whole grid.
    """

    def __init__(self, labelmap: LabelMap):
        self.grid = labelmap.grid
        self.data = labelmap.data
        self._boxes = ndimage.find_objects(labelmap.data)
        self.labels = tuple(i + 1 for i, sl in enumerate(self._boxes) if sl is not None)

    def box(self, label: int) -> tuple[slice, slice, slice] | None:
        """Index box of a label, or None if the label is absent."""
        return self._boxes[label - 1] if 1 <= label <= len(self._boxes) else None

    def mask(self, label: int):
        """(submask, box) of a label, or None if the label is absent."""
        sl = self.box(label)
        return None if sl is None else (self.data[sl] == label, sl)
