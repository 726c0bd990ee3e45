"""Procedural body phantoms with voxel-exact ground truth.

A phantom is assembled from analytic primitives along the superior axis:
leg cylinders (bone core, muscle, fat sheath), a superellipsoid torso
(fat shell, muscle wall, organ-bearing interior), a muscular neck, and a
spherical head with a brain.  Landmark spheres mark C1/C2/C7 and the paired
hips, clavicles, and scapulae; femur/tibia cylinders carry their own labels.
Shell thicknesses are solved analytically so the phantom hits the requested
weight (within 2% at fine spacing) and fat/muscle mass fractions; ground
truth is then recomputed by exact voxel counting on the rasterized arrays,
so it reflects what is actually in the files, not the continuous model.

Anatomy is deliberately simple and sex-independent (all 16 structure
classes are always present); subject attributes shape the phantom only
through size, composition, and bone density.  Realism is a non-goal;
verifiability is the point.
"""

from __future__ import annotations

import math
import mmap
from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io  # savers looked up at call time, where perfbench wraps them
from .codec import encode, write_json
from .composition import REFERENCE_HU, density
from .rng import Stream, subject_seed
from .volume import (
    Grid,
    LabelMap,
    STRUCTURE_IDS,
    STRUCTURE_TABLE,
    TISSUE_CLASSES,
    TISSUE_IDS,
    Volume,
    voxel_volume_mm3,
)

# fixed HU per material; its mass density is composition.density(HU)
HU_AIR = -1000
HU_LUNG = -700
HU_FAT = -100
HU_BODY = 30
HU_ORGAN = 40
HU_AORTA = 45
HU_MUSCLE = 50


def bone_hu_for_age(age_years: float) -> int:
    """Cortical HU declines with age: 1100 - 5 * age, clamped to [400, 1200]."""
    return int(min(1200.0, max(400.0, 1100.0 - 5.0 * age_years)))


@dataclass(frozen=True)
class PhantomSpec:
    sex: str = "M"
    age_years: float = 55.0
    height_cm: float = 175.0
    weight_kg: float = 80.0
    fat_fraction: float = 0.25
    muscle_fraction: float = 0.40
    spacing_mm: tuple[float, float, float] = (2.0, 2.0, 2.0)
    seed: int = 0

    def __post_init__(self):
        if self.sex not in ("M", "F"):
            raise ValueError(f"sex must be 'M' or 'F', got {self.sex!r}")
        if not 0.0 <= self.age_years <= 120.0:
            raise ValueError(f"age_years out of range: {self.age_years}")
        if not 80.0 <= self.height_cm <= 220.0:
            raise ValueError(f"height_cm must lie in [80, 220], got {self.height_cm}")
        if not 20.0 <= self.weight_kg <= 200.0:
            raise ValueError(f"weight_kg must lie in [20, 200], got {self.weight_kg}")
        if not 0.05 <= self.fat_fraction <= 0.6:
            raise ValueError(f"fat_fraction must lie in [0.05, 0.6], got {self.fat_fraction}")
        if self.muscle_fraction <= 0.0:
            raise ValueError("muscle_fraction must be positive")
        if self.fat_fraction + self.muscle_fraction > 0.9:
            raise ValueError("fat_fraction + muscle_fraction must not exceed 0.9")
        object.__setattr__(self, "spacing_mm", check_spacing(self.spacing_mm))


def check_spacing(spacing) -> tuple[float, float, float]:
    """``spacing`` as three floats, each of which must lie in [0.4, 8] mm."""
    if len(spacing) != 3 or any(not 0.4 <= s <= 8.0 for s in spacing):
        raise ValueError(f"spacing_mm components must lie in [0.4, 8], got {spacing}")
    return tuple(float(s) for s in spacing)


@dataclass(frozen=True)
class PhantomTruth:
    body_mass_g: float
    fat_pct: float
    muscle_pct: float
    bone_density_hu: float | None  # None when no voxel is bone
    body_volume_mm3: float
    height_breakdown: dict[str, float]
    landmarks: dict[str, tuple[float, float, float]]


# organ blobs: (structure, hu, tissue, center (fx, fy, fu), semi (ax, ay, au),
# mirrored).  fx/fy/ax/ay are fractions of the interior semi-axes; fu/au are
# fractions of the torso half-length.  Mirrored entries appear at +/- fx.
_ORGANS = (
    ("liver", HU_ORGAN, "body", (0.45, 0.10, 0.05), (0.42, 0.55, 0.16), False),
    ("spleen", HU_ORGAN, "body", (-0.55, -0.15, 0.10), (0.25, 0.35, 0.10), False),
    ("kidney", HU_ORGAN, "body", (0.42, -0.45, -0.12), (0.18, 0.22, 0.10), True),
    ("lung_upper_lobes", HU_LUNG, "body", (0.42, 0.05, 0.62), (0.38, 0.55, 0.14), True),
    ("lung_lower_lobes", HU_LUNG, "body", (0.45, -0.05, 0.36), (0.38, 0.50, 0.11), True),
    ("lung_middle_lobe", HU_LUNG, "body", (0.48, 0.30, 0.49), (0.22, 0.28, 0.06), False),
    ("urinary_bladder", HU_ORGAN, "body", (0.0, 0.15, -0.72), (0.22, 0.25, 0.08), False),
    ("prostate", HU_ORGAN, "body", (0.0, 0.10, -0.86), (0.10, 0.10, 0.035), False),
    ("heart", HU_ORGAN, "body", (-0.10, 0.25, 0.42), (0.28, 0.32, 0.10), False),
    ("gluteus_muscles", HU_MUSCLE, "muscle", (0.35, -0.55, -0.80), (0.28, 0.28, 0.09), True),
    ("autochthonous_muscles", HU_MUSCLE, "muscle", (0.14, -0.55, -0.05), (0.10, 0.16, 0.72), True),
    ("iliopsoas", HU_MUSCLE, "muscle", (0.22, -0.10, -0.60), (0.13, 0.15, 0.22), True),
)

_AORTA = ("aorta", HU_AORTA, "body", (-0.06, -0.12, 0.18), (0.055, 0.055, 0.42))

_JITTER_CENTER = 0.04   # relative organ center jitter
_JITTER_SIZE = 0.06     # relative organ size jitter

# one (organ, side) per painted blob, in painting order
_ORGAN_SIDES = tuple((organ, side) for organ in _ORGANS
                     for side in ((-1.0, 1.0) if organ[5] else (1.0,)))


@dataclass
class _Geometry:
    """Solved continuous geometry of one phantom (world mm, feet at z=0)."""

    H: float
    z_pelvis: float
    z_knee: float
    z_ankle: float
    z_c7: float
    z_c1: float
    z_c2: float
    r_head: float
    head_center_z: float
    r_neck: float
    neck_top: float
    R: float
    ry: float
    rz: float
    zc: float
    hip_x: float
    r_leg: float
    q_fat: float
    q_muscle: float
    r_femur: float
    r_tibia: float
    r_spine: float
    r_stub: float
    r_marker: float
    bone_hu: int


def _torso_volume(R: float, ry: float, rz: float) -> float:
    # superellipsoid with z-profile w(u) = 1 - u^6: integral gives 12/7
    return (12.0 / 7.0) * math.pi * R * ry * rz


def _blob_terms() -> tuple:
    """The lung, organ and muscle classes' volume terms, each in ``_ORGANS`` order.

    A term (k, ax, ay, au) adds k * (ax * rx_i) * (ay * ry_i) * (au * rz) to its
    class's volume, rx_i and ry_i being the interior semi-axes. A mirrored
    pair's k is doubled: doubling commutes with rounding, so this equals
    doubling its volume. The aorta, a cylinder of length 2 * au * rz, closes
    the organ class.
    """
    terms = {"lung": [], "organ": [], "muscle": []}
    for _name, hu, tissue, _c, (ax, ay, au), mirrored in _ORGANS:
        cls = "lung" if hu == HU_LUNG else "muscle" if tissue == "muscle" else "organ"
        k = (4.0 / 3.0) * math.pi
        terms[cls].append((2.0 * k if mirrored else k, ax, ay, au))
    _name, _hu, _t, _c, (ax, ay, au) = _AORTA
    terms["organ"].append((math.pi, ax, ay, 2.0 * au))
    return tuple(tuple(terms[cls]) for cls in ("lung", "organ", "muscle"))


_LUNG_TERMS, _ORGAN_TERMS, _MUSCLE_TERMS = _blob_terms()


def _class_volume(terms: tuple, rx_i: float, ry_i: float, rz: float) -> float:
    """Summed volume (mm^3) of one density class's ``terms``, in table order."""
    v = 0.0
    for k, ax, ay, au in terms:
        v += k * (ax * rx_i) * (ay * ry_i) * (au * rz)
    return v


def _solve_geometry(spec: PhantomSpec) -> _Geometry:
    """Solve the torso radius R whose model mass meets ``spec.weight_kg``.

    The model mass rises with R, so R is bisected on [40, 450] mm. What does
    not depend on R is computed once: the density constants, the spine and
    the leading mass terms, summed left to right as in the full sum. The
    bisection stops once an iteration moves neither ``lo`` nor ``hi``: every
    later one would repeat it, so R is the same as after all 60.
    """
    H = spec.height_cm * 10.0
    s = H / 1750.0
    z_pelvis = 0.47 * H
    z_knee = 0.26 * H
    z_ankle = 0.03 * H
    z_c7 = 0.79 * H
    z_c1 = 0.865 * H
    z_c2 = z_c1 - max(20.0, 0.018 * H)
    r_head = (H - z_c1) / 1.95
    head_center_z = H - r_head
    head_bottom = H - 2.0 * r_head
    r_neck = 42.0 * s
    neck_top = head_bottom + 5.0

    r_femur = 14.0 * s
    r_tibia = 12.0 * s
    r_spine = 17.0 * s
    r_stub = 9.0 * s
    r_marker = max(7.0 * s, max(spec.spacing_mm))
    bone_hu = bone_hu_for_age(spec.age_years)

    L_T = z_c7 - z_pelvis
    rz = L_T / 2.0
    zc = (z_pelvis + z_c7) / 2.0

    total_g = spec.weight_kg * 1000.0
    v_fat = 1000.0 * spec.fat_fraction * total_g / density(HU_FAT)
    v_muscle = 1000.0 * spec.muscle_fraction * total_g / density(HU_MUSCLE)

    v_femur = 2.0 * math.pi * r_femur**2 * (z_pelvis - z_knee)
    v_tibia = 2.0 * math.pi * r_tibia**2 * ((z_knee - 3.0) - z_ankle)
    v_stub = 2.0 * math.pi * r_stub**2 * (z_ankle - 10.0)
    v_legbones = v_femur + v_tibia + v_stub
    v_markers = 13.0 * (4.0 / 3.0) * math.pi * r_marker**3
    v_head = (4.0 / 3.0) * math.pi * r_head**3
    v_brain = (4.0 / 3.0) * math.pi * (0.60 * r_head) ** 3
    v_neck = math.pi * r_neck**2 * (neck_top - z_c7)

    v_spine = math.pi * r_spine**2 * ((z_c7 - 0.03 * L_T) - (z_pelvis + 0.08 * L_T))
    d_body, d_organ, d_lung = density(HU_BODY), density(HU_ORGAN), density(HU_LUNG)
    mass_fixed = (
        density(HU_FAT) * v_fat
        + density(HU_MUSCLE) * v_muscle
        + density(bone_hu) * (v_legbones + v_spine + v_markers)
        + d_body * (v_head - v_brain)
        + d_organ * v_brain
    )

    def model(R: float):
        ry = 0.62 * R
        r_leg = 0.34 * R
        v_torso = _torso_volume(R, ry, rz)
        v_legs = 2.0 * math.pi * r_leg**2 * z_pelvis
        q_fat = 1.0 - v_fat / (v_torso + v_legs)
        # muscle balance: torso wall + leg cores - embedded bones + neck +
        # muscle organs (fraction of the interior) = target muscle volume;
        # the muscle organs at qm = 1 give the scaling
        kappa_mu = _class_volume(_MUSCLE_TERMS, 0.82 * R, 0.82 * ry, rz) / v_torso
        q_muscle = (q_fat * (v_torso + v_legs) - v_muscle - v_legbones + v_neck) / (
            v_torso * (1.0 - kappa_mu))
        shrink = 0.82 * math.sqrt(max(q_muscle, 0.0))
        rx_i, ry_i = shrink * R, shrink * ry
        v_lung = _class_volume(_LUNG_TERMS, rx_i, ry_i, rz)
        v_organ = _class_volume(_ORGAN_TERMS, rx_i, ry_i, rz)
        v_interior = q_muscle * v_torso
        v_int_body = (v_interior - v_lung - v_organ
                      - _class_volume(_MUSCLE_TERMS, rx_i, ry_i, rz) - v_spine)
        mass_g = (mass_fixed + d_body * v_int_body + d_organ * v_organ
                  + d_lung * v_lung) / 1000.0
        return mass_g, q_fat, q_muscle, r_leg, ry

    lo, hi = 40.0, 450.0
    m_lo = model(lo)[0]
    m_hi = model(hi)[0]
    if not m_lo < total_g < m_hi:
        raise ValueError(
            f"no torso radius in [{lo}, {hi}] mm realizes {spec.weight_kg} kg")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if model(mid)[0] < total_g:
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    R = 0.5 * (lo + hi)
    _, q_fat, q_muscle, r_leg, ry = model(R)

    if q_fat <= 0.0:
        raise ValueError("fat_fraction exceeds the available soft volume")
    if q_muscle <= 0.05:
        raise ValueError("fat + muscle leave no room for the torso interior")
    if q_muscle >= q_fat:
        raise ValueError("muscle_fraction exceeds the available shell volume")
    core_r = r_leg * math.sqrt(q_fat)
    if core_r < r_femur + 1.5 * max(spec.spacing_mm):
        raise ValueError("leg muscle core too thin to hold the femur")

    return _Geometry(
        H=H, z_pelvis=z_pelvis, z_knee=z_knee, z_ankle=z_ankle,
        z_c7=z_c7, z_c1=z_c1, z_c2=z_c2, r_head=r_head,
        head_center_z=head_center_z, r_neck=r_neck, neck_top=neck_top,
        R=R, ry=ry, rz=rz, zc=zc, hip_x=0.40 * R, r_leg=r_leg,
        q_fat=q_fat, q_muscle=q_muscle, r_femur=r_femur, r_tibia=r_tibia,
        r_spine=r_spine, r_stub=r_stub, r_marker=r_marker, bone_hu=bone_hu,
    )


def _pooled(pool, name: str, dims, dtype, fill: int) -> np.ndarray:
    """A ``dims`` view of the calling thread's ``name`` buffer in ``pool``, set to ``fill``.

    The buffer lives in an anonymous memory map, outside malloc's heap, so
    its pages stay mapped from one phantom to the next instead of being
    trimmed back to the kernel and faulted in again. It grows by doubling
    and is unmapped once nothing refers to it.
    """
    dtype = np.dtype(dtype)
    n = dims[0] * dims[1] * dims[2]
    buf = getattr(pool, name, None)
    if buf is None or buf.size < n:
        size = n if buf is None else max(n, 2 * buf.size)
        buf = np.frombuffer(mmap.mmap(-1, size * dtype.itemsize), dtype)
        setattr(pool, name, buf)
    view = buf[:n].reshape(dims)
    view.fill(fill)
    return view


class _Canvas:
    """Paint target: HU, tissue and structure arrays plus world coords; tissues
    and structures are painted by name. With a ``pool`` (a ``threading.local``)
    HU and tissue are the calling thread's buffers in it, which its next
    canvas overwrites, and there is no structure array to paint."""

    def __init__(self, grid: Grid, pool):
        self.grid = grid
        if pool is None:
            self.hu = np.full(grid.dims, HU_AIR, dtype=np.int16)
            self.tissue = np.zeros(grid.dims, dtype=np.uint8)
            self.structure = np.zeros(grid.dims, dtype=np.uint8)
        else:
            self.hu = _pooled(pool, "hu", grid.dims, np.int16, HU_AIR)
            self.tissue = _pooled(pool, "tissue", grid.dims, np.uint8, 0)
            self.structure = None
        self.painted = set()  # every HU value assign wrote; the rest is HU_AIR
        # float64 voxel centres as Python floats to bound slabs, float32 to paint them
        axes = tuple(grid.axis_coords(a) for a in range(3))
        self.coords = tuple(c.tolist() for c in axes)
        self.coords32 = tuple(c.astype(np.float32) for c in axes)

    def slab_arrays(self, lo, hi):
        """(slices, X, Y, Z) of the voxel centres in the box [lo, hi], bounded in
        float64; a box between voxel centres gives empty slices, which paint
        nothing. Each axis is bounded by ``bisect_left`` and ``bisect_right``
        on its sorted centres, the indices ``np.searchsorted`` gives with
        side "left" and "right", with no numpy call per bound. X, Y and Z
        are broadcastable float32 world coords (the raster is the phantom's
        definition, so only self-consistency matters). Cylinders, legs and
        torso mix them with Python floats and so compute in float32;
        ellipsoids and spheres promote them to float64 through their
        ``np.float64`` centre and radii.
        """
        (cx, cy, cz), (x, y, z) = self.coords, self.coords32
        sx = slice(bisect_left(cx, lo[0]), bisect_right(cx, hi[0]))
        sy = slice(bisect_left(cy, lo[1]), bisect_right(cy, hi[1]))
        sz = slice(bisect_left(cz, lo[2]), bisect_right(cz, hi[2]))
        return (sx, sy, sz), x[sx, None, None], y[None, sy, None], z[None, None, sz]

    def assign(self, sl, mask, hu: int, tissue: str, structure: str | None = None):
        self.hu[sl][mask] = hu
        self.painted.add(hu)
        self.tissue[sl][mask] = TISSUE_IDS[tissue]
        if structure is not None and self.structure is not None:
            self.structure[sl][mask] = STRUCTURE_IDS[structure]

    def paint_ellipsoid(self, center, radii, hu, tissue, structure=None):
        """The box is bounded in Python floats; the mask is computed in
        float64, as ``np.float64`` scalars promote the float32 coords."""
        cx, cy, cz = (float(v) for v in center)
        rx, ry, rz = (float(v) for v in radii)
        sl, X, Y, Z = self.slab_arrays((cx - rx, cy - ry, cz - rz), (cx + rx, cy + ry, cz + rz))
        f = np.float64
        mask = (((X - f(cx)) / f(rx)) ** 2 + ((Y - f(cy)) / f(ry)) ** 2
                + ((Z - f(cz)) / f(rz)) ** 2 <= 1.0)
        self.assign(sl, mask, hu, tissue, structure)

    def paint_sphere(self, center, radius, hu, tissue, structure=None):
        self.paint_ellipsoid(center, (radius, radius, radius), hu, tissue, structure)

    def paint_zcylinder(self, cx, cy, radius, z0: float, z1: float, hu, tissue,
                        structure=None):
        """Paint a z-aligned cylinder from its 2-D disk, as the legs are.

        The slab already bounds z to [z0, z1] in float64, and rounding to
        float32 is monotone, so float32 tests of its coordinates against the
        Python floats ``z0`` and ``z1`` (which numpy rounds to float32 too)
        hold on every voxel of it: only the disk needs testing, in float32.
        """
        sl, X, Y, _Z = self.slab_arrays((cx - radius, cy - radius, z0),
                                        (cx + radius, cy + radius, z1))
        disk = (((X - cx) / radius) ** 2 + ((Y - cy) / radius) ** 2 <= 1.0)[:, :, 0]
        self.assign(sl, disk, hu, tissue, structure)


def _grid_for(geom: _Geometry, spacing) -> tuple[Grid, np.ndarray]:
    margin = 3.0 * max(spacing)
    half_x = max(geom.R, geom.hip_x + geom.r_leg, geom.r_head) + margin
    half_y = max(geom.ry, geom.r_leg, geom.r_head) + margin
    z_len = geom.H + 2.0 * margin
    dims = (
        int(math.ceil(2.0 * half_x / spacing[0])),
        int(math.ceil(2.0 * half_y / spacing[1])),
        int(math.ceil(z_len / spacing[2])),
    )
    grid = Grid(dims, tuple(spacing))
    # body center sits mid-grid in x/y; feet at z = margin
    center = np.array([
        (dims[0] - 1) * spacing[0] / 2.0,
        (dims[1] - 1) * spacing[1] / 2.0,
        margin,
    ])
    return grid, center


def generate_phantom(spec: PhantomSpec, *, pool=None):
    """Rasterize one phantom.

    Returns ``(volume, tissue_map, structure_map, truth)``.  The seed
    perturbs organ positions and sizes slightly so cohorts carry anatomical
    variation beyond pure scaling.

    With a ``pool`` (a ``threading.local``) only the volume and tissue map
    are built, on the calling thread's canvas buffers in it, and
    ``(volume, tissue_map, None, None)`` is returned.  They hold the bytes
    of the full call, but only until the next phantom generated with that
    pool on that thread: a pooled phantom is for measuring and dropping.
    """
    geom = _solve_geometry(spec)
    grid, offset = _grid_for(geom, spec.spacing_mm)
    canvas = _Canvas(grid, pool)
    xc, yc, z0 = float(offset[0]), float(offset[1]), float(offset[2])

    rz, zc = geom.rz, z0 + geom.zc
    R, ry = geom.R, geom.ry
    qf, qm = geom.q_fat, geom.q_muscle

    # legs: fat sheath over muscle core (bones painted later); the radial
    # coordinate is computed once, masks are z-uniform
    for sx in (-1.0, 1.0):
        cx = xc + sx * geom.hip_x
        sl, X, Y, _Z = canvas.slab_arrays((cx - geom.r_leg, yc - geom.r_leg, z0),
                                          (cx + geom.r_leg, yc + geom.r_leg, z0 + geom.z_pelvis))
        q = (((X - cx) ** 2 + (Y - yc) ** 2) / geom.r_leg**2)[:, :, 0]
        canvas.assign(sl, q <= 1.0, HU_FAT, "fat")
        canvas.assign(sl, q <= qf, HU_MUSCLE, "muscle")

    # torso: shared z-profile w(u) = 1 - u^6; shells at fractions of w
    sl, X, Y, Z = canvas.slab_arrays((xc - R, yc - ry, z0 + geom.z_pelvis),
                                     (xc + R, yc + ry, z0 + geom.z_c7))
    q = ((X - xc) / R) ** 2 + ((Y - yc) / ry) ** 2
    w = 1.0 - ((Z - zc) / rz) ** 6
    canvas.assign(sl, q <= w, HU_FAT, "fat")
    canvas.assign(sl, q <= qf * w, HU_MUSCLE, "muscle")
    canvas.assign(sl, q <= qm * w, HU_BODY, "body")

    # neck and head
    canvas.paint_zcylinder(xc, yc, geom.r_neck, z0 + geom.z_c7, z0 + geom.neck_top,
                           HU_MUSCLE, "muscle")
    canvas.paint_sphere((xc, yc, z0 + geom.head_center_z), geom.r_head, HU_BODY, "body")

    # organs inside the interior, with seeded jitter: rows 2k and 2k + 1 are
    # side k's center and size draws, with normal(3, 0.0, sd)'s arithmetic,
    # so each row holds the bits one normal call per row would give
    rx_i = 0.82 * math.sqrt(qm) * R
    ry_i = 0.82 * math.sqrt(qm) * ry
    z = Stream(spec.seed).standard_normals(2 * len(_ORGAN_SIDES), 3)
    jitter_c = 0.0 + _JITTER_CENTER * z[0::2]
    jitter_s = np.clip(1.0 + (0.0 + _JITTER_SIZE * z[1::2]), 0.8, 1.2)
    for (organ, side), jc, js in zip(_ORGAN_SIDES, jitter_c, jitter_s):
        name, hu, tissue, (fx, fy, fu), (ax, ay, au), _mirrored = organ
        center = (
            xc + (side * fx + jc[0]) * rx_i,
            yc + (fy + jc[1]) * ry_i,
            zc + (fu + 0.5 * jc[2] * au) * rz,
        )
        radii = (max(ax * js[0], 0.02) * rx_i,
                 max(ay * js[1], 0.02) * ry_i,
                 max(au * js[2], 0.01) * rz)
        canvas.paint_ellipsoid(center, radii, hu, tissue, name)
    name, hu, tissue, (fx, fy, fu), (ax, ay, au) = _AORTA
    canvas.paint_zcylinder(xc + fx * rx_i, yc + fy * ry_i, ax * rx_i,
                           zc + (fu - au) * rz, zc + (fu + au) * rz,
                           hu, tissue, name)

    canvas.paint_sphere((xc, yc, z0 + geom.head_center_z + 0.1 * geom.r_head),
                        0.60 * geom.r_head, HU_ORGAN, "body", "brain")

    bone_hu = geom.bone_hu
    L_T = geom.z_c7 - geom.z_pelvis
    # spine, in the merged bone class
    canvas.paint_zcylinder(xc, yc - 0.30 * ry_i, geom.r_spine,
                           z0 + geom.z_pelvis + 0.08 * L_T,
                           z0 + geom.z_c7 - 0.03 * L_T,
                           bone_hu, "bone", "bone")

    # leg long bones and ankle stubs
    for sign, side in ((-1.0, "left"), (1.0, "right")):
        cx = xc + sign * geom.hip_x
        canvas.paint_zcylinder(cx, yc, geom.r_femur, z0 + geom.z_knee, z0 + geom.z_pelvis,
                               bone_hu, "bone", f"femur_{side}")
        canvas.paint_zcylinder(cx, yc, geom.r_tibia, z0 + geom.z_ankle, z0 + geom.z_knee - 3.0,
                               bone_hu, "bone", f"tibia_{side}")
        canvas.paint_zcylinder(cx, yc, geom.r_stub, z0 + 10.0,
                               z0 + geom.z_ankle, bone_hu, "bone", "appendicular_bones")

    # landmark marker spheres
    landmarks = {
        "c1": (xc, yc, z0 + geom.z_c1),
        "c2": (xc, yc, z0 + geom.z_c2),
        "c7": (xc, yc, z0 + geom.z_c7),
        "hip_left": (xc - 0.60 * R, yc + 0.10 * ry, z0 + geom.z_pelvis + 0.06 * L_T),
        "hip_right": (xc + 0.60 * R, yc + 0.10 * ry, z0 + geom.z_pelvis + 0.06 * L_T),
        "clavicle_left": (xc - 0.55 * R, yc + 0.15 * ry, z0 + geom.z_c7 - 0.06 * L_T),
        "clavicle_right": (xc + 0.55 * R, yc + 0.15 * ry, z0 + geom.z_c7 - 0.06 * L_T),
        "scapula_left": (xc - 0.42 * R, yc - 0.30 * ry, z0 + geom.z_c7 - 0.10 * L_T),
        "scapula_right": (xc + 0.42 * R, yc - 0.30 * ry, z0 + geom.z_c7 - 0.10 * L_T),
    }
    # patient left is -x in RAS (+x points toward patient right)
    for name, pos in landmarks.items():
        canvas.paint_sphere(pos, geom.r_marker, bone_hu, "bone", name)
    landmarks["femur_left"] = (xc - geom.hip_x, yc, z0 + (geom.z_knee + geom.z_pelvis) / 2)
    landmarks["femur_right"] = (xc + geom.hip_x, yc, z0 + (geom.z_knee + geom.z_pelvis) / 2)
    landmarks["tibia_left"] = (xc - geom.hip_x, yc, z0 + (geom.z_ankle + geom.z_knee) / 2)
    landmarks["tibia_right"] = (xc + geom.hip_x, yc, z0 + (geom.z_ankle + geom.z_knee) / 2)

    vol = Volume(grid, canvas.hu)
    tissue_map = LabelMap(grid, canvas.tissue, "tissue", dict(TISSUE_CLASSES))
    if pool is not None:
        return vol, tissue_map, None, None
    structure_map = LabelMap(grid, canvas.structure, "structure", dict(STRUCTURE_TABLE))
    truth = _count_truth(canvas, grid, geom, landmarks)
    return vol, tissue_map, structure_map, truth


# voxels per chunk of truth counting: its int16 slice and bool match fit in L2
_TRUTH_CHUNK = 1 << 17


def _count_truth(canvas: _Canvas, grid: Grid, geom: _Geometry,
                 landmarks: dict) -> PhantomTruth:
    """Ground truth by exact voxel counting with the default density map.

    Every material has a distinct fixed HU and air only appears outside the
    body, so a voxel count per HU value yields all masses exactly (air
    adjustment included: every in-body HU is above -900).  Each voxel holds
    ``HU_AIR`` or a value the canvas painted, so only the painted values are
    counted, one flat chunk of ``_TRUTH_CHUNK`` voxels at a time, and no
    whole-grid temporary is made; air is the remainder and needs no count.
    The counts are exact integers, so they are independent of the chunking.
    Masses add Python floats, whose sum depends on its order, so the values
    are summed ascending by their two's-complement uint16: the order of a
    histogram indexed by ``hu.view(np.uint16)``, in which the recorded
    truth digests were summed.
    """
    vox = voxel_volume_mm3(grid)
    flat = canvas.hu.ravel(order="K")  # a view of the C-ordered canvas
    painted = sorted(canvas.painted - {HU_AIR}, key=lambda h: h & 0xFFFF)
    counts = dict.fromkeys(painted, 0)
    equal = np.empty(min(_TRUTH_CHUNK, flat.size), dtype=bool)
    for start in range(0, flat.size, _TRUTH_CHUNK):
        part = flat[start:start + _TRUTH_CHUNK]
        hits = equal[:part.size]
        for h in painted:
            counts[h] += int(np.count_nonzero(np.equal(part, h, out=hits)))

    def count_of(h: int) -> int:
        return counts.get(h, 0)

    def mass_of(hu_values) -> float:
        return sum(count_of(h) * (h + 1000.0) / (REFERENCE_HU + 1000.0)
                   for h in hu_values) * vox / 1000.0

    # a value painted over everywhere adds 0.0, which moves no sum's bits
    m_body = mass_of(painted)
    m_fat = mass_of([HU_FAT])
    m_muscle = mass_of([HU_MUSCLE])
    n_body = sum(counts.values())
    bone_hu = float(geom.bone_hu) if count_of(geom.bone_hu) > 0 else None
    breakdown = {
        "lower_body_mm": geom.z_pelvis,
        "torso_mm": geom.z_c7 - geom.z_pelvis,
        "neck_mm": geom.z_c1 - geom.z_c7,
        "head_mm": geom.H - geom.z_c1,
        "total_mm": geom.H,
    }
    return PhantomTruth(
        body_mass_g=m_body,
        fat_pct=100.0 * m_fat / m_body,
        muscle_pct=100.0 * m_muscle / m_body,
        bone_density_hu=bone_hu,
        body_volume_mm3=n_body * vox,
        height_breakdown=breakdown,
        landmarks={k: tuple(float(c) for c in v) for k, v in landmarks.items()},
    )


# --- cohorts ------------------------------------------------------------


@dataclass(frozen=True)
class Attributes:
    """Recorded subject attributes; None marks a missing record."""

    sex: str | None
    age_years: float | None
    height_cm: float | None
    weight_kg: float | None


@dataclass(frozen=True)
class AttributeDistribution:
    """Cohort priors: sex-conditional truncated normals, corr(height, weight)."""

    p_female: float = 0.5
    age_mean: float = 55.0
    age_sd: float = 18.0
    age_range: tuple[float, float] = (18.0, 90.0)
    height_mean: dict[str, float] = field(default_factory=lambda: {"M": 176.0, "F": 163.0})
    height_sd: dict[str, float] = field(default_factory=lambda: {"M": 7.5, "F": 7.0})
    height_range: tuple[float, float] = (145.0, 203.0)
    weight_mean: dict[str, float] = field(default_factory=lambda: {"M": 84.0, "F": 72.0})
    weight_sd: dict[str, float] = field(default_factory=lambda: {"M": 14.0, "F": 13.0})
    weight_range: tuple[float, float] = (45.0, 135.0)
    height_weight_corr: float = 0.5
    missing_rate: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p_female <= 1.0:
            raise ValueError("p_female must lie in [0, 1]")
        if not -1.0 < self.height_weight_corr < 1.0:
            raise ValueError("height_weight_corr must lie in (-1, 1)")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ValueError("missing_rate must lie in [0, 1)")
        for name in ("height_mean", "height_sd", "weight_mean", "weight_sd"):
            by_sex = getattr(self, name)
            if set(by_sex) != {"M", "F"}:
                raise ValueError(f"{name} must have exactly the keys 'M' and 'F', "
                                 f"got {list(by_sex)}")


# attribute -> composition model, shared by cohort and matched generation
FAT_BASE = {"M": 0.193, "F": 0.197}
FAT_REF_WEIGHT = 75.0
FAT_WEIGHT_SLOPE = 0.0034        # fat mass fraction per kg
FAT_REF_AGE = 55.0
FAT_AGE_SLOPE = 0.00175           # fat mass fraction per year
FAT_NOISE_SD = 0.004
FAT_RANGE = (0.08, 0.55)
MUSCLE_BASE = {"M": 0.427, "F": 0.423}
MUSCLE_FAT_SLOPE = -0.65
MUSCLE_NOISE_SD = 0.0075
MUSCLE_RANGE = (0.16, 0.54)
FRACTION_SUM_CAP = 0.86
_MAX_DRAWS = 100


def sample_fractions(sex: str, age_years: float, weight_kg: float,
                     stream: Stream) -> tuple[float, float]:
    """Draw fat/muscle mass fractions given sex, age, and weight."""
    fat = (FAT_BASE[sex] + FAT_WEIGHT_SLOPE * (weight_kg - FAT_REF_WEIGHT)
           + FAT_AGE_SLOPE * (age_years - FAT_REF_AGE)
           + stream.normal1(0.0, FAT_NOISE_SD))
    fat = min(max(fat, FAT_RANGE[0]), FAT_RANGE[1])
    muscle = (MUSCLE_BASE[sex] + MUSCLE_FAT_SLOPE * (fat - FAT_BASE[sex])
              + stream.normal1(0.0, MUSCLE_NOISE_SD))
    muscle = min(max(muscle, MUSCLE_RANGE[0]), MUSCLE_RANGE[1])
    if fat + muscle > FRACTION_SUM_CAP:
        muscle = FRACTION_SUM_CAP - fat
    return fat, muscle


def _truncated_normal(stream: Stream, mean: float, sd: float, bounds) -> float:
    for _ in range(_MAX_DRAWS):
        v = stream.normal1(mean, sd)
        if bounds[0] <= v <= bounds[1]:
            return v
    raise ValueError(f"could not draw within {bounds} after {_MAX_DRAWS} tries")


def _sample_height_weight(stream: Stream, dist: AttributeDistribution,
                          sex: str) -> tuple[float, float]:
    rho = dist.height_weight_corr
    for _ in range(_MAX_DRAWS):
        z1 = stream.normal1()
        z2 = stream.normal1()
        h = dist.height_mean[sex] + dist.height_sd[sex] * z1
        w = dist.weight_mean[sex] + dist.weight_sd[sex] * (
            rho * z1 + math.sqrt(1.0 - rho * rho) * z2)
        if (dist.height_range[0] <= h <= dist.height_range[1]
                and dist.weight_range[0] <= w <= dist.weight_range[1]):
            return h, w
    raise ValueError(f"could not draw height/weight after {_MAX_DRAWS} tries")


def _draw_sex(stream: Stream, dist: AttributeDistribution) -> str:
    return "F" if stream.uniform1() < dist.p_female else "M"


def sample_subject_spec(stream: Stream, dist: AttributeDistribution,
                        spacing, seed: int) -> tuple[Attributes, PhantomSpec]:
    """Draw one subject: true PhantomSpec plus (possibly censored) record."""
    sex = _draw_sex(stream, dist)
    age = _truncated_normal(stream, dist.age_mean, dist.age_sd, dist.age_range)
    height, weight = _sample_height_weight(stream, dist, sex)
    fat, muscle = sample_fractions(sex, age, weight, stream)
    spec = PhantomSpec(sex=sex, age_years=age, height_cm=height, weight_kg=weight,
                       fat_fraction=fat, muscle_fraction=muscle,
                       spacing_mm=tuple(spacing), seed=seed)
    values = [sex, age, height, weight]
    if dist.missing_rate > 0.0:
        for i in range(4):
            if stream.uniform1() < dist.missing_rate:
                values[i] = None
    attrs = Attributes(sex=values[0], age_years=values[1],
                       height_cm=values[2], weight_kg=values[3])
    return attrs, spec


def sample_cohort_specs(n: int, dist: AttributeDistribution, spacing,
                        seed: int) -> list[tuple[str, Attributes, PhantomSpec]]:
    """Subject ids, records, and true specs for an n-subject cohort."""
    out = []
    for i in range(n):
        sseed = subject_seed(seed, i)
        stream = Stream(sseed)
        attrs, spec = sample_subject_spec(stream, dist, spacing, sseed)
        out.append((f"subj_{i:04d}", attrs, spec))
    return out


# --- binning ------------------------------------------------------------


BIN_WIDTH = 10.0  # years, cm and kg alike


@dataclass(frozen=True)
class BinnedAttributes:
    sex: str | None         # "M" | "F" | None: missing, or another sex
    age: float | None       # bin lower edge, a multiple of BIN_WIDTH | None: missing
    height: float | None    # cm bin
    weight: float | None    # kg bin


def _bin_edge(v: float | None) -> float | None:
    return None if v is None else BIN_WIDTH * max(0, math.floor(v / BIN_WIDTH))


def bin_attributes(attrs: Attributes) -> BinnedAttributes:
    """Half-open bins [lo, lo + BIN_WIDTH), negatives in the first one."""
    return BinnedAttributes(
        sex=attrs.sex if attrs.sex in ("M", "F") else None,
        age=_bin_edge(attrs.age_years),
        height=_bin_edge(attrs.height_cm),
        weight=_bin_edge(attrs.weight_kg),
    )


def generate_matched_spec(binned: BinnedAttributes, dist: AttributeDistribution,
                          spacing, seed: int) -> PhantomSpec:
    """Draw a fresh subject consistent with binned attributes.

    Known bins are sampled uniformly within the bin, cut to the clamp range
    (the whole range when the bin lies outside it); a missing value falls
    back to the cohort prior.  Composition comes from the same conditional
    model as real cohort generation, so only the attribute-explained part
    of body composition is reproduced.
    """
    stream = Stream(seed)
    sex = _draw_sex(stream, dist) if binned.sex is None else binned.sex

    def draw(lo: float | None, prior_mean, prior_sd, prior_range, clamp):
        if lo is None:
            return _truncated_normal(stream, prior_mean, prior_sd, prior_range)
        hi = min(lo + BIN_WIDTH, clamp[1])
        lo = max(lo, clamp[0])
        if lo >= hi:
            lo, hi = clamp
        return lo + stream.uniform1() * (hi - lo)

    age = draw(binned.age, dist.age_mean, dist.age_sd, dist.age_range, (0.0, 110.0))
    height = draw(binned.height, dist.height_mean[sex], dist.height_sd[sex],
                  dist.height_range, (100.0, 215.0))
    weight = draw(binned.weight, dist.weight_mean[sex], dist.weight_sd[sex],
                  dist.weight_range, (25.0, 180.0))
    fat, muscle = sample_fractions(sex, age, weight, stream)
    return PhantomSpec(sex=sex, age_years=age, height_cm=height, weight_kg=weight,
                       fat_fraction=fat, muscle_fraction=muscle,
                       spacing_mm=tuple(spacing), seed=seed)


# --- cohorts ------------------------------------------------------------


def map_ordered(fn, items, threads: int):
    """Map preserving order; thread count never changes the result."""
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(fn, items))
    return [fn(item) for item in items]


# --- manifests ----------------------------------------------------------


@dataclass
class SubjectRecord:
    id: str
    attributes: Attributes
    population: str = "unsplit"
    image: str | None = None
    tissue: str | None = None
    structure: str | None = None
    truth: PhantomTruth | None = None

    def __post_init__(self):
        # an id names the subject's measurement file, so it is a plain file name
        io.check_file_name(self.id, "subject id")


@dataclass
class CohortManifest:
    seed: int
    spacing_mm: tuple[float, float, float]
    subjects: list[SubjectRecord]

    def __post_init__(self):
        if not self.subjects:
            raise ValueError("manifest lists no subjects")
        seen = set()
        for s in self.subjects:
            if s.id in seen:
                raise ValueError(f"subject id {s.id!r} is repeated")
            seen.add(s.id)


def generate_cohort(n: int, dist: AttributeDistribution, spacing, seed: int,
                    out_dir, threads: int = 1) -> CohortManifest:
    """Generate n phantoms, write CTV files plus a manifest, return it.

    One task per subject generates its phantom and saves its three maps, so
    at most ``threads`` subjects' arrays are alive at once; the manifest
    lists the subjects in order, so outputs are identical for any thread
    count.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def build(item):
        subject_id, attrs, spec = item
        vol, tissue, structure, truth = generate_phantom(spec)
        return SubjectRecord(
            id=subject_id, attributes=attrs,
            image=io.save_volume(vol, out / f"{subject_id}_image").name,
            tissue=io.save_labelmap(tissue, out / f"{subject_id}_tissue").name,
            structure=io.save_labelmap(structure, out / f"{subject_id}_structure").name,
            truth=truth)

    specs = sample_cohort_specs(n, dist, spacing, seed)
    manifest = CohortManifest(seed=seed, spacing_mm=tuple(float(s) for s in spacing),
                              subjects=map_ordered(build, specs, threads))
    write_json(out / "manifest.json", encode(manifest))
    return manifest
