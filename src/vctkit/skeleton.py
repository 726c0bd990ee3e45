"""Segmentwise height measurement along the patient's superior axis.

The superior direction is the principal axis of the body voxel cloud (sign
fixed toward world +z, ties toward +y then +x).  It is the only patient
axis height uses: the pelvis, knee and C7 planes are projections onto it,
and the femur and tibia axes take their sign from it.

Height is the exact sum of four segments:

* lower body: per leg, the femur-axis distance between the pelvis plane
  (superior-most femur voxel) and the knee plane (superior-most tibia voxel
  after dropping tibia components above the femur's inferior point), plus
  the tibia long axis continued to its exit through the body mask on the
  foot side; the longer leg wins;
* torso: superior-axis distance from the pelvis plane to the C7 centroid;
* neck: euclidean distance between C7 and C1 centroids;
* head: from the C1 centroid along the reversed C1->C2 direction to the
  last body voxel (the crown), marched at half the smallest spacing.

Landmark work reads each landmark's run in ``volume.LabelIndex`` (one pass
over the structure map): a femur's voxel indices, or the index box that the
moments and the knee cut work inside.  Only the body moments and the ray
marches see the whole grid.  Landmarks are looked up by name through
``volume.STRUCTURE_IDS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .volume import Grid, LabelIndex, LabelMap, STRUCTURE_IDS

ISOTROPY_TOL = 1e-9


@dataclass(frozen=True)
class HeightBreakdown:
    lower_body_mm: float
    torso_mm: float
    neck_mm: float
    head_mm: float
    total_mm: float
    per_leg: dict[str, float | None]


def _coords_for(grid: Grid, sl=None):
    cx, cy, cz = grid.axis_coords(0), grid.axis_coords(1), grid.axis_coords(2)
    if sl is None:
        return cx, cy, cz
    return cx[sl[0]], cy[sl[1]], cz[sl[2]]


def _mask_moments(mask: np.ndarray, coords):
    """Voxel count, world-space mean, and covariance of a boolean mask.

    Cross moments come from 2-D projections of the mask, so no voxel
    coordinate list is materialized.  A projected count is at most its axis
    length, so the projections add the mask's bytes in uint16, exact while
    every axis is shorter than 65,536 voxels, and in int64 otherwise.
    """
    cx, cy, cz = coords
    counts = mask.view(np.uint8)
    acc = np.uint16 if max(mask.shape) < 1 << 16 else np.int64
    p_xy, p_xz, p_yz = (np.add.reduce(counts, axis=axis, dtype=acc).astype(np.float64)
                        for axis in (2, 1, 0))
    nx = p_xy.sum(axis=1)
    n = int(nx.sum())
    if n == 0:
        return 0, None, None
    ny = p_xy.sum(axis=0)
    nz = p_xz.sum(axis=0)
    sx, sy, sz = nx @ cx, ny @ cy, nz @ cz
    sxx, syy, szz = nx @ (cx * cx), ny @ (cy * cy), nz @ (cz * cz)
    sxy = cx @ p_xy @ cy
    sxz = cx @ p_xz @ cz
    syz = cy @ p_yz @ cz
    mean = np.array([sx, sy, sz]) / n
    cov = np.array([
        [sxx / n - mean[0] ** 2, sxy / n - mean[0] * mean[1], sxz / n - mean[0] * mean[2]],
        [sxy / n - mean[0] * mean[1], syy / n - mean[1] ** 2, syz / n - mean[1] * mean[2]],
        [sxz / n - mean[0] * mean[2], syz / n - mean[1] * mean[2], szz / n - mean[2] ** 2],
    ])
    return n, mean, cov


def _label_moments(index: LabelIndex, label: int):
    """Moments of one label inside its box; (0, None, None) if it is absent."""
    m = index.mask(label)
    return (0, None, None) if m is None else _mask_moments(m[0], _coords_for(index.grid, m[1]))


def _centroid(index: LabelIndex, label: int):
    return _label_moments(index, label)[1]


def _world_coords(index: LabelIndex, label: int) -> np.ndarray:
    """World coordinates of a present label's voxels, one row each, in C order."""
    coords = np.stack(index.coords(label), axis=1) * np.asarray(index.grid.spacing_mm)
    return coords + np.asarray(index.grid.origin_mm)


def _principal_axis_from_moments(n: int, cov: np.ndarray) -> np.ndarray:
    if n < 3:
        raise ValueError(f"principal axis needs at least 3 voxels, got {n}")
    evals, evecs = np.linalg.eigh(cov)
    if evals[-1] - evals[0] <= ISOTROPY_TOL * max(1.0, evals[-1]):
        raise ValueError("degenerate voxel cloud: isotropic covariance")
    axis = evecs[:, -1]
    for comp in (2, 1, 0):
        if abs(axis[comp]) > 1e-12:
            if axis[comp] < 0:
                axis = -axis
            break
    return axis / np.linalg.norm(axis)


def _largest_component(mask: np.ndarray) -> np.ndarray:
    """Largest 26-connected component of a boolean mask."""
    from scipy import ndimage  # here, so only height measurement loads scipy

    labels, count = ndimage.label(mask, structure=np.ones((3, 3, 3), dtype=bool))
    if count <= 1:
        return mask
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    return labels == int(np.argmax(sizes))


def _ray_exit(body_mask: np.ndarray, grid: Grid, start: np.ndarray,
              direction: np.ndarray) -> np.ndarray:
    """Last in-body point marching from start along direction.

    Step is half the smallest spacing; step i is at ``start + i * step *
    direction``, each rounded to its nearest voxel, and every step is
    tested at once.  The march may take a short lead-in before entering the
    body; never entering, or never leaving the grid or body, is a
    degenerate-geometry error.
    """
    direction = direction / np.linalg.norm(direction)
    step = 0.5 * min(grid.spacing_mm)
    extent = [grid.dims[a] * grid.spacing_mm[a] for a in range(3)]
    max_steps = int(2 * math.ceil(math.sqrt(sum(e * e for e in extent)) / step)) + 4
    lead_in = int(math.ceil(4.0 * max(grid.spacing_mm) / step))
    points = start + (np.arange(max_steps) * step)[:, None] * direction
    idx = np.rint((points - np.asarray(grid.origin_mm))
                  / np.asarray(grid.spacing_mm)).astype(int)
    in_grid = ((idx >= 0) & (idx < np.asarray(grid.dims))).all(axis=1)
    inside = np.zeros(max_steps, dtype=bool)
    inside[in_grid] = body_mask[tuple(idx[in_grid].T)]
    first = int(np.argmax(inside)) if inside.any() else max_steps
    if first > lead_in + 1 and lead_in + 1 < max_steps:
        raise ValueError("ray march never entered the body mask")
    left = np.flatnonzero(~inside[first:])
    if not left.size:
        raise ValueError("ray march found no exit from the body mask")
    return points[first + int(left[0]) - 1]


def _leg_length(index: LabelIndex, body_mask: np.ndarray, s: np.ndarray,
                side: str, pelvis_offset: float, femur_min: float) -> float:
    """Femur-axis length below the pelvis plane plus tibia-axis length to the foot."""
    grid = index.grid

    # knee: drop tibia voxels superior to the femur's inferior point, then
    # keep the largest 26-connected component
    sub, sl = index.mask(STRUCTURE_IDS[f"tibia_{side}"])
    cx, cy, cz = _coords_for(grid, sl)
    heights = (cx[:, None, None] * s[0] + cy[None, :, None] * s[1]
               + cz[None, None, :] * s[2])
    keep = sub & (heights <= femur_min)
    if not keep.any():
        raise ValueError(f"tibia_{side} lies entirely above the femur's inferior point")
    keep = _largest_component(keep)
    n_t, mean_t, cov_t = _mask_moments(keep, (cx, cy, cz))
    knee_offset = float(heights[keep].max())

    n_f, _, cov_f = _label_moments(index, STRUCTURE_IDS[f"femur_{side}"])
    femur_axis = _principal_axis_from_moments(n_f, cov_f)
    if femur_axis @ s < 0:
        femur_axis = -femur_axis
    cos_f = float(femur_axis @ s)
    if abs(cos_f) < 1e-9:
        raise ValueError("femur axis is perpendicular to the superior direction")
    upper = (pelvis_offset - knee_offset) / cos_f

    tibia_axis = _principal_axis_from_moments(n_t, cov_t)
    if tibia_axis @ s > 0:
        tibia_axis = -tibia_axis  # point toward the foot
    cos_t = float(tibia_axis @ s)
    if abs(cos_t) < 1e-9:
        raise ValueError("tibia axis is perpendicular to the superior direction")
    t_start = (knee_offset - float(mean_t @ s)) / cos_t
    start = mean_t + t_start * tibia_axis
    exit_point = _ray_exit(body_mask, grid, start, tibia_axis)
    return float(upper) + float(np.linalg.norm(exit_point - start))


def measure_height(body: LabelMap, structures: LabelMap) -> HeightBreakdown:
    """Segmentwise standing-height estimate; total is the exact sum."""
    if body.grid != structures.grid:
        raise ValueError("body and structure maps must share a grid")
    index = LabelIndex(structures)
    for name in ("c1", "c2", "c7"):
        if STRUCTURE_IDS[name] not in index.labels:
            raise ValueError(f"missing landmark {STRUCTURE_IDS[name]} ({name})")
    body_mask = body.body_mask()
    n, _, cov = _mask_moments(body_mask, _coords_for(body.grid))
    if n == 0:
        raise ValueError("degenerate input: body mask is empty")
    s = _principal_axis_from_moments(n, cov)

    # each femur's voxel heights along superior, projected once: the pelvis
    # plane is their max over both femurs, a leg's knee cut its femur's min
    femur_heights = {
        side: _world_coords(index, STRUCTURE_IDS[f"femur_{side}"]) @ s
        for side in ("left", "right") if STRUCTURE_IDS[f"femur_{side}"] in index.labels}
    if not femur_heights:
        raise ValueError(f"no femur voxels (labels {STRUCTURE_IDS['femur_left']}/"
                         f"{STRUCTURE_IDS['femur_right']})")
    pelvis = max(float(h.max()) for h in femur_heights.values())

    per_leg: dict[str, float | None] = {"left_mm": None, "right_mm": None}
    for side, heights in femur_heights.items():
        if STRUCTURE_IDS[f"tibia_{side}"] in index.labels:
            per_leg[f"{side}_mm"] = _leg_length(index, body_mask, s, side, pelvis,
                                                float(heights.min()))
    totals = [v for v in per_leg.values() if v is not None]
    if not totals:
        raise ValueError("no complete leg (femur + tibia) on either side")
    lower_body = max(totals)

    c7 = _centroid(index, STRUCTURE_IDS["c7"])
    torso = float(c7 @ s) - pelvis

    c1 = _centroid(index, STRUCTURE_IDS["c1"])
    c2 = _centroid(index, STRUCTURE_IDS["c2"])
    neck = float(np.linalg.norm(c7 - c1))

    head_dir = c1 - c2
    norm = np.linalg.norm(head_dir)
    if norm < 1e-9:
        raise ValueError("C1 and C2 centroids coincide; head direction undefined")
    crown = _ray_exit(body_mask, body.grid, c1, head_dir / norm)
    head = float(np.linalg.norm(crown - c1))

    total = lower_body + torso + neck + head
    return HeightBreakdown(
        lower_body_mm=lower_body, torso_mm=torso, neck_mm=neck, head_mm=head,
        total_mm=total, per_leg=per_leg)
