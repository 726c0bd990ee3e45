"""Body-composition measurement from a CT volume plus tissue label map.

Voxel HU maps to mass density via ``density(HU) = (HU + 1000) /
(REFERENCE_HU + 1000)`` g/cm^3, where ``REFERENCE_HU`` is the HU of the
reference material whose density is defined as 1 (water, 0 HU); the
phantom's materials and its ground truth use the same map.  Before the
mapping, voxels at or below the air threshold (-900 HU inclusive) are set to
-1000 HU so near-air noise carries zero mass.  The body is compacted first;
one float64 array then holds its ``HU + 1000``, its air voxels are set to
``AIR_FILL_HU + 1000`` (zero) and it is divided in place, so it is the only
body-sized float array a measurement builds.  Bone
density is reported as the mean *raw* HU over bone-tissue voxels, without
the air adjustment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .skeleton import HeightBreakdown
from .volume import TISSUE_IDS, LabelMap, Volume, voxel_volume_mm3

REFERENCE_HU = 0.0
AIR_THRESHOLD_HU = -900.0
AIR_FILL_HU = -1000.0


def density(hu):
    """Mass density (g/cm^3) of a material of ``hu`` HU."""
    return (hu + 1000.0) / (REFERENCE_HU + 1000.0)


@dataclass(frozen=True)
class CompositionReport:
    """Per-subject body-composition measurements, in their files' units."""

    body_mass_kg: float
    fat_pct: float
    muscle_pct: float
    bone_density_hu: float | None
    body_volume_l: float
    per_tissue_mass_g: dict[str, float] = field(default_factory=dict)
    height: HeightBreakdown | None = None  # attached by measure pipelines


def measure_composition(vol: Volume, tissue: LabelMap) -> CompositionReport:
    """Measure mass, fat/muscle percentages, bone HU, and body volume.

    The body is every nonzero tissue voxel.  Percentages are mass fractions
    of total body mass.  An empty body mask (or one with zero total mass) is
    a degenerate input and raises, as does a non-finite HU in the body.
    """
    if vol.grid != tissue.grid:
        raise ValueError("volume and tissue map must share a grid")
    if tissue.kind != "tissue":
        raise ValueError(f"expected a tissue map, got kind {tissue.kind!r}")

    # compact the body once; density() then runs on one float64 array that
    # the + 1000 builds, so no other body-sized float is built
    body = tissue.body_mask()
    labels = tissue.data[body]
    hu = vol.data[body]
    n_body = labels.size
    if n_body == 0:
        raise ValueError("degenerate input: body mask is empty")
    rho = np.add(hu, 1000.0, dtype=np.float64)
    rho[hu <= AIR_THRESHOLD_HU] = AIR_FILL_HU + 1000.0
    rho /= REFERENCE_HU + 1000.0
    vox_cm3 = voxel_volume_mm3(vol.grid) / 1000.0

    m_body = float(rho.sum()) * vox_cm3
    if not np.isfinite(m_body):
        raise ValueError(f"body mass is {m_body}: the image holds a non-finite HU value")
    if m_body <= 0.0:
        raise ValueError("degenerate input: body mask has zero total mass")
    m_fat = float(rho[labels == TISSUE_IDS["fat"]].sum()) * vox_cm3
    m_muscle = float(rho[labels == TISSUE_IDS["muscle"]].sum()) * vox_cm3

    bone = labels == TISSUE_IDS["bone"]
    m_bone = float(rho[bone].sum()) * vox_cm3
    bone_hu = float(hu[bone].astype(np.float64).mean()) if bone.any() else None
    return CompositionReport(
        body_mass_kg=m_body / 1000.0,
        fat_pct=100.0 * m_fat / m_body,
        muscle_pct=100.0 * m_muscle / m_body,
        bone_density_hu=bone_hu,
        body_volume_l=n_body * voxel_volume_mm3(vol.grid) / 1.0e6,
        per_tissue_mass_g={"fat": m_fat, "muscle": m_muscle, "bone": m_bone},
    )
