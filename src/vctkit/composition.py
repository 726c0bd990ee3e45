"""Body-composition measurement from a CT volume plus tissue label map, or
from a phantom's HU image alone.

Voxel HU maps to mass density via ``density(HU) = (HU + 1000) /
(REFERENCE_HU + 1000)`` g/cm^3, where ``REFERENCE_HU`` is the HU of the
reference material whose density is defined as 1 (water, 0 HU); the
phantom's materials and its ground truth use the same map.  Before the
mapping, voxels at or below the air threshold (-900 HU inclusive) are set to
-1000 HU so near-air noise carries zero mass.  Bone density is reported as
the mean *raw* HU over bone-tissue voxels, without the air adjustment.

No body-sized float array is built.  The HU of the body, and then of each
tissue class, is gathered one grid chunk at a time into the front of one HU
array, and each sum walks numpy's own pairwise tree over that group's slice
(``np.add.reduce`` of a contiguous float64 array) one cache-sized leaf at a
time, so every mass keeps the bits of summing a whole density array.  A leaf
of int16 HU takes its densities from a table of all 65,536 values, built by
the same arithmetic that float32 HU goes through directly.

A phantom's canvas paints each HU value as one tissue, so its tissue map is a
function of its HU image and ``measure_painted`` needs no map: the body is
every voxel above the air threshold, gathered and summed as above, and a
tissue class painted at one HU value is n copies of it.  The pairwise sum of
n copies depends on n alone, so each subtree size is summed once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .skeleton import HeightBreakdown
from .volume import TISSUE_IDS, LabelMap, Volume, voxel_volume_mm3

REFERENCE_HU = 0.0
AIR_THRESHOLD_HU = -900.0
AIR_FILL_HU = -1000.0

# voxels per grid chunk of a gather, and the most elements a leaf of a sum
# holds; a leaf must not be smaller than numpy's 128-element pairwise block,
# which numpy never splits.  A 128 KB leaf buffer, not 256 KB, keeps the
# call's heap churn small enough that glibc does not trim its pages and
# fault them in again on the next call
_GRID_CHUNK = 1 << 17
_CHUNK = 1 << 14


def density(hu):
    """Mass density (g/cm^3) of a material of ``hu`` HU."""
    return (hu + 1000.0) / (REFERENCE_HU + 1000.0)


def _air_densities(out, hu):
    """Write the densities of ``hu``, air voxels at zero, into float64 ``out``."""
    np.add(hu, 1000.0, out=out, dtype=np.float64)
    out[hu <= AIR_THRESHOLD_HU] = AIR_FILL_HU + 1000.0
    out /= REFERENCE_HU + 1000.0
    return out


# the density of every int16 HU value, indexed by its bits read as uint16;
# a call that looks its leaves up here takes 0.83-0.90 of the time of one
# that computes them
_INT16_DENSITY = _air_densities(np.empty(1 << 16),
                                np.arange(1 << 16, dtype=np.uint16).view(np.int16))


def _table_densities(out, hu):
    """``_air_densities`` of int16 ``hu``, looked up in its table; every
    uint16 index is in range, so "clip" only skips take's bounds check."""
    return _INT16_DENSITY.take(hu.view(np.uint16), out=out, mode="clip")


def _gather(hu, labels, image, test, value, mask):
    """Copy ``image[test(labels, value)]`` of flat ``labels`` and ``image``
    to the front of ``hu`` and return how many values it holds; the
    chunk-sized ``mask`` serves every grid chunk."""
    n = 0
    for start in range(0, labels.size, _GRID_CHUNK):
        part = labels[start:start + _GRID_CHUNK]
        got = image[start:start + _GRID_CHUNK][test(part, value, out=mask[:part.size])]
        hu[n:n + got.size] = got
        n += got.size
    return n


def _count(values, test, value, mask):
    """How many of flat ``values`` pass ``test(values, value)``; the
    chunk-sized ``mask`` serves every grid chunk."""
    n = 0
    for start in range(0, values.size, _GRID_CHUNK):
        part = values[start:start + _GRID_CHUNK]
        n += int(np.count_nonzero(test(part, value, out=mask[:part.size])))
    return n


def _half(n):
    """Where numpy splits a pairwise block of ``n``: at half, rounded down to
    a multiple of 8."""
    n2 = n // 2
    return n2 - n2 % 8


def _tree(values, buf, fill):
    """``np.add.reduce`` of what ``fill`` writes of ``values``, to the bit.

    numpy sums a contiguous float64 array pairwise, splitting a block of more
    than 128 elements at half its size rounded down to a multiple of 8.  Split
    the same way down to ``_CHUNK`` elements, each leaf is a block of numpy's
    own tree, which ``fill`` writes into ``buf`` for numpy to reduce.
    """
    n = values.size
    if n > _CHUNK:
        n2 = _half(n)
        return _tree(values[:n2], buf, fill) + _tree(values[n2:], buf, fill)
    fill(buf[:n], values)
    return np.add.reduce(buf[:n])


def _constant_tree(n, value, buf, sums):
    """``_tree`` of ``n`` copies of float64 ``value``, to the bit; a subtree's
    sum depends on its size alone, so each size is summed once, into ``sums``."""
    if n not in sums:
        if n > _CHUNK:
            n2 = _half(n)
            sums[n] = (_constant_tree(n2, value, buf, sums)
                       + _constant_tree(n - n2, value, buf, sums))
        else:
            buf[:n] = value
            sums[n] = np.add.reduce(buf[:n])
    return sums[n]


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


def _report(grid, n_body, m_body, masses, bone_hu) -> CompositionReport:
    """The report of a body of ``n_body`` voxels on ``grid``, from the float64
    sums of its densities (``m_body``) and of each tissue's (``masses``), and
    bone's mean raw HU; it raises as ``measure_composition`` says."""
    if n_body == 0:
        raise ValueError("degenerate input: body mask is empty")
    vox_cm3 = voxel_volume_mm3(grid) / 1000.0
    m_body = float(m_body) * vox_cm3
    if not np.isfinite(m_body):
        raise ValueError(f"body mass is {m_body}: the image holds a non-finite HU value")
    if m_body <= 0.0:
        raise ValueError("degenerate input: body mask has zero total mass")
    masses = {name: float(m) * vox_cm3 for name, m in masses.items()}
    return CompositionReport(
        body_mass_kg=m_body / 1000.0,
        fat_pct=100.0 * masses["fat"] / m_body,
        muscle_pct=100.0 * masses["muscle"] / m_body,
        bone_density_hu=bone_hu,
        body_volume_l=n_body * voxel_volume_mm3(grid) / 1.0e6,
        per_tissue_mass_g=masses,
    )


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

    # C order, as boolean indexing takes it: a view of a C-ordered map, a
    # copy of any other (not order="K", whose order would move the sums' bits)
    labels, image = np.ravel(tissue.data), np.ravel(vol.data)
    n_body = np.count_nonzero(labels)
    # one group's HU at a time at the front of ``hu``, so it is the only
    # body-sized data; past the group's count it holds stale HU of earlier
    # groups.  The array, mask and leaf buffer are the call's own, so
    # threads share nothing
    hu = np.empty(n_body, image.dtype)
    mask, buf = np.empty(_GRID_CHUNK, dtype=bool), np.empty(_CHUNK)
    fill = _table_densities if image.dtype == np.int16 else _air_densities
    _gather(hu, labels, image, np.not_equal, 0, mask)
    m_body = _tree(hu, buf, fill)
    masses = {}
    for name in ("fat", "muscle", "bone"):
        n = _gather(hu, labels, image, np.equal, TISSUE_IDS[name], mask)
        masses[name] = _tree(hu[:n], buf, fill)
    # bone is the last group gathered: its mean raw HU, summed in float64
    bone_hu = float(_tree(hu[:n], buf, np.copyto)) / n if n else None
    return _report(vol.grid, n_body, m_body, masses, bone_hu)


def measure_painted(vol: Volume, painted: dict[int, int]) -> CompositionReport:
    """``measure_composition`` of a phantom's HU image and of the tissue map
    that is a function of it, to the bit, with no map.

    ``painted`` maps each HU value painted to its tissue id, and every voxel
    holds one of them or is background at or below ``AIR_THRESHOLD_HU``; fat,
    muscle and bone are each painted at one HU value at most.
    """
    image = np.ravel(vol.data)  # a view of a C-ordered canvas
    # an int keeps the test of int16 HU in int16, several times faster
    air = int(AIR_THRESHOLD_HU)
    mask, buf = np.empty(_GRID_CHUNK, dtype=bool), np.empty(_CHUNK)
    n_body = _count(image, np.greater, air, mask)
    hu = np.empty(n_body, image.dtype)
    _gather(hu, image, image, np.greater, air, mask)
    fill = _table_densities if image.dtype == np.int16 else _air_densities
    m_body = _tree(hu, buf, fill)
    masses, bone_hu = {}, None
    for name in ("fat", "muscle", "bone"):
        values = [h for h, label in painted.items() if label == TISSUE_IDS[name]]
        if len(values) > 1:
            raise ValueError(f"{name} is painted at {len(values)} HU values, not one")
        n = _count(hu, np.equal, values[0], mask) if values else 0
        if n == 0:
            masses[name] = 0.0
            continue
        masses[name] = _constant_tree(n, fill(np.empty(1), np.array(values, image.dtype))[0],
                                      buf, {})
        if name == "bone":  # its mean raw HU, summed in float64
            bone_hu = float(_constant_tree(n, float(values[0]), buf, {})) / n
    return _report(vol.grid, n_body, m_body, masses, bone_hu)
