"""Body-composition measurement from a CT volume plus tissue label map.

Voxel HU maps to mass density via ``density(HU) = (HU + 1000) /
(REFERENCE_HU + 1000)`` g/cm^3, where ``REFERENCE_HU`` is the HU of the
reference material whose density is defined as 1 (water, 0 HU); the
phantom's materials and its ground truth use the same map.  Before the
mapping, voxels at or below the air threshold (-900 HU inclusive) are set to
-1000 HU so near-air noise carries zero mass.  Bone density is reported as
the mean *raw* HU over bone-tissue voxels, without the air adjustment.

No body-sized float array is built.  The HU of the body, and then of each
tissue class, is gathered one grid chunk at a time into pieces, and each sum
walks numpy's own pairwise tree over those values (``np.add.reduce`` of a
contiguous float64 array) one cache-sized leaf at a time, so every mass keeps
the bits of summing a whole density array.  A leaf of int16 HU takes its
densities from a table of all 65,536 values, built by the same arithmetic
that float32 HU goes through directly.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field

import numpy as np

from .skeleton import HeightBreakdown
from .volume import TISSUE_IDS, LabelMap, Volume, voxel_volume_mm3

REFERENCE_HU = 0.0
AIR_THRESHOLD_HU = -900.0
AIR_FILL_HU = -1000.0

# voxels per grid chunk of a gather, and the most elements a leaf of a sum
# holds; a leaf must not be smaller than numpy's 128-element pairwise block,
# which numpy never splits
_GRID_CHUNK = 1 << 17
_CHUNK = 1 << 15


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
    _INT16_DENSITY.take(hu.view(np.uint16), out=out, mode="clip")


def _pieces(labels, image, test, value, mask):
    """``image[test(labels, value)]`` of flat ``labels`` and ``image`` as a
    list of nonempty pieces, one per grid chunk; the chunk-sized ``mask``
    serves every chunk."""
    pieces = []
    for start in range(0, labels.size, _GRID_CHUNK):
        part = labels[start:start + _GRID_CHUNK]
        got = image[start:start + _GRID_CHUNK][test(part, value, out=mask[:part.size])]
        if got.size:
            pieces.append(got)
    return pieces


def _tree(pieces, starts, lo, hi, buf, fill):
    """``np.add.reduce`` of what ``fill`` writes of elements ``lo:hi`` of
    the concatenated ``pieces`` (``starts`` holds their offsets and the total).

    numpy sums a contiguous float64 array pairwise, splitting a block of more
    than 128 elements at half its size rounded down to a multiple of 8.  Split
    the same way down to ``_CHUNK`` elements, each leaf is a block of numpy's
    own tree, which ``fill`` writes into ``buf`` for numpy to reduce.
    """
    n = hi - lo
    if n > _CHUNK:
        n2 = n // 2
        n2 -= n2 % 8
        return (_tree(pieces, starts, lo, lo + n2, buf, fill)
                + _tree(pieces, starts, lo + n2, hi, buf, fill))
    at, i = lo, bisect.bisect_right(starts, lo) - 1
    while at < hi:
        stop = min(hi, starts[i + 1])
        fill(buf[at - lo:stop - lo], pieces[i][at - starts[i]:stop - starts[i]])
        at, i = stop, i + 1
    return np.add.reduce(buf[:n])


def _sum(pieces, buf, fill):
    """``np.add.reduce`` of ``fill`` over the concatenated ``pieces``, to the bit."""
    starts = [0, *itertools.accumulate(piece.size for piece in pieces)]
    return float(_tree(pieces, starts, 0, starts[-1], buf, fill))


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

    # C order, as boolean indexing takes it: a view of a C-ordered map, a
    # copy of any other (not order="K", whose order would move the sums' bits)
    labels, image = np.ravel(tissue.data), np.ravel(vol.data)
    # one group's HU pieces at a time, so they are the only body-sized data
    # alive; the mask and leaf buffer are the call's own, so threads share
    # nothing
    mask, buf = np.empty(_GRID_CHUNK, dtype=bool), np.empty(_CHUNK)
    fill = _table_densities if image.dtype == np.int16 else _air_densities
    vox_cm3 = voxel_volume_mm3(vol.grid) / 1000.0
    body = _pieces(labels, image, np.not_equal, 0, mask)
    n_body = sum(piece.size for piece in body)
    if n_body == 0:
        raise ValueError("degenerate input: body mask is empty")
    m_body = _sum(body, buf, fill) * vox_cm3
    del body
    if not np.isfinite(m_body):
        raise ValueError(f"body mass is {m_body}: the image holds a non-finite HU value")
    if m_body <= 0.0:
        raise ValueError("degenerate input: body mask has zero total mass")

    masses = {}
    for name in ("fat", "muscle", "bone"):
        pieces = _pieces(labels, image, np.equal, TISSUE_IDS[name], mask)
        masses[name] = _sum(pieces, buf, fill) * vox_cm3
    # the bone pieces are the last left: their mean raw HU, summed in float64
    n_bone = sum(piece.size for piece in pieces)
    bone_hu = _sum(pieces, buf, np.copyto) / n_bone if n_bone else None
    return CompositionReport(
        body_mass_kg=m_body / 1000.0,
        fat_pct=100.0 * masses["fat"] / m_body,
        muscle_pct=100.0 * masses["muscle"] / m_body,
        bone_density_hu=bone_hu,
        body_volume_l=n_body * voxel_volume_mm3(vol.grid) / 1.0e6,
        per_tissue_mass_g=masses,
    )
