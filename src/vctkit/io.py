"""File I/O: the CTV header+raw format (read/write) and NIfTI-1 (read only).

A CTV pair is ``name.ctv.json`` plus ``name.raw``.  The header is one
``CtvHeader`` record, written by ``codec.encode`` in field order (not sorted,
unlike a data JSON file; an image header has no ``class_table`` key) and
read by ``codec.decode``.  The payload is the raw array little-endian in the
array's own C order, z-fastest (linear index ``z + dims[2] * (y + dims[1] *
x)``); the header states that order as ``payload_order: "z_fastest"``, so a
file written in another order is refused, not read transposed.
NIfTI-1 support covers uncompressed single-file images with dtype
int16/uint8/uint16/float32 whose affine is an axis permutation/flip; oblique
orientations are rejected.  HU volumes are clamped to [-1024, 3071] on load.

A CTV save writes the map's own buffer to disk (a copy is made only of a map
that is not C-contiguous, or on a big-endian host).  A load checks the payload
size on disk, then reads the payload into the C-ordered array it returns and
clamps HU in place.  A NIfTI load reads the header alone, checks the payload
size on disk, and reads the x-fastest payload one slab at a time into the
C-ordered array it returns.  A loader names the kind of map it expects, and a
CTV header must state that kind.

Every malformed file raises ValueError as ``<path>: <what>``, from the one
map loader behind ``load_volume`` and ``load_labelmap``; a CTV pair is named
by its header, and a bad header field by its key.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import decode, encode, read_json
from .volume import (
    Grid,
    LabelMap,
    Volume,
    LABEL_DTYPES,
    VOLUME_DTYPES,
    clamp_hu,
    present_labels,
)

CTV_SUFFIX = ".ctv.json"
RAW_SUFFIX = ".raw"

CTV_UNITS = {"image": "HU", "tissue": "label", "structure": "label"}


def check_file_name(name: str, what: str) -> None:
    """Refuse a ``name`` that is empty, ``.``, ``..`` or holds a directory part."""
    if name in ("", ".", "..") or Path(name).name != name:
        raise ValueError(f"{what} must be a plain file name, got {name!r}")


@dataclass(frozen=True, kw_only=True)
class CtvHeader:
    """The JSON header of a CTV pair, its fields in the order they are written."""

    dims: tuple[int, int, int]
    spacing_mm: tuple[float, float, float]
    origin_mm: tuple[float, float, float] = (0.0, 0.0, 0.0)
    orientation: str
    dtype: str
    byte_order: str
    payload_order: str
    kind: str
    unit: str
    class_table: dict[int, str] | None = None
    data_file: str

    def __post_init__(self):
        if self.orientation != "RAS":
            raise ValueError(f"orientation must be 'RAS', got {self.orientation!r}")
        if self.dtype not in {**VOLUME_DTYPES, **LABEL_DTYPES}:
            raise ValueError(f"unsupported dtype {self.dtype!r}")
        if self.byte_order != "little":
            raise ValueError(f"byte_order must be 'little', got {self.byte_order!r}")
        if self.payload_order != "z_fastest":
            raise ValueError(
                f"payload_order must be 'z_fastest', got {self.payload_order!r}")
        if self.kind not in CTV_UNITS:
            raise ValueError(f"kind must be one of {list(CTV_UNITS)}, got {self.kind!r}")
        if self.unit != CTV_UNITS[self.kind]:
            raise ValueError(f"unsupported unit {self.unit!r} for kind {self.kind!r}")
        check_file_name(self.data_file, "data_file")

    @property
    def grid(self) -> Grid:
        return Grid(self.dims, self.spacing_mm, self.origin_mm)


def _ctv_paths(path) -> tuple[Path, Path]:
    header = Path(path)
    if not header.name.endswith(CTV_SUFFIX):
        header = header.with_name(header.name + CTV_SUFFIX)
    return header, header.with_name(header.name[: -len(CTV_SUFFIX)] + RAW_SUFFIX)


def _write_ctv(grid: Grid, data: np.ndarray, kind: str,
               class_table: dict[int, str] | None, path) -> Path:
    header_path, raw_path = _ctv_paths(path)
    header = CtvHeader(
        dims=grid.dims, spacing_mm=grid.spacing_mm, origin_mm=grid.origin_mm,
        orientation="RAS", dtype=str(data.dtype), byte_order="little",
        payload_order="z_fastest", kind=kind, unit=CTV_UNITS[kind],
        class_table=None if class_table is None else dict(sorted(class_table.items())),
        data_file=raw_path.name)
    # only class_table can be None: an image header has no such key
    payload = {k: v for k, v in encode(header).items() if v is not None}
    header_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    # tofile writes C order; the ascontiguousarray copies only a map that is
    # not C-contiguous, or on a big-endian host
    np.ascontiguousarray(data, dtype=data.dtype.newbyteorder("<")).tofile(raw_path)
    return header_path


def save_volume(vol: Volume, path) -> Path:
    """Write a Volume as a CTV pair; returns the header path."""
    return _write_ctv(vol.grid, vol.data, "image", None, path)


def save_labelmap(labels: LabelMap, path) -> Path:
    """Write a LabelMap as a CTV pair; returns the header path."""
    return _write_ctv(labels.grid, labels.data, labels.kind, labels.class_table, path)


def _read_ctv(header_path: Path, kind: str) -> tuple[Grid, np.ndarray, dict[int, str]]:
    header = decode(CtvHeader, read_json(header_path))
    grid = header.grid
    if header.kind != kind:
        raise ValueError(f"expected kind {kind!r}, got {header.kind!r}")
    dtype = np.dtype({**VOLUME_DTYPES, **LABEL_DTYPES}[header.dtype]).newbyteorder("<")
    raw_path = header_path.with_name(header.data_file)
    size = raw_path.stat().st_size
    expected = grid.n_voxels * dtype.itemsize
    if size != expected:
        raise ValueError(
            f"payload size {size} does not match dims {grid.dims} "
            f"and dtype {header.dtype} (expected {expected})")
    # one writable buffer: the astype copies only on a big-endian host
    data = np.fromfile(raw_path, dtype=dtype).astype(dtype.newbyteorder("="), copy=False)
    return grid, data.reshape(grid.dims), header.class_table or {}


def _load_map(path, cls, kind: str):
    """The ``cls`` map (a clamped Volume, or a LabelMap of ``kind``) in the CTV
    pair or NIfTI-1 file at ``path``; any ValueError is raised again as
    ``<path>: <what>``, a CTV pair named by its header."""
    path = Path(path)
    try:
        if path.name.endswith(".nii"):
            grid, data = _read_nifti(path)
            # NIfTI carries no class table: one is synthesized from the values
            # present; a non-label dtype gets none, and LabelMap rejects it
            table = ({v: f"class_{v}" for v in present_labels(data) if v != 0}
                     if cls is LabelMap and data.dtype.name in LABEL_DTYPES else {})
        else:
            path = _ctv_paths(path)[0]
            grid, data, table = _read_ctv(path, kind)
        if cls is LabelMap:
            return LabelMap(grid, data, kind, table)
        vol = Volume(grid, data)
        clamp_hu(vol.data)
        return vol
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_volume(path) -> Volume:
    """Load an image volume from a CTV pair or a NIfTI-1 file."""
    return _load_map(path, Volume, "image")


def load_labelmap(path, kind: str) -> LabelMap:
    """Load a label map of ``kind`` from a CTV pair or a NIfTI-1 file."""
    return _load_map(path, LabelMap, kind)


# --- NIfTI-1 -----------------------------------------------------------

_NIFTI_DTYPES = {2: np.uint8, 4: np.int16, 16: np.float32, 512: np.uint16}


def _read_nifti(path: Path) -> tuple[Grid, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read(352)
    if len(blob) < 352:
        raise ValueError("NIfTI file shorter than its 352-byte minimum")
    endian = "<"
    (sizeof_hdr,) = struct.unpack_from("<i", blob, 0)
    if sizeof_hdr != 348:
        endian = ">"
        (sizeof_hdr,) = struct.unpack_from(">i", blob, 0)
        if sizeof_hdr != 348:
            raise ValueError("not a NIfTI-1 file (bad sizeof_hdr)")
    magic = struct.unpack_from("4s", blob, 344)[0]
    if magic not in (b"n+1\x00",):
        raise ValueError(
            "only single-file NIfTI-1 ('n+1') is supported, got magic "
            f"{magic!r}")
    dim = struct.unpack_from(endian + "8h", blob, 40)
    ndim = dim[0]
    if ndim < 3 or any(d > 1 for d in dim[4:1 + ndim]):
        raise ValueError(f"only 3-D NIfTI images are supported, dim={dim}")
    dims = tuple(int(d) for d in dim[1:4])
    if any(d < 1 for d in dims):
        raise ValueError(f"bad NIfTI dims {dims}")
    (datatype,) = struct.unpack_from(endian + "h", blob, 70)
    if datatype not in _NIFTI_DTYPES:
        raise ValueError(f"unsupported NIfTI datatype code {datatype}")
    pixdim = struct.unpack_from(endian + "8f", blob, 76)
    (vox_offset,) = struct.unpack_from(endian + "f", blob, 108)
    scl_slope, scl_inter = struct.unpack_from(endian + "2f", blob, 112)
    if scl_slope not in (0.0, 1.0) or scl_inter != 0.0:
        raise ValueError(
            f"NIfTI value scaling unsupported (scl_slope={scl_slope}, "
            f"scl_inter={scl_inter})")
    qform_code, sform_code = struct.unpack_from(endian + "2h", blob, 252)

    if sform_code > 0:
        srow = np.array([
            struct.unpack_from(endian + "4f", blob, 280),
            struct.unpack_from(endian + "4f", blob, 296),
            struct.unpack_from(endian + "4f", blob, 312),
        ], dtype=np.float64)
        direction = srow[:, :3]
        offset = srow[:, 3]
    elif qform_code > 0:
        b, c, d = struct.unpack_from(endian + "3f", blob, 256)
        offset = np.array(struct.unpack_from(endian + "3f", blob, 268), dtype=np.float64)
        a2 = 1.0 - (b * b + c * c + d * d)
        a = math.sqrt(a2) if a2 > 0 else 0.0
        rot = np.array([
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a + d * d - b * b - c * c],
        ])
        qfac = -1.0 if pixdim[0] == -1.0 else 1.0
        direction = rot * np.array([pixdim[1], pixdim[2], qfac * pixdim[3]])
    else:
        direction = np.diag([pixdim[1] or 1.0, pixdim[2] or 1.0, pixdim[3] or 1.0])
        offset = np.zeros(3)

    dtype = np.dtype(_NIFTI_DTYPES[datatype]).newbyteorder(endian)
    start = int(vox_offset)
    if start < 348:
        raise ValueError(f"bad vox_offset {vox_offset}")
    count = dims[0] * dims[1] * dims[2]
    if path.stat().st_size - start < count * dtype.itemsize:
        raise ValueError("NIfTI payload truncated")

    # map data axes to world RAS axes; only permutation/flip affines allowed
    spacing = [0.0, 0.0, 0.0]
    perm = [-1, -1, -1]
    flip = [False, False, False]
    for j in range(3):
        col = direction[:, j]
        w = int(np.argmax(np.abs(col)))
        rest = np.abs(col).sum() - abs(col[w])
        if abs(col[w]) <= 0 or rest > 1e-3 * abs(col[w]):
            raise ValueError("oblique NIfTI orientation is unsupported")
        perm[j] = w
        flip[j] = col[w] < 0
        spacing[w] = abs(col[w])
    if sorted(perm) != [0, 1, 2]:
        raise ValueError("degenerate NIfTI orientation")

    origin = np.asarray(offset, dtype=np.float64).copy()
    for j in range(3):
        if flip[j]:
            w = perm[j]
            origin[w] = offset[w] + direction[w, j] * (dims[j] - 1)
    # data axis j is world axis perm[j]: the payload is read one z-slab at a
    # time into a C-ordered world array, through a view of it in data axis
    # order, so no second whole-grid buffer is held
    data = np.empty(tuple(dims[perm.index(w)] for w in range(3)), dtype.newbyteorder("="))
    view = np.transpose(data, perm)
    for j in range(3):
        if flip[j]:
            view = np.flip(view, axis=j)
    with open(path, "rb") as fh:
        fh.seek(start)
        for k in range(dims[2]):
            slab = np.fromfile(fh, dtype=dtype, count=dims[0] * dims[1])
            view[:, :, k] = slab.reshape(dims[:2], order="F")
    return Grid(data.shape, tuple(spacing), tuple(float(o) for o in origin)), data
