"""Grid geometry, HU clamping, x-fastest voxel indexing, and volume and
label-map validation."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vctkit.io import load_labelmap, save_labelmap
from vctkit.volume import (
    Grid,
    HU_MAX,
    HU_MIN,
    LabelMap,
    Volume,
    clamp_hu,
    voxel_volume_mm3,
)


def _grid(dims=(4, 5, 6), spacing=(1.0, 2.0, 3.0), origin=(0.0, 0.0, 0.0)):
    return Grid(dims, spacing, origin)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid((0, 2, 2), (1, 1, 1))
    with pytest.raises(ValueError):
        Grid((2, 2, 2), (1.0, -1.0, 1.0))
    with pytest.raises(ValueError):
        Grid((2, 2, 2), (1, 1, 1), orientation="LPS")


def test_world_coordinates():
    g = _grid(origin=(10.0, -5.0, 0.5))
    np.testing.assert_allclose(g.index_to_world([[1, 1, 1]]), [[11.0, -3.0, 3.5]])
    np.testing.assert_allclose(g.axis_coords(2), 0.5 + 3.0 * np.arange(6))


def test_voxel_volume():
    assert voxel_volume_mm3(_grid()) == 6.0


def _save_and_reload(labels: LabelMap, directory: Path):
    """The CTV raw payload of ``labels`` as bytes, and the label map read back."""
    save_labelmap(labels, directory / "m")
    payload = np.frombuffer((directory / "m.raw").read_bytes(), dtype=np.uint8)
    return payload, load_labelmap(directory / "m")


@given(st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
       st.data())
def test_linear_index_round_trip(dims, data):
    # voxel (x, y, z) is stored at x + nx * (y + ny * z) and read back in place
    x = data.draw(st.integers(0, dims[0] - 1))
    y = data.draw(st.integers(0, dims[1] - 1))
    z = data.draw(st.integers(0, dims[2] - 1))
    labels = np.zeros(dims, dtype=np.uint8)
    labels[x, y, z] = 1
    lm = LabelMap(Grid(dims, (1.0, 1.0, 1.0)), labels, "tissue", {1: "body"})
    with tempfile.TemporaryDirectory() as d:
        payload, back = _save_and_reload(lm, Path(d))
    li = x + dims[0] * (y + dims[1] * z)
    assert 0 <= li < dims[0] * dims[1] * dims[2]
    assert np.flatnonzero(payload).tolist() == [li]
    assert np.argwhere(back.data).tolist() == [[x, y, z]]


def test_linear_index_is_x_fastest(tmp_path):
    labels = np.zeros((4, 5, 6), dtype=np.uint8)
    labels[1, 0, 0], labels[0, 1, 0], labels[0, 0, 1] = 1, 2, 3
    lm = LabelMap(Grid((4, 5, 6), (1.0, 1.0, 1.0)), labels, "tissue",
                  {1: "x", 2: "y", 3: "z"})
    payload, _ = _save_and_reload(lm, tmp_path)
    assert np.flatnonzero(payload).tolist() == [1, 4, 20]
    assert payload[[1, 4, 20]].tolist() == [1, 2, 3]


def test_clamp_hu_bounds():
    data = np.array([-5000, HU_MIN, 0, HU_MAX, 9000], dtype=np.int16)
    clamped = clamp_hu(data)
    assert clamped.tolist() == [HU_MIN, HU_MIN, 0, HU_MAX, HU_MAX]


def test_volume_shape_and_dtype_checks():
    g = _grid()
    good = np.zeros(g.dims, dtype=np.int16)
    Volume(g, good)
    with pytest.raises(ValueError):
        Volume(g, np.zeros((4, 5, 7), dtype=np.int16))
    with pytest.raises(ValueError):
        Volume(g, good.astype(np.int32))
    with pytest.raises(ValueError):
        Volume(g, good, unit="kelvin")


def test_labelmap_requires_class_table_cover():
    g = _grid()
    data = np.zeros(g.dims, dtype=np.uint8)
    data[0, 0, 0] = 3
    with pytest.raises(ValueError):
        LabelMap(g, data, "tissue", {})
    lm = LabelMap(g, data, "tissue", {3: "muscle"})
    assert lm.mask(3).sum() == 1
    assert lm.body_mask().sum() == 1
