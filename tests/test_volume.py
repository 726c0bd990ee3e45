"""Grid geometry, HU clamping, z-fastest (C-order) voxel indexing, and volume
and label-map validation."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage

from vctkit.io import load_labelmap, save_labelmap
from vctkit.volume import (
    Grid,
    HU_MAX,
    HU_MIN,
    LabelIndex,
    LabelMap,
    STRUCTURE_TABLE,
    TISSUE_CLASSES,
    Volume,
    _BINCOUNT_CHUNK,
    clamp_hu,
    present_labels,
    voxel_volume_mm3,
)


def _grid(dims=(4, 5, 6), spacing=(1.0, 2.0, 3.0), origin=(0.0, 0.0, 0.0)):
    return Grid(dims, spacing, origin)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid((0, 2, 2), (1, 1, 1))
    with pytest.raises(ValueError):
        Grid((2, 2, 2), (1.0, -1.0, 1.0))


def test_world_coordinates():
    g = _grid(origin=(10.0, -5.0, 0.5))
    np.testing.assert_allclose(g.axis_coords(2), 0.5 + 3.0 * np.arange(6))


def test_voxel_volume():
    assert voxel_volume_mm3(_grid()) == 6.0


def _save_and_reload(labels: LabelMap, directory: Path):
    """The CTV raw payload of ``labels`` as bytes, and the label map read back."""
    save_labelmap(labels, directory / "m")
    payload = np.frombuffer((directory / "m.raw").read_bytes(), dtype=np.uint8)
    return payload, load_labelmap(directory / "m", labels.kind)


@given(st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
       st.data())
def test_linear_index_round_trip(dims, data):
    # voxel (x, y, z) is stored at z + nz * (y + ny * x) and read back in place
    x = data.draw(st.integers(0, dims[0] - 1))
    y = data.draw(st.integers(0, dims[1] - 1))
    z = data.draw(st.integers(0, dims[2] - 1))
    labels = np.zeros(dims, dtype=np.uint8)
    labels[x, y, z] = 1
    lm = LabelMap(Grid(dims, (1.0, 1.0, 1.0)), labels, "tissue", {1: "body"})
    with tempfile.TemporaryDirectory() as d:
        payload, back = _save_and_reload(lm, Path(d))
    li = z + dims[2] * (y + dims[1] * x)
    assert 0 <= li < dims[0] * dims[1] * dims[2]
    assert np.flatnonzero(payload).tolist() == [li]
    assert np.argwhere(back.data).tolist() == [[x, y, z]]


def test_linear_index_is_z_fastest(tmp_path):
    labels = np.zeros((4, 5, 6), dtype=np.uint8)
    labels[1, 0, 0], labels[0, 1, 0], labels[0, 0, 1] = 1, 2, 3
    lm = LabelMap(Grid((4, 5, 6), (1.0, 1.0, 1.0)), labels, "tissue",
                  {1: "x", 2: "y", 3: "z"})
    payload, _ = _save_and_reload(lm, tmp_path)
    assert np.flatnonzero(payload).tolist() == [1, 6, 30]
    assert payload[[1, 6, 30]].tolist() == [3, 2, 1]


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


def test_labelmap_requires_class_table_cover():
    g = _grid()
    data = np.zeros(g.dims, dtype=np.uint8)
    data[0, 0, 0] = 3
    with pytest.raises(ValueError):
        LabelMap(g, data, "tissue", {})
    lm = LabelMap(g, data, "tissue", {3: "muscle"})
    index = LabelIndex(lm)
    assert index.labels == (3,)
    sub, box = index.mask(3)
    assert sub.sum() == 1 and box == (slice(0, 1),) * 3
    assert lm.body_mask().sum() == 1


def _bincount_rule(data: np.ndarray, class_table: dict) -> list[int]:
    """Reference check: count every value, list the nonzero ones the table lacks."""
    present = np.nonzero(np.bincount(data.ravel()))[0]
    return [int(v) for v in present if v != 0 and int(v) not in class_table]


_GAPPY_TABLE = {0: "bg", 1: "a", 2: "b", 5: "c", 9: "d", 10: "e", 300: "f"}
_ODD_TABLE = {k: "c" for k in range(1, 22, 2)}


@st.composite
def _labels_and_table(draw):
    dtype = draw(st.sampled_from([np.uint8, np.uint16]))
    table = draw(st.one_of(
        st.just(dict(STRUCTURE_TABLE)),  # gap at 17..19
        st.just(dict(TISSUE_CLASSES)),   # holds key 0
        st.dictionaries(st.integers(0, 40), st.just("c"), max_size=12)))
    keys = sorted(table) or [0]
    top = int(np.iinfo(dtype).max)
    values = draw(st.lists(
        st.one_of(st.just(0), st.sampled_from(keys), st.integers(0, 45),
                  st.integers(0, top)),
        min_size=1, max_size=24))
    return np.array(values, dtype=dtype).reshape(-1, 1, 1), table


@settings(max_examples=300)  # each example takes well under a millisecond
@given(_labels_and_table())
@example((np.zeros((3, 1, 1), np.uint8), dict(STRUCTURE_TABLE)))
@example((np.array([1, 2], np.uint8).reshape(-1, 1, 1), {2: "c"}))
@example((np.array([0, 16, 17, 20], np.uint8).reshape(-1, 1, 1), dict(STRUCTURE_TABLE)))
@example((np.array([0, 32, 33], np.uint8).reshape(-1, 1, 1), dict(STRUCTURE_TABLE)))
@example((np.array([0, 1, 4], np.uint16).reshape(-1, 1, 1), dict(TISSUE_CLASSES)))
@example((np.array([4, 65535], np.uint16).reshape(-1, 1, 1), dict(TISSUE_CLASSES)))
@example((np.array([0, 300], np.uint16).reshape(-1, 1, 1), {0: "bg", 300: "c"}))
# each end of the structure table's gap run 17..19, and 0 and lo - 1 = 16,
# which the unsigned wrap of the range test must not flag
@example((np.array([0, 16, 17], np.uint8).reshape(-1, 1, 1), dict(STRUCTURE_TABLE)))
@example((np.array([0, 16, 19], np.uint8).reshape(-1, 1, 1), dict(STRUCTURE_TABLE)))
@example((np.array([0, 16, 20], np.uint8).reshape(-1, 1, 1), dict(STRUCTURE_TABLE)))
# a uint16 table with gap runs 3..4, 6..8, 11..299 and, above its last key,
# 301..max: 0 and each lo - 1 pass, each end of a run fails, as does a
# maximum the table lacks
@example((np.array([0, 2, 5, 10, 300], np.uint16).reshape(-1, 1, 1), _GAPPY_TABLE))
@example((np.array([0, 2, 3], np.uint16).reshape(-1, 1, 1), _GAPPY_TABLE))
@example((np.array([4, 10], np.uint16).reshape(-1, 1, 1), _GAPPY_TABLE))
@example((np.array([0, 5, 11], np.uint16).reshape(-1, 1, 1), _GAPPY_TABLE))
@example((np.array([299, 300, 0], np.uint16).reshape(-1, 1, 1), _GAPPY_TABLE))
@example((np.array([0, 300, 301], np.uint16).reshape(-1, 1, 1), _GAPPY_TABLE))
@example((np.array([1, 65535], np.uint16).reshape(-1, 1, 1), _GAPPY_TABLE))
# a table with ten gap runs, one range test each
@example((np.array([0, 1, 21, 3], np.uint8).reshape(-1, 1, 1), _ODD_TABLE))
@example((np.array([0, 21, 20], np.uint8).reshape(-1, 1, 1), _ODD_TABLE))
def test_labelmap_check_matches_bincount_rule(case):
    data, table = case
    grid = Grid(data.shape, (1.0, 1.0, 1.0))
    unknown = _bincount_rule(data, table)
    if unknown:
        with pytest.raises(ValueError) as err:
            LabelMap(grid, data, "structure", table)
        assert str(err.value) == f"label values {unknown} missing from class_table"
    else:
        LabelMap(grid, data, "structure", table)


def test_labelmap_check_traced_peak(phantom_default, traced_peak):
    # labels {0, 1, 2, 5, 200}: the table lacks the runs 3..4 and 6..199
    data = np.zeros((160, 160, 160), dtype=np.uint8)
    data[:40], data[40:80], data[80:100], data[100] = 1, 2, 5, 200
    table = {0: "bg", 1: "a", 2: "b", 5: "c", 200: "d"}
    structure = phantom_default[3]  # lacks the run 17..19
    for grid, labels, classes in ((Grid(data.shape, (1.0, 1.0, 1.0)), data, table),
                                  (structure.grid, structure.data, STRUCTURE_TABLE)):
        _, peak = traced_peak(LabelMap, grid, labels, "structure", classes)
        # a whole-grid range test would hold 2 B per voxel
        assert peak <= 0.25 * labels.size
    # a value the table lacks, in the first voxel of a later chunk
    data.ravel()[1 << 18] = 3
    with pytest.raises(ValueError) as err:
        LabelMap(Grid(data.shape, (1.0, 1.0, 1.0)), data, "structure", table)
    assert str(err.value) == "label values [3] missing from class_table"


def test_labelmap_rejection_traced_peak(traced_peak):
    # listing the unknown labels counts them chunk by chunk; a whole-grid
    # bincount would hold an int64 copy of the grid, 8 B per voxel
    data = np.zeros((160, 160, 160), dtype=np.uint16)
    data[:80] = 4
    data[100, 7, 9] = 60000
    grid = Grid(data.shape, (1.0, 1.0, 1.0))

    def reject():
        with pytest.raises(ValueError) as err:
            LabelMap(grid, data, "tissue", dict(TISSUE_CLASSES))
        return str(err.value)

    message, peak = traced_peak(reject)
    assert message == "label values [60000] missing from class_table"
    assert peak <= 0.25 * data.size


_PLANTED = (-32768, -32767, -1024, -1000, -1, 0, 1, 3071, 32767)


@given(chunks=st.integers(0, 3), offset=st.integers(-2, 2), seed=st.integers(0, 2 ** 32 - 1),
       n_values=st.integers(1, 300), planted=st.lists(st.sampled_from(_PLANTED), max_size=4))
@example(chunks=0, offset=0, seed=0, n_values=1, planted=[])  # an empty grid
@example(chunks=0, offset=1, seed=0, n_values=1, planted=[-32768])
@example(chunks=1, offset=0, seed=1, n_values=2, planted=[-32768, 32767])
@example(chunks=2, offset=-1, seed=2, n_values=300, planted=[-1, -1024])
@example(chunks=3, offset=1, seed=3, n_values=5, planted=[0, 1, 3071, -1])
def test_present_labels_matches_np_unique(chunks, offset, seed, n_values, planted):
    # uint16 labels over their whole range, drawn as int16 and viewed as uint16
    step = _BINCOUNT_CHUNK
    size = max(0, chunks * step + offset)
    rng = np.random.default_rng(seed)
    # few distinct values, as in a label map, so counts grow across chunks
    values = rng.integers(-32768, 32768, size=n_values, dtype=np.int16)
    hu = values[rng.integers(0, n_values, size=size)]
    for i, h in enumerate(planted):
        if size:  # each chunk's last voxel and the next chunk's first
            hu[min(size - 1, max(0, (i // 2 + 1) * step - 1 + i % 2))] = h
    flat = hu.view(np.uint16)
    labels = present_labels(flat.reshape(1, 1, size))
    assert labels == np.unique(flat).tolist()
    assert all(type(v) is int for v in labels)


# --- LabelIndex against whole-grid oracles -------------------------------------


@st.composite
def _label_grid(draw, dims=None, dtype=None):
    """A C- or F-ordered uint8/uint16 label grid, from empty to full, with a
    few labels anywhere in the dtype's range."""
    dtype = dtype or draw(st.sampled_from([np.uint8, np.uint16]))
    dims = dims or tuple(draw(st.integers(1, 9)) for _ in range(3))
    palette = draw(st.lists(st.integers(1, int(np.iinfo(dtype).max)), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    data = np.where(rng.random(dims) < density, rng.choice(palette, dims), 0).astype(dtype)
    return np.asfortranarray(data) if draw(st.booleans()) else data


@st.composite
def _label_grid_pair(draw):
    a = draw(_label_grid())
    return a, draw(_label_grid(dims=a.shape, dtype=a.dtype.type))


def _index(data):
    table = {int(v): "c" for v in np.unique(data) if v != 0}
    return LabelIndex(LabelMap(Grid(data.shape, (1.0, 1.0, 1.0)), data, "structure", table))


def _corners(order):
    data = np.zeros((3, 4, 5), dtype=np.uint16, order=order)
    for i, (x, y, z) in enumerate(np.ndindex(2, 2, 2)):
        data[-x, -y, -z] = 1 + 1000 * i
    return data


def _single_voxel(dtype, order):
    data = np.zeros((4, 3, 2), dtype=dtype, order=order)
    data[2, 1, 1] = np.iinfo(dtype).max
    return data


@settings(max_examples=200)  # each example takes a few milliseconds
@given(_label_grid_pair())
@example((np.zeros((3, 2, 4), np.uint8), np.zeros((3, 2, 4), np.uint8)))
@example((np.zeros((3, 2, 4), np.uint16, order="F"), np.ones((3, 2, 4), np.uint16)))
@example((_single_voxel(np.uint8, "C"), _single_voxel(np.uint8, "F")))
@example((_single_voxel(np.uint16, "F"), np.zeros((4, 3, 2), np.uint16)))
@example((_corners("C"), _corners("F")))
@example((_corners("F"), _corners("C")[::-1, ::-1, ::-1]))
def test_label_index_matches_full_grid_oracles(maps):
    a, b = maps
    index, other = _index(a), _index(b)
    boxes = ndimage.find_objects(a)
    labels = tuple(i + 1 for i, sl in enumerate(boxes) if sl is not None)
    assert index.labels == labels
    counts = np.bincount(a.ravel())
    for c in labels:
        assert index.box(c) == boxes[c - 1]
        sub, box = index.mask(c)
        assert box == boxes[c - 1] and np.array_equal(sub, a[box] == c)
        assert index.count(c) == counts[c]
        where = np.nonzero(a == c)
        assert all(np.array_equal(i, j) for i, j in zip(index.coords(c), where, strict=True))
        assert index.index_sum(c) == tuple(int(i.sum()) for i in where)
    absent = max(labels, default=0) + 1
    assert index.box(absent) is None and index.mask(absent) is None
    assert index.count(absent) == 0
    assert index.overlaps(other) == {
        c: int(np.count_nonzero((a == c) & (b == c))) for c in labels}
