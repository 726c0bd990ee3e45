"""Overlap, centroid, and distribution-agreement metrics plus the cohort table."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vctkit.metrics import (
    CONSISTENCY_HEADER,
    cohort_consistency,
    collect_structure_measurements,
    per_class_dice,
    qq_pearson,
    write_consistency_csv,
)
from vctkit.volume import Grid, LabelIndex, LabelMap, voxel_volume_mm3


def _lm(arr, grid=None, kind="structure"):
    arr = np.asarray(arr, dtype=np.uint8)
    if grid is None:
        grid = Grid(arr.shape, (1.0, 1.0, 1.0))
    table = {int(v): f"c{int(v)}" for v in np.unique(arr) if v != 0}
    return LabelMap(grid, arr, kind, table)


def _ix(arr, grid=None):
    return LabelIndex(_lm(arr, grid))


def test_dice_hand_case():
    a = np.zeros((4, 4, 4), dtype=np.uint8)
    b = np.zeros((4, 4, 4), dtype=np.uint8)
    a[0, 0, :2] = 1          # |A| = 2
    b[0, 0, 1:3] = 1         # |B| = 2, overlap 1 -> 2*1/(2+2) = 0.5
    assert per_class_dice(_ix(a), _ix(b)) == {1: 0.5}


def test_dice_one_empty_is_zero():
    a = np.zeros((4, 4, 4), dtype=np.uint8)
    a[1, 1, 1] = 2
    b = np.zeros((4, 4, 4), dtype=np.uint8)
    assert per_class_dice(_ix(a), _ix(b)) == {2: 0.0}
    assert per_class_dice(_ix(b), _ix(a)) == {2: 0.0}


def test_dice_grid_mismatch_raises():
    other = Grid((4, 4, 4), (1.0, 1.0, 1.0), (1.0, 0.0, 0.0))
    a = np.zeros((4, 4, 4), dtype=np.uint8)
    with pytest.raises(ValueError):
        per_class_dice(_ix(a), _ix(a.copy(), grid=other))


def test_per_class_dice_keys_and_background_excluded():
    a = np.zeros((4, 4, 4), dtype=np.uint8)
    a[0] = 1
    a[1] = 2
    d = per_class_dice(_ix(a), _ix(a.copy()))
    assert set(d) == {1, 2}
    assert all(v == 1.0 for v in d.values())


def _body_box(shape, lo, hi):
    body = np.zeros(shape, dtype=np.uint8)
    body[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = 1
    return body


def test_relative_centroids_translation_invariant():
    shape = (10, 10, 10)
    struct = np.zeros(shape, dtype=np.uint8)
    struct[2:4, 2:4, 2:4] = 1
    struct[5, 5, 5] = 2
    body = _body_box(shape, (1, 1, 1), (8, 8, 8))
    c0 = collect_structure_measurements(_ix(struct), _lm(body, kind="tissue"))
    # shift body and structures together by one voxel in x
    c1 = collect_structure_measurements(_ix(np.roll(struct, 1, axis=0)),
                                        _lm(np.roll(body, 1, axis=0), kind="tissue"))
    for lab in (1, 2):
        np.testing.assert_allclose(c0[lab]["centroid"], c1[lab]["centroid"], atol=1e-12)
        assert all(0.0 <= v <= 1.0 for v in c0[lab]["centroid"])


def test_relative_centroids_center_of_box():
    shape = (9, 9, 9)
    struct = np.zeros(shape, dtype=np.uint8)
    struct[4, 4, 4] = 1
    body = _body_box(shape, (0, 0, 0), (9, 9, 9))
    c = collect_structure_measurements(_ix(struct), _lm(body, kind="tissue"))
    assert c[1]["centroid"] == (0.5, 0.5, 0.5)


def test_relative_centroids_empty_body_raises():
    z = np.zeros((4, 4, 4), dtype=np.uint8)
    with pytest.raises(ValueError, match="body mask is empty"):
        collect_structure_measurements(_ix(z), _lm(z, kind="tissue"))


def test_collect_structure_measurements_volume():
    shape = (6, 6, 6)
    struct = np.zeros(shape, dtype=np.uint8)
    struct[0:2, 0, 0] = 1  # 2 voxels
    body = _body_box(shape, (0, 0, 0), (6, 6, 6))
    grid = Grid(shape, (2.0, 2.0, 2.0))
    per = collect_structure_measurements(_ix(struct, grid=grid),
                                         _lm(body, grid=grid, kind="tissue"))
    assert per[1]["volume_mm3"] == pytest.approx(2 * 8.0)
    assert len(per[1]["centroid"]) == 3


# --- box-local counts against the full-grid oracle ----------------------------


def _full_grid_dice(a, b):
    """Dice per class by whole-grid masks, as computed before the box index."""
    present = set(np.unique(a.data).tolist()) | set(np.unique(b.data).tolist())
    present.discard(0)
    out = {}
    for c in sorted(present):
        ma, mb = a.data == c, b.data == c
        na, nb = int(ma.sum()), int(mb.sum())
        out[int(c)] = 2.0 * int(np.logical_and(ma, mb).sum()) / (na + nb)
    return out


def _full_grid_measurements(structures, body):
    """Volumes and relative centroids by whole-grid scans, as computed before
    the box index."""
    body_mask = body.data != 0
    if not body_mask.any():
        raise ValueError("degenerate input: body mask is empty")
    idx = np.nonzero(body_mask)
    spacing = np.asarray(structures.grid.spacing_mm)
    origin = np.asarray(structures.grid.origin_mm)
    lo = np.array([i.min() for i in idx], dtype=np.float64) * spacing + origin
    hi = np.array([i.max() for i in idx], dtype=np.float64) * spacing + origin
    span = hi - lo
    counts = np.bincount(structures.data.ravel())
    out = {}
    for c in sorted(int(v) for v in np.unique(structures.data) if v != 0):
        cidx = np.nonzero(structures.data == c)
        centroid = np.array([i.mean() for i in cidx]) * spacing + origin
        rel = np.where(span > 0, (centroid - lo) / np.where(span > 0, span, 1.0), 0.5)
        out[c] = {"volume_mm3": float(counts[c] * voxel_volume_mm3(structures.grid)),
                  "centroid": (float(rel[0]), float(rel[1]), float(rel[2]))}
    return out


@st.composite
def _label_maps(draw):
    """Two structure maps and a tissue map on one grid, each painted with up
    to five solid or gappy boxes (none gives an empty map), with gaps in the
    structure labels, on an anisotropic grid with any origin; each map is
    C- or F-ordered (a file loads and a generated map is C-ordered, but a
    caller may build an F-ordered one)."""
    dims = tuple(draw(st.integers(1, 16)) for _ in range(3))
    spacing = tuple(draw(st.floats(0.3, 7.0)) for _ in range(3))
    origin = tuple(draw(st.floats(-400.0, 400.0)) for _ in range(3))
    grid = Grid(dims, spacing, origin)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def paint(labels, kind):
        data = np.zeros(dims, dtype=np.uint8)
        for _ in range(draw(st.integers(0, 5))):
            lo = [draw(st.integers(0, d - 1)) for d in dims]
            hi = [draw(st.integers(lo_a + 1, d)) for lo_a, d in zip(lo, dims)]
            box = data[tuple(slice(l, h) for l, h in zip(lo, hi))]
            box[rng.random(box.shape) < draw(st.sampled_from([0.2, 0.7, 1.0]))] = \
                draw(st.sampled_from(labels))
        if draw(st.booleans()):
            data = np.asfortranarray(data)
        return _lm(data, grid, kind)

    structure = [1, 2, 16, 20, 32]
    return paint(structure, "structure"), paint(structure, "structure"), \
        paint([1, 2, 3, 4], "tissue")


def _case(grid, a, b, body):
    return tuple(_lm(np.array(d, dtype=np.uint8), grid, kind)
                 for d, kind in ((a, "structure"), (b, "structure"), (body, "tissue")))


@settings(max_examples=400)  # each example takes a few milliseconds
@given(_label_maps())
@example(_case(Grid((3, 1, 1), (1.0, 1.0, 1.0)), [[[5]], [[0]], [[0]]],
               [[[0]], [[0]], [[5]]], [[[1]], [[1]], [[1]]]))       # disjoint boxes
@example(_case(Grid((2, 2, 1), (0.7, 3.1, 2.0), (-12.3, 40.01, 7.7)),
               [[[0], [9]], [[0], [0]]], [[[0], [0]], [[0], [0]]],  # one voxel, other map empty
               [[[0], [3]], [[2], [0]]]))
@example(_case(Grid((2, 1, 1), (1.0, 1.0, 1.0)), [[[1]], [[1]]], [[[1]], [[2]]],
               [[[0]], [[0]]]))                                     # empty body
def test_box_counts_match_full_grid_oracle(maps):
    a, b, body = maps
    assert per_class_dice(LabelIndex(a), LabelIndex(b)) == _full_grid_dice(a, b)
    try:
        expected = _full_grid_measurements(a, body)
    except ValueError:
        with pytest.raises(ValueError, match="body mask is empty"):
            collect_structure_measurements(LabelIndex(a), body)
    else:
        assert collect_structure_measurements(LabelIndex(a), body) == expected


def test_qq_pearson_identical_is_one():
    v = np.array([3.0, 3.0, 3.0, 3.0])
    assert qq_pearson(v, v.copy()) == 1.0


def test_qq_pearson_scale_invariance():
    rng = np.random.default_rng(5)
    a = rng.normal(size=200)
    b = rng.normal(size=170)
    r1 = qq_pearson(a, b)
    r2 = qq_pearson(3.0 * a + 2.0, 3.0 * b + 2.0)
    assert r1 == pytest.approx(r2, abs=1e-9)


def test_qq_pearson_same_distribution_high():
    rng = np.random.default_rng(11)
    a = rng.normal(10, 2, size=400)
    b = rng.normal(10, 2, size=350)
    assert qq_pearson(a, b) > 0.99


def test_qq_pearson_needs_two_samples():
    with pytest.raises(ValueError):
        qq_pearson([1.0], [1.0, 2.0, 3.0])


# --- cohort summary table -----------------------------------------------------


def _measurements(n, seed, classes=(1, 2)):
    rng = np.random.default_rng(seed)
    return [{c: {"volume_mm3": float(rng.uniform(1e3, 5e4)),
                 "centroid": tuple(rng.uniform(0.2, 0.8, 3))}
             for c in classes}
            for _ in range(n)]


def test_cohort_consistency_self_agreement():
    m = _measurements(25, seed=2)
    rows = cohort_consistency(m, m, [])
    assert set(rows) == {1, 2}
    for row in rows.values():
        assert len(row) == len(CONSISTENCY_HEADER) - 1
        assert row[:2] == [None, None]  # no pairs, no Dice
        assert row[2:] == pytest.approx([1.0] * 4)


def test_cohort_consistency_min_samples_warns_and_omits():
    a = _measurements(2, seed=1)
    b = _measurements(25, seed=3)
    with pytest.warns(UserWarning, match="fewer than 3 samples"):
        rows = cohort_consistency(a, b, [])
    assert rows == {}


def test_cohort_consistency_dice_over_pairs():
    m = _measurements(10, seed=4)
    # class 7 is in no cohort, so it has no row; no pair holds class 2
    dice = [{1: 0.9, 7: 0.5}, {1: 1.0}, {7: 0.5}, {1: 0.8}]
    rows = cohort_consistency(m, m, dice)
    d = np.array([0.9, 1.0, 0.8])
    assert rows[1][:2] == [float(d.mean()), float(d.std(ddof=1))]
    assert rows[2][:2] == [None, None]
    assert set(rows) == {1, 2}
    # one pair: its Dice, and a std of 0.0
    assert cohort_consistency(m, m, [{1: 0.75}])[1][:2] == [0.75, 0.0]


def test_cohort_consistency_identical_pairs():
    a = np.zeros((5, 5, 5), dtype=np.uint8)
    a[1:4, 1:4, 1:4] = 1
    a[2, 2, 2] = 2
    m = _measurements(3, seed=5)
    rows = cohort_consistency(m, m, [per_class_dice(_ix(a), _ix(a.copy()))] * 3)
    for lab in (1, 2):
        assert rows[lab][:2] == [1.0, 0.0]


def test_cohort_consistency_undefined_qq_is_none():
    # a constant centroid axis in one cohort only: its Q-Q Pearson is 0/0
    a = _measurements(5, seed=6, classes=(1,))
    b = [{1: {"volume_mm3": m[1]["volume_mm3"], "centroid": (0.5, *m[1]["centroid"][1:])}}
         for m in _measurements(5, seed=7, classes=(1,))]
    rows = cohort_consistency(a, b, [])
    assert rows[1][3] is None
    assert all(v is not None for v in rows[1][4:])


def test_write_consistency_csv_pinned(tmp_path):
    rows = {
        33: [0.5, 0.25, 1.0, None, 0.75, 0.5],  # a class without a name
        2: [None, None, 0.5, None, 0.25, 1.0],  # a class without Dice
    }
    path = tmp_path / "consistency.csv"
    write_consistency_csv(path, rows)
    assert path.read_bytes() == (
        b"class,dice_mean,dice_std,volume_corr,centroid_R,centroid_A,centroid_S\r\n"
        b"spleen,,,0.5,,0.25,1.0\r\n"
        b"class_33,0.5,0.25,1.0,,0.75,0.5\r\n"
        b"Average,0.5,0.25,0.75,,0.5,0.75\r\n")
    write_consistency_csv(path, {})
    assert path.read_bytes() == (
        b"class,dice_mean,dice_std,volume_corr,centroid_R,centroid_A,centroid_S\r\n"
        b"Average,,,,,,\r\n")


def test_consistency_table_csv_schema(tmp_path):
    m = _measurements(12, seed=9)
    rows = cohort_consistency(m, m, [{1: 0.95, 2: 0.91}, {1: 0.93, 2: 0.9}])
    path = tmp_path / "consistency.csv"
    write_consistency_csv(path, rows)
    lines = path.read_text().strip().split("\n")
    assert lines[0].strip() == ",".join(CONSISTENCY_HEADER)
    assert lines[-1].startswith("Average,")
    for j in range(1, len(CONSISTENCY_HEADER)):
        vals = [rows[c][j - 1] for c in sorted(rows)]
        assert float(lines[-1].split(",")[j]) == float(np.mean(vals))
