"""Superior-axis estimation and segmentwise height on rasterized phantoms."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from vctkit import skeleton
from vctkit.codec import decode, encode
from vctkit.skeleton import HeightBreakdown, measure_height
from vctkit.volume import Grid, LabelMap, STRUCTURE_IDS


def _diag2(grid):
    return 2.0 * float(np.linalg.norm(grid.spacing_mm))


def test_height_matches_truth(phantom_default):
    spec, vol, tissue, structure, truth = phantom_default
    h = measure_height(tissue, structure)
    assert abs(h.total_mm - truth.height_breakdown["total_mm"]) <= _diag2(vol.grid)


def test_height_matches_truth_second_subject(phantom_small):
    spec, vol, tissue, structure, truth = phantom_small
    h = measure_height(tissue, structure)
    assert abs(h.total_mm - truth.height_breakdown["total_mm"]) <= _diag2(vol.grid)


def test_total_is_exact_segment_sum(phantom_default):
    _, _, tissue, structure, _ = phantom_default
    h = measure_height(tissue, structure)
    assert h.total_mm == h.lower_body_mm + h.torso_mm + h.neck_mm + h.head_mm


def test_per_leg_keys_and_symmetry(phantom_default):
    _, vol, tissue, structure, _ = phantom_default
    h = measure_height(tissue, structure)
    assert set(h.per_leg) == {"left_mm", "right_mm"}
    left, right = h.per_leg["left_mm"], h.per_leg["right_mm"]
    assert left is not None and right is not None
    # the phantom's legs are mirror images
    assert abs(left - right) <= _diag2(vol.grid)
    assert h.lower_body_mm == max(left, right)


def test_missing_required_landmark_raises(phantom_default):
    _, _, tissue, structure, _ = phantom_default
    data = structure.data.copy()
    data[data == 22] = 0  # drop C7
    broken = LabelMap(structure.grid, data, "structure", dict(structure.class_table))
    with pytest.raises(ValueError, match="22"):
        measure_height(tissue, broken)


@pytest.mark.parametrize("fixture", ["phantom_default", "phantom_small"])
def test_height_ignores_paired_landmarks(fixture, request):
    # hips, clavicles and scapulae play no part in height: a map without
    # any of them measures exactly as the full one
    _, _, tissue, structure, _ = request.getfixturevalue(fixture)
    data = structure.data.copy()
    data[(data >= 27) & (data <= 32)] = 0
    unpaired = LabelMap(structure.grid, data, "structure", dict(structure.class_table))
    assert measure_height(tissue, unpaired) == measure_height(tissue, structure)


def test_grid_mismatch_raises(phantom_default, phantom_small):
    _, _, tissue, _, _ = phantom_default
    _, _, _, structure, _ = phantom_small
    with pytest.raises(ValueError):
        measure_height(tissue, structure)


def test_breakdown_round_trip(phantom_default):
    _, _, tissue, structure, _ = phantom_default
    h = measure_height(tissue, structure)
    assert decode(HeightBreakdown, json.loads(json.dumps(encode(h)))) == h
    # a leg without femur or tibia is recorded as None and comes back as None
    one_leg = HeightBreakdown(lower_body_mm=820.0, torso_mm=560.0, neck_mm=130.0,
                              head_mm=240.0, total_mm=1750.0,
                              per_leg={"left_mm": None, "right_mm": 820.0})
    text = json.dumps(encode(one_leg))
    assert '"left_mm": null' in text
    assert decode(HeightBreakdown, json.loads(text)) == one_leg
    with pytest.raises(ValueError, match=r"per_leg\.right_mm must be float"):
        decode(HeightBreakdown, {**encode(one_leg), "per_leg": {"right_mm": "x"}})


def test_detached_tibia_fragment_is_dropped(phantom_default, monkeypatch):
    _, _, tissue, structure, _ = phantom_default
    # a 2x2x2 tibia_left piece beside the tibia's middle, one voxel clear of
    # it: a detached component below the femur
    data = structure.data.copy()
    idx = np.nonzero(data == STRUCTURE_IDS["tibia_left"])
    x, y = int(idx[0].max()) + 2, int(np.median(idx[1]))
    z = (int(idx[2].min()) + int(idx[2].max())) // 2
    assert not data[x:x + 2, y:y + 2, z:z + 2].any()
    data[x:x + 2, y:y + 2, z:z + 2] = STRUCTURE_IDS["tibia_left"]
    fragmented = LabelMap(structure.grid, data, "structure", dict(structure.class_table))
    dropped = []
    largest = skeleton._largest_component

    def spy(mask):
        kept = largest(mask)
        dropped.append(int(mask.sum()) - int(kept.sum()))
        return kept
    monkeypatch.setattr(skeleton, "_largest_component", spy)
    assert measure_height(tissue, fragmented) == measure_height(tissue, structure)
    # the left tibia came in two pieces and lost the fragment; nothing else did
    assert dropped == [8, 0, 0, 0]


def _ray_exit_stepwise(body_mask, grid, start, direction):
    """The march one step at a time, each step's point rounded to its voxel."""
    direction = direction / np.linalg.norm(direction)
    step = 0.5 * min(grid.spacing_mm)
    extent = [grid.dims[a] * grid.spacing_mm[a] for a in range(3)]
    max_steps = int(2 * math.ceil(math.sqrt(sum(e * e for e in extent)) / step)) + 4
    lead_in = int(math.ceil(4.0 * max(grid.spacing_mm) / step))
    last_inside = None
    entered = False
    for i in range(max_steps):
        p = start + i * step * direction
        idx = np.rint((p - np.asarray(grid.origin_mm)) / np.asarray(grid.spacing_mm)).astype(int)
        if (idx >= 0).all() and (idx < np.asarray(grid.dims)).all() and body_mask[tuple(idx)]:
            entered = True
            last_inside = p
        elif entered:
            return last_inside
        elif i > lead_in:
            raise ValueError("ray march never entered the body mask")
    raise ValueError("ray march found no exit from the body mask")


def _outcome(march, *args):
    try:
        return march(*args).tobytes()
    except ValueError as err:
        return str(err)


@given(st.tuples(*[st.integers(2, 9)] * 3), st.sampled_from([0.5, 1.0, 1.5, 3.0]),
       st.integers(0, 2**32 - 1))
def test_ray_exit_matches_stepwise_march(dims, spacing, seed):
    rng = np.random.default_rng(seed)
    grid = Grid(dims, (spacing, spacing * 1.5, spacing), (1.0, -2.0, 3.0))
    body = rng.random(dims) < rng.choice([0.5, 0.95])
    extent = np.asarray(dims) * np.asarray(grid.spacing_mm)
    start = np.asarray(grid.origin_mm) + rng.uniform(-0.2, 1.2, 3) * extent
    direction = rng.normal(size=3)
    assert (_outcome(skeleton._ray_exit, body, grid, start, direction)
            == _outcome(_ray_exit_stepwise, body, grid, start, direction))


def test_ray_march_never_entered_raises():
    grid = Grid((40, 4, 4), (1.0, 1.0, 1.0))
    body = np.zeros(grid.dims, dtype=bool)
    body[30:36, 1:3, 1:3] = True  # ahead of the ray, past its 8-step lead-in
    start, direction = np.array([0.0, 1.5, 1.5]), np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="never entered the body mask"):
        skeleton._ray_exit(body, grid, start, direction)
    body[4:30] = body[30]  # now the body begins 4 voxels ahead
    exit_point = skeleton._ray_exit(body, grid, start, direction)
    assert exit_point.tolist() == [35.0, 1.5, 1.5]  # x = 35.5 rounds to voxel 36, outside


def _mask_moments_int64(mask, coords):
    """Reference moments: each projection counted in int64."""
    cx, cy, cz = coords
    p_xy, p_xz, p_yz = (mask.sum(axis=axis, dtype=np.int64).astype(np.float64)
                        for axis in (2, 1, 0))
    nx = p_xy.sum(axis=1)
    n = int(nx.sum())
    if n == 0:
        return 0, None, None
    ny, nz = p_xy.sum(axis=0), p_xz.sum(axis=0)
    sx, sy, sz = nx @ cx, ny @ cy, nz @ cz
    sxx, syy, szz = nx @ (cx * cx), ny @ (cy * cy), nz @ (cz * cz)
    sxy, sxz, syz = cx @ p_xy @ cy, cx @ p_xz @ cz, cy @ p_yz @ cz
    mean = np.array([sx, sy, sz]) / n
    cov = np.array([
        [sxx / n - mean[0] ** 2, sxy / n - mean[0] * mean[1], sxz / n - mean[0] * mean[2]],
        [sxy / n - mean[0] * mean[1], syy / n - mean[1] ** 2, syz / n - mean[1] * mean[2]],
        [sxz / n - mean[0] * mean[2], syz / n - mean[1] * mean[2], szz / n - mean[2] ** 2],
    ])
    return n, mean, cov


# an axis of 70,000 voxels: a uint16 count would wrap to 70,000 - 65,536 = 4,464
@example(dims=(1, 1, 70_000), fill=1.0, order=(0, 1, 2), seed=0)
@given(st.tuples(*[st.integers(1, 12)] * 3), st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       st.permutations((0, 1, 2)), st.integers(0, 2**32 - 1))
def test_mask_moments_match_int64_projections(dims, fill, order, seed):
    rng = np.random.default_rng(seed)
    mask = (rng.random(dims) < fill).transpose(order)  # a strided view unless order is (0, 1, 2)
    coords = tuple(rng.uniform(-300, 300) + rng.uniform(0.5, 4) * np.arange(d)
                   for d in mask.shape)
    n, mean, cov = skeleton._mask_moments(mask, coords)
    n_ref, mean_ref, cov_ref = _mask_moments_int64(mask, coords)
    assert n == n_ref == np.count_nonzero(mask)
    if n:
        assert mean.tobytes() == mean_ref.tobytes() and cov.tobytes() == cov_ref.tobytes()
    else:
        assert mean is cov is None


def test_trial_and_cli_do_not_load_scipy():
    src = str(Path(skeleton.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, vctkit.trial, vctkit.cli; "
             "assert 'scipy.ndimage' not in sys.modules, 'scipy.ndimage loaded'")
    subprocess.run([sys.executable, "-c", probe], env=env, check=True, timeout=120)
