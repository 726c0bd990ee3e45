"""Superior-axis estimation and segmentwise height on rasterized phantoms."""

import json

import numpy as np
import pytest

from vctkit.codec import decode, encode
from vctkit.skeleton import HeightBreakdown, measure_height
from vctkit.volume import LabelMap


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
