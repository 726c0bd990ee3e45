"""Densitometry: air rule, HU->density mapping, masses, and truth closure."""

import json
from dataclasses import replace

import numpy as np
import pytest

from vctkit.composition import REFERENCE_HU, CompositionReport, measure_composition
from vctkit.io import load_volume, save_volume
from vctkit.skeleton import measure_height
from vctkit.volume import FormatError, Grid, LabelMap, Volume


def _hu_volume(values, spacing=(1.0, 1.0, 1.0)):
    data = np.asarray(values, dtype=np.int16)
    return Volume(Grid(data.shape, spacing), data)


def _body(values, spacing=(10.0, 10.0, 10.0)):
    """A column of body voxels (tissue label 1) at the given HU values."""
    vol = _hu_volume(np.asarray(values).reshape(-1, 1, 1), spacing)
    tissue = LabelMap(vol.grid, np.ones(vol.grid.dims, dtype=np.uint8), "tissue",
                      {1: "body"})
    return vol, tissue


def test_air_rule_boundary_inclusive():
    # 1 cm^3 voxels, so a voxel's mass in grams equals its density; at or
    # below -900 HU a body voxel counts as air (-1000 HU, zero mass)
    water_40 = (40 + 1000.0) / 1000.0
    for hu, extra in ((-950, 0.0), (-900, 0.0), (-899, 0.101)):
        rep = measure_composition(*_body([hu, 40]))
        assert rep.body_mass_g == pytest.approx(water_40 + extra, abs=1e-12), hu
    with pytest.raises(ValueError, match="zero total mass"):
        measure_composition(*_body([-950, -900]))


def test_air_rule_requires_hu(tmp_path):
    # the air rule reads HU, and no volume in another unit can be built or loaded
    vol, _ = _body([0])
    with pytest.raises(ValueError, match="unit"):
        Volume(vol.grid, np.ones(vol.grid.dims, dtype=np.float32), "g_per_cm3")
    header = save_volume(vol, tmp_path / "img")
    payload = json.loads(header.read_text())
    payload["unit"] = "g_per_cm3"
    header.write_text(json.dumps(payload))
    with pytest.raises(FormatError, match="unsupported unit 'g_per_cm3'"):
        load_volume(header)


def test_density_mapping_fixed_points():
    for hu, rho in ((0, 1.0), (500, 1.5), (-100, 0.9)):
        rep = measure_composition(*_body([hu]))
        assert rep.body_mass_g == pytest.approx(rho, abs=1e-12), hu


def test_density_mapping_reference_material():
    # the reference material (water) has density exactly 1 g/cm^3
    rep = measure_composition(*_body([REFERENCE_HU]))
    assert REFERENCE_HU == 0.0
    assert rep.body_mass_g == 1.0


def test_region_mass_liter_of_water():
    # 10^6 voxels of 0 HU at 1 mm^3 -> density 1 g/cm^3 over one liter
    rep = measure_composition(*_body(np.zeros(10**6), spacing=(1.0, 1.0, 1.0)))
    assert rep.body_mass_g == pytest.approx(1000.0, rel=1e-12)
    assert rep.body_volume_l == pytest.approx(1.0, rel=1e-12)


def test_region_mass_empty_and_air():
    with pytest.raises(ValueError, match="zero total mass"):
        measure_composition(*_body(np.full(1000, -1000)))


def _tiny_subject():
    g = Grid((4, 1, 1), (10.0, 10.0, 10.0))  # 1 cm^3 voxels
    hu = np.array([0, -100, 50, -1000], dtype=np.int16).reshape(4, 1, 1)
    labels = np.array([1, 2, 3, 0], dtype=np.uint8).reshape(4, 1, 1)
    tissue = LabelMap(g, labels, "tissue", {1: "body", 2: "fat", 3: "muscle"})
    return Volume(g, hu), tissue


def test_measure_composition_hand_case():
    vol, tissue = _tiny_subject()
    rep = measure_composition(vol, tissue)
    # densities: 1.0, 0.9, 1.05 at 1 cm^3 each; air voxel is background
    assert rep.body_mass_g == pytest.approx(2.95)
    assert rep.fat_pct == pytest.approx(100 * 0.9 / 2.95)
    assert rep.muscle_pct == pytest.approx(100 * 1.05 / 2.95)
    assert rep.bone_density_hu is None
    assert rep.body_volume_l == pytest.approx(3 / 1000)
    assert rep.per_tissue_mass_g["fat"] == pytest.approx(0.9)
    assert rep.per_tissue_mass_g["bone"] == 0.0


def test_measure_composition_grid_and_kind_checks():
    vol, tissue = _tiny_subject()
    other = Volume(Grid((4, 1, 1), (1.0, 1.0, 1.0)), vol.data)
    with pytest.raises(ValueError):
        measure_composition(other, tissue)
    structure = LabelMap(tissue.grid, np.zeros(tissue.grid.dims, dtype=np.uint8),
                         "structure")
    with pytest.raises(ValueError):
        measure_composition(vol, structure)


def test_measure_composition_empty_body_raises():
    g = Grid((2, 2, 2), (1.0, 1.0, 1.0))
    vol = Volume(g, np.zeros(g.dims, dtype=np.int16))
    tissue = LabelMap(g, np.zeros(g.dims, dtype=np.uint8), "tissue")
    with pytest.raises(ValueError, match="empty"):
        measure_composition(vol, tissue)


def test_percentages_bounded(phantom_default):
    _, vol, tissue, _, _ = phantom_default
    rep = measure_composition(vol, tissue)
    assert 0 <= rep.fat_pct <= 100
    assert 0 <= rep.muscle_pct <= 100
    assert rep.fat_pct + rep.muscle_pct <= 100
    for mass in rep.per_tissue_mass_g.values():
        assert mass <= rep.body_mass_g


def test_truth_closure_single_phantom(phantom_default):
    _, vol, tissue, _, truth = phantom_default
    rep = measure_composition(vol, tissue)
    assert rep.body_mass_g == pytest.approx(truth.body_mass_g, rel=1e-9)
    assert rep.fat_pct == pytest.approx(truth.fat_pct, abs=1e-9)
    assert rep.muscle_pct == pytest.approx(truth.muscle_pct, abs=1e-9)
    assert rep.bone_density_hu == pytest.approx(truth.bone_density_hu, abs=1e-9)


def test_report_json_round_trip(phantom_default):
    _, vol, tissue, structure, _ = phantom_default
    bare = measure_composition(vol, tissue)
    for rep in (bare, replace(bare, height=measure_height(tissue, structure))):
        d = rep.to_dict()
        assert set(d) == {"body_mass_kg", "fat_pct", "muscle_pct", "bone_density_hu",
                          "body_volume_l", "per_tissue_mass_g", "height"}
        assert d["body_mass_kg"] == rep.body_mass_kg
        back = CompositionReport.from_dict(json.loads(json.dumps(d)))
        assert back.body_mass_g == pytest.approx(rep.body_mass_g, rel=1e-12)
        assert replace(back, body_mass_g=rep.body_mass_g) == rep
    assert back.height is not None and bare.height is None
    # fields with defaults may be absent; the others may not
    assert CompositionReport.from_dict({k: v for k, v in d.items()
                                        if k not in ("height", "per_tissue_mass_g")}) \
        == replace(back, height=None, per_tissue_mass_g={})
    with pytest.raises(ValueError, match=r"composition report is missing keys: \['fat_pct'\]"):
        CompositionReport.from_dict({k: v for k, v in d.items() if k != "fat_pct"})
    with pytest.raises(ValueError, match=r"height\.total_mm must be float"):
        CompositionReport.from_dict({**d, "height": {**d["height"], "total_mm": "tall"}})
