"""Densitometry: air rule, HU->density mapping, masses, and truth closure."""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vctkit import composition
from vctkit.codec import decode, encode
from vctkit.composition import (
    AIR_FILL_HU,
    AIR_THRESHOLD_HU,
    REFERENCE_HU,
    CompositionReport,
    measure_composition,
)
from vctkit.io import load_volume, save_volume
from vctkit.phantom import AttributeDistribution, PhantomSpec, generate_phantom
from vctkit.skeleton import measure_height
from vctkit.trial import generate_measured_cohort
from vctkit.volume import TISSUE_CLASSES, Grid, LabelMap, Volume, voxel_volume_mm3


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
        assert 1000.0 * rep.body_mass_kg == pytest.approx(water_40 + extra, abs=1e-12), hu
    with pytest.raises(ValueError, match="zero total mass"):
        measure_composition(*_body([-950, -900]))


def test_air_rule_requires_hu(tmp_path):
    # the air rule reads HU, and no volume in another unit can be loaded
    vol, _ = _body([0])
    header = save_volume(vol, tmp_path / "img")
    payload = json.loads(header.read_text())
    payload["unit"] = "g_per_cm3"
    header.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="unsupported unit 'g_per_cm3'"):
        load_volume(header)


def test_density_mapping_fixed_points():
    for hu, rho in ((0, 1.0), (500, 1.5), (-100, 0.9)):
        rep = measure_composition(*_body([hu]))
        assert 1000.0 * rep.body_mass_kg == pytest.approx(rho, abs=1e-12), hu


def test_density_mapping_reference_material():
    # the reference material (water) has density exactly 1 g/cm^3
    rep = measure_composition(*_body([REFERENCE_HU]))
    assert REFERENCE_HU == 0.0
    assert rep.body_mass_kg == 0.001


def test_region_mass_liter_of_water():
    # 10^6 voxels of 0 HU at 1 mm^3 -> density 1 g/cm^3 over one liter
    rep = measure_composition(*_body(np.zeros(10**6), spacing=(1.0, 1.0, 1.0)))
    assert rep.body_mass_kg == pytest.approx(1.0, rel=1e-12)
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
    assert 1000.0 * rep.body_mass_kg == pytest.approx(2.95)
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


def test_measure_composition_non_finite_hu_raises():
    vol, tissue = _body([0, 40])
    data = vol.data.astype(np.float32)
    data[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="body mass is nan: the image holds a non-finite HU"):
        measure_composition(Volume(vol.grid, data), tissue)


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
        assert mass <= 1000.0 * rep.body_mass_kg


def test_truth_closure_single_phantom(phantom_default):
    _, vol, tissue, _, truth = phantom_default
    rep = measure_composition(vol, tissue)
    assert rep.body_mass_kg == pytest.approx(truth.body_mass_g / 1000.0, rel=1e-9)
    assert rep.fat_pct == pytest.approx(truth.fat_pct, abs=1e-9)
    assert rep.muscle_pct == pytest.approx(truth.muscle_pct, abs=1e-9)
    assert rep.bone_density_hu == pytest.approx(truth.bone_density_hu, abs=1e-9)


def test_report_json_round_trip(phantom_default):
    _, vol, tissue, structure, _ = phantom_default
    bare = measure_composition(vol, tissue)
    for rep in (bare, replace(bare, height=measure_height(tissue, structure))):
        d = encode(rep)
        assert set(d) == {"body_mass_kg", "fat_pct", "muscle_pct", "bone_density_hu",
                          "body_volume_l", "per_tissue_mass_g", "height"}
        back = decode(CompositionReport, json.loads(json.dumps(d)))
        assert back == rep
    assert back.height is not None and bare.height is None
    # fields with defaults may be absent; the others may not
    assert decode(CompositionReport, {k: v for k, v in d.items()
                                      if k not in ("height", "per_tissue_mass_g")}) \
        == replace(back, height=None, per_tissue_mass_g={})
    with pytest.raises(ValueError, match=r"composition report is missing keys: \['fat_pct'\]"):
        decode(CompositionReport, {k: v for k, v in d.items() if k != "fat_pct"})
    with pytest.raises(ValueError, match=r"height\.total_mm must be float"):
        decode(CompositionReport, {**d, "height": {**d["height"], "total_mm": "tall"}})


def test_report_json_round_trip_is_exact_over_a_cohort():
    # the record holds its file's units (body mass in kg, as in
    # measurements.csv), so a record read back from its JSON is the measured
    # one to the last bit, with no unit conversion on the way
    for subject in generate_measured_cohort(40, AttributeDistribution(), (8.0,) * 3, 3):
        rep = subject.report
        d = json.loads(json.dumps(encode(rep)))
        assert d["body_mass_kg"] == rep.body_mass_kg
        assert decode(CompositionReport, d) == rep, subject.subject_id


def _chain_oracle(vol, tissue):
    """The measurement as computed before the in-place map: a float64 copy
    of the body HU, then ``where``, add and divide, each into a new array."""
    body = tissue.body_mask()
    n_body = int(np.count_nonzero(body))
    if n_body == 0:
        raise ValueError("degenerate input: body mask is empty")
    labels = tissue.data[body]
    hu = vol.data[body].astype(np.float64)
    adjusted = np.where(hu <= AIR_THRESHOLD_HU, AIR_FILL_HU, hu)
    rho = (adjusted + 1000.0) / (REFERENCE_HU + 1000.0)
    vox_cm3 = voxel_volume_mm3(vol.grid) / 1000.0
    m_body = float(rho.sum()) * vox_cm3
    if m_body <= 0.0:
        raise ValueError("degenerate input: body mask has zero total mass")
    m_fat = float(rho[labels == 2].sum()) * vox_cm3
    m_muscle = float(rho[labels == 3].sum()) * vox_cm3
    bone = labels == 4
    m_bone = float(rho[bone].sum()) * vox_cm3
    return CompositionReport(
        body_mass_kg=m_body / 1000.0,
        fat_pct=100.0 * m_fat / m_body,
        muscle_pct=100.0 * m_muscle / m_body,
        bone_density_hu=float(hu[bone].mean()) if bone.any() else None,
        body_volume_l=n_body * voxel_volume_mm3(vol.grid) / 1.0e6,
        per_tissue_mass_g={"fat": m_fat, "muscle": m_muscle, "bone": m_bone},
    )


def _matches_chain_oracle(vol, tissue):
    """The measured report, after checking that it encodes as the oracle's,
    or None after checking that both raise the same message."""
    try:
        expected = _chain_oracle(vol, tissue)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            measure_composition(vol, tissue)
        assert str(raised.value) == str(exc)
        return None
    rep = measure_composition(vol, tissue)
    assert encode(rep) == encode(expected)
    return rep


# the air threshold and its neighbours, the HU range's ends, and (float32
# only) the half-HU values either side of the threshold
_EDGE_HU = (-1024, -1000, -901, -900, -899, 0, 3071)
_EDGE_HU_FLOAT = (-900.5, -899.5)


def _subject(hu, labels, dtype=np.int16, spacing=(4.0, 4.0, 4.0)):
    hu = np.asarray(hu, dtype=dtype)
    grid = Grid(hu.shape, spacing)
    return Volume(grid, hu), LabelMap(grid, np.asarray(labels, dtype=np.uint8),
                                      "tissue", TISSUE_CLASSES)


@st.composite
def _subjects(draw):
    """An int16 or float32 volume over a random tissue map of up to 6^3
    voxels, mixing edge HU values with any in range; a tissue class may be
    absent and the body may be empty."""
    dtype = draw(st.sampled_from([np.int16, np.float32]))
    dims = tuple(draw(st.integers(1, 6)) for _ in range(3))
    n = dims[0] * dims[1] * dims[2]
    values = [st.sampled_from(_EDGE_HU), st.integers(-1024, 3071)]
    if dtype is np.float32:
        values += [st.sampled_from(_EDGE_HU_FLOAT), st.floats(-1024.0, 3071.0, width=32)]
    hu = draw(st.lists(st.one_of(values), min_size=n, max_size=n))
    classes = sorted(draw(st.sets(st.integers(1, 4), min_size=1)))
    labels = draw(st.lists(st.sampled_from([0] + classes), min_size=n, max_size=n))
    spacing = draw(st.sampled_from([(1.0, 1.0, 1.0), (4.0, 4.0, 4.0), (0.7, 1.3, 2.9)]))
    return _subject(np.reshape(hu, dims), np.reshape(labels, dims), dtype, spacing)


@settings(max_examples=300)  # each example takes well under a millisecond
@given(_subjects())
@example(_subject([[[-1024, -901, -900, -899, 3071, 0, 40, 1200]]],
                  [[[1, 2, 3, 4, 4, 2, 3, 1]]]))                        # int16 edges
@example(_subject([[[-900.5, -899.5, -900, -899, -901, -1024, 3071, 55.25]]],
                  [[[2, 3, 4, 4, 1, 2, 4, 3]]], np.float32))            # float32 edges
@example(_subject([[[-899, 40, 60]]], [[[1, 2, 3]]]))                   # no bone
@example(_subject([[[-899, 40, 1200]]], [[[1, 3, 4]]], np.float32))     # no fat
@example(_subject([[[40]]], [[[3]]]))                                   # one-voxel grid
@example(_subject([[[0, -899, 7]]], [[[0, 4, 0]]], np.float32))         # one body voxel
@example(_subject([[[-1024, -900, 3071]]], [[[2, 4, 0]]]))              # all-air body
def test_in_place_map_matches_chain_oracle(subject):
    vol, tissue = subject
    rep = _matches_chain_oracle(vol, tissue)
    if rep is None:
        return
    present = set(np.unique(tissue.data).tolist())
    assert (rep.bone_density_hu is None) == (4 not in present)
    if 2 not in present:
        assert rep.fat_pct == 0.0 and rep.per_tissue_mass_g["fat"] == 0.0


# --- sums leaf by leaf ----------------------------------------------------


@st.composite
def _large_subjects(draw):
    """An int16 or float32 volume of up to 13^3 voxels, each map in C or
    Fortran order, drawn from a seed: edge HU values mixed with any in range
    (and, in float32, fractional ones) over labels from a random class set."""
    dtype = draw(st.sampled_from([np.int16, np.float32]))
    dims = tuple(draw(st.integers(1, 13)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    edges = _EDGE_HU + (_EDGE_HU_FLOAT if dtype is np.float32 else ())
    hu = np.where(rng.random(dims) < 0.3, rng.choice(edges, dims),
                  rng.integers(-1024, 3072, dims))
    if dtype is np.float32:
        hu = hu + np.where(rng.random(dims) < 0.5, rng.random(dims), 0.0)
    classes = sorted(draw(st.sets(st.integers(1, 4), min_size=1)))
    vol, tissue = _subject(hu, rng.choice([0] + classes, dims), dtype)
    hu_order, label_order = draw(st.sampled_from(["CC", "CF", "FC", "FF"]))
    return (Volume(vol.grid, np.asarray(vol.data, order=hu_order)),
            LabelMap(tissue.grid, np.asarray(tissue.data, order=label_order), "tissue",
                     TISSUE_CLASSES))


@pytest.mark.parametrize("leaf", [128, 136])
@settings(max_examples=60)
@given(subject=_large_subjects())
def test_leaf_sums_match_chain_oracle(leaf, subject):
    # leaves of 128 or 136 values and grid chunks of 64 voxels, so that up
    # to 2,197 voxels cross many leaves and chunks, a leaf many pieces and a
    # piece several leaves
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(composition, "_CHUNK", leaf)
        patch.setattr(composition, "_GRID_CHUNK", 64)
        _matches_chain_oracle(*subject)


@pytest.mark.parametrize("n", [1, 127, 128, 129, composition._CHUNK - 1,
                               composition._CHUNK + 1, 2 * composition._CHUNK + 8,
                               1_000_003])
def test_leaf_sum_is_numpys_pairwise_sum(n):
    # values over 16 decades, so that a sum in any other order moves bits
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    expected = float(np.add.reduce(x))
    if n > 1000:
        assert float(np.cumsum(x)[-1]) != expected
    buf = np.empty(composition._CHUNK)
    assert composition._sum([x], buf, np.copyto) == expected
    cuts = np.unique(rng.integers(1, n, 5)) if n > 1 else []
    assert composition._sum(np.split(x, cuts), buf, np.copyto) == expected


def test_fortran_ordered_maps_measure_as_c_ordered(phantom_default):
    _, vol, tissue, _, _ = phantom_default
    expected = encode(measure_composition(vol, tissue))
    f_vol = Volume(vol.grid, np.asfortranarray(vol.data))
    f_tissue = LabelMap(tissue.grid, np.asfortranarray(tissue.data), "tissue",
                        tissue.class_table)
    for pair in ((f_vol, f_tissue), (f_vol, tissue), (vol, f_tissue)):
        assert encode(measure_composition(*pair)) == expected


def test_measure_composition_traced_peak(phantom_default, traced_peak):
    # one group's HU (2 B per int16 voxel) at a time, and chunk-sized
    # buffers; whole-body float64 densities alone would hold 8 B a voxel
    _, vol, tissue, _, _ = phantom_default
    rep, peak = traced_peak(measure_composition, vol, tissue)
    n_body = int(np.count_nonzero(tissue.data))
    assert rep.body_volume_l == n_body * voxel_volume_mm3(vol.grid) / 1.0e6
    assert peak <= 4 * n_body + (1 << 20)


def test_threads_measuring_at_once_match_serial():
    # four threads (more than the cores) measure four phantoms, int16 and
    # float32, released together each round and switched often: a buffer
    # shared between calls would mix their sums
    subjects = []
    for seed in range(4):
        vol, tissue, _, _ = generate_phantom(PhantomSpec(sex="MF"[seed % 2], seed=seed,
                                                         spacing_mm=(6.0, 6.0, 6.0)))
        if seed % 2:
            vol = Volume(vol.grid, vol.data + np.float32(0.25))
        subjects.append((vol, tissue))
    serial = [encode(measure_composition(*s)) for s in subjects]
    start = threading.Barrier(len(subjects), timeout=60)

    def measure(subject):
        start.wait()
        return encode(measure_composition(*subject))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(subjects)) as pool:
            for _ in range(5):
                assert list(pool.map(measure, subjects, timeout=60)) == serial
    finally:
        sys.setswitchinterval(interval)
