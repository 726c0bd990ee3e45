"""Phantom generation: truth closure, determinism, cohorts, binning, manifests."""

import hashlib
import json
import math
import threading
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from vctkit import phantom
from vctkit.codec import decode, encode, read_record, write_json
from vctkit.composition import REFERENCE_HU, density
from vctkit.phantom import (
    BIN_WIDTH,
    HU_AIR,
    HU_BODY,
    HU_FAT,
    HU_LUNG,
    HU_MUSCLE,
    HU_ORGAN,
    AttributeDistribution,
    Attributes,
    BinnedAttributes,
    CohortManifest,
    PhantomSpec,
    PhantomTruth,
    SubjectRecord,
    bin_attributes,
    bone_hu_for_age,
    generate_cohort,
    generate_matched_spec,
    generate_phantom,
    sample_cohort_specs,
    sample_fractions,
)
from vctkit.phantom import (
    _AORTA,
    _ORGANS,
    _TRUTH_CHUNK,
    _Canvas,
    _count_truth,
    _Geometry,
    _solve_geometry,
    _torso_volume,
)
from vctkit.rng import Stream
from vctkit.trial import encode_binned
from vctkit.volume import Grid, voxel_volume_mm3


def test_spec_validation():
    with pytest.raises(ValueError):
        PhantomSpec(sex="X")
    with pytest.raises(ValueError):
        PhantomSpec(height_cm=70.0)
    with pytest.raises(ValueError):
        PhantomSpec(fat_fraction=0.61)
    with pytest.raises(ValueError):
        PhantomSpec(fat_fraction=0.5, muscle_fraction=0.45)
    with pytest.raises(ValueError):
        PhantomSpec(spacing_mm=(0.2, 2.0, 2.0))


def test_bone_hu_for_age_line_and_clamps():
    assert bone_hu_for_age(55.0) == 825
    assert bone_hu_for_age(0.0) == 1100
    assert bone_hu_for_age(-30.0) == 1200
    assert bone_hu_for_age(150.0) == 400


def test_truth_mass_tracks_spec(phantom_default):
    spec, _, _, _, truth = phantom_default
    assert truth.body_mass_g == pytest.approx(1000.0 * spec.weight_kg, rel=0.02)


def test_truth_fractions_track_spec(phantom_default):
    spec, _, _, _, truth = phantom_default
    assert truth.fat_pct == pytest.approx(100.0 * spec.fat_fraction, abs=1.5)
    assert truth.muscle_pct == pytest.approx(100.0 * spec.muscle_fraction, abs=1.5)


def test_truth_height_and_landmarks(phantom_default):
    spec, _, _, _, truth = phantom_default
    assert truth.height_breakdown["total_mm"] == pytest.approx(10.0 * spec.height_cm)
    segs = sum(truth.height_breakdown[k] for k in
               ("lower_body_mm", "torso_mm", "neck_mm", "head_mm"))
    assert segs == pytest.approx(truth.height_breakdown["total_mm"])
    for key in ("c1", "c2", "c7", "hip_left", "hip_right", "femur_left",
                "tibia_right", "clavicle_left", "scapula_right"):
        assert key in truth.landmarks


def test_truth_bone_density_from_age(phantom_default):
    spec, _, _, _, truth = phantom_default
    assert truth.bone_density_hu == float(bone_hu_for_age(spec.age_years))


def test_generation_deterministic():
    spec = PhantomSpec(spacing_mm=(4.0, 4.0, 4.0), seed=5)
    v1, t1, s1, truth1 = generate_phantom(spec)
    v2, t2, s2, truth2 = generate_phantom(spec)
    np.testing.assert_array_equal(v1.data, v2.data)
    np.testing.assert_array_equal(t1.data, t2.data)
    np.testing.assert_array_equal(s1.data, s2.data)
    assert encode(truth1) == encode(truth2)


@pytest.mark.parametrize("spacing", [2.0, 4.0, 8.0])
@pytest.mark.parametrize("seed", [3, 11])
def test_image_and_tissue_only_match_full_call(spacing, seed):
    [(_, _, spec)] = sample_cohort_specs(1, AttributeDistribution(), (spacing,) * 3, seed)
    vol, tissue, structure, truth = generate_phantom(spec)
    assert structure is not None and truth is not None
    vol2, tissue2, structure2, truth2 = generate_phantom(spec, pool=threading.local())
    assert structure2 is None and truth2 is None
    assert vol2.grid == vol.grid and tissue2.grid == tissue.grid
    assert vol2.data.tobytes() == vol.data.tobytes()
    assert tissue2.data.tobytes() == tissue.data.tobytes()


@pytest.mark.parametrize("pool", [None, threading.local()], ids=["owned", "pooled"])
def test_box_between_voxel_centres_paints_nothing(pool):
    # voxel centres at 0, 2, 4 and 6 mm on every axis
    canvas = _Canvas(Grid((4, 4, 4), (2.0, 2.0, 2.0)), pool)
    before = [a.copy() for a in (canvas.hu, canvas.tissue, canvas.structure) if a is not None]
    canvas.paint_sphere((1.0, 1.0, 1.0), 0.5, 50, "muscle", "c1")  # empty on every axis
    canvas.paint_ellipsoid((1.0, 3.0, 3.0), (0.5, 9.0, 9.0), 50, "muscle", "c1")  # empty in x
    canvas.paint_zcylinder(3.0, 3.0, 9.0, 2.5, 3.5, 50, "muscle", "c1")  # empty in z only
    canvas.paint_zcylinder(3.0, 3.0, 9.0, 5.0, 1.0, 50, "muscle", "c1")  # z0 above z1
    after = [a for a in (canvas.hu, canvas.tissue, canvas.structure) if a is not None]
    assert [a.tobytes() for a in after] == [a.tobytes() for a in before]
    canvas.paint_zcylinder(3.0, 3.0, 9.0, 1.5, 2.5, 50, "muscle", "c1")  # holds z = 2
    assert (canvas.hu[:, :, 1] == 50).all() and (canvas.hu[:, :, [0, 2, 3]] == -1000).all()


_AXIS = st.tuples(st.integers(1, 12), st.floats(0.4, 8.0), st.floats(-500.0, 500.0))


@st.composite
def _face(draw, centres):
    """A box face on one axis: on a voxel centre, between two, or off the grid."""
    i = draw(st.integers(0, len(centres) - 1))
    return draw(st.sampled_from([
        float(centres[i]),
        float(centres[i]) + 0.5 * (float(centres[1] - centres[0]) if len(centres) > 1 else 1.0),
        float(centres[0]) - draw(st.floats(0.01, 100.0)),
        float(centres[-1]) + draw(st.floats(0.01, 100.0)),
        draw(st.floats(float(centres[0]) - 10.0, float(centres[-1]) + 10.0)),
    ]))


@given(axes=st.tuples(_AXIS, _AXIS, _AXIS), data=st.data())
def test_slab_arrays_match_searchsorted(axes, data):
    dims, spacing, origin = zip(*axes)
    grid = Grid(dims, spacing, origin)
    canvas = _Canvas(grid, None)
    centres = [grid.axis_coords(a) for a in range(3)]
    # faces are drawn independently, so some boxes are inverted (lo above hi)
    lo = tuple(data.draw(_face(c)) for c in centres)
    hi = tuple(data.draw(_face(c)) for c in centres)
    sl, *xyz = canvas.slab_arrays(lo, hi)
    for a, (c, s) in enumerate(zip(centres, sl)):
        assert (s.start, s.stop) == (int(np.searchsorted(c, lo[a], side="left")),
                                     int(np.searchsorted(c, hi[a], side="right")))
        assert xyz[a].dtype == np.float32
        assert xyz[a].tobytes() == c.astype(np.float32)[s].tobytes()
        assert xyz[a].shape == tuple(max(s.stop - s.start, 0) if b == a else 1 for b in range(3))


def _reference_organ_volumes(qm, R, ry, rz):
    """The solver's organ volumes as first written: one dict per call."""
    rx_i = 0.82 * math.sqrt(max(qm, 0.0)) * R
    ry_i = 0.82 * math.sqrt(max(qm, 0.0)) * ry
    vols = {"lung": 0.0, "organ": 0.0, "muscle": 0.0}
    for _name, hu, tissue, _c, (ax, ay, au), mirrored in _ORGANS:
        v = (4.0 / 3.0) * math.pi * (ax * rx_i) * (ay * ry_i) * (au * rz)
        v *= 2.0 if mirrored else 1.0
        if hu == HU_LUNG:
            vols["lung"] += v
        elif tissue == "muscle":
            vols["muscle"] += v
        else:
            vols["organ"] += v
    _name, _hu, _t, _c, (ax, ay, au) = _AORTA
    vols["organ"] += math.pi * (ax * rx_i) * (ay * ry_i) * (2.0 * au * rz)
    return vols


def _reference_solve_geometry(spec):
    """The solver as first written: every term recomputed in every model call,
    both organ dicts built in full, and all 60 bisection steps taken."""
    H = spec.height_cm * 10.0
    s = H / 1750.0
    z_pelvis, z_knee, z_ankle, z_c7, z_c1 = 0.47 * H, 0.26 * H, 0.03 * H, 0.79 * H, 0.865 * H
    z_c2 = z_c1 - max(20.0, 0.018 * H)
    r_head = (H - z_c1) / 1.95
    head_center_z = H - r_head
    head_bottom = H - 2.0 * r_head
    r_neck = 42.0 * s
    neck_top = head_bottom + 5.0
    r_femur, r_tibia, r_spine, r_stub = 14.0 * s, 12.0 * s, 17.0 * s, 9.0 * s
    r_marker = max(7.0 * s, max(spec.spacing_mm))
    bone_hu = bone_hu_for_age(spec.age_years)
    L_T = z_c7 - z_pelvis
    rz = L_T / 2.0
    zc = (z_pelvis + z_c7) / 2.0
    total_g = spec.weight_kg * 1000.0
    v_fat = 1000.0 * spec.fat_fraction * total_g / density(HU_FAT)
    v_muscle = 1000.0 * spec.muscle_fraction * total_g / density(HU_MUSCLE)
    v_femur = 2.0 * math.pi * r_femur**2 * (z_pelvis - z_knee)
    v_tibia = 2.0 * math.pi * r_tibia**2 * ((z_knee - 3.0) - z_ankle)
    v_stub = 2.0 * math.pi * r_stub**2 * (z_ankle - 10.0)
    v_legbones = v_femur + v_tibia + v_stub
    v_markers = 13.0 * (4.0 / 3.0) * math.pi * r_marker**3
    v_head = (4.0 / 3.0) * math.pi * r_head**3
    v_brain = (4.0 / 3.0) * math.pi * (0.60 * r_head) ** 3
    v_neck = math.pi * r_neck**2 * (neck_top - z_c7)

    def model(R):
        ry = 0.62 * R
        r_leg = 0.34 * R
        v_torso = _torso_volume(R, ry, rz)
        v_legs = 2.0 * math.pi * r_leg**2 * z_pelvis
        v_spine = math.pi * r_spine**2 * ((z_c7 - 0.03 * L_T) - (z_pelvis + 0.08 * L_T))
        q_fat = 1.0 - v_fat / (v_torso + v_legs)
        kappa_mu = _reference_organ_volumes(1.0, R, ry, rz)["muscle"] / v_torso
        q_muscle = (q_fat * (v_torso + v_legs) - v_muscle - v_legbones + v_neck) / (
            v_torso * (1.0 - kappa_mu))
        organs = _reference_organ_volumes(q_muscle, R, ry, rz)
        v_int_body = (q_muscle * v_torso - organs["lung"] - organs["organ"]
                      - organs["muscle"] - v_spine)
        mass_g = (
            density(HU_FAT) * v_fat
            + density(HU_MUSCLE) * v_muscle
            + density(bone_hu) * (v_legbones + v_spine + v_markers)
            + density(HU_BODY) * (v_head - v_brain)
            + density(HU_ORGAN) * v_brain
            + density(HU_BODY) * v_int_body
            + density(HU_ORGAN) * organs["organ"]
            + density(HU_LUNG) * organs["lung"]
        ) / 1000.0
        return mass_g, q_fat, q_muscle, r_leg, ry

    lo, hi = 40.0, 450.0
    if not model(lo)[0] < total_g < model(hi)[0]:
        raise ValueError(f"no torso radius in [{lo}, {hi}] mm realizes {spec.weight_kg} kg")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if model(mid)[0] < total_g:
            lo = mid
        else:
            hi = mid
    R = 0.5 * (lo + hi)
    _, q_fat, q_muscle, r_leg, ry = model(R)
    if q_fat <= 0.0:
        raise ValueError("fat_fraction exceeds the available soft volume")
    if q_muscle <= 0.05:
        raise ValueError("fat + muscle leave no room for the torso interior")
    if q_muscle >= q_fat:
        raise ValueError("muscle_fraction exceeds the available shell volume")
    if r_leg * math.sqrt(q_fat) < r_femur + 1.5 * max(spec.spacing_mm):
        raise ValueError("leg muscle core too thin to hold the femur")
    return _Geometry(
        H=H, z_pelvis=z_pelvis, z_knee=z_knee, z_ankle=z_ankle,
        z_c7=z_c7, z_c1=z_c1, z_c2=z_c2, r_head=r_head,
        head_center_z=head_center_z, r_neck=r_neck, neck_top=neck_top,
        R=R, ry=ry, rz=rz, zc=zc, hip_x=0.40 * R, r_leg=r_leg,
        q_fat=q_fat, q_muscle=q_muscle, r_femur=r_femur, r_tibia=r_tibia,
        r_spine=r_spine, r_stub=r_stub, r_marker=r_marker, bone_hu=bone_hu,
    )


@given(sex=st.sampled_from("MF"), age=st.floats(0.0, 120.0), height=st.floats(80.0, 220.0),
       weight=st.floats(20.0, 200.0), fat=st.floats(0.05, 0.6), share=st.floats(0.001, 1.0),
       spacing=st.sampled_from([2.0, 4.0, 8.0]))
@example(sex="M", age=55.0, height=176.0, weight=84.0, fat=0.25, share=0.6, spacing=4.0)
@example(sex="M", age=55.0, height=81.2, weight=178.2, fat=0.14, share=0.57, spacing=2.0)
@example(sex="F", age=55.0, height=194.4, weight=23.7, fat=0.33, share=0.21, spacing=2.0)
@example(sex="M", age=55.0, height=93.1, weight=25.1, fat=0.31, share=0.38, spacing=4.0)
@example(sex="M", age=55.0, height=195.9, weight=22.2, fat=0.54, share=0.11, spacing=8.0)
@example(sex="M", age=55.0, height=214.3, weight=45.0, fat=0.40, share=0.27, spacing=8.0)
def test_solve_geometry_matches_reference(sex, age, height, weight, fat, share, spacing):
    # muscle takes a share of what the 0.9 cap leaves; the examples reach
    # a solution and each of the five infeasible messages
    spec = PhantomSpec(sex=sex, age_years=age, height_cm=height, weight_kg=weight,
                       fat_fraction=fat, muscle_fraction=share * (0.9 - fat),
                       spacing_mm=(spacing,) * 3)
    try:
        expected = _reference_solve_geometry(spec)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            _solve_geometry(spec)
        assert str(raised.value) == str(exc)
        return
    got = _solve_geometry(spec)
    for f in fields(_Geometry):
        assert getattr(got, f.name) == getattr(expected, f.name), f.name


# sha256 of json.dumps(encode(truth), sort_keys=True) for the seed-3 subject,
# recorded with one whole-grid np.bincount; a float key is a cubic spacing, and
# the non-cubic (3, 4, 5) mm grid catches a bound taken on the wrong axis
TRUTH_DIGESTS = {
    2.0: "3d5050c607f39b6a460f4e2b603b09e46ad2b8c067a4b4f7b76cbd9268fc3597",
    4.0: "edcbaa28752d195cdd4a8017b7035627993f64a312017cabff1b2d4545279e32",
    8.0: "faa47e0845addd2eddd1b5a27213e998528fae5b5959de7e4024ad957a54a75b",
    (3.0, 4.0, 5.0): "bde1740c45fc3479b022bce146918556f5d317aca3d5279a37a9e0476ddc066d",
}


def _spacing_mm(key):
    return key if isinstance(key, tuple) else (key,) * 3


@pytest.mark.parametrize("spacing", list(TRUTH_DIGESTS), ids=str)
def test_truth_encoding_pinned(spacing):
    [(_, _, spec)] = sample_cohort_specs(1, AttributeDistribution(), _spacing_mm(spacing), 3)
    vol, _, _, truth = generate_phantom(spec)
    assert vol.grid.n_voxels > _TRUTH_CHUNK  # truth is counted over more than one chunk
    text = json.dumps(encode(truth), sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == TRUTH_DIGESTS[spacing]


# sha256 of the HU, tissue and structure bytes of the same subject; the truth
# counts only HU values, so these pin where each voxel and label lands
PHANTOM_DIGESTS = {
    2.0: ("9045b3f118102d5e575f9032162622c11f13992dbcfc537e73d227277c372879",
          "7bd0fb66390dd9aa528d221d702c4b4f0f53995f3a4f6644bc8ffb6b25ac24e8",
          "9120548b36d814125914e6d2a18a3ff55cede5a3c5b2a20df289a38ef1e6ee7b"),
    4.0: ("735236fa3965ab2a7bfdd12da2274a54c0f8fba9cf993e7b0f9d530550cad906",
          "b0f11792e8dc8570cd2781836bda9a709e8a0165e979d2ae192bf480d020e7c8",
          "2038b22d9f29b787b598620d867f1f755ed6504f5eb8a8c9b3e02369baa154ef"),
    8.0: ("7ef0354483fbd97c443705f292c54d8d4726cae4f433dc171cd884ffd3c976b9",
          "3929c9c863315fef79bd3f42c157f48ce78caf1b7044ee89bd72eab0a7e0f3aa",
          "26f0d770098a9fc08b04666709b3fc428836bce89760dccbbbdef5b8f075dd95"),
    (3.0, 4.0, 5.0): (
        "7827454f58302798564dd0e659ea611518ba4ada778d3451e42706364dfe4ad6",
        "78882a93a4359a1f2d529404e2c28eb990079b6e0b1fa58dac3fa8443dee4ed6",
        "33a8cabdc77fac9b37a457b928f7101d9a327a78daa74a1e8c19682db87c4b1c"),
}


@pytest.mark.parametrize("spacing", list(PHANTOM_DIGESTS), ids=str)
def test_painted_bytes_pinned(spacing):
    [(_, _, spec)] = sample_cohort_specs(1, AttributeDistribution(), _spacing_mm(spacing), 3)
    vol, tissue, structure, _ = generate_phantom(spec)
    digests = tuple(hashlib.sha256(m.data.tobytes()).hexdigest()
                    for m in (vol, tissue, structure))
    assert digests == PHANTOM_DIGESTS[spacing]


def _full_phantom(spec):
    """``generate_phantom(spec)`` and the arguments it counted the truth from."""
    calls = []

    def record(*args):
        calls.append(args)
        return _count_truth(*args)

    with mock.patch.object(phantom, "_count_truth", record):
        result = generate_phantom(spec)
    [args] = calls
    return result, args


def _truth_oracle(vol, spec, truth):
    """``truth`` with every counted field recomputed from ``np.unique`` of the image."""
    values, counts = np.unique(vol.data, return_counts=True)
    order = np.argsort(values.view(np.uint16))  # the order masses are summed in
    body = [(int(h), int(n)) for h, n in zip(values[order], counts[order]) if h != HU_AIR]
    by_hu = dict(body)
    vox = voxel_volume_mm3(vol.grid)

    def mass(pairs):
        return sum(n * (h + 1000.0) / (REFERENCE_HU + 1000.0) for h, n in pairs) * vox / 1000.0

    m_body = mass(body)
    bone_hu = bone_hu_for_age(spec.age_years)
    return replace(
        truth, body_mass_g=m_body,
        fat_pct=100.0 * mass([(HU_FAT, by_hu.get(HU_FAT, 0))]) / m_body,
        muscle_pct=100.0 * mass([(HU_MUSCLE, by_hu.get(HU_MUSCLE, 0))]) / m_body,
        bone_density_hu=float(bone_hu) if bone_hu in by_hu else None,
        body_volume_mm3=sum(n for _, n in body) * vox)


@given(sex=st.sampled_from("MF"), age=st.floats(18.0, 90.0), height=st.floats(145.0, 203.0),
       weight=st.floats(45.0, 135.0), seed=st.integers(0, 2 ** 32 - 1),
       spacing=st.sampled_from([8.0, 6.0, 5.0]))
@example(sex="F", age=90.0, height=203.0, weight=45.0, seed=0, spacing=4.0)
def test_truth_counts_match_unique_oracle(sex, age, height, weight, seed, spacing):
    fat, muscle = sample_fractions(sex, age, weight, Stream(seed))
    spec = PhantomSpec(sex=sex, age_years=age, height_cm=height, weight_kg=weight,
                       fat_fraction=fat, muscle_fraction=muscle,
                       spacing_mm=(spacing,) * 3, seed=seed)
    (vol, _, _, truth), (canvas, *_) = _full_phantom(spec)
    # every voxel holds air or a value the canvas recorded as painted
    assert set(np.unique(vol.data).tolist()) <= canvas.painted | {HU_AIR}
    assert encode(truth) == encode(_truth_oracle(vol, spec, truth))


def test_truth_counts_only_what_the_canvas_holds():
    grid = Grid((4, 4, 4), (2.0, 2.0, 2.0))
    geom = _solve_geometry(PhantomSpec(spacing_mm=(2.0, 2.0, 2.0)))

    def truth_of(*materials):
        canvas = _Canvas(grid, None)
        for hu, tissue in materials:
            canvas.paint_sphere((3.0, 3.0, 3.0), 3.0, hu, tissue)
        return canvas, _count_truth(canvas, grid, geom, {})

    canvas, overwritten = truth_of((HU_FAT, "fat"), (HU_MUSCLE, "muscle"))
    _, muscle_only = truth_of((HU_MUSCLE, "muscle"))
    # fat was painted, then fully overwritten: it is recorded but adds no mass
    assert HU_FAT in canvas.painted and not (canvas.hu == HU_FAT).any()
    assert encode(overwritten) == encode(muscle_only)
    assert overwritten.fat_pct == 0.0 and overwritten.muscle_pct == 100.0
    # no voxel is bone, so there is no bone density; painting bone gives it
    assert overwritten.bone_density_hu is None
    _, boned = truth_of((HU_MUSCLE, "muscle"), (geom.bone_hu, "bone"))
    assert boned.bone_density_hu == float(geom.bone_hu)


def test_count_truth_traced_peak(traced_peak):
    _, args = _full_phantom(PhantomSpec(spacing_mm=(4.0, 4.0, 4.0), seed=5))
    truth, peak = traced_peak(_count_truth, *args)
    assert truth.body_mass_g > 0.0
    # one chunk's matches and the counts; a whole-grid ``hu == h`` is 1 B per voxel,
    # and a histogram of 65536 int64 bins per chunk far more
    assert peak <= 0.1 * args[0].hu.size


def test_generate_phantom_traced_peak(traced_peak):
    (vol, *_), peak = traced_peak(generate_phantom,
                                  PhantomSpec(spacing_mm=(4.0, 4.0, 4.0), seed=5))
    # image, tissue and structure arrays take 4 B per voxel; a whole-grid
    # bincount would add an 8 B per voxel int64 copy of the image
    assert peak <= 7 * vol.grid.n_voxels


def test_generate_cohort_traced_peak(tmp_path, traced_peak):
    manifest, peak = traced_peak(generate_cohort, 3, AttributeDistribution(),
                                 (4.0, 4.0, 4.0), 5, tmp_path, threads=1)
    largest = max(math.prod(json.loads((tmp_path / rec.image).read_text())["dims"])
                  for rec in manifest.subjects)
    # one subject's arrays and one save buffer; the previous subject's
    # arrays are released before the next is generated
    assert peak <= 7 * largest


def test_generate_cohort_two_threads_traced_peak(tmp_path, traced_peak):
    manifest, peak = traced_peak(generate_cohort, 4, AttributeDistribution(),
                                 (4.0, 4.0, 4.0), 5, tmp_path, threads=2)
    largest = max(math.prod(json.loads((tmp_path / rec.image).read_text())["dims"])
                  for rec in manifest.subjects)
    # each of the two workers holds one subject's arrays and one save buffer;
    # a subject's arrays are released once its task has saved them
    assert peak <= 2 * 7 * largest


def test_seed_changes_anatomy():
    a = generate_phantom(PhantomSpec(spacing_mm=(4.0, 4.0, 4.0), seed=5))
    b = generate_phantom(PhantomSpec(spacing_mm=(4.0, 4.0, 4.0), seed=6))
    assert (a[0].data != b[0].data).any()


def test_tissue_labels_cover_classes(phantom_default):
    _, vol, tissue, structure, _ = phantom_default
    present = set(np.unique(tissue.data).tolist())
    assert present == {0, 1, 2, 3, 4}
    # background is exactly the air voxels
    np.testing.assert_array_equal(tissue.data == 0, vol.data == -1000)
    structs = set(np.unique(structure.data).tolist())
    assert {1, 20, 21, 22, 23, 24, 25, 26}.issubset(structs)


def test_infeasible_spec():
    # a valid spec whose geometry cannot be solved, not a rejected field
    with pytest.raises(ValueError, match=r"fat \+ muscle leave no room"):
        generate_phantom(PhantomSpec(height_cm=200.0, weight_kg=20.0))
    with pytest.raises(ValueError, match=r"fat \+ muscle leave no room"):
        generate_phantom(PhantomSpec(weight_kg=60.0, fat_fraction=0.55,
                                     muscle_fraction=0.30))


def test_truth_round_trip(phantom_small):
    _, _, _, _, truth = phantom_small
    back = decode(PhantomTruth, json.loads(json.dumps(encode(truth))), "truth")
    assert back == truth
    assert back.landmarks["c7"] == truth.landmarks["c7"]
    assert type(back.landmarks["c7"]) is tuple
    # a phantom without bone voxels records None bone density, which survives
    # JSON; a non-finite one is no record the program writes
    boneless = replace(truth, bone_density_hu=None)
    text = json.dumps(encode(boneless))
    assert '"bone_density_hu": null' in text
    assert decode(PhantomTruth, json.loads(text), "truth") == boneless
    with pytest.raises(ValueError, match=r"truth\.bone_density_hu must be a finite number, "
                                         r"got nan"):
        decode(PhantomTruth, {**encode(truth), "bone_density_hu": float("nan")}, "truth")
    missing = encode(truth)
    del missing["fat_pct"]
    with pytest.raises(ValueError, match=r"truth is missing keys: \['fat_pct'\]"):
        decode(PhantomTruth, missing, "truth")
    with pytest.raises(ValueError, match=r"truth\.landmarks\.c7 must be a list of 3"):
        decode(PhantomTruth, {**encode(truth), "landmarks": {"c7": [1.0, 2.0]}}, "truth")


# --- attribute model ------------------------------------------------------


def test_sample_fractions_bounds_and_age_slope():
    heavier = sample_fractions("M", 80.0, 90.0, Stream(1))
    lighter = sample_fractions("M", 30.0, 60.0, Stream(1))
    assert heavier[0] > lighter[0]        # fat rises with weight and age
    for sex in ("M", "F"):
        for k in range(50):
            fat, muscle = sample_fractions(sex, 20.0 + k, 45.0 + k, Stream(k))
            assert 0.08 <= fat <= 0.55
            assert 0.16 <= muscle <= 0.54
            assert fat + muscle <= 0.86 + 1e-12


def test_sample_cohort_specs_ids_and_determinism():
    dist = AttributeDistribution()
    a = sample_cohort_specs(5, dist, (3.0, 3.0, 3.0), seed=7)
    b = sample_cohort_specs(5, dist, (3.0, 3.0, 3.0), seed=7)
    assert [sid for sid, _, _ in a] == ["subj_0000", "subj_0001", "subj_0002",
                                        "subj_0003", "subj_0004"]
    assert a == b
    c = sample_cohort_specs(5, dist, (3.0, 3.0, 3.0), seed=8)
    assert c != a
    for _, attrs, spec in a:
        assert dist.age_range[0] <= spec.age_years <= dist.age_range[1]
        assert dist.height_range[0] <= spec.height_cm <= dist.height_range[1]
        assert attrs.weight_kg == spec.weight_kg


def test_missing_rate_censors_records():
    dist = AttributeDistribution(missing_rate=0.5)
    rows = sample_cohort_specs(40, dist, (3.0, 3.0, 3.0), seed=3)
    n_missing = sum(
        v is None
        for _, attrs, _ in rows
        for v in (attrs.sex, attrs.age_years, attrs.height_cm, attrs.weight_kg))
    assert 40 < n_missing < 120  # ~80 of 160 fields
    # the true spec is never censored
    assert all(spec.sex in ("M", "F") for _, _, spec in rows)


# --- binning ----------------------------------------------------------------


def test_bin_attributes_hand_cases():
    b = bin_attributes(Attributes(sex="F", age_years=55.0, height_cm=176.0,
                                  weight_kg=80.0))
    assert (b.sex, b.age, b.height, b.weight) == ("F", 50.0, 170.0, 80.0)
    # bins are half-open: 60 falls in the next decade
    b = bin_attributes(Attributes("M", 60.0, 160.0, 59.999))
    assert (b.age, b.weight) == (60.0, 50.0)
    assert bin_attributes(Attributes(None, None, 150.0, None)) == \
        BinnedAttributes(None, None, 150.0, None)
    # another sex is missing too; a negative value falls in the first bin
    assert bin_attributes(Attributes("X", -3.0, 150.0, 0.0)) == \
        BinnedAttributes(None, 0.0, 150.0, 0.0)


_MATCH_CLAMPS = {"age_years": (0.0, 110.0), "height_cm": (100.0, 215.0),
                 "weight_kg": (25.0, 180.0)}


@given(sex=st.sampled_from(["M", "F"]) | st.none() | st.text(max_size=3),
       values=st.tuples(*[st.none() | st.floats(-1e6, 1e6)] * 3),
       seed=st.integers(0, 2**32 - 1))
@example(sex="M", values=(59.999, 214.0, -4.0), seed=0)
def test_bins_drive_matched_draws_and_encoding(sex, values, seed):
    attrs = Attributes(sex, *values)
    binned = bin_attributes(attrs)
    edges = (binned.age, binned.height, binned.weight)
    spec = generate_matched_spec(binned, AttributeDistribution(), (4.0, 4.0, 4.0), seed)
    if sex in ("M", "F"):
        assert binned.sex == spec.sex == sex
    else:
        assert binned.sex is None
    row = encode_binned(binned)
    assert row[:2] == [float(sex == "M"), float(sex == "F")]
    for (name, clamp), v, lo, (mid, missing) in zip(
            _MATCH_CLAMPS.items(), values, edges, zip(row[2::2], row[3::2])):
        if v is None:
            assert lo is None and (mid, missing) == (0.0, 1.0)
            continue
        assert lo % BIN_WIDTH == 0.0 and lo <= max(v, 0.0) < lo + BIN_WIDTH
        assert (mid, missing) == (lo + 5.0, 0.0)
        a, b = max(lo, clamp[0]), min(lo + BIN_WIDTH, clamp[1])
        if a >= b:  # the bin lies outside the clamp range: draw from all of it
            a, b = clamp
        assert a <= getattr(spec, name) < b


def test_generate_matched_spec_respects_bins():
    dist = AttributeDistribution()
    binned = bin_attributes(Attributes("M", 52.0, 176.0, 81.0))
    for seed in range(20):
        spec = generate_matched_spec(binned, dist, (3.0, 3.0, 3.0), seed)
        assert spec.sex == "M"
        assert 50.0 <= spec.age_years < 60.0
        assert 170.0 <= spec.height_cm < 180.0
        assert 80.0 <= spec.weight_kg < 90.0


def test_generate_matched_spec_none_uses_prior():
    dist = AttributeDistribution()
    binned = bin_attributes(Attributes(None, None, None, None))
    specs = [generate_matched_spec(binned, dist, (3.0, 3.0, 3.0), s)
             for s in range(30)]
    assert {s.sex for s in specs} == {"M", "F"}
    assert all(dist.age_range[0] <= s.age_years <= dist.age_range[1] for s in specs)
    assert len({s.weight_kg for s in specs}) == 30


def test_matched_spec_deterministic_in_seed():
    dist = AttributeDistribution()
    binned = bin_attributes(Attributes("F", 40.0, 163.0, 70.0))
    s1 = generate_matched_spec(binned, dist, (3.0, 3.0, 3.0), 11)
    s2 = generate_matched_spec(binned, dist, (3.0, 3.0, 3.0), 11)
    assert s1 == s2


# --- manifests ---------------------------------------------------------------


def test_manifest_round_trip(tmp_path, phantom_small):
    _, _, _, _, truth = phantom_small
    rec = SubjectRecord(
        id="subj_0000",
        attributes=Attributes("F", 34.0, 161.0, None),
        population="ID",
        image="subj_0000.ctv.json",
        tissue="subj_0000_tissue.ctv.json",
        structure="subj_0000_structure.ctv.json",
        truth=truth,
    )
    manifest = CohortManifest(seed=9, spacing_mm=(3.0, 3.0, 3.0), subjects=[rec])
    loaded = read_record(CohortManifest, write_json(tmp_path / "manifest.json", encode(manifest)))
    assert loaded.seed == 9
    assert loaded.spacing_mm == (3.0, 3.0, 3.0)
    got = loaded.subjects[0]
    assert got.id == "subj_0000"
    assert got.attributes == rec.attributes
    assert got.population == "ID"
    assert got.image == rec.image
    assert got.truth == truth


@pytest.mark.parametrize("bad", ["", ".", "..", "a/b", "../escaped", "/abs"])
def test_subject_id_must_be_plain_file_name(bad):
    with pytest.raises(ValueError, match="subject id must be a plain file name"):
        SubjectRecord(id=bad, attributes=Attributes(None, None, None, None))


def test_manifest_refuses_repeated_subject_id():
    subjects = [SubjectRecord(id=sid, attributes=Attributes(None, None, None, None))
                for sid in ("s0", "s1", "s0")]
    with pytest.raises(ValueError, match="subject id 's0' is repeated"):
        CohortManifest(seed=1, spacing_mm=(3.0, 3.0, 3.0), subjects=subjects)
