"""CTV round trips, header validation, and the NIfTI-1 reader."""

import json
import re
import struct
from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vctkit.io import load_labelmap, load_volume, save_labelmap, save_volume
from vctkit.phantom import AttributeDistribution, generate_phantom, sample_cohort_specs
from vctkit.volume import Grid, LabelMap, Volume


def _vol(dims=(3, 4, 5), dtype=np.int16):
    rng = np.random.default_rng(0)
    if dtype == np.int16:
        data = rng.integers(-1000, 2000, size=dims).astype(np.int16)
    else:
        data = rng.normal(size=dims).astype(np.float32)
    return Volume(Grid(dims, (1.0, 1.5, 2.0), (3.0, -1.0, 0.0)), data)


def test_volume_round_trip_bitwise(tmp_path):
    vol = _vol()
    save_volume(vol, tmp_path / "img")
    back = load_volume(tmp_path / "img.ctv.json")
    assert back.grid == vol.grid
    assert back.data.dtype == np.int16
    np.testing.assert_array_equal(back.data, vol.data)


def test_volume_round_trip_float32(tmp_path):
    vol = _vol(dtype=np.float32)
    save_volume(vol, tmp_path / "img")
    back = load_volume(tmp_path / "img")
    np.testing.assert_array_equal(back.data, vol.data)


def test_labelmap_round_trip(tmp_path):
    g = Grid((3, 3, 3), (2.0, 2.0, 2.0))
    data = np.zeros(g.dims, dtype=np.uint8)
    data[1, 1, 1] = 2
    data[0, 0, 0] = 4
    lm = LabelMap(g, data, "tissue", {2: "fat", 4: "bone"})
    save_labelmap(lm, tmp_path / "t")
    back = load_labelmap(tmp_path / "t", "tissue")
    assert back.kind == "tissue"
    assert back.class_table == {2: "fat", 4: "bone"}
    np.testing.assert_array_equal(back.data, lm.data)


def test_payload_is_little_endian_z_fastest(tmp_path):
    g = Grid((2, 1, 2), (1.0, 1.0, 1.0))
    data = np.array([[[1, 2]], [[3, 4]]], dtype=np.int16)  # [x][y][z]
    # a map a caller built in F order is written in the same order
    for i, held in enumerate((data, np.asfortranarray(data))):
        save_volume(Volume(g, held), tmp_path / f"lin{i}")
        raw = (tmp_path / f"lin{i}.raw").read_bytes()
        assert raw == b"\x01\x00\x02\x00\x03\x00\x04\x00"


def test_hu_clamped_on_load(tmp_path):
    vol = _vol()
    save_volume(vol, tmp_path / "img")
    raw_path = tmp_path / "img.raw"
    payload = np.frombuffer(raw_path.read_bytes(), dtype="<i2").copy()
    payload[0] = -4096
    payload[1] = 5000
    raw_path.write_bytes(payload.tobytes())
    back = load_volume(tmp_path / "img")
    # payload positions 0 and 1 are voxels (0, 0, 0) and (0, 0, 1)
    assert back.data[0, 0, 0] == -1024
    assert back.data[0, 0, 1] == 3071


def test_missing_header_field_raises(tmp_path):
    vol = _vol()
    header_path = save_volume(vol, tmp_path / "img")
    header = json.loads(header_path.read_text())
    del header["spacing_mm"]
    header_path.write_text(json.dumps(header))
    with pytest.raises(ValueError, match="spacing_mm"):
        load_volume(header_path)


def test_payload_size_mismatch_raises(tmp_path):
    vol = _vol()
    save_volume(vol, tmp_path / "img")
    raw = (tmp_path / "img.raw").read_bytes()
    for payload in (raw[:-2], raw[:-1], raw + b"\0"):
        (tmp_path / "img.raw").write_bytes(payload)
        with pytest.raises(ValueError, match=re.escape(
                f"{tmp_path / 'img.ctv.json'}: payload size {len(payload)} does not match "
                f"dims (3, 4, 5) and dtype int16 (expected {len(raw)})")):
            load_volume(tmp_path / "img")


def test_resaving_loaded_maps_keeps_payload_bytes(tmp_path):
    # loaded arrays are C-ordered, so the second save writes the loaded buffer
    [(_, _, spec)] = sample_cohort_specs(1, AttributeDistribution(), (8.0,) * 3, 3)
    vol, tissue, structure, _ = generate_phantom(spec)
    for name, save, load, obj in (
            ("img", save_volume, load_volume, vol),
            ("tis", save_labelmap, partial(load_labelmap, kind="tissue"), tissue),
            ("str", save_labelmap, partial(load_labelmap, kind="structure"), structure)):
        save(obj, tmp_path / name)
        back = load(tmp_path / name)
        assert back.data.flags.c_contiguous and back.data.flags.writeable
        save(back, tmp_path / f"{name}2")
        assert (tmp_path / f"{name}2.raw").read_bytes() == (tmp_path / f"{name}.raw").read_bytes()
        assert ((tmp_path / f"{name}2.ctv.json").read_text()
                == (tmp_path / f"{name}.ctv.json").read_text().replace(f"{name}.raw", f"{name}2.raw"))


def test_load_volume_holds_one_buffer(tmp_path, traced_peak):
    vol = _vol(dims=(64, 48, 40))
    save_volume(vol, tmp_path / "img")
    back, peak = traced_peak(load_volume, tmp_path / "img")
    np.testing.assert_array_equal(back.data, vol.data)
    # the int16 payload itself is 2 B per voxel; a read_bytes + astype + clip
    # chain would hold 4
    assert peak <= 3 * vol.grid.n_voxels


def test_load_labelmap_holds_one_buffer(tmp_path, traced_peak):
    data = np.random.default_rng(3).integers(0, 6, size=(96, 80, 64)).astype(np.uint8)
    lm = LabelMap(Grid(data.shape, (1.0, 1.0, 1.0)), data, "tissue",
                  {v: f"class_{v}" for v in range(1, 6)})
    save_labelmap(lm, tmp_path / "t")
    back, peak = traced_peak(load_labelmap, tmp_path / "t", "tissue")
    np.testing.assert_array_equal(back.data, data)
    assert back.data.flags.c_contiguous and back.data.flags.writeable
    # the uint8 payload itself is 1 B per voxel; a reordering copy on load
    # would hold 2
    assert peak <= 1.5 * data.size


def test_save_writes_the_map_buffer_without_a_copy(tmp_path, traced_peak):
    rng = np.random.default_rng(4)
    g = Grid((96, 80, 64), (1.0, 1.0, 1.0))
    vol = Volume(g, rng.integers(-1000, 2000, size=g.dims).astype(np.int16))
    labels = LabelMap(g, rng.integers(0, 6, size=g.dims).astype(np.uint8), "tissue",
                      {v: f"class_{v}" for v in range(1, 6)})
    for save, obj, name in ((save_volume, vol, "img"), (save_labelmap, labels, "tis")):
        _, peak = traced_peak(save, obj, tmp_path / name)
        # a C-ordered map is written from its own buffer: a reordering copy
        # would hold 2 B per voxel for int16, 1 B for uint8
        assert peak < 0.1 * g.n_voxels, (name, peak)
    np.testing.assert_array_equal(load_volume(tmp_path / "img").data, vol.data)
    np.testing.assert_array_equal(load_labelmap(tmp_path / "tis", "tissue").data, labels.data)


@pytest.mark.parametrize("loader", ["volume", "labelmap"])
@pytest.mark.parametrize("edit, message", [
    # a header written before the payload order was stated, x-fastest
    (None, "ctv header is missing keys: ['payload_order']"),
    ("x_fastest", "payload_order must be 'z_fastest', got 'x_fastest'"),
], ids=["missing", "x_fastest"])
def test_header_must_state_the_z_fastest_payload_order(tmp_path, loader, edit, message):
    g = Grid((3, 4, 5), (1.0, 1.0, 1.0))
    if loader == "volume":
        header_path, load = save_volume(_vol(g.dims), tmp_path / "m"), load_volume
    else:
        header_path = save_labelmap(LabelMap(g, np.zeros(g.dims, np.uint8), "structure"),
                                    tmp_path / "m")
        load = partial(load_labelmap, kind="structure")
    header = json.loads(header_path.read_text())
    assert header["payload_order"] == "z_fastest"
    if edit is None:
        del header["payload_order"]
    else:
        header["payload_order"] = edit
    header_path.write_text(json.dumps(header))
    with pytest.raises(ValueError, match="^" + re.escape(f"{header_path}: {message}") + "$"):
        load(header_path)


def test_kind_mismatch_raises(tmp_path):
    g = Grid((2, 2, 2), (1.0, 1.0, 1.0))
    lm = LabelMap(g, np.zeros(g.dims, dtype=np.uint8), "tissue")
    save_labelmap(lm, tmp_path / "t")
    def refused(name, expected, got):
        # an error names the pair by its header, even when called without the suffix
        return pytest.raises(ValueError, match="^" + re.escape(
            f"{tmp_path / name}.ctv.json: expected kind {expected!r}, got {got!r}") + "$")

    with refused("t", "image", "tissue"):
        load_volume(tmp_path / "t")
    vol = _vol((2, 2, 2))
    save_volume(vol, tmp_path / "v")
    with refused("v", "tissue", "image"):
        load_labelmap(tmp_path / "v", "tissue")
    # the expected kind must match the header's
    assert load_labelmap(tmp_path / "t", kind="tissue").kind == "tissue"
    with refused("t", "structure", "tissue"):
        load_labelmap(tmp_path / "t", kind="structure")
    save_labelmap(LabelMap(g, lm.data, "structure"), tmp_path / "s")
    with refused("s", "tissue", "structure"):
        load_labelmap(tmp_path / "s", kind="tissue")


@pytest.mark.parametrize("edits, message", [
    # every grid is RAS and every volume HU: a header stating otherwise is refused
    ({"orientation": "LPS"}, "orientation must be 'RAS', got 'LPS'"),
    ({"unit": "kelvin"}, "unsupported unit 'kelvin'"),
    # the Grid and Volume constructors check a well-typed grid and dtype; decode
    # refuses a non-integer dimension (3.0 too) and an unknown key
    ({"dims": [3, 4, 0]}, "dims must be three positive integers"),
    ({"dims": [3, 4.5, 5]}, "dims must be int, got 4.5"),
    ({"dtype": "uint8", "dims": [6, 4, 5]}, "volume dtype must be int16 or float32"),
    ({"dims": [3.0, 4, 5]}, "dims must be int, got 3.0"),
    ({"extra": 1}, "unknown ctv header keys: ['extra']"),
])
def test_bad_header_raises(tmp_path, edits, message):
    header_path = save_volume(_vol(), tmp_path / "img")
    header = json.loads(header_path.read_text())
    assert (header["orientation"], header["unit"]) == ("RAS", "HU")
    header.update(edits)
    header_path.write_text(json.dumps(header))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_volume(header_path)


@pytest.mark.parametrize("data_file", ["", ".", "..", "a/b", "/etc/passwd"])
def test_data_file_must_be_a_plain_file_name(tmp_path, data_file):
    # the payload sits beside its header, so data_file names no directory
    header_path = save_volume(_vol(), tmp_path / "img")
    header = json.loads(header_path.read_text())
    header["data_file"] = data_file
    header_path.write_text(json.dumps(header))
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{header_path}: data_file must be a plain file name, got {data_file!r}")):
        load_volume(header_path)


def test_label_header_unit_must_be_label(tmp_path):
    g = Grid((2, 2, 2), (1.0, 1.0, 1.0))
    header_path = save_labelmap(LabelMap(g, np.zeros(g.dims, dtype=np.uint8), "tissue"),
                                tmp_path / "t")
    header = json.loads(header_path.read_text())
    header["unit"] = "HU"
    header_path.write_text(json.dumps(header))
    with pytest.raises(ValueError, match=re.escape(
            f"{header_path}: unsupported unit 'HU' for kind 'tissue'")):
        load_labelmap(header_path, "tissue")


def test_header_text_pins_key_order(tmp_path):
    # keys in the record's field order, not sorted; an image has no class_table
    save_volume(Volume(Grid((3, 1, 2), (1.0, 1.5, 2.0), (3.0, -1.0, 0.0)),
                       np.zeros((3, 1, 2), dtype=np.int16)), tmp_path / "img")
    assert (tmp_path / "img.ctv.json").read_text() == """{
  "dims": [
    3,
    1,
    2
  ],
  "spacing_mm": [
    1.0,
    1.5,
    2.0
  ],
  "origin_mm": [
    3.0,
    -1.0,
    0.0
  ],
  "orientation": "RAS",
  "dtype": "int16",
  "byte_order": "little",
  "payload_order": "z_fastest",
  "kind": "image",
  "unit": "HU",
  "data_file": "img.raw"
}
"""
    # a class table is written in label order
    data = np.zeros((1, 1, 2), dtype=np.uint8)
    data[0, 0, 1] = 4
    save_labelmap(LabelMap(Grid((1, 1, 2), (2.0, 2.0, 2.0)), data, "tissue",
                           {4: "bone", 2: "fat"}), tmp_path / "tis")
    assert (tmp_path / "tis.ctv.json").read_text() == """{
  "dims": [
    1,
    1,
    2
  ],
  "spacing_mm": [
    2.0,
    2.0,
    2.0
  ],
  "origin_mm": [
    0.0,
    0.0,
    0.0
  ],
  "orientation": "RAS",
  "dtype": "uint8",
  "byte_order": "little",
  "payload_order": "z_fastest",
  "kind": "tissue",
  "unit": "label",
  "class_table": {
    "2": "fat",
    "4": "bone"
  },
  "data_file": "tis.raw"
}
"""


# one strategy per JSON type, and the JSON types each header field accepts
_JSON_TYPES = {
    "null": st.none(),
    "bool": st.booleans(),
    "number": st.integers(-5, 5) | st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(max_size=4),
    "array": st.lists(st.integers(0, 5), max_size=4),
    "object": st.dictionaries(st.text(max_size=3), st.integers(0, 5), max_size=2),
}
_FIELD_TYPES = {
    "dims": {"array"}, "spacing_mm": {"array"}, "origin_mm": {"array"},
    "orientation": {"string"}, "dtype": {"string"}, "byte_order": {"string"},
    "payload_order": {"string"}, "kind": {"string"}, "unit": {"string"}, "class_table": {"object", "null"},
    "data_file": {"string"},
}


@pytest.fixture(scope="module")
def saved_maps(tmp_path_factory):
    """A saved image, tissue and structure map: kind -> (header path, loader)."""
    root = tmp_path_factory.mktemp("maps")
    g = Grid((2, 3, 2), (1.0, 1.0, 1.0))
    labels = np.zeros(g.dims, dtype=np.uint8)
    labels[1, 1, 1] = 2
    return {
        "image": (save_volume(_vol(g.dims), root / "img"), load_volume),
        "tissue": (save_labelmap(LabelMap(g, labels, "tissue", {2: "fat"}), root / "tis"),
                   partial(load_labelmap, kind="tissue")),
        "structure": (save_labelmap(LabelMap(g, labels, "structure", {2: "spleen"}),
                                    root / "str"), partial(load_labelmap, kind="structure")),
    }


@given(kind=st.sampled_from(["image", "tissue", "structure"]), data=st.data())
def test_header_field_of_another_json_type_raises_naming_it(saved_maps, kind, data):
    header_path, load = saved_maps[kind]
    text = header_path.read_text()
    header = json.loads(text)
    name = data.draw(st.sampled_from(sorted(header)), label="field")
    header[name] = data.draw(st.one_of(*(strategy for t, strategy in _JSON_TYPES.items()
                                         if t not in _FIELD_TYPES[name])), label="value")
    header_path.write_text(json.dumps(header))
    try:
        with pytest.raises(ValueError) as info:
            load(header_path)
    finally:
        header_path.write_text(text)
    assert str(info.value).startswith(f"{header_path}: {name} ")


def test_malformed_json_raises(tmp_path):
    p = tmp_path / "bad.ctv.json"
    p.write_text("{not json")
    (tmp_path / "bad.raw").write_bytes(b"")
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: malformed JSON: "):
        load_volume(p)


# --- NIfTI-1 ----------------------------------------------------------------


def _write_nifti(path, data: np.ndarray, spacing=(1.0, 1.0, 1.0),
                 srow=None, scl_slope=0.0, qform=None, endian="<"):
    """Minimal single-file NIfTI-1 writer for tests.

    ``qform`` is ``(quatern_b, quatern_c, quatern_d, offset, qfac)``, written
    with qform_code 1 and no sform; ``endian`` is the byte order of the
    header and the payload.
    """
    dtype_codes = {np.dtype(np.uint8): 2, np.dtype(np.int16): 4,
                   np.dtype(np.float32): 16, np.dtype(np.uint16): 512}
    header = bytearray(348)
    struct.pack_into(endian + "i", header, 0, 348)
    dims = data.shape
    struct.pack_into(endian + "8h", header, 40, 3, dims[0], dims[1], dims[2], 1, 1, 1, 1)
    struct.pack_into(endian + "h", header, 70, dtype_codes[data.dtype])
    qfac = 1.0 if qform is None else qform[4]
    struct.pack_into(endian + "8f", header, 76, qfac, *spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into(endian + "f", header, 108, 352.0)
    struct.pack_into(endian + "2f", header, 112, scl_slope, 0.0)
    if qform is not None:
        struct.pack_into(endian + "2h", header, 252, 1, 0)
        struct.pack_into(endian + "3f", header, 256, *qform[:3])
        struct.pack_into(endian + "3f", header, 268, *qform[3])
    if srow is not None:
        struct.pack_into(endian + "2h", header, 252, 0, 1)
        struct.pack_into(endian + "4f", header, 280, *srow[0])
        struct.pack_into(endian + "4f", header, 296, *srow[1])
        struct.pack_into(endian + "4f", header, 312, *srow[2])
    struct.pack_into("4s", header, 344, b"n+1\x00")
    payload = data.astype(data.dtype.newbyteorder(endian)).tobytes(order="F")
    path.write_bytes(bytes(header) + b"\x00" * 4 + payload)


def test_nifti_identity_affine(tmp_path):
    data = np.arange(24, dtype=np.int16).reshape(2, 3, 4)
    p = tmp_path / "img.nii"
    _write_nifti(p, data, spacing=(1.0, 2.0, 3.0))
    vol = load_volume(p)
    assert vol.grid.dims == (2, 3, 4)
    assert vol.grid.spacing_mm == (1.0, 2.0, 3.0)
    np.testing.assert_array_equal(vol.data, data)


def test_nifti_axis_flip(tmp_path):
    data = np.arange(8, dtype=np.int16).reshape(2, 2, 2)
    srow = [(-1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)]
    p = tmp_path / "flip.nii"
    _write_nifti(p, data, srow=srow)
    vol = load_volume(p)
    np.testing.assert_array_equal(vol.data, data[::-1])


@pytest.mark.parametrize("srow", [
    None, [(-1.0, 0.0, 0.0, 95.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)]],
    ids=["identity", "x_flip"])
def test_nifti_load_holds_one_buffer(tmp_path, traced_peak, srow):
    data = np.random.default_rng(2).integers(-1500, 4000, size=(96, 80, 64)).astype(np.int16)
    p = tmp_path / "img.nii"
    _write_nifti(p, data, srow=srow)
    vol, peak = traced_peak(load_volume, p)
    expected = np.clip(data if srow is None else data[::-1], -1024, 3071)
    np.testing.assert_array_equal(vol.data, expected)
    # the int16 grid is 2 B per voxel; reading the whole file, converting its
    # byte order and clamping to a copy would hold 6
    assert peak <= 4 * data.size


@pytest.mark.parametrize("quatern, qfac, flips, origin", [
    # a half turn about z: data x and y run toward world -x and -y
    ((0.0, 0.0, 1.0), 1.0, (True, True, False), (9.0, 16.0, 30.0)),
    # the identity rotation with qfac -1: data z runs toward world -z
    ((0.0, 0.0, 0.0), -1.0, (False, False, True), (10.0, 20.0, 21.0)),
], ids=["half_turn_z", "qfac_minus_one"])
def test_nifti_qform(tmp_path, quatern, qfac, flips, origin):
    data = np.arange(24, dtype=np.int16).reshape(2, 3, 4)
    p = tmp_path / "qform.nii"
    _write_nifti(p, data, spacing=(1.0, 2.0, 3.0),
                 qform=(*quatern, (10.0, 20.0, 30.0), qfac))
    vol = load_volume(p)
    assert vol.grid.spacing_mm == (1.0, 2.0, 3.0)
    assert vol.grid.origin_mm == origin
    flipped = data[tuple(slice(None, None, -1 if f else 1) for f in flips)]
    np.testing.assert_array_equal(vol.data, flipped)


def test_nifti_big_endian(tmp_path):
    data = np.arange(24, dtype=np.int16).reshape(2, 3, 4) * 100 - 1000  # in HU range
    p = tmp_path / "big.nii"
    _write_nifti(p, data, spacing=(1.0, 2.0, 3.0), endian=">")
    vol = load_volume(p)
    assert vol.grid.dims == (2, 3, 4)
    assert vol.grid.spacing_mm == (1.0, 2.0, 3.0)
    assert vol.data.dtype == np.int16 and vol.data.dtype.isnative
    np.testing.assert_array_equal(vol.data, data)


def test_nifti_oblique_rejected(tmp_path):
    data = np.zeros((2, 2, 2), dtype=np.int16)
    srow = [(0.9, 0.1, 0.0, 0.0), (-0.1, 0.9, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)]
    p = tmp_path / "oblique.nii"
    _write_nifti(p, data, srow=srow)
    with pytest.raises(ValueError, match="oblique NIfTI orientation is unsupported"):
        load_volume(p)


def test_nifti_scaling_rejected(tmp_path):
    data = np.zeros((2, 2, 2), dtype=np.int16)
    p = tmp_path / "scaled.nii"
    _write_nifti(p, data, scl_slope=2.0)
    with pytest.raises(ValueError, match="scaling"):
        load_volume(p)


def test_nifti_labelmap(tmp_path):
    data = np.zeros((3, 3, 3), dtype=np.uint8)
    data[1, 1, 1] = 7
    p = tmp_path / "seg.nii"
    _write_nifti(p, data)
    lm = load_labelmap(p, "structure")
    assert lm.kind == "structure"
    assert 7 in lm.class_table
    assert lm.data[1, 1, 1] == 7


def test_nifti_labelmap_holds_one_buffer(tmp_path, traced_peak):
    data = np.random.default_rng(3).integers(0, 6, size=(96, 80, 64)).astype(np.uint8)
    p = tmp_path / "seg.nii"
    _write_nifti(p, data)
    lm, peak = traced_peak(load_labelmap, p, "tissue")
    np.testing.assert_array_equal(lm.data, data)
    assert lm.class_table == {v: f"class_{v}" for v in range(1, 6)}
    # the uint8 grid is 1 B per voxel; a whole-grid unique sorts a copy of it
    assert peak <= 1.5 * data.size


def test_nifti_truncated_payload(tmp_path):
    data = np.zeros((4, 4, 4), dtype=np.int16)
    p = tmp_path / "trunc.nii"
    _write_nifti(p, data)
    blob = p.read_bytes()
    p.write_bytes(blob[:-10])
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: NIfTI payload truncated$"):
        load_volume(p)
