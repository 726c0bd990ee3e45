"""The data-file reader and writers and the record codec of vctkit.codec."""

import re
from dataclasses import dataclass

import pytest

from vctkit.codec import (decode, encode, read_json, read_record, write_csv, write_json,
                          write_records)
from vctkit.trial import TrialRow


@dataclass
class _Point:
    name: str
    at: tuple[float, float]
    weight: float | None = None


@dataclass
class _Route:
    points: list[_Point]


@dataclass
class _Legend:
    names: dict[int, str]


def test_write_csv_writes_none_and_nan_empty_and_floats_as_repr(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["a", "b", "c", "d", "e"],
                     [[None, float("nan"), 0.1, 7, "x y"],
                      [1 / 3, 1e-20, -0.0, 0, ""]])
    assert path == tmp_path / "t.csv"
    assert path.read_bytes() == (b"a,b,c,d,e\r\n"
                                 b",,0.1,7,x y\r\n"
                                 + f"{1 / 3!r},1e-20,-0.0,0,\r\n".encode())


@dataclass
class _WiderRow(TrialRow):
    x: float
    y: tuple[float, float] | None


def test_a_new_record_field_adds_its_csv_columns_in_field_order(tmp_path):
    row = dict(population="ID", attr_dist="ID", sample_type="real", n=3, mae=1.5,
               mae_ci=(1.0, 2.0), z_vs_real=0.0, z_ci=None, p_value=1.0, verdict="acceptable")
    path = write_records(tmp_path / "t.csv", _WiderRow, [_WiderRow(**row, x=0.25, y=(0.5, 0.75)),
                                                         _WiderRow(**row, x=7.0, y=None)])
    header = ("population,attr_dist,sample_type,n,mae,mae_ci_low,mae_ci_high,"
              "z_vs_real,z_ci_low,z_ci_high,p_value,verdict,x,y_low,y_high")
    # a pair is split into _low and _high, a None pair into two empty cells
    assert path.read_text().splitlines() == [
        header,
        "ID,ID,real,3,1.5,1.0,2.0,0.0,,,1.0,acceptable,0.25,0.5,0.75",
        "ID,ID,real,3,1.5,1.0,2.0,0.0,,,1.0,acceptable,7.0,,"]
    # the header comes from the field annotations, not from the records
    assert write_records(tmp_path / "e.csv", _WiderRow, []).read_text().splitlines() == [header]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_write_json_refuses_nan_and_infinity(tmp_path, bad):
    # a strict JSON parser rejects NaN and Infinity; a missing value is None
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(tmp_path / "t.json", {"a": {"b": [1.0, bad]}})
    assert not (tmp_path / "t.json").exists()


def test_write_json_sorts_keys_with_two_space_indent_and_final_newline(tmp_path):
    path = write_json(tmp_path / "t.json", {"b": [1, 2], "a": {"d": None, "c": 0.5}})
    assert path.read_text() == ('{\n  "a": {\n    "c": 0.5,\n    "d": null\n  },\n'
                                '  "b": [\n    1,\n    2\n  ]\n}\n')
    assert read_json(path) == {"a": {"c": 0.5, "d": None}, "b": [1, 2]}


_NOT_AN_OBJECT = [
    (b"[1, 2]", "must hold a JSON object, got list"),
    (b'"subjects"', "must hold a JSON object, got str"),
    (b"{not json", "malformed JSON: Expecting property name"),
    (b"\xff{}", "malformed JSON: 'utf-8' codec can't decode byte 0xff"),
]


@pytest.mark.parametrize("content, message", _NOT_AN_OBJECT)
def test_read_json_rejects_anything_but_an_object(tmp_path, content, message):
    path = tmp_path / "t.json"
    path.write_bytes(content)
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        read_json(path)


@pytest.mark.parametrize("content, message", _NOT_AN_OBJECT + [
    (b'{"points": [{"name": "a"}]}', "points[0] is missing keys: ['at']")])
def test_read_record_names_the_file_once(tmp_path, content, message):
    path = tmp_path / "t.json"
    path.write_bytes(content)
    with pytest.raises(ValueError) as info:
        read_record(_Route, path)
    assert str(info.value).startswith(f"{path}: {message}")
    assert str(info.value).count(str(path)) == 1


def test_list_of_records_round_trips_through_json(tmp_path):
    route = _Route([_Point("a", (0.0, 1.5)), _Point("b", (2.0, -1.0), 0.25)])
    payload = encode(route)
    assert payload == {"points": [{"name": "a", "at": [0.0, 1.5], "weight": None},
                                  {"name": "b", "at": [2.0, -1.0], "weight": 0.25}]}
    assert read_record(_Route, write_json(tmp_path / "p.json", payload)) == route
    assert decode(_Route, {"points": []}) == _Route([])


@pytest.mark.parametrize("payload, message", [
    ({"points": {"name": "a"}}, "points must be a list, got dict"),
    ({"points": [{"name": "a", "at": [0, 1]}, {"name": "b", "at": [0]}]},
     "points[1].at must be a list of 2 numbers, got [0]"),
    ({"points": [{"name": "a", "at": [0, 1], "size": 3}]}, "unknown points[0] keys: ['size']"),
    ({"points": [{"name": "a"}]}, "points[0] is missing keys: ['at']"),
    ({"points": ["a"]}, "points[0] must be a JSON object, got 'a'"),
])
def test_decode_names_list_elements_by_index(payload, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        decode(_Route, payload)


@pytest.mark.parametrize("value, shown", [
    (float("inf"), "inf"), (float("-inf"), "-inf"), (float("nan"), "nan"),
    pytest.param(-10 ** 400, str(-10 ** 400), id="int-beyond-float-range")])
def test_decode_rejects_non_finite_floats_naming_the_key(value, shown):
    payloads = ({"points": [{"name": "a", "at": [0, 1]}, {"name": "b", "at": [0, 1],
                                                          "weight": value}]},
                {"points": [{"name": "a", "at": [value, 1]}]})
    for payload, key in zip(payloads, ("points[1].weight", "points[0].at")):
        with pytest.raises(ValueError,
                           match=re.escape(f"{key} must be a finite number, got {shown}")):
            decode(_Route, payload)


def test_int_keyed_dict_round_trips_through_json(tmp_path):
    legend = _Legend({2: "fat", -1: "air", 10: "bone"})
    payload = read_json(write_json(tmp_path / "l.json", encode(legend)))
    assert payload == {"names": {"-1": "air", "10": "bone", "2": "fat"}}
    assert decode(_Legend, payload) == legend


@pytest.mark.parametrize("key", ["x", "2.0", " 2", "+2", "", "0x1"])
def test_int_dict_key_must_be_a_decimal_string(key):
    with pytest.raises(ValueError, match=re.escape(
            f"names keys must be decimal integers, got {key!r}")):
        decode(_Legend, {"names": {"2": "fat", key: "air"}})
