"""The data-file reader and writers of vctkit.codec."""

import re

import pytest

from vctkit.codec import read_json, write_csv, write_json


def test_write_csv_writes_none_and_nan_empty_and_floats_as_repr(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["a", "b", "c", "d", "e"],
                     [[None, float("nan"), 0.1, 7, "x y"],
                      [1 / 3, 1e-20, -0.0, 0, ""]])
    assert path == tmp_path / "t.csv"
    assert path.read_bytes() == (b"a,b,c,d,e\r\n"
                                 b",,0.1,7,x y\r\n"
                                 + f"{1 / 3!r},1e-20,-0.0,0,\r\n".encode())


def test_write_json_sorts_keys_with_two_space_indent_and_final_newline(tmp_path):
    path = write_json(tmp_path / "t.json", {"b": [1, 2], "a": {"d": None, "c": 0.5}})
    assert path.read_text() == ('{\n  "a": {\n    "c": 0.5,\n    "d": null\n  },\n'
                                '  "b": [\n    1,\n    2\n  ]\n}\n')
    assert read_json(path) == {"a": {"c": 0.5, "d": None}, "b": [1, 2]}


@pytest.mark.parametrize("content, message", [
    (b"[1, 2]", "{path} must hold a JSON object, got list"),
    (b'"subjects"', "{path} must hold a JSON object, got str"),
    (b"{not json", "malformed JSON in {path}: Expecting property name"),
    (b"\xff{}", "malformed JSON in {path}: 'utf-8' codec can't decode byte 0xff"),
])
def test_read_json_rejects_anything_but_an_object_naming_the_file(tmp_path, content, message):
    path = tmp_path / "t.json"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=re.escape(message.format(path=path))):
        read_json(path)
