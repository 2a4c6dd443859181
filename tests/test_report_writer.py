"""The streamed JSON writer against its reference, json.dumps(indent=2).

``cli._write_json`` must write the bytes ``json.dumps(value, indent=2)``
returns, for every report the CLI prints and for any value of the types a
report holds, in one batch or in many.
"""

import json
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pflab import cli
from pflab.cli import main
from test_golden import CASES


def write_json(value) -> str:
    parts = []
    cli._write_json(value, parts.append)
    return "".join(parts)


def reports(monkeypatch, argv) -> list:
    """The reports main hands to _emit for one command line."""
    seen = []
    monkeypatch.setattr(cli, "_emit", lambda report, fmt: seen.append(report))
    main(list(argv))
    return seen


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_reports(monkeypatch, name):
    argv, _ = CASES[name]
    [report] = reports(monkeypatch, argv)
    assert write_json(report) == json.dumps(report, indent=2)


def test_timed_report(monkeypatch):
    # the one float a report holds
    [report] = reports(monkeypatch, ["quadratic-family", "--n", "3", "--verify", "--timing"])
    assert type(report["timing"]["seconds"]) is float
    assert write_json(report) == json.dumps(report, indent=2)


def test_error_report_with_non_ascii_input(monkeypatch, tmp_path):
    path = tmp_path / "forms.json"
    path.write_text(json.dumps({"n": 2, "forms": ["é\t", ["a1"]]}), encoding="utf-8")
    [report] = reports(monkeypatch, ["common-factor", "--m", "1", "--forms", str(path)])
    assert report["verdict"] == "ERROR"
    assert "é" in report["evidence"]["error"]
    assert write_json(report) == json.dumps(report, indent=2)


def test_control_and_non_ascii_strings():
    value = {"é\t\x00": [" \"\\\x7f\U0001f600", "", {"": None}]}
    assert write_json(value) == json.dumps(value, indent=2)


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats()
    | st.text()
)
JSON_VALUES = st.recursive(
    SCALARS | st.lists(st.integers() | st.booleans()),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=40,
)


@given(JSON_VALUES)
def test_matches_json_dumps(value):
    expected = json.dumps(value, indent=2)
    assert write_json(value) == expected
    # a batch of three chunks writes nearly every node on its own
    with mock.patch.object(cli, "_BATCH", 3):
        assert write_json(value) == expected


@pytest.mark.parametrize(
    "value",
    [(1, 2), {1: 2}, [1, {"a": {3}}], [object()], {"a": b"x"}, [1, 2.5, (3,)]],
    ids=["tuple", "int-key", "set", "object", "bytes", "tuple-in-list"],
)
def test_unsupported_type(value):
    with pytest.raises(TypeError):
        write_json(value)


def test_batches():
    # each item is two chunks, its separator and itself: 80,001 chunks in
    # all, a full batch and the rest
    value = [str(i) for i in range(40_000)]
    parts = []
    cli._write_json(value, parts.append)
    assert len(parts) == 2
    assert "".join(parts) == json.dumps(value, indent=2)


def test_newline_written_alone(capsys, monkeypatch):
    # a cut-short write can return without an error, so the report's
    # newline is a write of its own, whose flush meets the closed pipe
    writes = []
    monkeypatch.setattr(cli.sys.stdout, "write", writes.append)
    cli._emit({"a": [1]}, "json")
    assert writes == ['{\n  "a": [\n    1\n  ]\n}', "\n"]
