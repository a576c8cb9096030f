"""Report writers: schema tagging, CSV shape, atomicity."""

import csv
import json
import os

import pytest

from dirlap.graph import GraphGenerator, ValidationReport, validate_generator
from dirlap.reports import report_schema_version, write_json_report, write_trajectory_csv

from helpers import read_json_report


def test_schema_version_constant():
    assert report_schema_version() == "v1"


def test_json_report_tagged_and_sorted(tmp_path):
    path = str(tmp_path / "r.json")
    write_json_report(path, {"b": 2, "a": 1})
    doc = json.loads(open(path).read())
    assert doc["schema"] == "v1"
    assert list(doc) == sorted(doc)
    assert read_json_report(path)["a"] == 1


def test_trajectory_csv_is_rfc4180(tmp_path):
    path = str(tmp_path / "traj.csv")
    write_trajectory_csv(path, {"linf": ([0.0, 1.0], [1.0, 0.5]),
                                "l1": ([0.0, 1.0], [1.0, 1.0])})
    raw = open(path, "rb").read()
    assert b"\r\n" in raw
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "norm_kind", "value"]
    assert len(rows) == 5
    kinds = {r[1] for r in rows[1:]}
    assert kinds == {"linf", "l1"}


def test_no_temp_files_left_behind(tmp_path):
    path = str(tmp_path / "x.json")
    write_json_report(path, {"k": 1})
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
    assert leftovers == []


def test_write_failure_cleans_temp(tmp_path):
    class Unserializable:
        pass

    with pytest.raises(TypeError):
        write_json_report(str(tmp_path / "y.json"), {"bad": Unserializable()})
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
    assert leftovers == []


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_float_is_not_written(tmp_path, value):
    # json.dumps would write NaN or Infinity, which are not JSON
    with pytest.raises(ValueError):
        write_json_report(str(tmp_path / "n.json"), {"result": {"exponent": value}})
    assert os.listdir(tmp_path) == []


def test_dataclass_type_is_not_serializable(tmp_path):
    with pytest.raises(TypeError):
        write_json_report(str(tmp_path / "z.json"), {"bad": ValidationReport})
    assert os.listdir(tmp_path) == []


def _defective_line(v):
    """Integer line with one defect of each kind the validator records here."""
    (n,) = v
    if n == -3:
        raise RuntimeError("no adjacency at -3")
    out = {(n - 1,): 1.0, (n + 1,): 1.0}
    inn = {(n - 1,): 1.0, (n + 1,): 1.0}
    if n == 0:
        out[(1,)], inn[(1,)] = -0.5, 2.0
    if n == 1:
        out[(0,)], inn[(0,)] = 2.0, -0.5
    if n == 2:
        out[v] = 0.5
    if n == 3:
        inn[(4,)] = 3.0
    if n == -1:
        out[(-2,)] = 0.0
    return out, inn


def test_validation_report_json_is_pinned(tmp_path):
    # the exact document, with each of the five defects reported once
    report = validate_generator(GraphGenerator(adjacency=_defective_line, root=(0,)), 3)
    path = str(tmp_path / "validate.json")
    write_json_report(path, {"result": report})

    def violation(kind, vertices, detail):
        return {"kind": kind, "vertices": vertices, "detail": detail}

    assert json.loads(open(path).read()) == {"schema": "v1", "result": {
        "ok": False,
        "vertices_checked": 7,
        "violations": [
            violation("zero-weight", [[-1], [-2]],
                      "zero weight reported; absent edges must be omitted"),
            violation("weight-consistency", [[-1], [-2]],
                      "out-edge weight 0.0 vs in-edge report 1.0"),
            violation("adjacency-error", [[-3]], "no adjacency at -3"),
            violation("self-loop", [[2]], "self-loop reported; edges join distinct vertices"),
            violation("weight-consistency", [[4], [3]],
                      "in-edge report 3.0 vs out-edge weight 1.0"),
        ],
        "notes": [
            "negative directed weight on ((0,), (1,)) with positive symmetric part",
            "negative directed weight on ((1,), (0,)) with positive symmetric part",
        ],
    }}
