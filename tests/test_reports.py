"""Report writers: schema tagging, CSV shape, atomicity."""

import csv
import json
import os

import pytest

from dirlap.reports import (read_json_report, report_schema_version,
                            write_json_report, write_trajectory_csv)


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
