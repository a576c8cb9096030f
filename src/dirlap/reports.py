"""Report serialization: versioned JSON and RFC-4180 CSV, written atomically.

Result objects are written field by field: a dataclass becomes the object of
its fields, except those declared with ``field(metadata={"report": False})``,
and tuples become lists.  No result type carries its own serializer.
Reports never embed timestamps or machine identifiers, so a given resolved
experiment spec produces byte-identical files on every run.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import tempfile
from typing import Iterable, Sequence

SCHEMA_VERSION = "v1"


def report_schema_version() -> str:
    """Schema tag embedded in every JSON report."""
    return SCHEMA_VERSION


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fields(obj) -> dict:
    """The reported fields of a dataclass instance; ``TypeError`` for anything else."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
                if f.metadata.get("report", True)}
    raise TypeError(f"object of type {type(obj).__name__} is not JSON serializable")


def write_json_report(path: str, payload: dict) -> None:
    """Write a schema-tagged JSON report (sorted keys, stable float repr).

    ``payload`` may hold result dataclasses at any depth; see ``_fields``.
    A NaN or infinite float, which JSON cannot hold, raises ``ValueError``
    before anything is written.
    """
    doc = {"schema": SCHEMA_VERSION}
    doc.update(payload)
    _atomic_write(path, json.dumps(doc, sort_keys=True, indent=2, default=_fields,
                                   allow_nan=False) + "\n")


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    _atomic_write(path, buf.getvalue())


def write_trajectory_csv(path: str, series: dict[str, tuple[list, list]]) -> None:
    """Plot-ready norm trajectories: columns (t, norm_kind, value)."""
    rows = []
    for kind, (times, values) in sorted(series.items()):
        for t, v in zip(times, values):
            rows.append((repr(float(t)), kind, repr(float(v))))
    write_csv(path, ("t", "norm_kind", "value"), rows)

