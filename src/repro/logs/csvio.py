"""CERT-style CSV round-tripping for log stores.

The CERT Insider Threat Test Dataset ships one CSV per log type
(``device.csv``, ``file.csv``, ``http.csv``, ...).  This module writes a
:class:`~repro.logs.store.LogStore` into the same one-file-per-type
layout and reads it back, so synthetic datasets can be persisted and
re-used across benchmark runs.
"""

from __future__ import annotations

import csv
from dataclasses import fields
from datetime import datetime
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.logs.schema import EVENT_TYPES, Event, event_to_row
from repro.logs.store import LogStore

_BOOL_FIELDS = {"resolved", "is_privileged", "is_service_account"}
_INT_FIELDS = {
    "n_recipients",
    "size_bytes",
    "n_attachments",
    "event_id",
    "bytes_out",
    "bytes_in",
}


class LogParseError(ValueError):
    """A CSV row that does not convert to an event.

    ``path`` and ``line`` (1-based, the header is line 1) locate the row;
    ``field`` names the first column whose value does not convert, or is
    None when every value converts but the event itself is invalid (for
    example an unknown activity).
    """

    def __init__(self, path: Union[str, Path], line: int, field: Optional[str],
                 reason: str = ""):
        self.path = Path(path)
        self.line = line
        self.field = field
        where = f"field {field!r}" if field is not None else "row"
        super().__init__(f"{self.path}, line {line}, {where}: {reason}")


def write_store(store: LogStore, directory: Union[str, Path]) -> Dict[str, Path]:
    """Write one ``<type>.csv`` per event type present in ``store``.

    Returns:
        Mapping of type name to the CSV path written.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows_by_type: Dict[str, List[dict]] = {}
    for event in store.iter_events():
        row = event_to_row(event)
        rows_by_type.setdefault(row.pop("type"), []).append(row)

    paths: Dict[str, Path] = {}
    for type_name, rows in rows_by_type.items():
        rows.sort(key=lambda r: r["timestamp"])
        path = directory / f"{type_name}.csv"
        fieldnames = [f.name for f in fields(EVENT_TYPES[type_name])]
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            for row in rows:
                writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
        paths[type_name] = path
    return paths


def read_store(directory: Union[str, Path]) -> LogStore:
    """Read every ``<type>.csv`` in ``directory`` back into a LogStore.

    Raises:
        LogParseError: a row does not convert to an event.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"no such log directory: {directory}")
    store = LogStore()
    for type_name, cls in EVENT_TYPES.items():
        path = directory / f"{type_name}.csv"
        if not path.exists():
            continue
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            try:
                for raw in reader:
                    store.append(_row_to_event(cls, raw))
            except (ValueError, TypeError, csv.Error) as exc:
                field = getattr(exc, "field", None)
                raise LogParseError(path, reader.line_num, field, str(exc)) from exc
    store.sort()
    return store


def _row_to_event(cls, raw: dict) -> Event:
    """Convert a CSV row back to a typed event.

    A value that does not convert re-raises its ``ValueError`` or
    ``TypeError`` with the column name set as ``exc.field``.
    """
    kwargs = {}
    try:
        for f in fields(cls):
            value = raw.get(f.name, "")
            if f.name == "timestamp":
                kwargs[f.name] = datetime.fromisoformat(value)
            elif value == "":
                kwargs[f.name] = None
            elif f.name in _BOOL_FIELDS:
                kwargs[f.name] = value in ("True", "true", "1")
            elif f.name in _INT_FIELDS:
                kwargs[f.name] = int(value)
            else:
                kwargs[f.name] = value
    except (ValueError, TypeError) as exc:
        exc.field = f.name
        raise
    return cls(**kwargs)
