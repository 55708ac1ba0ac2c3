"""CSV round-trip tests for the CERT-style on-disk layout."""

import csv
from datetime import datetime

import pytest

from repro.logs.csvio import LogParseError, read_store, write_store
from repro.logs.schema import (
    DeviceEvent,
    DnsEvent,
    FileEvent,
    HttpEvent,
    ProxyEvent,
    SysmonEvent,
)
from repro.logs.store import LogStore

TS = datetime(2010, 2, 1, 11, 22, 33)


def build_store():
    s = LogStore()
    s.extend(
        [
            DeviceEvent(TS, "u1", "connect", "PC-1"),
            FileEvent(TS, "u1", "copy", "F9", from_location="remote", to_location="local"),
            HttpEvent(TS, "u1", "upload", "x.com", filetype="zip"),
            HttpEvent(TS, "u2", "visit", "y.com"),
            ProxyEvent(TS, "u2", "z.com", "/a", "failure", bytes_out=10, bytes_in=0),
            SysmonEvent(TS, "u2", 13, image="a.exe", target="HKLM\\X"),
            DnsEvent(TS, "u2", "nx.example", resolved=False),
        ]
    )
    s.sort()
    return s


def test_write_creates_one_file_per_type(tmp_path):
    paths = write_store(build_store(), tmp_path)
    assert set(paths) == {"device", "file", "http", "proxy", "sysmon", "dns"}
    for path in paths.values():
        assert path.exists()


def test_round_trip_preserves_every_event(tmp_path):
    original = build_store()
    write_store(original, tmp_path)
    loaded = read_store(tmp_path)
    assert loaded.count() == original.count()
    assert loaded.users() == original.users()
    assert loaded.type_names() == original.type_names()


def test_round_trip_preserves_field_values(tmp_path):
    original = build_store()
    write_store(original, tmp_path)
    loaded = read_store(tmp_path)

    [http] = loaded.events("u1", "http")
    assert http.activity == "upload"
    assert http.filetype == "zip"
    assert http.timestamp == TS

    [f] = loaded.events("u1", "file")
    assert f.from_location == "remote" and f.to_location == "local"

    [dns] = loaded.events("u2", "dns")
    assert dns.resolved is False

    [proxy] = loaded.events("u2", "proxy")
    assert proxy.bytes_out == 10 and proxy.verdict == "failure"

    [sysmon] = loaded.events("u2", "sysmon")
    assert sysmon.event_id == 13


def test_none_fields_round_trip_as_none(tmp_path):
    original = build_store()
    write_store(original, tmp_path)
    loaded = read_store(tmp_path)
    [visit] = loaded.events("u2", "http")
    assert visit.filetype is None


def test_read_missing_directory_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_store(tmp_path / "nope")


def test_read_ignores_absent_types(tmp_path):
    s = LogStore()
    s.append(DeviceEvent(TS, "u", "connect", "PC"))
    write_store(s, tmp_path)
    loaded = read_store(tmp_path)
    assert loaded.type_names() == ["device"]


def _corrupt(path, line, column, value):
    """Overwrite one cell of a written CSV (``line`` counts the header as 1)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[line - 1][rows[0].index(column)] = value
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.mark.parametrize(
    "kind, column, value",
    [
        ("device", "timestamp", "2010-13-45 11:22:33"),  # month must be in 1..12
        ("proxy", "bytes_out", "ten"),  # not an integer count
    ],
)
def test_malformed_row_raises_located_error(tmp_path, kind, column, value):
    paths = write_store(build_store(), tmp_path)
    _corrupt(paths[kind], 2, column, value)
    with pytest.raises(LogParseError) as info:
        read_store(tmp_path)
    error = info.value
    assert isinstance(error, ValueError)
    assert (error.path, error.line, error.field) == (paths[kind], 2, column)
    assert f"{paths[kind]}, line 2, field {column!r}" in str(error)


def test_invalid_event_is_located_without_a_field(tmp_path):
    paths = write_store(build_store(), tmp_path)
    _corrupt(paths["device"], 2, "activity", "teleport")  # converts, but is not an activity
    with pytest.raises(LogParseError, match="unknown device activity") as info:
        read_store(tmp_path)
    assert (info.value.line, info.value.field) == (2, None)


def test_truncated_row_names_the_first_missing_count(tmp_path):
    paths = write_store(build_store(), tmp_path)
    with open(paths["proxy"], newline="") as fh:
        rows = list(csv.reader(fh))
    cut = rows[0].index("bytes_out")
    with open(paths["proxy"], "w", newline="") as fh:
        csv.writer(fh).writerows([rows[0], rows[1][:cut]])  # the line stops short
    with pytest.raises(LogParseError) as info:
        read_store(tmp_path)
    assert (info.value.line, info.value.field) == (2, "bytes_out")
