"""Log-event schemas, storage and CERT-style CSV I/O."""

from repro.logs.csvio import LogParseError
from repro.logs.schema import (
    DeviceEvent,
    DnsEvent,
    EmailEvent,
    Event,
    FileEvent,
    HttpEvent,
    LogonEvent,
    ProxyEvent,
    SysmonEvent,
    UserRecord,
    WindowsEvent,
)
from repro.logs.store import LogStore

__all__ = [
    "DeviceEvent",
    "DnsEvent",
    "EmailEvent",
    "Event",
    "FileEvent",
    "HttpEvent",
    "LogParseError",
    "LogStore",
    "LogonEvent",
    "ProxyEvent",
    "SysmonEvent",
    "UserRecord",
    "WindowsEvent",
]
