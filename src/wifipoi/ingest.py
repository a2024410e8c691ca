"""Wire format, batch compression, and raw-observation persistence.

Scan logs travel as line-delimited JSON, one scan per line:

    {"t":<epoch>,"dev":<id>,"aps":[["mac",rssi],...]}

Field order is fixed and MACs are canonical, so encoding is
byte-reproducible and a partial upload fails at line granularity.
Decoding checks only a line's JSON shape; the scan goes through
validate_scan, as in build_log, and any fault is one MalformedLine.
Batches gzip-compress very well because MAC strings repeat in nearly
every line. The raw store keeps one row per (user, t, mac) observation
and silently skips duplicates, which makes re-ingestion a no-op;
load_log reads one user's scans back in a [lo, hi) time window.
store_raw lands any number of logs in one transaction, so a caller that
feeds it several uploads (the CLI's ingest call) keeps all or none of
them; since duplicates are skipped, a rejected call can simply be re-run.

The user never appears on the wire; it is carried out of band (the CLI
takes it from the file name) and supplied to decode_log explicitly.
"""

from __future__ import annotations

import gzip
import json
import sqlite3
import zlib
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, TypeVar

from .errors import CorruptStream, MalformedLine, PoiError, StorageFailure
from .model import ScanLog, ScanResult, validate_scan

UPLOAD_PERIOD = 21600  # seconds; one batch every 6 hours

_FIELDS = ("t", "dev", "aps")


def _encode_line(device: str, scan: ScanResult) -> str:
    record = {"t": scan.timestamp, "dev": device, "aps": [list(ap) for ap in scan.observations]}
    return json.dumps(record, separators=(",", ":"))


def encode_log(log: ScanLog) -> bytes:
    """Serialize a validated log; empty log encodes to an empty stream."""
    return "".join(_encode_line(log.device, s) + "\n" for s in log.entries).encode()


def _decode_line(line_no: int, line: str) -> tuple[str, ScanResult]:
    """Parse one wire line into its device and validated scan.

    Only the JSON shape is checked here; the readings go through
    validate_scan. Any fault raises MalformedLine naming the line, with
    the policy's reason for a bad reading.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedLine(line_no, f"invalid JSON ({exc.msg})") from exc
    if not isinstance(record, dict) or sorted(record) != sorted(_FIELDS):
        raise MalformedLine(line_no, f"expected exactly the fields {list(_FIELDS)}")
    dev, aps = record["dev"], record["aps"]
    if not isinstance(dev, str):
        raise MalformedLine(line_no, "dev must be a string")
    if not (isinstance(aps, list) and all(isinstance(ap, list) and len(ap) == 2 for ap in aps)):
        raise MalformedLine(line_no, "aps must be a list of [mac, rssi] pairs")
    try:  # validate_scan returns fresh (mac, rssi) tuples, so the pairs go in as lists
        return dev, validate_scan(ScanResult(record["t"], tuple(aps)))
    except PoiError as exc:
        raise MalformedLine(line_no, str(exc)) from exc


def decode_log(data: bytes, user: str = "") -> ScanLog:
    """Parse wire bytes back into a ScanLog for `user`.

    Blank lines are skipped; anything else malformed, bytes that are
    not UTF-8 included, raises MalformedLine with its line number. All
    lines must name the same device and timestamps must be unique.
    Inverse of encode_log on validated logs.
    """
    device = ""
    by_time: dict[int, ScanResult] = {}
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedLine(data.count(b"\n", 0, exc.start) + 1, "not UTF-8") from exc
    for line_no, line in enumerate(text.split("\n"), 1):
        if not line.strip():
            continue
        dev, scan = _decode_line(line_no, line)
        if device and dev != device:
            raise MalformedLine(line_no, f"device {dev!r} conflicts with {device!r}")
        device = dev
        if scan.timestamp in by_time:
            raise MalformedLine(line_no, f"duplicate timestamp {scan.timestamp}")
        by_time[scan.timestamp] = scan
    entries = tuple(by_time[t] for t in sorted(by_time))
    return ScanLog(user=user, device=device, entries=entries)


def compress_batch(data: bytes) -> bytes:
    """Standard gzip member; fixed mtime so output is byte-stable."""
    return gzip.compress(data, compresslevel=9, mtime=0)


def decompress_batch(data: bytes) -> bytes:
    # gzip.decompress treats zero members as empty output; a valid
    # member is never shorter than its 10-byte header + 8-byte trailer
    if not data:
        raise CorruptStream("empty stream is not a gzip member")
    try:
        return gzip.decompress(data)
    except (gzip.BadGzipFile, EOFError, zlib.error, OSError) as exc:
        raise CorruptStream(f"not a valid gzip stream: {exc}") from exc


@dataclass(frozen=True)
class RawBatch:
    """One upload unit: scans of a single device within one period slot."""

    device: str
    scans: tuple[ScanResult, ...]
    span: tuple[int, int]


def plan_uploads(log: ScanLog, period: int = UPLOAD_PERIOD) -> list[RawBatch]:
    """Partition a log into consecutive period-aligned upload batches.

    Batches cover [k*period, (k+1)*period) slots and are emitted only
    for slots that contain scans, mirroring an app that holds data
    until the next upload tick. Concatenating all batches reproduces
    the log exactly.
    """
    if period <= 0:
        raise ValueError(f"upload period must be positive, got {period}")
    buckets: dict[int, list[ScanResult]] = {}
    for scan in log.entries:
        buckets.setdefault(scan.timestamp // period, []).append(scan)
    return [
        RawBatch(
            device=log.device,
            scans=tuple(buckets[k]),
            span=(k * period, (k + 1) * period),
        )
        for k in sorted(buckets)
    ]


@dataclass(frozen=True)
class IngestReport:
    added: int
    skipped: int


_Store = TypeVar("_Store", bound="SqliteStore")


class SqliteStore:
    """A SQLite file that holds the subclass's SCHEMA script.

    A file that cannot be opened or is not a database raises
    StorageFailure, and the connection is closed. `conn` is public for
    fault injection.
    """

    SCHEMA: str

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        conn = None
        try:
            conn = sqlite3.connect(self.path)
            conn.executescript(self.SCHEMA)
        except sqlite3.Error as exc:
            if conn is not None:
                conn.close()
            raise StorageFailure(f"cannot open store {self.path}: {exc}") from exc
        self.conn = conn

    def close(self) -> None:
        self.conn.close()

    def __enter__(self: _Store) -> _Store:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class RawStore(SqliteStore):
    """Append-only observation rows keyed by (user, t, mac).

    Shares a SQLite file happily with the summary store; the table
    namespaces are disjoint.
    """

    SCHEMA = (
        "CREATE TABLE IF NOT EXISTS raw_observations ("
        " user TEXT NOT NULL, t INTEGER NOT NULL,"
        " mac TEXT NOT NULL, rssi INTEGER NOT NULL,"
        " PRIMARY KEY (user, t, mac))"
    )

    def users(self) -> list[str]:
        rows = self.conn.execute("SELECT DISTINCT user FROM raw_observations ORDER BY user")
        return [user for (user,) in rows]

    def has_user(self, user: str) -> bool:
        """True when any row belongs to `user`; a primary-key prefix lookup."""
        row = self.conn.execute(
            "SELECT 1 FROM raw_observations WHERE user = ? LIMIT 1", (user,)
        ).fetchone()
        return row is not None

    def load_log(self, user: str, lo: int, hi: int) -> ScanLog:
        """Rebuild the user's scans with lo <= t < hi."""
        cur = self.conn.execute(
            "SELECT t, mac, rssi FROM raw_observations"
            " WHERE user = ? AND t >= ? AND t < ? ORDER BY t, mac",
            (user, lo, hi),
        )
        rows = groupby(cur, key=itemgetter(0))
        entries = tuple(ScanResult(t, tuple(row[1:] for row in group)) for t, group in rows)
        return ScanLog(user=user, device="", entries=entries)


def _rows(log: ScanLog) -> Iterator[tuple[str, int, str, int]]:
    for scan in log.entries:
        for mac, rssi in scan.observations:
            yield log.user, scan.timestamp, mac, rssi


def store_raw(store: RawStore, logs: Iterable[ScanLog]) -> list[IngestReport]:
    """Append each log's observations; one report per log, in order.

    Duplicate rows are skipped and counted. All logs land in one
    transaction: if any log fails to store, or `logs` itself raises
    (say, an upload that does not decode), nothing is kept.
    """
    reports = []
    user = None
    try:
        with store.conn:
            for log in logs:
                user = log.user
                cur = store.conn.executemany(
                    "INSERT OR IGNORE INTO raw_observations (user, t, mac, rssi)"
                    " VALUES (?, ?, ?, ?)",
                    _rows(log),
                )
                total = sum(len(scan.observations) for scan in log.entries)
                reports.append(IngestReport(added=cur.rowcount, skipped=total - cur.rowcount))
    except sqlite3.Error as exc:
        raise StorageFailure(f"raw ingest for user {user!r} failed: {exc}") from exc
    return reports
