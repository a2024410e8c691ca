"""Wire format, batch compression, and raw-observation persistence.

Scan logs travel as line-delimited JSON, one scan per line:

    {"t":<epoch>,"dev":<id>,"aps":[["mac",rssi],...]}

Field order is fixed and MACs are canonical, so encoding is
byte-reproducible and a partial upload fails at line granularity.
Decoding checks only a line's JSON shape; the scan goes through
validate_scan, as in build_log, and any fault is one MalformedLine.
Batches gzip-compress very well because MAC strings repeat in nearly
every line. The raw store keeps one row per (user, t) scan, its MACs as
ids into a dictionary of MACs and its readings packed beside them. A
scan whose (user, t) is stored already is skipped when its readings are
identical, which makes re-ingestion a no-op, and refused when they
differ; load_day reads one user's scans in a [lo, hi) window as a ScanDay.
store_raw lands any number of logs in one transaction, so a caller that
feeds it several uploads (the CLI's ingest call) keeps all or none of
them; since identical scans are skipped, a rejected call can simply be
re-run once the bad upload is taken out.

The user never appears on the wire; it is carried out of band (the CLI
takes it from the file name) and supplied to decode_log explicitly.
"""

from __future__ import annotations

import gzip
import json
import sqlite3
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, TypeVar

import numpy as np

from .errors import CorruptStream, DuplicateTimestamp, MalformedLine, PoiError, StorageFailure
from .model import ScanDay, ScanLog, ScanResult, validate_scan

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

    A file that cannot be opened, is not a database or has a layout
    the subclass refuses raises StorageFailure, and the connection is
    closed. `conn` is public for fault injection.
    """

    SCHEMA: str

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        conn = None
        try:
            conn = sqlite3.connect(self.path)
            self._prepare(conn)
        except (sqlite3.Error, StorageFailure) as exc:
            if conn is not None:
                conn.close()
            raise StorageFailure(f"cannot open store {self.path}: {exc}") from exc
        self.conn = conn

    def _prepare(self, conn: sqlite3.Connection) -> None:
        conn.executescript(self.SCHEMA)

    def close(self) -> None:
        self.conn.close()

    def __enter__(self: _Store) -> _Store:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class RawStore(SqliteStore):
    """One row per scan, keyed by (user, t), plus a dictionary of MACs.

    A raw_scans row packs the scan's MAC ids (little-endian uint32) and
    RSS readings (int8) in validate_scan's sorted-by-MAC order, so
    load_day reads the blobs straight into a day matrix; `mac` holds
    each canonical MAC once. The layout is user_version 1. A file that
    still holds the per-reading raw_observations table of the earlier
    layout is refused and left untouched. Shares a SQLite file happily with the summary
    store; the table namespaces are disjoint.
    """

    SCHEMA = """
    BEGIN IMMEDIATE;
    CREATE TABLE IF NOT EXISTS mac (id INTEGER PRIMARY KEY, mac TEXT NOT NULL UNIQUE);
    CREATE TABLE IF NOT EXISTS raw_scans (
        user TEXT    NOT NULL,
        t    INTEGER NOT NULL,
        macs BLOB    NOT NULL,
        rssi BLOB    NOT NULL,
        PRIMARY KEY (user, t)
    ) WITHOUT ROWID;
    PRAGMA user_version = 1;
    COMMIT;
    """

    def _prepare(self, conn: sqlite3.Connection) -> None:
        # only a new file runs SCHEMA: setting user_version is a write
        tables = {name for (name,) in conn.execute("SELECT name FROM sqlite_master")}
        if "raw_observations" in tables:
            raise StorageFailure(
                "it holds the old one-row-per-reading raw_observations layout;"
                " re-ingest its uploads into a new store"
            )
        if "raw_scans" not in tables:
            super()._prepare(conn)

    def users(self) -> list[str]:
        rows = self.conn.execute("SELECT DISTINCT user FROM raw_scans ORDER BY user")
        return [user for (user,) in rows]

    def has_user(self, user: str) -> bool:
        """True when any scan belongs to `user`; a primary-key prefix lookup."""
        row = self.conn.execute(
            "SELECT 1 FROM raw_scans WHERE user = ? LIMIT 1", (user,)
        ).fetchone()
        return row is not None

    def load_day(self, user: str, lo: int, hi: int) -> ScanDay:
        """The user's scans with lo <= t < hi, as a ScanDay in MAC-id column order.

        Only the MACs those scans name are read from the dictionary;
        reading all of it costs about a microsecond a MAC on every call.
        """
        rows = self.conn.execute(
            "SELECT t, macs, rssi FROM raw_scans WHERE user = ? AND t >= ? AND t < ? ORDER BY t",
            (user, lo, hi),
        ).fetchall()
        ids = np.frombuffer(b"".join(macs for _, macs, _ in rows), "<u4")
        rssi = np.frombuffer(b"".join(rssi for *_, rssi in rows), np.int8)
        used, cols = np.unique(ids, return_inverse=True)
        names = dict(self.conn.execute(
            "SELECT id, mac FROM mac WHERE id IN (SELECT value FROM json_each(?))",
            (json.dumps(used.tolist()),),
        ))
        x = np.zeros((len(rows), len(used)))
        x[np.repeat(np.arange(len(rows)), [len(r) for *_, r in rows]), cols] = rssi
        times = np.array([t for t, _, _ in rows], dtype=np.int64)
        return ScanDay(user, times, tuple(map(names.__getitem__, used.tolist())), x)


def _pack(scan: ScanResult, mac_ids: Mapping[str, int]) -> tuple[bytes, bytes]:
    """A scan's (MAC ids, RSS) blobs, in its sorted-by-MAC order."""
    n = len(scan.observations)
    macs, rssi = zip(*scan.observations)
    return struct.pack(f"<{n}I", *map(mac_ids.__getitem__, macs)), struct.pack(f"{n}b", *rssi)


def _store_log(conn: sqlite3.Connection, log: ScanLog, mac_ids: dict[str, int]) -> IngestReport:
    if not log.entries:
        return IngestReport(added=0, skipped=0)
    for mac in sorted({mac for scan in log.entries for mac, _ in scan.observations} - mac_ids.keys()):
        mac_ids[mac] = conn.execute("INSERT INTO mac (mac) VALUES (?)", (mac,)).lastrowid
    stored = {
        t: (macs, rssi)
        for t, macs, rssi in conn.execute(
            "SELECT t, macs, rssi FROM raw_scans WHERE user = ? AND t BETWEEN ? AND ?",
            (log.user, log.entries[0].timestamp, log.entries[-1].timestamp),
        )
    }
    rows = []
    added = skipped = 0
    for scan in log.entries:
        blobs = _pack(scan, mac_ids)
        old = stored.get(scan.timestamp)
        if old is None:
            rows.append((log.user, scan.timestamp, *blobs))
            added += len(scan.observations)
        elif old == blobs:
            skipped += len(scan.observations)
        else:
            raise DuplicateTimestamp(
                f"user {log.user!r}: the scan at t={scan.timestamp} differs from the stored one"
            )
    conn.executemany("INSERT INTO raw_scans (user, t, macs, rssi) VALUES (?, ?, ?, ?)", rows)
    return IngestReport(added=added, skipped=skipped)


def store_raw(store: RawStore, logs: Iterable[ScanLog]) -> list[IngestReport]:
    """Store each log's scans; one report per log, in order, counting readings.

    A scan whose (user, t) is stored already is skipped, and its
    readings counted as skipped, when its readings are identical; with
    other readings it raises DuplicateTimestamp naming the user and t.
    All logs land in one transaction, opened with BEGIN IMMEDIATE so
    concurrent calls take turns: if any log conflicts or fails to
    store, or `logs` itself raises (say, an upload that does not
    decode), nothing is kept.
    """
    reports = []
    user = None
    try:
        with store.conn:
            store.conn.execute("BEGIN IMMEDIATE")
            mac_ids = dict(store.conn.execute("SELECT mac, id FROM mac"))
            for log in logs:
                user = log.user
                reports.append(_store_log(store.conn, log, mac_ids))
    except sqlite3.Error as exc:
        raise StorageFailure(f"raw ingest for user {user!r} failed: {exc}") from exc
    return reports
