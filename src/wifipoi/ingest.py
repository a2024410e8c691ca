"""Wire format, batch compression, and raw-observation persistence.

Scan logs travel as line-delimited JSON, one scan per line:

    {"t":<epoch>,"dev":<id>,"aps":[["mac",rssi],...]}

Field order is fixed and MACs are canonical, so encoding is
byte-reproducible and a partial upload fails at line granularity.
decode_log is the reference decoder: it checks a line's JSON shape, the
scan goes through validate_scan, as in build_log, and any fault is one
MalformedLine. decode_upload, the server's decoder, reads an upload into
columns (times, MAC ids, int8 readings) with no object per reading and
checks the same policy over the whole upload at once; an upload it
refuses goes through decode_log, which names the line and the reason.
Batches gzip-compress very well because MAC strings repeat in nearly
every line. RawStore, the store file that the registry's SummaryStore
extends, keeps one row per (user, t) scan, its MACs as ids into a
dictionary of MACs and its readings packed beside them. A scan whose
(user, t) is stored already is skipped when its readings are identical,
which makes re-ingestion a no-op, and refused when they differ; load_day
reads one user's scans in a [lo, hi) window back into the same Scans
columns that decode_upload gives. store_raw lands any number of uploads
in one transaction, so a caller that feeds it several (the CLI's ingest
call) keeps all or none of them; since identical scans are skipped, a
rejected call can simply be re-run once the bad upload is taken out.
check_agree finds the refusals that lie among the uploads themselves
before any store is opened. upload_of turns an in-memory ScanLog into Scans by way of its wire
bytes.

The user never appears on the wire; it is carried out of band (the CLI
takes it from the file name) and supplied to the decoder explicitly.
"""

from __future__ import annotations

import gzip
import json
import sqlite3
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, TypeVar

import numpy as np

from .errors import CorruptStream, DuplicateTimestamp, MalformedLine, PoiError, StorageFailure
from .model import (
    RSSI_MAX, RSSI_MIN, T_MAX, T_MIN, ScanLog, ScanResult, Scans, parse_mac, validate_scan,
)

UPLOAD_PERIOD = 21600  # seconds; one batch every 6 hours

_FIELDS = ("t", "dev", "aps")
_KEYS = frozenset(_FIELDS)


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
    except (ValueError, RecursionError) as exc:  # also an int past the digit limit, deep nesting
        raise MalformedLine(line_no, f"invalid JSON ({getattr(exc, 'msg', exc)})") from exc
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
    not UTF-8 included, raises MalformedLine with its line number. An
    empty `dev` leaves a line unnamed; the other lines must all name one
    device, the log's ("" when no line names one). Timestamps must be
    unique. Inverse of encode_log on validated logs.
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
        if dev and device and dev != device:
            raise MalformedLine(line_no, f"device {dev!r} conflicts with {device!r}")
        device = dev or device
        if scan.timestamp in by_time:
            raise MalformedLine(line_no, f"duplicate timestamp {scan.timestamp}")
        by_time[scan.timestamp] = scan
    entries = tuple(by_time[t] for t in sorted(by_time))
    return ScanLog(user=user, device=device, entries=entries)


def _columns(text: str, user: str) -> Scans | None:
    """The upload as Scans, or None when decode_log would refuse it.

    Each line's fields go onto flat lists, each MAC spelling kept once
    and the readings packed as int8, so a line's own objects are freed
    as soon as it is read; the policy
    is then checked over the whole upload. The readings are put in
    time order, and by MAC within a scan, with one sort, which also
    brings a MAC seen twice in a scan next to itself.
    """
    times: list = []
    devices: list = []
    counts: list[int] = []
    spellings: list = []
    packed = bytearray()
    seen: dict = {}
    for line in text.split("\n"):
        if not line.strip():
            continue
        record = json.loads(line)
        if type(record) is not dict or record.keys() != _KEYS:
            return None
        aps = record["aps"]
        if type(aps) is not list:
            return None
        # raises unless aps holds entries of two items each; an entry that
        # is not a list (a two-character string, a two-key object) puts a
        # str among the RSS
        spelled, levels = zip(*aps, strict=True)
        times.append(record["t"])
        devices.append(record["dev"])
        counts.append(len(aps))
        spellings.extend(map(seen.setdefault, spelled, spelled))
        # struct.error unless each reading is an int (or a bool) in [-128, 127]
        packed += struct.pack(f"{len(levels)}b", *levels)
    # at most one named device; "" leaves a line unnamed
    if (not set(map(type, devices)) <= {str} or len(set(devices) - {""}) > 1
            or not set(map(type, times)) <= {int} or len(set(times)) != len(times)
            or not set(map(type, seen)) <= {str}):
        return None
    at = np.array(times, np.int64)  # an int past int64 raises OverflowError
    rssi = np.frombuffer(packed, np.int8)  # a bool went in as 1 or 0, out of range
    if ((at < T_MIN) | (at > T_MAX)).any() or ((rssi < RSSI_MIN) | (rssi > RSSI_MAX)).any():
        return None
    canonical = {spelling: parse_mac(spelling) for spelling in seen}
    macs = sorted(set(canonical.values()))
    index = {mac: i for i, mac in enumerate(macs)}
    column = {spelling: index[mac] for spelling, mac in canonical.items()}
    ids = np.fromiter(map(column.__getitem__, spellings), np.int64, len(spellings))
    by_time = np.argsort(at)
    rank = np.empty_like(by_time)
    rank[by_time] = np.arange(len(at))
    n = np.array(counts, np.int64)
    key = np.repeat(rank, n) * len(macs) + ids
    order = np.argsort(key, kind="stable")
    key = key[order]
    if np.any(key[1:] == key[:-1]):  # a MAC twice in one scan
        return None
    return Scans(user, at[by_time], n[by_time], tuple(macs), ids[order], rssi[order])


def decode_upload(data: bytes, user: str = "") -> Scans:
    """Parse wire bytes into Scans for `user`; decode_log's policy, in columns.

    Accepts exactly what decode_log accepts, with the same scans; the
    device is checked, then dropped, since the raw store keeps none. An
    upload the column check refuses goes through decode_log, which
    raises the MalformedLine that names the first bad line and its
    reason.
    """
    try:
        upload = _columns(data.decode("utf-8"), user)
    except (ValueError, TypeError, OverflowError, RecursionError, struct.error, PoiError):
        upload = None
    if upload is None:
        decode_log(data, user)
        raise RuntimeError("decode_upload refused an upload that decode_log accepts")
    return upload


def upload_of(log: ScanLog) -> Scans:
    """An in-memory log as the Scans its wire bytes decode to."""
    return decode_upload(encode_log(log), log.user)


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


_Store = TypeVar("_Store", bound="RawStore")


class RawStore:
    """The store file: SCHEMA, its whole layout at user_version 2, and raw reads.

    An open reads the table names once. A file that holds the earlier
    layout's raw_observations table, or tables but not mac and
    raw_scans, is refused and left untouched. Any other file is then
    set to PRAGMA journal_mode = TRUNCATE: a commit truncates the
    rollback journal to 0 bytes rather than creating and deleting it,
    so a 0-byte <store>-journal stays beside the store. SCHEMA runs
    only when a table is missing, so a reopen writes nothing. A version-1 store is
    upgraded in SCHEMA's transaction; one whose fingerprint text does
    not convert exactly is refused untouched (_version_1_readings). Each
    connection enforces foreign keys. A refused or unopenable file
    raises StorageFailure, its connection closed. `conn` is public for
    fault injection. A raw_scans row, keyed by (user, t), packs the
    scan's MAC ids (little-endian uint32) and RSS readings (int8) in
    sorted-by-MAC order, so load_day reads the blobs straight back into
    columns; `mac` holds each canonical MAC once, and a POI's
    poi_readings rows its fingerprint, one integer sum and count per
    MAC. Every read is consumed whole, so an open handle holds no lock.
    """

    SCHEMA = (
        "CREATE TABLE IF NOT EXISTS mac (id INTEGER PRIMARY KEY, mac TEXT NOT NULL UNIQUE)",
        """CREATE TABLE IF NOT EXISTS raw_scans (
            user TEXT    NOT NULL,
            t    INTEGER NOT NULL,
            macs BLOB    NOT NULL,
            rssi BLOB    NOT NULL,
            PRIMARY KEY (user, t)
        ) WITHOUT ROWID""",
        """CREATE TABLE IF NOT EXISTS poi_properties (
            user       TEXT    NOT NULL,
            poi_id     INTEGER NOT NULL,
            created_at INTEGER NOT NULL,
            PRIMARY KEY (user, poi_id)
        )""",
        """CREATE TABLE IF NOT EXISTS poi_readings (
            user   TEXT    NOT NULL,
            poi_id INTEGER NOT NULL,
            mac    TEXT    NOT NULL,
            sum    INTEGER NOT NULL,
            count  INTEGER NOT NULL,
            PRIMARY KEY (user, poi_id, mac),
            FOREIGN KEY (user, poi_id) REFERENCES poi_properties (user, poi_id)
        ) WITHOUT ROWID""",
        """CREATE TABLE IF NOT EXISTS poi_visits (
            user        TEXT    NOT NULL,
            poi_id      INTEGER NOT NULL,
            start_ts    INTEGER NOT NULL,
            end_ts      INTEGER NOT NULL,
            scans       INTEGER NOT NULL,
            sub_minimal INTEGER NOT NULL DEFAULT 0,
            PRIMARY KEY (user, poi_id, start_ts, end_ts),
            FOREIGN KEY (user, poi_id) REFERENCES poi_properties (user, poi_id)
        )""",
    )

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        conn = None
        try:
            conn = sqlite3.connect(self.path)
            tables = {name for (name,) in conn.execute("SELECT name FROM sqlite_master")}
            if "raw_observations" in tables:
                raise StorageFailure(
                    "it holds the old one-row-per-reading raw_observations layout;"
                    " re-ingest its uploads into a new store"
                )
            if tables and not tables >= {"mac", "raw_scans"}:
                raise StorageFailure("it is not a store: it holds tables, but not mac and raw_scans")
            conn.execute("PRAGMA journal_mode = TRUNCATE")
            if not tables >= {"mac", "raw_scans", "poi_properties", "poi_readings", "poi_visits"}:
                with conn:
                    conn.execute("BEGIN IMMEDIATE")
                    readings, old_columns = _version_1_readings(conn)
                    for statement in self.SCHEMA:
                        conn.execute(statement)
                    conn.executemany("INSERT INTO poi_readings VALUES (?, ?, ?, ?, ?)", readings)
                    for column in old_columns:  # DROP COLUMN needs SQLite 3.35 or later
                        conn.execute(f"ALTER TABLE poi_properties DROP COLUMN {column}")
                    conn.execute("PRAGMA user_version = 2")
            conn.execute("PRAGMA foreign_keys = ON")
        except (sqlite3.Error, StorageFailure) as exc:
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

    def users(self) -> list[str]:
        rows = self.conn.execute("SELECT DISTINCT user FROM raw_scans ORDER BY user")
        return [user for (user,) in rows]

    def has_user(self, user: str) -> bool:
        """True when any scan belongs to `user`; a primary-key prefix lookup."""
        row = self.conn.execute(
            "SELECT 1 FROM raw_scans WHERE user = ? LIMIT 1", (user,)
        ).fetchone()
        return row is not None

    def load_day(self, user: str, lo: int, hi: int) -> Scans:
        """The user's scans with lo <= t < hi, their MACs in store-id order.

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
        times = np.array([t for t, _, _ in rows], np.int64)
        counts = np.array([len(r) for *_, r in rows], np.int64)
        macs = tuple(map(names.__getitem__, used.tolist()))
        return Scans(user, times, counts, macs, cols, rssi)


def _version_1_readings(conn: sqlite3.Connection) -> tuple[list[tuple], list[str]]:
    """A version-1 registry's poi_readings rows, and the poi_properties columns it drops.

    Version 1 kept each fingerprint in poi_properties as `mac:mean:count`
    text, and some stores also hold an unused `label` column. Read under
    the open's lock, before its first write: a triple that does not
    parse, or whose mean times count lies more than 1e-6 from a whole
    number, raises StorageFailure. Each row's sum is that product,
    rounded. A file with no fingerprint column gives ([], []).
    """
    info = conn.execute("SELECT name FROM pragma_table_info('poi_properties')")
    columns = {name for (name,) in info}
    if "fingerprint" not in columns:
        return [], []
    rows = []
    for user, poi_id, text in conn.execute("SELECT user, poi_id, fingerprint FROM poi_properties"):
        for triple in str(text).split(";"):
            try:
                mac, mean, count = triple.rsplit(":", 2)
                n = int(count)
                product = float(mean) * n
                total = round(product) if n > 0 else None  # ValueError on nan, OverflowError on inf
            except (ValueError, OverflowError):
                total = None
            if total is None or abs(product - total) > 1e-6:
                raise StorageFailure(
                    f"its version-1 fingerprint of user {user!r}, POI {poi_id}, holds {triple!r},"
                    " not mac:mean:count of whole-dBm readings"
                )
            rows.append((user, poi_id, mac, total, n))
    return rows, sorted(columns & {"fingerprint", "label"})


def _store_upload(conn: sqlite3.Connection, upload: Scans, mac_ids: dict[str, int]) -> IngestReport:
    if not len(upload.times):
        return IngestReport(added=0, skipped=0)
    for mac in upload.macs:  # sorted, so new MACs get their ids in MAC order
        if mac not in mac_ids:
            mac_ids[mac] = conn.execute("INSERT INTO mac (mac) VALUES (?)", (mac,)).lastrowid
    times = upload.times.tolist()
    stored = {
        t: (macs, rssi)
        for t, macs, rssi in conn.execute(
            "SELECT t, macs, rssi FROM raw_scans WHERE user = ? AND t BETWEEN ? AND ?",
            (upload.user, times[0], times[-1]),
        )
    }
    macs = np.array([mac_ids[mac] for mac in upload.macs], "<u4")[upload.ids].tobytes()
    rssi = upload.rssi.tobytes()
    rows = []
    added = skipped = start = 0
    for t, end in zip(times, np.cumsum(upload.counts).tolist()):
        blobs = macs[4 * start:4 * end], rssi[start:end]
        old = stored.get(t)
        if old is None:
            rows.append((upload.user, t, *blobs))
            added += end - start
        elif old == blobs:
            skipped += end - start
        else:
            raise _differs(upload.user, t)
        start = end
    conn.executemany("INSERT INTO raw_scans (user, t, macs, rssi) VALUES (?, ?, ?, ?)", rows)
    return IngestReport(added=added, skipped=skipped)


def _differs(user: str, t: int) -> DuplicateTimestamp:
    return DuplicateTimestamp(f"user {user!r}: the scan at t={t} differs from the stored one")


def _readings(upload: Scans, picks: np.ndarray) -> list[tuple[tuple[str, ...], bytes]]:
    """Each picked scan's MACs and packed readings, equal for equal scans of any uploads."""
    starts = (np.cumsum(upload.counts) - upload.counts)[picks].tolist()
    return [
        (tuple(map(upload.macs.__getitem__, upload.ids[s:s + n].tolist())),
         upload.rssi[s:s + n].tobytes())
        for s, n in zip(starts, upload.counts[picks].tolist())
    ]


def check_agree(uploads: Iterable[Scans]) -> None:
    """Raise store_raw's DuplicateTimestamp where uploads, taken in order, disagree.

    That is at an upload's first scan whose (user, t) an earlier upload
    holds with other readings, so a caller can refuse such a set before
    it opens a store. Only uploads of one user whose time spans overlap
    are compared, scan by scan at their common times.
    """
    earlier: dict[str, list[Scans]] = {}
    for upload in uploads:
        if not len(upload.times):
            continue
        differ = []
        for other in earlier.setdefault(upload.user, []):
            if other.times[0] <= upload.times[-1] and upload.times[0] <= other.times[-1]:
                common, mine, theirs = np.intersect1d(
                    upload.times, other.times, assume_unique=True, return_indices=True)
                differ += [t for t, a, b in zip(common.tolist(), _readings(upload, mine),
                                                 _readings(other, theirs)) if a != b]
        if differ:
            raise _differs(upload.user, min(differ))
        earlier[upload.user].append(upload)


def store_raw(store: RawStore, uploads: Iterable[Scans]) -> list[IngestReport]:
    """Store each upload's scans; one report per upload, in order, counting readings.

    A scan whose (user, t) is stored already is skipped, and its
    readings counted as skipped, when its readings are identical; with
    other readings it raises DuplicateTimestamp naming the user and t.
    All uploads land in one transaction, opened with BEGIN IMMEDIATE so
    concurrent calls take turns: if any upload conflicts or fails to
    store, or `uploads` itself raises (say, an upload that does not
    decode), nothing is kept.
    """
    reports = []
    user = None
    try:
        with store.conn:
            store.conn.execute("BEGIN IMMEDIATE")
            mac_ids = dict(store.conn.execute("SELECT mac, id FROM mac"))
            for upload in uploads:
                user = upload.user
                reports.append(_store_upload(store.conn, upload, mac_ids))
    except sqlite3.Error as exc:
        raise StorageFailure(f"raw ingest for user {user!r} failed: {exc}") from exc
    return reports
