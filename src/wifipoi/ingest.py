"""Wire format, batch compression, and raw-observation persistence.

Scan logs travel as line-delimited JSON, one scan per line:

    {"t":<epoch>,"dev":<id>,"aps":[["mac",rssi],...]}

Field order is fixed and MACs are canonical, so encoding is
byte-reproducible and a partial upload fails at line granularity.
decode_log is the one JSON decoder: it checks a line's JSON shape, the
scan goes through validate_scan, as in build_log, and any fault is one
MalformedLine. decode_uploads, the server's decoder, reads canonical
bytes into columns (times, MAC ids, int8 readings) with no object per
reading: one call's uploads in joined passes of up to PASS_BYTES
(1 MiB), checking the same policy for each upload at once. Each upload
gets its own Scans, so the store still assigns MAC ids upload by upload.
Any other upload goes through decode_log, which names a bad line, and is
then re-encoded; decode_upload is the one-upload case. Batches
gzip-compress very well because MAC strings repeat in nearly every line.
RawStore, the store file that the registry's SummaryStore extends, keeps
one row per (user, t) scan, its MACs as ids into a dictionary of MACs
and its readings packed beside them. A scan whose (user, t) is stored
already is skipped when its readings are identical, which makes
re-ingestion a no-op, and refused when they differ; load_day reads one
user's scans in a [lo, hi) window back into the same Scans columns that
decode_upload gives. store_raw lands any number of uploads in one
transaction, so a caller that feeds it several (the CLI's ingest call)
keeps all or none of them; since identical scans are skipped, a rejected
call can simply be re-run once the bad upload is taken out. check_agree
finds the refusals that lie among the uploads themselves before any
store is opened. upload_of turns an in-memory ScanLog into Scans by way
of its wire bytes.

The user never appears on the wire; it is carried out of band (the CLI
takes it from the file name) and supplied to the decoder explicitly.
"""

from __future__ import annotations

import gzip
import json
import re
import sqlite3
import zlib
from dataclasses import dataclass, replace
from itertools import pairwise
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import CorruptStream, DuplicateTimestamp, MalformedLine, PoiError, StorageFailure
from .model import RSSI_MAX, RSSI_MIN, T_MAX, T_MIN, ScanLog, ScanResult, Scans, validate_scan

UPLOAD_PERIOD = 21600  # seconds; one batch every 6 hours
PASS_BYTES = 1 << 20  # wire bytes that one decoding pass joins at most

_FIELDS = ("t", "dev", "aps")
# A canonical line's start: json.dumps(record, separators=(",", ":")) where
# t has at most 12 digits and dev is printable ASCII without '"', '\' or '['.
_HEAD = re.compile(rb'\{"t":(0|-?[1-9][0-9]{0,11}),"dev":"([ !#-Z\]-~]*)","aps":\[')
# A byte's code: a lowercase hex digit's value, punctuation 16 to 23, else 255.
_CODES = bytes(b'0123456789abcdef[":,-]}\n'.find(c) % 256 for c in range(256))
_READING = np.frombuffer(b'["00:00:00:00:00:00",-'.translate(_CODES), np.uint8)  # 0: any hex
_FIXED = np.flatnonzero(_READING > 15)
_OPEN, _QUOTE, _COMMA, _CLOSE, _BRACE, _BREAK = b'[",]}\n'.translate(_CODES)


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


def _canonical(datas: Sequence[bytes], users: Sequence[str]) -> list[Scans] | None:
    """Each upload as Scans if each of its lines is as encode_log writes it, else None.

    A line is a _HEAD header and readings '["hh:hh:hh:hh:hh:hh",-' plus
    one to three digits (no leading zero) and ']', each followed by ','
    and the next or by ']}\\n' and its line's end: every byte is read,
    with no object per reading. The uploads are read as one: each ends
    in '\\n', so no line spans two, and a line's upload is found from
    where it stands. Then decode_log's policy is checked for each upload.
    A MAC's nibbles, as an int, sort as its spelling; its upload's rank,
    in the two bytes above them, gives each upload its own columns.
    """
    if not any(datas):
        none = np.zeros(0, np.int64)
        return [Scans(user, none, none, (), none, np.zeros(0, np.int8)) for user in users]
    if len(datas) >> 16 or not all(data.endswith(b"\n") for data in datas if data):
        return None  # an upload's rank must fit in the two bytes above a MAC
    # the uploads' bytes as codes, then room for any window
    code = np.frombuffer(b"".join([*(d.translate(_CODES) for d in datas), bytes(27)]), np.uint8)
    breaks = np.flatnonzero(code == _BREAK)
    base = np.cumsum([0, *map(len, datas)])  # each upload's first byte
    up = np.searchsorted(base, breaks, "right") - 1  # each line's upload
    line_at = np.concatenate(([0], breaks[:-1] + 1)) - base[up]  # where it starts in its upload
    heads = [_HEAD.match(datas[u], p) for u, p in zip(up.tolist(), line_at.tolist())]
    if None in heads:
        return None
    at = np.array([int(m[1]) for m in heads], np.int64)
    head_end = base[up] + [m.end() for m in heads]
    named = {(u, m[2]) for u, m in zip(up.tolist(), heads) if m[2]}  # "" leaves a line unnamed
    del heads, line_at
    starts = np.flatnonzero(code == _OPEN)
    starts = starts[code[starts + 1] == _QUOTE]
    if not len(starts) or not (code[breaks - 1] == _BRACE).all():
        return None
    # each byte opens one 27-byte item, so the gather copies whole windows
    w = np.ndarray(len(code) - 26, "V27", code, 0, (1,))[starts].view(np.uint8).reshape(-1, 27)
    del code
    hi, lo = w[:, 2:20:3], w[:, 3:20:3]  # each octet's nibbles
    close = w[:, 23:26] == _CLOSE  # after one, two or three digits
    digit = w[:, 23:25] < 10
    if not ((w[:, _FIXED] == _READING[_FIXED]).all() and ((hi | lo) < 16).all()
            and ((w[:, 22] > 0) & (w[:, 22] < 10) & (close[:, 0] | digit[:, 0] & (
                close[:, 1] | digit[:, 1] & close[:, 2]))).all()):
        return None
    two, three = ~close[:, 0], ~close[:, 0] & ~close[:, 1]
    d = w[:, 22:25].astype(np.int16)
    rssi = -np.where(three, d[:, 0] * 100 + d[:, 1] * 10 + d[:, 2],
                     np.where(two, d[:, 0] * 10 + d[:, 1], d[:, 0]))
    end = starts + 24 + two + three  # just past the reading's ']'
    follow = np.where(three, w[:, 26], np.where(two, w[:, 25], w[:, 24]))
    mac = np.zeros((len(starts), 8), np.uint8)
    mac[:, 2:] = hi << 4 | lo
    del w, hi, lo, d, close, digit, two, three
    last = follow == _CLOSE  # then '}\n', as `breaks` checks
    closing = np.flatnonzero(last)
    first = np.concatenate(([0], closing[:-1] + 1))  # each line's first reading
    if not (len(closing) == len(at) and last[-1] and (end[closing] + 2 == breaks).all()
            and (last[:-1] | (follow[:-1] == _COMMA) & (starts[1:] == end[:-1] + 1)).all()
            and (starts[first] == head_end).all()
            and ((rssi >= RSSI_MIN) & (rssi <= RSSI_MAX)).all()):
        return None
    del starts, end, follow, last
    by_time = np.lexsort((at, up))  # by upload, then time
    times, ups = at[by_time], up[by_time]
    if (at.min() < T_MIN or at.max() > T_MAX
            or ((ups[1:] == ups[:-1]) & (times[1:] == times[:-1])).any()
            or len(named) > len(dict(named))):  # an upload names one device at most
        return None
    counts = closing + 1 - first
    mac[:, :2] = np.repeat(up.astype(">u2"), counts).view(np.uint8).reshape(-1, 2)
    held, ids = np.unique(mac.view(">u8")[:, 0], return_inverse=True)  # by upload, then MAC
    del mac
    key = np.repeat(np.argsort(by_time), counts) * len(held) + ids
    order = np.argsort(key)  # the readings in time order, and by MAC within a scan
    key = key[order]
    if np.any(key[1:] == key[:-1]):  # a MAC twice in one scan
        return None
    del key
    macs, spelled = np.unique(held & 0xFFFF_FFFF_FFFF, return_inverse=True)  # spelled once
    names = [mac.to_bytes(6, "big").hex(":") for mac in macs.tolist()]
    names = list(map(names.__getitem__, spelled.tolist()))  # each upload's MACs, in turn
    macs_at = np.searchsorted(held >> 48, np.arange(len(datas) + 1))  # each upload's first MAC,
    ids = (np.arange(len(held)) - macs_at[held >> 48])[ids[order]]  # a column of its upload's
    rssi, counts = rssi[order].astype(np.int8), counts[by_time]
    scans_at = np.searchsorted(ups, np.arange(len(datas) + 1))  # scan
    reads_at = np.concatenate(([0], np.cumsum(counts)))[scans_at]  # and reading
    cuts = zip(*(pairwise(firsts.tolist()) for firsts in (scans_at, reads_at, macs_at)))
    return [Scans(user, times[s0:s1], counts[s0:s1], tuple(names[m0:m1]), ids[r0:r1], rssi[r0:r1])
            for user, ((s0, s1), (r0, r1), (m0, m1)) in zip(users, cuts)]


def decode_uploads(datas: Iterable[bytes], users: Iterable[str]) -> Iterator[Scans]:
    """Each upload's Scans, in turn, as decode_upload gives them, from joined passes.

    A pass holds consecutive uploads of up to PASS_BYTES, or one larger
    upload; `datas` is read one upload past it. An upload that is not
    canonical makes its pass decode upload by upload, as decode_upload does.
    """
    batch: list[tuple[bytes, str]] = []
    size = 0
    for data, user in zip(datas, users):
        if batch and size + len(data) > PASS_BYTES:
            yield from _decode_pass(batch)
            batch, size = [], 0
        batch.append((data, user))
        size += len(data)
    yield from _decode_pass(batch)


def _decode_pass(batch: list[tuple[bytes, str]]) -> Iterable[Scans]:
    uploads = _canonical([data for data, _ in batch], [user for _, user in batch])
    if uploads is None and len(batch) > 1:  # each upload as a pass of its own
        return (upload for one in batch for upload in _decode_pass([one]))
    if uploads is None:
        log = decode_log(*batch[0])  # raises the MalformedLine that names the first bad line
        uploads = _canonical([encode_log(replace(log, device=""))], [log.user])
    if uploads is None:
        raise RuntimeError("decode_upload refused an upload that decode_log accepts")
    return uploads


def decode_upload(data: bytes, user: str = "") -> Scans:
    """Parse wire bytes into Scans for `user`; decode_log's policy, in columns.

    Accepts exactly what decode_log accepts, with the same scans; the
    device is checked, then dropped, since the raw store keeps none.
    Canonical bytes are read straight into columns; any other upload
    goes through decode_log, which raises the MalformedLine that names
    the first bad line, and is read back from its canonical encoding.
    The one-upload case of decode_uploads, which joins a call's uploads
    in passes of up to 1 MiB; MAC ids are still assigned per upload.
    """
    (upload,) = decode_uploads([data], [user])
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
    """The store file: SCHEMA, its tables by name at user_version 3, and raw reads.

    A file is a store when each table in it has, compared by tokens, the
    statement of one of SCHEMA's; a key's autoindex belongs to its
    table. Any other object (a user's index, view or trigger, ANALYZE's
    sqlite_stat1, a table of an earlier layout) gets the file refused
    untouched. The refusal names the old raw_observations table, and
    says of a table with a SCHEMA name but another statement that the
    file may be a store of an earlier layout.
    A store journals in TRUNCATE mode, so a 0-byte <store>-journal
    stays beside it. One with exactly SCHEMA's tables opens without a
    write; any other gains the tables it lacks under the open's BEGIN
    IMMEDIATE. Each connection enforces foreign keys. A refused or
    unopenable file raises StorageFailure, its connection closed;
    `conn` is public for fault injection. A raw_scans row, keyed by
    (user, t), packs the scan's MAC ids (uint32 LE) and RSS readings
    (int8) in MAC order, so load_day reads them straight back into
    columns; `mac` holds each canonical MAC once, and poi_readings one
    integer sum and count per POI, MAC and extracted day (the start of
    its window), so a POI's fingerprint is the sum of its days' rows.
    Every read is consumed whole, so an open holds no lock.
    """

    SCHEMA = {
        "mac": "CREATE TABLE mac (id INTEGER PRIMARY KEY, mac TEXT NOT NULL UNIQUE)",
        "raw_scans": """CREATE TABLE raw_scans (
            user TEXT    NOT NULL,
            t    INTEGER NOT NULL,
            macs BLOB    NOT NULL,
            rssi BLOB    NOT NULL,
            PRIMARY KEY (user, t)
        ) WITHOUT ROWID""",
        "poi_properties": """CREATE TABLE poi_properties (
            user       TEXT    NOT NULL,
            poi_id     INTEGER NOT NULL,
            created_at INTEGER NOT NULL,
            PRIMARY KEY (user, poi_id)
        )""",
        "poi_readings": """CREATE TABLE poi_readings (
            user   TEXT    NOT NULL,
            poi_id INTEGER NOT NULL,
            mac    TEXT    NOT NULL,
            day    INTEGER NOT NULL,
            sum    INTEGER NOT NULL,
            count  INTEGER NOT NULL,
            PRIMARY KEY (user, poi_id, mac, day),
            FOREIGN KEY (user, poi_id) REFERENCES poi_properties (user, poi_id)
        ) WITHOUT ROWID""",
        "poi_visits": """CREATE TABLE poi_visits (
            user        TEXT    NOT NULL,
            poi_id      INTEGER NOT NULL,
            start_ts    INTEGER NOT NULL,
            end_ts      INTEGER NOT NULL,
            scans       INTEGER NOT NULL,
            sub_minimal INTEGER NOT NULL DEFAULT 0,
            PRIMARY KEY (user, poi_id, start_ts, end_ts),
            FOREIGN KEY (user, poi_id) REFERENCES poi_properties (user, poi_id)
        )""",
    }

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        conn = None
        try:
            conn = sqlite3.connect(self.path)
            layout = _layout(conn)
            conn.execute("PRAGMA journal_mode = TRUNCATE")
            if layout != self.SCHEMA.keys():
                with conn:
                    conn.execute("BEGIN IMMEDIATE")
                    layout = _layout(conn)  # another open may have written it meanwhile
                    for name, statement in self.SCHEMA.items():
                        if name not in layout:
                            conn.execute(statement)
                    conn.execute("PRAGMA user_version = 3")
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
        A row whose blobs disagree in length, or that names a MAC id the
        dictionary lacks, raises StorageFailure naming the user.
        """
        rows = self.conn.execute(
            "SELECT t, macs, rssi FROM raw_scans WHERE user = ? AND t >= ? AND t < ? ORDER BY t",
            (user, lo, hi),
        ).fetchall()
        times, blobs, levels = zip(*rows) if rows else ((), (), ())
        counts = np.fromiter(map(len, levels), np.int64, len(levels))
        bad = np.flatnonzero(np.fromiter(map(len, blobs), np.int64, len(blobs)) != 4 * counts)
        if len(bad):
            raise StorageFailure(f"user {user!r}: the raw scan at t={times[bad[0]]} holds"
                                 " MAC ids and readings of different lengths")
        used, cols = np.unique(np.frombuffer(b"".join(blobs), "<u4"), return_inverse=True)
        names = dict(self.conn.execute(
            "SELECT id, mac FROM mac WHERE id IN (SELECT value FROM json_each(?))",
            (json.dumps(used.tolist()),),
        ))
        if len(names) < len(used):
            missing = sorted(set(used.tolist()) - names.keys())
            raise StorageFailure(f"user {user!r}: raw scans name MAC ids {missing} that the"
                                 " store's mac table does not hold")
        macs = tuple(map(names.__getitem__, used.tolist()))
        return Scans(user, np.array(times, np.int64), counts, macs, cols,
                     np.frombuffer(b"".join(levels), np.int8))


def _tokens(sql: str) -> tuple[str, ...]:
    """A CREATE statement's words and punctuation, however it is spaced."""
    return tuple(sql.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").split())


_TABLES = set(map(_tokens, RawStore.SCHEMA.values()))  # each table statement a store may hold


def _layout(conn: sqlite3.Connection) -> set[str]:
    """The names of a store's tables; any other file raises."""
    rows = conn.execute("SELECT type, name, sql FROM sqlite_master").fetchall()
    if any(name == "raw_observations" for _, name, _ in rows):
        raise StorageFailure("it holds the old one-row-per-reading raw_observations layout;"
                             " re-ingest its uploads into a new store")
    for kind, name, sql in rows:  # sql is None for a key's autoindex, part of its table
        if sql is not None and _tokens(sql) not in _TABLES:
            if kind == "table" and name in RawStore.SCHEMA:
                raise StorageFailure(
                    f"it is not a store of this layout: its table {name} is not the schema's; if"
                    " it is a store of an earlier layout, re-ingest its uploads into a new store")
            raise StorageFailure(f"it is not a store: its {kind} {name} is not the schema's")
    return {name for _, name, sql in rows if sql is not None}


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
            raise _differs(upload.user, t, "the stored one")
        start = end
    conn.executemany("INSERT INTO raw_scans (user, t, macs, rssi) VALUES (?, ?, ?, ?)", rows)
    return IngestReport(added=added, skipped=skipped)


def _differs(user: str, t: int, other: str) -> DuplicateTimestamp:
    return DuplicateTimestamp(f"user {user!r}: the scan at t={t} differs from {other}")


def _readings(upload: Scans, picks: np.ndarray) -> list[tuple[tuple[str, ...], bytes]]:
    """Each picked scan's MACs and packed readings, equal for equal scans of any uploads."""
    starts = (np.cumsum(upload.counts) - upload.counts)[picks].tolist()
    return [
        (tuple(map(upload.macs.__getitem__, upload.ids[s:s + n].tolist())),
         upload.rssi[s:s + n].tobytes())
        for s, n in zip(starts, upload.counts[picks].tolist())
    ]


def check_agree(named: Iterable[tuple[str, Scans]]) -> None:
    """Raise DuplicateTimestamp where (name, upload) pairs, taken in order, disagree.

    That is at an upload's first scan whose (user, t) an earlier upload
    holds with other readings, where store_raw would refuse, so a caller
    can refuse such a set before it opens a store. The message names
    the first such earlier upload. Only uploads of one user whose time
    spans overlap are compared, scan by scan at their common times.
    """
    earlier: dict[str, list[tuple[str, Scans]]] = {}
    for name, upload in named:
        if not len(upload.times):
            continue
        differ = []
        for other_name, other in earlier.setdefault(upload.user, []):
            if other.times[0] <= upload.times[-1] and upload.times[0] <= other.times[-1]:
                common, mine, theirs = np.intersect1d(
                    upload.times, other.times, assume_unique=True, return_indices=True)
                differ += [(t, other_name) for t, a, b in zip(
                    common.tolist(), _readings(upload, mine), _readings(other, theirs)) if a != b]
        if differ:
            t, other_name = min(differ, key=lambda pair: pair[0])  # the earliest upload at t
            raise _differs(upload.user, t, f"the one in {other_name}")
        earlier[upload.user].append((name, upload))


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
    whose = ""  # the upload being stored, once there is one
    try:
        with store.conn:
            store.conn.execute("BEGIN IMMEDIATE")
            mac_ids = dict(store.conn.execute("SELECT mac, id FROM mac"))
            for upload in uploads:
                whose = f" for user {upload.user!r}"
                reports.append(_store_upload(store.conn, upload, mac_ids))
    except sqlite3.Error as exc:
        raise StorageFailure(f"raw ingest{whose} into {store.path} failed: {exc}") from exc
    return reports
