"""POI registry: fingerprints, revisit matching, summary persistence.

A POI is born when density clustering finds a dense group of scans.
Its fingerprint is the per-MAC integer sum and count of the member
scans' whole-dBm readings; the mean vector that matching scores divides
the two, so a MAC missing from some scans is averaged over the scans
that did see it.
Revisit matching compares a fresh fingerprint against the user's
registered POI and reuses the best id at or above the match threshold,
so the same desk keeps the same poi_id across days.

Persistence is the store file's poi_properties, poi_readings (one
integer sum and count per MAC) and poi_visits tables, linked by (user,
poi_id); SummaryStore extends ingest.RawStore, the file.
poi_id is scoped per user: two users may both own poi_id 1. All writes
go through one transaction per user-day via upsert_day, so a crash
mid-day leaves the previous state intact. It reads only the candidate
POI, those of the user that share a MAC with the day's clusters (any
other scores 0, below every match threshold), and takes the next free
poi_id from the user's highest one; it reads no visit history
(records() and PoiRecord expose that for inspection, and fingerprints()
every POI). extract_day is the whole per-user-day step: cluster,
segment, fingerprint, register.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .clustering import VisitInterval, dbscan, segment_visits
from .errors import EmptyCluster, EmptyFingerprint, StorageFailure
from .ingest import RawStore
from .model import ClusterParams, Fingerprint, Scans
from .similarity import cosine_similarity

MATCH_THRESHOLD = 0.5


def build_fingerprint(macs: Sequence[str], ids: np.ndarray, rssi: np.ndarray) -> Fingerprint:
    """Sum member scans' readings, columns into `macs` and dBm, per MAC into one fingerprint.

    Each MAC's count is the scans that saw it, so an AP flickering in
    and out keeps its true level in the mean. The sums are exact ints
    whatever the readings' order. Raises EmptyCluster on no readings.
    """
    if len(ids) == 0:
        raise EmptyCluster("cannot build a fingerprint from zero scans")
    counts = np.bincount(ids)
    seen = np.flatnonzero(counts)
    names = [macs[k] for k in seen.tolist()]
    sums = np.bincount(ids, rssi)[seen].astype(np.int64)  # float64 holds these sums exactly
    return Fingerprint(dict(zip(names, sums.tolist())), dict(zip(names, counts[seen].tolist())))


def merge_fingerprints(old: Fingerprint, new: Fingerprint) -> Fingerprint:
    """Fingerprint of both sides' readings together: sums and counts added per MAC.

    Any merge chain equals build_fingerprint over all readings exactly.
    """
    sums, counts = dict(old.sums), dict(old.counts)
    for mac, total in new.sums.items():
        sums[mac] = sums.get(mac, 0) + total
        counts[mac] = counts.get(mac, 0) + new.counts[mac]
    return Fingerprint(sums, counts)


@dataclass(frozen=True)
class PoiRecord:
    """One registered POI: identity, fingerprint, visit history."""

    poi_id: int
    user: str
    fingerprint: Fingerprint
    created_at: int
    visits: tuple[VisitInterval, ...] = ()


def match_poi(
    fp: Fingerprint, registry: Mapping[int, Fingerprint], threshold: float = MATCH_THRESHOLD
) -> int | None:
    """Best-matching poi_id of `registry` (poi_id -> fingerprint), or None.

    Returns the id with maximal cosine similarity when that maximum
    reaches the threshold; ties break to the lowest poi_id. At
    threshold 1.0 only an exactly proportional fingerprint over the
    identical MAC set can match.
    """
    # Scalar on purpose: through _score_blocks a call took 53 us, not 9,
    # at 5 POI and 211 us, not 170, at 40 POI (2-vCPU VM), and
    # long-history extract_p95_ms rose from 11.1-12.3 to 14.5-15.2 ms.
    best_id: int | None = None
    best_c = -1.0
    for poi_id in sorted(registry):
        c = cosine_similarity(fp.rssi, registry[poi_id].rssi)
        if c > best_c:
            best_c = c
            best_id = poi_id
    if best_id is not None and best_c >= threshold:
        return best_id
    return None


class SummaryStore(RawStore):
    """The store file as POI registry, with RawStore's reads: one handle per extract.

    All mutation happens through upsert_day, one write transaction per
    user-day, so concurrent writers take turns.
    """

    def users(self) -> list[str]:
        """Users with a registered POI; overrides RawStore.users, users with scans."""
        rows = self.conn.execute(
            "SELECT DISTINCT user FROM poi_properties ORDER BY user"
        )
        return [user for (user,) in rows]

    def records(self, user: str) -> list[PoiRecord]:
        """All POI registered for one user, visits included, by poi_id.

        Three queries whatever the registry size: fingerprints,
        properties, then every visit of the user grouped by poi_id here.
        """
        fps = self.fingerprints(user)
        props = self.conn.execute(
            "SELECT poi_id, created_at FROM poi_properties WHERE user = ? ORDER BY poi_id",
            (user,),
        ).fetchall()
        visits: dict[int, list[VisitInterval]] = {}
        for poi_id, start, end, scans, sub in self.conn.execute(
            "SELECT poi_id, start_ts, end_ts, scans, sub_minimal FROM poi_visits"
            " WHERE user = ? ORDER BY poi_id, start_ts, end_ts",
            (user,),
        ):
            visits.setdefault(poi_id, []).append(
                VisitInterval(poi_id, start, end, scans, bool(sub))
            )
        return [
            PoiRecord(
                poi_id=poi_id,
                user=user,
                fingerprint=fps[user, poi_id],
                created_at=created_at,
                visits=tuple(visits.get(poi_id, ())),
            )
            for poi_id, created_at in props
        ]

    def fingerprints(self, user: str | None = None) -> dict[tuple[str, int], Fingerprint]:
        """POI fingerprints by (user, poi_id) in that order, of all users or one; no visits."""
        where, params = ("", ()) if user is None else ("WHERE user = ?", (user,))
        return self._read_fingerprints(where, params)

    def candidates(self, user: str, macs: Iterable[str]) -> dict[int, Fingerprint]:
        """The user's POI that hold at least one of `macs`, by poi_id; SQLite picks them.

        A POI that holds none of them scores 0 against any fingerprint
        over `macs`, so these are the only POI such a fingerprint can match.
        """
        fps = self._read_fingerprints(
            "WHERE user = ? AND poi_id IN (SELECT poi_id FROM poi_readings"
            " WHERE user = ? AND mac IN (SELECT value FROM json_each(?)))",
            (user, user, json.dumps(list(macs))),
        )
        return {poi_id: fp for (_, poi_id), fp in fps.items()}

    def _read_fingerprints(self, where: str, params: tuple) -> dict[tuple[str, int], Fingerprint]:
        fps: dict[tuple[str, int], Fingerprint] = {}
        for user, poi_id, mac, total, count in self.conn.execute(
            f"SELECT user, poi_id, mac, sum, count FROM poi_readings {where}"
            " ORDER BY user, poi_id, mac",
            params,
        ):
            if (user, poi_id) not in fps:  # a POI's rows come together: fill its dicts
                sums: dict[str, int] = {}
                counts: dict[str, int] = {}
                fps[user, poi_id] = Fingerprint(sums, counts)
            sums[mac], counts[mac] = total, count
        return fps

    def check_integrity(self) -> bool:
        """True when every visit row points at an existing POI (its declared foreign key)."""
        return not self.conn.execute("PRAGMA foreign_key_check").fetchall()


def upsert_day(
    store: SummaryStore,
    user: str,
    clusters: Sequence[tuple[Fingerprint, Sequence[VisitInterval]]],
    threshold: float = MATCH_THRESHOLD,
) -> list[int]:
    """Register one user-day's (fingerprint, visits) clusters; return their poi_ids.

    Each cluster, in order, is matched against the user's POI as the
    earlier clusters left them: on a match the new visits are appended
    (exact duplicates are skipped, which makes re-running a day a no-op)
    and, when anything new arrived, the fingerprint becomes the merge of
    old and new; otherwise the next free poi_id, one above the user's
    highest, is allocated. A new or merged POI's readings are written in
    one INSERT OR REPLACE; a merge only adds MACs, so it replaces every
    old row. The registry read is the candidates, the user's POI that
    hold a MAC of some cluster, plus the highest poi_id: since a POI
    sharing no MAC scores 0 and `threshold` is above 0, the ids equal a
    match against every POI. The write transaction opens (BEGIN
    IMMEDIATE) before the reads, so concurrent writers queue on the
    busy timeout instead of merging into a stale read; no clusters issue
    no statement, and neither does an empty fingerprint (it raises
    EmptyFingerprint) or a threshold outside (0, 1] (ValueError). On
    failure the store is left exactly as before and StorageFailure is
    raised.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"match threshold {threshold} outside (0, 1]")
    for fp, _ in clusters:
        if not fp.sums:  # a POI with no readings would vanish from fingerprints()
            raise EmptyFingerprint(f"user {user!r}: a cluster has an empty fingerprint")
    if not clusters:
        return []
    try:
        ids = []
        with store.conn:
            store.conn.execute("BEGIN IMMEDIATE")
            registry = store.candidates(user, {mac for fp, _ in clusters for mac in fp.sums})
            (last_id,) = store.conn.execute(
                "SELECT coalesce(max(poi_id), 0) FROM poi_properties WHERE user = ?", (user,)
            ).fetchone()
            for fp, visits in clusters:
                matched = match_poi(fp, registry, threshold)
                if matched is None:
                    last_id = poi_id = last_id + 1
                    created = min((v.start for v in visits), default=0)
                    store.conn.execute(
                        "INSERT INTO poi_properties (user, poi_id, created_at) VALUES (?, ?, ?)",
                        (user, poi_id, created),
                    )
                else:
                    poi_id = matched
                # rowcount sums the rows inserted; an ignored duplicate adds 0
                added = store.conn.executemany(
                    "INSERT OR IGNORE INTO poi_visits"
                    " (user, poi_id, start_ts, end_ts, scans, sub_minimal)"
                    " VALUES (?, ?, ?, ?, ?, ?)",
                    [(user, poi_id, v.start, v.end, v.scans, int(v.sub_minimal)) for v in visits],
                ).rowcount
                if matched is None or added > 0:
                    if matched is not None:
                        fp = merge_fingerprints(registry[poi_id], fp)
                    registry[poi_id] = fp
                    store.conn.executemany(
                        "INSERT OR REPLACE INTO poi_readings (user, poi_id, mac, sum, count)"
                        " VALUES (?, ?, ?, ?, ?)",
                        [(user, poi_id, mac, n, fp.counts[mac]) for mac, n in fp.sums.items()],
                    )
                ids.append(poi_id)
        return ids
    except sqlite3.Error as exc:
        raise StorageFailure(f"upsert for user {user!r} failed: {exc}") from exc


def extract_day(
    store: SummaryStore,
    day: Scans,
    params: ClusterParams,
    threshold: float = MATCH_THRESHOLD,
) -> list[tuple[int, list[VisitInterval]]]:
    """Cluster and register one user-day; return one (poi_id, visits) per cluster.

    dbscan labels the scans and segment_visits cuts them into visits;
    each cluster label, in ascending order, becomes one (fingerprint
    of its member scans' readings, its visits) pair, and upsert_day registers
    the day for day.user in one transaction. An all-noise day writes
    nothing and returns []. Raises EmptyLog on a day with no scans.
    """
    labels = dbscan(day, params)
    visits: dict[int, list[VisitInterval]] = {}
    for visit in segment_visits(day, labels, params):
        visits.setdefault(visit.label, []).append(visit)
    label_of = np.repeat(labels, day.counts)  # each reading's scan's label
    clusters = []
    for label in sorted(visits):
        mine = label_of == label
        clusters.append((build_fingerprint(day.macs, day.ids[mine], day.rssi[mine]), visits[label]))
    ids = upsert_day(store, day.user, clusters, threshold)
    return [(poi_id, day_visits) for poi_id, (_, day_visits) in zip(ids, clusters)]


def _hhmm(ts: int) -> str:
    """Render epoch seconds as HH:mm. UTC, so output is machine-independent."""
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%H:%M")


def day_window(day: str) -> tuple[int, int]:
    """UTC epoch range [start, end) covering a YYYY-MM-DD day.

    Raises ValueError for any other form, 2026-3-2 included: the files
    named after it would not pair with those of 2026-03-02.
    """
    start = datetime.strptime(day, "%Y-%m-%d").replace(tzinfo=timezone.utc)
    if start.date().isoformat() != day:  # strftime's %Y may drop a year's leading zeros
        raise ValueError(f"time data {day!r} does not match format '%Y-%m-%d'")
    return int(start.timestamp()), int(start.timestamp()) + 86400


def summary_rows(
    registered: Iterable[tuple[int, Iterable[VisitInterval]]],
) -> list[tuple[int, str, str]]:
    """Render (poi_id, visits) pairs as (poi_id, start, end) visit rows.

    Times render as HH:mm and rows are ordered by start, the shape the
    per-day timelines are reported in.
    """
    rows = sorted((v.start, v.end, poi_id) for poi_id, visits in registered for v in visits)
    return [(poi_id, _hhmm(start), _hhmm(end)) for start, end, poi_id in rows]


def write_summary_csv(rows: Iterable[tuple[int, str, str]], path: str | Path) -> None:
    """Write summary rows under `poi_id,label,start,end`; POI carry no label."""
    lines = ["poi_id,label,start,end"]
    lines += [f"{poi_id},,{start},{end}" for poi_id, start, end in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
