"""POI registry: fingerprint build/merge, matching, store persistence."""
import collections
import os
import random
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    MAC_POOL, VERSION_1_SCHEMA, disjoint_places_day, encode_fingerprint_v1, naive_fingerprint,
    reference_upsert_day, registry_tables, store_invariant_faults,
)
from wifipoi.clustering import VisitInterval, dbscan, segment_visits
from wifipoi.errors import EmptyCluster, EmptyFingerprint, EmptyLog, StorageFailure
from wifipoi.ingest import RawStore, store_raw, upload_of
from wifipoi.model import ClusterParams, Fingerprint, ScanResult, build_log
from wifipoi.registry import (
    SummaryStore,
    build_fingerprint,
    day_window,
    extract_day,
    match_poi,
    merge_fingerprints,
    summary_rows,
    upsert_day,
    write_summary_csv,
)
from wifipoi.simgen import generate_trace, load_scenario

A = "aa:00:00:00:00:01"
B = "bb:00:00:00:00:02"
C = "cc:00:00:00:00:03"
D = "dd:00:00:00:00:04"

DAY = "2026-03-02"
DAY_START = day_window(DAY)[0]


def scan(t, obs):
    return ScanResult(timestamp=t, observations=tuple(sorted(obs)))


def fp(means, counts=None):
    """The fingerprint with these whole-dBm means: each mean times its count is its sum."""
    counts = counts or {m: 1 for m in means}
    return Fingerprint({m: int(mean * counts[m]) for m, mean in means.items()}, counts)


def matrix_fp(scans):
    """build_fingerprint over every reading of the scans."""
    day = upload_of(build_log("u", "d", scans))
    return build_fingerprint(day.macs, day.ids, day.rssi)


def visit(start_min, end_min, label=1, scans=4):
    return VisitInterval(label, DAY_START + 60 * start_min, DAY_START + 60 * end_min, scans)


class TestBuildFingerprint:
    def test_two_point_mean(self):
        got = matrix_fp([scan(0, [(A, -50)]), scan(300, [(A, -60)])])
        assert got.rssi == {A: -55.0}
        assert got.counts == {A: 2}

    def test_partial_mac_mean_over_observers_only(self):
        got = matrix_fp([scan(0, [(A, -50), (B, -70)]), scan(300, [(A, -60)])])
        assert got.rssi == {A: -55.0, B: -70.0}
        assert got.counts == {A: 2, B: 1}

    def test_empty_cluster_rejected(self):
        with pytest.raises(EmptyCluster):
            build_fingerprint((), np.zeros(0, np.int64), np.zeros(0, np.int8))

    def test_means_stay_within_observation_range(self):
        rnd = random.Random(6)
        scans = []
        seen: dict[str, list[int]] = {}
        for i in range(100):
            obs = []
            for mac in (A, B, C):
                if rnd.random() < 0.8:
                    r = rnd.randint(-75, -45)
                    obs.append((mac, r))
                    seen.setdefault(mac, []).append(r)
            if obs:
                scans.append(scan(300 * i, obs))
        got = matrix_fp(scans)
        for mac, mean in got.rssi.items():
            assert min(seen[mac]) <= mean <= max(seen[mac])

    def test_matches_dict_loop_oracle_on_random_clusters(self):
        # flickering APs; the store's columns come in MAC-id order, not sorted
        rnd = random.Random(41)
        for _ in range(100):
            pool = rnd.sample(MAC_POOL, rnd.randint(1, 12))
            scans = []
            for k in range(rnd.randint(1, 60)):
                obs = [(mac, rnd.randint(-100, -1)) for mac in pool if rnd.random() < 0.6]
                scans.append(scan(300 * k, obs or [(pool[0], -60)]))
            with RawStore() as store:
                store_raw(store, [upload_of(build_log("x", "d", [scan(0, [(max(pool), -50)])])),
                                  upload_of(build_log("u", "d", scans))])
                stored = store.load_day("u", 0, 300 * 60)
            members = sorted(rnd.sample(range(len(scans)), rnd.randint(1, len(scans))))
            want = Fingerprint(*naive_fingerprint(scans[i].observations for i in members))
            for day in (upload_of(build_log("u", "d", scans)), stored):
                mine = np.isin(np.repeat(np.arange(len(scans)), day.counts), members)
                got = build_fingerprint(day.macs, day.ids[mine], day.rssi[mine])
                assert got == want
                assert {type(v) for v in got.sums.values()} == {int}
                assert {type(c) for c in got.counts.values()} == {int}
                assert {type(v) for v in got.rssi.values()} == {float}

    def test_long_cluster_at_the_floor_does_not_overflow(self):
        # 400 readings of -100 sum to -40000, beyond an int8 or int16 accumulator
        scans = [scan(300 * k, [(A, -100)] + ([(B, -100)] if k % 2 else [])) for k in range(400)]
        got = matrix_fp(scans)
        assert got == Fingerprint(*naive_fingerprint(s.observations for s in scans))
        assert got.rssi == {A: -100.0, B: -100.0} and got.counts == {A: 400, B: 200}


class TestMergeFingerprints:
    def test_count_weighted(self):
        merged = merge_fingerprints(fp({A: -50.0}, {A: 4}), fp({A: -60.0}, {A: 1}))
        assert merged.rssi == {A: -52.0}
        assert merged.counts == {A: 5}

    def test_union_of_macs(self):
        merged = merge_fingerprints(fp({A: -50.0}), fp({B: -60.0}))
        assert merged.rssi == {A: -50.0, B: -60.0}

    def test_a_merge_chain_equals_the_rebuild(self):
        # the days of one POI, merged one by one as upsert_day does; a
        # weighted mean of means missed the rebuild's last bits on about
        # 1 in 70 means of these draws
        rnd = random.Random(12)
        for _ in range(300):
            pool = rnd.sample(MAC_POOL, rnd.randint(1, 8))
            scans = [scan(300 * k, [(mac, rnd.randint(-100, -1)) for mac in pool
                                    if rnd.random() < 0.6] or [(pool[0], -60)])
                     for k in range(rnd.randint(2, 80))]
            cuts = sorted(rnd.sample(range(1, len(scans)), rnd.randint(1, min(19, len(scans) - 1))))
            days = [scans[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(scans)])]
            merged = matrix_fp(days[0])
            for day in days[1:]:
                merged = merge_fingerprints(merged, matrix_fp(day))
            rebuilt = matrix_fp(scans)
            assert merged.counts == rebuilt.counts
            assert merged.rssi == rebuilt.rssi


class TestMatchPoi:
    def registry(self):
        return {9: fp({A: -40.0, B: -80.0}), 3: fp({C: -55.0})}

    def test_identical_fingerprint_matches(self):
        assert match_poi(fp({A: -40.0, B: -80.0}), self.registry()) == 9

    def test_disjoint_is_new(self):
        assert match_poi(fp({"dd:00:00:00:00:04": -50.0}), self.registry()) is None

    def test_tie_breaks_to_lowest_id(self):
        same = fp({A: -50.0})
        assert match_poi(fp({A: -50.0}), {7: same, 2: same}) == 2

    def test_threshold_one_requires_exact_proportionality(self):
        record = {1: fp({A: -50.0, B: -60.0})}
        assert match_poi(fp({A: -25.0, B: -30.0}), record, threshold=1.0) == 1
        assert match_poi(fp({A: -50.0, B: -61.0}), record, threshold=1.0) is None
        assert match_poi(fp({A: -50.0}), record, threshold=1.0) is None


class TestUpsert:
    def test_first_cluster_gets_id_one(self):
        with SummaryStore() as store:
            assert upsert_day(store, "u", [(fp({A: -50.0}), [visit(0, 20)])])[0] == 1

    def test_same_fingerprint_twice_reuses_id(self):
        with SummaryStore() as store:
            one = upsert_day(store, "u", [(fp({A: -50.0, B: -60.0}), [visit(0, 20)])])[0]
            two = upsert_day(store, "u", [(fp({A: -50.0, B: -60.0}), [visit(60, 80)])])[0]
            assert one == two
            assert len(store.records("u")[0].visits) == 2

    def test_rerunning_a_day_is_a_noop(self):
        with SummaryStore() as store:
            fp1 = fp({A: -50.0, B: -60.0})
            upsert_day(store, "u", [(fp1, [visit(0, 20)])])
            before = store.records("u")
            upsert_day(store, "u", [(fp1, [visit(0, 20)])])
            assert store.records("u") == before

    def test_two_rooms_get_distinct_ids(self):
        with SummaryStore() as store:
            first = upsert_day(store, "u", [(fp({A: -50.0}), [visit(0, 20)])])[0]
            second = upsert_day(store, "u", [(fp({B: -60.0}), [visit(60, 80)])])[0]
            assert (first, second) == (1, 2)

    def test_ids_are_scoped_per_user(self):
        with SummaryStore() as store:
            assert upsert_day(store, "u1", [(fp({A: -50.0}), [visit(0, 20)])])[0] == 1
            assert upsert_day(store, "u2", [(fp({B: -60.0}), [visit(0, 20)])])[0] == 1

    def test_refresh_takes_count_weighted_mean(self):
        with SummaryStore() as store:
            upsert_day(store, "u", [(fp({A: -50.0}, {A: 4}), [visit(0, 20)])])
            upsert_day(store, "u", [(fp({A: -60.0}, {A: 4}), [visit(60, 80)])])
            assert store.records("u")[0].fingerprint.rssi == {A: -55.0}
            assert store.records("u")[0].fingerprint.counts == {A: 8}

    def test_refresh_stays_in_observation_range(self):
        rnd = random.Random(8)
        with SummaryStore() as store:
            lo, hi = -70, -45
            for k in range(10):
                level = float(rnd.randint(lo, hi))
                upsert_day(store, "u", [(fp({A: level}, {A: rnd.randint(1, 6)}),
                                         [visit(30 * k, 30 * k + 20)])])
            merged = store.records("u")[0].fingerprint.rssi[A]
            assert lo <= merged <= hi

    def test_empty_fingerprint_is_refused_before_any_statement(self):
        with SummaryStore() as store:
            issued = []
            store.conn.set_trace_callback(issued.append)
            with pytest.raises(EmptyFingerprint, match="user 'u'"):
                upsert_day(store, "u", [(fp({A: -50.0}), [visit(0, 20)]),
                                        (Fingerprint({}, {}), [visit(60, 80)])])
            store.conn.set_trace_callback(None)
            assert issued == []
            assert store.users() == [] and store.fingerprints() == {}

    def test_reads_no_visit_rows(self):
        with SummaryStore() as store:
            upsert_day(store, "u", [(fp({A: -50.0}), [visit(0, 20)])])
            issued = []
            store.conn.set_trace_callback(issued.append)
            upsert_day(store, "u", [(fp({A: -50.0}), [visit(60, 80)]),
                                    (fp({B: -60.0}), [visit(120, 140)])])
            store.conn.set_trace_callback(None)
            reads = [sql for sql in issued if sql.lstrip().upper().startswith("SELECT")]
            assert reads and not any("poi_visits" in sql for sql in reads)


class FaultyConn:
    """Forwards to a real connection, failing on the nth execute.

    Each executemany row counts as one call; a failing row leaves the
    rows before it written, as a failure mid-statement would.
    """

    def __init__(self, conn, fail_after):
        self._conn = conn
        self._calls = 0
        self._fail_after = fail_after

    def execute(self, *args, **kwargs):
        self._calls += 1
        if self._calls > self._fail_after:
            raise sqlite3.OperationalError("disk I/O error (injected)")
        return self._conn.execute(*args, **kwargs)

    def executemany(self, sql, rows):
        rows = list(rows)
        ok = max(self._fail_after - self._calls, 0)
        if ok < len(rows):
            self._calls += ok + 1
            self._conn.executemany(sql, rows[:ok])
            raise sqlite3.OperationalError("disk I/O error (injected)")
        self._calls += len(rows)
        return self._conn.executemany(sql, rows)

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def __enter__(self):
        return self._conn.__enter__()

    def __exit__(self, *exc):
        return self._conn.__exit__(*exc)


def test_orphan_visit_fails_the_integrity_check():
    with SummaryStore() as store:
        upsert_day(store, "u", [(fp({A: -50.0}), [visit(0, 20)])])
        assert store.check_integrity()
        store.conn.execute("PRAGMA foreign_keys = OFF")
        store.conn.execute("INSERT INTO poi_visits VALUES ('u', 2, 60, 80, 4, 0)")
        assert not store.check_integrity()


class TestAtomicity:
    def test_injected_failure_rolls_back_whole_upsert(self):
        store = SummaryStore()
        upsert_day(store, "u", [(fp({A: -50.0}), [visit(0, 20)])])
        before = store.records("u")
        real = store.conn
        # call 1 opens the transaction, 2 and 3 read the candidates and the
        # highest poi_id, 4 inserts the new POI row, 5 adds the first visit;
        # failing on call 6 leaves a half-done upsert that the transaction
        # must roll back
        store.conn = FaultyConn(real, fail_after=5)
        with pytest.raises(StorageFailure):
            upsert_day(store, "u", [(fp({B: -60.0}),
                                     [visit(60, 80), visit(120, 140), visit(180, 200)])])
        store.conn = real
        assert store.records("u") == before
        assert store.users() == ["u"]
        assert store.check_integrity()
        store.close()

    def test_failure_on_last_cluster_rolls_back_the_day(self):
        store = SummaryStore()
        upsert_day(store, "u", [(fp({A: -50.0}), [visit(0, 20)])])
        before = store.records("u")
        real = store.conn
        # BEGIN and 2 reads, then per cluster a POI row, one visit and
        # one reading: 12 calls; the last one, the third cluster's reading, fails
        store.conn = FaultyConn(real, fail_after=11)
        with pytest.raises(StorageFailure):
            upsert_day(store, "u", [
                (fp({B: -60.0}), [visit(60, 80)]),
                (fp({C: -60.0}), [visit(120, 140)]),
                (fp({"dd:00:00:00:00:04": -60.0}), [visit(180, 200)]),
            ])
        assert store.conn._calls == 12
        store.conn = real
        assert store.records("u") == before
        assert store.conn.execute("SELECT COUNT(*) FROM poi_visits").fetchone() == (1,)
        assert store.check_integrity()
        store.close()


# One writer process: upserts the same place on every other day from `first`.
_WRITER = """
import sys
from wifipoi.clustering import VisitInterval
from wifipoi.model import Fingerprint
from wifipoi.registry import SummaryStore, upsert_day

path, first = sys.argv[1], int(sys.argv[2])
fp = Fingerprint(sums={"aa:00:00:00:00:01": -200, "bb:00:00:00:00:02": -240},
                 counts={"aa:00:00:00:00:01": 4, "bb:00:00:00:00:02": 4})
with SummaryStore(path) as store:
    for day in range(first, 8, 2):
        start = 1_700_000_000 + 86400 * day
        upsert_day(store, "u", [(fp, [VisitInterval(1, start, start + 1200, 4)])])
"""


class TestConcurrentWriters:
    def test_writer_waits_for_a_day_in_flight(self, tmp_path):
        place = fp({A: -50.0, B: -60.0}, {A: 4, B: 4})
        with SummaryStore(tmp_path / "reg.db") as setup:
            upsert_day(setup, "u", [(place, [visit(0, 20)])])
        a = SummaryStore(tmp_path / "reg.db")
        b = SummaryStore(tmp_path / "reg.db")
        a.conn.execute("PRAGMA busy_timeout = 0")
        day_a = [(place, [visit(1440, 1460)])]
        read_registry = b.candidates
        raced = []

        def read_then_race(user, macs):
            # B has read the registry; A must not land a day under it
            candidates = read_registry(user, macs)
            with pytest.raises(StorageFailure, match="database is locked"):
                upsert_day(a, "u", day_a)
            raced.append(user)
            return candidates

        b.candidates = read_then_race
        assert upsert_day(b, "u", [(place, [visit(2880, 2900)])]) == [1]
        assert raced == ["u"]
        assert upsert_day(a, "u", day_a) == [1]
        [record] = a.records("u")
        assert len(record.visits) == 3
        assert record.fingerprint.counts == {A: 12, B: 12}
        a.close()
        b.close()

    def test_two_processes_land_every_day(self, tmp_path):
        path = tmp_path / "reg.db"
        SummaryStore(path).close()
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        procs = [
            subprocess.Popen([sys.executable, "-c", _WRITER, str(path), str(first)],
                             env=env, stderr=subprocess.PIPE, text=True)
            for first in (0, 1)
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
        with SummaryStore(path) as store:
            [record] = store.records("u")
            assert len(record.visits) == 8
            assert record.fingerprint.counts == {A: 32, B: 32}


def random_days(rnd, n_days, places):
    """Days of (fingerprint, visits) clusters: noisy revisits of a few places."""
    macs = ["%02x:00:00:00:00:%02x" % (k, k) for k in range(3 * places)]
    days = []
    for d in range(n_days):
        clusters = []
        for k in range(rnd.randint(1, 6)):
            place = rnd.randrange(places)
            seen = [m for m in macs[3 * place : 3 * place + 4] if rnd.random() < 0.8] or [macs[0]]
            levels = {m: float(rnd.randint(-85, -40)) for m in seen}
            start = 1440 * d + 60 * k
            clusters.append((
                fp(levels, {m: rnd.randint(1, 5) for m in seen}),
                [visit(start, start + 20), visit(start + 30, start + 40, scans=2)],
            ))
        days.append(clusters)
    return days


# One writer process: spills an uncommitted day into the store file, then dies.
_CRASH = """
import os, sys
from wifipoi import registry
from wifipoi.clustering import VisitInterval
from wifipoi.model import Fingerprint
from wifipoi.registry import SummaryStore, upsert_day

macs = ["%02x:%02x:00:00:00:00" % (k // 256, k % 256) for k in range(4000)]
clusters = [
    (Fingerprint({m: -50 for m in macs[100 * k:100 * k + 100]},
                 {m: 1 for m in macs[100 * k:100 * k + 100]}),
     [VisitInterval(1, 1_700_000_000 + 3600 * k, 1_700_000_000 + 3600 * k + 1200, 4)])
    for k in range(40)
]
store = SummaryStore(sys.argv[1])
store.conn.execute("PRAGMA cache_size = 1")  # dirty pages spill into the store file
match_poi, calls = registry.match_poi, []

def die_on_the_last_cluster(*args):
    calls.append(args)
    if len(calls) == len(clusters):
        os._exit(0)  # no COMMIT, no rollback, no close
    return match_poi(*args)

registry.match_poi = die_on_the_last_cluster
upsert_day(store, "u", clusters)
"""


class TestJournal:
    """Stores run in TRUNCATE journal mode: a commit leaves a 0-byte journal beside the store."""

    def test_a_day_that_dies_before_commit_is_rolled_back_on_the_next_open(self, tmp_path):
        path = tmp_path / "reg.db"
        journal = tmp_path / "reg.db-journal"
        with SummaryStore(path) as store:
            upsert_day(store, "u", [(fp({A: -50.0, B: -60.0}), [visit(0, 20)])])
            before = registry_tables(store.conn)
        assert journal.stat().st_size == 0
        stored = path.read_bytes()
        src = Path(__file__).resolve().parent.parent / "src"
        child = subprocess.run([sys.executable, "-c", _CRASH, str(path)], timeout=60,
                               env={**os.environ, "PYTHONPATH": str(src)},
                               stderr=subprocess.PIPE, text=True)
        assert child.returncode == 0, child.stderr
        # the dead writer left its changes in the file and the old pages in the journal
        assert path.read_bytes() != stored and journal.stat().st_size > 0
        with SummaryStore(path) as store:
            # the open's first read rolls the journal back; the connection is
            # still in DELETE mode then, so the journal goes until the next write
            assert path.read_bytes() == stored
            assert registry_tables(store.conn) == before
            assert store.check_integrity()
            assert not journal.exists() or journal.stat().st_size == 0
            upsert_day(store, "u", [(fp({A: -50.0, B: -60.0}), [visit(1440, 1460)])])
        assert path.read_bytes() != stored
        assert journal.stat().st_size == 0


class TestUpsertDay:
    def test_equals_successive_one_cluster_days(self):
        rnd = random.Random(31)
        new = revisit = shared = 0
        for trial in range(40):
            days = random_days(rnd, n_days=5, places=rnd.randint(2, 8))
            threshold = rnd.choice([0.5, 0.7, 0.9])
            with SummaryStore() as batch, SummaryStore() as single:
                for clusters in days:
                    known = {r.poi_id for r in batch.records("u")}
                    got = upsert_day(batch, "u", clusters, threshold)
                    want = [upsert_day(single, "u", [(f, v)], threshold)[0] for f, v in clusters]
                    assert got == want
                    assert batch.records("u") == single.records("u")
                    new += len(set(got) - known)
                    revisit += sum(1 for i in got if i in known)
                    shared += len(got) - len(set(got))
        # the seeded days exercise new POI, revisits and same-day matches
        assert min(new, revisit, shared) > 20

    def test_second_cluster_sees_the_merged_fingerprint(self):
        # {B, C} shares nothing with POI 1's {A} but scores exactly 0.5
        # against {A, B}, the fingerprint after the first cluster's merge
        with SummaryStore() as store:
            upsert_day(store, "u", [(fp({A: -50.0}), [visit(0, 20)])])
            ids = upsert_day(store, "u", [
                (fp({A: -50.0, B: -50.0}), [visit(60, 80)]),
                (fp({B: -50.0, C: -50.0}), [visit(120, 140)]),
            ])
            assert ids == [1, 1]
            (record,) = store.records("u")
            assert record.fingerprint.rssi == {A: -50.0, B: -50.0, C: -50.0}
            assert record.fingerprint.counts == {A: 2, B: 2, C: 1}
            assert len(record.visits) == 3

    def test_ids_are_deterministic(self):
        days = random_days(random.Random(32), n_days=6, places=5)
        runs = []
        for _ in range(2):
            with SummaryStore() as store:
                runs.append([upsert_day(store, "u", clusters) for clusters in days])
        assert runs[0] == runs[1]
        seen = 0
        for ids in runs[0]:
            # a day's new POI take the next free ids in cluster order
            fresh = [i for i in dict.fromkeys(ids) if i > seen]
            assert fresh == list(range(seen + 1, seen + 1 + len(fresh)))
            seen += len(fresh)
        assert seen > 1

    def test_empty_day_writes_nothing(self):
        with SummaryStore() as store:
            assert upsert_day(store, "u", []) == []
            assert store.users() == []

    def test_empty_day_issues_no_statement(self):
        # no write lock and no journal sync for a day with no clusters
        with SummaryStore() as store:
            upsert_day(store, "u", [(fp({A: -50.0}), [visit(0, 20)])])
            issued = []
            store.conn.set_trace_callback(issued.append)
            assert upsert_day(store, "u", []) == []
            store.conn.set_trace_callback(None)
            assert issued == []

    def test_one_commit_per_day(self, commit_counter):
        macs = (A, B, C, "dd:00:00:00:00:04", "ee:00:00:00:00:05")
        clusters = [(fp({m: -50.0}), [visit(60 * k, 60 * k + 20)]) for k, m in enumerate(macs)]
        with SummaryStore() as store:
            upsert_day(store, "u", [(fp({A: -50.0}), [visit(0, 10)])])
            commit_counter.attach(store.conn)
            assert upsert_day(store, "u", clusters) == [1, 2, 3, 4, 5]
            assert commit_counter.commits == 1


def office_days():
    """The office-3day scenario's days as simulated scan logs, in order."""
    scenario = load_scenario("office-3day")
    (user,) = scenario.itineraries
    by_day = collections.defaultdict(list)
    for entry in scenario.itineraries[user]:
        by_day[time.strftime("%Y-%m-%d", time.gmtime(entry.arrival))].append(entry)
    return [
        generate_trace(scenario.env, tuple(by_day[day]), scenario.scan_interval,
                       np.random.default_rng([11, k]), scenario.sigma, user=user)[0]
        for k, day in enumerate(sorted(by_day))
    ], ClusterParams(scan_interval=scenario.scan_interval)


def reference_extract(store, log, params):
    """dbscan -> segment_visits -> naive_fingerprint per label -> upsert_day."""
    day = upload_of(log)
    labels = dbscan(day, params)
    by_label = collections.defaultdict(list)
    for v in segment_visits(day, labels, params):
        by_label[v.label].append(v)
    clusters = [
        (Fingerprint(*naive_fingerprint(
            s.observations for s, l in zip(log.entries, labels) if l == label)), by_label[label])
        for label in sorted(by_label)
    ]
    ids = upsert_day(store, log.user, clusters)
    return [(poi_id, visits) for poi_id, (_, visits) in zip(ids, clusters)]


class RowCounter:
    """Forwards to a real connection, counting the rows its statements return."""

    def __init__(self, conn):
        self._conn = conn
        self.rows = 0

    def execute(self, *args):
        rows = Rows(self._conn.execute(*args).fetchall())
        self.rows += len(rows)
        return rows

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def __enter__(self):
        return self._conn.__enter__()

    def __exit__(self, *exc):
        return self._conn.__exit__(*exc)


class Rows(list):
    def fetchone(self):
        return self[0] if self else None


class TestCandidateRead:
    """upsert_day reads only the POI that share a MAC with the day, and that changes nothing."""

    def test_equals_matching_against_the_whole_registry(self):
        """Random days of two users that share MACs, against oracles.reference_upsert_day."""
        rnd = random.Random(36)
        skipped = 0
        for _ in range(30):
            threshold = rnd.choice([0.5, 0.7, 0.9])
            places = rnd.randint(2, 12)
            days = {user: random_days(rnd, n_days=6, places=places) for user in ("u", "v")}
            with SummaryStore() as got, SummaryStore() as want:
                for d in range(6):
                    for user in ("u", "v"):
                        clusters = days[user][d]
                        macs = {mac for f, _ in clusters for mac in f.sums}
                        skipped += sum(1 for f in got.fingerprints(user).values()
                                       if not macs & set(f.sums))
                        assert (upsert_day(got, user, clusters, threshold)
                                == reference_upsert_day(want.conn, user, clusters, threshold))
                        assert registry_tables(got.conn) == registry_tables(want.conn)
        assert skipped > 300  # POI the read left out and the reference scored

    def registry_of_three(self, store):
        # POI 1 at {A}, 2 at {B, C}, 3 at {D}: no two share a MAC
        assert upsert_day(store, "u", [
            (fp({A: -50.0}), [visit(0, 20)]),
            (fp({B: -50.0, C: -60.0}), [visit(60, 80)]),
            (fp({D: -70.0}), [visit(120, 140)]),
        ]) == [1, 2, 3]

    def test_a_new_poi_takes_the_highest_id_plus_one_when_that_poi_is_not_read(self):
        with SummaryStore() as store:
            self.registry_of_three(store)
            fresh = fp({"ee:00:00:00:00:05": -50.0})
            assert store.candidates("u", [A, "ee:00:00:00:00:05"]).keys() == {1}
            assert upsert_day(store, "u", [(fp({A: -50.0}), [visit(1440, 1460)]),
                                           (fresh, [visit(1500, 1520)])]) == [1, 4]
            assert upsert_day(store, "u", [(fp({"ff:00:00:00:00:06": -50.0}),
                                            [visit(2880, 2900)])]) == [5]

    def test_a_second_cluster_matches_the_poi_the_first_one_created(self):
        with SummaryStore() as store:
            self.registry_of_three(store)
            fresh = fp({"ee:00:00:00:00:05": -50.0})
            assert upsert_day(store, "u", [(fresh, [visit(1440, 1460)]),
                                           (fresh, [visit(1500, 1520)])]) == [4, 4]
            record = store.records("u")[3]
            assert len(record.visits) == 2 and record.fingerprint.counts == {
                "ee:00:00:00:00:05": 2}

    def test_a_tie_between_two_candidates_breaks_to_the_lower_id(self):
        # POI 2 and 3 score 0.5 against each other, below 0.9, so both are kept
        setup = [(fp({D: -50.0}), [visit(0, 20)]),
                 (fp({A: -50.0, B: -50.0}), [visit(60, 80)]),
                 (fp({A: -50.0, C: -50.0}), [visit(120, 140)])]
        day = [(fp({A: -50.0}), [visit(1440, 1460)])]  # 1/sqrt(2) against POI 2 and 3
        with SummaryStore() as store, SummaryStore() as want:
            assert upsert_day(store, "u", setup, 0.9) == [1, 2, 3]
            reference_upsert_day(want.conn, "u", setup, 0.9)
            assert store.candidates("u", [A]).keys() == {2, 3}
            assert upsert_day(store, "u", day, 0.7) == [2] == reference_upsert_day(
                want.conn, "u", day, 0.7)
            assert registry_tables(store.conn) == registry_tables(want.conn)

    def test_reads_only_the_rows_of_poi_that_share_a_mac(self):
        with SummaryStore() as store:
            self.registry_of_three(store)
            counter = store.conn = RowCounter(store.conn)
            assert upsert_day(store, "u", [(fp({B: -50.0}), [visit(1440, 1460)]),
                                           (fp({"ee:00:00:00:00:05": -50.0}),
                                            [visit(1500, 1520)])]) == [2, 4]
            # POI 2's two rows and the highest poi_id, not the four rows of all three POI
            assert counter.rows == 3
            store.conn = counter._conn

    def test_threshold_outside_zero_one_is_refused_before_any_statement(self):
        with SummaryStore() as store:
            issued = []
            store.conn.set_trace_callback(issued.append)
            for threshold in (0.0, -0.5, 1.5):
                with pytest.raises(ValueError, match="outside"):
                    upsert_day(store, "u", [(fp({A: -50.0}), [visit(0, 20)])], threshold)
            store.conn.set_trace_callback(None)
            assert issued == []


class TestExtractDay:
    def test_equals_the_step_by_step_pipeline(self):
        logs, params = office_days()
        with SummaryStore() as got, SummaryStore() as want:
            for log in logs:
                registered = extract_day(got, upload_of(log), params)
                assert registered == reference_extract(want, log, params)
                assert len(registered) > 1
                assert got.records(log.user) == want.records(log.user)

    def test_all_noise_day_writes_nothing(self):
        # three scans with nothing in common: no scan has min_pts neighbours
        log = build_log("u", "d", [scan(300 * k, [(mac, -50)]) for k, mac in enumerate((A, B, C))])
        with SummaryStore() as store:
            assert extract_day(store, upload_of(log), ClusterParams()) == []
            assert store.users() == []
            assert store.conn.execute("SELECT COUNT(*) FROM poi_visits").fetchone() == (0,)

    def test_one_store_handle_lands_loads_and_registers_each_day(self):
        logs, params = office_days()
        with SummaryStore() as store, SummaryStore() as want:
            store_raw(store, [upload_of(log) for log in logs])
            for log in logs:
                window = (log.entries[0].timestamp, log.entries[-1].timestamp + 1)
                day = store.load_day(log.user, *window)
                assert extract_day(store, day, params) == extract_day(want, upload_of(log), params)
            assert store.records(logs[0].user) == want.records(logs[0].user)

    def test_users_are_those_with_a_poi_and_the_raw_users_those_with_scans(self, tmp_path):
        with SummaryStore(tmp_path / "store.db") as store:
            store_raw(store, [upload_of(build_log("u", "d", [scan(0, [(A, -50)])]))])
            assert store.users() == []
            assert RawStore.users(store) == ["u"]
        with RawStore(tmp_path / "store.db") as raw:
            assert raw.users() == ["u"]

    def test_empty_log_raises(self):
        with SummaryStore() as store:
            with pytest.raises(EmptyLog):
                extract_day(store, upload_of(build_log("u", "d", [])), ClusterParams())


class TestStoreInvariant:
    """Each POI's stored readings are those of the scans inside its visits (oracles)."""

    def test_holds_after_random_days_each_extracted_once(self):
        rnd = random.Random(35)
        for _ in range(6):
            with SummaryStore() as store:
                days = []
                for user in ("u", "v"):
                    for d in range(rnd.randint(1, 3)):
                        start = DAY_START + 86400 * d
                        places = disjoint_places_day(rnd, [rnd.randint(5, 30) for _ in range(3)])
                        scans = [scan(start + 300 * k, row.items()) for k, row in enumerate(places)]
                        store_raw(store, [upload_of(build_log(user, "d", scans))])
                        days.append((user, start))
                for user, start in days:
                    extract_day(store, store.load_day(user, start, start + 86400), ClusterParams())
                assert len(store.fingerprints()) > 2
                assert store_invariant_faults(store) == []

    @pytest.mark.xfail(strict=True, reason="a re-extracted day's earlier scans are counted twice;"
                                           " replacing the day's visits will mend it")
    def test_holds_after_a_late_upload_splits_the_day(self):
        # office-day alice: ingest up to the middle of her second visit,
        # extract, ingest the rest, extract the day again
        scenario = load_scenario("office-day")
        log, truth = generate_trace(scenario.env, scenario.itineraries["alice"],
                                    scenario.scan_interval, np.random.default_rng([0, 0]),
                                    scenario.sigma, user="alice")
        middle = (truth[1].start + truth[1].end) // 2
        params = ClusterParams(scan_interval=scenario.scan_interval)
        window = day_window(time.strftime("%Y-%m-%d", time.gmtime(middle)))
        with SummaryStore() as store:
            for part in ([s for s in log.entries if s.timestamp < middle],
                         [s for s in log.entries if s.timestamp >= middle]):
                store_raw(store, [upload_of(build_log("alice", "d", part))])
                extract_day(store, store.load_day("alice", *window), params)
            assert store_invariant_faults(store) == []


class TestFingerprints:
    def test_order_equals_users_then_records(self):
        rnd = random.Random(33)
        with SummaryStore() as store:
            for user in ("u2", "u10", "U1", "u1"):
                for clusters in random_days(rnd, n_days=3, places=4):
                    upsert_day(store, user, clusters)
            want = [
                ((user, record.poi_id), record.fingerprint)
                for user in store.users()
                for record in store.records(user)
            ]
            assert list(store.fingerprints().items()) == want
            assert len({user for (user, _), _ in want}) == 4

    def test_user_filter_is_that_users_slice(self):
        rnd = random.Random(34)
        with SummaryStore() as store:
            for user in ("u2", "u10", "u1"):
                for clusters in random_days(rnd, n_days=3, places=4):
                    upsert_day(store, user, clusters)
            every = store.fingerprints()
            for user in ("u1", "u10", "u2", "ghost"):
                got = store.fingerprints(user)
                assert list(got.items()) == [(k, f) for k, f in every.items() if k[0] == user]
                assert list(got) == sorted(got)  # one user, so in poi_id order


class TestDailySummary:
    """summary_rows renders (poi_id, visits) pairs as one day's visit table."""

    def test_empty_day(self):
        # the store holds a visit on DAY, but an all-noise run registers none
        noise = build_log("u", "d", [scan(300 * k, [(mac, -50)]) for k, mac in enumerate((A, B, C))])
        with SummaryStore() as store:
            upsert_day(store, "u", [(fp({A: -50.0}), [visit(0, 20)])])
            assert summary_rows(extract_day(store, upload_of(noise), ClusterParams())) == []

    def test_rows_ordered_with_hhmm_rendering(self):
        rows = summary_rows([(1, [visit(0, 20), visit(9 * 60, 9 * 60 + 30)]), (2, [visit(120, 150)])])
        assert rows == [
            (1, "00:00", "00:20"),
            (2, "02:00", "02:30"),
            (1, "09:00", "09:30"),
        ]

    def test_store_with_the_old_label_column_still_works(self, tmp_path):
        # a version-1 store whose poi_properties also holds the unused label
        # column: the open upgrades it, and both old columns go
        with sqlite3.connect(tmp_path / "old.db") as conn:
            conn.execute(
                "CREATE TABLE poi_properties (user TEXT NOT NULL, poi_id INTEGER NOT NULL,"
                " fingerprint TEXT NOT NULL, created_at INTEGER NOT NULL, label TEXT,"
                " PRIMARY KEY (user, poi_id))"
            )
            conn.executescript(VERSION_1_SCHEMA)  # the other tables
            conn.execute("INSERT INTO poi_properties VALUES ('u', 1, ?, ?, 'desk')",
                         (encode_fingerprint_v1({A: -50.0}, {A: 4}), visit(0, 20).start))
            conn.execute("INSERT INTO poi_visits VALUES ('u', 1, ?, ?, 4, 0)",
                         (visit(0, 20).start, visit(0, 20).end))
        conn.close()
        with SummaryStore(tmp_path / "old.db") as store:
            columns = [row[1] for row in store.conn.execute("PRAGMA table_info(poi_properties)")]
            assert columns == ["user", "poi_id", "created_at"]
            assert store.conn.execute("PRAGMA user_version").fetchone() == (2,)
            upsert_day(store, "u", [(fp({A: -50.0}), [visit(60, 80)])])
            stored = [(record.poi_id, record.visits) for record in store.records("u")]
            assert summary_rows(stored) == [(1, "00:00", "00:20"), (1, "01:00", "01:20")]
            assert store.fingerprints() == {("u", 1): Fingerprint({A: -250}, {A: 5})}

    def test_repeat_visit_structure(self):
        # a 12-POI day where ids 1, 9 and 12 recur: 17 rows total
        with SummaryStore() as store:
            macs = ["%02x:00:00:00:00:0%d" % (k, k % 10) for k in range(12)]
            for k, mac in enumerate(macs):
                upsert_day(store, "u", [(fp({mac: -50.0}), [visit(40 * k, 40 * k + 20)])])
            repeats = {1: [(600, 620), (700, 720)], 9: [(640, 660)], 12: [(680, 699), (730, 750)]}
            for poi_id, windows in repeats.items():
                for start, end in windows:
                    upsert_day(store, "u", [(fp({macs[poi_id - 1]: -50.0}), [visit(start, end)])])
            rows = summary_rows((record.poi_id, record.visits) for record in store.records("u"))
            by_id = [r[0] for r in rows]
            assert len(by_id) == 12 + 5
            for poi_id in (1, 9, 12):
                assert by_id.count(poi_id) > 1

    def test_csv_export_shape(self, tmp_path):
        out = tmp_path / "u_day.csv"
        write_summary_csv(summary_rows([(1, [visit(0, 20)])]), out)
        lines = out.read_text().splitlines()
        assert lines[0] == "poi_id,label,start,end"
        assert lines[1] == "1,,00:00,00:20"
