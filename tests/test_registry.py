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

from oracles import MAC_POOL, naive_fingerprint
from wifipoi.clustering import VisitInterval, dbscan, segment_visits
from wifipoi.errors import EmptyCluster, EmptyFingerprint, EmptyLog, StorageFailure
from wifipoi.ingest import RawStore, store_raw, upload_of
from wifipoi.model import ClusterParams, Fingerprint, ScanResult, build_log
from wifipoi.registry import (
    SummaryStore,
    build_fingerprint,
    day_window,
    decode_fingerprint,
    encode_fingerprint,
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

DAY = "2026-03-02"
DAY_START = day_window(DAY)[0]


def scan(t, obs):
    return ScanResult(timestamp=t, observations=tuple(sorted(obs)))


def fp(mapping, counts=None):
    return Fingerprint(rssi=dict(mapping), counts=counts or {m: 1 for m in mapping})


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
                assert {type(v) for v in got.rssi.values()} == {float}
                assert {type(c) for c in got.counts.values()} == {int}

    def test_long_cluster_at_the_floor_does_not_overflow(self):
        # 400 readings of -100 sum to -40000, beyond an int8 or int16 accumulator
        scans = [scan(300 * k, [(A, -100)] + ([(B, -100)] if k % 2 else [])) for k in range(400)]
        got = matrix_fp(scans)
        assert got == Fingerprint(*naive_fingerprint(s.observations for s in scans))
        assert got.rssi == {A: -100.0, B: -100.0} and got.counts == {A: 400, B: 200}

    def test_matrix_fingerprint_round_trips_through_encoding(self):
        rnd = random.Random(42)
        scans = [scan(300 * k, [(mac, rnd.randint(-90, -40)) for mac in (A, B, C)
                                if rnd.random() < 0.7] or [(A, -50)]) for k in range(30)]
        got = matrix_fp(scans)
        assert decode_fingerprint(encode_fingerprint(got)) == got


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

    def test_a_mean_off_in_its_last_bits_merges_as_its_exact_sum(self):
        # -52.00000000000001 stands for -260 / 5 as an older weighted
        # merge could store it; the next merge lands on the exact mean
        merged = merge_fingerprints(fp({A: -52.00000000000001}, {A: 5}), fp({A: -61.0}, {A: 2}))
        assert merged.rssi == {A: -382 / 7} and merged.counts == {A: 7}


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


class TestFingerprintCodec:
    def test_blob_is_sorted_triples(self):
        blob = encode_fingerprint(fp({B: -60.0, A: -50.5}, {B: 3, A: 2}))
        assert blob == f"{A}:-50.5:2;{B}:-60.0:3"

    def test_roundtrip_bit_exact(self):
        rnd = random.Random(7)
        for _ in range(50):
            original = fp(
                {m: rnd.uniform(-95.0, -30.0) for m in (A, B, C)},
                {A: 1, B: 7, C: 12},
            )
            decoded = decode_fingerprint(encode_fingerprint(original))
            assert decoded == original


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

    def test_mean_not_of_whole_dbm_is_refused_before_any_statement(self):
        with SummaryStore() as store:
            upsert_day(store, "u", [(fp({A: -50.0}), [visit(0, 20)])])
            before = store.records("u")
            issued = []
            store.conn.set_trace_callback(issued.append)
            with pytest.raises(ValueError, match=rf"user 'u': MAC {A}: mean -41\.3 is"):
                upsert_day(store, "u", [(fp({B: -60.0}), [visit(60, 80)]),
                                        (fp({A: -41.3}, {A: 1}), [visit(120, 140)])])
            store.conn.set_trace_callback(None)
            assert issued == []
            assert store.records("u") == before

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
        # call 1 opens the transaction, 2 reads the registry, 3 inserts
        # the new POI row, 4 adds the first visit; failing on call 5
        # leaves a half-done upsert that the transaction must roll back
        store.conn = FaultyConn(real, fail_after=4)
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
        # BEGIN and 1 read, then per cluster a POI row and one visit:
        # 8 calls; the last one, the third cluster's visit, fails
        store.conn = FaultyConn(real, fail_after=7)
        with pytest.raises(StorageFailure):
            upsert_day(store, "u", [
                (fp({B: -60.0}), [visit(60, 80)]),
                (fp({C: -60.0}), [visit(120, 140)]),
                (fp({"dd:00:00:00:00:04": -60.0}), [visit(180, 200)]),
            ])
        assert store.conn._calls == 8
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
fp = Fingerprint(rssi={"aa:00:00:00:00:01": -50.0, "bb:00:00:00:00:02": -60.0},
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
        read_registry = b.fingerprints
        raced = []

        def read_then_race(user):
            # B has read the registry; A must not land a day under it
            fingerprints = read_registry(user)
            with pytest.raises(StorageFailure, match="database is locked"):
                upsert_day(a, "u", day_a)
            raced.append(user)
            return fingerprints

        b.fingerprints = read_then_race
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
        with sqlite3.connect(tmp_path / "old.db") as conn:
            conn.execute(
                "CREATE TABLE poi_properties (user TEXT NOT NULL, poi_id INTEGER NOT NULL,"
                " fingerprint TEXT NOT NULL, created_at INTEGER NOT NULL, label TEXT,"
                " PRIMARY KEY (user, poi_id))"
            )
            conn.executescript(RawStore.SCHEMA)  # the other tables; a file without them is no store
        conn.close()
        with SummaryStore(tmp_path / "old.db") as store:
            upsert_day(store, "u", [(fp({A: -50.0}), [visit(0, 20)])])
            upsert_day(store, "u", [(fp({A: -50.0}), [visit(60, 80)])])
            stored = [(record.poi_id, record.visits) for record in store.records("u")]
            assert summary_rows(stored) == [(1, "00:00", "00:20"), (1, "01:00", "01:20")]

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
