"""Wire codec, gzip batching, upload planning, raw persistence."""
import gzip
import json
import random
import sqlite3

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wifipoi.errors import (
    CorruptStream,
    DuplicateMac,
    EmptyScan,
    MalformedLine,
    MalformedMac,
    RssiOutOfRange,
    StorageFailure,
)
from wifipoi.ingest import (
    IngestReport,
    RawStore,
    compress_batch,
    decode_log,
    decompress_batch,
    encode_log,
    plan_uploads,
    store_raw,
)
from wifipoi.model import ScanLog, ScanResult, build_log
from wifipoi.simgen import AccessPoint, Environment, ItineraryEntry, Place, generate_trace

A = "aa:00:00:00:00:01"
B = "bb:00:00:00:00:02"


def scan(t, obs):
    return ScanResult(timestamp=t, observations=tuple(sorted(obs)))


def small_log(n=3, t0=1_700_000_000):
    return build_log("u", "dev1", [scan(t0 + 300 * i, [(A, -50 - i), (B, -70)]) for i in range(n)])


mac_st = st.sampled_from([A, B, "cc:00:00:00:00:03", "dd:00:00:00:00:04"])
scan_st = st.builds(
    scan,
    st.integers(0, 2_000_000_000),
    st.dictionaries(mac_st, st.integers(-100, -1), min_size=1, max_size=4).map(
        lambda d: list(d.items())
    ),
)
log_st = st.builds(
    lambda scans: build_log("u", "dev1", scans),
    st.lists(scan_st, min_size=0, max_size=12, unique_by=lambda s: s.timestamp),
)


class TestEncode:
    def test_empty_log_is_empty_stream(self):
        assert encode_log(ScanLog(user="u", device="d", entries=())) == b""

    def test_single_scan_wire_bytes(self):
        log = build_log("u", "d", [scan(1_700_000_000, [(A, -50), (B, -70)])])
        assert encode_log(log) == (
            b'{"t":1700000000,"dev":"d","aps":[["aa:00:00:00:00:01",-50],'
            b'["bb:00:00:00:00:02",-70]]}\n'
        )

    @given(log_st)
    def test_roundtrip(self, log):
        decoded = decode_log(encode_log(log), user="u")
        assert decoded.entries == log.entries
        # the wire carries the device per line, so an empty stream
        # cannot know it
        if log.entries:
            assert decoded.device == log.device


class TestDecodeErrors:
    def good_line(self):
        return b'{"t":100,"dev":"d","aps":[["aa:00:00:00:00:01",-50]]}\n'

    def test_rssi_out_of_range_names_the_line(self):
        data = self.good_line() + b'{"t":400,"dev":"d","aps":[["aa:00:00:00:00:01",5]]}\n'
        with pytest.raises(RssiOutOfRange, match="line 2"):
            decode_log(data)

    def test_bytes_that_are_not_utf8_name_the_line(self):
        # with bad bytes replaced, both devices would read 'ph\ufffdone' and agree
        data = (
            b'{"t":100,"dev":"ph\xffone","aps":[["aa:00:00:00:00:01",-50]]}\n'
            b'{"t":400,"dev":"ph\xfeone","aps":[["aa:00:00:00:00:01",-50]]}\n'
        )
        with pytest.raises(MalformedLine, match="line 1: not UTF-8"):
            decode_log(data)
        with pytest.raises(MalformedLine, match="line 2: not UTF-8"):
            decode_log(self.good_line() + b"\xff\n")

    def test_truncated_final_line(self):
        data = self.good_line() + b'{"t":400,"dev":"d","aps":[["aa:'
        with pytest.raises(MalformedLine, match="line 2"):
            decode_log(data)

    def test_malformed_mac(self):
        with pytest.raises(MalformedMac):
            decode_log(b'{"t":100,"dev":"d","aps":[["zz:zz",-50]]}\n')

    def test_malformed_mac_names_the_line(self):
        data = self.good_line() + b'{"t":400,"dev":"d","aps":[["zz:00:00:00:00:01",-50]]}\n'
        with pytest.raises(MalformedMac, match="line 2"):
            decode_log(data)

    def test_mac_spelled_two_ways_is_a_duplicate(self):
        line = b'{"t":100,"dev":"d","aps":[["AA-00-00-00-00-01",-50],["aa:00:00:00:00:01",-60]]}'
        with pytest.raises(MalformedLine, match="duplicate mac aa:00:00:00:00:01"):
            decode_log(line + b"\n")

    def test_each_spelling_decodes_to_the_canonical_mac(self):
        data = (
            b'{"t":100,"dev":"d","aps":[["AA-00-00-00-00-01",-50]]}\n'
            b'{"t":400,"dev":"d","aps":[["aa:00:00:00:00:01",-51]]}\n'
            b'{"t":700,"dev":"d","aps":[["AA-00-00-00-00-01",-52]]}\n'
        )
        assert [s.observations for s in decode_log(data).entries] == [
            ((A, -50),), ((A, -51),), ((A, -52),),
        ]

    @pytest.mark.parametrize(
        "line",
        [
            b'{"t":100,"dev":"d"}',
            b'{"t":100,"dev":"d","aps":[],"x":1}',
            b'{"t":"100","dev":"d","aps":[["aa:00:00:00:00:01",-50]]}',
            b'{"t":true,"dev":"d","aps":[["aa:00:00:00:00:01",-50]]}',
            b'{"t":100,"dev":7,"aps":[["aa:00:00:00:00:01",-50]]}',
            b'{"t":100,"dev":"d","aps":[]}',
            b'{"t":100,"dev":"d","aps":[["aa:00:00:00:00:01",-50.5]]}',
            b'{"t":100,"dev":"d","aps":[["aa:00:00:00:00:01",-50],["aa:00:00:00:00:01",-60]]}',
            b"[1,2,3]",
        ],
    )
    def test_rejected_lines(self, line):
        with pytest.raises(MalformedLine):
            decode_log(line + b"\n")

    def test_duplicate_timestamp_rejected(self):
        with pytest.raises(MalformedLine, match="line 2"):
            decode_log(self.good_line() + self.good_line())

    def test_device_must_be_consistent(self):
        other = b'{"t":400,"dev":"e","aps":[["aa:00:00:00:00:01",-50]]}\n'
        with pytest.raises(MalformedLine, match="line 2"):
            decode_log(self.good_line() + other)

    def test_blank_lines_skipped(self):
        data = b"\n" + self.good_line() + b"\n\n"
        assert len(decode_log(data)) == 1


def build_reason(scan):
    """None if build_log accepts the scan, else why it rejects it."""
    try:
        build_log("u", "d", [scan])
    except RssiOutOfRange:
        return "range"
    except DuplicateMac:
        return "duplicate"
    except EmptyScan:
        return "empty"
    return None


def decode_reason(line):
    """None if decode_log accepts the wire line, else why it rejects it."""
    try:
        decode_log(line.encode())
    except RssiOutOfRange as exc:
        assert str(exc).startswith("line 1: ")
        return "range"
    except MalformedLine as exc:
        assert exc.line_no == 1
        if exc.reason.startswith("duplicate mac "):
            return "duplicate"
        if exc.reason == "aps must be a non-empty list":
            return "empty"
        raise
    return None


class TestOnePolicy:
    @given(st.lists(st.tuples(mac_st, st.integers(-103, 2), st.booleans()), max_size=5))
    def test_build_log_and_decode_log_reject_alike(self, readings):
        # the wire may spell a MAC in upper case with hyphens; both
        # sides must see the canonical MAC, so a respelled MAC is a duplicate
        scan_ = ScanResult(100, tuple((mac, rssi) for mac, rssi, _ in readings))
        aps = [[mac.upper().replace(":", "-") if loud else mac, rssi] for mac, rssi, loud in readings]
        line = json.dumps({"t": 100, "dev": "d", "aps": aps}) + "\n"
        reason = build_reason(scan_)
        assert decode_reason(line) == reason
        if reason is None:
            assert decode_log(line.encode()).entries == build_log("u", "d", [scan_]).entries


class TestGzip:
    @given(st.binary(max_size=2048))
    def test_roundtrip_identity(self, payload):
        assert decompress_batch(compress_batch(payload)) == payload

    def test_empty_payload_is_a_valid_member(self):
        blob = compress_batch(b"")
        assert decompress_batch(blob) == b""
        assert gzip.decompress(blob) == b""

    def test_deterministic_bytes(self):
        data = encode_log(small_log())
        assert compress_batch(data) == compress_batch(data)

    @pytest.mark.parametrize("junk", [b"", b"not gzip at all", b"\x1f\x8b\x08\x00trunc"])
    def test_corrupt_stream(self, junk):
        with pytest.raises(CorruptStream):
            decompress_batch(junk)

    def test_six_hour_stationary_log_compresses_fifty_fold(self):
        rng = np.random.default_rng(5)
        aps = tuple(
            AccessPoint("02:00:00:00:00:%02x" % k, float(rng.uniform(-8, 8)),
                        float(rng.uniform(-8, 8)))
            for k in range(30)
        )
        env = Environment(aps=aps, places=(Place("desk", 0.0, 0.0),))
        itinerary = (ItineraryEntry("desk", 1_700_000_000, 1_700_000_000 + 6 * 3600),)
        log, _ = generate_trace(env, itinerary, 300, rng_seed=7, noise_sigma=0.0)
        raw = encode_log(log)
        assert len(log) == 72
        assert len(raw) >= 50 * len(compress_batch(raw))


class TestPlanUploads:
    def test_full_day_makes_four_batches(self):
        scans = [scan(300 * i, [(A, -50)]) for i in range(288)]
        batches = plan_uploads(build_log("u", "d", scans), period=21600)
        assert len(batches) == 4
        assert [b.span for b in batches] == [
            (0, 21600), (21600, 43200), (43200, 64800), (64800, 86400),
        ]

    def test_short_log_is_one_batch(self):
        assert len(plan_uploads(small_log())) == 1

    def test_bad_period(self):
        with pytest.raises(ValueError):
            plan_uploads(small_log(), period=0)

    @given(log_st.filter(lambda log: len(log) > 0), st.sampled_from([900, 3600, 21600]))
    @settings(deadline=None)
    def test_batches_reconstruct_log_exactly(self, log, period):
        batches = plan_uploads(log, period)
        rebuilt: list[ScanResult] = []
        for batch in batches:
            assert batch.device == log.device
            lo, hi = batch.span
            assert hi - lo == period and lo % period == 0
            for s in batch.scans:
                assert lo <= s.timestamp < hi
            rebuilt.extend(batch.scans)
        assert tuple(rebuilt) == log.entries

    def test_batch_payload_decodes(self):
        batch = plan_uploads(small_log())[0]
        decoded = decode_log(encode_log(ScanLog("u", batch.device, batch.scans)), user="u")
        assert decoded.entries == small_log().entries


class TestRawStore:
    def test_reingest_is_all_skipped(self):
        with RawStore() as store:
            log = small_log()
            first = store_raw(store, [log])[0]
            again = store_raw(store, [log])[0]
            assert first.added == 6 and first.skipped == 0
            assert again.added == 0 and again.skipped == 6

    def test_two_users_same_timestamps_coexist(self):
        with RawStore() as store:
            log_u = small_log()
            log_v = ScanLog(user="v", device="dev2", entries=log_u.entries)
            store_raw(store, [log_u])
            report = store_raw(store, [log_v])[0]
            assert report.added == 6
            assert store.users() == ["u", "v"]

    def test_has_user_is_an_indexed_lookup(self):
        with RawStore() as store:
            store_raw(store, [small_log()])
            store_raw(store, [ScanLog(user="uv", device="d", entries=small_log().entries)])
            for name in ("u", "uv", "v", "", "U"):
                assert store.has_user(name) == (name in store.users())
            issued = []
            store.conn.set_trace_callback(issued.append)
            store.has_user("u")
            store.conn.set_trace_callback(None)
            (plan,) = store.conn.execute("EXPLAIN QUERY PLAN " + issued[0]).fetchall()
            assert plan[3].startswith("SEARCH raw_observations")

    def test_random_interleaving_matches_set_union(self):
        rnd = random.Random(27)
        rows: set[tuple[str, int, str, int]] = set()
        batches = []
        for _ in range(12):
            user = rnd.choice(["u", "v"])
            first: dict[int, ScanResult] = {}
            for _ in range(rnd.randint(1, 6)):
                t = 300 * rnd.randint(0, 40)
                # build_log rejects a repeated timestamp; keep the first draw
                first.setdefault(t, scan(t, [(rnd.choice([A, B]), rnd.randint(-90, -40))]))
            batches.append((user, build_log(user, "d", first.values())))
        with RawStore() as store:
            for user, log in batches:
                store_raw(store, [log])
                for entry in log.entries:
                    for mac, rssi in entry.observations:
                        # first write of a (user,t,mac) key wins
                        if not any(r[:3] == (user, entry.timestamp, mac) for r in rows):
                            rows.add((user, entry.timestamp, mac, rssi))
            stored = set(
                store.conn.execute("SELECT user, t, mac, rssi FROM raw_observations")
            )
            assert stored == rows
            # one scan per t, however many uploads carried its readings
            for user in ("u", "v"):
                by_time: dict[int, list[tuple[str, int]]] = {}
                for u, t, mac, rssi in sorted(rows):
                    if u == user:
                        by_time.setdefault(t, []).append((mac, rssi))
                want = tuple(ScanResult(t, tuple(obs)) for t, obs in by_time.items())
                assert store.load_log(user, 0, 300 * 41).entries == want
        # the same batches fed to one call land the same rows
        with RawStore() as store:
            reports = store_raw(store, (log for _, log in batches))
            assert rows_of(store) == rows
            assert sum(r.added for r in reports) == len(rows)
            assert [r.added + r.skipped for r in reports] == [
                sum(len(s.observations) for s in log.entries) for _, log in batches
            ]

    def test_load_log_window(self):
        with RawStore() as store:
            store_raw(store, [small_log()])
            full = store.load_log("u", 1_700_000_000, 1_700_000_900)
            assert len(full) == 3
            window = store.load_log("u", lo=1_700_000_300, hi=1_700_000_600)
            assert [s.timestamp for s in window.entries] == [1_700_000_300]

    def test_one_call_is_one_commit(self, commit_counter):
        a = small_log()
        b = ScanLog(user="v", device="dev2", entries=a.entries)
        with RawStore() as store:
            commit_counter.attach(store.conn)
            reports = store_raw(store, [a, b, a])
            assert commit_counter.commits == 1
        assert reports == [IngestReport(6, 0), IngestReport(6, 0), IngestReport(0, 6)]

    def test_storage_failure_on_second_log_keeps_nothing(self):
        with RawStore() as store:
            store_raw(store, [small_log()])
            before = rows_of(store)
            real = store.conn
            store.conn = FailingExecutemany(real, fail_on=2)
            with pytest.raises(StorageFailure, match="'v'"):
                store_raw(store, [small_log(t0=1_800_000_000),
                                  ScanLog(user="v", device="d", entries=small_log().entries)])
            store.conn = real
            assert rows_of(store) == before

    def test_input_error_from_the_logs_keeps_nothing(self):
        def logs():
            yield small_log()
            decode_log(b"not json\n")
            yield small_log(t0=1_800_000_000)  # never reached

        with RawStore() as store:
            with pytest.raises(MalformedLine, match="line 1"):
                store_raw(store, logs())
            assert rows_of(store) == set()


def rows_of(store):
    return set(store.conn.execute("SELECT user, t, mac, rssi FROM raw_observations"))


class FailingExecutemany:
    """Forwards to a real connection; the nth executemany fails."""

    def __init__(self, conn, fail_on):
        self._conn = conn
        self._calls = 0
        self._fail_on = fail_on

    def executemany(self, *args, **kwargs):
        self._calls += 1
        if self._calls == self._fail_on:
            raise sqlite3.OperationalError("disk I/O error (injected)")
        return self._conn.executemany(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def __enter__(self):
        return self._conn.__enter__()

    def __exit__(self, *exc):
        return self._conn.__exit__(*exc)
