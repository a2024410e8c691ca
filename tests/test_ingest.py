"""Wire codec, gzip batching, upload planning, raw persistence."""
import gzip
import json
import os
import random
import sqlite3
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import VERSION_1_SCHEMA, day_rows, encode_fingerprint_v1, scan_columns
from wifipoi.errors import (
    CorruptStream, DuplicateTimestamp, MalformedLine, PoiError, StorageFailure,
)
from wifipoi.ingest import (
    IngestReport,
    RawStore,
    compress_batch,
    decode_log,
    decode_upload,
    decompress_batch,
    encode_log,
    plan_uploads,
    store_raw,
    upload_of,
)
from wifipoi import ingest
from wifipoi.model import T_MAX, T_MIN, Fingerprint, ScanLog, ScanResult, build_log
from wifipoi.registry import SummaryStore
from wifipoi.similarity import _score_blocks, mac_matrix
from wifipoi.simgen import (
    AccessPoint, Environment, ItineraryEntry, Place, generate_trace, load_scenario,
)

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
scans_st = st.lists(scan_st, min_size=0, max_size=12, unique_by=lambda s: s.timestamp)
log_st = st.builds(lambda scans: build_log("u", "dev1", scans), scans_st)


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


FIELDS = "expected exactly the fields ['t', 'dev', 'aps']"
PAIRS = "aps must be a list of [mac, rssi] pairs"
# Each malformed line with the reason decode_log gives: the JSON shape's
# own, or the reason validate_scan gives for the scan.
REJECTED_LINES = {
    b'{"t":100,"dev":"d"}': FIELDS,
    b'{"t":100,"dev":"d","aps":[],"x":1}': FIELDS,
    b'{"t":"100","dev":"d","aps":[["aa:00:00:00:00:01",-50]]}': "timestamp '100' is not an integer",
    b'{"t":true,"dev":"d","aps":[["aa:00:00:00:00:01",-50]]}': "timestamp True is not an integer",
    b'{"t":100,"dev":7,"aps":[["aa:00:00:00:00:01",-50]]}': "dev must be a string",
    b'{"t":100,"dev":"d","aps":[]}': "scan at t=100 has no readings",
    b'{"t":100,"dev":"d","aps":[["aa:00:00:00:00:01",-50.5]]}': "rssi -50.5 outside [-100, -1]",
    b'{"t":100,"dev":"d","aps":[["aa:00:00:00:00:01",-50],["aa:00:00:00:00:01",-60]]}':
        "duplicate mac aa:00:00:00:00:01",
    b"[1,2,3]": FIELDS,
    b'{"t":100,"dev":"d","aps":5}': PAIRS,
    b'{"t":100,"dev":"d","aps":[["aa:00:00:00:00:01"]]}': PAIRS,
    b'{"t":100,"dev":"d","aps":[[7,-50]]}': "mac 7 is not a string",
    b'{"t":100,"dev":"d","aps":[[["aa:00:00:00:00:01"],-50]]}':
        "mac ['aa:00:00:00:00:01'] is not a string",
}


class TestDecodeErrors:
    def good_line(self):
        return b'{"t":100,"dev":"d","aps":[["aa:00:00:00:00:01",-50]]}\n'

    def test_rssi_out_of_range_names_the_line(self):
        data = self.good_line() + b'{"t":400,"dev":"d","aps":[["aa:00:00:00:00:01",5]]}\n'
        with pytest.raises(MalformedLine) as info:
            decode_log(data)
        assert (info.value.line_no, info.value.reason) == (2, "rssi 5 outside [-100, -1]")

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
        with pytest.raises(MalformedLine) as info:
            decode_log(b'{"t":100,"dev":"d","aps":[["zz:zz",-50]]}\n')
        assert (info.value.line_no, info.value.reason) == (
            1, "not a 48-bit MAC address: 'zz:zz'",
        )

    def test_malformed_mac_names_the_line(self):
        data = self.good_line() + b'{"t":400,"dev":"d","aps":[["zz:00:00:00:00:01",-50]]}\n'
        with pytest.raises(MalformedLine) as info:
            decode_log(data)
        assert (info.value.line_no, info.value.reason) == (
            2, "not a 48-bit MAC address: 'zz:00:00:00:00:01'",
        )

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

    @pytest.mark.parametrize("line", list(REJECTED_LINES))
    def test_rejected_lines(self, line):
        with pytest.raises(MalformedLine) as info:
            decode_log(line + b"\n")
        assert (info.value.line_no, info.value.reason) == (1, REJECTED_LINES[line])

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


def mostly(valid, odd):
    """Draws from `valid` three times in four, else from `odd`."""
    return st.integers(0, 3).flatmap(lambda k: odd if k == 3 else valid)


# What either door may be handed: JSON's types, and what code may build.
mac_value_st = mostly(
    st.one_of(mac_st, mac_st.map(lambda mac: mac.upper().replace(":", "-"))),
    st.sampled_from(["zz:00:00:00:00:01", "aa:00", 7, None]),
)
rssi_value_st = mostly(
    st.integers(-100, -1),
    st.one_of(
        st.integers(-103, 2),
        st.integers(-103, 2).map(float),
        st.sampled_from([-50.5, True, False]),
        st.integers(-103, 2).map(np.int64),
    ),
)
time_value_st = mostly(
    st.integers(0, 2_000_000_000),
    st.sampled_from([100.0, 1.5, True, "100", np.int64(100)]),
)
scan_value_st = st.builds(
    ScanResult, time_value_st,
    st.lists(st.tuples(mac_value_st, rssi_value_st), max_size=3).map(tuple),
)


def build_reason(scan):
    """None if build_log accepts the scan, else the policy error it raises."""
    try:
        build_log("u", "d", [scan])
    except PoiError as exc:
        return type(exc)
    return None


def decode_reason(line):
    """None if decode_log accepts the wire line, else the policy error behind it."""
    try:
        decode_log(line.encode())
    except MalformedLine as exc:
        assert exc.line_no == 1
        assert exc.reason == str(exc.__cause__)
        return type(exc.__cause__)
    return None


def wire_line(scan):
    # JSON has no numpy integer, so one goes over as its text, which is
    # no integer either
    record = {"t": scan.timestamp, "dev": "d", "aps": [list(ap) for ap in scan.observations]}
    return json.dumps(record, default=str) + "\n"


class TestOnePolicy:
    @given(scan_value_st)
    def test_build_log_and_decode_log_reject_alike(self, scan_):
        line = wire_line(scan_)
        reason = build_reason(scan_)
        assert decode_reason(line) == reason
        if reason is None:
            assert decode_log(line.encode()).entries == build_log("u", "d", [scan_]).entries

    @given(st.lists(scan_value_st, max_size=2))
    @settings(max_examples=300)
    def test_every_log_build_log_accepts_round_trips(self, scans):
        try:
            log = build_log("u", "d", scans)
        except PoiError:
            return
        assert decode_log(encode_log(log), user="u").entries == log.entries

    def test_a_respelled_ap_scores_as_the_same_ap(self):
        built = build_log("u", "d", [scan(100, [("AA-00-00-00-00-01", -50), (B, -70)])])
        decoded = decode_log(
            b'{"t":100,"dev":"d","aps":[["aa:00:00:00:00:01",-50],["BB-00-00-00-00-02",-70]]}\n'
        )
        _, x = mac_matrix([built.entries[0].observations, decoded.entries[0].observations])
        ((_, block),) = _score_blocks(x)
        assert block[0, 1] == 1.0


def assert_scans(day):
    """The invariants that Scans documents."""
    assert (day.times.dtype, day.counts.dtype, day.ids.dtype, day.rssi.dtype) == (
        np.int64, np.int64, np.int64, np.int8)
    assert len(day.counts) == len(day.times)
    assert int(day.counts.sum()) == len(day.ids) == len(day.rssi)
    assert (np.diff(day.times) > 0).all() and (day.counts > 0).all()
    assert ((day.ids >= 0) & (day.ids < len(day.macs))).all()
    assert len(set(day.macs)) == len(day.macs)
    for ids, _ in scan_columns(day):  # in MAC order, so no MAC twice in a scan
        macs = [day.macs[i] for i in ids.tolist()]
        assert macs == sorted(set(macs))


def upload_entries(upload):
    """Scans' columns as the ScanResults decode_log gives."""
    return tuple(ScanResult(t, tuple(row.items())) for t, row in day_rows(upload))


def decoded(decode, data):
    """What a decoder makes of the bytes: its user and scans, or the fault's line and reason.

    decode_upload keeps no device, so a device is compared only by
    whether the upload is accepted.
    """
    try:
        result = decode(data, user="u")
    except MalformedLine as exc:
        return exc.line_no, exc.reason
    if isinstance(result, ScanLog):
        return result.user, result.entries
    assert_scans(result)
    assert list(result.macs) == sorted(result.macs)
    return result.user, upload_entries(result)


# One line's faults, and the oddities decode_log accepts ("pad", "spell",
# and "empty-dev", a line with an empty device, which leaves it unnamed
# wherever it stands).
WIRE_MACS = [A, B, "cc:00:00:00:00:03", A.upper().replace(":", "-"), "CC-00-00-00-00-03"]
LINE_FAULTS = {
    "t": [T_MIN - 1, T_MAX + 1, 10**23, -(10**23), 1.5, 300.0, True, "300", None],
    "dev": ["e", 7, None, ["d"]],
    "aps": [[], 5, "aps", {"a": 1}],
    "ap": [[A], [A, -50, -50], "xy", {"a": 1, "b": 2}, 5, []],
    "mac": ["zz:00:00:00:00:01", "aa:00", "", 7, None, [A]],
    "rssi": [-101, 0, 5, -50.0, -50.5, True, False, None, "-50", 10**30, -(2**63)],
    "drop": ["t", "dev", "aps"],
    "raw": [b"", b"  ", b"\t", b"\xff\xfe", b"{", *REJECTED_LINES],
}
LINE_KINDS = [*LINE_FAULTS, "extra", "cut", "twice", "repeat-t", "pad", "spell", "empty-dev"]


def wire_record(t, aps):
    return {"t": t, "dev": "d", "aps": [list(ap) for ap in aps]}


def odd_line(record, kind, value, k, earlier_t):
    """The record's line with one fault or oddity of `kind`; k picks a reading."""
    aps = record["aps"]
    if kind in ("t", "dev", "aps"):
        record[kind] = value
    elif kind == "ap":
        aps[k] = value
    elif kind in ("mac", "rssi"):
        aps[k][kind == "rssi"] = value
    elif kind == "drop":
        del record[value]
    elif kind == "extra":
        record["x"] = 1
    elif kind == "twice":
        aps.append([aps[k][0].swapcase().replace(":", "-"), -60])
    elif kind == "repeat-t":
        record["t"] = earlier_t
    elif kind == "spell":
        aps[k][0] = aps[k][0].upper().replace(":", "-")
    elif kind == "empty-dev":
        record["dev"] = ""
    line = json.dumps(record).encode()
    if kind == "raw":
        return value
    if kind == "cut":
        return line[:value % len(line)]
    return b" " + line + b" \r" if kind == "pad" else line


readings_st = st.lists(st.tuples(st.sampled_from(WIRE_MACS), st.integers(-100, -1)),
                       min_size=2, max_size=3, unique_by=lambda ap: ap[0].lower()[-2:])


@st.composite
def wire_upload_st(draw):
    """Clean lines, then at most one line with a fault or an oddity, at any position."""
    times = draw(st.lists(st.sampled_from([T_MIN, T_MAX, *range(0, 6000, 300)]),
                          max_size=4, unique=True))
    lines = [json.dumps(wire_record(t, draw(readings_st))).encode() for t in times]
    kind = draw(st.sampled_from([None, *LINE_KINDS]))
    if kind is not None:
        record = wire_record(6000, draw(readings_st))
        value = draw(st.sampled_from(LINE_FAULTS[kind]) if kind in LINE_FAULTS
                     else st.integers(0, 200))
        line = odd_line(record, kind, value, draw(st.integers(0, 1)), times[0] if times else 0)
        lines.insert(draw(st.integers(0, len(lines))), line)
    return b"\n".join(lines)


class TestColumnDecode:
    @given(wire_upload_st())
    @settings(max_examples=600, deadline=None)
    def test_decode_upload_agrees_with_decode_log(self, data):
        assert decoded(decode_upload, data) == decoded(decode_log, data)

    def test_every_fault_amid_clean_lines(self):
        for kind in LINE_KINDS:
            for value in LINE_FAULTS.get(kind, [7]):
                for at in range(3):
                    lines = [json.dumps(wire_record(t, [(A, -50), (B, -60)])).encode()
                             for t in (300, 600)]
                    odd = odd_line(wire_record(900, [(A, -51), (B, -61)]), kind, value, at % 2,
                                   300)
                    data = b"\n".join([*lines[:at], odd, *lines[at:]])
                    assert decoded(decode_upload, data) == decoded(decode_log, data), \
                        (kind, value, at)

    @given(log_st)
    def test_an_encoded_log_decodes_to_its_entries(self, log):
        upload = upload_of(log)
        assert_scans(upload)
        assert (upload.user, upload_entries(upload)) == (log.user, log.entries)

    @given(wire_upload_st(), st.sets(st.integers(0, 4)))
    @settings(max_examples=300, deadline=None)
    def test_an_accepted_upload_is_accepted_with_its_lines_reversed(self, data, unnamed):
        # the lines in `unnamed` leave the device empty
        lines = [line.replace(b'"dev": "d"', b'"dev": ""') if k in unnamed else line
                 for k, line in enumerate(data.split(b"\n"))]
        try:
            log = decode_log(b"\n".join(lines), user="u")
        except MalformedLine:
            return
        backwards = b"\n".join(lines[::-1])
        want = ("u", log.entries)
        assert decoded(decode_log, backwards) == decoded(decode_upload, backwards) == want
        assert decode_log(backwards).device == log.device

    @pytest.mark.parametrize("devs, device", [
        (["", "d"], "d"), (["d", ""], "d"), (["d", "", "d"], "d"), (["", ""], ""),
        (["d", "", "e"], "device 'e' conflicts with 'd'")])
    def test_an_empty_device_is_unnamed_wherever_it_stands(self, devs, device):
        data = b"\n".join(json.dumps({**wire_record(300 * k, [(A, -50)]), "dev": dev}).encode()
                           for k, dev in enumerate(devs))
        assert decoded(decode_upload, data) == decoded(decode_log, data)
        try:
            got = decode_log(data).device
        except MalformedLine as exc:
            got = exc.reason
        assert got == device  # the device, or the refusal's reason

    def test_a_refusal_decode_log_does_not_explain_is_a_fault(self, monkeypatch):

        # the column check never hands over an upload the policy accepts
        monkeypatch.setattr(ingest, "_columns", lambda text, user: None)
        with pytest.raises(RuntimeError, match="refused an upload that decode_log accepts"):
            decode_upload(encode_log(small_log()))


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
            first = store_raw(store, [upload_of(log)])[0]
            again = store_raw(store, [upload_of(log)])[0]
            assert first.added == 6 and first.skipped == 0
            assert again.added == 0 and again.skipped == 6

    def test_two_users_same_timestamps_coexist(self):
        with RawStore() as store:
            log_u = small_log()
            log_v = ScanLog(user="v", device="dev2", entries=log_u.entries)
            store_raw(store, [upload_of(log_u)])
            report = store_raw(store, [upload_of(log_v)])[0]
            assert report.added == 6
            assert store.users() == ["u", "v"]

    def test_has_user_is_an_indexed_lookup(self):
        with RawStore() as store:
            store_raw(store, [upload_of(small_log())])
            uv = ScanLog(user="uv", device="d", entries=small_log().entries)
            store_raw(store, [upload_of(uv)])
            for name in ("u", "uv", "v", "", "U"):
                assert store.has_user(name) == (name in store.users())
            issued = []
            store.conn.set_trace_callback(issued.append)
            store.has_user("u")
            store.conn.set_trace_callback(None)
            (plan,) = store.conn.execute("EXPLAIN QUERY PLAN " + issued[0]).fetchall()
            assert plan[3].startswith("SEARCH raw_scans")

    def test_random_interleaving_matches_set_union(self):
        # The store holds the union of the distinct scans: the first scan
        # of a (user, t) is kept, an identical resend is skipped, and a
        # differing one refuses its call and leaves the store unchanged.
        rnd = random.Random(27)
        batches = []
        for _ in range(16):
            user = rnd.choice(["u", "v"])
            first: dict[int, ScanResult] = {}
            for _ in range(rnd.randint(1, 6)):
                t = 300 * rnd.randint(0, 40)
                readings = {A: -40 - t // 300}
                if t // 300 % 3 == 0:
                    readings[B] = -70
                if rnd.random() < 0.1:
                    readings[A] -= 1  # differs from the usual scan of this (user, t)
                # build_log rejects a repeated timestamp; keep the first draw
                first.setdefault(t, scan(t, list(readings.items())))
            batches.append(build_log(user, "d", first.values()))
        kept: dict[tuple[str, int], ScanResult] = {}
        accepted = []
        refused = 0
        with RawStore() as store:
            for log in batches:
                keyed = [((log.user, s.timestamp), s) for s in log.entries]
                if any(kept.get(key, s) != s for key, s in keyed):
                    before = rows_of(store)
                    with pytest.raises(DuplicateTimestamp, match=f"user '{log.user}'"):
                        store_raw(store, [upload_of(log)])
                    assert rows_of(store) == before
                    refused += 1
                    continue
                want = IngestReport(
                    added=sum(len(s.observations) for key, s in keyed if key not in kept),
                    skipped=sum(len(s.observations) for key, s in keyed if key in kept),
                )
                assert store_raw(store, [upload_of(log)]) == [want]
                kept.update(keyed)
                accepted.append((log, want))
            for user in ("u", "v"):
                want_entries = tuple(s for (u, _), s in sorted(kept.items()) if u == user)
                assert day_rows(store.load_day(user, 0, 300 * 41)) == entry_rows(want_entries)
            rows = rows_of(store)
        assert refused > 0 and sum(report.skipped for _, report in accepted) > 0
        # the accepted batches fed to one call land the same scans and reports
        with RawStore() as store:
            reports = store_raw(store, (upload_of(log) for log, _ in accepted))
            assert reports == [report for _, report in accepted]
            assert rows_of(store) == rows
        # with the refused ones among them, the one call keeps nothing
        with RawStore() as store:
            with pytest.raises(DuplicateTimestamp):
                store_raw(store, map(upload_of, batches))
            assert rows_of(store) == set()

    def test_load_day_window(self):
        with RawStore() as store:
            store_raw(store, [upload_of(small_log())])
            full = store.load_day("u", 1_700_000_000, 1_700_000_900)
            assert len(day_rows(full)) == 3
            window = store.load_day("u", lo=1_700_000_300, hi=1_700_000_600)
            assert [t for t, _ in day_rows(window)] == [1_700_000_300]

    def test_one_call_is_one_commit(self, commit_counter):
        a = small_log()
        b = ScanLog(user="v", device="dev2", entries=a.entries)
        with RawStore() as store:
            commit_counter.attach(store.conn)
            reports = store_raw(store, map(upload_of, [a, b, a]))
            assert commit_counter.commits == 1
        assert reports == [IngestReport(6, 0), IngestReport(6, 0), IngestReport(0, 6)]

    def test_storage_failure_on_second_log_keeps_nothing(self):
        with RawStore() as store:
            store_raw(store, [upload_of(small_log())])
            before = rows_of(store)
            real = store.conn
            store.conn = FailingExecutemany(real, fail_on=2)
            v = ScanLog(user="v", device="d", entries=small_log().entries)
            with pytest.raises(StorageFailure, match="'v'"):
                store_raw(store, [upload_of(small_log(t0=1_800_000_000)), upload_of(v)])
            store.conn = real
            assert rows_of(store) == before

    def test_input_error_from_the_logs_keeps_nothing(self):
        def uploads():
            yield upload_of(small_log())
            yield decode_upload(b"not json\n")
            yield upload_of(small_log(t0=1_800_000_000))  # never reached

        with RawStore() as store:
            with pytest.raises(MalformedLine, match="line 1"):
                store_raw(store, uploads())
            assert rows_of(store) == set()


ALL_TIME = (-(2**63), 2**63 - 1)


def random_upload(rnd, user):
    """An upload of `user`; a scan mostly has the readings any other upload holds at its t."""
    macs = [B, A, "cc:00:00:00:00:03"]
    scans = []
    for t in rnd.sample(range(100, 130), rnd.randint(0, 8)):
        usual = [(m, -50 - (t + k) % 7) for k, m in enumerate(macs[:1 + t % 3])]
        scans.append(scan(t, usual if rnd.random() > 0.1 else [(A, -40)]))
    return upload_of(build_log(user, "d", scans))


class TestCheckAgree:
    def test_refuses_at_the_upload_and_scan_where_store_raw_refuses(self):
        """Over random calls, check_agree raises where store_raw into a new store
        raises: at the same upload, with the same message."""
        rnd = random.Random(43)
        refused = skipped = 0
        for _ in range(400):
            uploads = [random_upload(rnd, rnd.choice("uv")) for _ in range(rnd.randint(1, 5))]
            outcomes = []
            with RawStore() as store:
                for act in (ingest.check_agree, lambda turn: store_raw(store, turn)):
                    taken = []

                    def in_turn():
                        for upload in uploads:
                            taken.append(upload)
                            yield upload

                    try:
                        skipped += sum(report.skipped for report in act(in_turn()) or [])
                        outcomes.append(None)
                    except DuplicateTimestamp as exc:
                        outcomes.append((len(taken), str(exc)))
            assert outcomes[0] == outcomes[1]
            refused += outcomes[0] is not None
        assert refused > 40 and skipped > 100  # disagreeing and agreeing resends


def rows_of(store):
    """Every stored reading as (user, t, mac, rssi), read back through load_day."""
    return {
        (user, t, mac, rssi)
        for user in store.users()
        for t, row in day_rows(store.load_day(user, *ALL_TIME))
        for mac, rssi in row.items()
    }


def entry_rows(entries):
    """Scans as the (t, {mac: rssi}) rows that day_rows reads back."""
    return [(s.timestamp, dict(s.observations)) for s in entries]


def readings(scans):
    return sum(len(s.observations) for s in scans)


class TestRoundTrip:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_split_and_resent_uploads_load_back_exactly(self, data):
        users = data.draw(st.lists(st.sampled_from(["u", "v", "w"]), min_size=1, max_size=3,
                                   unique=True))
        logs = {user: build_log(user, "d", data.draw(scans_st)) for user in users}
        uploads, resent = [], 0
        for log in logs.values():
            n = len(log.entries)
            cuts = sorted(data.draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=3)))
            for lo, hi in zip([0, *cuts], [*cuts, n]):
                upload = ScanLog(log.user, "d", log.entries[lo:hi])
                uploads.append(upload)
                if data.draw(st.booleans()):
                    uploads.append(upload)
                    resent += readings(upload.entries)
        uploads = data.draw(st.permutations(uploads))
        with RawStore() as store:
            if data.draw(st.booleans()):
                reports = store_raw(store, map(upload_of, uploads))
            else:
                reports = [report for upload in uploads
                           for report in store_raw(store, [upload_of(upload)])]
            assert sum(r.added for r in reports) == sum(readings(log.entries) for log in logs.values())
            assert sum(r.skipped for r in reports) == resent
            for user, log in logs.items():
                edges = sorted({0, 2_000_000_001} | {s.timestamp + d for s in log.entries
                                                      for d in (0, 1)})
                lo = data.draw(st.sampled_from(edges))
                hi = data.draw(st.sampled_from(edges))
                want = tuple(s for s in log.entries if lo <= s.timestamp < hi)
                day = store.load_day(user, lo, hi)
                assert_scans(day)
                assert day_rows(day) == entry_rows(want)

    @given(st.lists(scans_st, min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_what_load_day_reads_stores_again_as_all_skipped(self, uploads):
        # one user per upload; a later user's new MACs get later ids,
        # so its loaded MACs need not be sorted
        logs = [build_log(f"u{k}", "d", scans) for k, scans in enumerate(uploads)]
        with RawStore() as store:
            store_raw(store, map(upload_of, logs))
            loaded = [store.load_day(log.user, *ALL_TIME) for log in logs]
            reports = store_raw(store, loaded)
        assert reports == [IngestReport(added=0, skipped=readings(log.entries)) for log in logs]

    def test_office_day_takes_at_most_16_bytes_a_reading(self, tmp_path):
        # one row per reading took about 78 bytes a reading on disk; the
        # bound is on what the day adds to an empty store, whose own few
        # pages would dominate a day this small
        scenario = load_scenario("office-day")
        user = sorted(scenario.itineraries)[0]
        log, _ = generate_trace(scenario.env, scenario.itineraries[user], scenario.scan_interval,
                                np.random.default_rng([7, 0]), scenario.sigma, user=user)
        path = tmp_path / "raw.db"
        RawStore(path).close()
        empty = path.stat().st_size
        with RawStore(path) as store:
            (report,) = store_raw(store, [upload_of(log)])
            assert store.conn.execute("PRAGMA user_version").fetchone() == (2,)
        assert report == IngestReport(added=readings(log.entries), skipped=0)
        assert path.stat().st_size - empty <= 16 * report.added


STORE_TABLES = ["mac", "poi_properties", "poi_readings", "poi_visits", "raw_scans"]


def tables(path):
    with sqlite3.connect(path) as conn:
        names = conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'").fetchall()
        version = conn.execute("PRAGMA user_version").fetchone()[0]
    conn.close()
    return sorted(name for (name,) in names), version


class TestStoreOpen:
    """RawStore and SummaryStore open the one store file by one rule."""

    @pytest.mark.parametrize("maker", [RawStore, SummaryStore])
    @pytest.mark.parametrize("opener", [RawStore, SummaryStore])
    def test_reopen_reads_the_table_names_and_enforces_foreign_keys_only(
            self, tmp_path, monkeypatch, maker, opener):
        path = tmp_path / "store.db"
        maker(path).close()
        before = path.read_bytes()
        issued = []
        real_connect = sqlite3.connect

        def traced_connect(*args, **kwargs):
            conn = real_connect(*args, **kwargs)
            conn.set_trace_callback(issued.append)
            return conn

        monkeypatch.setattr(sqlite3, "connect", traced_connect)
        with opener(path) as store:
            assert store.conn.execute("PRAGMA foreign_keys").fetchone() == (1,)
        assert issued == ["SELECT name FROM sqlite_master", "PRAGMA journal_mode = TRUNCATE",
                          "PRAGMA foreign_keys = ON", "PRAGMA foreign_keys"]
        assert path.read_bytes() == before

    def test_new_store_holds_the_whole_layout(self, tmp_path):
        SummaryStore(tmp_path / "store.db").close()
        assert tables(tmp_path / "store.db") == (STORE_TABLES, 2)

    def test_store_with_only_the_raw_tables_gains_the_poi_tables(self, tmp_path):
        # the layout a raw-only open wrote before the store had one schema
        path = tmp_path / "raw.db"
        with sqlite3.connect(path) as conn:
            conn.executescript("""
            CREATE TABLE mac (id INTEGER PRIMARY KEY, mac TEXT NOT NULL UNIQUE);
            CREATE TABLE raw_scans (
                user TEXT NOT NULL, t INTEGER NOT NULL, macs BLOB NOT NULL,
                rssi BLOB NOT NULL, PRIMARY KEY (user, t)
            ) WITHOUT ROWID;
            PRAGMA user_version = 1;
            """)
            conn.execute("INSERT INTO mac VALUES (7, ?)", (A,))
            conn.execute("INSERT INTO raw_scans VALUES ('u', 100, ?, ?)",
                         (np.array([7], "<u4").tobytes(), np.array([-50], np.int8).tobytes()))
        conn.close()
        SummaryStore(path).close()
        assert tables(path) == (STORE_TABLES, 2)
        with RawStore(path) as store:
            assert day_rows(store.load_day("u", *ALL_TIME)) == [(100, {A: -50})]

    def test_threads_that_open_one_new_path_at_once_all_succeed(self, tmp_path):
        # two of each class: more threads than a 2-core machine has cores
        path = tmp_path / "new.db"
        start = threading.Barrier(4)
        errors = []

        def open_store(store_class):
            start.wait()
            try:
                store_class(path).close()
            except Exception as exc:  # noqa: BLE001 - reported by the assert below
                errors.append(exc)

        classes = [RawStore, SummaryStore] * 2
        threads = [threading.Thread(target=open_store, args=(c,)) for c in classes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert tables(path) == (STORE_TABLES, 2)

    def test_threads_that_open_one_version_1_store_at_once_upgrade_it_once(
            self, tmp_path, monkeypatch):
        # version 1 stored means as floats; -506 / 7 times 7 is -506.00000000000006
        # and -509 / 7 times 7 is -508.99999999999994, so only rounding gives the sums
        fingerprints = {
            ("u", 1): Fingerprint({A: -506, B: -61}, {A: 7, B: 1}),
            ("u", 2): Fingerprint({B: -1000}, {B: 13}),
            ("v", 1): Fingerprint({A: -509}, {A: 7}),
        }
        path = tmp_path / "v1.db"
        with sqlite3.connect(path) as conn:
            conn.executescript(VERSION_1_SCHEMA)
            conn.executemany("INSERT INTO poi_properties VALUES (?, ?, ?, 0)", [
                (user, poi_id, encode_fingerprint_v1(fp.rssi, fp.counts))
                for (user, poi_id), fp in fingerprints.items()
            ])
        conn.close()
        issued = []
        real_connect = sqlite3.connect

        def traced_connect(*args, **kwargs):
            conn = real_connect(*args, **kwargs)
            conn.set_trace_callback(issued.append)
            return conn

        monkeypatch.setattr(sqlite3, "connect", traced_connect)
        start = threading.Barrier(4)
        errors = []

        def open_store(store_class):
            start.wait()
            try:
                store_class(path).close()
            except Exception as exc:  # noqa: BLE001 - reported by the assert below
                errors.append(exc)

        classes = [RawStore, SummaryStore] * 2
        threads = [threading.Thread(target=open_store, args=(c,)) for c in classes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        monkeypatch.undo()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert [sql for sql in issued if sql.startswith("ALTER TABLE")] == [
            "ALTER TABLE poi_properties DROP COLUMN fingerprint"]
        assert tables(path) == (STORE_TABLES, 2)
        with SummaryStore(path) as store:
            assert store.fingerprints() == fingerprints
            assert store.check_integrity()


# One process's uploads: store_raw once per upload k, in the given order.
# The k-th upload holds the scans at t = 300 * (4k .. 4k+7), so neighbours overlap
# by four scans, and each scan sees five of 40 MACs.
_INGESTER = """
import json
import sys
from wifipoi.ingest import RawStore, store_raw, upload_of
from wifipoi.model import ScanResult, build_log

path, order = sys.argv[1], json.loads(sys.argv[2])
macs = ["%02x:00:00:00:00:%02x" % (k, k) for k in range(40)]
reports = []
with RawStore(path) as store:
    for k in order:
        scans = [ScanResult(300 * i, tuple((macs[(i + j) % 40], -40 - (i + j) % 50)
                                           for j in range(5)))
                 for i in range(4 * k, 4 * k + 8)]
        reports += store_raw(store, [upload_of(build_log("u", "d", scans))])
print(json.dumps([[r.added, r.skipped] for r in reports]))
"""


def test_concurrent_ingest_stores_each_scan_once(tmp_path):
    path = tmp_path / "raw.db"
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    orders = [list(range(10)), list(range(9, -1, -1))]
    procs = [
        subprocess.Popen([sys.executable, "-c", _INGESTER, str(path), json.dumps(order)],
                         env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for order in orders
    ]
    reports = []
    for proc in procs:
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        reports += json.loads(out)
    assert sum(added for added, _ in reports) == 44 * 5  # scans t = 0 .. 300 * 43
    assert sum(added + skipped for added, skipped in reports) == 2 * 10 * 8 * 5
    with RawStore(path) as store:
        ids = store.conn.execute("SELECT COUNT(*), COUNT(DISTINCT mac) FROM mac").fetchone()
        assert ids == (40, 40)
        rows = day_rows(store.load_day("u", *ALL_TIME))
    assert [t for t, _ in rows] == [300 * i for i in range(44)]
    assert all(len(row) == 5 for _, row in rows)


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
