"""Core value types: MAC parsing, scan validation, log assembly."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from wifipoi.errors import (
    DuplicateMac, DuplicateTimestamp, EmptyScan, MalformedMac, MalformedTimestamp, RssiOutOfRange,
)
from wifipoi.model import (
    RSSI_MAX,
    RSSI_MIN,
    ClusterParams,
    ScanResult,
    build_log,
    parse_mac,
    rssi_in_range,
    validate_scan,
)


def scan(t, obs):
    return ScanResult(timestamp=t, observations=tuple(obs))


class TestParseMac:
    def test_hyphens_and_case_canonicalized(self):
        assert parse_mac("AA-BB-CC-00-11-22") == "aa:bb:cc:00:11:22"

    def test_canonical_input_is_identity(self):
        assert parse_mac("aa:bb:cc:00:11:22") == "aa:bb:cc:00:11:22"

    def test_five_octets_rejected(self):
        with pytest.raises(MalformedMac):
            parse_mac("aa:bb:cc:00:11")

    @pytest.mark.parametrize("bad", ["", "aa:bb:cc:00:11:2g", "aabbcc001122", "aa:bb:cc:00:11:22:33"])
    def test_junk_rejected(self, bad):
        with pytest.raises(MalformedMac):
            parse_mac(bad)

    @given(st.lists(st.integers(0, 255), min_size=6, max_size=6))
    def test_idempotent_on_any_valid_mac(self, octets):
        text = "-".join("%02X" % o for o in octets)
        once = parse_mac(text)
        assert parse_mac(once) == once


class TestValidateScan:
    def test_duplicate_mac_raises(self):
        with pytest.raises(DuplicateMac, match="duplicate mac aa:bb:cc:00:11:22"):
            validate_scan(scan(0, [("aa:bb:cc:00:11:22", -50), ("aa:bb:cc:00:11:22", -70)]))

    def test_out_of_range_raises(self):
        for rssi in (RSSI_MIN - 1, RSSI_MAX + 1, 5):
            with pytest.raises(RssiOutOfRange, match=f"rssi {rssi} outside"):
                validate_scan(scan(0, [("aa:bb:cc:00:11:22", -50), ("aa:bb:cc:00:11:23", rssi)]))

    def test_empty_scan_raises(self):
        with pytest.raises(EmptyScan):
            validate_scan(scan(0, []))

    @pytest.mark.parametrize("t", [1.5, 100.0, True, "100", np.int64(100)])
    def test_timestamp_must_be_an_int(self, t):
        with pytest.raises(MalformedTimestamp, match="is not an integer"):
            validate_scan(scan(t, [("aa:bb:cc:00:11:22", -50)]))

    @pytest.mark.parametrize("mac", [7, None, b"aa:bb:cc:00:11:22"])
    def test_mac_must_be_a_string(self, mac):
        with pytest.raises(MalformedMac, match="is not a string"):
            validate_scan(scan(0, [(mac, -50)]))

    def test_macs_canonicalised_before_the_duplicate_check(self):
        clean = validate_scan(scan(0, [("CC-00-00-00-00-01", -60), ("aa:00:00:00:00:01", -50)]))
        assert clean.observations == (("aa:00:00:00:00:01", -50), ("cc:00:00:00:00:01", -60))
        with pytest.raises(DuplicateMac, match="duplicate mac aa:00:00:00:00:01"):
            validate_scan(scan(0, [("AA-00-00-00-00-01", -60), ("aa:00:00:00:00:01", -50)]))

    def test_observations_sorted_by_mac(self):
        clean = validate_scan(scan(0, [("cc:00:00:00:00:01", -60), ("aa:00:00:00:00:01", -50)]))
        assert clean.observations == (("aa:00:00:00:00:01", -50), ("cc:00:00:00:00:01", -60))

    @given(
        st.dictionaries(
            st.sampled_from(["aa:00:00:00:00:01", "bb:00:00:00:00:02", "cc:00:00:00:00:03"]),
            st.integers(RSSI_MIN, RSSI_MAX),
            min_size=1,
        )
    )
    def test_idempotent(self, readings):
        once = validate_scan(scan(0, readings.items()))
        assert validate_scan(once) == once
        assert sorted(once.observations) == sorted(readings.items())


class TestRssiRange:
    def test_bounds(self):
        assert rssi_in_range(RSSI_MIN)
        assert rssi_in_range(RSSI_MAX)
        assert not rssi_in_range(RSSI_MIN - 1)
        assert not rssi_in_range(0)
        assert not rssi_in_range(-50.5)
        assert not rssi_in_range(-50.0)
        assert not rssi_in_range(np.int64(-50))
        assert not rssi_in_range(True)


class TestBuildLog:
    def test_entries_sorted_by_timestamp(self):
        log = build_log("u", "d", [
            scan(600, [("aa:00:00:00:00:01", -60)]),
            scan(300, [("aa:00:00:00:00:01", -50)]),
            scan(900, [("bb:00:00:00:00:02", -70)]),
        ])
        assert [e.timestamp for e in log.entries] == [300, 600, 900]
        assert log.entries[1].observations == (("aa:00:00:00:00:01", -60),)
        assert len(log) == 3

    def test_repeated_timestamp_rejected(self):
        with pytest.raises(DuplicateTimestamp, match="duplicate timestamp 600"):
            build_log("u", "d", [
                scan(600, [("aa:00:00:00:00:01", -60)]),
                scan(300, [("aa:00:00:00:00:01", -50)]),
                scan(600, [("bb:00:00:00:00:02", -70)]),
            ])


class TestClusterParams:
    def test_defaults(self):
        p = ClusterParams()
        assert (p.epsilon, p.min_pts, p.scan_interval) == (0.5, 4, 300)

    @pytest.mark.parametrize("kw", [
        {"epsilon": 0.0},
        {"epsilon": 1.5},
        {"min_pts": 1},
        {"scan_interval": 0},
    ])
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ValueError):
            ClusterParams(**kw)
