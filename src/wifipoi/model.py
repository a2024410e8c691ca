"""Core domain types for Wi-Fi scan processing.

MAC addresses are plain strings kept in canonical form (lowercase,
colon-separated), which makes them ordered and hashable for free; the
canonical rendering sorts the same way the underlying 48-bit value does.
All types here are immutable after construction and safe to share
between threads without synchronisation.

Timestamps are UTC epoch seconds throughout; pretty HH:mm rendering is
a presentation concern and lives in the registry/CLI layers.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import DuplicateMac, DuplicateTimestamp, EmptyScan, MalformedMac, MalformedTimestamp
from .errors import RssiOutOfRange

# Valid RSS readings are in [-100, 0) dBm, i.e. [-100, -1] as integers.
RSSI_MIN = -100
RSSI_MAX = -1

# Timestamps name a day that YYYY-MM-DD can name: 0001-01-01 to 9999-12-31 UTC.
T_MIN = -62_135_596_800
T_MAX = 253_402_300_799

_MAC_RE = re.compile(r"^[0-9a-f]{2}(?::[0-9a-f]{2}){5}$")


@functools.lru_cache(maxsize=4096)  # an upload repeats a few hundred MAC spellings
def parse_mac(text: str) -> str:
    """Canonicalise a MAC address to lowercase colon-separated hex.

    Accepts ':' or '-' separators and mixed case. Raises MalformedMac
    unless the input is exactly six hex octets.
    """
    mac = text.strip().lower().replace("-", ":")
    if not _MAC_RE.match(mac):
        raise MalformedMac(f"not a 48-bit MAC address: {text!r}")
    return mac


def rssi_in_range(rssi: object) -> bool:
    """True for a whole dBm reading: a plain int (no bool) in [RSSI_MIN, RSSI_MAX]."""
    return type(rssi) is int and RSSI_MIN <= rssi <= RSSI_MAX


@dataclass(frozen=True)
class ScanResult:
    """One Wi-Fi scan: a timestamp plus the visible (MAC, RSS) pairs."""

    timestamp: int
    observations: tuple[tuple[str, int], ...]


def validate_scan(scan: ScanResult) -> ScanResult:
    """The one input policy, for decode_log and build_log alike.

    A timestamp that is not a plain int in [T_MIN, T_MAX] raises
    MalformedTimestamp, no readings EmptyScan; then, in the order given,
    a MAC that is not a string parse_mac accepts raises MalformedMac, an
    RSS rssi_in_range refuses RssiOutOfRange and a MAC seen twice once
    canonical DuplicateMac. Returns the canonical readings sorted by MAC.
    """
    if type(scan.timestamp) is not int:
        raise MalformedTimestamp(f"timestamp {scan.timestamp!r} is not an integer")
    if not T_MIN <= scan.timestamp <= T_MAX:
        raise MalformedTimestamp(
            f"timestamp {scan.timestamp} outside [{T_MIN}, {T_MAX}] (0001-01-01 to 9999-12-31)"
        )
    if not scan.observations:
        raise EmptyScan(f"scan at t={scan.timestamp} has no readings")
    readings: dict[str, int] = {}
    for mac, rssi in scan.observations:
        if not isinstance(mac, str):
            raise MalformedMac(f"mac {mac!r} is not a string")
        mac = parse_mac(mac)
        if not rssi_in_range(rssi):
            raise RssiOutOfRange(f"rssi {rssi!r} outside [{RSSI_MIN}, {RSSI_MAX}]")
        if mac in readings:
            raise DuplicateMac(f"duplicate mac {mac}")
        readings[mac] = rssi
    return ScanResult(scan.timestamp, tuple(sorted(readings.items())))


@dataclass(frozen=True)
class ScanLog:
    """Time-ordered scans for one user/device.

    Entries carry strictly increasing timestamps and each passed
    validate_scan; build_log and decode_log guarantee both.
    """

    user: str
    device: str
    entries: tuple[ScanResult, ...]

    def __len__(self) -> int:
        return len(self.entries)


def build_log(user: str, device: str, scans: Iterable[ScanResult]) -> ScanLog:
    """Assemble a validated, time-ordered log.

    Every scan goes through validate_scan, and a bad one raises what
    that raises; a repeated timestamp raises DuplicateTimestamp.
    """
    by_time: dict[int, ScanResult] = {}
    for scan in map(validate_scan, scans):
        if scan.timestamp in by_time:
            raise DuplicateTimestamp(f"duplicate timestamp {scan.timestamp}")
        by_time[scan.timestamp] = scan
    entries = tuple(by_time[t] for t in sorted(by_time))
    return ScanLog(user=user, device=device, entries=entries)


@dataclass(frozen=True, eq=False)
class Scans:
    """A user's scans in columns, as decode_upload and load_day give them.

    Scan i was taken at times[i] (int64, strictly increasing) and holds
    the next counts[i] (int64) readings of `ids` and `rssi`, in MAC
    order. A reading's id (int64) is its column in `macs`, which are
    sorted when decoded and in store-id order when loaded; `rssi` holds
    int8 dBm.
    """

    user: str
    times: np.ndarray
    counts: np.ndarray
    macs: tuple[str, ...]
    ids: np.ndarray
    rssi: np.ndarray


@dataclass(frozen=True)
class Fingerprint:
    """Radio signature of a place: per MAC, the sum and count of its whole-dBm readings.

    Both are ints, so merging two fingerprints adds them exactly, and the
    store keeps them as they are. `rssi`, the mean RSS per MAC in dBm
    (negative floats) that scoring reads, is derived: sums[m] / counts[m].
    """

    sums: Mapping[str, int]
    counts: Mapping[str, int]

    @functools.cached_property
    def rssi(self) -> Mapping[str, float]:
        return {mac: total / self.counts[mac] for mac, total in self.sums.items()}


@dataclass(frozen=True)
class ClusterParams:
    """Density-clustering knobs; defaults follow the 5-minute scan cadence.

    epsilon is a similarity threshold in (0, 1] (higher means stricter),
    min_pts the neighbourhood size needed to seed a cluster, and
    scan_interval the expected seconds between scans.
    """

    epsilon: float = 0.5
    min_pts: int = 4
    scan_interval: int = 300

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if self.min_pts < 2:
            raise ValueError(f"min_pts must be >= 2, got {self.min_pts}")
        if self.scan_interval <= 0:
            raise ValueError(f"scan_interval must be positive, got {self.scan_interval}")
