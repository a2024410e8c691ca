"""Synthetic indoor world: AP signal fields and scripted user days.

The generator exists to give every pipeline stage a ground truth to be
judged against. Signal strength follows the log-distance path-loss
model

    RSS(d) = tx - 10 * gamma * log10(d / 1 m) + N(0, sigma)

clamped to the valid [-100, -1] dBm range. An AP whose modeled RSS
falls below the -95 dBm visibility floor is absent from that scan,
which is what produces the partially overlapping fingerprints the
similarity metric is designed around. Everything is deterministic
given the seed.

Scenario files are plain INI text: a [world] section with radio
defaults, one [place NAME] section per place (position plus AP offsets
in meters), and one [user NAME] section per user with an itinerary of
`YYYY-MM-DD place HH:MM HH:MM` lines (UTC). AP MACs are assigned
automatically from the locally administered 02: prefix.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ScenarioError, UnknownPlace, ZeroDistance
from .model import RSSI_MAX, RSSI_MIN, ScanLog, ScanResult

VISIBILITY_FLOOR = -95  # dBm; weaker APs do not appear in a scan

DEFAULT_TX = -30.0
DEFAULT_GAMMA = 2.5
DEFAULT_SIGMA = 2.0


@dataclass(frozen=True)
class AccessPoint:
    mac: str
    x: float
    y: float
    tx: float = DEFAULT_TX
    gamma: float = DEFAULT_GAMMA


@dataclass(frozen=True)
class Place:
    """A named dwell spot: every scan taken there is taken at (x, y)."""

    label: str
    x: float
    y: float


@dataclass(frozen=True)
class Environment:
    aps: tuple[AccessPoint, ...]
    places: tuple[Place, ...]

    def __post_init__(self) -> None:
        macs = [ap.mac for ap in self.aps]
        if len(set(macs)) != len(macs):
            raise ValueError("AP MACs must be unique")

    def place(self, label: str) -> Place:
        for place in self.places:
            if place.label == label:
                return place
        raise UnknownPlace(f"no place named {label!r}")


@dataclass(frozen=True)
class ItineraryEntry:
    """One stay: the user is at `place` during [arrival, departure)."""

    place: str
    arrival: int
    departure: int


@dataclass(frozen=True)
class GroundTruthVisit:
    place: str
    start: int
    end: int


def validate_itinerary(entries: Sequence[ItineraryEntry]) -> None:
    """Entries must be forward in time and pairwise non-overlapping."""
    last_departure = None
    for e in entries:
        if e.arrival >= e.departure:
            raise ValueError(f"stay at {e.place!r} must have arrival < departure")
        if last_departure is not None and e.arrival < last_departure:
            raise ValueError(f"stay at {e.place!r} overlaps the previous one")
        last_departure = e.departure


def rss_at(
    ap: AccessPoint,
    position: tuple[float, float],
    noise_sigma: float = DEFAULT_SIGMA,
    rng_seed: int | np.random.Generator | None = None,
) -> int:
    """Modeled RSS of one AP at a position, in whole dBm.

    Deterministic given the seed; pass a Generator to share one stream
    across many calls. Raises ZeroDistance at the AP's exact position
    (the log-distance model has no value there).
    """
    d = math.hypot(ap.x - position[0], ap.y - position[1])
    if d == 0.0:
        raise ZeroDistance(f"position coincides with AP {ap.mac}")
    rng = np.random.default_rng(rng_seed)
    rss = ap.tx - 10.0 * ap.gamma * math.log10(d) + rng.normal(0.0, noise_sigma)
    return max(RSSI_MIN, min(RSSI_MAX, round(rss)))


def generate_trace(
    env: Environment,
    itinerary: Sequence[ItineraryEntry],
    scan_interval: int = 300,
    rng_seed: int | np.random.Generator | None = None,
    noise_sigma: float = DEFAULT_SIGMA,
    user: str = "u1",
    device: str = "dev1",
) -> tuple[ScanLog, list[GroundTruthVisit]]:
    """Scans along an itinerary plus the itinerary itself as ground truth.

    One scan fires every scan_interval seconds from arrival up to (not
    including) departure, at the place's position. Every AP gets one
    noise draw per scan whether visible or not, so the stream of random
    numbers, and hence the output, does not depend on the floor.
    """
    validate_itinerary(itinerary)
    rng = np.random.default_rng(rng_seed)
    scans: list[ScanResult] = []
    truth: list[GroundTruthVisit] = []
    for entry in itinerary:
        place = env.place(entry.place)
        truth.append(GroundTruthVisit(entry.place, entry.arrival, entry.departure))
        for t in range(entry.arrival, entry.departure, scan_interval):
            observations = []
            for ap in env.aps:
                rss = rss_at(ap, (place.x, place.y), noise_sigma, rng)
                if rss >= VISIBILITY_FLOOR:
                    observations.append((ap.mac, rss))
            if observations:  # a dead spot yields no scan record at all
                scans.append(ScanResult(t, tuple(sorted(observations))))
    return ScanLog(user=user, device=device, entries=tuple(scans)), truth


def write_ground_truth_csv(
    rows: Sequence[tuple[str, GroundTruthVisit]], path: str | Path
) -> None:
    """Rows `user,day,place,start,end`, times as HH:mm UTC.

    The day column is the visit's UTC calendar date, matching the
    per-day windows the extraction side works in.
    """
    lines = ["user,day,place,start,end"]
    for user, visit in rows:
        start = datetime.fromtimestamp(visit.start, tz=timezone.utc)
        end = datetime.fromtimestamp(visit.end, tz=timezone.utc)
        lines.append(
            f"{user},{start:%Y-%m-%d},{visit.place},{start:%H:%M},{end:%H:%M}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario file: world, places/APs, per-user itineraries."""

    env: Environment
    itineraries: Mapping[str, tuple[ItineraryEntry, ...]]
    devices: Mapping[str, str]
    sigma: float
    scan_interval: int


def _parse_time(day: str, hhmm: str) -> int:
    dt = datetime.strptime(f"{day} {hhmm}", "%Y-%m-%d %H:%M")
    return int(dt.replace(tzinfo=timezone.utc).timestamp())


def _parse_ap_line(line: str, mac: str, tx: float, gamma: float, px: float, py: float) -> AccessPoint:
    parts = line.split()
    if len(parts) not in (2, 3, 4):
        raise ScenarioError(f"ap line needs `dx dy [tx [gamma]]`, got {line!r}")
    dx, dy = float(parts[0]), float(parts[1])
    if len(parts) >= 3:
        tx = float(parts[2])
    if len(parts) == 4:
        gamma = float(parts[3])
    return AccessPoint(mac=mac, x=px + dx, y=py + dy, tx=tx, gamma=gamma)


def parse_scenario(text: str) -> Scenario:
    """Parse scenario INI text; raises ScenarioError on any defect."""
    parser = configparser.ConfigParser(delimiters=("=",), interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"bad scenario syntax: {exc}") from exc

    world = parser["world"] if parser.has_section("world") else {}
    try:
        tx = float(world.get("tx", DEFAULT_TX))
        gamma = float(world.get("gamma", DEFAULT_GAMMA))
        sigma = float(world.get("sigma", DEFAULT_SIGMA))
        scan_interval = int(world.get("scan_interval", 300))
    except ValueError as exc:
        raise ScenarioError(f"bad [world] value: {exc}") from exc

    aps: list[AccessPoint] = []
    places: list[Place] = []
    itineraries: dict[str, tuple[ItineraryEntry, ...]] = {}
    devices: dict[str, str] = {}
    place_index = 0
    for section in parser.sections():
        if section == "world":
            continue
        kind, _, name = section.partition(" ")
        if kind == "place":
            if not name:
                raise ScenarioError("place section needs a name: [place NAME]")
            body = parser[section]
            try:
                px, py = (float(v) for v in body.get("position", "0 0").split())
            except ValueError as exc:
                raise ScenarioError(f"bad position in [place {name}]: {exc}") from exc
            places.append(Place(label=name, x=px, y=py))
            ap_lines = [ln for ln in body.get("aps", "").splitlines() if ln.strip()]
            if not ap_lines:
                raise ScenarioError(f"[place {name}] declares no aps")
            for ap_index, line in enumerate(ap_lines):
                mac = f"02:00:00:00:{place_index:02x}:{ap_index:02x}"
                try:
                    aps.append(_parse_ap_line(line.strip(), mac, tx, gamma, px, py))
                except ValueError as exc:
                    raise ScenarioError(f"bad ap line in [place {name}]: {exc}") from exc
            place_index += 1
        elif kind == "user":
            if not name:
                raise ScenarioError("user section needs a name: [user NAME]")
            body = parser[section]
            devices[name] = body.get("device", f"{name}-phone")
            entries = []
            for line in body.get("itinerary", "").splitlines():
                if not line.strip():
                    continue
                parts = line.split()
                if len(parts) != 4:
                    raise ScenarioError(
                        f"itinerary line needs `day place start end`, got {line!r}"
                    )
                day, place, start, end = parts
                try:
                    entries.append(
                        ItineraryEntry(place, _parse_time(day, start), _parse_time(day, end))
                    )
                except ValueError as exc:
                    raise ScenarioError(f"bad itinerary time in {line!r}: {exc}") from exc
            if not entries:
                raise ScenarioError(f"[user {name}] has an empty itinerary")
            itineraries[name] = tuple(entries)
        else:
            raise ScenarioError(f"unknown section [{section}]")

    if not places:
        raise ScenarioError("scenario defines no places")
    if not itineraries:
        raise ScenarioError("scenario defines no users")
    env = Environment(aps=tuple(aps), places=tuple(places))
    for user, entries in itineraries.items():
        try:
            validate_itinerary(entries)
        except ValueError as exc:
            raise ScenarioError(f"[user {user}]: {exc}") from exc
        for e in entries:
            try:
                env.place(e.place)
            except UnknownPlace as exc:
                raise ScenarioError(f"[user {user}]: {exc}") from exc
    return Scenario(
        env=env,
        itineraries=itineraries,
        devices=devices,
        sigma=sigma,
        scan_interval=scan_interval,
    )


def load_scenario(path_or_name: str) -> Scenario:
    """Load a scenario file, falling back to the bundled ones by name."""
    p = Path(path_or_name)
    if p.exists():
        return parse_scenario(p.read_text(encoding="utf-8"))
    name = path_or_name if path_or_name.endswith(".cfg") else f"{path_or_name}.cfg"
    ref = resources.files("wifipoi") / "scenarios" / name
    if not ref.is_file():
        raise ScenarioError(f"no scenario file or bundled scenario {path_or_name!r}")
    return parse_scenario(ref.read_text(encoding="utf-8"))
