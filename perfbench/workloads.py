"""Seeded input generator for the pipeline benchmark.

The radio model is the one in `wifipoi.simgen`: log-distance path loss
`tx - 10 * gamma * log10(d)` plus one Gaussian draw per AP per scan,
rounded, clamped to [-100, -1] dBm and dropped below the -95 dBm
visibility floor. It is vectorised per stay (one `normal` call draws
every scan of a stay at once), because the scalar `simgen.generate_trace`
is far too slow to rebuild these inputs on every run.

Each workload fixes its counts (users, days, stays, stay lengths), so
the amount of work is the same for every seed; the seed only moves APs,
picks places and draws noise. The program sees nothing but `.scan.gz`
uploads written with `encode_log` + `compress_batch`; the ground truth
and the list of CLI calls stay with the benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from wifipoi.ingest import compress_batch, encode_log, plan_uploads
from wifipoi.model import RSSI_MAX, RSSI_MIN, ScanLog, ScanResult
from wifipoi.simgen import VISIBILITY_FLOOR, GroundTruthVisit, write_ground_truth_csv

TX = -50.0  # the mall scenario's radio defaults
GAMMA = 4.0
SIGMA = 2.0
BACKBONE_TX = -25.0  # a zone's shared AP, as in mall-11-users
WALK_RADIUS = 20.0  # m; at most a few APs of the place are visible from here

DAY0 = int(datetime(2026, 3, 2, tzinfo=timezone.utc).timestamp())
DAY = 86400


class World:
    """APs and places; a scan draws noise around the path-loss mean at its position."""

    def __init__(self, places: np.ndarray, aps: np.ndarray, tx: np.ndarray, macs: list[str]):
        order = np.argsort(macs)  # column order = canonical MAC order of a scan
        self.macs = [macs[i] for i in order]
        self.places, self.aps, self.tx = places, aps[order], tx[order]

    def mean_rss(self, points: np.ndarray) -> np.ndarray:
        """Mean RSS of every AP (columns) at each point (rows)."""
        dist = np.hypot(points[:, None, 0] - self.aps[None, :, 0],
                        points[:, None, 1] - self.aps[None, :, 1])
        if dist.min() <= 0.0:
            raise ValueError("a scan position coincides with an AP")
        return self.tx[None, :] - 10.0 * GAMMA * np.log10(dist)

    def scans(self, rng: np.random.Generator, times: Sequence[int],
              points: np.ndarray) -> list[ScanResult]:
        """One scan per time, at the matching row of `points` (or all at its one row)."""
        noise = rng.normal(0.0, SIGMA, size=(len(times), len(self.macs)))
        rss = np.clip(np.round(self.mean_rss(points) + noise), RSSI_MIN, RSSI_MAX).astype(int)
        out = []
        for t, row in zip(times, rss):
            idx = np.flatnonzero(row >= VISIBILITY_FLOOR)
            if idx.size:  # a dead spot yields no scan record at all
                macs = [self.macs[i] for i in idx]
                out.append(ScanResult(t, tuple(zip(macs, row[idx].tolist()))))
        return out


def _ring(rng: np.random.Generator, n: int, r_min: float, r_max: float) -> np.ndarray:
    """n offsets at random angles and radii in [r_min, r_max]."""
    angle = rng.uniform(0.0, 2.0 * math.pi, n)
    radius = rng.uniform(r_min, r_max, n)
    return np.column_stack((radius * np.cos(angle), radius * np.sin(angle)))


def grid_world(rng: np.random.Generator, n_places: int, aps_per_place: int,
               r_max: float, spacing: float = 100.0) -> World:
    """Places on a square grid, far enough apart that no AP crosses over."""
    side = math.ceil(math.sqrt(n_places))
    places = np.array([(spacing * (i % side), spacing * (i // side)) for i in range(n_places)])
    aps = np.concatenate([p + _ring(rng, aps_per_place, 1.0, r_max) for p in places])
    macs = [f"02:00:00:00:{p:02x}:{a:02x}" for p in range(n_places) for a in range(aps_per_place)]
    return World(places, aps, np.full(len(macs), TX), macs)


def zoned_world(rng: np.random.Generator, n_zones: int, aps_per_place: int) -> World:
    """Zones of three places 30 m around one backbone AP; zones 300 m apart.

    Own APs sit within 3.5 m of their place and are never visible from
    the zone's other places (52 m away); the backbone reads about
    -84 dBm at each place, so zone neighbours score about 0.25.
    """
    side = math.ceil(math.sqrt(n_zones))
    centres = np.array([(300.0 * (z % side), 300.0 * (z // side)) for z in range(n_zones)])
    angles = 2.0 * math.pi * np.arange(3) / 3
    places = np.concatenate([c + 30.0 * np.column_stack((np.cos(angles), np.sin(angles)))
                             for c in centres])
    own = np.concatenate([p + _ring(rng, aps_per_place, 1.5, 3.5) for p in places])
    macs = [f"02:00:00:00:{p:02x}:{a:02x}"
            for p in range(len(places)) for a in range(aps_per_place)]
    macs += [f"02:00:00:01:{z:02x}:00" for z in range(n_zones)]
    tx = np.concatenate((np.full(len(own), TX), np.full(n_zones, BACKBONE_TX)))
    return World(places, np.concatenate((own, centres)), tx, macs)


@dataclass
class Plan:
    """Generated inputs plus the CLI calls that process them.

    `steps` are (phase, argv) pairs; argv lacks `--store`, which the
    runner adds. Output paths are relative to the pass directory.
    """

    steps: list[tuple[str, list[str]]] = field(default_factory=list)
    summaries: list[str] = field(default_factory=list)
    truth: str = ""
    scans: int = 0
    rows: int = 0          # distinct (user, t, mac) rows uploaded
    rows_resent: int = 0   # rows inside batches that were uploaded twice


def _day(d: int) -> str:
    return datetime.fromtimestamp(DAY0 + d * DAY, tz=timezone.utc).strftime("%Y-%m-%d")


def _stays(n: int, first: int, length: int, gap: int) -> list[tuple[int, int]]:
    """n stays of `length` s with `gap` s between, from `first` s after midnight."""
    return [(first + k * (length + gap), first + k * (length + gap) + length) for k in range(n)]


def _rows(scans: list[ScanResult]) -> int:
    return sum(len(s.observations) for s in scans)


def _write(path: Path, user: str, scans: list[ScanResult]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(compress_batch(encode_log(ScanLog(user, f"{user}-phone", tuple(scans)))))


class _Builder:
    """Shared bookkeeping: ground truth, summaries, extract calls."""

    def __init__(self, out: Path, interval: int):
        self.out = out
        self.interval = interval
        self.plan = Plan()
        self.truth: list[tuple[str, GroundTruthVisit]] = []

    def day_of_user(self, world: World, rng: np.random.Generator, user: str, d: int,
                    places: list[int], stays: list[tuple[int, int]],
                    walk: int = 0) -> list[ScanResult]:
        """Scans of one user-day; `walk` scans on each side of a stay are taken
        WALK_RADIUS m from the place, too far to match it, so they are noise.
        Every walk scan sees some AP, so the scan count does not depend on the seed."""
        scans: list[ScanResult] = []
        for place, (lo, hi) in zip(places, stays):
            start, end = DAY0 + d * DAY + lo, DAY0 + d * DAY + hi
            centre = world.places[place]
            scans += world.scans(rng, range(start, end, self.interval), centre[None, :])
            self.truth.append((user, GroundTruthVisit(f"p{place:03d}", start, end)))
            if walk:
                times = [start + self.interval * j for j in range(-walk, 0)]
                times += [end + self.interval * j for j in range(walk)]
                # directions spread evenly, so walk scans rarely share their few visible APs
                angle = rng.uniform(0.0, 2.0 * math.pi)
                for t in times:
                    angle += math.pi / walk
                    walked: list[ScanResult] = []
                    while not walked:  # a dead spot records nothing; walk on to the next spot
                        point = centre + WALK_RADIUS * np.array([[math.cos(angle), math.sin(angle)]])
                        walked = world.scans(rng, [t], point)
                        angle += 0.1
                    scans += walked
        scans.sort(key=lambda s: s.timestamp)
        self.plan.scans += len(scans)
        self.plan.rows += _rows(scans)
        return scans

    def ingest(self, files: list[str], per_call: int) -> None:
        """Ingest the uploads as they arrive, `per_call` files to a call."""
        for i in range(0, len(files), per_call):
            self.plan.steps.append(("ingest", ["ingest", *files[i:i + per_call]]))

    def extract(self, user: str, d: int) -> None:
        summary = f"out/{user}_{_day(d)}.csv"
        self.plan.summaries.append(summary)
        self.plan.steps.append(("extract", ["extract", "--user", user, "--day", _day(d),
                                            "--out", summary]))

    def finish(self) -> Plan:
        self.plan.steps.append(("communities", ["communities",
                                                "--communities-out", "out/communities.csv",
                                                "--sweep-out", "out/sweep.csv"]))
        truth = self.out / "truth.csv"
        write_ground_truth_csv(self.truth, truth)
        self.plan.truth = str(truth)
        return self.plan


def dense_day(seed: int, out: Path, users: int = 4, n_places: int = 40, aps: int = 30,
              stays: int = 5) -> Plan:
    """Few users, one long day each, 30 s scans at places with 30 APs.

    Two minutes of walking on each side of a stay add scans that match
    no place, so DBSCAN has noise to label. After the second stay each
    user drops back into the first place for 90 s (3 scans, fewer than
    `min_pts`): a sub-minimal visit.
    """
    rng = np.random.default_rng([seed, 1])
    world = grid_world(rng, n_places, aps, r_max=7.0)
    b = _Builder(out, interval=30)
    # Every user starts at the same place, so POI are shared; the other
    # places are each user's own.
    shared, *others = rng.permutation(n_places).tolist()
    times = _stays(stays, 3600, 9000, 900)
    pop_in = times[1][1] + 300
    files = []
    for u in range(users):
        user = f"u{u:03d}"
        own = others[u * (stays - 1):(u + 1) * (stays - 1)]
        scans = b.day_of_user(world, rng, user, 0, [shared, *own], times, walk=4)
        scans += b.day_of_user(world, rng, user, 0, [shared], [(pop_in, pop_in + 90)])
        scans.sort(key=lambda s: s.timestamp)
        path = out / "up" / f"{user}.scan.gz"
        _write(path, user, scans)
        files.append(str(path))
    b.ingest(files, per_call=1)
    for u in range(users):
        b.extract(f"u{u:03d}", 0)
    return b.finish()


def long_history(seed: int, out: Path, users: int = 6, days: int = 20, n_places: int = 60,
                 personal: int = 40, stays: int = 5, resend_every: int = 8) -> Plan:
    """Many days per user from a personal set of places, uploaded in 6 h batches.

    Each day is ingested, then extracted, so the registry and the raw
    store grow between calls. User u's personal places are `personal`
    places in a row from place 10u on, visited in a seeded order, all
    of them before any twice, so the registry grows the same way for
    every seed. One batch in `resend_every` is uploaded a second time,
    as a client retry, in the same ingest call.
    """
    rng = np.random.default_rng([seed, 2])
    world = grid_world(rng, n_places, 6, r_max=3.5)
    b = _Builder(out, interval=300)
    own = [rng.permutation([(10 * u + j) % n_places for j in range(personal)]).tolist()
           for u in range(users)]
    batches: list[tuple[int, Path, str, list[ScanResult]]] = []
    for d in range(days):
        for u in range(users):
            user = f"u{u:03d}"
            places = [own[u][(d * stays + k) % personal] for k in range(stays)]
            scans = b.day_of_user(world, rng, user, d, places, _stays(stays, 8 * 3600, 4500, 1800))
            log = ScanLog(user, f"{user}-phone", tuple(scans))
            for k, batch in enumerate(plan_uploads(log)):
                path = out / f"d{d:02d}" / f"b{u:03d}-{k}" / f"{user}.scan.gz"
                batches.append((d, path, user, list(batch.scans)))
    first = int(rng.integers(resend_every))
    resent = set(range(first, len(batches) - resend_every + first + 1, resend_every))
    calls: list[list[str]] = [["ingest"] for _ in range(days)]
    retries: list[list[str]] = [[] for _ in range(days)]
    for i, (d, path, user, scans) in enumerate(batches):
        _write(path, user, scans)
        calls[d].append(str(path))
        if i in resent:
            copy = path.parent.with_name(path.parent.name + "-retry") / path.name
            copy.parent.mkdir(parents=True, exist_ok=True)
            copy.write_bytes(path.read_bytes())
            retries[d].append(str(copy))
            b.plan.rows_resent += _rows(scans)
    for d in range(days):
        b.plan.steps.append(("ingest", calls[d] + retries[d]))
        for u in range(users):
            b.extract(f"u{u:03d}", d)
    return b.finish()


def crowd(seed: int, out: Path, users: int = 80, n_zones: int = 40, stays: int = 9) -> Plan:
    """Many users, one day, a few stays each in a zoned mall.

    The users walk a seeded tour of all places, `stays` places in a row
    each, so every place gets the same number of visits (when
    `users * stays` is a multiple of the places) and the cross-user
    graph has the same size for every seed.
    """
    rng = np.random.default_rng([seed, 3])
    world = zoned_world(rng, n_zones, 5)
    b = _Builder(out, interval=300)
    tour = rng.permutation(3 * n_zones).tolist()
    files = []
    for u in range(users):
        user = f"u{u:03d}"
        places = [tour[(u * stays + k) % len(tour)] for k in range(stays)]
        scans = b.day_of_user(world, rng, user, 0, places, _stays(stays, 7 * 3600, 3600, 1200))
        path = out / "up" / f"{user}.scan.gz"
        _write(path, user, scans)
        files.append(str(path))
    b.ingest(files, per_call=8)
    for u in range(users):
        b.extract(f"u{u:03d}", 0)
    return b.finish()


WORKLOADS = {"dense-day": dense_day, "long-history": long_history, "crowd": crowd}
