"""Independent reference implementations used to check the library.

Everything in here is deliberately written the slow, obvious way and
shares no code with the package: plain dict loops, exact summation,
union-find, and exhaustive enumeration. Tests compare wifipoi output
against these.
"""
from __future__ import annotations

import itertools
import json
import math
import random
import sqlite3
from collections import defaultdict
from typing import Iterable, Iterator

import numpy as np

Fp = dict[str, float]


def naive_cosine(f1: Fp, f2: Fp) -> float:
    """Cosine score straight from the definition.

    Numerator over the MAC intersection, each denominator over the full
    fingerprint. No snapping; exact summation via fsum.
    """
    if not f1 or not f2:
        raise ValueError("empty fingerprint")
    y = math.fsum(f1[m] * f2[m] for m in f1 if m in f2)
    if y == 0.0:
        return 0.0
    d1 = math.fsum(v * v for v in f1.values())
    d2 = math.fsum(v * v for v in f2.values())
    return y / math.sqrt(d1 * d2)


def naive_dbscan(points: list[Fp], eps: float, min_pts: int) -> list[int]:
    """Order-free DBSCAN reference.

    Core points are unioned into components; components are numbered by
    their smallest member index so the ids line up with a seed loop that
    walks points in input order. A border point joins the lowest-id
    cluster that can reach it, matching first-claim semantics. 0 means
    noise.
    """
    n = len(points)
    neigh = [
        [j for j in range(n) if naive_cosine(points[i], points[j]) >= eps]
        for i in range(n)
    ]
    core = [len(neigh[i]) >= min_pts for i in range(n)]

    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        if not core[i]:
            continue
        for j in neigh[i]:
            if core[j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri

    first_core: dict[int, int] = {}
    for i in range(n):
        if core[i]:
            r = find(i)
            if r not in first_core:
                first_core[r] = i
            else:
                first_core[r] = min(first_core[r], i)
    ids = {
        root: k + 1
        for k, (root, _) in enumerate(sorted(first_core.items(), key=lambda kv: kv[1]))
    }

    labels = [0] * n
    for i in range(n):
        if core[i]:
            labels[i] = ids[find(i)]
    for i in range(n):
        if core[i]:
            continue
        claims = [ids[find(j)] for j in neigh[i] if core[j]]
        if claims:
            labels[i] = min(claims)
    return labels


def naive_fingerprint(
    scans: Iterable[Iterable[tuple[str, int]]],
) -> tuple[dict[str, int], dict[str, int]]:
    """Per-MAC RSS sum and count over the scans that saw each MAC.

    `scans` holds each scan's (mac, rssi) readings; a dict loop, reading
    by reading.
    """
    totals: dict[str, int] = {}
    counts: dict[str, int] = {}
    for scan in scans:
        for mac, rssi in scan:
            totals[mac] = totals.get(mac, 0) + rssi
            counts[mac] = counts.get(mac, 0) + 1
    return totals, counts


def naive_visits(
    times: list[int], labels: list[int], scan_interval: int, min_pts: int
) -> list[tuple[int, int, int, int, bool]]:
    """Visit runs as (label, start, end, scans, sub_minimal), by a run-state loop.

    A scan extends the open run when it has the run's label and comes
    at most 2 * scan_interval after the run's last scan; noise (label
    0) runs are dropped.
    """
    out: list[tuple[int, int, int, int, bool]] = []
    run: list = []  # [label, start, end, scans] of the open run

    def flush() -> None:
        if run and run[0] != 0:
            out.append((run[0], run[1], run[2], run[3], run[3] < min_pts))

    for t, label in zip(times, labels):
        if run and label == run[0] and t - run[2] <= 2 * scan_interval:
            run[2] = t
            run[3] += 1
            continue
        flush()
        run = [label, t, t, 1]
    flush()
    return out


def naive_trace(env, itinerary, scan_interval: int, rng_seed, sigma: float, device: str) -> bytes:
    """The log-distance model's wire bytes, one scalar draw per AP per scan.

    For each scan of each stay, each AP in env order: its path-loss
    mean at the place, by math.hypot and math.log10, plus one
    rng.normal(0, sigma), rounded half to even and clamped to
    [-100, -1] dBm. A reading under the -95 dBm floor is dropped, and a
    scan left with none is not written. One line per scan, the wire's
    fields in order and the readings sorted by MAC.
    """
    rng = np.random.default_rng(rng_seed)
    places = {p.label: (p.x, p.y) for p in env.places}
    lines = []
    for stay in itinerary:
        x, y = places[stay.place]
        for t in range(stay.arrival, stay.departure, scan_interval):
            readings = []
            for ap in env.aps:
                d = math.hypot(ap.x - x, ap.y - y)
                rss = ap.tx - 10.0 * ap.gamma * math.log10(d) + rng.normal(0.0, sigma)
                rss = max(-100, min(-1, round(rss)))
                if rss >= -95:
                    readings.append([ap.mac, rss])
            if readings:
                record = {"t": t, "dev": device, "aps": sorted(readings)}
                lines.append(json.dumps(record, separators=(",", ":")) + "\n")
    return "".join(lines).encode()


def scan_columns(day) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each scan's (ids, rssi) columns of the day, one pair per scan."""
    cuts = np.cumsum(day.counts)[:-1]
    return list(zip(np.split(day.ids, cuts), np.split(day.rssi, cuts)))


def day_rows(day) -> list[tuple[int, dict[str, int]]]:
    """Scans' columns back as (t, {mac: rssi}) rows, each scan's readings in column order."""
    readings = zip(day.ids.tolist(), day.rssi.tolist())
    return [
        (t, {day.macs[i]: rssi for i, rssi in itertools.islice(readings, count)})
        for t, count in zip(day.times.tolist(), day.counts.tolist())
    ]


def naive_modularity(edges: Iterable[tuple], comm: dict) -> float:
    """Weighted modularity via the pairwise A_ij formula.

    Each undirected edge contributes twice to the A-sum; a self loop of
    weight w counts w toward m and 2w toward its node's degree.
    """
    deg: dict = defaultdict(float)
    m = 0.0
    intra = 0.0
    for a, b, w in edges:
        deg[a] += w
        deg[b] += w
        m += w
        if comm[a] == comm[b]:
            intra += 2.0 * w
    if m <= 0.0:
        raise ValueError("graph has no weight")
    q = intra / (2.0 * m)
    by_comm: dict = defaultdict(float)
    for node, d in deg.items():
        by_comm[comm[node]] += d
    q -= sum(d * d for d in by_comm.values()) / (4.0 * m * m)
    return q


def iter_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All set partitions of range(n) as restricted growth strings."""
    rgs = [0] * n

    def rec(i: int, k: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(rgs)
            return
        for c in range(k + 1):
            rgs[i] = c
            yield from rec(i + 1, k + 1 if c == k else k)

    yield from rec(1, 1) if n > 1 else iter([(0,) * n])


def best_partition_q(nodes: list, edges: list[tuple]) -> float:
    """Exhaustive modularity optimum; feasible up to ~10 nodes."""
    best = -math.inf
    for rgs in iter_partitions(len(nodes)):
        comm = {node: rgs[i] for i, node in enumerate(nodes)}
        q = naive_modularity(edges, comm)
        if q > best:
            best = q
    return best


def planted_edges(r: random.Random) -> tuple[int, list[tuple[int, int, float]]]:
    """A small thresholded similarity graph with planted groups.

    3-8 nodes in up to 3 groups: strong intra-group edges, sparse weak
    cross edges, and at least one edge. Returns (node count, edges).
    """
    n = r.randint(3, 8)
    groups = r.randint(1, min(3, n))
    member = [r.randrange(groups) for _ in range(n)]
    edges: list[tuple[int, int, float]] = []
    while not edges:
        for a in range(n):
            for b in range(a + 1, n):
                if member[a] == member[b]:
                    if r.random() < 0.9:
                        edges.append((a, b, round(r.uniform(0.6, 1.0), 3)))
                elif r.random() < 0.25:
                    edges.append((a, b, round(r.uniform(0.05, 0.35), 3)))
    return n, edges


def reference_louvain(nodes: tuple, edges: tuple) -> tuple[dict, float, tuple[float, ...]]:
    """The package's Louvain as it stood before any visit was skipped.

    Every pass rescans every node's neighbours, every run ends with a
    refinement that moves nothing, and every start's partition is
    scored. Float operations and RNG draws are in the package's order,
    so the (communities, q, move gains) it returns must match louvain's
    to the last bit. Graphs with no edge weight raise ValueError.
    """
    index = {node: i for i, node in enumerate(nodes)}
    base: list[dict[int, float]] = [{} for _ in nodes]
    m = 0.0
    for a, b, w in edges:
        m += w
        ia, ib = index[a], index[b]
        base[ia][ib] = base[ia].get(ib, 0.0) + w
        base[ib][ia] = base[ib].get(ia, 0.0) + w
    if m <= 0:
        raise ValueError("graph has no weight")
    k = [_add_in_order(links.values()) for links in base]
    best = None
    for s in range(8):
        assign, gains = _reference_search(base, k, m, None if s == 0 else random.Random(1_000_003 * s))
        renumber: dict[int, int] = {}
        comm = {node: renumber.setdefault(c, len(renumber)) for node, c in zip(nodes, assign)}
        q = _edge_order_modularity(edges, comm)
        if best is None or q > best[1]:
            best = (comm, q, tuple(gains))
    return best


def _add_in_order(values: Iterable[float]) -> float:
    total = 0.0
    for x in values:
        total += x
    return total


def _edge_order_modularity(edges: Iterable[tuple], comm: dict) -> float:
    m = 0.0
    sigma_in: dict = defaultdict(float)
    sigma_tot: dict = defaultdict(float)
    for a, b, w in edges:
        m += w
        ca, cb = comm[a], comm[b]
        if ca == cb:
            sigma_in[ca] += 2.0 * w
            sigma_tot[ca] += 2.0 * w
        else:
            sigma_tot[ca] += w
            sigma_tot[cb] += w
    two_m = 2.0 * m
    return _add_in_order(sigma_in[c] / two_m - (sigma_tot[c] / two_m) ** 2 for c in sigma_tot)


def _reference_search(base, k, m, rng):
    n = len(base)

    def visit_order(count):
        order = list(range(count))
        if rng is not None:
            rng.shuffle(order)
        return order

    assign = list(range(n))
    gains: list[float] = []
    while refined := _reference_one_level(base, k, m, visit_order(n), assign):
        gains += refined
        adj, loops, degrees, assign = _reference_aggregate(base, [0.0] * n, assign)
        comm = list(range(len(adj)))
        while climbed := _reference_one_level(adj, degrees, m, visit_order(len(adj)), comm):
            gains += climbed
            adj, loops, degrees, up = _reference_aggregate(adj, loops, comm)
            assign = [up[c] for c in assign]
            comm = list(range(len(adj)))
    return assign, gains


def _reference_one_level(adj, k, m, order, comm):
    sigma_tot = [0.0] * len(adj)
    for c, k_i in zip(comm, k):
        sigma_tot[c] += k_i
    two_mm = 2.0 * m * m
    gains: list[float] = []
    while True:
        before = len(gains)
        for i in order:
            ci, k_i = comm[i], k[i]
            sigma_tot[ci] -= k_i
            links = {ci: 0.0}
            for j, w in adj[i].items():
                links[comm[j]] = links.get(comm[j], 0.0) + w
            stay = links[ci] / m - sigma_tot[ci] * k_i / two_mm
            best_c, best_gain = ci, stay
            for c in sorted(links):
                g = links[c] / m - sigma_tot[c] * k_i / two_mm
                if g > best_gain + 1e-12:
                    best_c, best_gain = c, g
            comm[i] = best_c
            sigma_tot[best_c] += k_i
            if best_c != ci:
                gains.append(best_gain - stay)
        if len(gains) == before:
            return gains


def _reference_aggregate(adj, loops, comm):
    remap = {c: i for i, c in enumerate(sorted(set(comm)))}
    up = [remap[c] for c in comm]
    new_adj: list[dict[int, float]] = [{} for _ in remap]
    new_loops = [0.0] * len(remap)
    for i, links in enumerate(adj):
        ci = up[i]
        new_loops[ci] += loops[i]
        for j, w in links.items():
            if j < i:
                continue
            cj = up[j]
            if ci == cj:
                new_loops[ci] += w
            else:
                new_adj[ci][cj] = new_adj[ci].get(cj, 0.0) + w
                new_adj[cj][ci] = new_adj[cj].get(ci, 0.0) + w
    k = [_add_in_order(links.values()) + 2.0 * loop for links, loop in zip(new_adj, new_loops)]
    return new_adj, new_loops, k, up


MAC_POOL = tuple("02:00:00:00:00:%02x" % k for k in range(40))


def random_fingerprint(rnd: random.Random, pool=MAC_POOL, lo: int = 2, hi: int = 12) -> Fp:
    macs = rnd.sample(pool, rnd.randint(lo, min(hi, len(pool))))
    return {m: float(rnd.randint(-95, -30)) for m in macs}


def _rooms(rnd: random.Random, pool) -> list[dict[str, int]]:
    """2-5 room prototypes, each 4-8 MACs of the pool with a mean RSS."""
    rooms = []
    for _ in range(rnd.randint(2, 5)):
        base = rnd.sample(pool, rnd.randint(4, 8))
        rooms.append({m: rnd.randint(-80, -40) for m in base})
    return rooms


def _room_scan(rnd: random.Random, rooms: list[dict[str, int]], pool) -> dict[str, int]:
    """A stray one-off from the pool 15% of the time, else a jittered room."""
    if rnd.random() < 0.15:
        macs = rnd.sample(pool, rnd.randint(2, 5))
        return {m: rnd.randint(-95, -30) for m in macs}
    proto = rnd.choice(rooms)
    scan = {m: v + rnd.randint(-8, 8) for m, v in proto.items()}
    if len(scan) > 2 and rnd.random() < 0.3:
        del scan[rnd.choice(sorted(scan))]
    if rnd.random() < 0.3:
        extra = rnd.choice(pool)
        scan.setdefault(extra, rnd.randint(-95, -60))
    return scan


def random_scan_instance(rnd: random.Random, n_scans: int) -> list[dict[str, int]]:
    """Scans drawn from a few room prototypes plus stray one-offs.

    The jitter and strays produce the full DBSCAN bestiary: dense cores,
    border points hovering at the threshold, and isolated noise.
    """
    rooms = _rooms(rnd, MAC_POOL)
    return [_room_scan(rnd, rooms, MAC_POOL) for _ in range(n_scans)]


def place_pool(place: int, size: int = 20) -> tuple[str, ...]:
    """MACs of one place; two places' pools share none."""
    return tuple("02:00:00:00:%02x:%02x" % (place, k) for k in range(size))


def disjoint_places_day(rnd: random.Random, sizes: list[int]) -> list[dict[str, int]]:
    """sizes[k] scans at place k, in stays of 1-12 scans in shuffled order.

    No two places share a MAC: each draws rooms and strays from its own
    place_pool as random_scan_instance does from MAC_POOL, but a stay
    keeps to one room. So scans that share a MAC are at one place, one
    place's scans are spread over the day, and its rooms are met at
    different times.
    """
    pools = [place_pool(k) for k in range(len(sizes))]
    rooms = [_rooms(rnd, pool) for pool in pools]
    stays = []
    for k, size in enumerate(sizes):
        while size > 0:
            stays.append((k, min(size, rnd.randint(1, 12))))
            size -= stays[-1][1]
    rnd.shuffle(stays)
    return [
        _room_scan(rnd, [room], pools[k])
        for k, length in stays
        for room in [rnd.choice(rooms[k])]
        for _ in range(length)
    ]


def naive_groups(points: list[dict]) -> list[set[int]]:
    """Scan indexes linked by shared MACs, by flood fill from each unseen scan."""
    by_mac: dict[str, list[int]] = defaultdict(list)
    for i, point in enumerate(points):
        for mac in point:
            by_mac[mac].append(i)
    seen: set[int] = set()
    groups = []
    for i in range(len(points)):
        if i in seen:
            continue
        group, stack = set(), [i]
        while stack:
            j = stack.pop()
            if j not in group:
                group.add(j)
                stack.extend(k for mac in points[j] for k in by_mac[mac])
        seen |= group
        groups.append(group)
    return groups


# The version-1 store layout, as the package wrote it before fingerprints
# moved into poi_readings: each fingerprint is text in poi_properties.
VERSION_1_SCHEMA = """
BEGIN IMMEDIATE;
CREATE TABLE IF NOT EXISTS mac (id INTEGER PRIMARY KEY, mac TEXT NOT NULL UNIQUE);
CREATE TABLE IF NOT EXISTS raw_scans (
    user TEXT    NOT NULL,
    t    INTEGER NOT NULL,
    macs BLOB    NOT NULL,
    rssi BLOB    NOT NULL,
    PRIMARY KEY (user, t)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS poi_properties (
    user        TEXT    NOT NULL,
    poi_id      INTEGER NOT NULL,
    fingerprint TEXT    NOT NULL,
    created_at  INTEGER NOT NULL,
    PRIMARY KEY (user, poi_id)
);
CREATE TABLE IF NOT EXISTS poi_visits (
    user        TEXT    NOT NULL,
    poi_id      INTEGER NOT NULL,
    start_ts    INTEGER NOT NULL,
    end_ts      INTEGER NOT NULL,
    scans       INTEGER NOT NULL,
    sub_minimal INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (user, poi_id, start_ts, end_ts),
    FOREIGN KEY (user, poi_id) REFERENCES poi_properties (user, poi_id)
);
PRAGMA user_version = 1;
COMMIT;
"""


def encode_fingerprint_v1(rssi: Fp, counts: dict[str, int]) -> str:
    """Version-1 fingerprint text: sorted `mac:mean:count` triples joined by ';'.

    Means use repr() so the decoded float is bit-identical.
    """
    return ";".join(f"{mac}:{rssi[mac]!r}:{counts[mac]}" for mac in sorted(rssi))


def version_1_copy(source, target) -> None:
    """Write at `target` a version-1 store holding the scans and registry of store `source`.

    Each fingerprint is written as version 1 wrote it, its means as
    floats: sum / count of the source's readings.
    """
    with sqlite3.connect(target) as out:
        out.executescript(VERSION_1_SCHEMA)
        out.execute("ATTACH DATABASE ? AS src", (str(source),))
        out.execute("INSERT INTO mac SELECT * FROM src.mac")
        out.execute("INSERT INTO raw_scans SELECT * FROM src.raw_scans")
        readings: dict[tuple, tuple[Fp, dict[str, int]]] = {}
        for user, poi_id, mac, total, count in out.execute("SELECT * FROM src.poi_readings"):
            means, counts = readings.setdefault((user, poi_id), ({}, {}))
            means[mac], counts[mac] = total / count, count
        out.executemany(
            "INSERT INTO poi_properties VALUES (?, ?, ?, ?)",
            [(user, poi_id, encode_fingerprint_v1(*readings[user, poi_id]), created)
             for user, poi_id, created in out.execute("SELECT * FROM src.poi_properties")],
        )
        out.execute("INSERT INTO poi_visits SELECT * FROM src.poi_visits")
    out.execute("DETACH DATABASE src")
    out.close()


def registry_tables(conn) -> dict[str, list[tuple]]:
    """Every row of the three registry tables, each table in key order."""
    return {
        "poi_properties": conn.execute(
            "SELECT user, poi_id, created_at FROM poi_properties ORDER BY user, poi_id").fetchall(),
        "poi_readings": conn.execute(
            "SELECT * FROM poi_readings ORDER BY user, poi_id, mac").fetchall(),
        "poi_visits": conn.execute(
            "SELECT * FROM poi_visits ORDER BY user, poi_id, start_ts, end_ts").fetchall(),
    }


def store_invariant_faults(store) -> list[str]:
    """What breaks the registry's invariant in an open store; [] when it holds.

    For every POI, the stored sums and counts must equal a dict-loop sum
    over the raw readings of the scans inside its visits, as load_day
    reads them, and no two visits of a user may overlap.
    """
    stored: dict[tuple, tuple[dict[str, int], dict[str, int]]] = defaultdict(lambda: ({}, {}))
    for user, poi_id, mac, total, count in store.conn.execute("SELECT * FROM poi_readings"):
        stored[user, poi_id][0][mac], stored[user, poi_id][1][mac] = total, count
    visits = store.conn.execute(
        "SELECT user, poi_id, start_ts, end_ts FROM poi_visits ORDER BY user, start_ts, end_ts"
    ).fetchall()
    scans: dict[tuple, list] = defaultdict(list)
    for user, poi_id, start, end in visits:
        inside = day_rows(store.load_day(user, start, end + 1))
        scans[user, poi_id] += [row.items() for _, row in inside]
    faults = [
        f"POI {key}: stored readings differ from its visits' scans"
        for key in sorted(set(stored) | set(scans))
        if stored.get(key) != naive_fingerprint(scans.get(key, []))
    ]
    for (user, _, _, end), (other, poi_id, start, _) in zip(visits, visits[1:]):
        if user == other and start <= end:
            faults.append(f"user {user!r}: POI {poi_id}'s visit at {start} overlaps the one before")
    return faults


def reference_upsert_day(conn, user: str, clusters, threshold: float) -> list[int]:
    """upsert_day's result, matching each cluster against every POI of the user.

    `clusters` holds (fingerprint, visits) pairs: integer sums and counts
    per MAC, and visits with start, end, scans and sub_minimal. Each
    cluster is scored against the whole registry as the earlier clusters
    left it: the cosine of the mean vectors, a score within 1e-12 of 1
    counted as 1. The best score at or above `threshold`, the lowest
    poi_id on a tie, takes the cluster's visits, and its readings when a
    visit was new; otherwise the cluster becomes POI max(poi_id) + 1.
    """
    registry: dict[int, tuple[dict[str, int], dict[str, int]]] = {}
    for poi_id, mac, total, count in conn.execute(
            "SELECT poi_id, mac, sum, count FROM poi_readings WHERE user = ?", (user,)):
        sums, counts = registry.setdefault(poi_id, ({}, {}))
        sums[mac], counts[mac] = total, count
    ids = []
    with conn:
        for fp, visits in clusters:
            means = {mac: total / fp.counts[mac] for mac, total in fp.sums.items()}
            best_score, best_id = -1.0, None
            for poi_id in sorted(registry):
                sums, counts = registry[poi_id]
                score = naive_cosine(means, {mac: sums[mac] / counts[mac] for mac in sums})
                score = 1.0 if score >= 1.0 - 1e-12 else score
                if score > best_score:
                    best_score, best_id = score, poi_id
            new = best_id is None or best_score < threshold
            if new:
                best_id = max(registry, default=0) + 1
                registry[best_id] = ({}, {})
                conn.execute("INSERT INTO poi_properties VALUES (?, ?, ?)",
                             (user, best_id, min((v.start for v in visits), default=0)))
            added = 0
            for v in visits:
                added += conn.execute(
                    "INSERT OR IGNORE INTO poi_visits VALUES (?, ?, ?, ?, ?, ?)",
                    (user, best_id, v.start, v.end, v.scans, int(v.sub_minimal))).rowcount
            if new or added:
                sums, counts = registry[best_id]
                for mac, total in fp.sums.items():
                    sums[mac] = sums.get(mac, 0) + total
                    counts[mac] = counts.get(mac, 0) + fp.counts[mac]
                conn.executemany("INSERT OR REPLACE INTO poi_readings VALUES (?, ?, ?, ?, ?)",
                                 [(user, best_id, mac, sums[mac], counts[mac]) for mac in sums])
            ids.append(best_id)
    return ids
