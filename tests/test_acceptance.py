"""Acceptance suite: nine end-to-end checks, one pass/fail line each.

Each test prints `[ACCEPTANCE n] PASS ...` after its assertions hold,
so a `pytest -v -s` run shows one line per criterion; under plain -v
the per-test PASSED/FAILED line serves the same purpose. Every check
carries its runtime budget as an assertion.
"""
import collections
import gzip
import random
import sqlite3
import time

import numpy as np
import pytest

from oracles import (
    best_partition_q,
    naive_cosine,
    naive_dbscan,
    planted_edges,
    random_fingerprint,
    random_scan_instance,
    registry_tables,
    utc_day,
)
from wifipoi.clustering import NOISE, VisitInterval, dbscan
from wifipoi.community import PoiGraph, louvain, modularity
from wifipoi.errors import StorageFailure
from wifipoi.ingest import RawStore, compress_batch, decode_log, encode_log, store_raw, upload_of
from wifipoi.model import ClusterParams, Fingerprint, ScanResult, build_log
from wifipoi.registry import SummaryStore, day_window, extract_day, upsert_day
from wifipoi.similarity import cosine_similarity, similarity_matrix
from wifipoi.simgen import (
    AccessPoint,
    Environment,
    ItineraryEntry,
    Place,
    generate_trace,
    load_scenario,
)


def report(n: int, text: str) -> None:
    print(f"[ACCEPTANCE {n}] PASS  {text}")


def make_fp(mapping):
    """A one-scan fingerprint of whole-dBm readings."""
    return Fingerprint({m: int(r) for m, r in mapping.items()}, {m: 1 for m in mapping})


def as_log(dicts, interval=300, t0=1_700_000_000):
    scans = [
        ScanResult(timestamp=t0 + interval * i, observations=tuple(sorted(d.items())))
        for i, d in enumerate(dicts)
    ]
    return build_log("u", "d", scans)


def test_acceptance_1_cosine_reference_equivalence():
    t_start = time.monotonic()
    rnd = random.Random(1001)
    for _ in range(1000):
        d1 = random_fingerprint(rnd)
        # cover identical, partially overlapping, and independent pairs
        roll = rnd.random()
        if roll < 0.1:
            d2 = dict(d1)
        elif roll < 0.3:
            d2 = random_fingerprint(rnd)
            keep = rnd.sample(sorted(d1), k=max(1, len(d1) // 2))
            d2.update({m: d1[m] for m in keep})
        else:
            d2 = random_fingerprint(rnd)
        got = cosine_similarity(d1, d2)
        assert abs(got - naive_cosine(d1, d2)) <= 1e-12
    worked = cosine_similarity(
        {"aa:00:00:00:00:01": -40.0, "bb:00:00:00:00:02": -80.0},
        {"aa:00:00:00:00:01": -40.0, "cc:00:00:00:00:03": -80.0},
    )
    assert worked == 0.2
    elapsed = time.monotonic() - t_start
    assert elapsed < 1.0
    report(1, f"1000 random pairs within 1e-12 of the naive reference; worked example exactly 0.2 ({elapsed:.2f}s)")


def mall_fingerprints():
    scenario = load_scenario("mall-11-users")
    params = ClusterParams()
    with SummaryStore() as store:
        for idx, user in enumerate(sorted(scenario.itineraries)):
            rng = np.random.default_rng([0, idx])
            log, _ = generate_trace(
                scenario.env,
                scenario.itineraries[user],
                scenario.scan_interval,
                rng,
                scenario.sigma,
                user=user,
                device=scenario.devices[user],
            )
            extract_day(store, upload_of(log), utc_day(log.entries[0].timestamp), params)
        return list(store.fingerprints().values())


def test_acceptance_2_pairwise_count_over_mall_poi():
    fps = mall_fingerprints()
    assert len(fps) == 41
    sim = similarity_matrix([fp.rssi for fp in fps])
    above = list(zip(*np.triu_indices(len(fps), k=1)))
    assert len(above) == 820
    for i, j in above:
        assert abs(sim[i, j] - naive_cosine(fps[i].rssi, fps[j].rssi)) <= 1e-12
    report(2, "11-user mall yields h=41 POI and exactly 820 pairwise similarities, each within 1e-12 of the oracle")


def test_acceptance_3_dbscan_brute_force_equivalence():
    t_start = time.monotonic()
    rnd = random.Random(3003)
    for _ in range(100):
        n = rnd.randint(50, 300)
        dicts = random_scan_instance(rnd, n)
        eps = rnd.choice([0.4, 0.5, 0.6, 0.7])
        got = dbscan(upload_of(as_log(dicts)), ClusterParams(epsilon=eps))
        want = naive_dbscan([{m: float(v) for m, v in d.items()} for d in dicts], eps, 4)
        assert got == want
    elapsed = time.monotonic() - t_start
    assert elapsed < 30.0
    report(3, f"100 random instances (50-300 scans) match the brute-force oracle exactly ({elapsed:.1f}s)")


def test_acceptance_4_office_day_structure():
    t_start = time.monotonic()
    scenario = load_scenario("office-day")
    (user,) = scenario.itineraries
    log, truth = generate_trace(
        scenario.env,
        scenario.itineraries[user],
        scenario.scan_interval,
        np.random.default_rng([7, 0]),
        scenario.sigma,
        user=user,
    )
    params = ClusterParams(epsilon=0.5, min_pts=4, scan_interval=scenario.scan_interval)
    with SummaryStore() as store:
        extract_day(store, upload_of(log), utc_day(log.entries[0].timestamp), params)
        tables = registry_tables(store.conn)
    # stored visit rows are (user, poi_id, start_ts, end_ts, scans, sub_minimal)
    visits = sorted(tables["poi_visits"], key=lambda row: row[2])
    assert len(visits) == 6
    assert len(tables["poi_properties"]) == 4
    ids = [poi_id for _, poi_id, *_ in visits]
    # home opens and closes the day; office is visited twice in between
    assert ids[0] == ids[5] and ids[1] == ids[4]
    assert len(set(ids)) == 4
    assert len(truth) == 6
    for (_, _, start, end, _, _), t in zip(visits, truth):
        assert abs(start - t.start) <= params.scan_interval
        assert abs(end - t.end) <= params.scan_interval
    elapsed = time.monotonic() - t_start
    assert elapsed < 5.0
    report(4, f"office day: 6 intervals over 4 POI, revisits stable, boundaries within one scan interval ({elapsed:.1f}s)")


def test_acceptance_5_threshold_splitting_with_doubled_noise():
    t_start = time.monotonic()
    scenario = load_scenario("split-day")
    (user,) = scenario.itineraries
    log, _ = generate_trace(
        scenario.env,
        scenario.itineraries[user],
        scenario.scan_interval,
        np.random.default_rng([0, 0]),
        noise_sigma=2 * scenario.sigma,
        user=user,
    )

    labels = {
        eps: dbscan(upload_of(log), ClusterParams(epsilon=eps, scan_interval=scenario.scan_interval))
        for eps in (0.4, 0.5, 0.6)
    }
    counts = {eps: len(set(l) - {NOISE}) for eps, l in labels.items()}
    noise = {eps: {i for i, l in enumerate(lab) if l == NOISE} for eps, lab in labels.items()}
    assert counts[0.6] >= counts[0.5]
    assert noise[0.4] <= noise[0.5] <= noise[0.6]
    elapsed = time.monotonic() - t_start
    assert elapsed < 10.0
    report(5, f"doubled noise: POI(eps=0.6)={counts[0.6]} >= POI(eps=0.5)={counts[0.5]}; noise monotone over 0.4/0.5/0.6 ({elapsed:.1f}s)")


def test_acceptance_6_three_day_revisit_accuracy():
    t_start = time.monotonic()
    scenario = load_scenario("office-3day")
    (user,) = scenario.itineraries
    params = ClusterParams(scan_interval=scenario.scan_interval)
    by_day: dict[str, list[ItineraryEntry]] = collections.defaultdict(list)
    for entry in scenario.itineraries[user]:
        day = time.strftime("%Y-%m-%d", time.gmtime(entry.arrival))
        by_day[day].append(entry)

    assignments = []  # (place, poi_id) per ground-truth visit
    with SummaryStore() as store:
        for day_idx, day in enumerate(sorted(by_day)):
            log, truth = generate_trace(
                scenario.env,
                tuple(by_day[day]),
                scenario.scan_interval,
                np.random.default_rng([11, day_idx]),
                scenario.sigma,
                user=user,
            )
            extract_day(store, upload_of(log), day_window(day), params, threshold=0.5)
            day_visits = [  # by poi_id, then start
                (poi_id, start, end)
                for _, poi_id, start, end, _, _ in registry_tables(store.conn)["poi_visits"]
                if truth[0].start <= start <= truth[-1].end
            ]
            for t in truth:
                overlapping = [
                    poi_id
                    for poi_id, start, end in day_visits
                    if max(start, t.start) <= min(end, t.end)
                ]
                assert overlapping, f"truth visit to {t.place} has no extracted interval"
                assignments.append((t.place, overlapping[0]))

    ids_by_place: dict[str, list[int]] = collections.defaultdict(list)
    for place, poi_id in assignments:
        ids_by_place[place].append(poi_id)
    modal = {p: max(set(ids), key=ids.count) for p, ids in ids_by_place.items()}
    correct = sum(1 for place, poi_id in assignments if poi_id == modal[place])
    accuracy = correct / len(assignments)
    assert accuracy == 1.0
    assert len(set(modal.values())) == len(modal), "distinct places must keep distinct ids"
    elapsed = time.monotonic() - t_start
    assert elapsed < 10.0
    report(6, f"3-day revisits: identity accuracy 1.0 at threshold 0.5 over {len(assignments)} visits ({elapsed:.1f}s)")


def test_acceptance_7_louvain_correctness():
    t_start = time.monotonic()
    rnd = random.Random(7007)

    # (a) every accepted move has a strictly positive modularity delta
    checked_moves = 0
    for _ in range(20):
        n = rnd.randint(3, 8)
        edges = [
            (a, b, round(rnd.uniform(0.2, 1.0), 3))
            for a in range(n)
            for b in range(a + 1, n)
            if rnd.random() < 0.5
        ]
        if not edges:
            continue
        p = louvain(PoiGraph(nodes=tuple(range(n)), edges=tuple(edges)))
        assert all(gain > 0 for gain in p.move_gains)
        checked_moves += len(p.move_gains)
    assert checked_moves > 0

    # (b) within 5% of the exhaustive optimum on 50 random small graphs.
    # Instances are drawn to resemble the graphs this library feeds the
    # algorithm: thresholded similarity graphs with planted groups,
    # strong intra-group edges and sparse weak cross edges.
    rnd_b = random.Random(0)
    for _ in range(50):
        n, edges = planted_edges(rnd_b)
        g = PoiGraph(nodes=tuple(range(n)), edges=tuple(edges))
        p = louvain(g)
        best = best_partition_q(list(g.nodes), list(g.edges))
        assert p.q >= 0.95 * best - 1e-12
        assert p.q <= best + 1e-12

    # (c) planted two-clique graph, hand-checkable modularity
    cliques = [(a, b, 1.0) for a in range(4) for b in range(a + 1, 4)]
    cliques += [(a, b, 1.0) for a in range(4, 8) for b in range(a + 1, 8)]
    g = PoiGraph(nodes=tuple(range(8)), edges=tuple(cliques + [(0, 4, 0.1)]))
    p = louvain(g)
    assert len({p.communities[n] for n in range(4)}) == 1
    assert len({p.communities[n] for n in range(4, 8)}) == 1
    assert p.communities[0] != p.communities[4]
    m = 12.1  # 12 clique edges + the 0.1 bridge
    q_hand = 2 * (12.0 / (2 * m) - (12.1 / (2 * m)) ** 2)
    assert p.q == pytest.approx(q_hand, abs=1e-12)
    elapsed = time.monotonic() - t_start
    assert elapsed < 60.0
    report(7, f"louvain: positive move gains, >=0.95x exhaustive optimum on 50 graphs, planted cliques exact ({elapsed:.1f}s)")


def test_acceptance_8_codec_roundtrips_and_compression():
    t_start = time.monotonic()
    rnd = random.Random(8008)
    macs = ["02:00:00:00:%02x:%02x" % (k // 256, k % 256) for k in range(60)]
    for _ in range(1000):
        scans = []
        for i in range(rnd.randint(0, 8)):
            chosen = rnd.sample(macs, rnd.randint(1, 6))
            scans.append(
                ScanResult(
                    timestamp=1_700_000_000 + 300 * i,
                    observations=tuple(sorted((m, rnd.randint(-100, -1)) for m in chosen)),
                )
            )
        log = build_log("u", "dev%d" % rnd.randint(1, 5), scans)
        wire = encode_log(log)
        decoded = decode_log(wire, user="u")
        assert decoded.entries == log.entries
        blob = compress_batch(wire)
        assert decode_log(gzip.decompress(blob), user="u").entries == log.entries

    # repetitive stationary 6-hour log: 72 scans x 30 APs
    rng = np.random.default_rng(5)
    aps = tuple(
        AccessPoint("02:00:00:00:01:%02x" % k, float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8)))
        for k in range(30)
    )
    env = Environment(aps=aps, places=(Place("desk", 0.0, 0.0),))
    itinerary = (ItineraryEntry("desk", 1_700_000_000, 1_700_000_000 + 6 * 3600),)
    log, _ = generate_trace(env, itinerary, 300, rng_seed=7, noise_sigma=0.0)
    raw = encode_log(log)
    ratio = len(raw) / len(compress_batch(raw))
    assert len(log) == 72
    assert ratio >= 50.0
    elapsed = time.monotonic() - t_start
    assert elapsed < 10.0
    report(8, f"1000 codec roundtrips exact; 6-hour stationary log compresses {ratio:.0f}x ({elapsed:.1f}s)")


class _FlakyConn:
    """Connection proxy that raises on the k-th data-modifying row.

    Each executemany row counts as one write; a crash on one of them
    leaves the rows before it written, as a crash mid-statement would.
    """

    def __init__(self, conn, fail_on_write):
        self._conn = conn
        self._writes = 0
        self._fail_on_write = fail_on_write

    def execute(self, sql, *args, **kwargs):
        if sql.lstrip().upper().startswith(("INSERT", "UPDATE", "DELETE")):
            self._writes += 1
            if self._writes == self._fail_on_write:
                raise sqlite3.OperationalError("injected crash")
        return self._conn.execute(sql, *args, **kwargs)

    def executemany(self, sql, rows):
        rows = list(rows)
        crash = self._fail_on_write - self._writes - 1
        self._writes += len(rows)
        if 0 <= crash < len(rows):
            self._conn.executemany(sql, rows[:crash])
            raise sqlite3.OperationalError("injected crash")
        return self._conn.executemany(sql, rows)

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def __enter__(self):
        return self._conn.__enter__()

    def __exit__(self, *exc):
        return self._conn.__exit__(*exc)


def test_acceptance_9_persistence_integrity_under_crashes(tmp_path):
    t_start = time.monotonic()
    rnd = random.Random(9009)
    summary = SummaryStore(tmp_path / "acc9.db")
    raw = RawStore(tmp_path / "acc9.db")
    known_fps = []
    ingested = []
    visit_clock = 1_700_000_000

    for op in range(200):
        roll = rnd.random()
        visit_clock += 1800
        if roll < 0.45:
            # upsert, occasionally a revisit of a known fingerprint
            if known_fps and rnd.random() < 0.4:
                fp = rnd.choice(known_fps)
            else:
                fp = make_fp(random_fingerprint(rnd))
                known_fps.append(fp)
            upsert_day(summary, rnd.choice(["u1", "u2", "u3"]), utc_day(visit_clock),
                       [(fp, [VisitInterval(1, visit_clock, visit_clock + 1200, 4)])])
        elif roll < 0.65:
            # crash injected somewhere inside the write transaction;
            # a fresh fingerprint makes 6 writes or more (the day's visit
            # delete, poi row, 2 visits and a reading per MAC, of 2 or more);
            # visit_clock is 800 s past a half hour, so both visits start on its day
            before = registry_tables(summary.conn)
            real = summary.conn
            summary.conn = _FlakyConn(real, fail_on_write=rnd.randint(1, 5))
            try:
                with pytest.raises(StorageFailure):
                    upsert_day(summary, "u1", utc_day(visit_clock), [
                        (make_fp(random_fingerprint(rnd)), [
                            VisitInterval(1, visit_clock, visit_clock + 600, 4),
                            VisitInterval(1, visit_clock + 900, visit_clock + 1500, 4),
                        ])])
            finally:
                summary.conn = real
            assert registry_tables(summary.conn) == before
        else:
            scans = [
                ScanResult(
                    timestamp=visit_clock + 300 * i,
                    observations=(("02:00:00:00:02:%02x" % rnd.randint(0, 20), rnd.randint(-90, -40)),),
                )
                for i in range(rnd.randint(1, 4))
            ]
            log = build_log(rnd.choice(["u1", "u2"]), "dev", scans)
            store_raw(raw, [upload_of(log)])
            ingested.append(log)
        assert summary.check_integrity()

    # ingest idempotence: replaying every batch adds nothing new
    for log in ingested:
        replay = store_raw(raw, [upload_of(log)])[0]
        assert replay.added == 0
    assert summary.check_integrity()
    summary.close()
    raw.close()
    elapsed = time.monotonic() - t_start
    assert elapsed < 10.0
    report(9, f"200 randomized ops with injected crashes keep referential integrity; replays add 0 rows ({elapsed:.1f}s)")
