"""Density clustering over scan fingerprints and visit segmentation."""
import random
import tracemalloc

import numpy as np
import pytest

from oracles import MAC_POOL, disjoint_places_day, naive_dbscan, naive_groups, naive_visits, place_pool
from oracles import random_scan_instance, scan_columns
from wifipoi import clustering, similarity
from wifipoi.clustering import NOISE, dbscan, segment_visits
from wifipoi.errors import EmptyFingerprint, EmptyLog, LabelLengthMismatch
from wifipoi.ingest import upload_of
from wifipoi.model import ClusterParams, ScanLog, ScanResult, Scans, build_log
from wifipoi.registry import build_fingerprint
from wifipoi.similarity import _BLOCK, cosine_similarity, similarity_matrix

A = "aa:00:00:00:00:01"
B = "bb:00:00:00:00:02"
C = "cc:00:00:00:00:03"


def make_log(dicts, interval=300, t0=1_700_000_000):
    scans = [
        ScanResult(timestamp=t0 + interval * i, observations=tuple(sorted(d.items())))
        for i, d in enumerate(dicts)
    ]
    return build_log("u", "d", scans)


def desk_scan(jitter=0):
    return {A: -50 + jitter, B: -60 + jitter, C: -70 + jitter}


def scan_fps(log):
    """Each scan of the log as the mean vector of its own one-scan fingerprint."""
    day = upload_of(log)
    return [build_fingerprint(day.macs, ids, rssi).rssi for ids, rssi in scan_columns(day)]


def as_floats(dicts):
    return [{m: float(v) for m, v in d.items()} for d in dicts]


def without_readings(day, empty):
    """The day as Scans, with the scans `empty` holding no readings."""
    counts = day.counts.copy()
    counts[empty] = 0
    keep = np.repeat(counts > 0, day.counts)
    return Scans(day.user, day.times, counts, day.macs, day.ids[keep], day.rssi[keep])


def group_names(dicts):
    """Each scan's group by naive_groups, named by its smallest scan."""
    name = [0] * len(dicts)
    for group in naive_groups(dicts):
        for i in group:
            name[i] = min(group)
    return name


def neighbours(fps, i, eps):
    """Row i of the thresholded matrix: the neighbourhood dbscan uses."""
    return np.flatnonzero(similarity_matrix(fps)[i] >= eps).tolist()


class TestFindNeighbours:
    def test_identical_entries_all_match(self):
        fps = scan_fps(make_log([desk_scan()] * 5))
        assert neighbours(fps, 0, 0.5) == list(range(5))

    def test_disjoint_point_only_matches_itself(self):
        dicts = [desk_scan()] * 4 + [{"dd:00:00:00:00:04": -40}]
        fps = scan_fps(make_log(dicts))
        assert neighbours(fps, 4, 0.5) == [4]

    def test_random_instance_equals_brute_force(self):
        rnd = random.Random(9)
        dicts = random_scan_instance(rnd, 50)
        fps = scan_fps(make_log(dicts))
        for i in (0, 17, 49):
            want = [j for j in range(50) if cosine_similarity(fps[i], fps[j]) >= 0.5]
            assert neighbours(fps, i, 0.5) == want


class TestDbscan:
    def test_single_desk_is_one_cluster(self):
        labels = dbscan(upload_of(make_log([desk_scan(j % 3) for j in range(12)])), ClusterParams())
        assert set(labels) == {1}

    def test_three_scans_cannot_reach_min_pts(self):
        labels = dbscan(upload_of(make_log([desk_scan()] * 3)), ClusterParams())
        assert labels == [NOISE] * 3

    def test_epsilon_one_clusters_proportional_scans(self):
        # proportional readings score exactly 1.0, which meets eps = 1.0;
        # the last scan is close but not proportional, so it stays noise
        dicts = [{A: -20, B: -40}, {A: -30, B: -60}, {A: -40, B: -80}, {A: -20, B: -40},
                 {A: -21, B: -40}]
        labels = dbscan(upload_of(make_log(dicts)), ClusterParams(epsilon=1.0))
        assert labels == [1, 1, 1, 1, NOISE]

    def test_empty_log_rejected(self):
        with pytest.raises(EmptyLog):
            dbscan(upload_of(ScanLog(user="u", device="d", entries=())), ClusterParams())

    def test_labels_are_deterministic(self):
        rnd = random.Random(11)
        log = make_log(random_scan_instance(rnd, 80))
        params = ClusterParams(epsilon=0.6)
        assert dbscan(upload_of(log), params) == dbscan(upload_of(log), params)

    def test_matches_reference_on_random_instances(self):
        rnd = random.Random(2)
        for _ in range(20):
            dicts = random_scan_instance(rnd, rnd.randint(30, 120))
            eps = rnd.choice([0.4, 0.5, 0.6, 0.7])
            got = dbscan(upload_of(make_log(dicts)), ClusterParams(epsilon=eps))
            want = naive_dbscan([{m: float(v) for m, v in d.items()} for d in dicts], eps, 4)
            assert got == want

    # one scan, one pair, one whole block, one row past it, and a short
    # third block: the upper-triangle blocks and their mirror fill `near`
    @pytest.mark.parametrize("n", [1, 2, 64, 65, 129])
    @pytest.mark.parametrize("eps", [0.3, 0.5, 1.0])
    def test_matches_reference_at_block_edges(self, n, eps):
        dicts = random_scan_instance(random.Random(n), n)
        got = dbscan(upload_of(make_log(dicts)), ClusterParams(epsilon=eps))
        assert got == naive_dbscan([{m: float(v) for m, v in d.items()} for d in dicts], eps, 4)

    def test_memory_stays_within_the_stated_bound_on_a_one_place_day(self, monkeypatch):
        # At one place every scan is in one cluster, so the walk reaches
        # every row of `near`; reading them all at once would copy `near`.
        # A _BLOCK of 8 makes n^2 the largest term at a size that
        # naive_dbscan can check.
        block = 8
        monkeypatch.setattr(similarity, "_BLOCK", block)
        monkeypatch.setattr(clustering, "_BLOCK", block)
        rnd = random.Random(5)
        desk = {mac: rnd.randint(-80, -40) for mac in MAC_POOL[:8]}
        dicts = [{mac: v + rnd.randint(-3, 3) for mac, v in desk.items()} for _ in range(600)]
        day = upload_of(make_log(dicts, interval=30))
        tracemalloc.start()
        try:
            labels = dbscan(day, ClusterParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, macs = len(day.times), len(day.macs)
        assert peak <= n * n + 8 * n * macs + 17 * block * n + 16 * n + 64 * 1024
        want = naive_dbscan([{m: float(v) for m, v in d.items()} for d in dicts], 0.5, 4)
        assert labels == want == [1] * n

    def test_noise_monotone_in_epsilon(self):
        rnd = random.Random(13)
        for _ in range(10):
            log = make_log(random_scan_instance(rnd, 90))
            noisy_at = {}
            for eps in (0.4, 0.5, 0.6, 0.75):
                labels = dbscan(upload_of(log), ClusterParams(epsilon=eps))
                noisy_at[eps] = {i for i, l in enumerate(labels) if l == NOISE}
            assert noisy_at[0.4] <= noisy_at[0.5] <= noisy_at[0.6] <= noisy_at[0.75]

    def test_twenty_minute_rule(self):
        # 3 scans at one place never reach minPts=4 within a 15-min stay
        dicts = [{A: -50, B: -60}] * 3 + [{"dd:00:00:00:00:04": -55, "ee:00:00:00:00:05": -65}] * 12
        labels = dbscan(upload_of(make_log(dicts)), ClusterParams())
        assert labels[:3] == [NOISE] * 3
        assert set(labels[3:]) == {1}


class TestDbscanByGroup:
    """A day of 2 * _BLOCK scans or more is clustered a chunk of whole groups at a time."""

    @pytest.mark.parametrize("n", [2 * _BLOCK - 1, 2 * _BLOCK, 300])
    @pytest.mark.parametrize("eps", [0.3, 0.5, 1.0])
    def test_matches_reference_on_interleaved_places(self, n, eps):
        rest = n - 23
        dicts = disjoint_places_day(random.Random(n), [3, 20, rest // 3, rest - rest // 3])
        day = upload_of(make_log(dicts, interval=30))
        groups = naive_groups(dicts)
        assert min(map(len, groups)) < _BLOCK < max(map(len, groups))
        assert any(max(g) - min(g) >= len(g) for g in groups)  # a group's scans are spread
        assert (len(clustering._chunks(day)) > 1) == (n >= 2 * _BLOCK)
        assert dbscan(day, ClusterParams(epsilon=eps)) == naive_dbscan(as_floats(dicts), eps, 4)

    @pytest.mark.parametrize("eps", [0.3, 0.5, 1.0])
    def test_small_block_packs_several_groups_into_one_chunk(self, monkeypatch, eps):
        block = 8
        monkeypatch.setattr(similarity, "_BLOCK", block)
        monkeypatch.setattr(clustering, "_BLOCK", block)
        dicts = disjoint_places_day(random.Random(7), [2, 3, 5, 30, 4, 12, 1, 40, 6])
        day = upload_of(make_log(dicts, interval=30))
        chunks = clustering._chunks(day)
        assert len(chunks) < len(naive_groups(dicts))
        assert all(len(chunk) >= block for chunk in chunks[:-1])
        assert dbscan(day, ClusterParams(epsilon=eps)) == naive_dbscan(as_floats(dicts), eps, 4)

    def test_clusters_are_numbered_across_chunks_by_smallest_core_scan(self):
        # Place A's two rooms share one faint MAC, so A is one group and
        # one chunk with two clusters; place B comes between the rooms.
        rnd = random.Random(4)
        a1, a2, b = place_pool(0)[:5], place_pool(0)[4:9], place_pool(1)[:5]

        def room(macs):
            return {mac: (-90 if mac == place_pool(0)[4] else -50) + rnd.randint(-3, 3) for mac in macs}

        dicts = [room(a1) for _ in range(70)] + [room(b) for _ in range(70)] + [room(a2) for _ in range(70)]
        day = upload_of(make_log(dicts, interval=30))
        assert [len(chunk) for chunk in clustering._chunks(day)] == [140, 70]
        labels = dbscan(day, ClusterParams())
        assert labels == [1] * 70 + [2] * 70 + [3] * 70
        assert labels == naive_dbscan(as_floats(dicts), 0.5, 4)

    def test_each_chunk_is_walked_over_its_own_macs(self, monkeypatch):
        dicts = disjoint_places_day(random.Random(11), [40, 90, 7, 60, 33])
        day = upload_of(make_log(dicts, interval=30))
        chunks = clustering._chunks(day)
        assert len(dicts) >= 2 * _BLOCK and len(chunks) > 1
        widths = []
        walk = clustering._walk

        def recording(x, params):
            widths.append(x.shape[1])
            return walk(x, params)

        monkeypatch.setattr(clustering, "_walk", recording)
        labels = dbscan(day, ClusterParams())
        assert widths == [len({mac for i in chunk for mac in dicts[i]}) for chunk in chunks]
        assert max(widths) < len(day.macs)
        assert labels == naive_dbscan(as_floats(dicts), 0.5, 4)

    def test_groups_are_the_scans_linked_by_shared_macs(self):
        rnd = random.Random(17)
        for _ in range(10):
            sizes = [rnd.randint(1, 40) for _ in range(rnd.randint(1, 6))]
            for dicts in (disjoint_places_day(rnd, sizes), random_scan_instance(rnd, sum(sizes))):
                day = upload_of(make_log(dicts))
                assert clustering._groups(day).tolist() == group_names(dicts)
                # a scan emptied of its readings is a group of its own
                empty = rnd.sample(range(len(dicts)), rnd.randint(1, len(dicts)))
                got = clustering._groups(without_readings(day, empty))
                assert got.tolist() == group_names([{} if i in empty else d for i, d in enumerate(dicts)])
                assert got[empty].tolist() == empty

    @pytest.mark.parametrize("n", [10, 2 * _BLOCK + 10])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_scan_without_readings_raises_empty_fingerprint(self, n, where):
        day = upload_of(make_log(disjoint_places_day(random.Random(3), [n // 2, n - n // 2])))
        k = {"first": 0, "middle": n // 2, "last": n - 1}[where]
        with pytest.raises(EmptyFingerprint):
            dbscan(without_readings(day, [k]), ClusterParams())

    @pytest.mark.parametrize("macs", [(), (A, B)])
    def test_a_day_without_any_reading_raises_empty_fingerprint(self, macs):
        n = 2 * _BLOCK
        day = Scans("u", np.arange(n) * 30, np.zeros(n, np.int64), macs,
                    np.zeros(0, np.int64), np.zeros(0, np.int8))
        assert clustering._groups(day).tolist() == list(range(n))
        with pytest.raises(EmptyFingerprint):
            dbscan(day, ClusterParams())

    def test_memory_stays_within_the_largest_chunk_s_bound_on_four_places(self):
        # Four places that share no MAC, 600 scans each, interleaved: each
        # place is one group and one chunk, so `near` is 600^2, not 2400^2.
        rnd = random.Random(5)
        desks = [{mac: rnd.randint(-80, -40) for mac in place_pool(k, 8)} for k in range(4)]
        places = [k for k in range(4) for _ in range(600)]
        rnd.shuffle(places)
        dicts = [{mac: v + rnd.randint(-3, 3) for mac, v in desks[k].items()} for k in places]
        day = upload_of(make_log(dicts, interval=30))
        tracemalloc.start()
        try:
            labels = dbscan(day, ClusterParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, w = len(day.times), len(desks[0])
        c = max(map(len, clustering._chunks(day)))
        assert (c, w) == (600, 8)
        # the chunk's bound, its rows over its own w MACs, plus the day's
        # bookkeeping (3 n-long vectors); the rows' building blocks are
        # freed before `near` exists
        bound = c * c + 8 * c * w + 17 * _BLOCK * c + 16 * c
        assert peak <= bound + 24 * n + 64 * 1024 < n * n / 4
        first = sorted(range(4), key=places.index)
        assert labels == [1 + first.index(k) for k in places]


class TestSegmentVisits:
    def test_revisit_pattern_gives_three_intervals(self):
        dicts = [desk_scan()] * 12
        log = make_log(dicts)
        labels = [1, 1, 1, 1, 2, 2, 2, 2, 1, 1, 1, 1]
        visits = segment_visits(upload_of(log), labels, ClusterParams())
        assert [(v.label, v.scans) for v in visits] == [(1, 4), (2, 4), (1, 4)]
        assert [v.start for v in visits] == sorted(v.start for v in visits)
        assert visits[0].end == log.entries[3].timestamp
        assert visits[2].start == log.entries[8].timestamp

    def test_all_noise_gives_no_intervals(self):
        log = make_log([desk_scan()] * 3)
        assert segment_visits(upload_of(log), [NOISE] * 3, ClusterParams()) == []

    def test_label_length_mismatch(self):
        log = make_log([desk_scan()] * 3)
        with pytest.raises(LabelLengthMismatch):
            segment_visits(upload_of(log), [1, 1], ClusterParams())

    def test_gap_beyond_twice_interval_splits_run(self):
        t0 = 1_700_000_000
        scans = [ScanResult(timestamp=t, observations=tuple(sorted(desk_scan().items())))
                 for t in (t0, t0 + 300, t0 + 300 + 601, t0 + 300 + 901)]
        log = build_log("u", "d", scans)
        visits = segment_visits(upload_of(log), [1, 1, 1, 1], ClusterParams())
        assert len(visits) == 2
        assert visits[0].scans == 2 and visits[1].scans == 2

    def test_gap_of_exactly_twice_interval_keeps_run(self):
        t0 = 1_700_000_000
        scans = [ScanResult(timestamp=t, observations=tuple(sorted(desk_scan().items())))
                 for t in (t0, t0 + 600, t0 + 1200, t0 + 1800)]
        log = build_log("u", "d", scans)
        visits = segment_visits(upload_of(log), [1, 1, 1, 1], ClusterParams())
        assert len(visits) == 1 and visits[0].scans == 4

    def test_short_runs_flagged_sub_minimal(self):
        log = make_log([desk_scan()] * 7)
        visits = segment_visits(upload_of(log), [1, 1, 1, 1, 2, 2, 2], ClusterParams())
        assert [v.sub_minimal for v in visits] == [False, True]

    def test_noise_breaks_runs(self):
        log = make_log([desk_scan()] * 9)
        visits = segment_visits(upload_of(log), [1, 1, 1, 1, NOISE, 1, 1, 1, 1], ClusterParams())
        assert [(v.label, v.scans) for v in visits] == [(1, 4), (1, 4)]

    def test_matches_run_state_oracle_on_random_days(self):
        rnd = random.Random(21)
        params = ClusterParams(min_pts=3, scan_interval=300)
        exact_gaps = 0
        for n in [0, 1, 2] + [rnd.randint(3, 40) for _ in range(200)]:
            t, times, labels = 1_700_000_000, [], []
            for _ in range(n):
                step = rnd.choice([1, 300, 599, 600, 601, 1200])  # 600 = 2 * scan_interval
                exact_gaps += step == 600 and bool(times)
                t += step
                times.append(t)
                keep = labels and rnd.random() < 0.7
                labels.append(labels[-1] if keep else rnd.choice([NOISE, 1, 2, 3]))
            log = build_log("u", "d", [ScanResult(t, ((A, -50),)) for t in times])
            got = segment_visits(upload_of(log), labels, params)
            want = naive_visits(times, labels, params.scan_interval, params.min_pts)
            assert [(v.label, v.start, v.end, v.scans, v.sub_minimal) for v in got] == want
        assert exact_gaps > 0
