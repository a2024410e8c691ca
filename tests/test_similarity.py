"""Fingerprint cosine scoring: exact worked values, properties, oracle."""
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from oracles import naive_cosine, random_fingerprint, random_scan_instance
from wifipoi import similarity
from wifipoi.community import build_graph
from wifipoi.errors import EmptyFingerprint
from wifipoi.ingest import upload_of
from wifipoi.model import ScanResult, build_log
from wifipoi.similarity import (
    _BLOCK,
    _score_blocks,
    common_dot,
    cosine_similarity,
    self_dot,
    similarity_matrix,
)

A = "aa:00:00:00:00:01"
B = "bb:00:00:00:00:02"
C = "cc:00:00:00:00:03"


def fp(**rssi):
    mapping = {
        {"a": A, "b": B, "c": C}[k]: float(v) for k, v in rssi.items()
    }
    return mapping


def make(mapping):
    """A mean vector, as scoring takes a fingerprint's."""
    return dict(mapping)


def dbm_matrix(dicts):
    """The whole-dBm rows of scans with these readings, 300 s apart, from their columns."""
    scans = [ScanResult(300 * i, tuple(sorted(d.items()))) for i, d in enumerate(dicts)]
    day = upload_of(build_log("u", "d", scans))
    x = np.zeros((len(day.times), len(day.macs)))
    x[np.repeat(np.arange(len(day.times)), day.counts), day.ids] = day.rssi
    return x


class TestDots:
    def test_common_dot_single_shared_mac(self):
        assert common_dot(fp(a=-40, b=-80), fp(a=-40, c=-80)) == 1600.0

    def test_common_dot_disjoint(self):
        assert common_dot(fp(a=-50), make({B: -50.0})) == 0.0

    def test_common_dot_identical(self):
        assert common_dot(fp(a=-50, b=-60), fp(a=-50, b=-60)) == 6100.0

    def test_self_dot(self):
        assert self_dot(fp(a=-40, b=-80)) == 8000.0
        assert self_dot(fp(a=-1)) == 1.0
        assert self_dot(fp(a=-50, b=-60)) == 6100.0


class TestCosine:
    def test_identical_is_one(self):
        assert cosine_similarity(fp(a=-50, b=-60), fp(a=-50, b=-60)) == 1.0

    def test_worked_example_is_exactly_a_fifth(self):
        # one shared MAC at -40 against two 8000 self dots
        assert cosine_similarity(fp(a=-40, b=-80), fp(a=-40, c=-80)) == 0.2

    def test_disjoint_is_zero(self):
        assert cosine_similarity(fp(a=-50), make({B: -50.0})) == 0.0

    def test_proportional_same_macs_is_one(self):
        one = fp(a=-20, b=-40)
        other = fp(a=-30, b=-60)
        assert cosine_similarity(one, other) == 1.0

    def test_missing_mac_keeps_score_below_one(self):
        # extra MAC only inflates its owner's denominator
        assert cosine_similarity(fp(a=-50), fp(a=-50, b=-60)) < 1.0

    def test_empty_fingerprint_rejected(self):
        empty = {}
        with pytest.raises(EmptyFingerprint):
            cosine_similarity(empty, fp(a=-50))
        with pytest.raises(EmptyFingerprint):
            cosine_similarity(fp(a=-50), empty)


finger = st.dictionaries(
    st.sampled_from([A, B, C, "dd:00:00:00:00:04", "ee:00:00:00:00:05"]),
    st.integers(-100, -1).map(float),
    min_size=1,
    max_size=5,
)


class TestProperties:
    @given(finger, finger)
    def test_symmetry_and_range(self, d1, d2):
        c12 = cosine_similarity(make(d1), make(d2))
        c21 = cosine_similarity(make(d2), make(d1))
        assert c12 == c21
        assert 0.0 <= c12 <= 1.0

    @given(finger, finger, st.floats(0.1, 10.0, allow_nan=False))
    def test_positive_scale_invariance(self, d1, d2, k):
        base = cosine_similarity(make(d1), make(d2))
        scaled = cosine_similarity(make({m: v * k for m, v in d1.items()}), make(d2))
        assert abs(base - scaled) <= 1e-12

    @given(finger, st.floats(0.5, 3.0, allow_nan=False))
    def test_identity_for_proportional_fingerprints(self, d, k):
        assert cosine_similarity(make(d), make({m: v * k for m, v in d.items()})) == 1.0

    def test_oracle_agreement_on_random_pairs(self):
        rnd = random.Random(20260819)
        for _ in range(300):
            d1 = random_fingerprint(rnd)
            d2 = random_fingerprint(rnd)
            got = cosine_similarity(make(d1), make(d2))
            assert abs(got - naive_cosine(d1, d2)) <= 1e-12


class TestPairwise:
    # At threshold 0 every pair is an edge, so the graph lists every
    # score of the row-blocked route once; 130 fingerprints span three
    # blocks.
    def test_pair_counts(self):
        rnd = random.Random(3)
        for h, want in ((2, 1), (5, 10), (41, 820), (130, 8385)):
            fps = [make(random_fingerprint(rnd)) for _ in range(h)]
            assert len(build_graph(fps, 0.0).edges) == want

    # 129 fingerprints make three blocks, the last of one row
    def test_entries_sorted_and_consistent(self):
        rnd = random.Random(4)
        for h in (6, 70, 129):
            fps = [make(random_fingerprint(rnd)) for _ in range(h)]
            edges = build_graph(fps, 0.0).edges
            assert [(i, j) for i, j, _ in edges] == [
                (i, j) for i in range(h) for j in range(i + 1, h)
            ]
            for i, j, c in edges:
                assert c == cosine_similarity(fps[i], fps[j])


class TestMatrix:
    def test_matches_scalar_route(self):
        rnd = random.Random(5)
        fps = [make(random_fingerprint(rnd)) for _ in range(25)]
        sim = similarity_matrix(fps)
        assert sim.shape == (25, 25)
        assert np.all(np.diag(sim) == 1.0)
        for i in range(25):
            for j in range(i + 1, 25):
                assert abs(sim[i, j] - cosine_similarity(fps[i], fps[j])) <= 1e-12
                assert sim[i, j] == sim[j, i]

    # dbscan mirrors each upper-triangle block into the lower triangle and
    # reads row i of its thresholded matrix as column i, which holds
    # because whole-dBm dot products are exact in any order.
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
    def test_whole_dbm_scans_are_exact_and_symmetric(self, n):
        dicts = random_scan_instance(random.Random(n), n)
        sim = np.full((n, n), np.nan)
        for lo, block in _score_blocks(dbm_matrix(dicts)):
            hi = lo + len(block)
            assert lo % _BLOCK == 0 and block.shape == (min(_BLOCK, n - lo), n - lo)
            sim[lo:hi, lo:] = block
            sim[hi:, lo:hi] = block[:, hi - lo :].T
        assert np.array_equal(sim, sim.T)
        assert sim.tolist() == [[naive_cosine(a, b) for b in dicts] for a in dicts]

    # dbscan scores each chunk of scans over that chunk's MACs alone, so
    # its scores must not depend on the columns no row of the chunk holds.
    @pytest.mark.parametrize("block", [8, 64])
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 140).flatmap(lambda n: arrays(
            np.int64, (n, 6), elements=st.one_of(st.just(0), st.integers(-100, -1)))),
        st.lists(st.integers(0, 6), max_size=8),
    )
    def test_whole_dbm_scores_ignore_all_zero_columns(self, block, x, at):
        x[~x.any(axis=1), 0] = -1  # every row holds a reading
        layouts = [x, x[:, x.any(axis=0)], np.insert(x, at, 0, axis=1)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(similarity, "_BLOCK", block)
            scored = [[(lo, b.tobytes()) for lo, b in _score_blocks(rows.astype(float))]
                      for rows in layouts]
        assert scored[0] == scored[1] == scored[2]
        assert len(scored[0]) == -(-len(x) // block)

    def test_a_result_does_not_share_the_scorers_buffer(self):
        rnd = random.Random(6)
        first = [make(random_fingerprint(rnd)) for _ in range(70)]
        sim = similarity_matrix(first)
        kept = sim.copy()
        similarity_matrix([make(random_fingerprint(rnd)) for _ in range(70)])
        assert np.array_equal(sim, kept)
        assert sim.tolist() == [[cosine_similarity(a, b) for b in first] for a in first]

    def test_the_scorers_memory_is_one_fixed_buffer(self):
        n = 1000
        x = dbm_matrix(random_scan_instance(random.Random(7), n))
        tracemalloc.start()
        try:
            for _ in _score_blocks(x):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 17 * _BLOCK * n + 16 * n + 64 * 1024

    def test_diagonal_is_one_on_long_float_rows(self):
        # a self score misses 1 only by rounding, which the snap to 1 absorbs
        rng = np.random.default_rng(8)
        macs = [f"02:00:00:00:{k >> 8:02x}:{k & 255:02x}" for k in range(5000)]
        fps = [make(zip(macs, rng.uniform(-100.0, -1.0, len(macs)).tolist())) for _ in range(4)]
        fps.append(make(zip(macs[::3], rng.uniform(-100.0, -1.0, 1667).tolist())))
        assert np.diag(similarity_matrix(fps)).tolist() == [1.0] * 5

    def test_worked_example_in_matrix_form(self):
        sim = similarity_matrix([fp(a=-40, b=-80), fp(a=-40, c=-80)])
        assert sim[0, 1] == 0.2

    def test_empty_input_and_empty_fingerprint(self):
        assert similarity_matrix([]).shape == (0, 0)
        with pytest.raises(EmptyFingerprint):
            similarity_matrix([fp(a=-50), {}])
