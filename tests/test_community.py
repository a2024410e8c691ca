"""Cross-user POI graph, modularity, Louvain, and the threshold sweep."""
import collections
import hashlib
import itertools
import random

import pytest

from oracles import (
    best_partition_q, naive_cosine, naive_modularity, planted_edges, random_fingerprint,
    reference_louvain,
)
from wifipoi import community
from wifipoi.community import (
    PoiGraph,
    build_graph,
    louvain,
    modularity,
    threshold_sweep,
    write_communities_csv,
    write_edge_list,
    write_sweep_csv,
)
from wifipoi.errors import EmptyGraph, PartitionMismatch, TooFewNodes


def make(mapping):
    """A mean vector, as scoring takes a fingerprint's."""
    return dict(mapping)


def clique(nodes, weight=1.0):
    return [(a, b, weight) for a, b in itertools.combinations(nodes, 2)]


def random_graph(rnd, n):
    nodes = tuple(range(n))
    edges = []
    while not edges:
        edges = [
            (a, b, round(rnd.uniform(0.2, 1.0), 3))
            for a, b in itertools.combinations(nodes, 2)
            if rnd.random() < 0.5
        ]
    return PoiGraph(nodes=nodes, edges=tuple(edges))


def mixed_graphs(rnd, count):
    """`count` draws alternating planted groups and G(n, p), edgeless ones skipped."""
    def gnp():
        n, p = rnd.randint(4, 30), rnd.uniform(0.05, 0.5)
        return [(a, b, round(rnd.uniform(0.05, 1.0), 3))
                for a, b in itertools.combinations(range(n), 2) if rnd.random() < p], n

    def planted():
        sizes = [rnd.randint(2, 7) for _ in range(rnd.randint(2, 5))]
        member = [g for g, size in enumerate(sizes) for _ in range(size)]
        edges = [(a, b, round(rnd.uniform(0.5, 1.0), 3) if member[a] == member[b]
                  else round(rnd.uniform(0.05, 0.4), 3))
                 for a, b in itertools.combinations(range(len(member)), 2)
                 if rnd.random() < (0.9 if member[a] == member[b] else 0.1)]
        return edges, len(member)

    for k in range(count):
        edges, n = (gnp if k % 2 else planted)()
        if edges:
            yield PoiGraph(nodes=tuple(range(n)), edges=tuple(edges))


# sha256 of louvain's output on the graphs of test_exact_output_is_pinned
PINNED_LOUVAIN = "31d9f8c41bca4189a8edf9284bb34f9aab39f9de8ad3f231fcdf31f8d6e7fa6e"
PINNED_GRAPHS = 246


def tie_prone_graphs(rnd, count):
    """`count` G(n, p) graphs of 3-60 nodes, weights 1.0, 0.5 or a raw float.

    Every other graph lists its edges shuffled, so adjacency order is
    not ascending node order.
    """
    for k in range(count):
        n, p = rnd.randint(3, 60), rnd.uniform(0.03, 0.5)
        edges = [(a, b, rnd.choice((1.0, 0.5, rnd.random())))
                 for a, b in itertools.combinations(range(n), 2) if rnd.random() < p]
        if k % 2:
            rnd.shuffle(edges)
        if edges:
            yield PoiGraph(nodes=tuple(range(n)), edges=tuple(edges))


def pinned_digest():
    """sha256 over louvain's communities, q and move gains on the pinned graphs."""
    rnd = random.Random(1313)
    planted = random.Random(0)
    graphs = [*tie_prone_graphs(rnd, 200)]
    for _ in range(50):
        n, edges = planted_edges(planted)
        graphs.append(PoiGraph(nodes=tuple(range(n)), edges=tuple(edges)))
    digest = hashlib.sha256()
    for g in graphs:
        p = louvain(g)
        digest.update(repr(sorted(p.communities.items())).encode())
        digest.update(f"|{p.q.hex()}|{','.join(x.hex() for x in p.move_gains)}\n".encode())
    return len(graphs), digest.hexdigest()


def zoned_graphs(rnd, count):
    """`count` graphs of the shapes the pinned graphs leave out, nodes named (user, poi).

    In turn: disjoint cliques; zones of place cliques whose places share
    medium edges and whose zones a few weak edges join, as in a mall;
    such zones with isolated nodes mixed in; and such zones with
    tie_prone_graphs' weights (1.0, 0.5 or a raw float). Node and edge
    order are shuffled, so neither follows the groups.
    """
    for k in range(count):
        zones = [[rnd.randint(1, 6) for _ in range(rnd.randint(1, 4))]
                 for _ in range(rnd.randint(2, 6))]
        place = [(z, p) for z, sizes in enumerate(zones) for p, size in enumerate(sizes)
                 for _ in range(size)]

        def weight(lo, hi):
            if k % 4 == 3:
                return rnd.choice((1.0, 0.5, rnd.random()))
            return round(rnd.uniform(lo, hi), 3)

        edges = []
        for a, b in itertools.combinations(range(len(place)), 2):
            if place[a] == place[b]:
                edges.append((a, b, weight(0.6, 1.0)))
            elif k % 4 == 0:  # disjoint cliques
                continue
            elif place[a][0] == place[b][0] and rnd.random() < 0.5:
                edges.append((a, b, weight(0.2, 0.4)))
            elif place[a][0] != place[b][0] and rnd.random() < 0.02:
                edges.append((a, b, weight(0.05, 0.15)))
        n = len(place) + (rnd.randint(1, 5) if k % 4 == 2 else 0)  # the extra nodes are isolated
        names = [(f"u{rnd.randrange(100):02d}", i) for i in range(n)]
        rnd.shuffle(names)
        rnd.shuffle(edges)
        if edges:
            yield PoiGraph(nodes=tuple(names),
                           edges=tuple((names[a], names[b], w) for a, b, w in edges))


# A tie-prone graph (one of 16,976 random ones) on which a node that
# keeps its memo after it moves is later skipped when a full visit would
# move it, so the output differs from the reference.
STALE_MEMO_EDGES = (
    (10, 17, 0.6927950667042052), (6, 16, 0.5), (3, 8, 1.0), (15, 19, 1.0),
    (6, 17, 0.35132037547756434), (1, 16, 1.0), (4, 13, 0.5), (12, 17, 0.5), (11, 14, 0.5),
    (0, 15, 0.5), (17, 19, 0.5), (5, 8, 0.5), (2, 8, 0.5), (16, 18, 1.0), (3, 17, 1.0),
    (0, 3, 1.0), (7, 12, 1.0), (17, 18, 0.29045252155403434), (3, 4, 0.5), (10, 19, 0.5),
    (7, 17, 0.5), (1, 10, 0.16013218648725513), (2, 15, 0.5), (4, 14, 1.0), (16, 19, 0.5),
    (1, 19, 0.04636988738369785), (15, 18, 0.5), (2, 3, 0.5), (3, 7, 0.03511668544458724),
    (11, 19, 0.5), (1, 18, 0.1378587061790405), (10, 13, 1.0), (2, 4, 1.0),
    (9, 15, 0.48289459871894813), (0, 7, 0.08893770524495481), (0, 16, 1.0), (0, 2, 1.0),
)


def compensated_sum(values, start=0):
    """sum() as Python 3.12 and later add floats: Neumaier's compensated sum."""
    total, comp = float(start), 0.0
    for x in values:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp else total


A = "aa:00:00:00:00:01"
B = "bb:00:00:00:00:02"
C = "cc:00:00:00:00:03"


def worked_example():
    """Two fingerprints whose score is exactly 0.2 (1600 / 8000)."""
    return [make({A: -40.0, B: -80.0}), make({A: -40.0, C: -80.0})]


class TestBuildGraph:
    def test_edge_at_exactly_the_threshold_is_kept(self):
        fps = worked_example()
        assert build_graph(fps, 0.2).edges == ((0, 1, 0.2),)
        assert build_graph(fps, 0.2000001).edges == ()

    def test_proportional_fingerprints_snap_to_one(self):
        # unsnapped, these two score 1.0000000000000002
        base = {A: -41.3, B: -57.9, C: -66.1}
        fps = [make(base), make({mac: 1.7 * r for mac, r in base.items()})]
        assert build_graph(fps, 1.0).edges == ((0, 1, 1.0),)

    def test_too_few_nodes(self):
        with pytest.raises(TooFewNodes):
            build_graph([make({"aa:00:00:00:00:01": -50.0})], 0.5)

    def test_threshold_one_on_distinct_fingerprints_is_edgeless(self):
        rnd = random.Random(14)
        fps = [make(random_fingerprint(rnd)) for _ in range(6)]
        graph = build_graph(fps, 1.0)
        assert graph.edges == ()
        assert len(graph.nodes) == 6

    def test_edges_equal_brute_force_filter(self):
        rnd = random.Random(15)
        dicts = [random_fingerprint(rnd) for _ in range(5)]
        graph = build_graph([make(d) for d in dicts], 0.3)
        want = {
            (i, j)
            for i, j in itertools.combinations(range(5), 2)
            if naive_cosine(dicts[i], dicts[j]) >= 0.3 - 1e-12
        }
        assert {(a, b) for a, b, _ in graph.edges} == want
        for a, b, w in graph.edges:
            assert w >= 0.3
            assert abs(w - naive_cosine(dicts[a], dicts[b])) <= 1e-12

    def test_named_nodes(self):
        rnd = random.Random(16)
        fps = [make(random_fingerprint(rnd)) for _ in range(3)]
        names = [("u1", 1), ("u1", 2), ("u2", 1)]
        graph = build_graph(fps, 0.0, names=names)
        assert graph.nodes == tuple(names)
        with pytest.raises(TooFewNodes):
            build_graph(fps, 0.5, names=names[:2])
        # a repeated name would make one node with a self-loop
        with pytest.raises(TooFewNodes, match="2 distinct names for 3 fingerprints"):
            build_graph(fps, 0.5, names=[names[0], names[0], names[2]])


class TestModularity:
    def test_single_community_is_zero(self):
        g = PoiGraph(nodes=(0, 1, 2), edges=((0, 1, 1.0), (1, 2, 0.5)))
        assert modularity(g, {0: 0, 1: 0, 2: 0}) == 0.0
        rnd = random.Random(27)
        for _ in range(200):
            g = random_graph(rnd, rnd.randint(2, 12))
            assert modularity(g, {n: 0 for n in g.nodes}) == 0.0

    def test_two_disjoint_cliques_split_scores_half(self):
        g = PoiGraph(nodes=tuple(range(6)), edges=tuple(clique([0, 1, 2]) + clique([3, 4, 5])))
        q = modularity(g, {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1})
        assert q == pytest.approx(0.5, abs=1e-15)

    def test_matches_pairwise_oracle_on_planted_graph(self):
        g = PoiGraph(
            nodes=tuple(range(6)),
            edges=tuple(clique([0, 1, 2], 0.9) + clique([3, 4, 5], 0.8) + [(2, 3, 0.25)]),
        )
        rnd = random.Random(17)
        for _ in range(40):
            comm = {n: rnd.randint(0, 2) for n in g.nodes}
            assert modularity(g, comm) == pytest.approx(
                naive_modularity(g.edges, comm), abs=1e-12
            )

    def test_partition_must_cover_all_nodes(self):
        g = PoiGraph(nodes=(0, 1), edges=((0, 1, 1.0),))
        with pytest.raises(PartitionMismatch):
            modularity(g, {0: 0})

    def test_edges_that_weigh_nothing_rejected(self):
        g = PoiGraph(nodes=(0, 1, 2), edges=((0, 1, 0.0), (1, 2, 0.0)))
        with pytest.raises(EmptyGraph):
            modularity(g, {0: 0, 1: 0, 2: 1})


class TestLouvain:
    def test_two_cliques_with_weak_bridge(self):
        g = PoiGraph(
            nodes=tuple(range(8)),
            edges=tuple(clique(range(4)) + clique(range(4, 8)) + [(0, 4, 0.1)]),
        )
        p = louvain(g)
        left = {p.communities[n] for n in range(4)}
        right = {p.communities[n] for n in range(4, 8)}
        assert len(left) == 1 and len(right) == 1 and left != right
        # by hand: m = 12.1, each clique has sigma_in = 12, sigma_tot = 12.1
        m = 12.1
        q_hand = 2 * (12 / (2 * m) - (12.1 / (2 * m)) ** 2)
        assert p.q == pytest.approx(q_hand, abs=1e-12)

    def test_single_edge_joins_both_endpoints(self):
        g = PoiGraph(nodes=(0, 1), edges=((0, 1, 0.7),))
        p = louvain(g)
        assert p.communities[0] == p.communities[1]
        assert p.q == pytest.approx(0.0, abs=1e-15)

    def test_edgeless_graph_rejected(self):
        with pytest.raises(EmptyGraph):
            louvain(PoiGraph(nodes=(0, 1), edges=()))

    def test_edges_that_weigh_nothing_rejected(self):
        with pytest.raises(EmptyGraph):
            louvain(PoiGraph(nodes=(0, 1, 2), edges=((0, 1, 0.0), (1, 2, 0.0))))

    def test_every_accepted_move_strictly_improves(self):
        rnd = random.Random(18)
        for _ in range(10):
            p = louvain(random_graph(rnd, rnd.randint(4, 10)))
            assert all(gain > 0 for gain in p.move_gains)

    def test_gains_sum_to_total_improvement(self):
        rnd = random.Random(19)
        for _ in range(10):
            g = random_graph(rnd, rnd.randint(4, 10))
            p = louvain(g)
            q_singleton = modularity(g, {n: i for i, n in enumerate(g.nodes)})
            assert sum(p.move_gains) == pytest.approx(p.q - q_singleton, abs=1e-9)

    def test_near_optimal_on_small_graphs(self):
        rnd = random.Random(21)
        for _ in range(10):
            g = random_graph(rnd, rnd.randint(3, 8))
            p = louvain(g)
            best = best_partition_q(list(g.nodes), list(g.edges))
            assert p.q >= 0.95 * best - 1e-12
            assert p.q <= best + 1e-12

    def test_final_q_not_below_singleton_baseline(self):
        rnd = random.Random(22)
        for _ in range(10):
            g = random_graph(rnd, rnd.randint(3, 9))
            p = louvain(g)
            assert p.q >= modularity(g, {n: i for i, n in enumerate(g.nodes)}) - 1e-12

    def test_partition_invariant_under_weight_rescaling(self):
        rnd = random.Random(23)
        for scale in (0.25, 3.0, 17.0):
            g = random_graph(rnd, 8)
            scaled = PoiGraph(
                nodes=g.nodes,
                edges=tuple((a, b, w * scale) for a, b, w in g.edges),
            )
            assert louvain(g).communities == louvain(scaled).communities

    def test_deterministic(self):
        rnd = random.Random(24)
        g = random_graph(rnd, 9)
        assert louvain(g) == louvain(g)

    def test_every_community_is_connected(self):
        # Louvain can in principle leave a community whose parts touch
        # only through a node that moved away (Traag et al. 2019)
        for k, g in enumerate(mixed_graphs(random.Random(4), 300)):
            adj = {node: set() for node in g.nodes}
            for a, b, _ in g.edges:
                adj[a].add(b)
                adj[b].add(a)
            groups = collections.defaultdict(set)
            for node, c in louvain(g).communities.items():
                groups[c].add(node)
            for group in groups.values():
                reached, frontier = set(), [min(group)]
                while frontier:
                    node = frontier.pop()
                    reached.add(node)
                    frontier.extend((adj[node] & group) - reached)
                assert reached == group, (k, sorted(group))

    def test_exact_output_is_pinned(self):
        # communities, q and every move gain to the last bit: a rewrite
        # of the move phase must keep each float operation and RNG draw
        assert pinned_digest() == (PINNED_GRAPHS, PINNED_LOUVAIN)

    def test_exact_output_is_pinned_under_compensated_sum(self, monkeypatch):
        # every total adds left to right, so a sum() that compensates, as
        # from Python 3.12 on, moves nothing
        monkeypatch.setattr(community, "sum", compensated_sum, raising=False)
        assert pinned_digest() == (PINNED_GRAPHS, PINNED_LOUVAIN)

    def test_equals_the_unshortened_reference(self):
        # skipped visits, the skipped last refinement and the skipped
        # repeat scores change no bit of the output
        graphs = [*zoned_graphs(random.Random(23), 160), *tie_prone_graphs(random.Random(24), 40),
                  PoiGraph(nodes=tuple(range(20)), edges=STALE_MEMO_EDGES)]
        for k, g in enumerate(graphs):
            part = louvain(g)
            communities, q, gains = reference_louvain(g.nodes, g.edges)
            assert part.communities == communities, k
            assert part.q.hex() == q.hex(), k
            assert [x.hex() for x in part.move_gains] == [x.hex() for x in gains], k

    def test_no_single_node_move_raises_q(self):
        # climbs on aggregated graphs lock nodes inside super-nodes; the
        # node-level phase on the original graph frees them
        for k, g in enumerate(mixed_graphs(random.Random(4), 300)):
            part = louvain(g)
            neighbours = collections.defaultdict(set)
            for a, b, _ in g.edges:
                neighbours[a].add(part.communities[b])
                neighbours[b].add(part.communities[a])
            for node in g.nodes:
                for c in neighbours[node] - {part.communities[node]}:
                    moved = {**part.communities, node: c}
                    assert modularity(g, moved) <= part.q + 1e-9, (k, node, c)


def interior_peak_fingerprints():
    """Three planted groups whose best split shifts with the threshold.

    Groups A and B are internally identical and share one bridge MAC
    (cross score ~0.22); group C coheres only at ~0.45. The sweep over
    [0.2, 0.3, 0.4, 0.5] then rises once bridges drop out and falls
    once C shatters, peaking strictly inside the list.
    """
    fps = []
    for group, own in (("a", -50.0), ("b", -50.0)):
        base = {
            f"{group}0:00:00:00:00:01": own,
            f"{group}1:00:00:00:00:02": -55.0,
            "ab:00:00:00:00:09": -40.0,
        }
        fps.extend(make(base) for _ in range(4))
    for i in range(4):
        fps.append(make({"c0:00:00:00:00:03": -50.0, f"c{i + 1}:00:00:00:00:04": -55.0}))
    return fps


class TestThresholdSweep:
    def test_four_thresholds_four_rows(self):
        table = threshold_sweep(interior_peak_fingerprints(), [0.2, 0.3, 0.4, 0.5])
        assert [t for t, _, _ in table] == [0.2, 0.3, 0.4, 0.5]

    def test_rows_equal_build_graph_then_louvain(self):
        fps = interior_peak_fingerprints()
        names = [("u", k) for k in range(len(fps))]
        for t, graph, partition in threshold_sweep(fps, [0.5, 0.2, 0.4, 0.3], names):
            assert graph == build_graph(fps, t, names)
            assert partition == louvain(graph)

    def test_one_louvain_run_per_distinct_graph(self, monkeypatch):
        calls = []

        def counting_louvain(graph, *args, **kwargs):
            calls.append(len(graph.edges))
            return louvain(graph, *args, **kwargs)

        monkeypatch.setattr(community, "louvain", counting_louvain)
        threshold_sweep(interior_peak_fingerprints(), [0.3, 0.3])
        assert len(calls) == 1
        calls.clear()
        rows = threshold_sweep(worked_example(), [0.1, 0.2, 0.15])
        assert calls == [1]
        assert len({(id(graph), id(partition)) for _, graph, partition in rows}) == 1
        calls.clear()
        table = threshold_sweep(interior_peak_fingerprints(), [0.2, 0.3, 0.4, 0.5, 0.45])
        assert sorted(calls) == sorted({len(graph.edges) for _, graph, _ in table})

    def test_edge_at_exactly_the_threshold_is_kept(self):
        ((t, graph, partition),) = threshold_sweep(worked_example(), [0.2])
        assert graph.edges == ((0, 1, 0.2),)
        assert partition.communities == {0: 0, 1: 0}

    def test_threshold_without_edges_gets_no_row(self):
        ((t, graph, partition),) = threshold_sweep(worked_example(), [1.0, 0.2, 0.9])
        assert t == 0.2 and graph.edges == ((0, 1, 0.2),)

    def test_propagates_empty_graph_from_louvain(self):
        rnd = random.Random(25)
        fps = [make(random_fingerprint(rnd)) for _ in range(8)]
        with pytest.raises(EmptyGraph):
            threshold_sweep(fps, [0.99])

    def test_empty_threshold_list(self):
        rnd = random.Random(26)
        fps = [make(random_fingerprint(rnd)) for _ in range(4)]
        assert threshold_sweep(fps, []) == []

    def test_q_peaks_at_interior_threshold(self):
        table = threshold_sweep(interior_peak_fingerprints(), [0.2, 0.3, 0.4, 0.5])
        qs = [partition.q for _, _, partition in table]
        best = max(range(4), key=lambda k: qs[k])
        assert best not in (0, 3)
        assert qs[best] > qs[0] and qs[best] > qs[3]


class TestReportWriters:
    def test_communities_csv(self, tmp_path):
        fps = interior_peak_fingerprints()
        names = [(f"u{k % 3}", k) for k in range(len(fps))]
        graph = build_graph(fps, 0.4, names=names)
        partition = louvain(graph)
        out = tmp_path / "communities.csv"
        write_communities_csv(partition, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "community_id,poi_id,user"
        assert len(lines) == 1 + len(fps)
        # rows grouped by community, each row's node round-trips
        seen = [tuple(line.split(",")) for line in lines[1:]]
        assert {(u, int(p)) for _, p, u in seen} == set(names)

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        write_sweep_csv([(0.2, 0.5), (0.3, 0.625)], out)
        assert out.read_text().splitlines() == [
            "threshold,modularity",
            "0.2,0.500000",
            "0.3,0.625000",
        ]

    def test_edge_list(self, tmp_path):
        g = PoiGraph(nodes=(("u1", 1), ("u2", 3)), edges=((("u1", 1), ("u2", 3), 0.8),))
        out = tmp_path / "edges.txt"
        write_edge_list(g, out)
        assert out.read_text().splitlines() == ["u1:1 u2:3 0.8"]

    def test_edge_list_of_plain_nodes(self, tmp_path):
        g = PoiGraph(nodes=(0, 1, 2), edges=((0, 1, 0.8), (1, 2, 0.25)))
        out = tmp_path / "edges.txt"
        write_edge_list(g, out)
        assert out.read_text().splitlines() == ["0 1 0.8", "1 2 0.25"]
