"""Cross-user POI graph and Louvain community detection.

Nodes are POI (typically (user, poi_id) pairs), edges carry the cosine
similarity of their fingerprints, and only pairs scoring at or above
an edge threshold are kept. Louvain then maximizes weighted modularity

    Q = sum over communities of [ S_in/(2m) - (S_tot/(2m))^2 ]

where m is the total edge weight, S_in the within-community weight
counted in both directions and S_tot the summed degrees. Communities
of POI belonging to different users mark places those users share.

The implementation is the classic two-phase scheme: greedy single-node
moves to the neighbouring community with the largest positive gain,
then aggregation of communities into super-nodes, repeated until no
move helps. After each climb the move phase reruns on the original
graph so nodes locked inside a super-node can still escape. Because
the greedy is order-dependent, _STARTS independent starts run (the
first visits nodes in sorted order, the rest in fixed-seed shuffles)
and the best-scoring partition wins, so results are deterministic.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import EmptyGraph, PartitionMismatch, TooFewNodes
from .model import Fingerprint
from .similarity import _score_blocks

Node = Hashable

# A move is accepted only when it beats staying put by more than this,
# so accepted per-move gains are strictly positive and ties stay put.
_GAIN_EPS = 1e-12

# Greedy starts per louvain call; one start misses the optimum on
# planted graphs that eight reach.
_STARTS = 8


@dataclass(frozen=True)
class PoiGraph:
    """Weighted undirected graph: no self-loops, one edge per pair."""

    nodes: tuple[Node, ...]
    edges: tuple[tuple[Node, Node, float], ...]

    def total_weight(self) -> float:
        return sum(w for _, _, w in self.edges)


@dataclass(frozen=True)
class Partition:
    """Node -> community id map with its modularity score.

    move_gains records the modularity delta of every accepted Louvain
    move, in order, across all levels; each entry is strictly positive
    and they sum to q minus the singleton-partition modularity.
    """

    communities: Mapping[Node, int]
    q: float
    move_gains: tuple[float, ...] = field(default=(), compare=False)


def build_graph(
    fps: Sequence[Fingerprint],
    threshold: float,
    names: Sequence[Node] | None = None,
) -> PoiGraph:
    """Score all h(h-1)/2 pairs and keep edges with C >= threshold.

    Edges come in row-major (i, j) order, which Louvain's tie-breaks
    depend on. `names` labels the nodes (defaults to indices); the CLI
    passes (user, poi_id) pairs. Raises TooFewNodes for fewer than 2
    fingerprints or a name count that does not match.
    """
    h = len(fps)
    if h < 2:
        raise TooFewNodes(f"need at least 2 fingerprints, got {h}")
    nodes: tuple[Node, ...]
    nodes = tuple(names) if names is not None else tuple(range(h))
    if len(nodes) != h:
        raise TooFewNodes(f"{len(nodes)} names for {h} fingerprints")
    edges: list[tuple[Node, Node, float]] = []
    index = np.arange(h)
    for lo, block in _score_blocks([fp.rssi.items() for fp in fps]):
        i, j = np.nonzero((block >= threshold) & (index > index[lo : lo + len(block), None]))
        pairs = zip((lo + i).tolist(), j.tolist(), block[i, j].tolist())
        edges.extend((nodes[a], nodes[b], c) for a, b, c in pairs)
    return PoiGraph(nodes=nodes, edges=tuple(edges))


def modularity(graph: PoiGraph, comm: Mapping[Node, int]) -> float:
    """Weighted modularity Q of a node -> community map over the graph.

    Raises PartitionMismatch when any node is unassigned and EmptyGraph
    when there is no edge weight to normalize by.
    """
    missing = [n for n in graph.nodes if n not in comm]
    if missing:
        raise PartitionMismatch(f"{len(missing)} nodes lack a community")
    m = 0.0
    sigma_in: dict[int, float] = defaultdict(float)
    sigma_tot: dict[int, float] = defaultdict(float)
    # m and the sums grow in the same edge order, and an intra-community
    # edge adds 2w in one step, so one community's sums are exactly 2m
    # and a single community scores exactly 0.
    for a, b, w in graph.edges:
        m += w
        ca, cb = comm[a], comm[b]
        if ca == cb:
            sigma_in[ca] += 2.0 * w
            sigma_tot[ca] += 2.0 * w
        else:
            sigma_tot[ca] += w
            sigma_tot[cb] += w
    if m <= 0:
        raise EmptyGraph("modularity is undefined on a graph with no edge weight")
    two_m = 2.0 * m
    return sum(
        sigma_in[c] / two_m - (sigma_tot[c] / two_m) ** 2 for c in sigma_tot
    )


def _one_level(
    adj: list[dict[int, float]],
    loops: list[float],
    m: float,
    order: list[int],
    init: Sequence[int] | None = None,
) -> tuple[list[int], list[float], bool]:
    """Greedy move phase on one (possibly aggregated) graph.

    Self-loop weight w counts 2w toward a node's degree and w toward m,
    which keeps the aggregated graph's Q equal to the projected
    partition's Q on the original graph. `init` warm-starts from an
    existing assignment instead of singletons; each reported gain is
    the exact Q delta of its move either way.
    """
    n = len(adj)
    comm = list(init) if init is not None else list(range(n))
    k = [sum(adj[i].values()) + 2.0 * loops[i] for i in range(n)]
    sigma_tot: defaultdict[int, float] = defaultdict(float)
    for i in range(n):
        sigma_tot[comm[i]] += k[i]
    gains: list[float] = []
    improved = False
    while True:
        moved = False
        for i in order:
            ci = comm[i]
            sigma_tot[ci] -= k[i]
            links: dict[int, float] = defaultdict(float)
            links[ci] += 0.0
            for j, w in adj[i].items():
                links[comm[j]] += w
            # Gain of placing the (removed) node into community c.
            stay = links[ci] / m - sigma_tot[ci] * k[i] / (2.0 * m * m)
            best_c, best_gain = ci, stay
            for c in sorted(links):
                if c == ci:
                    continue
                g = links[c] / m - sigma_tot[c] * k[i] / (2.0 * m * m)
                if g > best_gain + _GAIN_EPS:
                    best_c, best_gain = c, g
            comm[i] = best_c
            sigma_tot[best_c] += k[i]
            if best_c != ci:
                gains.append(best_gain - stay)
                moved = True
                improved = True
        if not moved:
            break
    return comm, gains, improved


def _aggregate(
    adj: list[dict[int, float]],
    loops: list[float],
    comm: list[int],
) -> tuple[list[dict[int, float]], list[float], dict[int, int]]:
    """Collapse communities into super-nodes; intra weight becomes loops."""
    remap = {c: i for i, c in enumerate(sorted(set(comm)))}
    new_n = len(remap)
    new_adj: list[dict[int, float]] = [defaultdict(float) for _ in range(new_n)]
    new_loops = [0.0] * new_n
    for i in range(len(adj)):
        ci = remap[comm[i]]
        new_loops[ci] += loops[i]
        for j, w in adj[i].items():
            if j < i:
                continue
            cj = remap[comm[j]]
            if ci == cj:
                new_loops[ci] += w
            else:
                new_adj[ci][cj] += w
                new_adj[cj][ci] += w
    return [dict(d) for d in new_adj], new_loops, remap


def _search(
    base: list[dict[int, float]],
    no_loops: list[float],
    m: float,
    rng: random.Random | None,
) -> tuple[list[int], list[float]]:
    """One full greedy run: move phases, climbs, node-level refinement.

    Returns the community per original node and the gain of every
    accepted move; the gains telescope from the singleton partition's
    Q to the final Q.
    """
    n = len(base)

    def visit_order(count: int) -> list[int]:
        order = list(range(count))
        if rng is not None:
            rng.shuffle(order)
        return order

    assign = list(range(n))
    all_gains: list[float] = []
    while True:
        # node-level phase on the original graph (first round: singletons)
        comm, gains, improved = _one_level(
            base, no_loops, m, visit_order(n), init=assign
        )
        all_gains.extend(gains)
        if not improved:
            break
        adj, loops, remap = _aggregate(base, no_loops, comm)
        assign = [remap[c] for c in comm]
        while len(adj) > 1:
            comm2, gains2, improved2 = _one_level(adj, loops, m, visit_order(len(adj)))
            all_gains.extend(gains2)
            if not improved2:
                break
            adj, loops, remap2 = _aggregate(adj, loops, comm2)
            assign = [remap2[comm2[c]] for c in assign]
    return assign, all_gains


def louvain(graph: PoiGraph) -> Partition:
    """Two-phase modularity maximization; deterministic.

    Every accepted move strictly increases Q, climbs alternate with
    node-level refinement on the original graph, and the greedy runs
    _STARTS times under different visit orders with the best final Q
    winning (ties keep the earliest start). The first start is the
    sorted order and the rest use fixed-seed shuffles, so repeated
    calls agree. The returned partition maps
    the original nodes, with community ids renumbered 0..k-1 in order
    of first appearance, and q evaluated on the original graph. Raises
    EmptyGraph when the graph has no edges.
    """
    if not graph.edges:
        raise EmptyGraph("louvain needs at least one edge")
    nodes = list(graph.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    base: list[dict[int, float]] = [defaultdict(float) for _ in nodes]
    for a, b, w in graph.edges:
        ia, ib = index[a], index[b]
        base[ia][ib] += w
        base[ib][ia] += w
    base = [dict(d) for d in base]
    no_loops = [0.0] * len(nodes)
    m = graph.total_weight()

    best: Partition | None = None
    for s in range(_STARTS):
        rng = None if s == 0 else random.Random(1_000_003 * s)
        assign, all_gains = _search(base, no_loops, m, rng)
        renumber: dict[int, int] = {}
        communities: dict[Node, int] = {}
        for node in nodes:
            c = assign[index[node]]
            if c not in renumber:
                renumber[c] = len(renumber)
            communities[node] = renumber[c]
        q = modularity(graph, communities)
        if best is None or q > best.q:
            best = Partition(communities=communities, q=q, move_gains=tuple(all_gains))
    return best


def threshold_sweep(
    fps: Sequence[Fingerprint],
    thresholds: Sequence[float],
    names: Sequence[Node] | None = None,
) -> list[tuple[float, PoiGraph, Partition]]:
    """(threshold, graph, partition) rows in threshold order.

    Pairs are scored once, by build_graph at the lowest threshold; each
    row's graph keeps those edges at or above its threshold, in the
    same order, and goes through louvain. The kept edge sets are nested,
    so thresholds that keep as many edges keep the same graph and share
    one louvain run. A threshold that leaves no edge has no partition
    and gets no row; EmptyGraph is raised when that holds for every
    threshold. Raises what build_graph raises.
    """
    if not thresholds:
        return []
    scored = build_graph(fps, min(thresholds), names)
    by_size: dict[int, tuple[PoiGraph, Partition]] = {}
    out = []
    for t in thresholds:
        edges = tuple(e for e in scored.edges if e[2] >= t)
        if not edges:
            continue
        if len(edges) not in by_size:
            graph = PoiGraph(nodes=scored.nodes, edges=edges)
            by_size[len(edges)] = (graph, louvain(graph))
        out.append((t, *by_size[len(edges)]))
    if not out:
        raise EmptyGraph(f"no threshold in {list(thresholds)} leaves an edge")
    return out


def _node_token(node: Node) -> str:
    if isinstance(node, tuple):
        return ":".join(str(part) for part in node)
    return str(node)


def write_communities_csv(partition: Partition, path: str | Path) -> None:
    """Rows `community_id,poi_id,user`; nodes must be (user, poi_id)."""
    lines = ["community_id,poi_id,user"]
    rows = sorted(
        (cid, node) for node, cid in partition.communities.items()
    )
    for cid, (user, poi_id) in rows:
        lines.append(f"{cid},{poi_id},{user}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_sweep_csv(rows: Iterable[tuple[float, float]], path: str | Path) -> None:
    lines = ["threshold,modularity"]
    lines += [f"{t},{q:.6f}" for t, q in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_edge_list(graph: PoiGraph, path: str | Path) -> None:
    """One `i j weight` line per edge, whitespace separated."""
    lines = [f"{_node_token(a)} {_node_token(b)} {w}" for a, b, w in graph.edges]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
