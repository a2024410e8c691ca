"""Cross-user POI graph and Louvain community detection.

Nodes are POI (typically (user, poi_id) pairs), edges carry the cosine
similarity of their mean vectors (Fingerprint.rssi), and only pairs
scoring at or above an edge threshold are kept. Louvain then maximizes
weighted modularity

    Q = sum over communities of [ S_in/(2m) - (S_tot/(2m))^2 ]

where m is the total edge weight, S_in the within-community weight
counted in both directions and S_tot the summed degrees. Communities
of POI belonging to different users mark places those users share.

The implementation is the classic two-phase scheme (Blondel et al.
2008): _one_level moves single nodes to the neighbouring community with
the largest positive gain, over plain lists indexed by the level's node
ids, and _aggregate collapses communities into super-nodes. A run
refines on the original graph, climbs while a level moves, and ends
when a refinement moves nothing, so nodes locked inside a super-node
can still escape. Because the greedy is order-dependent, _STARTS starts
run (the first visits nodes in sorted order, the rest in fixed-seed
shuffles) and the best-scoring partition wins, so results are
deterministic. Float totals (m, degrees, Q) add left to right in edge
order, never by sum(), which compensates from Python 3.12 on.

Three shortcuts skip only work whose outcome is already known, so every
float operation and RNG draw that decides a move is the unshortened
scheme's: _one_level does not rescan a node that stayed put while its
neighbours' communities and its candidates' S_tot kept their exact
values; a run ends without its last refinement once every edge lies
inside one community, where no node can move; and louvain scores each
distinct partition of its starts once, as a repeat cannot beat the best.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from pathlib import Path
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import EmptyGraph, PartitionMismatch, TooFewNodes
from .similarity import _score_blocks, mac_matrix

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
    vectors: Sequence[Mapping[str, float]],
    threshold: float,
    names: Sequence[Node] | None = None,
) -> PoiGraph:
    """Score all h(h-1)/2 pairs of mean vectors and keep edges with C >= threshold.

    Edges come in row-major (i, j) order, which Louvain's tie-breaks
    depend on. `names` labels the nodes (defaults to indices); the CLI
    passes (user, poi_id) pairs. Raises TooFewNodes for fewer than 2
    fingerprints, a name count that does not match, or a repeated name,
    which would join two fingerprints into one node with a self-loop.
    """
    h = len(vectors)
    if h < 2:
        raise TooFewNodes(f"need at least 2 fingerprints, got {h}")
    nodes: tuple[Node, ...]
    nodes = tuple(names) if names is not None else tuple(range(h))
    if len(nodes) != h:
        raise TooFewNodes(f"{len(nodes)} names for {h} fingerprints")
    if len(set(nodes)) != h:
        raise TooFewNodes(f"{len(set(nodes))} distinct names for {h} fingerprints")
    edges: list[tuple[Node, Node, float]] = []
    for lo, block in _score_blocks(mac_matrix([vector.items() for vector in vectors])[1]):
        i, j = np.nonzero(np.triu(block >= threshold, 1))  # node lo + i < node lo + j
        pairs = zip((lo + i).tolist(), (lo + j).tolist(), block[i, j].tolist())
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
    terms = (sigma_in[c] / two_m - (sigma_tot[c] / two_m) ** 2 for c in sigma_tot)
    return reduce(add, terms, 0.0)


def _one_level(
    adj: list[dict[int, float]],
    k: list[float],
    m: float,
    order: list[int],
    comm: list[int],
) -> list[float]:
    """Greedy move phase on one (possibly aggregated) graph of degrees `k`.

    `comm` gives each node a community id below len(adj) and is moved
    in place, node by node in `order`, until a pass moves nothing.
    Returns the exact Q delta of every accepted move; empty when
    nothing moved.

    A visit that keeps a node in place leaves a memo: the (community,
    sigma_tot) pair of every candidate, or () when its own community
    was the only one. A move clears the memos of the node and its
    neighbours, so a memo stands only while the node's link weights
    per community are the ones it was scored on. A later visit that
    finds every remembered sigma_tot bit-equal would score the same
    floats and stay again, so it applies only the remove-and-restore
    pair of sigma_tot updates the full visit would apply.
    """
    sigma_tot = [0.0] * len(adj)
    for c, k_i in zip(comm, k):
        sigma_tot[c] += k_i
    two_mm = 2.0 * m * m
    gains: list[float] = []
    memo: list[tuple[tuple[int, float], ...] | None] = [None] * len(adj)
    while True:
        before = len(gains)
        for i in order:
            ci, k_i = comm[i], k[i]
            sigma_tot[ci] -= k_i
            kept = memo[i]
            if kept is not None and all(sigma_tot[c] == s for c, s in kept):
                sigma_tot[ci] += k_i
                continue
            links = {ci: 0.0}
            for j, w in adj[i].items():
                cj = comm[j]
                links[cj] = links.get(cj, 0.0) + w
            # Gain of placing the (removed) node into community c; c == ci
            # scores exactly `stay`, which never beats itself.
            stay = links[ci] / m - sigma_tot[ci] * k_i / two_mm
            best_c, best_gain = ci, stay
            candidates = sorted(links)
            for c in candidates:
                g = links[c] / m - sigma_tot[c] * k_i / two_mm
                if g > best_gain + _GAIN_EPS:
                    best_c, best_gain = c, g
            if best_c == ci:
                memo[i] = tuple((c, sigma_tot[c]) for c in candidates) if len(links) > 1 else ()
            else:
                gains.append(best_gain - stay)
                comm[i] = best_c
                memo[i] = None
                for j in adj[i]:
                    memo[j] = None
            sigma_tot[best_c] += k_i
        if len(gains) == before:
            return gains


def _aggregate(
    adj: list[dict[int, float]],
    loops: list[float],
    comm: list[int],
) -> tuple[list[dict[int, float]], list[float], list[float], list[int]]:
    """Collapse communities into super-nodes; intra weight becomes loops.

    Also returns the super-nodes' degrees, where a loop of weight w
    counts 2w (and w toward m, so Q stays the projected partition's Q
    on the original graph), and each node's super-node, in community order.
    """
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
    k = [reduce(add, links.values(), 0.0) + 2.0 * loop for links, loop in zip(new_adj, new_loops)]
    return new_adj, new_loops, k, up


def _search(
    base: list[dict[int, float]],
    k: list[float],
    m: float,
    rng: random.Random | None,
) -> tuple[list[int], list[float]]:
    """One full greedy run: refine on the original graph, then climb.

    Returns the community per original node once a refinement moves
    nothing, and the gain of every accepted move; the gains telescope
    from the singleton partition's Q to the final Q. When the climb
    leaves no edge between communities, every node's only candidate is
    its own community, so the refinement that would end the run is
    skipped; its visit order is the last draw the run would make.
    """
    n = len(base)

    def visit_order(count: int) -> list[int]:
        order = list(range(count))
        if rng is not None:
            rng.shuffle(order)
        return order

    assign = list(range(n))
    gains: list[float] = []
    while refined := _one_level(base, k, m, visit_order(n), assign):
        gains += refined
        adj, loops, degrees, assign = _aggregate(base, [0.0] * n, assign)
        comm = list(range(len(adj)))
        while climbed := _one_level(adj, degrees, m, visit_order(len(adj)), comm):
            gains += climbed
            adj, loops, degrees, up = _aggregate(adj, loops, comm)
            assign = [up[c] for c in assign]
            comm = list(range(len(adj)))
        if not any(adj):
            break
    return assign, gains


def louvain(graph: PoiGraph) -> Partition:
    """Two-phase modularity maximization; deterministic.

    Every accepted move strictly increases Q, climbs alternate with
    node-level refinement on the original graph, and the greedy runs
    _STARTS times under different visit orders with the best final Q
    winning (ties keep the earliest start). The first start is the
    sorted order and the rest use fixed-seed shuffles, so repeated
    calls agree. The returned partition maps the original nodes, with
    community ids renumbered 0..k-1 in order of first appearance, and q
    evaluated on the original graph, once per distinct renumbered
    partition: a start that repeats an earlier partition repeats its q,
    which cannot beat the best strictly, so it is passed over. Raises
    EmptyGraph when the edges weigh nothing, as modularity does.
    """
    index = {node: i for i, node in enumerate(graph.nodes)}
    base: list[dict[int, float]] = [{} for _ in graph.nodes]
    m = 0.0
    for a, b, w in graph.edges:
        m += w
        ia, ib = index[a], index[b]
        base[ia][ib] = base[ia].get(ib, 0.0) + w
        base[ib][ia] = base[ib].get(ia, 0.0) + w
    if m <= 0:
        raise EmptyGraph("louvain needs edges of positive total weight")
    k = [reduce(add, links.values(), 0.0) for links in base]  # degrees, once for all starts

    best: Partition | None = None
    seen: set[tuple[int, ...]] = set()
    for s in range(_STARTS):
        assign, gains = _search(base, k, m, None if s == 0 else random.Random(1_000_003 * s))
        renumber: dict[int, int] = {}
        ids = tuple(renumber.setdefault(c, len(renumber)) for c in assign)
        if ids in seen:
            continue
        seen.add(ids)
        communities = dict(zip(graph.nodes, ids))
        q = modularity(graph, communities)
        if best is None or q > best.q:
            best = Partition(communities=communities, q=q, move_gains=tuple(gains))
    return best


def threshold_sweep(
    vectors: Sequence[Mapping[str, float]],
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
    scored = build_graph(vectors, min(thresholds), names)
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
