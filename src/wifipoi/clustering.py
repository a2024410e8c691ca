"""Density clustering of a user's Scans and derivation of visit intervals.

Canonical DBSCAN with one twist: the neighbourhood predicate is cosine
similarity of two scans' readings, so the epsilon test is
C >= eps (similarity is a proximity, higher means closer). A point
whose neighbourhood reaches min_pts is a core point; clusters are the
maximal sets reachable through core points; everything else is noise.
Scans that share no MAC score 0 and are never neighbours, so a large
day is clustered one group of MAC-linked scans (or a few) at a time,
over the MACs that group holds: memory and work grow with the largest
group and its MACs, not with the whole day.

Scans sit on a timeline, so a cluster (a place) usually appears as
several temporally contiguous runs (visits). segment_visits recovers
those runs from the label sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyLog, LabelLengthMismatch
from .model import ClusterParams, Scans
from .similarity import _BLOCK, _score_blocks

ClusterLabel = int

# Label 0 is reserved for noise; real clusters are numbered from 1.
NOISE: ClusterLabel = 0


def _reach(near: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Columns near any row of the mask `rows`; _BLOCK rows at a time, so `near` is not copied."""
    picked = np.flatnonzero(rows)
    out = np.zeros(len(near), dtype=bool)
    for k in range(0, len(picked), _BLOCK):
        out |= near[picked[k:k + _BLOCK]].any(axis=0)
    return out


def _rows(day: Scans, chunk: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The day's scans `chunk` as float rows over the w MACs they hold, in day order.

    first[i] is the position of scan i's first reading. Every product
    of two rows is of whole dBm, so dropping the columns no row holds
    leaves each score exact. Besides the rows, takes 33 bytes a reading
    of the chunk and 9 bytes a MAC of the day, all freed on return.
    """
    counts = day.counts[chunk]
    at = np.arange(counts.sum()) + np.repeat(first[chunk] - (np.cumsum(counts) - counts), counts)
    ids = day.ids[at]
    seen = np.zeros(len(day.macs), dtype=bool)
    seen[ids] = True
    x = np.zeros((len(chunk), np.count_nonzero(seen)))
    x[np.repeat(np.arange(len(chunk)), counts), (np.cumsum(seen) - 1)[ids]] = day.rssi[at]
    return x


def _walk(x: np.ndarray, params: ClusterParams) -> tuple[np.ndarray, list[int]]:
    """Cluster the scans of the float rows `x`: (labels, seeds).

    seeds[k - 1] is the smallest core scan of cluster k. Scores the
    rows into the bool `near`, frees them and walks `near` by dbscan's
    rules.
    """
    n = len(x)
    # Readings are whole dBm, so every dot product is exact and the
    # scores are symmetric: each block's mirror fills the lower triangle,
    # and row i of `near` is also its column i.
    near = np.empty((n, n), dtype=bool)
    for lo, block in _score_blocks(x):
        hi = lo + len(block)
        np.greater_equal(block, params.epsilon, out=near[lo:hi, lo:])
        near[hi:, lo:hi] = near[lo:hi, hi:].T
    del x, block  # the walk reads only `near`
    core = np.count_nonzero(near, axis=1) >= params.min_pts

    labels = np.full(n, NOISE)
    seeds = []
    for seed in np.flatnonzero(core):
        if labels[seed] != NOISE:
            continue
        seeds.append(seed)
        members = np.zeros(n, dtype=bool)
        frontier = members.copy()
        frontier[seed] = True
        while frontier.any():
            members |= frontier
            frontier = _reach(near, frontier) & core & ~members
        # Clusters are numbered in ascending order, so a border point
        # already taken belongs to a lower-numbered cluster and stays.
        labels[_reach(near, members) & (labels == NOISE)] = len(seeds)
    return labels, seeds


def _groups(day: Scans) -> np.ndarray:
    """Each scan's group, named by its smallest scan index.

    Groups are the sets of scans linked by shared MACs, so a scan with
    no readings is alone. They are found on the day's MACs alone: each
    reading hooks its MAC to its scan's first MAC, and each round hooks
    every root under the smallest root it is joined to and points every
    MAC at its root. A scan's group is its first MAC's root, named by
    the smallest scan whose first MAC has that root.
    """
    n = len(day.times)
    held = np.flatnonzero(day.counts)
    first = day.ids[np.cumsum(day.counts[held]) - day.counts[held]]
    head = np.repeat(first, day.counts[held])
    parent = np.arange(len(day.macs))
    while True:
        a, b = parent[day.ids], parent[head]
        apart = a != b
        if not apart.any():
            break
        a, b = a[apart], b[apart]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(up := parent[parent], parent):
            parent = up
    root = parent[first]
    smallest = np.full(len(day.macs), n)
    np.minimum.at(smallest, root, held)
    group = np.arange(n)
    group[held] = smallest[root]
    return group


def _chunks(day: Scans) -> list[np.ndarray]:
    """The day's scans in chunks of whole groups, each chunk ascending.

    Groups go in order of their smallest scan; a chunk closes at the
    first group end at or past _BLOCK scans. A day under 2 * _BLOCK
    scans is one chunk.
    """
    n = len(day.times)
    if n < 2 * _BLOCK:
        return [np.arange(n)]
    group = _groups(day)
    order = np.argsort(group, kind="stable")
    ends = np.append(np.flatnonzero(np.diff(group[order])) + 1, n)
    cuts = [0]
    while cuts[-1] < n:
        cuts.append(ends[np.searchsorted(ends, min(cuts[-1] + _BLOCK, n))])
    return [np.sort(order[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]


def dbscan(day: Scans, params: ClusterParams) -> list[ClusterLabel]:
    """Label every scan with a cluster id (>= 1) or NOISE.

    Order-free (the definition of Ester et al., KDD 1996): the result
    depends only on the neighbourhoods, not on the order of the scans.
    Scan i's neighbours are the scans j with C(i, j) >= epsilon, itself
    included; a core scan has at least min_pts of them. Clusters are
    the connected components of the graph of neighbouring core scans,
    numbered from 1 by their smallest core scan index. A non-core scan
    next to a core scan is a border point and joins the lowest-numbered
    such cluster; the rest is NOISE. Raises EmptyLog on a day with no
    scans, EmptyFingerprint on a scan with no readings.

    Two scans that share no MAC score exactly 0, and epsilon > 0, so
    they are never neighbours. So each chunk of whole groups of
    MAC-linked scans (_chunks) is scored and walked on its own, over
    the MACs it holds (_rows), and its clusters are renumbered into the
    day's order. Memory, in bytes, for a chunk of c scans over w MACs:
    c^2 for the bool `near`; while scoring, also the float rows,
    8 * c * w, and _score_blocks's buffer, 17 * _BLOCK * c + 16 * c;
    while walking, _BLOCK rows of `near` at a time, _BLOCK * c, and a
    few c-long vectors. Building the rows, before `near` exists, takes
    what _rows states. A day of 2 * _BLOCK scans or more also takes
    about 40 bytes a reading and a few n-long vectors to group, before
    the first chunk; every day keeps 3 n-long vectors throughout.
    """
    n = len(day.times)
    if n == 0:
        raise EmptyLog(f"no scans to cluster for user {day.user!r}")
    first_reading = np.cumsum(day.counts) - day.counts
    labels = np.empty(n, dtype=int)
    seeds: list[int] = []  # provisional cluster k's smallest core scan is seeds[k - 1]
    for chunk in _chunks(day):
        local, local_seeds = _walk(_rows(day, chunk, first_reading), params)
        labels[chunk] = np.where(local == NOISE, NOISE, local + len(seeds))
        seeds += chunk[local_seeds].tolist()
    # Renumber by smallest core scan across chunks; a chunk's own clusters
    # keep their order, so each border point keeps the lowest number.
    number = np.zeros(len(seeds) + 1, dtype=int)
    number[1 + np.argsort(seeds)] = np.arange(1, len(seeds) + 1)
    return number[labels].tolist()


@dataclass(frozen=True)
class VisitInterval:
    """One contiguous stay at a cluster: [start, end] epoch seconds.

    sub_minimal marks runs with fewer than min_pts scans; such a run is
    a genuine short revisit to a cluster formed elsewhere on the
    timeline, so it is reported rather than discarded.
    """

    label: ClusterLabel
    start: int
    end: int
    scans: int
    sub_minimal: bool = False


def segment_visits(
    day: Scans, labels: Sequence[ClusterLabel], params: ClusterParams
) -> list[VisitInterval]:
    """Split each cluster's scans into maximal contiguous visit runs.

    Successive scans belong to the same run when they carry the same
    non-noise label and are at most 2 * scan_interval apart; noise
    scans break runs and produce no interval. Output is ordered by
    start time and never overlaps. Raises LabelLengthMismatch when the
    label list does not align with the day.
    """
    times = day.times.tolist()
    n = len(times)
    if len(labels) != n:
        raise LabelLengthMismatch(f"{len(labels)} labels for {n} scans")
    # cut points: each run is [cuts[k], cuts[k + 1])
    cut = np.ones(n + 1, dtype=bool)
    marks = np.asarray(labels)
    cut[1:-1] = (marks[1:] != marks[:-1]) | (np.diff(day.times) > 2 * params.scan_interval)
    cuts = np.flatnonzero(cut).tolist()
    return [
        VisitInterval(labels[a], times[a], times[b - 1], b - a, sub_minimal=b - a < params.min_pts)
        for a, b in zip(cuts, cuts[1:])
        if labels[a] != NOISE
    ]
