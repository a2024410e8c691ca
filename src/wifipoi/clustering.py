"""Density clustering of a user's Scans and derivation of visit intervals.

Canonical DBSCAN with one twist: the neighbourhood predicate is cosine
similarity of two scans' readings, so the epsilon test is
C >= eps (similarity is a proximity, higher means closer). A point
whose neighbourhood reaches min_pts is a core point; clusters are the
maximal sets reachable through core points; everything else is noise.

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


def dbscan(day: Scans, params: ClusterParams) -> list[ClusterLabel]:
    """Label every scan with a cluster id (>= 1) or NOISE.

    Order-free (the definition of Ester et al., KDD 1996): the result
    depends only on the neighbourhoods, not on the order of the scans.
    Scan i's neighbours are the scans j with C(i, j) >= epsilon, itself
    included; a core scan has at least min_pts of them. Clusters are
    the connected components of the graph of neighbouring core scans,
    numbered from 1 by their smallest scan index. A non-core scan next
    to a core scan is a border point and joins the lowest-numbered such
    cluster; the rest is NOISE. Raises EmptyLog on a day with no scans.
    Memory, in bytes: n^2 for the bool `near`; while scoring, also the
    float rows, 8 * n * len(day.macs), and _score_blocks's buffer,
    17 * _BLOCK * n + 16 * n; while walking, a chunk of _BLOCK rows of
    `near`, _BLOCK * n, and a few n-long vectors. Building the rows,
    before `near` exists, takes 8 bytes a reading more.
    """
    n = len(day.times)
    if n == 0:
        raise EmptyLog(f"no scans to cluster for user {day.user!r}")
    x = np.zeros((n, len(day.macs)))
    x[np.repeat(np.arange(n), day.counts), day.ids] = day.rssi
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
    cid = NOISE
    for seed in np.flatnonzero(core):
        if labels[seed] != NOISE:
            continue
        cid += 1
        members = np.zeros(n, dtype=bool)
        frontier = members.copy()
        frontier[seed] = True
        while frontier.any():
            members |= frontier
            frontier = _reach(near, frontier) & core & ~members
        # Clusters are numbered in ascending order, so a border point
        # already taken belongs to a lower-numbered cluster and stays.
        labels[_reach(near, members) & (labels == NOISE)] = cid
    return labels.tolist()


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
    max_gap = 2 * params.scan_interval
    # cut points: each run is [cuts[k], cuts[k + 1])
    cuts = [
        i for i in range(n + 1)
        if i in (0, n) or labels[i] != labels[i - 1] or times[i] - times[i - 1] > max_gap
    ]
    return [
        VisitInterval(labels[a], times[a], times[b - 1], b - a, sub_minimal=b - a < params.min_pts)
        for a, b in zip(cuts, cuts[1:])
        if labels[a] != NOISE
    ]
