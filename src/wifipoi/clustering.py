"""Density clustering of scan logs and derivation of visit intervals.

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
from .model import ClusterParams, ScanLog
from .similarity import _score_blocks

ClusterLabel = int

# Label 0 is reserved for noise; real clusters are numbered from 1.
NOISE: ClusterLabel = 0


def dbscan(scans: ScanLog, params: ClusterParams) -> list[ClusterLabel]:
    """Label every scan with a cluster id (>= 1) or NOISE.

    Order-free (the definition of Ester et al., KDD 1996): the result
    depends only on the neighbourhoods, not on the order of the scans.
    Scan i's neighbours are the scans j with C(i, j) >= epsilon, itself
    included; a core scan has at least min_pts of them. Clusters are
    the connected components of the graph of neighbouring core scans,
    numbered from 1 by their smallest scan index. A non-core scan next
    to a core scan is a border point and joins the lowest-numbered such
    cluster; the rest is NOISE. Raises EmptyLog on a log with no
    entries.
    """
    n = len(scans.entries)
    if n == 0:
        raise EmptyLog(f"no scans to cluster for user {scans.user!r}")
    near = np.empty((n, n), dtype=bool)
    for lo, block in _score_blocks([scan.observations for scan in scans.entries]):
        np.greater_equal(block, params.epsilon, out=near[lo : lo + len(block)])
    core = np.count_nonzero(near, axis=1) >= params.min_pts

    # Readings are whole dBm, so every dot product is exact and the
    # scores are symmetric: row i of `near` is also its column i.
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
            frontier = near[frontier].any(axis=0) & core & ~members
        # Clusters are numbered in ascending order, so a border point
        # already taken belongs to a lower-numbered cluster and stays.
        labels[near[members].any(axis=0) & (labels == NOISE)] = cid
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
    scans: ScanLog, labels: Sequence[ClusterLabel], params: ClusterParams
) -> list[VisitInterval]:
    """Split each cluster's scans into maximal contiguous visit runs.

    Successive scans belong to the same run when they carry the same
    non-noise label and are at most 2 * scan_interval apart; noise
    scans break runs and produce no interval. Output is ordered by
    start time and never overlaps. Raises LabelLengthMismatch when the
    label list does not align with the log.
    """
    if len(labels) != len(scans.entries):
        raise LabelLengthMismatch(
            f"{len(labels)} labels for {len(scans.entries)} scans"
        )
    max_gap = 2 * params.scan_interval
    out: list[VisitInterval] = []
    run_label: ClusterLabel = NOISE
    run_start = run_end = run_count = 0

    def flush() -> None:
        if run_label != NOISE and run_count > 0:
            out.append(
                VisitInterval(
                    label=run_label,
                    start=run_start,
                    end=run_end,
                    scans=run_count,
                    sub_minimal=run_count < params.min_pts,
                )
            )

    for scan, label in zip(scans.entries, labels):
        t = scan.timestamp
        if label == run_label and run_count > 0 and t - run_end <= max_gap:
            run_end = t
            run_count += 1
            continue
        flush()
        run_label, run_start, run_end, run_count = label, t, t, 1
    flush()
    return out
