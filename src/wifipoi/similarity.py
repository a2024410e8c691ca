"""Cosine similarity between radio fingerprints' mean vectors.

A mean vector maps MAC -> mean RSS in dBm: a scan's readings, or a
fingerprint's `rssi`. The score compares two vectors on the access
points they share:
the numerator is the dot product over common MACs only, while each
denominator term is the vector's full self dot product. MACs seen
by one side but not the other therefore pull the score down, which is
exactly the behaviour wanted when deciding whether two observations
came from the same place. Because RSS readings are all negative, every
product in the numerator is positive and the score lands in [0, 1].

cosine_similarity scores one pair, for revisit matching. The score is
the ordinary cosine of two vectors once absent MACs are imputed as 0,
so all-pairs scores come from dense matrix products: _score_blocks
takes a MAC-indexed matrix, dbscan's rows or mac_matrix's, and yields
its upper triangle _BLOCK rows at a time in one reused buffer, so each
pair is scored once and no caller holds an n x n float matrix.
"""

from __future__ import annotations

import math
from typing import Collection, Iterator, Mapping, Sequence

import numpy as np

from .errors import EmptyFingerprint

# Scores within this distance of 1.0 are collapsed to exactly 1.0, so
# identical (or proportional) fingerprints compare equal to 1 without
# float dust from the two square roots.
_ONE_EPS = 1e-12

# Rows per block of the score matrix. The one reused buffer holds a
# block's products, denominators and snap mask, 17 * _BLOCK * n bytes,
# so memory grows with n, not n^2.
_BLOCK = 64

SimilarityScore = float


def common_dot(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    """Dot product restricted to the MACs both mean vectors contain."""
    if len(a) > len(b):
        a, b = b, a
    return math.fsum(r * b[mac] for mac, r in a.items() if mac in b)


def self_dot(a: Mapping[str, float]) -> float:
    """Full dot product of a mean vector with itself."""
    return math.fsum(r * r for r in a.values())


def cosine_similarity(a: Mapping[str, float], b: Mapping[str, float]) -> SimilarityScore:
    """Cosine score in [0, 1]; 0 when no MAC is shared, 1 when identical.

    The denominator uses a single square root of the product so that
    clean ratios (e.g. 1600 / sqrt(8000 * 8000) = 0.2) come out exact.
    Raises EmptyFingerprint when either side has no observations.
    """
    if len(a) == 0 or len(b) == 0:
        raise EmptyFingerprint("cannot compare an empty fingerprint")
    y = common_dot(a, b)
    if y == 0.0:
        return 0.0
    c = y / math.sqrt(self_dot(a) * self_dot(b))
    if c >= 1.0 - _ONE_EPS:
        return 1.0
    return c


def mac_matrix(rows: Sequence[Collection[tuple[str, float]]]) -> tuple[tuple[str, ...], np.ndarray]:
    """(macs, x): x[i] holds rows[i]'s (mac, value) pairs over the sorted MACs, absent 0."""
    macs = sorted({mac for row in rows for mac, _ in row})
    index = {mac: k for k, mac in enumerate(macs)}
    lengths = [len(row) for row in rows]
    cols = np.fromiter((index[mac] for row in rows for mac, _ in row), np.intp, sum(lengths))
    values = np.fromiter((r for row in rows for _, r in row), float, sum(lengths))
    x = np.zeros((len(rows), len(macs)))
    x[np.repeat(np.arange(len(rows)), lengths), cols] = values
    return tuple(macs), x


def _score_blocks(x: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Upper-triangle scores of the rows of x as (first row, block) pairs.

    x is a float matrix, one column per MAC and absent MACs 0. A block
    holds _BLOCK rows (fewer at the end) and the columns from its first
    row on: block[r, c] scores rows lo + r and lo + c. Each element is
    the row dot over sqrt(d_i * d_j), d the self dot products, like
    cosine_similarity, snapped to 1 the same way, which makes the
    diagonal 1: a self score misses 1 by rounding alone, far less than
    _ONE_EPS. Each block is a view of one buffer that the next block
    overwrites: 17 * _BLOCK * n + 16 * n bytes at most. Raises
    EmptyFingerprint when any row is all 0.
    """
    n = len(x)
    d = np.einsum("ij,ij->i", x, x)
    if not d.all():
        raise EmptyFingerprint("cannot compare an empty fingerprint")
    buffers = [np.empty(min(_BLOCK, n) * n, dtype) for dtype in (float, float, bool)]
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        shape = (hi - lo, n - lo)
        block, den, snap = (buf[: shape[0] * shape[1]].reshape(shape) for buf in buffers)
        np.matmul(x[lo:hi], x[lo:].T, out=block)
        # einsum's outer product takes no iterator buffer, where
        # np.multiply.outer's broadcast allocates 128 KB on every call
        np.einsum("i,j->ij", d[lo:hi], d[lo:], out=den)
        np.sqrt(den, out=den)
        np.divide(block, den, out=block)
        np.greater_equal(block, 1.0 - _ONE_EPS, out=snap)
        np.copyto(block, 1.0, where=snap)
        yield lo, block


def similarity_matrix(vectors: Sequence[Mapping[str, float]]) -> np.ndarray:
    """All-pairs scores of mean vectors as one dense n x n array: each block and its mirror."""
    _, x = mac_matrix([vector.items() for vector in vectors])
    sim = np.empty((len(x), len(x)))
    for lo, block in _score_blocks(x):
        hi = lo + len(block)
        sim[lo:hi, lo:] = block
        sim[hi:, lo:hi] = block[:, hi - lo :].T
    return sim
