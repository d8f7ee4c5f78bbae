"""Hot inner loops, one numpy implementation each.

Every kernel is deterministic run to run, and the acceptance suite's time
bounds hold on them. ``assign_nearest`` finds candidates with the expanded
form |c|^2 - 2 x.c (one matmul per block), decides near ties again in the
subtract-square form, and recomputes each winner's distance in that form;
its labels and distances equal the subtract-square reference exactly, ties
going to the lowest index. ``accumulate_postings`` is one gather of every
hit posting list and one ``np.bincount`` pass; since bincount adds in input
order and scores start at zero, its scores equal the per-probe loop exactly.
``benchmarks/bench_kernels.py`` times each kernel.
"""

from __future__ import annotations

import math

import numpy as np

_ASSIGN_CHUNK = 256  # rows per matmul block in the nearest-centroid candidate pass
_EXACT_CHUNK = 64  # rows per (rows, centroids, dim) subtract-square block
_EXACT_MAX_PAIRS = 1024  # up to this many point-centroid pairs, skip the candidates


# ---------------------------------------------------------------------------
# diagonal-Gaussian log densities

def gauss_logprob(x, means, variances):
    """Log N(x; mu_k, diag(var_k)) for every row of x and every component k.

    Returns an (N, K) float64 matrix. Computed with the subtract-square form
    (not the expanded matmul trick) so accuracy holds for far-off clusters.
    """
    n_comp = means.shape[0]
    log_consts = -0.5 * (means.shape[1] * math.log(2.0 * math.pi)
                         + np.sum(np.log(variances), axis=1))
    out = np.empty((x.shape[0], n_comp))
    for k in range(n_comp):
        quad = np.sum((x - means[k]) ** 2 / variances[k], axis=1)
        out[:, k] = log_consts[k] - 0.5 * quad
    return out



# ---------------------------------------------------------------------------
# nearest centroid (k-means assignment, VQ hashing)

def _assign_exact(points, centroids):
    """Subtract-square nearest centroid: the reference the fast path matches."""
    n = points.shape[0]
    labels = np.empty(n, dtype=np.int64)
    best = np.empty(n)
    for start in range(0, n, _EXACT_CHUNK):
        block = points[start:start + _EXACT_CHUNK]
        d2 = np.sum((block[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        lab = np.argmin(d2, axis=1)
        labels[start:start + _EXACT_CHUNK] = lab
        best[start:start + _EXACT_CHUNK] = d2[np.arange(block.shape[0]), lab]
    return labels, best


def assign_nearest(points, centroids):
    """Index of the closest centroid per point, ties toward the lowest index.

    Returns (labels int64, squared distance float64), both equal bit for bit
    to the subtract-square reference: argmin over k of sum((x - c_k) ** 2),
    lowest index on ties, and that sum as the distance.

    1. Candidates: one matmul per block scores |c_k|^2 - 2 x.c_k, which
       differs from |x - c_k|^2 - |x|^2 by rounding only.
    2. Near ties: a row whose runner-up scores within the rounding bound of
       its winner (duplicate centroids, exact ties, data far from the origin)
       is decided again over all centroids in the subtract-square form.
    3. Distances: the winner's squared distance is recomputed in the
       subtract-square form.

    Inputs of at most ``_EXACT_MAX_PAIRS`` point-centroid pairs (one point
    against 1024 centroids, as a single VQ bucket lookup) take the
    subtract-square route directly; up to that size it is the faster one.
    """
    n, dim = points.shape
    if n * centroids.shape[0] <= _EXACT_MAX_PAIRS:
        return _assign_exact(points, centroids)
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    # Both the expanded score (plus |x|^2) and the reference sum lie within
    # (dim + 2) eps (|x|^2 + max|c|^2) of the true squared distance, so two
    # centroids whose scores differ by more than four times that are ordered
    # the same way by the reference. The slack is four times that again; its
    # `tiny` term covers underflow, where rounding stops being relative.
    f64 = np.finfo(np.float64)
    slack = (16.0 * (dim + 2) * f64.eps) * (
        np.einsum("ij,ij->i", points, points) + c_sq.max()) + f64.tiny
    neg2ct = -2.0 * centroids.T
    labels = np.empty(n, dtype=np.int64)
    unsure = np.empty(n, dtype=bool)
    for start in range(0, n, _ASSIGN_CHUNK):
        stop = start + _ASSIGN_CHUNK
        score = points[start:stop] @ neg2ct
        score += c_sq
        lab = np.argmin(score, axis=1)
        win = np.take_along_axis(score, lab[:, None], axis=1)
        labels[start:stop] = lab
        # exactly one candidate within the slack means the winner is certain;
        # none (NaN or inf in the row) also goes to the reference
        unsure[start:stop] = np.count_nonzero(
            score <= win + slack[start:stop, None], axis=1) != 1
    best = np.sum((points - centroids[labels]) ** 2, axis=1)
    rows = np.flatnonzero(unsure)
    if rows.size:
        labels[rows], best[rows] = _assign_exact(points[rows], centroids)
    return labels, best



# ---------------------------------------------------------------------------
# Hamming distance scans over packed uint64 words

def hamming_distances(db_words, query_words):
    """Hamming distance from one packed query row to every packed db row."""
    xor = np.bitwise_xor(db_words, query_words[None, :])
    return np.sum(np.bitwise_count(xor), axis=1).astype(np.int64)



# ---------------------------------------------------------------------------
# posting-list accumulation (inverted-index scoring)

def accumulate_postings(key_idx, weights, offsets, ordinals, scores):
    """Add weights[p] to scores[v] for every scene v in probe p's posting list.

    key_idx holds the resolved posting-list index per probe, -1 for probes
    whose bucket has no postings. Mutates scores in place.

    Gathers every hit probe's list in probe order and sums them in one
    ``np.bincount``, which adds its weights in input order. On scores that
    start at zero, as every caller's do, the result therefore equals the
    per-probe loop bit for bit. Every ordinal must be below len(scores).
    """
    live = key_idx >= 0
    hit = key_idx[live]
    starts = offsets[hit]
    lens = offsets[hit + 1] - starts
    ends = np.cumsum(lens)  # where each list ends once gathered
    pos = np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - (ends - lens), lens)
    scores += np.bincount(ordinals[pos], weights=np.repeat(weights[live], lens),
                          minlength=len(scores))


