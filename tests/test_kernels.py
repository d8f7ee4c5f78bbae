import math
import os
import subprocess
import sys

import numpy as np
import pytest

from qivr import kernels


def _logprob_oracle(x, means, variances):
    n, d = x.shape
    k = means.shape[0]
    out = np.empty((n, k))
    for i in range(n):
        for c in range(k):
            acc = 0.0
            for j in range(d):
                acc += math.log(2 * math.pi * variances[c, j])
                acc += (x[i, j] - means[c, j]) ** 2 / variances[c, j]
            out[i, c] = -0.5 * acc
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def _backends(name):
    pairs = [(f"{name}_numpy", getattr(kernels, f"{name}_numpy"))]
    fn = getattr(kernels, f"{name}_numba")
    if fn is not None:
        pairs.append((f"{name}_numba", fn))
    return pairs


def test_backend_name():
    assert kernels.backend_name() in ("numpy", "numba")
    assert kernels.BACKEND == kernels.backend_name()


def test_env_flag_forces_numpy_backend():
    env = dict(os.environ, QIVR_NO_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c", "import qivr.kernels as k; print(k.backend_name())"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "numpy"


def test_gauss_logprob_matches_oracle(rng):
    x = rng.standard_normal((17, 4))
    means = rng.standard_normal((5, 4)) * 3
    variances = rng.uniform(0.2, 2.0, (5, 4))
    expected = _logprob_oracle(x, means, variances)
    for label, fn in _backends("gauss_logprob"):
        np.testing.assert_allclose(fn(x, means, variances), expected,
                                   rtol=1e-12, atol=1e-12, err_msg=label)


def test_gauss_logprob_standard_normal_at_origin():
    x = np.zeros((1, 3))
    means = np.zeros((1, 3))
    variances = np.ones((1, 3))
    want = -1.5 * math.log(2 * math.pi)
    assert kernels.gauss_logprob(x, means, variances)[0, 0] == pytest.approx(want, abs=1e-12)


def test_gauss_logprob_far_cluster_precision():
    # subtract-square form must stay accurate when |x - mu| is large
    x = np.array([[1e6 + 0.5]])
    means = np.array([[1e6]])
    variances = np.array([[1.0]])
    want = -0.5 * (math.log(2 * math.pi) + 0.25)
    for label, fn in _backends("gauss_logprob"):
        assert fn(x, means, variances)[0, 0] == pytest.approx(want, abs=1e-9), label


def test_assign_nearest_basic():
    points = np.array([[0.0, 0.0], [10.0, 0.0], [5.1, 0.0]])
    centroids = np.array([[0.0, 0.0], [10.0, 0.0]])
    for label, fn in _backends("assign_nearest"):
        labels, dist = fn(points, centroids)
        assert labels.tolist() == [0, 1, 1], label
        np.testing.assert_allclose(dist, [0.0, 0.0, 4.9 ** 2])


def test_assign_nearest_tie_takes_lowest_index(rng):
    points = np.array([[1.0]])
    centroids = np.array([[0.0], [2.0]])
    for label, fn in _backends("assign_nearest"):
        labels, _ = fn(points, centroids)
        assert labels[0] == 0, label
    # every odd point sits midway between two shuffled even centroids; enough
    # rows to take the blocked matmul route as well as the small-input one
    order = rng.permutation(64)
    centroids = (2.0 * order)[:, None]
    position = np.argsort(order)  # centroid index of the value 2 * j
    odd = rng.integers(0, 63, size=2 * kernels._ASSIGN_CHUNK + 5)
    points = (2.0 * odd + 1.0)[:, None]
    want = np.minimum(position[odd], position[odd + 1])
    for label, fn in _backends("assign_nearest"):
        for rows in (1, len(points)):
            labels, dist = fn(points[:rows], centroids)
            np.testing.assert_array_equal(labels, want[:rows], err_msg=label)
            np.testing.assert_array_equal(dist, np.ones(rows), err_msg=label)


def _assign_oracle(points, centroids):
    # one point at a time, so C07-sized inputs stay small in memory
    d2 = np.array([np.sum((p - centroids) ** 2, axis=1) for p in points])
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(len(points)), labels]


def test_assign_nearest_matches_bruteforce(rng):
    small = (rng.standard_normal((700, 5)), rng.standard_normal((13, 5)))
    # C07 shape: a 3000-row bf_gd pool against 2^10 centroids, many blocks
    c07_points = rng.standard_normal((3000, 8))
    assert len(c07_points) > 2 * kernels._ASSIGN_CHUNK
    c07_centroids = rng.standard_normal((1024, 8))
    # duplicated centroids, copies landing both before and after the original
    dup = np.vstack([c07_centroids[:512], c07_centroids[:512]])[rng.permutation(1024)]
    cases = {
        "small": small,
        "c07": (c07_points, c07_centroids),
        "duplicates": (c07_points, dup),
        "offset_1e6": (c07_points[:1500] + 1e6, c07_centroids + 1e6),
    }
    for case, (points, centroids) in cases.items():
        want_labels, want_dist = _assign_oracle(points, centroids)
        for label, fn in _backends("assign_nearest"):
            labels, dist = fn(points, centroids)
            msg = f"{label} {case}"
            np.testing.assert_array_equal(labels, want_labels, err_msg=msg)
            np.testing.assert_allclose(dist, want_dist, rtol=1e-9, err_msg=msg)
            if label.endswith("_numpy"):
                np.testing.assert_array_equal(dist, want_dist, err_msg=msg)


def test_hamming_known_values():
    db = np.array([[0b1011], [0b0010], [0b1011]], dtype=np.uint64)
    q = np.array([0b0010], dtype=np.uint64)
    for label, fn in _backends("hamming_distances"):
        np.testing.assert_array_equal(fn(db, q), [2, 0, 2], err_msg=label)


def test_hamming_matches_bitstring_oracle(rng):
    db = rng.integers(0, 2 ** 63, size=(50, 3), dtype=np.uint64)
    q = rng.integers(0, 2 ** 63, size=3, dtype=np.uint64)
    want = [sum(bin(int(a) ^ int(b)).count("1") for a, b in zip(row, q)) for row in db]
    for label, fn in _backends("hamming_distances"):
        np.testing.assert_array_equal(fn(db, q), want, err_msg=label)


def test_accumulate_postings_hand_case():
    # two posting lists: key 0 -> scenes {0, 2}, key 1 -> scene {1}
    offsets = np.array([0, 2, 3], dtype=np.int64)
    ordinals = np.array([0, 2, 1], dtype=np.int32)
    key_idx = np.array([0, 1, -1, 0], dtype=np.int64)
    weights = np.array([1.0, 2.0, 5.0, 0.5])
    for label, fn in _backends("accumulate_postings"):
        scores = np.zeros(3)
        fn(key_idx, weights, offsets, ordinals, scores)
        np.testing.assert_allclose(scores, [1.5, 2.0, 1.5], err_msg=label)


def _accumulate_loop(key_idx, weights, lists, n_scenes):
    # the reference: one probe at a time, in probe order, from zero
    want = np.zeros(n_scenes)
    for p in range(len(key_idx)):
        if key_idx[p] >= 0:
            for v in lists[key_idx[p]]:
                want[v] += weights[p]
    return want


def test_accumulate_postings_matches_loop(rng):
    n_keys, n_scenes, n_probes = 40, 25, 200
    lists = [np.sort(rng.choice(n_scenes, size=rng.integers(1, 6), replace=False))
             for _ in range(n_keys)]
    offsets = np.zeros(n_keys + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([len(l) for l in lists])
    ordinals = np.concatenate(lists).astype(np.int32)
    cases = {
        "random": rng.integers(-1, n_keys, size=n_probes),
        # every probe of a few keys, many times over, in shuffled order
        "repeated_keys": rng.permutation(np.repeat([3, 7, 7, 19], 50)),
        "all_miss": np.full(n_probes, -1),
        "no_probes": np.empty(0, dtype=np.int64),
    }
    for case, key_idx in cases.items():
        key_idx = key_idx.astype(np.int64)
        weights = rng.uniform(0.0, 3.0, len(key_idx))
        want = _accumulate_loop(key_idx, weights, lists, n_scenes)
        for label, fn in _backends("accumulate_postings"):
            scores = np.zeros(n_scenes)
            fn(key_idx, weights, offsets, ordinals, scores)
            np.testing.assert_array_equal(scores, want, err_msg=f"{label} {case}")


def test_backend_pairs_agree(rng):
    if kernels.gauss_logprob_numba is None:
        pytest.skip("numba unavailable")
    x = rng.standard_normal((30, 6))
    means = rng.standard_normal((4, 6))
    variances = rng.uniform(0.5, 1.5, (4, 6))
    np.testing.assert_allclose(kernels.gauss_logprob_numpy(x, means, variances),
                               kernels.gauss_logprob_numba(x, means, variances),
                               rtol=1e-12)
    pts = rng.standard_normal((64, 6))
    la, da = kernels.assign_nearest_numpy(pts, means)
    lb, db = kernels.assign_nearest_numba(pts, means)
    np.testing.assert_array_equal(la, lb)
    np.testing.assert_allclose(da, db, rtol=1e-12)
