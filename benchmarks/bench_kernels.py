"""Times the numpy and numba variants of every hot kernel.

Run: python3 benchmarks/bench_kernels.py [--repeats N]
The numba column is absent when numba is not installed. Each kernel runs on
one synthetic case; accumulate_postings also runs at the index shapes of the
end-to-end benchmark's pi_short and gd_long workloads (indented rows).
"""

import argparse
import time

import numpy as np

from qivr import kernels


def timeit(fn, args, repeats):
    fn(*args)  # warm-up; also triggers JIT compilation
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def postings_case(rng, n_probes, n_scenes, list_lengths):
    """accumulate_postings arguments: one posting list per entry of
    list_lengths, sorted distinct scene ordinals in each, probes drawn over
    every key."""
    offsets = np.zeros(len(list_lengths) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(list_lengths)
    ordinals = np.concatenate([np.sort(rng.choice(n_scenes, size=k, replace=False))
                               for k in list_lengths]).astype(np.int32)
    key_idx = rng.integers(0, len(list_lengths), size=n_probes).astype(np.int64)
    return key_idx, rng.random(n_probes), offsets, ordinals, np.zeros(n_scenes)


def make_cases(rng):
    x = rng.standard_normal((20000, 16))
    means = rng.standard_normal((32, 16))
    variances = rng.random((32, 16)) + 0.2

    points = rng.standard_normal((20000, 8))
    centroids = rng.standard_normal((1024, 8))

    db = rng.integers(0, 2 ** 63, size=(200000, 4), dtype=np.int64).astype(np.uint64)
    query = rng.integers(0, 2 ** 63, size=4, dtype=np.int64).astype(np.uint64)

    n_keys, n_postings, n_scenes = 5000, 400000, 2000
    key_idx = rng.integers(-1, n_keys, size=3000).astype(np.int64)
    weights = rng.random(3000)
    offsets = np.zeros(n_keys + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(rng.multinomial(n_postings, np.ones(n_keys) / n_keys))
    ordinals = rng.integers(0, n_scenes, size=n_postings).astype(np.int32)
    scores = np.zeros(n_scenes)

    # The benchmark's index shapes (e2ebench/): 16 scenes and 16,384 keys of
    # one scene each for pi_short, 64 probes per query; 32 scenes and 16,384
    # keys for gd_long, 16 probes per query, with the posting-list lengths
    # counted on its seed-11 index (df 1 to 8).
    gd_df_counts = np.array([14904, 1193, 217, 52, 15, 1, 1, 1])
    gd_lengths = rng.choice(np.arange(1, 9), size=16384, p=gd_df_counts / gd_df_counts.sum())

    return [
        ("gauss_logprob", "gauss_logprob", (x, means, variances)),
        ("assign_nearest", "assign_nearest", (points, centroids)),
        ("hamming_distances", "hamming_distances", (db, query)),
        ("accumulate_postings", "accumulate_postings",
         (key_idx, weights, offsets, ordinals, scores)),
        ("  pi_short, 64 probes", "accumulate_postings",
         postings_case(rng, 64, 16, np.ones(16384, dtype=np.int64))),
        ("  gd_long, 16 probes", "accumulate_postings",
         postings_case(rng, 16, 32, gd_lengths)),
    ]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    cases = make_cases(np.random.default_rng(0))
    print(f"selected backend: {kernels.backend_name()}    repeats: {args.repeats}")
    header = f"{'kernel':<22}{'numpy (ms)':>12}{'numba (ms)':>12}{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for label, name, case in cases:
        np_time = timeit(getattr(kernels, f"{name}_numpy"), case, args.repeats)
        row = f"{label:<22}{np_time * 1e3:>12.3f}"
        if kernels.NUMBA_AVAILABLE:
            nb_time = timeit(getattr(kernels, f"{name}_numba"), case, args.repeats)
            row += f"{nb_time * 1e3:>12.3f}{np_time / nb_time:>9.1f}x"
        else:
            row += f"{'n/a':>12}{'n/a':>10}"
        print(row)


if __name__ == "__main__":
    main()
