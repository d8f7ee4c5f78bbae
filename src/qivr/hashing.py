"""Hash families mapping items to one of 2^n buckets.

Three hyperplane families (random Gaussian, random +/-1, sampled-coordinate
sign bits) plus a K-means vector quantizer. Bank sampling uses a Philox
counter-based generator keyed by (seed, hash index) so banks are identical
across runs and platforms. Bit packing is little-endian: bit i weighs 2^i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .clustering import lloyd_kmeans
from .errors import ConfigError, DimensionMismatch

FAMILY_LSH_C = "lsh_c"
FAMILY_LSH_S = "lsh_s"
FAMILY_LSH_B = "lsh_b"
FAMILY_VQ = "vq"
FAMILIES = (FAMILY_LSH_C, FAMILY_LSH_S, FAMILY_LSH_B, FAMILY_VQ)

DOMAIN_VBH = "vbh"  # hash whole Fisher vectors
DOMAIN_GBH = "gbh"  # hash per-Gaussian chunks / residuals
DOMAINS = (DOMAIN_VBH, DOMAIN_GBH)

VQ_KMEANS_ITERS = 50
VQ_JITTER_SCALE = 1e-3


@dataclass(frozen=True)
class HashFamilyConfig:
    family: str
    domain: str
    M: int          # number of hash functions
    n: int          # bits per hash function
    input_dim: int
    seed: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown hash family {self.family!r}")
        if self.domain not in DOMAINS:
            raise ConfigError(f"unknown hash domain {self.domain!r}")
        if self.M < 1:
            raise ConfigError("M must be >= 1")
        if not 1 <= self.n <= 24:
            raise ConfigError(f"n must be in [1, 24], got {self.n}")
        if self.family == FAMILY_VQ and self.n > 16:
            raise ConfigError(f"vq requires n <= 16, got {self.n}")
        if self.input_dim < 1:
            raise ConfigError("input_dim must be >= 1")

    @property
    def n_buckets(self) -> int:
        return 1 << self.n


def hash_rng(seed: int, m: int) -> np.random.Generator:
    """Counter-based stream for hash m of a bank seeded with `seed`."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=[0, 0, m, 0]))


def _check_dim(v: np.ndarray, dim: int):
    if v.shape[-1] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.shape[-1]}")


def _pack_sign_bits(bits: np.ndarray) -> np.ndarray:
    weights = np.left_shift(1, np.arange(bits.shape[1], dtype=np.int64))
    return bits.astype(np.int64) @ weights


@dataclass(frozen=True)
class PlaneHash:
    """LSH-C / LSH-S: bucket bits are the signs of hyperplane projections."""

    planes: np.ndarray  # (n, input_dim)

    def bucket_many(self, v: np.ndarray) -> np.ndarray:
        _check_dim(v, self.planes.shape[1])
        return _pack_sign_bits(v @ self.planes.T >= 0.0)

    def bucket(self, v: np.ndarray) -> int:
        return int(self.bucket_many(np.asarray(v, dtype=np.float64)[None, :])[0])


@dataclass(frozen=True)
class BitSampleHash:
    """LSH-B: sign bits at sampled coordinates (random axis-aligned planes)."""

    indices: np.ndarray  # (n,) coordinate indices
    input_dim: int

    def bucket_many(self, v: np.ndarray) -> np.ndarray:
        _check_dim(v, self.input_dim)
        return _pack_sign_bits(v[:, self.indices] >= 0.0)

    def bucket(self, v: np.ndarray) -> int:
        return int(self.bucket_many(np.asarray(v, dtype=np.float64)[None, :])[0])


@dataclass(frozen=True)
class VqHash:
    """Quantizer hash: an item lands in its nearest centroid's bucket."""

    centroids: np.ndarray  # (2^n, input_dim)

    def bucket_many(self, v: np.ndarray) -> np.ndarray:
        _check_dim(v, self.centroids.shape[1])
        labels, _ = kernels.assign_nearest(
            np.ascontiguousarray(v, dtype=np.float64), self.centroids)
        return labels

    def bucket(self, v: np.ndarray) -> int:
        return int(self.bucket_many(np.asarray(v, dtype=np.float64)[None, :])[0])


@dataclass(frozen=True)
class VqTrainReport:
    """Which partitions fell back to sampled centroids, and why."""

    fallbacks: tuple = ()  # (hash index, pool size) pairs

    @property
    def clean(self) -> bool:
        return not self.fallbacks


@dataclass(frozen=True)
class HashBank:
    config: HashFamilyConfig
    hashes: tuple
    report: VqTrainReport | None = field(default=None, compare=False)


def sample_hash_bank(config: HashFamilyConfig) -> HashBank:
    """Draw M independent hyperplane hashes from the configured family."""
    if config.family == FAMILY_VQ:
        raise ConfigError("VQ banks are trained, not sampled; use train_vq_bank")
    hashes = []
    for m in range(config.M):
        rng = hash_rng(config.seed, m)
        if config.family == FAMILY_LSH_C:
            hashes.append(PlaneHash(rng.standard_normal((config.n, config.input_dim))))
        elif config.family == FAMILY_LSH_S:
            planes = rng.integers(0, 2, size=(config.n, config.input_dim)) * 2.0 - 1.0
            hashes.append(PlaneHash(planes))
        else:
            indices = rng.integers(0, config.input_dim, size=config.n)
            hashes.append(BitSampleHash(indices, config.input_dim))
    return HashBank(config, tuple(hashes))


def train_vq_bank(pools, config: HashFamilyConfig) -> HashBank:
    """Train M vector-quantizer hashes of 2^n centroids each.

    `pools` is one (N_m, input_dim) array per hash function (per-Gaussian
    residual pools under GBH) or a single shared array. Partitions with
    fewer points than centroids fall back to sampling with replacement plus
    a small jitter; the returned report lists them.
    """
    if config.family != FAMILY_VQ:
        raise ConfigError(f"train_vq_bank requires the vq family, got {config.family!r}")
    if isinstance(pools, np.ndarray):
        pools = [pools] * config.M
    if len(pools) != config.M:
        raise ConfigError(f"expected {config.M} training pools, got {len(pools)}")
    n_cent = config.n_buckets
    hashes = []
    fallbacks = []
    for m, pool in enumerate(pools):
        pool = np.ascontiguousarray(pool, dtype=np.float64).reshape(-1, config.input_dim)
        rng = hash_rng(config.seed, m)
        if pool.shape[0] >= n_cent:
            centroids = lloyd_kmeans(pool, n_cent, rng, max_iters=VQ_KMEANS_ITERS)
        else:
            fallbacks.append((m, pool.shape[0]))
            if pool.shape[0] > 0:
                picks = rng.integers(0, pool.shape[0], size=n_cent)
                spread = pool.std(axis=0) * VQ_JITTER_SCALE + 1e-9
                centroids = pool[picks] + rng.standard_normal((n_cent, config.input_dim)) * spread
            else:
                centroids = rng.standard_normal((n_cent, config.input_dim))
        hashes.append(VqHash(centroids))
    return HashBank(config, tuple(hashes), report=VqTrainReport(tuple(fallbacks)))


def gbh_chunks(fv_values: np.ndarray, n_components: int, dim: int) -> np.ndarray:
    """Split a K*d Fisher vector into its K per-Gaussian chunks."""
    fv_values = np.asarray(fv_values)
    if fv_values.shape != (n_components * dim,):
        raise DimensionMismatch(
            f"expected length {n_components * dim}, got {fv_values.shape}")
    return fv_values.reshape(n_components, dim)
