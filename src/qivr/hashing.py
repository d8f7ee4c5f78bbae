"""Hash families mapping items to one of 2^n buckets.

Three hyperplane families (random Gaussian, random +/-1, sampled-coordinate
sign bits) plus a K-means vector quantizer. A bank of M hash functions is
one stacked parameter array (`HashBank.params`), and `buckets` hashes any
batch of rows, each row under its own hash, so a whole build or query is
hashed in one call. Bank sampling uses a Philox counter-based generator
keyed by (seed, hash index) so banks are identical across runs and
platforms. Bit packing is little-endian: bit i weighs 2^i.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @property
    def param_shape(self) -> tuple:
        """Shape of a bank's stacked parameter array (see `HashBank`)."""
        if self.family == FAMILY_LSH_B:
            return (self.M, self.n)
        if self.family == FAMILY_VQ:
            return (self.M, self.n_buckets, self.input_dim)
        return (self.M, self.n, self.input_dim)


def hash_rng(seed: int, m: int) -> np.random.Generator:
    """Counter-based stream for hash m of a bank seeded with `seed`."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=[0, 0, m, 0]))


def _pack_sign_bits(bits: np.ndarray) -> np.ndarray:
    weights = np.left_shift(1, np.arange(bits.shape[1], dtype=np.int64))
    return bits.astype(np.int64) @ weights


@dataclass(frozen=True)
class VqTrainReport:
    """Which partitions fell back to sampled centroids, and why."""

    fallbacks: tuple = ()  # (hash index, pool size) pairs

    @property
    def clean(self) -> bool:
        return not self.fallbacks


@dataclass(frozen=True, eq=False)
class HashBank:
    """M hash functions of one family, stacked into one parameter array.

    `params[m]` holds hash m: its (n, input_dim) planes for lsh_c and lsh_s,
    its (n,) sampled coordinates for lsh_b, its (2^n, input_dim) centroids
    for vq.
    """

    config: HashFamilyConfig
    params: np.ndarray
    report: VqTrainReport | None = None

    def __post_init__(self):
        if self.params.shape != self.config.param_shape:
            raise DimensionMismatch(f"{self.config.family} bank parameters have shape "
                                    f"{self.params.shape}, expected {self.config.param_shape}")


def buckets(bank: HashBank, rows, hash_ids) -> np.ndarray:
    """Bucket of each row under its own hash: rows[i] under hash hash_ids[i].

    Plane families pack the signs of the projections on the hash's planes,
    lsh_b the signs at its sampled coordinates, and vq takes the nearest of
    its centroids, one `kernels.assign_nearest` call per hash id present. A
    row's bucket does not depend on the other rows of the batch.
    """
    cfg = bank.config
    rows = np.asarray(rows, dtype=np.float64)
    hash_ids = np.asarray(hash_ids, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != cfg.input_dim or len(rows) != len(hash_ids):
        raise DimensionMismatch(f"expected {len(hash_ids)} rows of dimension "
                                f"{cfg.input_dim}, got shape {rows.shape}")
    # rows sorted by hash id, so hash m's rows are the slice bounds[m]:bounds[m + 1]
    order = np.argsort(hash_ids)
    rows = rows[order]
    bounds = np.searchsorted(hash_ids[order], np.arange(cfg.M + 1)).tolist()
    if bounds[0] != 0 or bounds[-1] != len(hash_ids):
        raise DimensionMismatch(f"hash ids must lie in [0, {cfg.M})")
    found = np.empty(len(hash_ids), dtype=np.int64)
    for m, (a, b) in enumerate(zip(bounds, bounds[1:])):
        if a == b:
            continue
        x, p = rows[a:b], bank.params[m]
        if cfg.family == FAMILY_VQ:
            found[a:b] = kernels.assign_nearest(x, p)[0]
        elif cfg.family == FAMILY_LSH_B:
            found[a:b] = _pack_sign_bits(x[:, p] >= 0.0)
        else:
            found[a:b] = _pack_sign_bits(x @ p.T >= 0.0)
    out = np.empty_like(found)
    out[order] = found
    return out


def sample_hash_bank(config: HashFamilyConfig) -> HashBank:
    """Draw M independent hyperplane hashes from the configured family."""
    if config.family == FAMILY_VQ:
        raise ConfigError("VQ banks are trained, not sampled; use train_vq_bank")
    params = []
    for m in range(config.M):
        rng = hash_rng(config.seed, m)
        if config.family == FAMILY_LSH_C:
            params.append(rng.standard_normal((config.n, config.input_dim)))
        elif config.family == FAMILY_LSH_S:
            params.append(rng.integers(0, 2, size=(config.n, config.input_dim)) * 2.0 - 1.0)
        else:
            params.append(rng.integers(0, config.input_dim, size=config.n))
    return HashBank(config, np.stack(params))


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
    params = np.empty(config.param_shape)
    fallbacks = []
    for m, pool in enumerate(pools):
        pool = np.ascontiguousarray(pool, dtype=np.float64).reshape(-1, config.input_dim)
        rng = hash_rng(config.seed, m)
        if pool.shape[0] >= n_cent:
            params[m] = lloyd_kmeans(pool, n_cent, rng, max_iters=VQ_KMEANS_ITERS)
        else:
            fallbacks.append((m, pool.shape[0]))
            if pool.shape[0] > 0:
                picks = rng.integers(0, pool.shape[0], size=n_cent)
                spread = pool.std(axis=0) * VQ_JITTER_SCALE + 1e-9
                params[m] = pool[picks] + rng.standard_normal((n_cent, config.input_dim)) * spread
            else:
                params[m] = rng.standard_normal((n_cent, config.input_dim))
    return HashBank(config, params, report=VqTrainReport(tuple(fallbacks)))

