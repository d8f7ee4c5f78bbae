"""Per-scene Bloom filters over hash bucket ids.

Partitioned filters give each of the M hash functions its own block of
L_p bits (bit m*L_p + bucket); non-partitioned filters share one array of
L_np bits. `FilterConfig.flat_bits` and `split_bits` state that layout
once, for the filters, the inverted index and the QIVI file. Insert-only:
bits never clear, and the popcount cache tracks every mutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BucketRangeError, ConfigError


@dataclass(frozen=True)
class FilterConfig:
    partitioned: bool
    M: int
    L_p: int = 0   # bits per partition (partitioned layout)
    L_np: int = 0  # total bits (non-partitioned layout)

    def __post_init__(self):
        if self.M < 1:
            raise ConfigError("M must be >= 1")
        if self.partitioned and self.L_p < 1:
            raise ConfigError("partitioned filters need L_p >= 1")
        if not self.partitioned and self.L_np < 1:
            raise ConfigError("non-partitioned filters need L_np >= 1")

    @property
    def n_bits(self) -> int:
        return self.L_p * self.M if self.partitioned else self.L_np

    def flat_bits(self, m, buckets):
        """Flat bit of (hash m, bucket): m*L_p + bucket when partitioned, else
        the bucket itself. Ints or arrays; callers range-check the buckets."""
        return m * self.L_p + buckets if self.partitioned else buckets

    def split_bits(self, keys):
        """(hash m, bucket) of each flat bit, the inverse of `flat_bits`; m is
        0 throughout when the filter is not partitioned."""
        if self.partitioned:
            return np.divmod(keys, self.L_p)
        return np.zeros_like(keys), keys


def bit_budget(config: FilterConfig) -> int:
    """Total bits: B_p = L_p * M when partitioned, else B_np = L_np."""
    return config.n_bits


class SceneFilter:
    """Bit array for one scene, with insert / membership over bucket tuples."""

    __slots__ = ("scene_id", "config", "words", "popcount")

    def __init__(self, scene_id: str, config: FilterConfig, words: np.ndarray | None = None):
        self.scene_id = scene_id
        self.config = config
        n_words = (config.n_bits + 63) // 64
        if words is None:
            self.words = np.zeros(n_words, dtype=np.uint64)
            self.popcount = 0
        else:
            if words.shape != (n_words,):
                raise ConfigError(f"expected {n_words} words, got {words.shape}")
            self.words = words.astype(np.uint64, copy=True)
            self.popcount = int(np.bitwise_count(self.words).sum())

    def bit_index(self, m: int, bucket: int) -> int:
        """Flat bit position of (hash m, bucket); range-checks the bucket."""
        cfg = self.config
        if cfg.partitioned and not 0 <= bucket < cfg.L_p:
            raise BucketRangeError(f"bucket {bucket} outside partition of {cfg.L_p}")
        if not cfg.partitioned and not 0 <= bucket < cfg.L_np:
            raise BucketRangeError(f"bucket {bucket} outside filter of {cfg.L_np}")
        return cfg.flat_bits(m, bucket)

    def set_bit(self, bit: int):
        w, b = divmod(bit, 64)
        mask = np.uint64(1) << np.uint64(b)
        if not self.words[w] & mask:
            self.words[w] |= mask
            self.popcount += 1

    def get_bit(self, bit: int) -> bool:
        w, b = divmod(bit, 64)
        return bool(self.words[w] >> np.uint64(b) & np.uint64(1))

    def insert(self, buckets):
        """Set the bit addressed by every (hash m, bucket_m) pair."""
        if len(buckets) != self.config.M:
            raise ConfigError(f"expected {self.config.M} buckets, got {len(buckets)}")
        for m, bucket in enumerate(buckets):
            self.set_bit(self.bit_index(m, int(bucket)))

    def query_membership(self, buckets) -> bool:
        """True iff every addressed bit is set (no false negatives)."""
        if len(buckets) != self.config.M:
            raise ConfigError(f"expected {self.config.M} buckets, got {len(buckets)}")
        bits = [self.bit_index(m, int(b)) for m, b in enumerate(buckets)]
        return all(self.get_bit(b) for b in bits)

    def set_bits(self) -> np.ndarray:
        """Sorted flat indices of all set bits."""
        unpacked = np.unpackbits(self.words.view(np.uint8), bitorder="little")
        return np.flatnonzero(unpacked[:self.config.n_bits])
