"""Scene indexes: Bloom-filter construction and inverted-index scoring.

Bits live in one flat space so both filter layouts share a posting
representation (`FilterConfig.flat_bits`): partitioned filters map (hash m,
bucket) to m*L_p + bucket, non-partitioned ones to the bucket itself.
Postings are sealed into CSR arrays (sorted unique bit keys, offsets, scene
ordinals) and every query probe resolves to a key by binary search.

Frames are embedded into (hash id, row) pairs by one function,
`hash_inputs`: their Fisher vectors or chunks under bf_gd, their
descriptors' residuals under bf_pi. VQ training pools, builds and queries
(a batch of one frame) all call it, and a build hashes the pairs of all its
frames in one `hashing.buckets` call, so a query is hashed exactly like an
indexed frame.

Scoring follows the two per-probe update rules: hash-match counting
(+1 whenever the probed bit is set for a scene) and TF-IDF
(+w^2 / (sum of w^2 over the scene's set bits)^alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import hashing, kernels
from .bloom import FilterConfig, SceneFilter
from .embedding import (DescriptorSet, DiagonalGmm, PcaModel, apply_pca,
                        compute_fv, point_index_batch)
from .errors import ConfigError, EmptyInputError, FingerprintMismatch
from .hashing import DOMAIN_GBH, DOMAIN_VBH, HashBank, HashFamilyConfig

PIPELINE_BF_GD = "bf_gd"
PIPELINE_BF_PI = "bf_pi"
PIPELINES = (PIPELINE_BF_GD, PIPELINE_BF_PI)

SCORE_HASH_MATCHES = "hash_matches"
SCORE_TFIDF = "tfidf"

ZERO_DIGESTS = (b"\x00" * 32, b"\x00" * 32, b"\x00" * 32)


@dataclass(frozen=True)
class SceneRecord:
    scene_id: str
    frame_refs: tuple  # ordered descriptor references, resolved by a loader


@dataclass(frozen=True)
class ScoringConfig:
    mode: str = SCORE_TFIDF
    alpha: float = 0.5

    def __post_init__(self):
        if self.mode not in (SCORE_HASH_MATCHES, SCORE_TFIDF):
            raise ConfigError(f"unknown scoring mode {self.mode!r}")
        if not math.isfinite(self.alpha) or self.alpha < 0:
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha}")


@dataclass(frozen=True)
class ModelBundle:
    """The trained models an index was built from, plus their content digests."""

    pca: PcaModel
    gmm: DiagonalGmm
    bank: HashBank
    digests: tuple = ZERO_DIGESTS


@dataclass(frozen=True)
class QueryResult:
    ranking: tuple  # (scene_id, score) pairs, scores non-increasing


@dataclass(frozen=True)
class BuildStats:
    frames: int
    descriptors: int
    skipped_empty_frames: int


@dataclass
class InvertedIndex:
    pipeline: str
    filter_config: FilterConfig
    hash_config: "HashFamilyConfig"
    scene_ids: tuple
    keys: np.ndarray       # sorted flat bit indices with nonempty postings
    offsets: np.ndarray    # CSR offsets into ordinals, len(keys) + 1
    ordinals: np.ndarray   # int32 scene ordinals, sorted within each list
    fingerprints: tuple = ZERO_DIGESTS
    idf: np.ndarray | None = None            # per-key weight, postings order
    scene_sq_norm: np.ndarray | None = None  # per-scene sum of w^2 over set bits
    stats: BuildStats | None = field(default=None, compare=False)

    @property
    def n_scenes(self) -> int:
        return len(self.scene_ids)

    @property
    def per_scene_setbits(self) -> np.ndarray:
        return np.bincount(self.ordinals, minlength=self.n_scenes)


@dataclass(frozen=True)
class IdfWeights:
    keys: np.ndarray
    w: np.ndarray

    def weight_of(self, bit: int) -> float:
        i = int(np.searchsorted(self.keys, bit))
        if i < len(self.keys) and self.keys[i] == bit:
            return float(self.w[i])
        return 0.0


def check_pipeline_hashing(pipeline: str, domain: str, M: int, K: int):
    """Rules tying a Bloom-filter pipeline to its hash bank and GMM.

    bf_pi hashes per-Gaussian residuals, so it needs the gbh domain, and
    gbh hashes one chunk or residual pool per Gaussian, so M must equal K.
    """
    if pipeline == PIPELINE_BF_PI and domain != DOMAIN_GBH:
        raise ConfigError("bf_pi requires domain = gbh")
    if domain == DOMAIN_GBH and M != K:
        raise ConfigError(f"gbh requires M = K, got M={M} K={K}")


def _validate_build(pipeline: str, bundle: ModelBundle, fcfg: FilterConfig):
    hcfg = bundle.bank.config
    gmm = bundle.gmm
    if pipeline not in PIPELINES:
        raise ConfigError(f"unknown pipeline {pipeline!r}")
    check_pipeline_hashing(pipeline, hcfg.domain, hcfg.M, gmm.n_components)
    if fcfg.M != hcfg.M:
        raise ConfigError(f"filter M={fcfg.M} != bank M={hcfg.M}")
    if fcfg.partitioned and fcfg.L_p < hcfg.n_buckets:
        raise ConfigError(f"L_p={fcfg.L_p} cannot hold {hcfg.n_buckets} buckets")
    if not fcfg.partitioned and fcfg.L_np < hcfg.n_buckets:
        raise ConfigError(f"L_np={fcfg.L_np} cannot hold {hcfg.n_buckets} buckets")
    if hcfg.domain == DOMAIN_GBH:
        if hcfg.input_dim != gmm.dim:
            raise ConfigError(f"gbh input_dim {hcfg.input_dim} != descriptor dim {gmm.dim}")
    else:
        if hcfg.input_dim != gmm.n_components * gmm.dim:
            raise ConfigError(
                f"vbh input_dim {hcfg.input_dim} != K*d = {gmm.n_components * gmm.dim}")
    if bundle.pca.d_out != gmm.dim:
        raise ConfigError(f"PCA output dim {bundle.pca.d_out} != GMM dim {gmm.dim}")


def hash_inputs(pipeline: str, hcfg: HashFamilyConfig, gmm: DiagonalGmm, frames):
    """(hash ids, rows, rows per frame) that frames probe, PCA already applied.

    Rows come frame after frame. bf_gd hashes each frame's normalized Fisher
    vector under every hash: the whole vector (vbh) or chunk m under hash m
    (gbh), so chunk m of frame f is row f*M + m. bf_pi hashes each
    descriptor's whitened residual under the hash of its dominant Gaussian,
    all frames' descriptors in one `point_index_batch` call.
    """
    if pipeline == PIPELINE_BF_PI:
        stacked = np.vstack([np.empty((0, gmm.dim))] + [f.vectors for f in frames])
        comp, _, residuals = point_index_batch(gmm, stacked)
        return (comp.astype(np.int64), residuals,
                np.array([f.n for f in frames], dtype=np.int64))
    fvs = np.array([compute_fv(gmm, f, normalize=True).values for f in frames])
    fvs = fvs.reshape(len(frames), gmm.n_components * gmm.dim)
    hash_ids = np.tile(np.arange(hcfg.M, dtype=np.int64), len(frames))
    if hcfg.domain == DOMAIN_VBH:
        rows = np.repeat(fvs, hcfg.M, axis=0)
    else:
        rows = fvs.reshape(-1, gmm.dim)
    return hash_ids, rows, np.full(len(frames), hcfg.M, dtype=np.int64)


def _probe_bits(pipeline: str, bundle: ModelBundle, fcfg: FilterConfig, frames):
    """(flat bits, bits per frame) that projected frames probe, in one
    `hashing.buckets` call."""
    hash_ids, rows, per_frame = hash_inputs(pipeline, bundle.bank.config, bundle.gmm, frames)
    # buckets lie below 2^n, which _validate_build checked the filter holds
    return fcfg.flat_bits(hash_ids, hashing.buckets(bundle.bank, rows, hash_ids)), per_frame


def _build(pipeline: str, scenes, bundle: ModelBundle, fcfg: FilterConfig, loader):
    _validate_build(pipeline, bundle, fcfg)
    scenes = list(scenes)
    if not scenes:
        raise EmptyInputError("no scenes to index")
    ids = [s.scene_id for s in scenes]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate scene ids in manifest")

    frames = []       # every nonempty frame, PCA applied
    frame_scene = []  # the scene ordinal of each
    skipped = 0
    for ordinal, scene in enumerate(scenes):
        for ref in scene.frame_refs:
            dset = loader(ref)
            if dset.n == 0:
                skipped += 1
                continue
            frames.append(apply_pca(bundle.pca, dset))
            frame_scene.append(ordinal)
    bits, bits_per_frame = _probe_bits(pipeline, bundle, fcfg, frames)
    owners = np.repeat(np.array(frame_scene, dtype=np.int64), bits_per_frame)

    # one sorted pass over (bit, scene) pairs gives the CSR postings directly
    pairs = np.unique(bits * len(scenes) + owners)
    bit_of = pairs // len(scenes)
    ordinals = (pairs % len(scenes)).astype(np.int32)
    starts = np.flatnonzero(np.diff(bit_of, prepend=-1))
    keys = bit_of[starts]
    offsets = np.append(starts, len(pairs)).astype(np.int64)

    stats = BuildStats(frames=len(frames), descriptors=sum(f.n for f in frames),
                       skipped_empty_frames=skipped)
    index = InvertedIndex(
        pipeline=pipeline,
        filter_config=fcfg,
        hash_config=bundle.bank.config,
        scene_ids=tuple(ids),
        keys=keys,
        offsets=offsets,
        ordinals=ordinals,
        fingerprints=bundle.digests,
        stats=stats,
    )
    _seal_idf(index)
    return index


def build_bf_gd(scenes, bundle: ModelBundle, fcfg: FilterConfig, loader) -> InvertedIndex:
    """Index scenes by hashing one normalized Fisher vector per frame."""
    return _build(PIPELINE_BF_GD, scenes, bundle, fcfg, loader)


def build_bf_pi(scenes, bundle: ModelBundle, fcfg: FilterConfig, loader) -> InvertedIndex:
    """Index scenes by hashing every descriptor's point-indexed residual."""
    return _build(PIPELINE_BF_PI, scenes, bundle, fcfg, loader)


def _seal_idf(index: InvertedIndex):
    """Attach smoothed log-IDF weights and per-scene TF-IDF normalizers."""
    v = index.n_scenes
    df = np.diff(index.offsets)
    index.idf = np.log((v + 1.0) / (df + 1.0)) + 1.0
    norms = np.zeros(v)
    key_idx = np.arange(len(index.keys), dtype=np.int64)
    kernels.accumulate_postings(key_idx, index.idf ** 2, index.offsets,
                                index.ordinals, norms)
    index.scene_sq_norm = norms


def compute_idf(index: InvertedIndex) -> IdfWeights:
    """IDF weights per observed bucket: ln((V+1)/(df+1)) + 1, else 0."""
    if index.idf is None:
        _seal_idf(index)
    return IdfWeights(index.keys, index.idf)


def rank_ties(scores: np.ndarray) -> np.ndarray:
    """Scene ordinals by descending score, ties broken by ascending ordinal."""
    return np.lexsort((np.arange(len(scores)), -scores))


def query_bits(index: InvertedIndex, bundle: ModelBundle, query: DescriptorSet) -> np.ndarray:
    """Flat bit indices probed by a query: a build's path for one frame."""
    return _probe_bits(index.pipeline, bundle, index.filter_config,
                       [apply_pca(bundle.pca, query)])[0]


def score_query(index: InvertedIndex, idf: IdfWeights, scoring: ScoringConfig,
                query: DescriptorSet, bundle: ModelBundle, top_k: int) -> QueryResult:
    """Rank scenes for a query image through the inverted index.

    The query is embedded and hashed exactly like an indexed frame, by
    `query_bits`. Nothing here is timed: callers time the whole call.
    """
    if query.n == 0:
        raise EmptyInputError("empty query descriptor set")
    if bundle.digests != index.fingerprints:
        raise FingerprintMismatch("query-time models do not match the index fingerprints")
    scores = _score_probes(index, idf, scoring, query_bits(index, bundle, query))
    order = rank_ties(scores)[:top_k]
    return QueryResult(ranking=tuple((index.scene_ids[v], float(scores[v])) for v in order))


def _score_probes(index: InvertedIndex, idf: IdfWeights, scoring: ScoringConfig,
                  probes: np.ndarray) -> np.ndarray:
    pos = np.searchsorted(index.keys, probes)
    pos_clipped = np.minimum(pos, len(index.keys) - 1) if len(index.keys) else pos * 0
    hit = np.zeros(len(probes), dtype=bool)
    if len(index.keys):
        hit = index.keys[pos_clipped] == probes
    key_idx = np.where(hit, pos_clipped, -1).astype(np.int64)

    if scoring.mode == SCORE_HASH_MATCHES:
        weights = np.ones(len(probes))
    else:
        weights = np.zeros(len(probes))
        weights[hit] = idf.w[key_idx[hit]] ** 2

    scores = np.zeros(index.n_scenes)
    kernels.accumulate_postings(key_idx, weights, index.offsets, index.ordinals, scores)
    if scoring.mode == SCORE_TFIDF:
        denom = np.where(index.scene_sq_norm > 0.0, index.scene_sq_norm, 1.0) ** scoring.alpha
        scores /= denom
    return scores


def materialize_filters(index: InvertedIndex) -> list:
    """Rebuild each scene's SceneFilter from the postings (bit-for-bit)."""
    n_words = (index.filter_config.n_bits + 63) // 64
    words = np.zeros((index.n_scenes, n_words), dtype=np.uint64)
    bits = np.repeat(index.keys, np.diff(index.offsets)).astype(np.uint64)
    np.bitwise_or.at(words, (index.ordinals, bits // np.uint64(64)),
                     np.uint64(1) << (bits % np.uint64(64)))
    return [SceneFilter(sid, index.filter_config, row)
            for sid, row in zip(index.scene_ids, words)]
