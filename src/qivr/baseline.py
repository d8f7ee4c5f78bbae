"""Binarized Fisher vector baselines scored by exhaustive Hamming scan.

Three granularities share one database layout: one packed sign-bit row per
scene, shot, or frame. Frame and shot rows carry their parent scene so frame
rankings can be collapsed to scene rankings, and shot rows drive the
re-ranking stage that rescores a scene shortlist by the closest shot.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .embedding import DescriptorSet, DiagonalGmm, PcaModel, apply_pca, compute_fv
from .errors import DimensionMismatch, EmptyInputError

GRAN_SCENE = "scene"
GRAN_SHOT = "shot"
GRAN_FRAME = "frame"
GRANULARITIES = (GRAN_SCENE, GRAN_SHOT, GRAN_FRAME)


@dataclass(frozen=True)
class ShotRecord:
    shot_id: str
    parent_scene: str
    frame_refs: tuple


@dataclass(eq=False)
class FvStarDatabase:
    granularity: str
    n_components: int
    dim: int
    owners: tuple       # entry ids at this granularity
    parents: tuple      # owning scene id per entry (== owners for scenes)
    matrix: np.ndarray  # (entries, words) uint64, little-endian packed bits
    skipped: int = field(default=0, compare=False)

    @property
    def n_entries(self) -> int:
        return len(self.owners)

    @property
    def n_bits(self) -> int:
        return self.n_components * self.dim

    @functools.cached_property
    def parent_ordinals(self) -> np.ndarray:
        """Each entry's parent scene as an ordinal, numbered in first-seen
        order. Built on first use, so opening a database does not pay for it."""
        seen: dict[str, int] = {}
        return np.array([seen.setdefault(p, len(seen)) for p in self.parents],
                        dtype=np.int64)


def binarize_fv(values: np.ndarray) -> np.ndarray:
    """Sign bits of an FV packed into uint64 words; component >= 0 maps to 1."""
    bits = (np.asarray(values, dtype=np.float64) >= 0.0).astype(np.uint8)
    packed = np.packbits(bits, bitorder="little")
    pad = (-len(packed)) % 8
    if pad:
        packed = np.concatenate([packed, np.zeros(pad, dtype=np.uint8)])
    return packed.view(np.uint64)


def unpack_words(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse view of binarize_fv: the first n_bits as a 0/1 array."""
    return np.unpackbits(words.view(np.uint8), bitorder="little")[:n_bits]


def _encode(gmm: DiagonalGmm, owner: str, stacks: list) -> np.ndarray:
    merged = DescriptorSet(owner, np.vstack(stacks))
    fv = compute_fv(gmm, merged, normalize=True)
    return binarize_fv(fv.values)


def _require(items, what: str) -> list:
    items = list(items)
    if not items:
        raise EmptyInputError(f"no {what} to index")
    return items


def build_scene_fv_star(scenes, pca: PcaModel, gmm: DiagonalGmm, loader) -> FvStarDatabase:
    """One binarized FV per scene over the union of its frames' descriptors."""
    groups = ((s.scene_id, s.scene_id, map(loader, s.frame_refs))
              for s in _require(scenes, "scenes"))
    return _build(GRAN_SCENE, groups, pca, gmm)


def build_shot_fv_star(shots, pca: PcaModel, gmm: DiagonalGmm, loader) -> FvStarDatabase:
    """One binarized FV per shot; parents point at the owning scene."""
    groups = ((s.shot_id, s.parent_scene, map(loader, s.frame_refs))
              for s in _require(shots, "shots"))
    return _build(GRAN_SHOT, groups, pca, gmm)


def build_frame_fv_star(scenes, pca: PcaModel, gmm: DiagonalGmm, loader) -> FvStarDatabase:
    """One binarized FV per frame; empty frames are skipped and counted."""
    groups = ((dset.source_id, s.scene_id, (dset,))
              for s in _require(scenes, "scenes") for dset in map(loader, s.frame_refs))
    return _build(GRAN_FRAME, groups, pca, gmm)


def _build(granularity: str, groups, pca: PcaModel, gmm: DiagonalGmm) -> FvStarDatabase:
    """One row per (owner, parent, frames) group over its loaded frames'
    descriptors; a group with none is skipped and counted."""
    owners, parents, rows = [], [], []
    skipped = 0
    for owner, parent, frames in groups:
        stacks = [apply_pca(pca, dset).vectors for dset in frames if dset.n]
        if not stacks:
            skipped += 1
            continue
        owners.append(owner)
        parents.append(parent)
        rows.append(_encode(gmm, owner, stacks))
    n_words = (gmm.n_components * gmm.dim + 63) // 64
    matrix = np.vstack(rows) if rows else np.empty((0, n_words), dtype=np.uint64)
    return FvStarDatabase(granularity, gmm.n_components, gmm.dim,
                          tuple(owners), tuple(parents), matrix, skipped=skipped)


def encode_query(pca: PcaModel, gmm: DiagonalGmm, query: DescriptorSet) -> np.ndarray:
    if query.n == 0:
        raise EmptyInputError("empty query descriptor set")
    projected = apply_pca(pca, query)
    return _encode(gmm, query.source_id, [projected.vectors])


def hamming_rank(db: FvStarDatabase, query_words: np.ndarray, top_k: int = 0):
    """Exhaustive scan: entry ordinals by ascending Hamming distance.

    Ties break by ordinal. Returns (order, distances-in-order).
    """
    if query_words.shape != (db.matrix.shape[1],):
        raise DimensionMismatch(
            f"query has {query_words.shape} words, database rows have {db.matrix.shape[1]}")
    dists = kernels.hamming_distances(db.matrix, np.ascontiguousarray(query_words))
    order = np.lexsort((np.arange(db.n_entries), dists))
    if top_k:
        order = order[:top_k]
    return order, dists[order]


def scenes_from_ranking(db: FvStarDatabase, order: np.ndarray, dists: np.ndarray):
    """Collapse a frame/shot ranking to scenes by first (closest) occurrence."""
    first = np.sort(np.unique(db.parent_ordinals[order], return_index=True)[1])
    return [(db.parents[order[i]], int(dists[i])) for i in first]


def rerank_shortlist(ranking, shot_db: FvStarDatabase, query_words: np.ndarray,
                     shortlist_size: int = 100):
    """Re-rank the head of a scene ranking by minimum shot Hamming distance.

    Shortlisted scenes with no shot rows keep their positions and are
    flagged; the rest sort ascending by (min distance, prior position).
    The tail beyond shortlist_size is untouched, so the output is always a
    permutation of the input.
    """
    ranking = list(ranking)
    shortlist = ranking[:shortlist_size]
    dists = kernels.hamming_distances(shot_db.matrix, np.ascontiguousarray(query_words))
    # per parent ordinal: the scene id, from its first entry, and the least distance
    first = np.unique(shot_db.parent_ordinals, return_index=True)[1]
    nearest = np.full(len(first), np.iinfo(np.int64).max)
    np.minimum.at(nearest, shot_db.parent_ordinals, dists)
    best = dict(zip([shot_db.parents[i] for i in first], nearest.tolist()))

    fixed = {i for i, sid in enumerate(shortlist) if sid not in best}
    movable = sorted(
        ((best[sid], i, sid) for i, sid in enumerate(shortlist) if i not in fixed))
    out = list(shortlist)
    free = (i for i in range(len(shortlist)) if i not in fixed)
    for slot, (_, _, sid) in zip(free, movable):
        out[slot] = sid
    flagged = tuple(shortlist[i] for i in sorted(fixed))
    return out + ranking[shortlist_size:], flagged
