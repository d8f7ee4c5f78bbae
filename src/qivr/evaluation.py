"""Retrieval evaluation: average precision, benchmarks, synthetic data.

Benchmarks time the retrieval stage only (hashing + posting traversal +
ranking); embedding and descriptor I/O sit outside the clock unless
end-to-end timing is requested. Randomized hash families are evaluated over
repeated trials with re-seeded banks; the report carries the mAP spread.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import baseline, storage
from .embedding import DescriptorSet
from .errors import EmptyInputError, QivrError
from .index import (InvertedIndex, ModelBundle, ScoringConfig, compute_idf,
                    score_query)

REPORT_KEYS = ("map", "map_stddev", "mean_latency_seconds", "index_bytes", "trials")


@dataclass(frozen=True)
class EvalReport:
    map: float
    per_query_ap: tuple  # (query_id, ap) pairs in evaluation order
    mean_latency_seconds: float
    index_bytes: int
    trials: int = 1
    map_stddev: float = 0.0


def average_precision(ranking, relevant) -> float:
    """AP of one ranked list against a set of relevant scene ids.

    Relevant scenes absent from the ranking contribute zero precision.
    """
    relevant = set(relevant)
    if not relevant:
        raise EmptyInputError("empty relevant set")
    ids = list(ranking)
    if len(set(ids)) != len(ids):
        raise QivrError("ranking contains duplicate scene ids")
    hits = 0
    total = 0.0
    for rank, sid in enumerate(ids, start=1):
        if sid in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def mean_ap(aps) -> float:
    aps = list(aps)
    if not aps:
        raise EmptyInputError("mean_ap needs at least one query")
    return float(np.mean(aps))


def run_benchmark(index: InvertedIndex, bundle: ModelBundle, scoring: ScoringConfig,
                  queries, ground_truth: dict, top_k: int = 0, threads: int = 1,
                  end_to_end: bool = False) -> EvalReport:
    """Score every query against the index and aggregate mAP and latency.

    `queries` holds (query_id, DescriptorSet) pairs; every id must appear
    in `ground_truth`. Queries may run on a thread pool; results merge in
    input order regardless of scheduling.
    """
    k = top_k if top_k else index.n_scenes
    idf = compute_idf(index)

    def one(dset):
        if end_to_end:
            t0 = time.perf_counter()
            result = score_query(index, idf, scoring, dset, bundle, k)
            latency = time.perf_counter() - t0
        else:
            result = score_query(index, idf, scoring, dset, bundle, k)
            latency = result.latency_seconds
        return (sid for sid, _ in result.ranking), latency

    return _run_queries(one, queries, ground_truth, threads,
                        len(storage.index_to_bytes(index)))


def run_fvstar_benchmark(db, bundle: ModelBundle, queries, ground_truth: dict,
                         top_k: int = 0, shot_db=None, shortlist_size: int = 100,
                         threads: int = 1) -> EvalReport:
    """Exhaustive-scan benchmark over a binarized-FV database.

    Frame-granularity rankings collapse to scenes by closest frame; when a
    shot database is supplied the scene shortlist is re-ranked by minimum
    shot distance.
    """
    def one(dset):
        words = baseline.encode_query(bundle.pca, bundle.gmm, dset)
        t0 = time.perf_counter()
        order, dists = baseline.hamming_rank(db, words)
        if db.granularity == baseline.GRAN_SCENE:
            scenes = [db.owners[i] for i in order]
        else:
            scenes = [sid for sid, _ in baseline.scenes_from_ranking(db, order, dists)]
        if shot_db is not None:
            scenes, _ = baseline.rerank_shortlist(scenes, shot_db, words, shortlist_size)
        if top_k:
            scenes = scenes[:top_k]
        return scenes, time.perf_counter() - t0

    return _run_queries(one, queries, ground_truth, threads,
                        len(storage.fvstar_to_bytes(db)))


def _run_queries(one, queries, ground_truth: dict, threads: int,
                 index_bytes: int) -> EvalReport:
    """The query loop both benchmarks share.

    `one(dset)` ranks one query and returns (scene ids in rank order, its
    latency in seconds).
    """
    queries = list(queries)
    if not queries:
        raise EmptyInputError("no queries to evaluate")
    missing = [qid for qid, _ in queries if qid not in ground_truth]
    if missing:
        raise QivrError(f"queries missing from ground truth: {missing[:5]}")

    def score(item):
        qid, dset = item
        ranking, latency = one(dset)
        return qid, average_precision(ranking, ground_truth[qid]), latency

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(score, queries))
    else:
        rows = [score(q) for q in queries]

    per_query = tuple((qid, ap) for qid, ap, _ in rows)
    return EvalReport(
        map=mean_ap([ap for _, ap in per_query]),
        per_query_ap=per_query,
        mean_latency_seconds=float(np.mean([lat for _, _, lat in rows])),
        index_bytes=index_bytes,
    )


def aggregate_trials(reports) -> EvalReport:
    """Average repeated-trial reports; stddev is over per-trial mAP values."""
    reports = list(reports)
    if not reports:
        raise EmptyInputError("no trial reports to aggregate")
    maps = np.array([r.map for r in reports])
    qids = [qid for qid, _ in reports[0].per_query_ap]
    per_query = []
    for i, qid in enumerate(qids):
        vals = [r.per_query_ap[i][1] for r in reports]
        per_query.append((qid, float(np.mean(vals))))
    return EvalReport(
        map=float(maps.mean()),
        per_query_ap=tuple(per_query),
        mean_latency_seconds=float(np.mean([r.mean_latency_seconds for r in reports])),
        index_bytes=int(round(np.mean([r.index_bytes for r in reports]))),
        trials=len(reports),
        map_stddev=float(maps.std()),
    )


def format_report(report: EvalReport) -> str:
    lines = [
        f"map = {report.map:.6f}",
        f"map_stddev = {report.map_stddev:.6f}",
        f"mean_latency_seconds = {report.mean_latency_seconds:.6f}",
        f"index_bytes = {report.index_bytes}",
        f"trials = {report.trials}",
    ]
    return "\n".join(lines) + "\n"


def report_json(report: EvalReport) -> str:
    payload = {
        "map": report.map,
        "map_stddev": report.map_stddev,
        "mean_latency_seconds": report.mean_latency_seconds,
        "index_bytes": report.index_bytes,
        "trials": report.trials,
        "per_query_ap": {qid: ap for qid, ap in report.per_query_ap},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# -------------------------------------------------------- synthetic data

@dataclass(frozen=True)
class SyntheticSpec:
    scene_count: int
    frames_per_scene: int
    descriptors_per_frame: int
    d: int
    query_count: int
    noise_sigma: float
    seed: int
    center_radius: float = 8.0
    cloud_sigma: float = 1.0

    def __post_init__(self):
        counts = (self.scene_count, self.frames_per_scene,
                  self.descriptors_per_frame, self.d, self.query_count)
        if any(c < 1 for c in counts):
            raise QivrError("all synthetic counts must be >= 1")
        if self.noise_sigma < 0:
            raise QivrError("noise_sigma must be >= 0")


@dataclass(frozen=True)
class SyntheticPaths:
    root: Path
    manifest: Path
    queries: Path
    ground_truth: Path


def gen_synthetic(spec: SyntheticSpec, outdir) -> SyntheticPaths:
    """Write a planted-retrieval dataset under `outdir`.

    Scene clouds are isotropic Gaussians whose means sit on a sphere of
    radius center_radius. Every query copies one indexed frame's
    descriptors plus N(0, noise_sigma^2) noise; that frame's scene is the
    query's ground truth. Deterministic: a fixed spec yields byte-identical
    files. Shot boundaries fall every ceil(frames_per_scene/5) frames.
    """
    root = Path(outdir)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)

    centers = rng.standard_normal((spec.scene_count, spec.d))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    centers *= spec.center_radius

    shot_len = math.ceil(spec.frames_per_scene / 5)
    manifest_lines = []
    frames = {}  # (scene index, frame index) -> descriptor array
    for s in range(spec.scene_count):
        scene_id = f"scene{s:04d}"
        for f in range(spec.frames_per_scene):
            frame_id = f"frame{f:04d}"
            vecs = centers[s] + spec.cloud_sigma * rng.standard_normal(
                (spec.descriptors_per_frame, spec.d))
            rel = f"descriptors/{scene_id}/{frame_id}.qivd"
            storage.write_descriptors(root / rel, DescriptorSet(frame_id, vecs))
            frames[(s, f)] = vecs
            shot_id = f"{scene_id}-s{f // shot_len}"
            manifest_lines.append(f"{scene_id}\t{frame_id}\t{rel}\t{shot_id}")

    query_lines = []
    truth_lines = []
    for q in range(spec.query_count):
        qid = f"query{q:04d}"
        s = int(rng.integers(spec.scene_count))
        f = int(rng.integers(spec.frames_per_scene))
        vecs = frames[(s, f)] + spec.noise_sigma * rng.standard_normal(
            (spec.descriptors_per_frame, spec.d))
        rel = f"queries/{qid}.qivd"
        storage.write_descriptors(root / rel, DescriptorSet(qid, vecs))
        query_lines.append(f"{qid}\t{rel}")
        truth_lines.append(f"{qid}\tscene{s:04d}")

    manifest = root / "manifest.tsv"
    queries = root / "queries.tsv"
    truth = root / "ground_truth.tsv"
    manifest.write_text("\n".join(manifest_lines) + "\n")
    queries.write_text("\n".join(query_lines) + "\n")
    truth.write_text("\n".join(truth_lines) + "\n")
    return SyntheticPaths(root=root, manifest=manifest, queries=queries,
                          ground_truth=truth)
