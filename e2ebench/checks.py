"""Output checks, computed apart from the code paths they check.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math

import numpy as np


def average_precision(ranking, relevant) -> float:
    """AP of one ranked scene list: mean precision at each relevant hit."""
    relevant = set(relevant)
    hits = 0
    total = 0.0
    for rank, sid in enumerate(ranking, start=1):
        if sid in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def check_ap(rankings: dict, truth: dict, report: dict) -> list:
    """Per-query AP from our own rankings against the evaluate report."""
    problems = []
    aps = {qid: average_precision(r, truth[qid]) for qid, r in rankings.items()}
    reported = report.get("per_query_ap", {})
    if set(reported) != set(aps):
        problems.append("evaluate report covers other queries than the benchmark ran")
    else:
        bad = [q for q in aps if not math.isclose(aps[q], reported[q], rel_tol=1e-12)]
        if bad:
            problems.append(f"per-query AP differs on {len(bad)} queries, e.g. {bad[0]}: "
                            f"{aps[bad[0]]} vs {reported[bad[0]]}")
    mean = math.fsum(aps.values()) / len(aps)
    if not math.isclose(mean, report["map"], rel_tol=1e-12, abs_tol=1e-15):
        problems.append(f"mAP {mean} recomputed, {report['map']} reported")
    return problems


# ------------------------------------------------------ Bloom-filter index

class DenseScan:
    """A scenes x bits matrix of the index, scored by a plain scan.

    Scores follow the paper's update rules: every probe adds +1 (hash
    matches) or w^2 with w = ln((V+1)/(df+1)) + 1 (TF-IDF) to each scene
    whose bit is set; TF-IDF scores are then divided by (sum over the
    scene's set bits of w^2)^alpha. Sums run in probe order and bit order,
    the order the inverted index adds them in.
    """

    def __init__(self, index):
        n_scenes = len(index.scene_ids)
        n_bits = index.filter_config.n_bits
        df = np.diff(index.offsets)
        bits = np.repeat(index.keys, df)
        self.dense = np.zeros((n_scenes, n_bits), dtype=bool)
        self.dense[index.ordinals, bits] = True
        col_df = self.dense.sum(axis=0)
        self.w2 = (np.log((n_scenes + 1.0) / (col_df + 1.0)) + 1.0) ** 2
        self.sq_norm = np.zeros(n_scenes)
        for b in np.flatnonzero(col_df):
            self.sq_norm += self.w2[b] * self.dense[:, b]
        self.scene_ids = index.scene_ids

    def scores(self, probes, mode: str, alpha: float) -> np.ndarray:
        out = np.zeros(len(self.scene_ids))
        for b in probes:
            out += (1.0 if mode == "hash_matches" else self.w2[b]) * self.dense[:, b]
        if mode == "tfidf":
            out /= np.where(self.sq_norm > 0.0, self.sq_norm, 1.0) ** alpha
        return out

    def ranking(self, scores: np.ndarray) -> list:
        order = sorted(range(len(scores)), key=lambda v: (-scores[v], v))
        return [self.scene_ids[v] for v in order]


def check_dense_scan(scan: DenseScan, probes_of: dict, program: dict, mode: str,
                     alpha: float) -> list:
    """Dense-scan rankings against the index's, per query.

    `program` maps query id to score_query's (scene id, score) pairs.
    """
    problems = []
    for qid, pairs in program.items():
        scores = scan.scores(probes_of[qid], mode, alpha)
        want = scan.ranking(scores)
        got = [sid for sid, _ in pairs]
        if got != want:
            problems.append(f"{mode}: {qid} ranks {got[:3]}..., dense scan {want[:3]}...")
            break
        by_id = dict(zip(scan.scene_ids, scores))
        if not all(math.isclose(s, by_id[sid], rel_tol=1e-9, abs_tol=1e-12)
                   for sid, s in pairs):
            problems.append(f"{mode}: {qid} scores differ from the dense scan")
            break
    return problems


def check_no_false_negatives(scan: DenseScan, frame_probes) -> list:
    """Every probe bit of an indexed frame is set in its own scene's filter."""
    row_of = {sid: i for i, sid in enumerate(scan.scene_ids)}
    for scene_id, frame_id, probes in frame_probes:
        if not scan.dense[row_of[scene_id], probes].all():
            return [f"frame {scene_id}/{frame_id} misses its own scene in a posting list"]
    return []


# -------------------------------------------------------------- FV* scan

def check_fvstar(db, query_words: dict, program: dict, ranked: dict) -> list:
    """Hamming distances and scene order against np.unpackbits.

    `program` maps query id to hamming_rank's (order, distances);
    `ranked` to the scene list built from them.
    """
    n_bits = db.n_components * db.dim
    db_bits = np.unpackbits(db.matrix.view(np.uint8), axis=1, bitorder="little")[:, :n_bits]
    parents = db.parents
    for qid, words in query_words.items():
        q_bits = np.unpackbits(words.view(np.uint8), bitorder="little")[:n_bits]
        dist = np.count_nonzero(db_bits != q_bits, axis=1)
        order, dists = program[qid]
        want_order = sorted(range(len(dist)), key=lambda i: (dist[i], i))
        if list(order) != want_order or list(dists) != [int(dist[i]) for i in want_order]:
            return [f"{qid}: hamming_rank disagrees with the unpacked-bit distances"]
        best = {}
        for i, sid in enumerate(parents):
            key = (int(dist[i]), i)
            if sid not in best or key < best[sid]:
                best[sid] = key
        want_scenes = sorted(best, key=best.get)
        if ranked[qid] != want_scenes:
            return [f"{qid}: scene order is not by minimum frame distance"]
    return []
