import json
import math
import time

import numpy as np
import pytest

from qivr import baseline, index, storage
from qivr.baseline import ShotRecord, build_frame_fv_star, build_scene_fv_star, build_shot_fv_star
from qivr.bloom import FilterConfig
from qivr.embedding import DescriptorSet, PcaModel, fit_gmm
from qivr.errors import EmptyInputError, QivrError
from qivr.evaluation import (EvalReport, SyntheticSpec, aggregate_trials,
                             average_precision, format_report, gen_synthetic,
                             mean_ap, report_json, run_benchmark,
                             run_fvstar_benchmark)
from qivr.hashing import HashFamilyConfig, sample_hash_bank
from qivr.index import (ModelBundle, SceneRecord, ScoringConfig, build_bf_gd)

D = 4
K = 3


# ----------------------------------------------------- average precision

def test_ap_perfect_ranking():
    assert average_precision(["a", "b", "c"], {"a"}) == 1.0
    assert average_precision(["a", "b"], {"a", "b"}) == 1.0


def test_ap_relevant_at_rank_two():
    assert average_precision(["x", "a"], {"a"}) == pytest.approx(0.5, abs=1e-12)


def test_ap_interleaved():
    want = (1.0 + 2.0 / 3.0) / 2.0
    assert average_precision(["a", "x", "b"], {"a", "b"}) == pytest.approx(
        want, abs=1e-12)


def test_ap_missing_relevant_scores_zero():
    assert average_precision(["x", "y"], {"a"}) == 0.0


def test_ap_accepts_generators():
    assert average_precision((s for s in ["a", "b"]), {"b"}) == 0.5


def test_ap_rejects_bad_input():
    with pytest.raises(QivrError):
        average_precision(["a", "a"], {"a"})
    with pytest.raises(EmptyInputError):
        average_precision(["a"], set())


def test_mean_ap():
    assert mean_ap([0.2, 0.4]) == pytest.approx(0.3)
    with pytest.raises(EmptyInputError):
        mean_ap([])


# ------------------------------------------------------------ benchmarks

class World:
    def __init__(self, rng, n_scenes=5, frames=3, descs=12):
        centers = rng.standard_normal((n_scenes, D)) * 6
        self.frames = {}
        self.scenes = []
        self.shots = []
        for s in range(n_scenes):
            refs = []
            for f in range(frames):
                self.frames[(s, f)] = centers[s] + rng.standard_normal((descs, D))
                refs.append((s, f))
            self.scenes.append(SceneRecord(f"scene{s}", tuple(refs)))
            self.shots.append(ShotRecord(f"scene{s}-a", f"scene{s}", tuple(refs[:2])))
            self.shots.append(ShotRecord(f"scene{s}-b", f"scene{s}", tuple(refs[2:])))
        corpus = [DescriptorSet(f"{k}", v) for k, v in self.frames.items()]
        pca = PcaModel(mean=np.zeros(D), basis=np.eye(D))
        gmm = fit_gmm(corpus, K, seed=0)
        hcfg = HashFamilyConfig("lsh_c", "gbh", M=K, n=5, input_dim=D, seed=1)
        self.bundle = ModelBundle(pca=pca, gmm=gmm, bank=sample_hash_bank(hcfg))
        self.fcfg = FilterConfig(partitioned=True, M=K, L_p=32)
        self.index = build_bf_gd(self.scenes, self.bundle, self.fcfg, self.loader)
        self.queries = [(f"q{s}", DescriptorSet(f"q{s}", self.frames[(s, 0)]))
                        for s in range(n_scenes)]
        self.truth = {f"q{s}": (f"scene{s}",) for s in range(n_scenes)}

    def loader(self, ref):
        return DescriptorSet(f"{ref[0]}_{ref[1]}", self.frames[ref])


@pytest.fixture(scope="module")
def world():
    return World(np.random.default_rng(42))


@pytest.mark.parametrize("mode,alpha", [("hash_matches", 0.0), ("tfidf", 0.5)])
def test_planted_queries_reach_perfect_map(world, mode, alpha):
    report = run_benchmark(world.index, world.bundle, ScoringConfig(mode, alpha),
                           world.queries, world.truth)
    assert report.map == 1.0
    assert all(ap == 1.0 for _, ap in report.per_query_ap)
    assert report.trials == 1


def test_report_map_is_mean_of_per_query(world):
    report = run_benchmark(world.index, world.bundle, ScoringConfig("tfidf", 0.5),
                           world.queries, world.truth)
    assert report.map == pytest.approx(
        np.mean([ap for _, ap in report.per_query_ap]), abs=1e-15)
    assert report.index_bytes == len(storage.index_to_bytes(world.index))
    assert report.mean_latency_seconds >= 0.0


def test_benchmark_requires_ground_truth(world):
    with pytest.raises(QivrError):
        run_benchmark(world.index, world.bundle, ScoringConfig("tfidf", 0.5),
                      world.queries, {"q0": ("scene0",)})
    with pytest.raises(EmptyInputError):
        run_benchmark(world.index, world.bundle, ScoringConfig("tfidf", 0.5),
                      [], world.truth)


def test_latency_window_starts_at_loaded_descriptors(world, monkeypatch):
    # both index kinds are timed from the loaded query, so a slow PCA shows
    db = build_frame_fv_star(world.scenes, world.bundle.pca, world.bundle.gmm,
                             world.loader)

    def slowed(apply_pca):
        def wrapper(*args):
            time.sleep(0.002)
            return apply_pca(*args)
        return wrapper

    for module in (index, baseline):
        monkeypatch.setattr(module, "apply_pca", slowed(module.apply_pca))
    bloom = run_benchmark(world.index, world.bundle, ScoringConfig("tfidf", 0.5),
                          world.queries, world.truth)
    fvstar = run_fvstar_benchmark(db, world.bundle, world.queries, world.truth)
    assert bloom.mean_latency_seconds >= 0.002
    assert fvstar.mean_latency_seconds >= 0.002


def test_fvstar_benchmark_scene_granularity(world):
    db = build_scene_fv_star(world.scenes, world.bundle.pca, world.bundle.gmm,
                             world.loader)
    report = run_fvstar_benchmark(db, world.bundle, world.queries, world.truth)
    assert report.map == 1.0
    assert report.index_bytes == len(storage.fvstar_to_bytes(db))


def test_fvstar_benchmark_frame_granularity_with_rerank(world):
    db = build_frame_fv_star(world.scenes, world.bundle.pca, world.bundle.gmm,
                             world.loader)
    shots = build_shot_fv_star(world.shots, world.bundle.pca, world.bundle.gmm,
                               world.loader)
    report = run_fvstar_benchmark(db, world.bundle, world.queries, world.truth,
                                  shot_db=shots, shortlist_size=3)
    assert report.map == 1.0


# ------------------------------------------------------------ aggregation

def _report(map_, per_query, bytes_=100):
    return EvalReport(map=map_, per_query_ap=per_query,
                      mean_latency_seconds=0.002, index_bytes=bytes_)


def test_aggregate_identical_trials_has_zero_spread():
    r = _report(0.75, (("q0", 0.5), ("q1", 1.0)))
    agg = aggregate_trials([r, r, r])
    assert agg.map == 0.75
    assert agg.map_stddev == 0.0
    assert agg.trials == 3
    assert agg.per_query_ap == r.per_query_ap


def test_aggregate_uses_population_stddev():
    a = _report(0.5, (("q0", 0.5),))
    b = _report(1.0, (("q0", 1.0),))
    agg = aggregate_trials([a, b])
    assert agg.map == pytest.approx(0.75)
    assert agg.map_stddev == pytest.approx(0.25)  # sqrt(mean of squared devs)
    assert agg.per_query_ap == (("q0", 0.75),)


def test_aggregate_preserves_map_per_query_invariant():
    a = _report(0.6, (("q0", 0.2), ("q1", 1.0)))
    b = _report(0.9, (("q0", 0.8), ("q1", 1.0)))
    agg = aggregate_trials([a, b])
    assert agg.map == pytest.approx(
        np.mean([ap for _, ap in agg.per_query_ap]), abs=1e-15)


def test_aggregate_rejects_empty():
    with pytest.raises(EmptyInputError):
        aggregate_trials([])


# --------------------------------------------------------------- reports

def test_format_report_lines():
    r = EvalReport(map=0.5, per_query_ap=(("q0", 0.5),),
                   mean_latency_seconds=0.001234, index_bytes=4096,
                   trials=2, map_stddev=0.125)
    assert format_report(r) == (
        "map = 0.500000\n"
        "map_stddev = 0.125000\n"
        "mean_latency_seconds = 0.001234\n"
        "index_bytes = 4096\n"
        "trials = 2\n")


def test_report_json_round_trip():
    r = EvalReport(map=0.5, per_query_ap=(("q1", 0.25), ("q0", 0.75)),
                   mean_latency_seconds=0.01, index_bytes=10)
    payload = json.loads(report_json(r))
    assert payload["map"] == 0.5
    assert payload["trials"] == 1
    assert payload["per_query_ap"] == {"q0": 0.75, "q1": 0.25}


# --------------------------------------------------------- synthetic data

def _spec(**overrides):
    base = dict(scene_count=4, frames_per_scene=7, descriptors_per_frame=6,
                d=3, query_count=5, noise_sigma=0.0, seed=13)
    base.update(overrides)
    return SyntheticSpec(**base)


def test_synthetic_is_deterministic(tmp_path):
    a = gen_synthetic(_spec(), tmp_path / "a")
    b = gen_synthetic(_spec(), tmp_path / "b")
    for rel in sorted(p.relative_to(a.root) for p in a.root.rglob("*") if p.is_file()):
        assert (a.root / rel).read_bytes() == (b.root / rel).read_bytes(), rel


def test_synthetic_counts_and_shapes(tmp_path):
    spec = _spec()
    paths = gen_synthetic(spec, tmp_path)
    manifest = paths.manifest.read_text().strip().splitlines()
    assert len(manifest) == spec.scene_count * spec.frames_per_scene
    queries = paths.queries.read_text().strip().splitlines()
    assert len(queries) == spec.query_count
    truth = storage.read_ground_truth(paths.ground_truth)
    assert len(truth) == spec.query_count
    qid, rel = queries[0].split("\t")
    dset = storage.read_descriptors(tmp_path / rel)
    assert dset.vectors.shape == (spec.descriptors_per_frame, spec.d)


def test_zero_noise_queries_copy_a_frame(tmp_path):
    spec = _spec()
    paths = gen_synthetic(spec, tmp_path)
    scenes, _ = storage.read_manifest(paths.manifest)
    by_scene = {s.scene_id: s for s in scenes}
    truth = storage.read_ground_truth(paths.ground_truth)
    for line in paths.queries.read_text().strip().splitlines():
        qid, rel = line.split("\t")
        qvecs = storage.read_descriptors(tmp_path / rel).vectors
        scene = by_scene[truth[qid][0]]
        frames = [storage.read_descriptors(path).vectors
                  for _, path in scene.frame_refs]
        assert any(np.array_equal(qvecs, fv) for fv in frames)


def test_shot_boundaries_every_ceil_frames_over_five(tmp_path):
    spec = _spec(frames_per_scene=7)  # shot length ceil(7/5) = 2
    paths = gen_synthetic(spec, tmp_path)
    rows = [line.split("\t") for line in paths.manifest.read_text().strip().splitlines()]
    shots = [r[3] for r in rows if r[0] == "scene0000"]
    assert shots == ["scene0000-s0", "scene0000-s0", "scene0000-s1",
                     "scene0000-s1", "scene0000-s2", "scene0000-s2",
                     "scene0000-s3"]
    assert math.ceil(spec.frames_per_scene / 5) == 2


def test_spec_validation():
    with pytest.raises(QivrError):
        _spec(scene_count=0)
    with pytest.raises(QivrError):
        _spec(noise_sigma=-0.1)


def test_synthetic_manifest_parses_into_scene_and_shot_records(tmp_path):
    spec = _spec()
    paths = gen_synthetic(spec, tmp_path)
    scenes, shots = storage.read_manifest(paths.manifest)
    assert len(scenes) == spec.scene_count
    assert all(len(s.frame_refs) == spec.frames_per_scene for s in scenes)
    per_scene_shots = {}
    for shot in shots:
        per_scene_shots.setdefault(shot.parent_scene, []).append(shot)
    assert all(len(v) == 4 for v in per_scene_shots.values())  # 7 frames / len 2
