"""Release gate: one test per shipping criterion.

Each test owns its data end to end and prints a PASS/FAIL line through
conftest. Tolerances and runtime ceilings are part of the assertions.
"""

import math
import time

import numpy as np
import pytest

from qivr import storage
from qivr.baseline import (FvStarDatabase, binarize_fv, hamming_rank,
                           rerank_shortlist)
from qivr.bloom import FilterConfig, SceneFilter, bit_budget
from qivr.embedding import (DescriptorSet, DiagonalGmm, PcaModel, apply_pca,
                            compute_fv, fit_gmm, fit_pca, point_index,
                            posteriors_batch, reconstruct_hard_fv)
from qivr.evaluation import (SyntheticSpec, average_precision, gen_synthetic,
                             run_benchmark)
from qivr.hashing import (HashFamilyConfig, buckets, sample_hash_bank,
                          train_vq_bank)
from qivr.index import (IdfWeights, ModelBundle, SceneRecord, ScoringConfig,
                        build_bf_gd, build_bf_pi, compute_idf,
                        materialize_filters, query_bits, score_query)
from qivr.pipeline import RunConfig, vq_pools


def test_c01_no_false_negatives():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for partitioned in (True, False):
        for _ in range(1000):
            m = int(rng.integers(2, 8))
            if partitioned:
                cfg = FilterConfig(partitioned=True, M=m,
                                   L_p=int(rng.integers(8, 64)))
                top = cfg.L_p
            else:
                cfg = FilterConfig(partitioned=False, M=m,
                                   L_np=int(rng.integers(64, 512)))
                top = cfg.L_np
            filt = SceneFilter("s", cfg)
            inserted = [rng.integers(0, top, size=m).tolist()
                        for _ in range(int(rng.integers(1, 6)))]
            for buckets in inserted:
                filt.insert(buckets)
            assert all(filt.query_membership(b) for b in inserted)
    assert time.perf_counter() - start < 10.0


def _dense_scores(index, idf, scoring, probes):
    filters = materialize_filters(index)
    out = np.zeros(len(filters))
    for v, filt in enumerate(filters):
        acc = 0.0
        for bit in probes:
            if filt.get_bit(int(bit)):
                acc += 1.0 if scoring.mode == "hash_matches" \
                    else idf.weight_of(int(bit)) ** 2
        if scoring.mode == "tfidf":
            denom = sum(idf.weight_of(int(b)) ** 2 for b in filt.set_bits())
            acc /= (denom if denom > 0 else 1.0) ** scoring.alpha
        out[v] = acc
    return out


def test_c02_inverted_index_matches_dense_scan(tmp_path):
    start = time.perf_counter()
    spec = SyntheticSpec(scene_count=30, frames_per_scene=5,
                         descriptors_per_frame=16, d=4, query_count=5,
                         noise_sigma=0.1, seed=102)
    paths = gen_synthetic(spec, tmp_path)
    scenes, _ = storage.read_manifest(paths.manifest)
    corpus = [storage.frame_loader(ref) for s in scenes for ref in s.frame_refs]
    pca = fit_pca(corpus, 4)
    projected = [apply_pca(pca, d) for d in corpus]
    gmm = fit_gmm(projected, 4, seed=0)
    queries = [storage.read_descriptors(p, source_id=qid)
               for qid, p in storage.read_queries(paths.queries)]

    for pipeline in ("bf_gd", "bf_pi"):
        build = build_bf_gd if pipeline == "bf_gd" else build_bf_pi
        for family in ("lsh_c", "lsh_s", "lsh_b", "vq"):
            cfg = RunConfig(pipeline=pipeline, family=family, domain="gbh",
                            M=4, n=6, K=4, d=4)
            if family == "vq":
                bank = train_vq_bank(vq_pools(cfg, projected, gmm),
                                     cfg.hash_config())
            else:
                bank = sample_hash_bank(cfg.hash_config())
            bundle = storage.make_bundle(pca, gmm, bank)
            index = build(scenes, bundle, cfg.filter_config(),
                          storage.frame_loader)
            idf = compute_idf(index)
            for mode, alpha in (("hash_matches", 0.0), ("tfidf", 0.5)):
                scoring = ScoringConfig(mode, alpha)
                for query in queries:
                    probes = query_bits(index, bundle, query)
                    want = _dense_scores(index, idf, scoring, probes)
                    result = score_query(index, idf, scoring, query, bundle,
                                         top_k=index.n_scenes)
                    got = np.array([dict(result.ranking)[sid]
                                    for sid in index.scene_ids])
                    if mode == "hash_matches":
                        np.testing.assert_array_equal(got, want)
                    else:
                        np.testing.assert_allclose(got, want, rtol=1e-9)
    assert time.perf_counter() - start < 60.0


def test_c03_hard_assignment_fv_reconstruction():
    rng = np.random.default_rng(103)
    for _ in range(100):
        k = int(rng.integers(1, 6))
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, 40))
        w = rng.random(k) + 0.1
        gmm = DiagonalGmm(w / w.sum(), rng.standard_normal((k, d)) * 2,
                          rng.random((k, d)) + 0.3)
        x = rng.standard_normal((n, d)) * 1.5

        fv = reconstruct_hard_fv([point_index(gmm, row) for row in x], k, d, n)

        gamma = posteriors_batch(gmm, x)
        comp = np.argmax(gamma, axis=1)
        want = np.zeros(k * d)
        for i in range(n):
            j = comp[i]
            res = (x[i] - gmm.means[j]) / np.sqrt(gmm.variances[j])
            want[j * d:(j + 1) * d] += gamma[i, j] * res / np.sqrt(gmm.weights[j])
        np.testing.assert_allclose(fv.values, want / n, rtol=1e-9, atol=1e-12)


def test_c04_em_monotone_and_seed_stable():
    rng = np.random.default_rng(104)
    for trial in range(50):
        n = int(rng.integers(30, 120))
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        pts = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0) \
            + rng.standard_normal(d) * 3
        corpus = [DescriptorSet("c", pts)]
        first = fit_gmm(corpus, k, seed=trial)
        assert np.all(np.diff(first.ll_trace) >= -1e-9)
        second = fit_gmm(corpus, k, seed=trial)
        assert np.array_equal(first.weights, second.weights)
        assert np.array_equal(first.means, second.means)
        assert np.array_equal(first.variances, second.variances)


def test_c05_hyperplane_collision_rates():
    rng = np.random.default_rng(105)
    dim, pairs = 16, 12000
    for degrees in (30.0, 60.0, 90.0):
        theta = math.radians(degrees)
        u = rng.standard_normal((pairs, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        w = rng.standard_normal((pairs, dim))
        w -= (w * u).sum(axis=1, keepdims=True) * u
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        v = math.cos(theta) * u + math.sin(theta) * w

        cfg = HashFamilyConfig("lsh_c", "gbh", M=pairs, n=1, input_dim=dim,
                               seed=int(degrees))
        bank = sample_hash_bank(cfg)
        # pair i is hashed under hash i
        ids = np.arange(pairs)
        hits = np.count_nonzero(buckets(bank, u, ids) == buckets(bank, v, ids))
        assert abs(hits / pairs - (1.0 - theta / math.pi)) <= 0.02


def test_c06_partitioned_budget_equals_flat_budget():
    for n in (4, 8, 12):
        split = FilterConfig(partitioned=True, M=512, L_p=2 ** n)
        flat = FilterConfig(partitioned=False, M=512, L_np=2 ** (n + 9))
        assert bit_budget(split) == bit_budget(flat) == 512 * 2 ** n


def test_c07_planted_retrieval_benchmark(tmp_path):
    start = time.perf_counter()
    spec = SyntheticSpec(scene_count=100, frames_per_scene=30,
                         descriptors_per_frame=64, d=8, query_count=20,
                         noise_sigma=0.1, seed=107)
    paths = gen_synthetic(spec, tmp_path)
    scenes, _ = storage.read_manifest(paths.manifest)
    corpus = [storage.frame_loader(ref) for s in scenes for ref in s.frame_refs]
    pca = fit_pca(corpus, 8)
    projected = [apply_pca(pca, d) for d in corpus]
    gmm = fit_gmm(projected, 16, seed=0)
    queries = [(qid, storage.read_descriptors(p, source_id=qid))
               for qid, p in storage.read_queries(paths.queries)]
    truth = storage.read_ground_truth(paths.ground_truth)

    maps = {}
    for pipeline, build in (("bf_gd", build_bf_gd), ("bf_pi", build_bf_pi)):
        cfg = RunConfig(pipeline=pipeline, family="vq", domain="gbh",
                        M=16, n=10, K=16, d=8, scoring="tfidf", alpha=0.5)
        bank = train_vq_bank(vq_pools(cfg, projected, gmm),
                             cfg.hash_config())
        bundle = storage.make_bundle(pca, gmm, bank)
        index = build(scenes, bundle, cfg.filter_config(), storage.frame_loader)
        report = run_benchmark(index, bundle, cfg.scoring_config(), queries,
                               truth)
        maps[pipeline] = report.map

    assert maps["bf_pi"] >= 0.90
    assert maps["bf_pi"] >= maps["bf_gd"]
    assert time.perf_counter() - start < 300.0


def test_c08_unit_weight_tfidf_collapses_to_hash_matches():
    checked = 0
    for seed in range(4):
        rng = np.random.default_rng(200 + seed)
        centers = rng.standard_normal((8, 4)) * 5
        frames = {}
        scenes = []
        for s in range(8):
            refs = []
            for f in range(3):
                frames[(s, f)] = centers[s] + rng.standard_normal((10, 4))
                refs.append((s, f))
            scenes.append(SceneRecord(f"scene{s}", tuple(refs)))
        corpus = [DescriptorSet("c", v) for v in frames.values()]
        gmm = fit_gmm(corpus, 3, seed=seed)
        hcfg = HashFamilyConfig("lsh_s", "gbh", M=3, n=5, input_dim=4,
                                seed=seed)
        bundle = ModelBundle(pca=PcaModel(mean=np.zeros(4), basis=np.eye(4)),
                             gmm=gmm, bank=sample_hash_bank(hcfg))
        fcfg = FilterConfig(partitioned=True, M=3, L_p=32)
        index = build_bf_pi(scenes, bundle, fcfg,
                            lambda ref: DescriptorSet("f", frames[ref]))
        idf = compute_idf(index)
        ones = IdfWeights(index.keys, np.ones(len(index.keys)))
        for q in range(5):
            query = DescriptorSet(
                "q", frames[(q % 8, 0)] + 0.4 * rng.standard_normal((10, 4)))
            h = score_query(index, idf, ScoringConfig("hash_matches", 0.0),
                            query, bundle, top_k=8)
            t = score_query(index, ones, ScoringConfig("tfidf", 0.0),
                            query, bundle, top_k=8)
            assert [sid for sid, _ in h.ranking] == [sid for sid, _ in t.ranking]
            checked += 1
    assert checked == 20


def test_c09_average_precision_unit_values():
    assert average_precision(["a", "b", "c"], {"a"}) == pytest.approx(1.0, abs=1e-12)
    assert average_precision(["x", "a"], {"a"}) == pytest.approx(0.5, abs=1e-12)
    assert average_precision(["a", "x", "b"], {"a", "b"}) == pytest.approx(
        (1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)


def test_c10_every_format_round_trips_byte_identical():
    rng = np.random.default_rng(110)

    def check(to_bytes, from_bytes, value):
        blob = to_bytes(value)
        assert to_bytes(from_bytes(blob)) == blob

    check(storage.descriptors_to_bytes,
          lambda b: storage.descriptors_from_bytes(b, "f"),
          DescriptorSet("f", rng.standard_normal((6, 5)).astype(np.float32)))

    basis = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    check(storage.model_to_bytes, storage.model_from_bytes,
          PcaModel(mean=rng.standard_normal(4), basis=basis))
    w = rng.random(3) + 0.1
    check(storage.model_to_bytes, storage.model_from_bytes,
          DiagonalGmm(w / w.sum(), rng.standard_normal((3, 4)),
                      rng.random((3, 4)) + 0.5))

    for family in ("lsh_c", "lsh_s", "lsh_b", "vq"):
        hcfg = HashFamilyConfig(family, "gbh", M=3, n=4, input_dim=4, seed=9)
        if family == "vq":
            bank = train_vq_bank([rng.standard_normal((40, 4))
                                  for _ in range(3)], hcfg)
        else:
            bank = sample_hash_bank(hcfg)
        check(storage.bank_to_bytes, storage.bank_from_bytes, bank)

    for fcfg in (FilterConfig(partitioned=True, M=3, L_p=16),
                 FilterConfig(partitioned=False, M=3, L_np=64)):
        filters = []
        for i in range(3):
            filt = SceneFilter(f"s{i}", fcfg)
            for bit in rng.integers(0, fcfg.n_bits, size=8):
                filt.set_bit(int(bit))
            filters.append(filt)
        blob = storage.filters_to_bytes(filters, fcfg)
        loaded_cfg, loaded = storage.filters_from_bytes(blob)
        assert storage.filters_to_bytes(loaded, loaded_cfg) == blob

    frames = {(s, f): rng.standard_normal((6, 4)) * (1 + s)
              for s in range(4) for f in range(2)}
    scenes = [SceneRecord(f"scene{s}", ((s, 0), (s, 1))) for s in range(4)]
    corpus = [DescriptorSet("c", v) for v in frames.values()]
    gmm = fit_gmm(corpus, 2, seed=0)
    hcfg = HashFamilyConfig("lsh_c", "gbh", M=2, n=4, input_dim=4, seed=5)
    bundle = storage.make_bundle(PcaModel(mean=np.zeros(4), basis=np.eye(4)),
                                 gmm, sample_hash_bank(hcfg))
    index = build_bf_gd(scenes, bundle, FilterConfig(partitioned=True, M=2, L_p=16),
                        lambda ref: DescriptorSet("f", frames[ref]))
    check(storage.index_to_bytes, storage.index_from_bytes, index)

    rows = np.vstack([binarize_fv(rng.standard_normal(8)) for _ in range(5)])
    db = FvStarDatabase("shot", 2, 4, tuple(f"e{i}" for i in range(5)),
                        tuple(f"p{i % 2}" for i in range(5)), rows)
    check(storage.fvstar_to_bytes, storage.fvstar_from_bytes, db)


def test_c11_exhaustive_baseline_parity():
    rng = np.random.default_rng(111)
    bits = rng.integers(0, 2, size=(1000, 128))
    matrix = np.vstack([binarize_fv(np.where(row > 0, 1.0, -1.0))
                        for row in bits])
    db = FvStarDatabase("frame", 16, 8,
                        tuple(f"e{i}" for i in range(1000)),
                        tuple(f"scene{i % 40}" for i in range(1000)), matrix)
    q = rng.integers(0, 2, size=128)
    order, dists = hamming_rank(db, binarize_fv(np.where(q > 0, 1.0, -1.0)))
    naive = (bits != q).sum(axis=1)
    np.testing.assert_array_equal(dists, naive[order])
    assert order.tolist() == sorted(range(1000), key=lambda i: (naive[i], i))

    shot_rows = np.vstack([binarize_fv(rng.standard_normal(128))
                           for _ in range(30)])
    shot_db = FvStarDatabase("shot", 16, 8,
                             tuple(f"t{i}" for i in range(30)),
                             tuple(f"scene{i % 12}" for i in range(30)),
                             shot_rows)
    for trial in range(30):
        ranking = [f"scene{s}" for s in rng.permutation(15)]
        size = int(rng.integers(1, 16))
        words = binarize_fv(rng.standard_normal(128))
        out, flagged = rerank_shortlist(ranking, shot_db, words,
                                        shortlist_size=size)
        assert sorted(out) == sorted(ranking)
        assert out[size:] == ranking[size:]
        assert set(flagged) <= set(ranking[:size])
