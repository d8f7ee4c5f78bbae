import dataclasses
import math

import numpy as np
import pytest

from qivr.bloom import FilterConfig, SceneFilter
from qivr.embedding import (DescriptorSet, DiagonalGmm, PcaModel, compute_fv,
                            fit_gmm, point_index_batch)
from qivr.errors import (ConfigError, EmptyInputError, FingerprintMismatch)
from qivr.hashing import HashFamilyConfig, sample_hash_bank, train_vq_bank
from qivr.index import (InvertedIndex, ModelBundle, PIPELINE_BF_GD,
                        PIPELINE_BF_PI, SceneRecord, ScoringConfig,
                        build_bf_gd, build_bf_pi, compute_idf, hash_inputs,
                        materialize_filters, query_bits, rank_ties,
                        score_query)
from qivr.pipeline import RunConfig, vq_pools

D = 4
K = 3


def _identity_pca(d=D):
    return PcaModel(mean=np.zeros(d), basis=np.eye(d))


class World:
    """In-memory scenes with a loader, plus trained models."""

    def __init__(self, rng, n_scenes=6, frames=3, descs=12, family="lsh_c",
                 partitioned=True, n_bits=5):
        self.rng = rng
        centers = rng.standard_normal((n_scenes, D)) * 6
        self.frames = {}
        self.scenes = []
        for s in range(n_scenes):
            refs = []
            for f in range(frames):
                vecs = centers[s] + rng.standard_normal((descs, D))
                self.frames[(s, f)] = vecs
                refs.append((s, f))
            self.scenes.append(SceneRecord(f"scene{s}", tuple(refs)))
        corpus = [DescriptorSet(f"{k}", v) for k, v in self.frames.items()]
        pca = _identity_pca()
        gmm = fit_gmm(corpus, K, seed=0)
        hcfg = HashFamilyConfig(family=family, domain="gbh", M=K, n=n_bits,
                                input_dim=D, seed=1)
        if family == "vq":
            pooled = np.vstack(list(self.frames.values()))
            comp, _, residuals = point_index_batch(gmm, pooled)
            bank = train_vq_bank([residuals[comp == r] for r in range(K)], hcfg)
        else:
            bank = sample_hash_bank(hcfg)
        self.bundle = ModelBundle(pca=pca, gmm=gmm, bank=bank)
        if partitioned:
            self.fcfg = FilterConfig(partitioned=True, M=K, L_p=1 << n_bits)
        else:
            self.fcfg = FilterConfig(partitioned=False, M=K, L_np=1 << n_bits)

    def loader(self, ref):
        return DescriptorSet(f"{ref[0]}_{ref[1]}", self.frames[ref])

    def build(self, pipeline):
        builder = build_bf_gd if pipeline == PIPELINE_BF_GD else build_bf_pi
        return builder(self.scenes, self.bundle, self.fcfg, self.loader)

    def query(self, scene=0, frame=0, noise=0.0):
        vecs = self.frames[(scene, frame)]
        if noise:
            vecs = vecs + noise * self.rng.standard_normal(vecs.shape)
        return DescriptorSet("q", vecs)


@pytest.fixture
def world():
    return World(np.random.default_rng(42))


def _dense_scores(index, idf, scoring, probes):
    """Walk every scene's full bit array; the brute-force reference."""
    filters = materialize_filters(index)
    out = np.zeros(len(filters))
    for v, filt in enumerate(filters):
        acc = 0.0
        for bit in probes:
            if filt.get_bit(int(bit)):
                if scoring.mode == "hash_matches":
                    acc += 1.0
                else:
                    acc += idf.weight_of(int(bit)) ** 2
        if scoring.mode == "tfidf":
            denom = sum(idf.weight_of(int(b)) ** 2 for b in filt.set_bits())
            acc /= (denom if denom > 0 else 1.0) ** scoring.alpha
        out[v] = acc
    return out


# ------------------------------------------------------------- building

def test_bf_gd_sets_at_most_m_bits_per_frame(world):
    single = [SceneRecord("only", ((0, 0),))]
    index = build_bf_gd(single, world.bundle, world.fcfg, world.loader)
    assert index.per_scene_setbits[0] <= K
    assert index.stats.frames == 1


def test_duplicate_frame_changes_nothing(world):
    base = world.build(PIPELINE_BF_GD)
    doubled = [SceneRecord(s.scene_id, s.frame_refs + s.frame_refs[:1])
               for s in world.scenes]
    again = build_bf_gd(doubled, world.bundle, world.fcfg, world.loader)
    np.testing.assert_array_equal(base.keys, again.keys)
    np.testing.assert_array_equal(base.ordinals, again.ordinals)


def test_frame_order_is_irrelevant(world):
    base = world.build(PIPELINE_BF_GD)
    flipped = [SceneRecord(s.scene_id, s.frame_refs[::-1]) for s in world.scenes]
    again = build_bf_gd(flipped, world.bundle, world.fcfg, world.loader)
    np.testing.assert_array_equal(base.keys, again.keys)
    np.testing.assert_array_equal(base.ordinals, again.ordinals)


def test_bf_pi_single_descriptor_single_posting(world):
    frames = {(0, 0): world.frames[(0, 0)][:1]}
    scenes = [SceneRecord("one", ((0, 0),))]
    index = build_bf_pi(scenes, world.bundle, world.fcfg,
                        lambda ref: DescriptorSet("f", frames[ref]))
    assert len(index.keys) == 1
    assert index.per_scene_setbits.tolist() == [1]


def test_bf_pi_identical_descriptors_collapse(world):
    vecs = np.tile(world.frames[(0, 0)][:1], (5, 1))
    scenes = [SceneRecord("one", ((0, 0),))]
    index = build_bf_pi(scenes, world.bundle, world.fcfg,
                        lambda ref: DescriptorSet("f", vecs))
    assert index.per_scene_setbits.tolist() == [1]


def test_bf_pi_separated_components_stay_in_partition():
    gmm = DiagonalGmm(np.array([0.5, 0.5]),
                      np.array([[0.0] * D, [60.0] * D]),
                      np.ones((2, D)))
    hcfg = HashFamilyConfig("lsh_c", "gbh", M=2, n=4, input_dim=D, seed=3)
    bundle = ModelBundle(pca=_identity_pca(), gmm=gmm, bank=sample_hash_bank(hcfg))
    fcfg = FilterConfig(partitioned=True, M=2, L_p=16)
    rng = np.random.default_rng(4)
    vecs = rng.standard_normal((20, D))  # all near component 0
    scenes = [SceneRecord("s", ((0, 0),))]
    index = build_bf_pi(scenes, bundle, fcfg, lambda ref: DescriptorSet("f", vecs))
    assert np.all(index.keys < 16)  # partition 0 only


def test_build_rejects_bad_inputs(world):
    with pytest.raises(EmptyInputError):
        build_bf_gd([], world.bundle, world.fcfg, world.loader)
    dupes = [world.scenes[0], world.scenes[0]]
    with pytest.raises(ConfigError):
        build_bf_gd(dupes, world.bundle, world.fcfg, world.loader)
    vbh_cfg = HashFamilyConfig("lsh_c", "vbh", M=K, n=5, input_dim=K * D, seed=1)
    vbh_bundle = dataclasses.replace(world.bundle, bank=sample_hash_bank(vbh_cfg))
    with pytest.raises(ConfigError):
        build_bf_pi(world.scenes, vbh_bundle, world.fcfg, world.loader)
    bad_m = FilterConfig(partitioned=True, M=K + 1, L_p=32)
    with pytest.raises(ConfigError):
        build_bf_gd(world.scenes, world.bundle, bad_m, world.loader)
    small = FilterConfig(partitioned=True, M=K, L_p=8)  # 2^5 buckets cannot fit
    with pytest.raises(ConfigError):
        build_bf_gd(world.scenes, world.bundle, small, world.loader)


def test_empty_frames_are_skipped_and_counted(world):
    frames = dict(world.frames)
    frames[(0, 1)] = np.zeros((0, D))
    scenes = world.scenes

    def loader(ref):
        return DescriptorSet("f", frames[ref])

    index = build_bf_gd(scenes, world.bundle, world.fcfg, loader)
    assert index.stats.skipped_empty_frames == 1
    assert index.stats.frames == len(frames) - 1


# the three ways frames become hash inputs: (pipeline, hash domain)
HASH_INPUT_CASES = [(PIPELINE_BF_PI, "gbh"), (PIPELINE_BF_GD, "gbh"), (PIPELINE_BF_GD, "vbh")]


def _hash_setup(rng, pipeline, domain, k, d, family="lsh_c", n=4):
    """A random GMM, a hash config for (pipeline, domain) and frames of
    1 to 30 descriptors, two of them single-descriptor frames."""
    w = rng.random(k) + 0.1
    gmm = DiagonalGmm(w / w.sum(), rng.standard_normal((k, d)) * 3,
                      rng.random((k, d)) + 0.5)
    m = k if domain == "gbh" else k + 2
    hcfg = HashFamilyConfig(family, domain, M=m, n=n,
                            input_dim=d if domain == "gbh" else k * d, seed=1)
    frames = [DescriptorSet(f"f{i}", rng.standard_normal((size, d)) * 3)
              for i, size in enumerate([1, 7, 1, 30, 2])]
    return gmm, hcfg, frames


def _one_frame_inputs(pipeline, hcfg, gmm, frame):
    """A single frame's (hash ids, rows) by the per-frame formulas."""
    if pipeline == PIPELINE_BF_PI:
        comp, _, residuals = point_index_batch(gmm, frame.vectors)
        return comp, residuals
    fv = compute_fv(gmm, frame, normalize=True).values
    rows = np.tile(fv, (hcfg.M, 1)) if hcfg.domain == "vbh" else fv.reshape(gmm.n_components, -1)
    return np.arange(hcfg.M), rows


@pytest.mark.parametrize("pipeline, domain", HASH_INPUT_CASES)
@pytest.mark.parametrize("k, d", [(3, 4), (4, 1)])
def test_hash_inputs_of_many_frames_concatenate_single_frames(pipeline, domain, k, d):
    rng = np.random.default_rng(10 * k + d)
    gmm, hcfg, frames = _hash_setup(rng, pipeline, domain, k, d)
    ids, rows, per_frame = hash_inputs(pipeline, hcfg, gmm, frames)
    singles = [_one_frame_inputs(pipeline, hcfg, gmm, f) for f in frames]
    assert np.array_equal(ids, np.concatenate([i for i, _ in singles]))
    assert np.array_equal(rows, np.concatenate([r for _, r in singles]))
    assert np.array_equal(per_frame, [len(i) for i, _ in singles])
    for frame, (one_ids, one_rows) in zip(frames, singles):
        got_ids, got_rows, got_n = hash_inputs(pipeline, hcfg, gmm, [frame])
        assert np.array_equal(got_ids, one_ids) and np.array_equal(got_rows, one_rows)
        assert np.array_equal(got_n, [len(one_ids)])
    # no frames, no rows, each array of its usual shape
    ids, rows, per_frame = hash_inputs(pipeline, hcfg, gmm, [])
    assert ids.shape == (0,) and rows.shape == (0, hcfg.input_dim) and per_frame.shape == (0,)


def _vq_pools_oracle(cfg, projected, gmm):
    """The per-pipeline pool formula `vq_pools` replaced, one pool per hash."""
    if cfg.pipeline == PIPELINE_BF_PI:
        comp, _, residuals = point_index_batch(
            gmm, np.vstack([dset.vectors for dset in projected]))
        return [residuals[comp == r] for r in range(cfg.K)]
    fvs = np.array([compute_fv(gmm, dset, normalize=True).values for dset in projected])
    if cfg.domain == "vbh":
        return [fvs] * cfg.M  # one shared pool, as train_vq_bank spreads it
    return list(fvs.reshape(len(projected), cfg.K, cfg.d).swapaxes(0, 1))


@pytest.mark.parametrize("pipeline, domain", HASH_INPUT_CASES)
def test_vq_pools_match_the_per_pipeline_formula(pipeline, domain):
    rng = np.random.default_rng(5)
    gmm, hcfg, frames = _hash_setup(rng, pipeline, domain, 3, 2, family="vq", n=2)
    cfg = RunConfig(pipeline=pipeline, family="vq", domain=domain, M=hcfg.M, n=hcfg.n,
                    K=3, d=2, seed=hcfg.seed)
    got, want = vq_pools(cfg, frames, gmm), _vq_pools_oracle(cfg, frames, gmm)
    assert len(got) == len(want) == cfg.M
    for pool, expected in zip(got, want):
        assert np.array_equal(pool, expected)
    assert np.array_equal(train_vq_bank(got, hcfg).params, train_vq_bank(want, hcfg).params)


@pytest.mark.parametrize("pipeline, domain", HASH_INPUT_CASES)
def test_build_of_only_empty_frames_has_no_keys(world, pipeline, domain):
    bundle = world.bundle
    if domain == "vbh":
        vbh = HashFamilyConfig("lsh_c", "vbh", M=K, n=5, input_dim=K * D, seed=1)
        bundle = dataclasses.replace(bundle, bank=sample_hash_bank(vbh))
    build = build_bf_pi if pipeline == PIPELINE_BF_PI else build_bf_gd
    index = build(world.scenes, bundle, world.fcfg,
                  lambda ref: DescriptorSet("f", np.zeros((0, D))))
    assert len(index.keys) == 0 and len(index.ordinals) == 0
    assert index.stats.skipped_empty_frames == sum(len(s.frame_refs) for s in world.scenes)
    assert index.stats.frames == 0 and index.stats.descriptors == 0


# ------------------------------------------------------------------ IDF

def _tiny_index(v, df_map):
    """Hand-built index: df_map maps flat bit -> number of scenes holding it."""
    keys = np.array(sorted(df_map), dtype=np.int64)
    lists = [np.arange(df_map[k], dtype=np.int32) for k in keys]
    offsets = np.zeros(len(keys) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([len(l) for l in lists])
    return InvertedIndex(
        pipeline=PIPELINE_BF_GD,
        filter_config=FilterConfig(partitioned=True, M=1, L_p=1024),
        hash_config=HashFamilyConfig("lsh_c", "gbh", M=1, n=10, input_dim=2, seed=0),
        scene_ids=tuple(f"s{i}" for i in range(v)),
        keys=keys, offsets=offsets,
        ordinals=np.concatenate(lists) if lists else np.empty(0, dtype=np.int32))


def test_idf_bucket_in_every_scene_weighs_one():
    index = _tiny_index(7, {5: 7})
    idf = compute_idf(index)
    assert idf.weight_of(5) == pytest.approx(1.0, abs=1e-12)


def test_idf_rare_bucket_value():
    index = _tiny_index(99, {3: 1})
    idf = compute_idf(index)
    assert idf.weight_of(3) == pytest.approx(math.log(50.0) + 1.0, abs=1e-12)


def test_idf_unobserved_bucket_is_zero():
    index = _tiny_index(5, {2: 3})
    idf = compute_idf(index)
    assert idf.weight_of(77) == 0.0


def test_scene_sq_norm_accumulates_weight_squares():
    index = _tiny_index(4, {0: 4, 1: 2})
    compute_idf(index)
    w0 = math.log(5 / 5) + 1
    w1 = math.log(5 / 3) + 1
    # scenes 0 and 1 hold both bits, scenes 2 and 3 only bit 0
    np.testing.assert_allclose(
        index.scene_sq_norm,
        [w0 ** 2 + w1 ** 2, w0 ** 2 + w1 ** 2, w0 ** 2, w0 ** 2], rtol=1e-12)


# --------------------------------------------------------------- scoring

def test_planted_query_scores_m_hash_matches(world):
    index = world.build(PIPELINE_BF_GD)
    idf = compute_idf(index)
    result = score_query(index, idf, ScoringConfig("hash_matches", 0.0),
                         world.query(scene=2), world.bundle, top_k=1)
    sid, score = result.ranking[0]
    assert sid == "scene2"
    assert score == K  # every probe hits the planted scene


def test_tfidf_alpha_zero_is_sum_of_matched_squares(world):
    index = world.build(PIPELINE_BF_GD)
    idf = compute_idf(index)
    query = world.query(scene=1)
    probes = query_bits(index, world.bundle, query)
    filters = {f.scene_id: f for f in materialize_filters(index)}
    want = sum(idf.weight_of(int(b)) ** 2
               for b in probes if filters["scene1"].get_bit(int(b)))
    result = score_query(index, idf, ScoringConfig("tfidf", 0.0), query,
                         world.bundle, top_k=len(world.scenes))
    got = dict(result.ranking)["scene1"]
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("pipeline", [PIPELINE_BF_GD, PIPELINE_BF_PI])
@pytest.mark.parametrize("mode,alpha", [("hash_matches", 0.0), ("tfidf", 0.5)])
def test_scores_match_dense_oracle(world, pipeline, mode, alpha):
    index = world.build(pipeline)
    idf = compute_idf(index)
    scoring = ScoringConfig(mode, alpha)
    for qs in range(3):
        query = world.query(scene=qs, noise=0.3)
        probes = query_bits(index, world.bundle, query)
        want = _dense_scores(index, idf, scoring, probes)
        result = score_query(index, idf, scoring, query, world.bundle,
                             top_k=len(world.scenes))
        got = np.array([dict(result.ranking)[sid] for sid in index.scene_ids])
        if mode == "hash_matches":
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-9)


def test_non_partitioned_scoring_matches_oracle():
    world = World(np.random.default_rng(7), partitioned=False, n_bits=9)
    index = world.build(PIPELINE_BF_PI)
    idf = compute_idf(index)
    scoring = ScoringConfig("tfidf", 0.5)
    query = world.query(scene=3, noise=0.2)
    probes = query_bits(index, world.bundle, query)
    want = _dense_scores(index, idf, scoring, probes)
    result = score_query(index, idf, scoring, query, world.bundle,
                         top_k=len(world.scenes))
    got = np.array([dict(result.ranking)[sid] for sid in index.scene_ids])
    np.testing.assert_allclose(got, want, rtol=1e-9)


def test_idf_neutrality_reproduces_hash_ranking(world):
    from qivr.index import IdfWeights
    index = world.build(PIPELINE_BF_PI)
    idf = compute_idf(index)
    ones = IdfWeights(index.keys, np.ones(len(index.keys)))
    for qs in range(4):
        query = world.query(scene=qs, noise=0.4)
        h = score_query(index, idf, ScoringConfig("hash_matches", 0.0), query,
                        world.bundle, top_k=len(world.scenes))
        t = score_query(index, ones, ScoringConfig("tfidf", 0.0), query,
                        world.bundle, top_k=len(world.scenes))
        assert [sid for sid, _ in h.ranking] == [sid for sid, _ in t.ranking]


def test_scores_non_increasing(world):
    index = world.build(PIPELINE_BF_GD)
    idf = compute_idf(index)
    result = score_query(index, idf, ScoringConfig("tfidf", 0.5),
                         world.query(noise=0.5), world.bundle,
                         top_k=len(world.scenes))
    scores = [s for _, s in result.ranking]
    assert scores == sorted(scores, reverse=True)


def test_score_query_rejects_bad_inputs(world):
    index = world.build(PIPELINE_BF_GD)
    idf = compute_idf(index)
    with pytest.raises(EmptyInputError):
        score_query(index, idf, ScoringConfig("tfidf", 0.5),
                    DescriptorSet("e", np.zeros((0, D))), world.bundle, 5)
    other = dataclasses.replace(world.bundle, digests=(b"\x01" * 32,) * 3)
    with pytest.raises(FingerprintMismatch):
        score_query(index, idf, ScoringConfig("tfidf", 0.5), world.query(),
                    other, 5)


def test_scoring_config_validates_mode():
    with pytest.raises(ConfigError):
        ScoringConfig("cosine", 0.5)


# ------------------------------------------------------------ rank_ties

def test_rank_ties_all_equal_gives_ordinal_order():
    assert rank_ties(np.ones(5)).tolist() == [0, 1, 2, 3, 4]


def test_rank_ties_decreasing_unchanged():
    assert rank_ties(np.array([9.0, 5.0, 1.0])).tolist() == [0, 1, 2]


def test_rank_ties_matches_sort_oracle():
    rng = np.random.default_rng(11)
    scores = rng.integers(0, 4, size=40).astype(float)
    want = sorted(range(40), key=lambda v: (-scores[v], v))
    assert rank_ties(scores).tolist() == want


# ----------------------------------------------------------- consistency

@pytest.mark.parametrize("pipeline", [PIPELINE_BF_GD, PIPELINE_BF_PI])
def test_materialized_filters_match_rebuilt_filters(world, pipeline):
    index = world.build(pipeline)
    rebuilt = []
    for scene in world.scenes:
        filt = SceneFilter(scene.scene_id, world.fcfg)
        for ref in scene.frame_refs:
            for bit in query_bits(index, world.bundle, world.loader(ref)):
                filt.set_bit(int(bit))
        rebuilt.append(filt)
    materialized = materialize_filters(index)
    for a, b in zip(materialized, rebuilt):
        assert a.scene_id == b.scene_id
        np.testing.assert_array_equal(a.words, b.words)
    np.testing.assert_array_equal(index.per_scene_setbits,
                                  [f.popcount for f in rebuilt])
