import numpy as np
import pytest

from qivr.baseline import (FvStarDatabase, GRAN_SCENE, ShotRecord, binarize_fv,
                           build_frame_fv_star, build_scene_fv_star,
                           build_shot_fv_star, encode_query, hamming_rank,
                           rerank_shortlist, scenes_from_ranking, unpack_words)
from qivr.embedding import (DescriptorSet, PcaModel, apply_pca, compute_fv,
                            fit_gmm)
from qivr.errors import DimensionMismatch, EmptyInputError
from qivr.evaluation import run_fvstar_benchmark
from qivr.index import ModelBundle, SceneRecord

D = 4
K = 3


def _pack(bits):
    return binarize_fv(np.where(np.asarray(bits) > 0, 1.0, -1.0))


def _db(parents, rows, granularity="frame", n_components=2, dim=None):
    matrix = np.vstack([_pack(r) for r in rows])
    dim = dim if dim is not None else len(rows[0]) // n_components
    owners = tuple(f"e{i}" for i in range(len(rows)))
    return FvStarDatabase(granularity, n_components, dim, owners,
                          tuple(parents), matrix)


class World:
    def __init__(self, rng, n_scenes=5, frames=4, descs=12):
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
            # two shots per scene, split down the middle
            half = frames // 2
            self.shots.append(ShotRecord(f"scene{s}-a", f"scene{s}", tuple(refs[:half])))
            self.shots.append(ShotRecord(f"scene{s}-b", f"scene{s}", tuple(refs[half:])))
        corpus = [DescriptorSet(f"{k}", v) for k, v in self.frames.items()]
        self.pca = PcaModel(mean=np.zeros(D), basis=np.eye(D))
        self.gmm = fit_gmm(corpus, K, seed=0)

    def loader(self, ref):
        return DescriptorSet(f"{ref[0]}_{ref[1]}", self.frames[ref])


@pytest.fixture
def world():
    return World(np.random.default_rng(5))


# ---------------------------------------------------------- binarization

def test_binarize_signs():
    words = binarize_fv(np.array([0.5, -0.2, 0.0]))
    assert unpack_words(words, 3).tolist() == [1, 0, 1]  # zero counts as set


def test_binarize_positive_scale_invariant():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(70)
    np.testing.assert_array_equal(binarize_fv(v), binarize_fv(v * 17.0))


def test_binarize_negation_flips_nonzero_bits():
    rng = np.random.default_rng(2)
    v = rng.standard_normal(64)  # almost surely no exact zeros
    a = unpack_words(binarize_fv(v), 64)
    b = unpack_words(binarize_fv(-v), 64)
    np.testing.assert_array_equal(a, 1 - b)


def test_binarize_pads_to_word_multiples():
    assert binarize_fv(np.ones(3)).shape == (1,)
    assert binarize_fv(np.ones(64)).shape == (1,)
    assert binarize_fv(np.ones(65)).shape == (2,)


# -------------------------------------------------------------- builders

def test_scene_row_is_binarized_fv_of_frame_union(world):
    db = build_scene_fv_star(world.scenes, world.pca, world.gmm, world.loader)
    assert db.granularity == GRAN_SCENE
    assert db.owners == tuple(s.scene_id for s in world.scenes)
    scene = world.scenes[2]
    stacked = np.vstack([apply_pca(world.pca, world.loader(r)).vectors
                         for r in scene.frame_refs])
    fv = compute_fv(world.gmm, DescriptorSet("x", stacked), normalize=True)
    np.testing.assert_array_equal(db.matrix[2], binarize_fv(fv.values))


def test_single_frame_scene_equals_frame_encoding(world):
    one = [SceneRecord("solo", ((0, 0),))]
    scene_db = build_scene_fv_star(one, world.pca, world.gmm, world.loader)
    query = encode_query(world.pca, world.gmm, world.loader((0, 0)))
    np.testing.assert_array_equal(scene_db.matrix[0], query)


def test_scene_rows_ignore_frame_order(world):
    base = build_scene_fv_star(world.scenes, world.pca, world.gmm, world.loader)
    flipped = [SceneRecord(s.scene_id, s.frame_refs[::-1]) for s in world.scenes]
    again = build_scene_fv_star(flipped, world.pca, world.gmm, world.loader)
    np.testing.assert_array_equal(base.matrix, again.matrix)


def test_shot_rows_carry_parent_scenes(world):
    db = build_shot_fv_star(world.shots, world.pca, world.gmm, world.loader)
    assert db.parents == tuple(s.parent_scene for s in world.shots)
    assert db.n_entries == len(world.shots)
    assert db.n_bits == K * D


def test_frame_db_skips_empty_frames(world):
    frames = dict(world.frames)
    frames[(1, 2)] = np.zeros((0, D))

    def loader(ref):
        return DescriptorSet(f"{ref[0]}_{ref[1]}", frames[ref])

    db = build_frame_fv_star(world.scenes, world.pca, world.gmm, loader)
    assert db.skipped == 1
    assert db.n_entries == len(frames) - 1
    assert "1_2" not in db.owners


def test_scene_with_only_empty_frames_is_skipped(world):
    scenes = world.scenes + [SceneRecord("hollow", ((9, 9),))]
    frames = dict(world.frames)
    frames[(9, 9)] = np.zeros((0, D))

    def loader(ref):
        return DescriptorSet("f", frames[ref])

    db = build_scene_fv_star(scenes, world.pca, world.gmm, loader)
    assert db.skipped == 1
    assert "hollow" not in db.owners


def test_builders_reject_empty_input(world):
    with pytest.raises(EmptyInputError):
        build_scene_fv_star([], world.pca, world.gmm, world.loader)
    with pytest.raises(EmptyInputError):
        encode_query(world.pca, world.gmm, DescriptorSet("e", np.zeros((0, D))))


# --------------------------------------------------------------- ranking

def test_identical_row_ranks_first_at_zero():
    db = _db(["a", "b", "c"], [[1, 0, 1, 1], [0, 0, 0, 0], [1, 1, 1, 1]],
             n_components=2, dim=2)
    order, dists = hamming_rank(db, _pack([1, 0, 1, 1]))
    assert order[0] == 0 and dists[0] == 0


def test_complement_is_n_bits_away():
    bits = [1, 0, 1, 1, 0, 0]
    db = _db(["a"], [[1 - b for b in bits]], n_components=2, dim=3)
    _, dists = hamming_rank(db, _pack(bits))
    assert dists[0] == db.n_bits


def test_hamming_ties_break_by_ordinal():
    db = _db(["a", "b", "c"], [[1, 1, 0, 0]] * 3, n_components=2, dim=2)
    order, dists = hamming_rank(db, _pack([1, 0, 0, 0]))
    assert order.tolist() == [0, 1, 2]
    assert dists.tolist() == [1, 1, 1]


def test_hamming_matches_bit_counting_oracle():
    rng = np.random.default_rng(9)
    rows = rng.integers(0, 2, size=(100, 128))
    q = rng.integers(0, 2, size=128)
    db = _db([f"p{i}" for i in range(100)], rows, n_components=16, dim=8)
    order, dists = hamming_rank(db, _pack(q))
    want = (rows != q).sum(axis=1)
    np.testing.assert_array_equal(dists, want[order])
    assert order.tolist() == sorted(range(100), key=lambda i: (want[i], i))


def test_hamming_rank_top_k_truncates():
    rng = np.random.default_rng(10)
    rows = rng.integers(0, 2, size=(20, 64))
    db = _db([f"p{i}" for i in range(20)], rows, n_components=8, dim=8)
    full, _ = hamming_rank(db, _pack(rows[7]))
    head, _ = hamming_rank(db, _pack(rows[7]), top_k=5)
    assert head.tolist() == full[:5].tolist()


def test_hamming_rejects_width_mismatch():
    db = _db(["a"], [np.ones(128)], n_components=16, dim=8)
    with pytest.raises(DimensionMismatch):
        hamming_rank(db, np.zeros(1, dtype=np.uint64))


def test_scenes_from_ranking_keeps_first_occurrence():
    db = _db(["x", "y", "x", "z"],
             [[1, 0], [0, 1], [1, 1], [0, 0]], n_components=1, dim=2)
    order = np.array([2, 0, 1, 3])
    dists = np.array([0, 1, 1, 2])
    assert scenes_from_ranking(db, order, dists) == [("x", 0), ("y", 1), ("z", 2)]


def _collapse_oracle(db, order, dists):
    """The per-row loop scenes_from_ranking replaced."""
    seen = set()
    out = []
    for ordinal, dist in zip(order, dists):
        parent = db.parents[ordinal]
        if parent in seen:
            continue
        seen.add(parent)
        out.append((parent, int(dist)))
    return out


def _random_db(rng, granularity):
    """Few bits, so distances tie; parents repeat in no sorted order."""
    n = int(rng.integers(1, 40))
    names = [f"p{i}" for i in rng.permutation(8)]
    parents = [names[i] for i in rng.integers(0, len(names), size=n)]
    return _db(parents, rng.integers(0, 2, size=(n, 8)), granularity=granularity,
               n_components=2, dim=4)


def test_scenes_from_ranking_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        db = _random_db(rng, "frame")
        query = _pack(rng.integers(0, 2, size=8))
        top_k = int(rng.integers(0, db.n_entries + 1))
        order, dists = hamming_rank(db, query, top_k=top_k)
        assert scenes_from_ranking(db, order, dists) == _collapse_oracle(db, order, dists)


def test_parent_ordinals_number_parents_in_first_seen_order():
    db = _db(["y", "x", "y", "z", "x"], [[1, 0]] * 5, n_components=1, dim=2)
    assert db.parent_ordinals.tolist() == [0, 1, 0, 2, 1]


def test_fvstar_benchmark_keeps_scene_database_in_hamming_order(world):
    db = build_scene_fv_star(world.scenes, world.pca, world.gmm, world.loader)
    bundle = ModelBundle(pca=world.pca, gmm=world.gmm, bank=None)
    queries, truth, want = [], {}, {}
    for ref in ((0, 0), (2, 1), (4, 3)):
        query = world.loader(ref)
        order, _ = hamming_rank(db, encode_query(world.pca, world.gmm, query))
        # one query id per rank: AP against a single relevant scene is 1/rank
        for rank, ordinal in enumerate(order, start=1):
            qid = f"{ref}@{rank}"
            queries.append((qid, query))
            truth[qid] = {db.owners[ordinal]}
            want[qid] = 1.0 / rank
    report = run_fvstar_benchmark(db, bundle, queries, truth)
    assert dict(report.per_query_ap) == want


# ------------------------------------------------------------- reranking

def _rerank_oracle(ranking, shot_db, query_words, shortlist_size=100):
    """The per-row loop rerank_shortlist replaced."""
    ranking = list(ranking)
    shortlist = ranking[:shortlist_size]
    dists = (unpack_words(shot_db.matrix.ravel(), shot_db.matrix.size * 64)
             .reshape(shot_db.n_entries, -1)[:, :shot_db.n_bits]
             != unpack_words(query_words, shot_db.n_bits)).sum(axis=1)
    best = {}
    for ordinal, parent in enumerate(shot_db.parents):
        d = int(dists[ordinal])
        if parent not in best or d < best[parent]:
            best[parent] = d
    fixed = {i for i, sid in enumerate(shortlist) if sid not in best}
    movable = sorted(
        ((best[sid], i, sid) for i, sid in enumerate(shortlist) if i not in fixed))
    out = list(shortlist)
    free = (i for i in range(len(shortlist)) if i not in fixed)
    for slot, (_, _, sid) in zip(free, movable):
        out[slot] = sid
    flagged = tuple(shortlist[i] for i in sorted(fixed))
    return out + ranking[shortlist_size:], flagged


def test_rerank_matches_loop_oracle():
    rng = np.random.default_rng(12)
    for _ in range(200):
        db = _random_db(rng, "shot")
        # p0..p7 may or may not have shots; the ghosts never do
        scenes = [f"p{i}" for i in range(8)] + ["ghost0", "ghost1"]
        ranking = [scenes[i] for i in rng.permutation(len(scenes))]
        query = _pack(rng.integers(0, 2, size=8))
        size = int(rng.integers(1, len(ranking) + 2))
        assert (rerank_shortlist(ranking, db, query, size)
                == _rerank_oracle(ranking, db, query, size))



def _shot_world(rng, n_scenes=5, n_bits=64):
    rows, parents = [], []
    for s in range(n_scenes):
        for _ in range(2):
            rows.append(rng.integers(0, 2, size=n_bits))
            parents.append(f"scene{s}")
    db = _db(parents, rows, granularity="shot", n_components=8, dim=8)
    return db, np.array(rows)


def test_rerank_puts_exact_shot_scene_first():
    rng = np.random.default_rng(21)
    db, rows = _shot_world(rng)
    ranking = [f"scene{s}" for s in range(5)]
    out, flagged = rerank_shortlist(ranking, db, _pack(rows[7]))
    assert out[0] == db.parents[7] == "scene3"
    assert flagged == ()
    assert sorted(out) == sorted(ranking)


def test_rerank_orders_by_min_shot_distance_then_prior_position():
    rng = np.random.default_rng(22)
    db, rows = _shot_world(rng)
    q = rng.integers(0, 2, size=64)
    ranking = ["scene4", "scene0", "scene3", "scene1", "scene2"]
    best = {}
    for parent, row in zip(db.parents, rows):
        d = int(np.sum(row != q))
        best[parent] = min(d, best.get(parent, 10 ** 9))
    want = sorted(ranking, key=lambda sid: (best[sid], ranking.index(sid)))
    out, flagged = rerank_shortlist(ranking, db, _pack(q))
    assert out == want and flagged == ()


def test_rerank_only_touches_the_shortlist():
    rng = np.random.default_rng(23)
    db, rows = _shot_world(rng)
    q = rng.integers(0, 2, size=64)
    ranking = [f"scene{s}" for s in (3, 1, 4, 0, 2)]
    out, _ = rerank_shortlist(ranking, db, _pack(q), shortlist_size=3)
    assert out[3:] == ranking[3:]
    assert sorted(out[:3]) == sorted(ranking[:3])


def test_rerank_is_a_permutation():
    rng = np.random.default_rng(24)
    db, rows = _shot_world(rng, n_scenes=8)
    ranking = [f"scene{s}" for s in rng.permutation(8)]
    out, _ = rerank_shortlist(ranking, db, _pack(rng.integers(0, 2, size=64)),
                              shortlist_size=5)
    assert sorted(out) == sorted(ranking)
    assert len(out) == len(ranking)


def test_rerank_scene_without_shots_keeps_slot_and_is_flagged():
    rng = np.random.default_rng(25)
    db, rows = _shot_world(rng, n_scenes=3)  # scenes 0..2 have shots
    ranking = ["scene1", "ghost", "scene0", "scene2"]
    q = rows[0]  # scene0's first shot exactly
    out, flagged = rerank_shortlist(ranking, db, _pack(q))
    assert flagged == ("ghost",)
    assert out[1] == "ghost"  # held in place
    assert out[0] == "scene0"  # best shot distance 0 takes the first free slot
    assert sorted(out) == sorted(ranking)
