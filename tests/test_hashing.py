import numpy as np
import pytest

from qivr.errors import ConfigError, DimensionMismatch
from qivr.hashing import (FAMILY_LSH_B, FAMILY_LSH_C, FAMILY_LSH_S,
                          FAMILY_VQ, HashBank, HashFamilyConfig, buckets,
                          hash_rng, sample_hash_bank, train_vq_bank)


def _cfg(family, n=4, M=3, input_dim=6, seed=7, domain="vbh"):
    return HashFamilyConfig(family=family, domain=domain, M=M, n=n,
                            input_dim=input_dim, seed=seed)


def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg("bogus")
    with pytest.raises(ConfigError):
        HashFamilyConfig("lsh_c", "nowhere", 1, 4, 8, 0)
    with pytest.raises(ConfigError):
        _cfg(FAMILY_LSH_C, n=0)
    with pytest.raises(ConfigError):
        _cfg(FAMILY_LSH_C, n=25)
    with pytest.raises(ConfigError):
        _cfg(FAMILY_LSH_C, M=0)
    assert _cfg(FAMILY_LSH_C, n=5).n_buckets == 32


def test_streams_are_deterministic_and_distinct():
    a = hash_rng(7, 0).standard_normal(4)
    b = hash_rng(7, 0).standard_normal(4)
    c = hash_rng(7, 1).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def _bank(family, params, input_dim=None):
    """A bank with hand-set parameters: (M, n, dim) planes, (M, n)
    coordinates of `input_dim` ones, or (M, 2^n, dim) centroids."""
    params = np.asarray(params)
    n = int(np.log2(params.shape[1])) if family == FAMILY_VQ else params.shape[1]
    return HashBank(HashFamilyConfig(family, "vbh", M=params.shape[0], n=n,
                                     input_dim=input_dim or params.shape[2], seed=0), params)


def _every_hash(bank, v):
    """The bucket of one vector under each of the bank's hashes."""
    m = bank.config.M
    return buckets(bank, np.tile(v, (m, 1)), np.arange(m)).tolist()


def test_bank_deterministic_per_seed():
    cfg = _cfg(FAMILY_LSH_C)
    x = np.random.default_rng(0).standard_normal(6)
    b1, b2 = sample_hash_bank(cfg), sample_hash_bank(cfg)
    assert _every_hash(b1, x) == _every_hash(b2, x)
    other = sample_hash_bank(_cfg(FAMILY_LSH_C, seed=8))
    assert not np.array_equal(b1.params[0], other.params[0])
    # hash m's planes come from its own stream, whatever the bank's size
    for m in range(cfg.M):
        np.testing.assert_array_equal(b1.params[m], hash_rng(7, m).standard_normal((4, 6)))


def test_lsh_s_planes_are_plus_minus_one():
    bank = sample_hash_bank(_cfg(FAMILY_LSH_S))
    assert bank.params.shape == (3, 4, 6)
    assert set(np.unique(bank.params)) <= {-1.0, 1.0}


def test_lsh_b_indices_in_range():
    bank = sample_hash_bank(_cfg(FAMILY_LSH_B, input_dim=5))
    assert bank.params.shape == (3, 4)
    assert np.all((0 <= bank.params) & (bank.params < 5))


def test_little_endian_bit_packing():
    # identity planes: bit i is the sign of coordinate i, weighted 2^i
    bank = _bank(FAMILY_LSH_C, [np.eye(3)])
    rows = [[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, 1.0, 1.0]]
    assert buckets(bank, rows, [0, 0, 0]).tolist() == [0b101, 0b010, 7]


def test_zero_projection_counts_as_positive():
    bank = _bank(FAMILY_LSH_C, [np.eye(2)])
    assert buckets(bank, [[0.0, -1.0]], [0]).tolist() == [1]


def test_bit_sample_hash_example():
    bank = _bank(FAMILY_LSH_B, [[0, 1]], input_dim=3)
    # signs (+, -) -> bits (1, 0) -> bucket 1
    assert buckets(bank, [[2.0, -5.0, 9.0]], [0]).tolist() == [1]


def test_hyperplane_buckets_scale_invariant():
    rng = np.random.default_rng(1)
    for family in (FAMILY_LSH_C, FAMILY_LSH_S, FAMILY_LSH_B):
        bank = sample_hash_bank(_cfg(family))
        v = rng.standard_normal(6)
        assert _every_hash(bank, v) == _every_hash(bank, 3.5 * v)


def test_buckets_stay_in_range():
    rng = np.random.default_rng(2)
    vs = rng.standard_normal((200, 6)) * 10
    for family in (FAMILY_LSH_C, FAMILY_LSH_S, FAMILY_LSH_B):
        cfg = _cfg(family, n=3)
        got = buckets(sample_hash_bank(cfg), vs, rng.integers(0, cfg.M, size=200))
        assert np.all((0 <= got) & (got < cfg.n_buckets))


def test_dimension_mismatch_raises():
    bank = sample_hash_bank(_cfg(FAMILY_LSH_C, input_dim=6))
    with pytest.raises(DimensionMismatch):
        buckets(bank, np.zeros((1, 5)), [0])
    with pytest.raises(DimensionMismatch):
        buckets(bank, np.zeros((2, 6)), [0])
    with pytest.raises(DimensionMismatch):
        buckets(bank, np.zeros((2, 6)), [0, 3])  # the bank holds hashes 0, 1 and 2
    with pytest.raises(DimensionMismatch):
        HashBank(bank.config, bank.params[:2])


def _trained_vq_bank():
    rng = np.random.default_rng(13)
    cfg = _cfg(FAMILY_VQ, n=5, M=3, input_dim=6)
    return train_vq_bank([rng.standard_normal((40, 6)) for _ in range(3)], cfg)


@pytest.mark.parametrize("family", [FAMILY_LSH_C, FAMILY_LSH_S, FAMILY_LSH_B, FAMILY_VQ])
def test_batch_buckets_equal_rows_alone(family):
    # a build hashes every frame in one call; each row must land where it
    # would alone, whichever rows and hashes share its batch
    bank = _trained_vq_bank() if family == FAMILY_VQ else sample_hash_bank(_cfg(family))
    rng = np.random.default_rng(14)
    rows = rng.standard_normal((300, 6))
    # rows on centroids, or with every projection zero
    rows[:3] = bank.params[1, :3] if family == FAMILY_VQ else 0.0
    hash_ids = rng.integers(0, bank.config.M, size=300)
    hash_ids[:3] = 1
    alone = [buckets(bank, row[None, :], [m])[0] for row, m in zip(rows, hash_ids)]
    assert buckets(bank, rows, hash_ids).tolist() == alone


# ------------------------------------------------------------------- VQ

def test_vq_nearest_and_tiebreak():
    bank = _bank(FAMILY_VQ, [[[0.0], [2.0], [10.0], [30.0]]])
    assert buckets(bank, [[9.0]], [0]).tolist() == [2]
    assert buckets(bank, [[1.0]], [0]).tolist() == [0]  # equidistant to centroids 0 and 1


def test_vq_idempotence():
    rng = np.random.default_rng(3)
    centroids = rng.standard_normal((8, 4)) * 3
    bank = _bank(FAMILY_VQ, [centroids])
    assert buckets(bank, centroids, np.zeros(8, dtype=int)).tolist() == list(range(8))


def test_vq_bank_requires_training():
    with pytest.raises(ConfigError):
        sample_hash_bank(_cfg(FAMILY_VQ))
    with pytest.raises(ConfigError):
        train_vq_bank(np.zeros((10, 6)), _cfg(FAMILY_LSH_C))


def test_vq_training_recovers_planted_centers():
    rng = np.random.default_rng(4)
    centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0], [8.0, 8.0]])
    pool = np.vstack([c + 0.2 * rng.standard_normal((60, 2)) for c in centers])
    cfg = HashFamilyConfig(FAMILY_VQ, "vbh", M=1, n=2, input_dim=2, seed=5)
    bank = train_vq_bank(pool, cfg)
    assert bank.report.clean
    got = bank.params[0]
    for c in centers:
        assert np.min(np.linalg.norm(got - c, axis=1)) < 0.3


def test_vq_pool_equal_to_centroid_count_is_fixed_point():
    rng = np.random.default_rng(5)
    pool = rng.standard_normal((8, 3))
    cfg = HashFamilyConfig(FAMILY_VQ, "vbh", M=1, n=3, input_dim=3, seed=6)
    bank = train_vq_bank(pool, cfg)
    got = np.sort(bank.params[0].round(12), axis=0)
    want = np.sort(pool.round(12), axis=0)
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_vq_fallback_reported_for_small_pools():
    cfg = HashFamilyConfig(FAMILY_VQ, "gbh", M=2, n=4, input_dim=2, seed=7)
    pools = [np.random.default_rng(8).standard_normal((3, 2)),
             np.random.default_rng(9).standard_normal((40, 2))]
    bank = train_vq_bank(pools, cfg)
    assert not bank.report.clean
    assert bank.report.fallbacks == ((0, 3),)
    assert bank.params[0].shape == (16, 2)


def test_vq_empty_pool_still_yields_centroids():
    cfg = HashFamilyConfig(FAMILY_VQ, "gbh", M=1, n=3, input_dim=2, seed=10)
    bank = train_vq_bank([np.zeros((0, 2))], cfg)
    assert bank.params[0].shape == (8, 2)
    assert bank.report.fallbacks == ((0, 0),)


def test_vq_pool_count_must_match_m():
    cfg = HashFamilyConfig(FAMILY_VQ, "gbh", M=3, n=2, input_dim=2, seed=11)
    with pytest.raises(ConfigError):
        train_vq_bank([np.zeros((5, 2))] * 2, cfg)


# ---------------------------------------------------------------- stats

def test_lshc_single_bit_collision_rate_at_60_degrees():
    rng = np.random.default_rng(12)
    pairs = 12000
    theta = np.pi / 3
    u = rng.standard_normal((pairs, 16))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    w = rng.standard_normal((pairs, 16))
    w -= np.sum(w * u, axis=1, keepdims=True) * u
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    v = np.cos(theta) * u + np.sin(theta) * w
    planes = rng.standard_normal((pairs, 16))
    collide = (np.sum(planes * u, axis=1) >= 0) == (np.sum(planes * v, axis=1) >= 0)
    assert abs(collide.mean() - (1 - theta / np.pi)) < 0.02
