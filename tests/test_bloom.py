import numpy as np
import pytest

from qivr.bloom import FilterConfig, SceneFilter, bit_budget
from qivr.errors import BucketRangeError, ConfigError


def _part(M=2, L_p=8):
    return FilterConfig(partitioned=True, M=M, L_p=L_p)


def _flat(M=2, L_np=16):
    return FilterConfig(partitioned=False, M=M, L_np=L_np)


def test_config_validation():
    with pytest.raises(ConfigError):
        FilterConfig(partitioned=True, M=0, L_p=8)
    with pytest.raises(ConfigError):
        FilterConfig(partitioned=True, M=2, L_p=0)
    with pytest.raises(ConfigError):
        FilterConfig(partitioned=False, M=2, L_np=0)


def test_partitioned_insert_sets_offset_bits():
    f = SceneFilter("s", _part())
    f.insert((3, 5))
    assert sorted(f.set_bits().tolist()) == [3, 13]
    assert f.popcount == 2


def test_insert_is_idempotent():
    f = SceneFilter("s", _part())
    f.insert((3, 5))
    words = f.words.copy()
    f.insert((3, 5))
    np.testing.assert_array_equal(f.words, words)
    assert f.popcount == 2


def test_non_partitioned_collision_collapses():
    f = SceneFilter("s", _flat())
    f.insert((4, 4))
    assert f.popcount == 1
    assert f.set_bits().tolist() == [4]


def test_membership_roundtrip():
    f = SceneFilter("s", _part(M=3, L_p=32))
    assert not f.query_membership((1, 2, 3))
    f.insert((1, 2, 3))
    assert f.query_membership((1, 2, 3))


def test_fresh_filter_rejects_everything():
    f = SceneFilter("s", _flat(M=2, L_np=64))
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert not f.query_membership(tuple(rng.integers(0, 64, size=2)))


def test_saturated_filter_accepts_everything():
    cfg = _part(M=2, L_p=8)
    f = SceneFilter("s", cfg, words=np.full(1, np.uint64(0xFFFF)))
    for a in range(8):
        for b in range(8):
            assert f.query_membership((a, b))


def test_bucket_out_of_range():
    f = SceneFilter("s", _part(M=2, L_p=8))
    with pytest.raises(BucketRangeError):
        f.insert((8, 0))
    with pytest.raises(BucketRangeError):
        f.query_membership((0, -1))


def test_insert_requires_m_buckets():
    f = SceneFilter("s", _part(M=3, L_p=8))
    with pytest.raises(ConfigError):
        f.insert((1, 2))


def test_popcount_recomputed_from_words():
    cfg = _flat(M=1, L_np=128)
    src = SceneFilter("a", cfg)
    src.insert((17,))
    src.insert((90,))
    copy = SceneFilter("b", cfg, words=src.words)
    assert copy.popcount == 2
    assert copy.set_bits().tolist() == [17, 90]


def test_set_bits_matches_get_bit_scan():
    rng = np.random.default_rng(1)
    cfg = _part(M=4, L_p=50)  # deliberately not a multiple of 64
    f = SceneFilter("s", cfg)
    for _ in range(30):
        f.insert(tuple(rng.integers(0, 50, size=4)))
    want = [b for b in range(cfg.n_bits) if f.get_bit(b)]
    assert f.set_bits().tolist() == want
    assert f.popcount == len(want)


def test_popcount_monotone():
    rng = np.random.default_rng(2)
    f = SceneFilter("s", _flat(M=3, L_np=256))
    last = 0
    for _ in range(50):
        f.insert(tuple(rng.integers(0, 256, size=3)))
        assert f.popcount >= last
        last = f.popcount


def test_no_false_negatives_randomized():
    rng = np.random.default_rng(3)
    for cfg in (_part(M=4, L_p=64), _flat(M=4, L_np=256)):
        f = SceneFilter("s", cfg)
        limit = cfg.L_p if cfg.partitioned else cfg.L_np
        inserted = [tuple(rng.integers(0, limit, size=4)) for _ in range(40)]
        for t in inserted:
            f.insert(t)
        assert all(f.query_membership(t) for t in inserted)


def test_bit_budget_values():
    assert bit_budget(FilterConfig(True, M=512, L_p=2 ** 8)) == 512 * 2 ** 8
    assert bit_budget(FilterConfig(False, M=512, L_np=2 ** 17)) == 2 ** 17
    # M = 1 budgets coincide when L_p == L_np
    assert bit_budget(FilterConfig(True, M=1, L_p=77)) == \
        bit_budget(FilterConfig(False, M=1, L_np=77))


def test_false_positive_rate_tracks_fill_fraction():
    # with fill fraction p, a uniform random M-tuple tests positive with
    # probability ~ p^M (3 standard errors over 10k queries, frozen seed)
    rng = np.random.default_rng(4)
    cfg = _flat(M=4, L_np=4096)
    f = SceneFilter("s", cfg)
    target = 2048
    while f.popcount < target:
        f.set_bit(int(rng.integers(0, 4096)))
    p = f.popcount / 4096
    trials = 10000
    hits = sum(f.query_membership(tuple(rng.integers(0, 4096, size=4)))
               for _ in range(trials))
    rate, expected = hits / trials, p ** 4
    se = np.sqrt(expected * (1 - expected) / trials)
    assert abs(rate - expected) <= 3 * se


@pytest.mark.parametrize("cfg", [_part(M=3, L_p=8), _flat(M=3, L_np=16)])
def test_flat_bits_and_split_bits_invert_each_other(cfg):
    f = SceneFilter("s", cfg)
    length = cfg.L_p if cfg.partitioned else cfg.L_np
    m, bucket = np.divmod(np.arange(cfg.M * length), length)
    bits = cfg.flat_bits(m, bucket)
    assert [f.bit_index(int(a), int(b)) for a, b in zip(m, bucket)] == bits.tolist()
    back_m, back_bucket = cfg.split_bits(bits)
    assert np.array_equal(back_bucket, bucket)
    assert np.array_equal(back_m, m if cfg.partitioned else np.zeros_like(m))
