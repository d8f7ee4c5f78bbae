import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qivr import storage
from qivr.baseline import FvStarDatabase, ShotRecord, binarize_fv
from qivr.bloom import FilterConfig, SceneFilter
from qivr.embedding import DescriptorSet, DiagonalGmm, PcaModel
from qivr.errors import FormatError
from qivr.hashing import (HashBank, HashFamilyConfig, buckets, sample_hash_bank,
                          train_vq_bank)
from qivr.index import (PIPELINE_BF_GD, PIPELINE_BF_PI, InvertedIndex,
                        compute_idf)

RNG = np.random.default_rng(31)


def _pca(d=4):
    basis = np.linalg.qr(RNG.standard_normal((d, d)))[0]
    return PcaModel(mean=RNG.standard_normal(d), basis=basis)


def _gmm(k=3, d=4):
    w = RNG.random(k) + 0.1
    return DiagonalGmm(w / w.sum(), RNG.standard_normal((k, d)),
                       RNG.random((k, d)) + 0.5)


def _bank(family, seed=7):
    cfg = HashFamilyConfig(family, "gbh", M=3, n=4, input_dim=4, seed=seed)
    if family == "vq":
        pools = [RNG.standard_normal((40, 4)) for _ in range(3)]
        return train_vq_bank(pools, cfg)
    return sample_hash_bank(cfg)


def _roundtrip(to_bytes, from_bytes, value):
    blob = to_bytes(value)
    again = to_bytes(from_bytes(blob))
    assert blob == again
    return from_bytes(blob)


# -------------------------------------------------------- binary formats

def test_descriptor_round_trip():
    dset = DescriptorSet("f1", RNG.standard_normal((6, 5)).astype(np.float32))
    out = _roundtrip(storage.descriptors_to_bytes,
                     lambda b: storage.descriptors_from_bytes(b, "f1"), dset)
    np.testing.assert_array_equal(out.vectors, dset.vectors.astype(np.float64))


def test_empty_descriptor_round_trip():
    dset = DescriptorSet("none", np.zeros((0, 3)))
    out = _roundtrip(storage.descriptors_to_bytes,
                     lambda b: storage.descriptors_from_bytes(b, "none"), dset)
    assert out.n == 0 and out.dim == 3


def test_pca_round_trip():
    model = _pca()
    out = _roundtrip(storage.model_to_bytes, storage.model_from_bytes, model)
    assert isinstance(out, PcaModel)
    assert out.mean.dtype == np.float64


def test_gmm_round_trip():
    model = _gmm()
    out = _roundtrip(storage.model_to_bytes, storage.model_from_bytes, model)
    assert isinstance(out, DiagonalGmm)
    np.testing.assert_array_equal(out.weights,
                                  model.weights.astype(np.float32).astype(np.float64))


@pytest.mark.parametrize("family", ["lsh_c", "lsh_s", "lsh_b", "vq"])
def test_bank_round_trip(family):
    bank = _bank(family)
    out = _roundtrip(storage.bank_to_bytes, storage.bank_from_bytes, bank)
    assert out.config == bank.config
    want = bank.params if bank.config.family == "lsh_b" else bank.params.astype(np.float32)
    np.testing.assert_array_equal(out.params, want)
    # hashes behave identically after the round trip
    x = RNG.standard_normal((6, 4))
    hash_ids = np.arange(6) % 3
    np.testing.assert_array_equal(buckets(out, x, hash_ids), buckets(bank, x, hash_ids))


@pytest.mark.parametrize("family", ["lsh_c", "lsh_b", "vq"])
def test_bank_layout_matches_format(family):
    # the QIVH layout written out field by field: the header, then M blocks
    # in hash order, each row-major
    cfg = HashFamilyConfig(family, "gbh", M=2, n=2, input_dim=3, seed=5)
    if family == "lsh_b":
        blocks = [[2, 0], [1, 1]]
        fmt, code = "<2I", 2
    else:
        rows = 4 if family == "vq" else 2
        blocks = [[0.5 * (m + 1) * (i - j) for i in range(rows) for j in range(3)]
                  for m in range(2)]
        fmt, code = f"<{rows * 3}f", 3 if family == "vq" else 0
    bank = HashBank(cfg, np.array(blocks).reshape(cfg.param_shape))

    want = b"QIVH" + struct.pack("<I", 1)
    want += struct.pack("<BBIBIQ", code, 1, 2, 2, 3, 5)  # family, gbh, M, n, dim, seed
    for block in blocks:
        want += struct.pack(fmt, *block)

    assert storage.bank_to_bytes(bank) == want
    np.testing.assert_array_equal(storage.bank_from_bytes(want).params, bank.params)


@pytest.mark.parametrize("partitioned", [True, False])
def test_filters_round_trip(partitioned):
    if partitioned:
        cfg = FilterConfig(partitioned=True, M=3, L_p=16)
    else:
        cfg = FilterConfig(partitioned=False, M=3, L_np=64)
    filters = []
    for i in range(4):
        f = SceneFilter(f"s{i}", cfg)
        for bit in RNG.integers(0, cfg.n_bits, size=10):
            f.set_bit(int(bit))
        filters.append(f)
    blob = storage.filters_to_bytes(filters, cfg)
    loaded_cfg, loaded = storage.filters_from_bytes(blob)
    assert loaded_cfg == cfg
    assert storage.filters_to_bytes(loaded, loaded_cfg) == blob
    for a, b in zip(loaded, filters):
        assert a.scene_id == b.scene_id
        np.testing.assert_array_equal(a.words, b.words)
        assert a.popcount == b.popcount


def test_filters_reject_mixed_configs():
    a = SceneFilter("a", FilterConfig(partitioned=True, M=3, L_p=16))
    b = SceneFilter("b", FilterConfig(partitioned=True, M=3, L_p=32))
    with pytest.raises(FormatError):
        storage.filters_to_bytes([a, b], a.config)


def _toy_index(pipeline=PIPELINE_BF_GD, partitioned=True):
    if partitioned:
        fcfg = FilterConfig(partitioned=True, M=3, L_p=16)
        nbits = 48
    else:
        fcfg = FilterConfig(partitioned=False, M=3, L_np=64)
        nbits = 64
    hcfg = HashFamilyConfig("lsh_s", "gbh", M=3, n=4 if partitioned else 6,
                            input_dim=4, seed=2)
    keys = np.sort(RNG.choice(nbits, size=9, replace=False)).astype(np.int64)
    lists = [np.sort(RNG.choice(5, size=int(RNG.integers(1, 4)), replace=False))
             for _ in keys]
    offsets = np.zeros(len(keys) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([len(l) for l in lists])
    index = InvertedIndex(
        pipeline=pipeline, filter_config=fcfg, hash_config=hcfg,
        scene_ids=tuple(f"scene{i}" for i in range(5)),
        keys=keys, offsets=offsets,
        ordinals=np.concatenate(lists).astype(np.int32),
        fingerprints=(bytes(range(32)), bytes(32), b"\xff" * 32))
    compute_idf(index)
    return index


@pytest.mark.parametrize("pipeline", [PIPELINE_BF_GD, PIPELINE_BF_PI])
@pytest.mark.parametrize("partitioned", [True, False])
def test_index_round_trip(pipeline, partitioned):
    index = _toy_index(pipeline, partitioned)
    blob = storage.index_to_bytes(index)
    loaded = storage.index_from_bytes(blob)
    assert storage.index_to_bytes(loaded) == blob
    assert loaded.pipeline == index.pipeline
    assert loaded.scene_ids == index.scene_ids
    assert loaded.fingerprints == index.fingerprints
    np.testing.assert_array_equal(loaded.keys, index.keys)
    np.testing.assert_array_equal(loaded.offsets, index.offsets)
    np.testing.assert_array_equal(loaded.ordinals, index.ordinals)
    np.testing.assert_array_equal(loaded.idf, index.idf)
    np.testing.assert_array_equal(loaded.scene_sq_norm, index.scene_sq_norm)


def test_index_rejects_tampered_idf():
    blob = bytearray(storage.index_to_bytes(_toy_index()))
    blob[-4:] = b"\xff\xff\xff\xff"  # idf block sits at the tail
    with pytest.raises(FormatError):
        storage.index_from_bytes(bytes(blob))


def _index_from_lists(keys, lists, fcfg, n_scenes, pipeline=PIPELINE_BF_GD):
    offsets = np.zeros(len(keys) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([len(l) for l in lists])
    index = InvertedIndex(
        pipeline=pipeline, filter_config=fcfg,
        hash_config=HashFamilyConfig("lsh_s", "gbh", M=fcfg.M, n=4, input_dim=4, seed=2),
        scene_ids=tuple(f"scene{i}" for i in range(n_scenes)),
        keys=np.asarray(keys, dtype=np.int64), offsets=offsets,
        ordinals=np.concatenate(lists).astype(np.int32),
        fingerprints=(bytes(range(32)), bytes(32), b"\xff" * 32))
    compute_idf(index)
    return index


@pytest.mark.parametrize("partitioned", [True, False])
def test_index_layout_matches_format(partitioned):
    # the QIVI layout written out field by field, independently of storage.py
    if partitioned:
        fcfg = FilterConfig(partitioned=True, M=2, L_p=16)
        keys, heads = [1, 17, 30], [(0, 1), (1, 1), (1, 14)]
    else:
        fcfg = FilterConfig(partitioned=False, M=2, L_np=64)
        keys, heads = [5, 40, 63], [(0, 5), (0, 40), (0, 63)]
    lists = [[0, 2], [1], [0, 1, 2]]
    deltas = [[0, 2], [1], [0, 1, 1]]
    index = _index_from_lists(keys, [np.array(l) for l in lists], fcfg, 3)

    want = b"QIVI" + struct.pack("<IB", 2, 0)
    want += struct.pack("<BIQQ", int(partitioned), 2, fcfg.L_p, fcfg.L_np)
    want += struct.pack("<BBIBIQ", 1, 1, 2, 4, 4, 2)  # lsh_s, gbh, M, n, dim, seed
    want += bytes(range(32)) + bytes(32) + b"\xff" * 32
    want += struct.pack("<I", 3)
    for i in range(3):
        want += struct.pack("<H", 6) + f"scene{i}".encode()
    want += struct.pack("<Q", 3)
    for (m, bucket), lst in zip(heads, lists):  # the head block
        want += struct.pack("<HII", m, bucket, len(lst))
    for dl in deltas:  # the delta block
        want += struct.pack(f"<{len(dl)}I", *dl)
    for lst in lists:
        want += struct.pack("<f", math.log(4.0 / (len(lst) + 1.0)) + 1.0)

    assert storage.index_to_bytes(index) == want
    loaded = storage.index_from_bytes(want)
    np.testing.assert_array_equal(loaded.keys, keys)
    np.testing.assert_array_equal(loaded.offsets, [0, 2, 3, 6])
    np.testing.assert_array_equal(loaded.ordinals, [0, 2, 1, 0, 1, 2])
    assert loaded.ordinals.dtype == np.int32


@pytest.mark.parametrize("granularity", ["scene", "shot", "frame"])
def test_fvstar_round_trip(granularity):
    rows = np.vstack([binarize_fv(RNG.standard_normal(12)) for _ in range(6)])
    db = FvStarDatabase(granularity, 3, 4,
                        tuple(f"e{i}" for i in range(6)),
                        tuple(f"p{i % 2}" for i in range(6)), rows, skipped=2)
    out = _roundtrip(storage.fvstar_to_bytes, storage.fvstar_from_bytes, db)
    assert out.granularity == granularity
    assert out.owners == db.owners
    assert out.parents == db.parents
    np.testing.assert_array_equal(out.matrix, db.matrix)


# ------------------------------------------------------------- bad input

def test_bad_magic_rejected():
    blob = storage.descriptors_to_bytes(DescriptorSet("x", np.ones((1, 2))))
    with pytest.raises(FormatError):
        storage.descriptors_from_bytes(b"XXXX" + blob[4:], "x")


def test_truncation_rejected():
    blob = storage.model_to_bytes(_pca())
    with pytest.raises(FormatError):
        storage.model_from_bytes(blob[:-3])


def test_trailing_bytes_rejected():
    blob = storage.bank_to_bytes(_bank("lsh_c"))
    with pytest.raises(FormatError):
        storage.bank_from_bytes(blob + b"\x00")


def test_unsupported_version_rejected():
    blob = bytearray(storage.descriptors_to_bytes(DescriptorSet("x", np.ones((1, 2)))))
    blob[4] = 99  # version field follows the magic
    with pytest.raises(FormatError):
        storage.descriptors_from_bytes(bytes(blob), "x")


@pytest.mark.parametrize("count", [1, 2 ** 40, 2 ** 63])
def test_zero_width_descriptors_rejected(count):
    # a zero-width payload is empty whatever the count, so only the count is hostile
    blob = b"QIVD" + struct.pack("<IQI", storage.VERSION, count, 0)
    with pytest.raises(FormatError, match="dimension 0"):
        storage.descriptors_from_bytes(blob, "x")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_descriptors_rejected(bad):
    blob = bytearray(storage.descriptors_to_bytes(DescriptorSet("x", np.ones((2, 3)))))
    blob[-4:] = struct.pack("<f", bad)  # the last float of the payload
    with pytest.raises(FormatError):
        storage.descriptors_from_bytes(bytes(blob), "x")


def _set_f32(blob, index_from_end, value):
    out = bytearray(blob)
    struct.pack_into("<f", out, len(out) - 4 * index_from_end, value)
    return bytes(out)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_model_and_bank_values_rejected(bad):
    # the last float of each payload: a PCA basis entry, a GMM variance, a
    # plane and a centroid coordinate
    for blob, read in ((storage.model_to_bytes(_pca()), storage.model_from_bytes),
                       (storage.model_to_bytes(_gmm()), storage.model_from_bytes),
                       (storage.bank_to_bytes(_bank("lsh_c")), storage.bank_from_bytes),
                       (storage.bank_to_bytes(_bank("vq")), storage.bank_from_bytes)):
        with pytest.raises(FormatError, match="non-finite"):
            read(_set_f32(blob, 1, bad))


def test_gmm_weights_must_be_positive_and_sum_to_one():
    k, d = 3, 4
    blob = storage.model_to_bytes(_gmm(k, d))
    first_weight = 2 * k * d + k  # floats from the end of the file
    with pytest.raises(FormatError, match="at or below zero"):
        storage.model_from_bytes(_set_f32(blob, first_weight, 0.0))
    with pytest.raises(FormatError, match="sum to"):
        storage.model_from_bytes(_set_f32(blob, first_weight, 0.9))


def test_gmm_weights_keep_their_f32_rounding():
    # weights that sum to 1 in float64 read back, whatever f32 does to them
    for k in (1, 3, 7, 16, 100):
        w = np.random.default_rng(k).random(k) + 0.01
        gmm = DiagonalGmm(w / w.sum(), np.zeros((k, 2)), np.full((k, 2), 1e-6))
        out = storage.model_from_bytes(storage.model_to_bytes(gmm))
        assert out.n_components == k


def test_gmm_variances_must_be_positive():
    blob = storage.model_to_bytes(_gmm())
    for value in (0.0, -1.0):
        with pytest.raises(FormatError, match="at or below zero"):
            storage.model_from_bytes(_set_f32(blob, 1, value))


def test_bit_sample_coordinates_must_be_below_input_dim():
    blob = storage.bank_to_bytes(_bank("lsh_b"))  # input_dim 4
    for value, ok in ((3, True), (4, False), (999, False)):
        variant = bytearray(blob)
        struct.pack_into("<I", variant, len(variant) - 4, value)
        if ok:
            assert storage.bank_from_bytes(bytes(variant)).params[-1, -1] == value
        else:
            with pytest.raises(FormatError, match="not below 4"):
                storage.bank_from_bytes(bytes(variant))


def test_pca_dimensions_must_nest():
    d_at = 4 + 4 + 1  # magic, version, kind
    for d_in, d_out in ((4, 0), (4, 5)):
        blob = _corrupt(storage.model_to_bytes(_pca()), d_at, "<I", d_in)
        blob = _corrupt(blob, d_at + 4, "<I", d_out)
        with pytest.raises(FormatError, match="PCA"):
            storage.model_from_bytes(blob)


def test_negative_seed_rejected():
    cfg = HashFamilyConfig("lsh_c", "gbh", M=3, n=4, input_dim=4, seed=7)
    bank = sample_hash_bank(cfg)
    object.__setattr__(bank.config, "seed", -1)
    with pytest.raises(FormatError):
        storage.bank_to_bytes(bank)


# QIVI field positions in an index with scene ids "scene0" ... (6 bytes each):
# magic, version, pipeline code, filter block, hash block, three digests and
# the scene count come first
QIVI_PIPELINE_AT = 8
QIVI_SCENES_AT = 4 + 4 + 1 + 21 + 19 + 3 * 32 + 4


def _qivi_keys_at(index):
    return QIVI_SCENES_AT + sum(2 + len(sid) for sid in index.scene_ids)


def _qivi_deltas_at(index):
    # the key count, then one 10-byte head per key
    return _qivi_keys_at(index) + 8 + 10 * len(index.keys)


def _sixteen_scene_index():
    fcfg = FilterConfig(partitioned=True, M=3, L_p=16)
    lists = [np.array([0, 4, 15]), np.array([2]), np.array([3, 9])]
    return _index_from_lists([2, 20, 47], lists, fcfg, 16)


def _corrupt(blob, at, fmt, value):
    out = bytearray(blob)
    struct.pack_into(fmt, out, at, value)
    return bytes(out)


def test_index_rejects_unknown_pipeline_code():
    blob = storage.index_to_bytes(_sixteen_scene_index())
    with pytest.raises(FormatError, match="pipeline"):
        storage.index_from_bytes(_corrupt(blob, QIVI_PIPELINE_AT, "<B", 7))


def test_index_rejects_non_utf8_scene_id():
    blob = storage.index_to_bytes(_sixteen_scene_index())
    with pytest.raises(FormatError, match="UTF-8"):
        storage.index_from_bytes(_corrupt(blob, QIVI_SCENES_AT + 2, "<B", 0xFF))


def test_index_rejects_key_count_beyond_file():
    index = _sixteen_scene_index()
    blob = storage.index_to_bytes(index)
    with pytest.raises(FormatError, match="cannot fit"):
        storage.index_from_bytes(_corrupt(blob, _qivi_keys_at(index), "<Q", 2 ** 40))


def test_index_rejects_version_one():
    blob = storage.index_to_bytes(_sixteen_scene_index())
    with pytest.raises(FormatError, match="QIVI version 1"):
        storage.index_from_bytes(_corrupt(blob, 4, "<I", 1))


def test_index_rejects_df_beyond_file_before_allocating():
    fcfg = FilterConfig(partitioned=True, M=3, L_p=16)
    index = _index_from_lists([5], [np.array([1])], fcfg, 4)
    blob = _corrupt(storage.index_to_bytes(index), _qivi_keys_at(index) + 8 + 6,
                    "<I", 2 ** 32 - 1)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="do not fill"):
            storage.index_from_bytes(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20  # the deltas it claims would take 16 GiB


def test_index_rejects_ordinal_beyond_scene_count():
    index = _sixteen_scene_index()
    blob = storage.index_to_bytes(index)
    first_delta = _qivi_deltas_at(index)
    with pytest.raises(FormatError, match="ordinal"):
        storage.index_from_bytes(_corrupt(blob, first_delta, "<I", 1000))


def test_index_rejects_unordered_and_empty_postings():
    index = _sixteen_scene_index()
    blob = storage.index_to_bytes(index)
    second_delta = _qivi_deltas_at(index) + 4
    with pytest.raises(FormatError, match="increase"):
        storage.index_from_bytes(_corrupt(blob, second_delta, "<I", 0))
    # the df of the first list set to 0 leaves its deltas over
    with pytest.raises(FormatError, match="do not fill"):
        storage.index_from_bytes(_corrupt(blob, _qivi_keys_at(index) + 8 + 6, "<I", 0))
    empty = _index_from_lists([2, 20], [np.array([1]), np.array([], dtype=np.int64)],
                              FilterConfig(partitioned=True, M=3, L_p=16), 4)
    with pytest.raises(FormatError, match="empty"):
        storage.index_to_bytes(empty)


def _byte_sweep(blob, read, write):
    """Set every byte of a valid file to 0x00, 0xFF and 0x07 in turn. Each
    variant must raise FormatError, or read back and write the same bytes.
    Returns what was read."""
    loaded, rejected = [], 0
    for at in range(len(blob)):
        for value in (0x00, 0xFF, 0x07):
            variant = _corrupt(blob, at, "<B", value)
            try:
                out = read(variant)
            except FormatError:
                rejected += 1
                continue
            assert write(out) == variant, (at, value)
            loaded.append(out)
    assert loaded and rejected
    return loaded


@pytest.mark.parametrize("partitioned", [True, False])
def test_index_byte_sweep_reads_back_or_raises(partitioned):
    blob = storage.index_to_bytes(_toy_index(partitioned=partitioned))
    for loaded in _byte_sweep(blob, storage.index_from_bytes, storage.index_to_bytes):
        # the ordinals of what the reader accepts index the scene list
        assert loaded.ordinals.max() < loaded.n_scenes


def _sweep_case(fmt):
    """The bytes of a small valid file of one format, its reader and its writer."""
    if fmt == "qivd":
        dset = DescriptorSet("f", RNG.standard_normal((3, 2)))
        return (storage.descriptors_to_bytes(dset),
                lambda b: storage.descriptors_from_bytes(b, "f"), storage.descriptors_to_bytes)
    if fmt.startswith("qivm"):
        model = _pca(3) if fmt == "qivm-pca" else _gmm(2, 2)
        return storage.model_to_bytes(model), storage.model_from_bytes, storage.model_to_bytes
    if fmt.startswith("qivh"):
        family = fmt.split("-")[1]
        cfg = HashFamilyConfig(family, "gbh", M=2, n=1, input_dim=2, seed=3)
        bank = (train_vq_bank([RNG.standard_normal((4, 2)) for _ in range(2)], cfg)
                if family == "vq" else sample_hash_bank(cfg))
        return storage.bank_to_bytes(bank), storage.bank_from_bytes, storage.bank_to_bytes
    if fmt == "qivb":
        cfg = FilterConfig(partitioned=True, M=2, L_p=32)
        filters = [SceneFilter(f"s{i}", cfg) for i in range(2)]
        filters[1].set_bit(40)
        return (storage.filters_to_bytes(filters, cfg), storage.filters_from_bytes,
                lambda loaded: storage.filters_to_bytes(loaded[1], loaded[0]))
    rows = np.vstack([binarize_fv(RNG.standard_normal(4)) for _ in range(2)])
    db = FvStarDatabase("frame", 2, 2, ("e0", "e1"), ("p0", "p0"), rows)
    return storage.fvstar_to_bytes(db), storage.fvstar_from_bytes, storage.fvstar_to_bytes


@pytest.mark.parametrize("fmt", ["qivd", "qivm-pca", "qivm-gmm", "qivh-lsh_c", "qivh-lsh_b",
                                 "qivh-vq", "qivb", "qivf"])
def test_byte_sweep_reads_back_or_raises(fmt):
    # the index sweep above, for every other binary format, plus every
    # truncation and three appended tails
    blob, read, write = _sweep_case(fmt)
    _byte_sweep(blob, read, write)
    for cut in range(len(blob)):
        with pytest.raises(FormatError):
            read(blob[:cut])
    for tail in (b"\x00", b"\xff" * 4, bytes(range(64))):
        with pytest.raises(FormatError):
            read(blob + tail)


_QIVI = storage.index_to_bytes(_toy_index())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cut=st.integers(0, len(_QIVI) - 1), tail=st.binary(min_size=1, max_size=64))
def test_index_truncated_or_extended_raises_format_error(cut, tail):
    with pytest.raises(FormatError):
        storage.index_from_bytes(_QIVI[:cut])
    with pytest.raises(FormatError):
        storage.index_from_bytes(_QIVI + tail)


# ------------------------------------------------------------ file layer

def test_file_round_trip_and_stem_source_id(tmp_path):
    dset = DescriptorSet("frame7", RNG.standard_normal((3, 4)).astype(np.float32))
    path = storage.write_descriptors(tmp_path / "deep" / "frame7.qivd", dset)
    out = storage.read_descriptors(path)
    assert out.source_id == "frame7"  # defaults to the file stem
    np.testing.assert_array_equal(out.vectors, dset.vectors.astype(np.float64))


def test_model_digests_are_stable_and_sensitive():
    pca, gmm, bank = _pca(), _gmm(), _bank("lsh_s")
    first = storage.model_digests(pca, gmm, bank)
    second = storage.model_digests(pca, gmm, bank)
    assert first == second
    assert all(len(d) == 32 for d in first)
    other = storage.model_digests(_pca(), gmm, bank)
    assert other[0] != first[0]
    assert other[1:] == first[1:]


def test_make_bundle_carries_digests():
    pca, gmm, bank = _pca(), _gmm(), _bank("lsh_b")
    bundle = storage.make_bundle(pca, gmm, bank)
    assert bundle.digests == storage.model_digests(pca, gmm, bank)


# ------------------------------------------------------------- manifests

def test_manifest_grouping_and_path_resolution(tmp_path):
    text = ("# comment line\n"
            "\n"
            "sceneA\tf0\tdata/f0.qivd\tshot0\n"
            "sceneA\tf1\tdata/f1.qivd\tshot0\n"
            "sceneA\tf2\tdata/f2.qivd\tshot1\n"
            "sceneB\tf0\tdata/g0.qivd\tshot2\n")
    path = tmp_path / "manifest.tsv"
    path.write_text(text)
    scenes, shots = storage.read_manifest(path)
    assert [s.scene_id for s in scenes] == ["sceneA", "sceneB"]
    assert len(scenes[0].frame_refs) == 3
    fid, resolved = scenes[0].frame_refs[0]
    assert fid == "f0"
    assert resolved == str((tmp_path / "data" / "f0.qivd").resolve())
    assert [(s.shot_id, s.parent_scene) for s in shots] == [
        ("shot0", "sceneA"), ("shot1", "sceneA"), ("shot2", "sceneB")]
    assert len(shots[0].frame_refs) == 2


def test_manifest_without_shot_column(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("s\tf\tx.qivd\n")
    scenes, shots = storage.read_manifest(path)
    assert len(scenes) == 1 and shots == []


def test_manifest_rejects_duplicates_and_bad_columns(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("s\tf\tx.qivd\ns\tf\ty.qivd\n")
    with pytest.raises(FormatError):
        storage.read_manifest(path)
    path.write_text("s\tf\n")
    with pytest.raises(FormatError):
        storage.read_manifest(path)


def test_frame_loader_reads_by_ref(tmp_path):
    dset = DescriptorSet("fX", np.ones((2, 2), dtype=np.float32))
    p = storage.write_descriptors(tmp_path / "a.qivd", dset)
    out = storage.frame_loader(("fX", str(p)))
    assert out.source_id == "fX"
    assert out.n == 2


def test_read_queries(tmp_path):
    path = tmp_path / "q.tsv"
    path.write_text("q0\ta.qivd\nq1\tb.qivd\n")
    pairs = storage.read_queries(path)
    assert [qid for qid, _ in pairs] == ["q0", "q1"]
    assert pairs[0][1] == str((tmp_path / "a.qivd").resolve())
    path.write_text("q0\ta.qivd\nq0\tb.qivd\n")
    with pytest.raises(FormatError):
        storage.read_queries(path)


def test_read_ground_truth(tmp_path):
    path = tmp_path / "gt.tsv"
    path.write_text("q0\tsceneA\nq1\tsceneA,sceneB\n")
    truth = storage.read_ground_truth(path)
    assert truth == {"q0": ("sceneA",), "q1": ("sceneA", "sceneB")}
    path.write_text("q0\t,\n")
    with pytest.raises(FormatError):
        storage.read_ground_truth(path)


def test_read_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# settings\npipeline = bf_pi\nM=8\n\nalpha =  0.25\n")
    assert storage.read_config_file(path) == {
        "pipeline": "bf_pi", "M": "8", "alpha": "0.25"}
    path.write_text("pipeline bf_pi\n")
    with pytest.raises(FormatError):
        storage.read_config_file(path)
