"""Binary file formats and text manifests.

Every binary format is little-endian with a 4-byte magic and a u32 format
version. Arrays are written row-major; float payloads are float32 on disk
and float64 in memory (float32 values round-trip exactly, so
write -> read -> write is byte-identical).

Formats: QIVD descriptors, QIVM models (PCA/GMM), QIVH hash banks,
QIVB filter sets, QIVI inverted indexes, QIVF binarized-FV databases.
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path

import numpy as np

from . import index as index_mod
from .baseline import GRANULARITIES, FvStarDatabase, ShotRecord
from .bloom import FilterConfig, SceneFilter
from .embedding import DescriptorSet, DiagonalGmm, PcaModel
from .errors import ConfigError, FormatError
from .hashing import FAMILIES, DOMAINS, FAMILY_LSH_B, HashBank, HashFamilyConfig
from .index import InvertedIndex, ModelBundle

VERSION = 1        # QIVD, QIVM, QIVH, QIVB and QIVF
VERSION_INDEX = 2  # QIVI

MAGIC_DESCRIPTORS = b"QIVD"
MAGIC_MODEL = b"QIVM"
MAGIC_BANK = b"QIVH"
MAGIC_FILTERS = b"QIVB"
MAGIC_INDEX = b"QIVI"
MAGIC_FVSTAR = b"QIVF"

KIND_PCA = 0
KIND_GMM = 1


class _Reader:
    """Cursor over an immutable buffer; every read checks bounds."""

    def __init__(self, buf: bytes, label: str):
        self.buf = buf
        self.pos = 0
        self.label = label

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.buf):
            raise FormatError(f"truncated {self.label} file")
        values = struct.unpack_from(fmt, self.buf, self.pos)
        self.pos += size
        return values if len(values) > 1 else values[0]

    def raw(self, size: int) -> bytes:
        if self.pos + size > len(self.buf):
            raise FormatError(f"truncated {self.label} file")
        out = self.buf[self.pos:self.pos + size]
        self.pos += size
        return out

    def array(self, dtype: str, count: int) -> np.ndarray:
        dt = np.dtype(dtype)
        out = np.frombuffer(self.raw(dt.itemsize * count), dtype=dt)
        return out

    def floats(self, shape, positive: bool = False) -> np.ndarray:
        """f32 values as a float64 array of `shape`, all finite (and all
        above zero when `positive`)."""
        raw = self.array("<f4", math.prod(shape))
        if not np.isfinite(raw).all():
            raise FormatError(f"non-finite value in {self.label} file")
        out = raw.astype(np.float64).reshape(shape)
        if positive and not (out > 0.0).all():
            raise FormatError(f"value at or below zero in {self.label} file")
        return out

    def weights(self, count: int) -> np.ndarray:
        """Mixture weights: `count` positive f32 values that sum to 1 up to
        the rounding of their f32 storage."""
        out = self.floats((count,), positive=True)
        if not abs(out.sum() - 1.0) <= count * np.finfo(np.float32).eps:
            raise FormatError(f"weights in {self.label} file sum to {out.sum()}, not 1")
        return out

    def indices(self, shape, bound: int) -> np.ndarray:
        """u32 values as an int64 array of `shape`, each below `bound`."""
        out = self.array("<u4", math.prod(shape)).astype(np.int64).reshape(shape)
        if out.size and out.max() >= bound:
            raise FormatError(f"index {out.max()} in {self.label} file is not below {bound}")
        return out

    def string(self) -> str:
        raw = self.raw(self.take("<H"))
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"identifier in {self.label} file is not UTF-8") from exc

    def finish(self):
        if self.pos != len(self.buf):
            raise FormatError(f"{len(self.buf) - self.pos} trailing bytes in {self.label} file")


def _header(reader: _Reader, magic: bytes, expected: int):
    got = reader.raw(4)
    if got != magic:
        raise FormatError(f"bad magic {got!r}, expected {magic!r}")
    version = reader.take("<I")
    if version != expected:
        raise FormatError(f"unsupported {magic.decode()} version {version}")


def _pack_string(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise FormatError(f"identifier too long ({len(raw)} bytes)")
    return struct.pack("<H", len(raw)) + raw


def _f32(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f4").tobytes()


# ---------------------------------------------------------------- QIVD

def descriptors_to_bytes(dset: DescriptorSet) -> bytes:
    head = MAGIC_DESCRIPTORS + struct.pack("<IQI", VERSION, dset.n, dset.dim)
    return head + _f32(dset.vectors)


def descriptors_from_bytes(buf: bytes, source_id: str) -> DescriptorSet:
    r = _Reader(buf, "descriptor")
    _header(r, MAGIC_DESCRIPTORS, VERSION)
    count, dim = r.take("<QI")
    if dim == 0 and count > 0:
        raise FormatError(f"{count} descriptors of dimension 0 in descriptor file")
    vectors = r.floats((count, dim))
    r.finish()
    return DescriptorSet(source_id, vectors)


# ---------------------------------------------------------------- QIVM

def model_to_bytes(model) -> bytes:
    if isinstance(model, PcaModel):
        head = MAGIC_MODEL + struct.pack("<IBII", VERSION, KIND_PCA, model.d_in, model.d_out)
        return head + _f32(model.mean) + _f32(model.basis)
    if isinstance(model, DiagonalGmm):
        head = MAGIC_MODEL + struct.pack("<IBII", VERSION, KIND_GMM,
                                         model.n_components, model.dim)
        return head + _f32(model.weights) + _f32(model.means) + _f32(model.variances)
    raise FormatError(f"not a serializable model: {type(model).__name__}")


def model_from_bytes(buf: bytes):
    r = _Reader(buf, "model")
    _header(r, MAGIC_MODEL, VERSION)
    kind = r.take("<B")
    if kind == KIND_PCA:
        d_in, d_out = r.take("<II")
        if not 1 <= d_out <= d_in:
            raise FormatError(f"PCA from {d_in} to {d_out} dimensions in model file")
        mean = r.floats((d_in,))
        basis = r.floats((d_out, d_in))
        r.finish()
        return PcaModel(mean=mean, basis=basis)
    if kind == KIND_GMM:
        k, d = r.take("<II")
        weights = r.weights(k)
        means = r.floats((k, d))
        variances = r.floats((k, d), positive=True)
        r.finish()
        return DiagonalGmm(weights=weights, means=means, variances=variances)
    raise FormatError(f"unknown model kind {kind}")


# ---------------------------------------------------------------- QIVH

def _hcfg_block(cfg: HashFamilyConfig) -> bytes:
    if cfg.seed < 0:
        raise FormatError("hash seeds must be non-negative for serialization")
    return struct.pack("<BBIBIQ", FAMILIES.index(cfg.family), DOMAINS.index(cfg.domain),
                       cfg.M, cfg.n, cfg.input_dim, cfg.seed)


def _read_hcfg(r: _Reader) -> HashFamilyConfig:
    family, domain, m, n, input_dim, seed = r.take("<BBIBIQ")
    if family >= len(FAMILIES) or domain >= len(DOMAINS):
        raise FormatError(f"unknown family/domain codes ({family}, {domain})")
    try:
        return HashFamilyConfig(family=FAMILIES[family], domain=DOMAINS[domain],
                                M=m, n=n, input_dim=input_dim, seed=seed)
    except ConfigError as exc:
        raise FormatError(f"invalid hash configuration in {r.label} file: {exc}") from exc


def bank_to_bytes(bank: HashBank) -> bytes:
    # the stacked parameters in C order are the M blocks in hash order
    dtype = "<u4" if bank.config.family == FAMILY_LSH_B else "<f4"
    return b"".join([MAGIC_BANK, struct.pack("<I", VERSION), _hcfg_block(bank.config),
                     np.ascontiguousarray(bank.params, dtype=dtype).tobytes()])


def bank_from_bytes(buf: bytes) -> HashBank:
    r = _Reader(buf, "hash bank")
    _header(r, MAGIC_BANK, VERSION)
    cfg = _read_hcfg(r)
    if cfg.family == FAMILY_LSH_B:
        params = r.indices(cfg.param_shape, cfg.input_dim)
    else:
        params = r.floats(cfg.param_shape)
    r.finish()
    return HashBank(cfg, params)


# ---------------------------------------------------------------- QIVB

def _fcfg_block(cfg: FilterConfig) -> bytes:
    return struct.pack("<BIQQ", int(cfg.partitioned), cfg.M, cfg.L_p, cfg.L_np)


def _read_fcfg(r: _Reader) -> FilterConfig:
    partitioned, m, l_p, l_np = r.take("<BIQQ")
    if partitioned > 1:
        raise FormatError(f"bad partitioned flag {partitioned} in {r.label} file")
    try:
        return FilterConfig(partitioned=bool(partitioned), M=m, L_p=l_p, L_np=l_np)
    except ConfigError as exc:
        raise FormatError(f"invalid filter configuration in {r.label} file: {exc}") from exc


def filters_to_bytes(filters, config: FilterConfig) -> bytes:
    parts = [MAGIC_FILTERS, struct.pack("<I", VERSION), _fcfg_block(config),
             struct.pack("<I", len(filters))]
    for f in filters:
        if f.config != config:
            raise FormatError(f"filter {f.scene_id!r} disagrees with the set's config")
        parts.append(_pack_string(f.scene_id))
        parts.append(np.ascontiguousarray(f.words, dtype="<u8").tobytes())
    return b"".join(parts)


def filters_from_bytes(buf: bytes):
    r = _Reader(buf, "filter set")
    _header(r, MAGIC_FILTERS, VERSION)
    config = _read_fcfg(r)
    count = r.take("<I")
    n_words = (config.n_bits + 63) // 64
    filters = []
    for _ in range(count):
        scene_id = r.string()
        words = r.array("<u8", n_words).astype(np.uint64)
        filters.append(SceneFilter(scene_id, config, words=words))
    r.finish()
    return config, filters


# ---------------------------------------------------------------- QIVI
#
# Version 2. After the header, scene ids and a u64 key count comes the head
# block: n_keys packed (u16 hash m, u32 bucket, u32 df) heads, one per key in
# ascending key order. Then the delta block: every posting list's u32
# ordinal deltas, list after list (the first delta of a list is its first
# ordinal). The f32 IDF weights, one per key, close the file. Each block is
# read as one array. Version 1, which put each head before its own deltas,
# is rejected.

_POSTING_HEAD = np.dtype([("m", "<u2"), ("bucket", "<u4"), ("df", "<u4")])  # packed


def index_to_bytes(index: InvertedIndex) -> bytes:
    fcfg = index.filter_config
    parts = [MAGIC_INDEX,
             struct.pack("<IB", VERSION_INDEX, index_mod.PIPELINES.index(index.pipeline)),
             _fcfg_block(fcfg), _hcfg_block(index.hash_config)]
    for digest in index.fingerprints:
        if len(digest) != 32:
            raise FormatError("fingerprints must be 32-byte digests")
        parts.append(digest)
    parts.append(struct.pack("<I", index.n_scenes))
    for sid in index.scene_ids:
        parts.append(_pack_string(sid))
    keys, offsets, ordinals = index.keys, index.offsets, index.ordinals
    parts.append(struct.pack("<Q", len(keys)))

    m, bucket = fcfg.split_bits(keys)
    wide = (keys < 0) | (m > 0xFFFF) | (bucket > 0xFFFFFFFF)
    if wide.any():
        raise FormatError(f"posting key {keys[wide][0]} exceeds the (u16, u32) field widths")
    head = np.empty(len(keys), dtype=_POSTING_HEAD)
    head["m"], head["bucket"], head["df"] = m, bucket, np.diff(offsets)
    if np.any(head["df"] == 0):
        raise FormatError("empty posting list")
    deltas = np.diff(ordinals.astype(np.int64), prepend=0)
    deltas[offsets[:-1]] = ordinals[offsets[:-1]]
    parts.append(head.tobytes())
    parts.append(deltas.astype("<u4").tobytes())

    if index.idf is None:
        index_mod.compute_idf(index)
    parts.append(_f32(index.idf))
    return b"".join(parts)


def index_from_bytes(buf: bytes) -> InvertedIndex:
    r = _Reader(buf, "index")
    _header(r, MAGIC_INDEX, VERSION_INDEX)
    code = r.take("<B")
    if code >= len(index_mod.PIPELINES):
        raise FormatError(f"unknown pipeline code {code}")
    pipeline = index_mod.PIPELINES[code]
    fcfg = _read_fcfg(r)
    hcfg = _read_hcfg(r)
    fingerprints = tuple(r.raw(32) for _ in range(3))
    n_scenes = r.take("<I")
    scene_ids = tuple(r.string() for _ in range(n_scenes))
    n_keys = r.take("<Q")
    # every key takes at least a record head and its IDF weight
    if n_keys * (_POSTING_HEAD.itemsize + 4) > len(buf) - r.pos:
        raise FormatError(f"{n_keys} posting lists cannot fit in the index file")
    head = r.array(_POSTING_HEAD, n_keys)
    n_postings = int(head["df"].sum())
    # checked before the deltas are read, so that a hostile df allocates nothing
    if 4 * (n_postings + n_keys) != len(buf) - r.pos:
        raise FormatError(f"{n_postings} postings and {n_keys} weights do not fill "
                          f"the {len(buf) - r.pos} bytes left in the index file")
    df = head["df"].astype(np.int64)
    if np.any(df == 0):
        raise FormatError("empty posting list")
    deltas = r.array("<u4", n_postings).astype(np.int64)
    stored_idf = r.array("<f4", n_keys)
    r.finish()

    m = head["m"].astype(np.int64)
    bucket = head["bucket"].astype(np.int64)
    if fcfg.n_bits > np.iinfo(np.int64).max:
        raise FormatError(f"filter of {fcfg.n_bits} bits is too large")
    # range checks first: they bound the flat bits below n_bits
    if fcfg.partitioned:
        outside = np.any(m >= fcfg.M) or np.any(bucket >= fcfg.L_p)
    else:
        outside = np.any(m != 0) or np.any(bucket >= fcfg.L_np)
    if outside:
        raise FormatError("posting key outside the filter")
    keys = fcfg.flat_bits(m, bucket)
    if np.any(np.diff(keys) <= 0):
        raise FormatError("posting keys out of order")

    offsets = np.zeros(n_keys + 1, dtype=np.int64)
    np.cumsum(df, out=offsets[1:])
    first = offsets[:-1]
    rising = deltas > 0
    rising[first] = True
    if not rising.all():
        raise FormatError("scene ordinals do not increase within a posting list")
    ordinals = np.cumsum(deltas)
    ordinals -= np.repeat(ordinals[first] - deltas[first], df)
    if len(ordinals) and ordinals.max() >= n_scenes:
        raise FormatError(f"scene ordinal {ordinals.max()} outside {n_scenes} scenes")

    index = InvertedIndex(pipeline=pipeline, filter_config=fcfg, hash_config=hcfg,
                          scene_ids=scene_ids, keys=keys, offsets=offsets,
                          ordinals=ordinals.astype(np.int32), fingerprints=fingerprints)
    index_mod.compute_idf(index)  # recompute in float64 from the postings
    if not np.array_equal(stored_idf, index.idf.astype("<f4")):
        raise FormatError("stored IDF weights disagree with the postings")
    return index


# ---------------------------------------------------------------- QIVF

def fvstar_to_bytes(db: FvStarDatabase) -> bytes:
    parts = [MAGIC_FVSTAR,
             struct.pack("<IBIII", VERSION, GRANULARITIES.index(db.granularity),
                         db.n_components, db.dim, db.n_entries)]
    for owner, parent in zip(db.owners, db.parents):
        parts.append(_pack_string(owner))
        parts.append(_pack_string(parent))
    parts.append(np.ascontiguousarray(db.matrix, dtype="<u8").tobytes())
    return b"".join(parts)


def fvstar_from_bytes(buf: bytes) -> FvStarDatabase:
    r = _Reader(buf, "FV-star database")
    _header(r, MAGIC_FVSTAR, VERSION)
    gran, k, d, count = r.take("<BIII")
    if gran >= len(GRANULARITIES):
        raise FormatError(f"unknown granularity code {gran}")
    pairs = [(r.string(), r.string()) for _ in range(count)]
    n_words = (k * d + 63) // 64
    matrix = r.array("<u8", count * n_words).astype(np.uint64).reshape(count, n_words)
    r.finish()
    owners = tuple(p[0] for p in pairs)
    parents = tuple(p[1] for p in pairs)
    return FvStarDatabase(GRANULARITIES[gran], k, d, owners, parents, matrix)


# ---------------------------------------------------------------- files

def _write(path, data: bytes) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return path


def write_descriptors(path, dset: DescriptorSet):
    return _write(path, descriptors_to_bytes(dset))


def read_descriptors(path, source_id: str | None = None) -> DescriptorSet:
    path = Path(path)
    return descriptors_from_bytes(path.read_bytes(), source_id or path.stem)


def write_model(path, model):
    return _write(path, model_to_bytes(model))


def read_model(path):
    return model_from_bytes(Path(path).read_bytes())


def write_bank(path, bank: HashBank):
    return _write(path, bank_to_bytes(bank))


def read_bank(path) -> HashBank:
    return bank_from_bytes(Path(path).read_bytes())


def write_filters(path, filters, config: FilterConfig):
    return _write(path, filters_to_bytes(filters, config))


def read_filters(path):
    return filters_from_bytes(Path(path).read_bytes())


def write_index(path, index: InvertedIndex):
    return _write(path, index_to_bytes(index))


def read_index(path) -> InvertedIndex:
    return index_from_bytes(Path(path).read_bytes())


def write_fvstar(path, db: FvStarDatabase):
    return _write(path, fvstar_to_bytes(db))


def read_fvstar(path) -> FvStarDatabase:
    return fvstar_from_bytes(Path(path).read_bytes())


# ---------------------------------------------------------------- digests

def model_digests(pca: PcaModel, gmm: DiagonalGmm, bank: HashBank) -> tuple:
    """sha256 content digests of (PCA, GMM, bank) in serialized form."""
    return (hashlib.sha256(model_to_bytes(pca)).digest(),
            hashlib.sha256(model_to_bytes(gmm)).digest(),
            hashlib.sha256(bank_to_bytes(bank)).digest())


def make_bundle(pca: PcaModel, gmm: DiagonalGmm, bank: HashBank) -> ModelBundle:
    return ModelBundle(pca=pca, gmm=gmm, bank=bank,
                       digests=model_digests(pca, gmm, bank))


# ---------------------------------------------------------------- text

def _data_lines(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def read_manifest(path):
    """Parse a dataset manifest into SceneRecords plus ShotRecords.

    Lines: scene_id<TAB>frame_id<TAB>descriptor_path[<TAB>shot_id].
    Paths resolve relative to the manifest's directory. Frame refs are
    (frame_id, path) pairs for `frame_loader`.
    """
    base = Path(path).parent
    scenes: dict[str, list] = {}
    shots: dict[tuple, list] = {}
    seen = set()
    for lineno, line in _data_lines(path):
        cols = line.split("\t")
        if len(cols) not in (3, 4):
            raise FormatError(f"{path}:{lineno}: expected 3 or 4 columns, got {len(cols)}")
        scene_id, frame_id, rel = cols[0], cols[1], cols[2]
        if (scene_id, frame_id) in seen:
            raise FormatError(f"{path}:{lineno}: duplicate frame {scene_id}/{frame_id}")
        seen.add((scene_id, frame_id))
        ref = (frame_id, str((base / rel).resolve()))
        scenes.setdefault(scene_id, []).append(ref)
        if len(cols) == 4:
            shots.setdefault((scene_id, cols[3]), []).append(ref)

    scene_records = [index_mod.SceneRecord(sid, tuple(refs)) for sid, refs in scenes.items()]
    shot_records = [ShotRecord(shot_id, scene_id, tuple(refs))
                    for (scene_id, shot_id), refs in shots.items()]
    return scene_records, shot_records


def frame_loader(ref) -> DescriptorSet:
    frame_id, path = ref
    return read_descriptors(path, source_id=frame_id)


def read_queries(path):
    """Query manifest: query_id<TAB>descriptor_path per line."""
    base = Path(path).parent
    out = []
    seen = set()
    for lineno, line in _data_lines(path):
        cols = line.split("\t")
        if len(cols) != 2:
            raise FormatError(f"{path}:{lineno}: expected 2 columns, got {len(cols)}")
        if cols[0] in seen:
            raise FormatError(f"{path}:{lineno}: duplicate query id {cols[0]!r}")
        seen.add(cols[0])
        out.append((cols[0], str((base / cols[1]).resolve())))
    return out


def read_ground_truth(path) -> dict:
    """query_id<TAB>scene_id[,scene_id...] per line."""
    truth: dict[str, tuple] = {}
    for lineno, line in _data_lines(path):
        cols = line.split("\t")
        if len(cols) != 2:
            raise FormatError(f"{path}:{lineno}: expected 2 columns, got {len(cols)}")
        if cols[0] in truth:
            raise FormatError(f"{path}:{lineno}: duplicate query id {cols[0]!r}")
        scenes = tuple(s for s in cols[1].split(",") if s)
        if not scenes:
            raise FormatError(f"{path}:{lineno}: query {cols[0]!r} lists no scenes")
        truth[cols[0]] = scenes
    return truth


def read_config_file(path) -> dict:
    """Flat `key = value` settings; full-line # comments allowed."""
    out = {}
    for lineno, line in _data_lines(path):
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out
