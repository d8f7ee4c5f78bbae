"""The retrieval pipeline as a library: train, keep models, build, evaluate.

Each stage has one code path here, shared by the command line, the tests
and the benchmarks:

- `train` fits PCA, the GMM and, for the Bloom-filter pipelines, the hash
  bank; `save_models` and `load_models` keep them in a models directory.
- `build_index` and `build_fvstar` pick the builder for a pipeline.
- `evaluate_index` benchmarks an index, averaging over trials rebuilt with
  re-seeded banks when the hash family is randomized.

`RunConfig` checks its settings by building the per-layer configs, so each
rule is stated once, in the layer that relies on it.

Other layers are called through their modules (`embedding.fit_gmm`,
`index.build_bf_gd`), never through names imported into this one, so code
that replaces a module's functions, a tracer or a test's monkeypatch, sees
every call made from here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from . import baseline, bloom, embedding, evaluation, hashing, index, storage
from .errors import ConfigError, QivrError

PIPELINE_SCENE_FV = "scene_fv_star"
PIPELINE_FRAME_FV = "frame_fv_star"
PIPELINES = index.PIPELINES + (PIPELINE_SCENE_FV, PIPELINE_FRAME_FV)

RANDOMIZED_FAMILIES = ("lsh_c", "lsh_s", "lsh_b")

PCA_FILE = "pca.qivm"
GMM_FILE = "gmm.qivm"
BANK_FILE = "bank.qivh"
INDEX_FILE = "index.qivi"
FVSTAR_FILE = "fvstar.qivf"
SHOTS_FILE = "shots.qivf"


@dataclass(frozen=True)
class RunConfig:
    """Desk-scale defaults; larger corpora set their values via config file."""

    pipeline: str = index.PIPELINE_BF_GD
    family: str = "lsh_c"
    domain: str = hashing.DOMAIN_GBH
    M: int = 16
    n: int = 8
    K: int = 16
    d: int = 8
    alpha: float = 0.5
    scoring: str = index.SCORE_TFIDF
    partitioned: bool = True
    seed: int = 0
    trials: int = 1
    shortlist_size: int = 100
    top_k: int = 0

    def __post_init__(self):
        if self.pipeline not in PIPELINES:
            raise ConfigError(f"unknown pipeline {self.pipeline!r}")
        for name in ("K", "d", "trials", "shortlist_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.top_k < 0:
            raise ConfigError("top_k must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        # the layer configs check family, domain, M, n and the scoring mode
        self.hash_config()
        self.scoring_config()
        if self.pipeline in index.PIPELINES:
            index.check_pipeline_hashing(self.pipeline, self.domain, self.M, self.K)

    @property
    def input_dim(self) -> int:
        return self.d if self.domain == hashing.DOMAIN_GBH else self.K * self.d

    def hash_config(self) -> hashing.HashFamilyConfig:
        return hashing.HashFamilyConfig(family=self.family, domain=self.domain, M=self.M,
                                        n=self.n, input_dim=self.input_dim, seed=self.seed)

    def filter_config(self) -> bloom.FilterConfig:
        if self.partitioned:
            return bloom.FilterConfig(partitioned=True, M=self.M, L_p=1 << self.n)
        return bloom.FilterConfig(partitioned=False, M=self.M, L_np=1 << self.n)

    def scoring_config(self) -> index.ScoringConfig:
        return index.ScoringConfig(mode=self.scoring, alpha=self.alpha)

    def trials_for(self, family: str) -> int:
        """Trials to run on an index hashed by `family`: one for a trained
        (VQ) bank, which every rebuild would reproduce."""
        return self.trials if family in RANDOMIZED_FAMILIES else 1


# ------------------------------------------------------------ training

def load_training(manifest_path) -> list:
    """The descriptor sets of every nonempty frame in a manifest."""
    scenes, _ = storage.read_manifest(manifest_path)
    corpus = []
    for scene in scenes:
        for ref in scene.frame_refs:
            dset = storage.frame_loader(ref)
            if dset.n:
                corpus.append(dset)
    return corpus


def vq_pools(cfg: RunConfig, projected, gmm):
    """Training pools for VQ centroids, one per hash: the rows a build hashes
    under it (`index.hash_inputs`), from training frames with PCA applied."""
    hash_ids, rows, _ = index.hash_inputs(cfg.pipeline, cfg.hash_config(), gmm, projected)
    return [rows[hash_ids == m] for m in range(cfg.M)]


def train(cfg: RunConfig, manifest_path) -> index.ModelBundle:
    """Fit PCA and the GMM on a training manifest, then the hash bank.

    The bank is None for the FV* pipelines, which hash nothing. A GMM with
    `converged` False stopped at EM's iteration cap; a VQ bank's `report`
    lists the partitions that fell back to sampled centroids.
    """
    corpus = load_training(manifest_path)
    if not corpus:
        raise QivrError("training manifest holds no descriptors")
    pca = embedding.fit_pca(corpus, cfg.d)
    projected = [embedding.apply_pca(pca, d) for d in corpus]
    gmm = embedding.fit_gmm(projected, cfg.K, seed=cfg.seed)
    bank = None
    if cfg.pipeline in index.PIPELINES:
        hcfg = cfg.hash_config()
        if cfg.family == hashing.FAMILY_VQ:
            bank = hashing.train_vq_bank(vq_pools(cfg, projected, gmm), hcfg)
        else:
            bank = hashing.sample_hash_bank(hcfg)
    return index.ModelBundle(pca=pca, gmm=gmm, bank=bank)


# ------------------------------------------------------------ model files

def save_models(models_dir, bundle: index.ModelBundle):
    """Write the PCA, the GMM and the bank (when there is one)."""
    models_dir = Path(models_dir)
    models_dir.mkdir(parents=True, exist_ok=True)
    storage.write_model(models_dir / PCA_FILE, bundle.pca)
    storage.write_model(models_dir / GMM_FILE, bundle.gmm)
    if bundle.bank is not None:
        storage.write_bank(models_dir / BANK_FILE, bundle.bank)


def load_models(models_dir, need_bank: bool = True) -> index.ModelBundle:
    """Read a models directory; with a bank, the bundle carries digests."""
    models_dir = Path(models_dir)
    pca = storage.read_model(models_dir / PCA_FILE)
    gmm = storage.read_model(models_dir / GMM_FILE)
    if not need_bank:
        return index.ModelBundle(pca=pca, gmm=gmm, bank=None)
    bank = storage.read_bank(models_dir / BANK_FILE)
    return storage.make_bundle(pca, gmm, bank)


def check_models_match(cfg: RunConfig, bundle: index.ModelBundle):
    """Reject models trained under a different configuration."""
    if bundle.gmm.n_components != cfg.K:
        raise ConfigError(f"config K={cfg.K} but the GMM has "
                          f"{bundle.gmm.n_components} components")
    if bundle.pca.d_out != cfg.d:
        raise ConfigError(f"config d={cfg.d} but the PCA projects to {bundle.pca.d_out}")
    if bundle.bank is not None:
        want = dataclasses.replace(cfg.hash_config(), seed=bundle.bank.config.seed)
        if bundle.bank.config != want:
            raise ConfigError(f"hash bank {bundle.bank.config} does not match "
                              f"the configured {want}")


# ------------------------------------------------------------ building

def build_index(pipeline: str, scenes, bundle: index.ModelBundle,
                fcfg: bloom.FilterConfig) -> index.InvertedIndex:
    """Index scenes with the builder of a Bloom-filter pipeline."""
    build = index.build_bf_gd if pipeline == index.PIPELINE_BF_GD else index.build_bf_pi
    return build(scenes, bundle, fcfg, storage.frame_loader)


def build_fvstar(pipeline: str, scenes, shots, bundle: index.ModelBundle):
    """The FV* database of an FV* pipeline, and a shot database when the
    manifest names shots (else None)."""
    build = (baseline.build_scene_fv_star if pipeline == PIPELINE_SCENE_FV
             else baseline.build_frame_fv_star)
    db = build(scenes, bundle.pca, bundle.gmm, storage.frame_loader)
    shot_db = None
    if shots:
        shot_db = baseline.build_shot_fv_star(shots, bundle.pca, bundle.gmm,
                                              storage.frame_loader)
    return db, shot_db


# ------------------------------------------------------------ evaluation

def load_queries(path) -> list:
    """(query id, DescriptorSet) pairs of a query manifest, in its order."""
    return [(qid, storage.read_descriptors(qpath, source_id=qid))
            for qid, qpath in storage.read_queries(path)]


def evaluate_index(cfg: RunConfig, inverted: index.InvertedIndex, bundle: index.ModelBundle,
                   queries, truth: dict, n_trials: int = 1,
                   scenes=()) -> evaluation.EvalReport:
    """Benchmark an index over `n_trials` trials.

    Trial 0 is `inverted` itself. Trial t rebuilds it from `scenes` with a bank
    of the same family sampled at the bank's seed + t. Several trials are
    averaged by `evaluation.aggregate_trials`; one returns its own report.
    """
    scoring = cfg.scoring_config()

    def bench(trial_index, trial_bundle):
        return evaluation.run_benchmark(trial_index, trial_bundle, scoring, queries, truth,
                                        top_k=cfg.top_k)

    reports = [bench(inverted, bundle)]
    base = inverted.hash_config
    for t in range(1, n_trials):
        bank_t = hashing.sample_hash_bank(dataclasses.replace(base, seed=base.seed + t))
        bundle_t = storage.make_bundle(bundle.pca, bundle.gmm, bank_t)
        reports.append(bench(build_index(inverted.pipeline, scenes, bundle_t,
                                         inverted.filter_config), bundle_t))
    return evaluation.aggregate_trials(reports) if len(reports) > 1 else reports[0]
