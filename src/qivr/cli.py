"""Command-line interface: train, build, query, evaluate, gen-synth.

Settings resolve in three layers: built-in desk-scale defaults, then a
`key = value` config file (--config), then explicit command-line flags.
Exit codes: 0 success, 2 config validation failure, 1 any other error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import baseline, evaluation, storage
from .bloom import FilterConfig
from .embedding import (DescriptorSet, apply_pca, compute_fv, fit_gmm,
                        fit_pca, point_index_batch)
from .errors import ConfigError, QivrError
from .hashing import (DOMAIN_GBH, DOMAIN_VBH, DOMAINS, FAMILIES, FAMILY_VQ,
                      HashFamilyConfig, sample_hash_bank, train_vq_bank)
from .index import (PIPELINE_BF_GD, PIPELINE_BF_PI, ModelBundle,
                    ScoringConfig, SCORE_HASH_MATCHES, SCORE_TFIDF,
                    build_bf_gd, build_bf_pi, compute_idf, materialize_filters,
                    score_query)

PIPELINE_SCENE_FV = "scene_fv_star"
PIPELINE_FRAME_FV = "frame_fv_star"
PIPELINES = (PIPELINE_BF_GD, PIPELINE_BF_PI, PIPELINE_SCENE_FV, PIPELINE_FRAME_FV)

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

    pipeline: str = PIPELINE_BF_GD
    family: str = "lsh_c"
    domain: str = DOMAIN_GBH
    M: int = 16
    n: int = 8
    K: int = 16
    d: int = 8
    alpha: float = 0.5
    scoring: str = SCORE_TFIDF
    partitioned: bool = True
    seed: int = 0
    trials: int = 1
    shortlist_size: int = 100
    top_k: int = 0

    def __post_init__(self):
        if self.pipeline not in PIPELINES:
            raise ConfigError(f"unknown pipeline {self.pipeline!r}")
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown hash family {self.family!r}")
        if self.domain not in DOMAINS:
            raise ConfigError(f"unknown hash domain {self.domain!r}")
        for name in ("M", "n", "K", "d", "trials", "shortlist_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.n > 24:
            raise ConfigError("n must be <= 24")
        if self.scoring not in (SCORE_HASH_MATCHES, SCORE_TFIDF):
            raise ConfigError(f"unknown scoring mode {self.scoring!r}")
        if self.top_k < 0:
            raise ConfigError("top_k must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.pipeline == PIPELINE_BF_PI and self.domain != DOMAIN_GBH:
            raise ConfigError("bf_pi requires domain = gbh")
        if self.pipeline == PIPELINE_BF_PI and self.M != self.K:
            raise ConfigError(f"bf_pi requires M = K, got M={self.M} K={self.K}")
        if self.domain == DOMAIN_GBH and self.pipeline in (PIPELINE_BF_GD, PIPELINE_BF_PI) \
                and self.M != self.K:
            raise ConfigError(f"gbh requires M = K, got M={self.M} K={self.K}")
        if self.family == FAMILY_VQ and self.n > 16:
            raise ConfigError("vq requires n <= 16")

    @property
    def input_dim(self) -> int:
        return self.d if self.domain == DOMAIN_GBH else self.K * self.d

    def hash_config(self) -> HashFamilyConfig:
        return HashFamilyConfig(family=self.family, domain=self.domain, M=self.M,
                                n=self.n, input_dim=self.input_dim, seed=self.seed)

    def filter_config(self) -> FilterConfig:
        if self.partitioned:
            return FilterConfig(partitioned=True, M=self.M, L_p=1 << self.n)
        return FilterConfig(partitioned=False, M=self.M, L_np=1 << self.n)

    def scoring_config(self) -> ScoringConfig:
        return ScoringConfig(mode=self.scoring, alpha=self.alpha)


_INT_KEYS = ("M", "n", "K", "d", "seed", "trials", "shortlist_size", "top_k")
_FLOAT_KEYS = ("alpha",)
_BOOL_KEYS = ("partitioned",)
_STR_KEYS = ("pipeline", "family", "domain", "scoring")
_ALL_KEYS = _INT_KEYS + _FLOAT_KEYS + _BOOL_KEYS + _STR_KEYS


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def resolve_config(args) -> RunConfig:
    """Layer defaults, config file, then CLI flags into a validated RunConfig."""
    values = {}
    if getattr(args, "config", None):
        raw = storage.read_config_file(args.config)
        for key, val in raw.items():
            if key not in _ALL_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                if key in _INT_KEYS:
                    values[key] = int(val)
                elif key in _FLOAT_KEYS:
                    values[key] = float(val)
                elif key in _BOOL_KEYS:
                    values[key] = _parse_bool(val)
                else:
                    values[key] = val
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {val!r}") from exc
    for key in _ALL_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return RunConfig(**values)


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", metavar="PATH", help="key = value settings file")
    p.add_argument("--seed", type=int, help="base random seed")
    p.add_argument("--threads", type=int, default=1, metavar="N")
    p.add_argument("--output", metavar="PATH", help="output directory or file")


def _config_flags(p: argparse.ArgumentParser):
    p.add_argument("--pipeline", choices=PIPELINES)
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--domain", choices=DOMAINS)
    p.add_argument("--M", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--K", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--scoring", choices=(SCORE_HASH_MATCHES, SCORE_TFIDF))
    p.add_argument("--partitioned", type=_parse_bool, metavar="BOOL")
    p.add_argument("--trials", type=int)
    p.add_argument("--shortlist_size", type=int)
    p.add_argument("--top_k", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qivr", description="Query-by-image video retrieval over Bloom-filtered scenes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit PCA + GMM and build the hash bank")
    p.add_argument("manifest", help="training manifest (tsv)")
    _common_flags(p)
    _config_flags(p)

    p = sub.add_parser("build", help="index a scene manifest")
    p.add_argument("manifest", help="scene manifest (tsv)")
    p.add_argument("--models", required=True, metavar="DIR", help="directory from `train`")
    p.add_argument("--filters", metavar="PATH", help="also export the filter set (QIVB)")
    _common_flags(p)
    _config_flags(p)

    p = sub.add_parser("query", help="rank scenes for one query descriptor file")
    p.add_argument("index", help="index file (QIVI)")
    p.add_argument("query", help="query descriptor file (QIVD)")
    p.add_argument("--models", required=True, metavar="DIR")
    _common_flags(p)
    _config_flags(p)

    p = sub.add_parser("evaluate", help="benchmark an index against ground truth")
    p.add_argument("index", help="index (QIVI) or FV-star database (QIVF)")
    p.add_argument("queries", help="query manifest (tsv)")
    p.add_argument("truth", help="ground-truth tsv")
    p.add_argument("--models", required=True, metavar="DIR")
    p.add_argument("--manifest", metavar="PATH",
                   help="scene manifest, needed to rebuild per-trial indexes")
    p.add_argument("--rerank", action="store_true",
                   help="re-rank FV-star shortlists with the shot database")
    p.add_argument("--json", action="store_true", help="write the report as JSON")
    p.add_argument("--end_to_end", action="store_true",
                   help="time embedding + retrieval instead of retrieval only")
    _common_flags(p)
    _config_flags(p)

    p = sub.add_parser("gen-synth", help="generate a synthetic planted dataset")
    p.add_argument("--scenes", type=int, default=30)
    p.add_argument("--frames", type=int, default=10)
    p.add_argument("--descriptors", type=int, default=32)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--queries", type=int, default=20)
    p.add_argument("--noise_sigma", type=float, default=0.1)
    p.add_argument("--center_radius", type=float, default=8.0)
    p.add_argument("--cloud_sigma", type=float, default=1.0)
    _common_flags(p)
    return parser


# ------------------------------------------------------------ training

def _load_training(manifest_path):
    scenes, _ = storage.read_manifest(manifest_path)
    corpus = []
    for scene in scenes:
        for ref in scene.frame_refs:
            dset = storage.frame_loader(ref)
            if dset.n:
                corpus.append(dset)
    return scenes, corpus


def _vq_pools(cfg: RunConfig, corpus, pca, gmm):
    """Training pools for VQ centroids, matching what the pipeline hashes."""
    if cfg.domain == DOMAIN_VBH:
        fvs = []
        for dset in corpus:
            fv = compute_fv(gmm, apply_pca(pca, dset), normalize=True)
            fvs.append(fv.values)
        return np.asarray(fvs)
    if cfg.pipeline == PIPELINE_BF_PI:
        projected = np.vstack([apply_pca(pca, d).vectors for d in corpus])
        comp, _, residuals = point_index_batch(gmm, projected)
        return [residuals[comp == r] for r in range(cfg.K)]
    # bf_gd over per-Gaussian FV chunks
    chunks = [[] for _ in range(cfg.K)]
    for dset in corpus:
        fv = compute_fv(gmm, apply_pca(pca, dset), normalize=True)
        for k, chunk in enumerate(fv.values.reshape(cfg.K, cfg.d)):
            chunks[k].append(chunk)
    return [np.asarray(c) for c in chunks]


def cmd_train(args, cfg: RunConfig) -> int:
    outdir = Path(args.output or "models")
    _, corpus = _load_training(args.manifest)
    if not corpus:
        raise QivrError("training manifest holds no descriptors")
    pca = fit_pca(corpus, cfg.d)
    projected = [apply_pca(pca, d) for d in corpus]
    gmm = fit_gmm(projected, cfg.K, seed=cfg.seed)
    if not gmm.converged:
        trace = gmm.ll_trace
        print(f"warning: EM stopped at its cap of {len(trace)} iterations before "
              f"converging; last log-likelihood gain {trace[-1] - trace[-2]:.3g}",
              file=sys.stderr)

    outdir.mkdir(parents=True, exist_ok=True)
    storage.write_model(outdir / PCA_FILE, pca)
    storage.write_model(outdir / GMM_FILE, gmm)

    bank = None
    if cfg.pipeline in (PIPELINE_BF_GD, PIPELINE_BF_PI):
        hcfg = cfg.hash_config()
        if cfg.family == FAMILY_VQ:
            pools = _vq_pools(cfg, corpus, pca, gmm)
            bank = train_vq_bank(pools, hcfg)
            if not bank.report.clean:
                sizes = ", ".join(f"hash {m} ({size} points)"
                                  for m, size in bank.report.fallbacks)
                print(f"warning: sampled-centroid fallback for {sizes}", file=sys.stderr)
        else:
            bank = sample_hash_bank(hcfg)
        storage.write_bank(outdir / BANK_FILE, bank)

    _print_digests(pca, gmm, bank)
    return 0


def _print_digests(pca, gmm, bank):
    import hashlib
    print(f"pca_sha256 = {hashlib.sha256(storage.model_to_bytes(pca)).hexdigest()}")
    print(f"gmm_sha256 = {hashlib.sha256(storage.model_to_bytes(gmm)).hexdigest()}")
    if bank is not None:
        print(f"bank_sha256 = {hashlib.sha256(storage.bank_to_bytes(bank)).hexdigest()}")


def _load_bundle(models_dir, need_bank: bool = True) -> ModelBundle:
    models_dir = Path(models_dir)
    pca = storage.read_model(models_dir / PCA_FILE)
    gmm = storage.read_model(models_dir / GMM_FILE)
    if not need_bank:
        return ModelBundle(pca=pca, gmm=gmm, bank=None)
    bank = storage.read_bank(models_dir / BANK_FILE)
    return storage.make_bundle(pca, gmm, bank)


# ------------------------------------------------------------ building

def _check_models_match(cfg: RunConfig, bundle: ModelBundle):
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


def cmd_build(args, cfg: RunConfig) -> int:
    outdir = Path(args.output or "index")
    outdir.mkdir(parents=True, exist_ok=True)
    scenes, shots = storage.read_manifest(args.manifest)

    if cfg.pipeline in (PIPELINE_SCENE_FV, PIPELINE_FRAME_FV):
        bundle = _load_bundle(args.models, need_bank=False)
        _check_models_match(cfg, bundle)
        builder = (baseline.build_scene_fv_star if cfg.pipeline == PIPELINE_SCENE_FV
                   else baseline.build_frame_fv_star)
        db = builder(scenes, bundle.pca, bundle.gmm, storage.frame_loader)
        storage.write_fvstar(outdir / FVSTAR_FILE, db)
        print(f"entries = {db.n_entries}")
        print(f"skipped = {db.skipped}")
        print(f"database_bytes = {len(storage.fvstar_to_bytes(db))}")
        if shots:
            shot_db = baseline.build_shot_fv_star(shots, bundle.pca, bundle.gmm,
                                                  storage.frame_loader)
            storage.write_fvstar(outdir / SHOTS_FILE, shot_db)
            print(f"shot_entries = {shot_db.n_entries}")
        return 0

    bundle = _load_bundle(args.models)
    _check_models_match(cfg, bundle)
    build = build_bf_gd if cfg.pipeline == PIPELINE_BF_GD else build_bf_pi
    index = build(scenes, bundle, cfg.filter_config(), storage.frame_loader)
    index_path = storage.write_index(outdir / INDEX_FILE, index)
    if args.filters:
        storage.write_filters(args.filters, materialize_filters(index),
                              index.filter_config)
    stats = index.stats
    print(f"scenes = {stats.scenes}")
    print(f"frames = {stats.frames}")
    print(f"descriptors = {stats.descriptors}")
    print(f"skipped_empty_frames = {stats.skipped_empty_frames}")
    print(f"index_bytes = {index_path.stat().st_size}")
    for sid, count in zip(index.scene_ids, stats.per_scene_setbits):
        print(f"setbits {sid} = {count}")
    return 0


# ------------------------------------------------------------ querying

def cmd_query(args, cfg: RunConfig) -> int:
    index = storage.read_index(args.index)
    bundle = _load_bundle(args.models)
    query = storage.read_descriptors(args.query)
    idf = compute_idf(index)
    top_k = cfg.top_k if cfg.top_k else index.n_scenes
    result = score_query(index, idf, cfg.scoring_config(), query, bundle, top_k)
    lines = [f"{rank}\t{sid}\t{score:.6f}"
             for rank, (sid, score) in enumerate(result.ranking, start=1)]
    text = "\n".join(lines) + f"\nlatency_seconds = {result.latency_seconds:.6f}\n"
    sys.stdout.write(text)
    if args.output:
        Path(args.output).write_text(text)
    return 0


# ------------------------------------------------------------ evaluation

def _load_queries(path):
    return [(qid, storage.read_descriptors(qpath, source_id=qid))
            for qid, qpath in storage.read_queries(path)]


def cmd_evaluate(args, cfg: RunConfig) -> int:
    queries = _load_queries(args.queries)
    truth = storage.read_ground_truth(args.truth)
    index_path = Path(args.index)

    if index_path.suffix == ".qivf" or cfg.pipeline in (PIPELINE_SCENE_FV,
                                                        PIPELINE_FRAME_FV):
        bundle = _load_bundle(args.models, need_bank=False)
        db = storage.read_fvstar(index_path)
        shot_db = None
        if args.rerank:
            shots_path = index_path.parent / SHOTS_FILE
            if not shots_path.exists():
                raise QivrError(f"--rerank needs a shot database at {shots_path}")
            shot_db = storage.read_fvstar(shots_path)
        report = evaluation.run_fvstar_benchmark(
            db, bundle, queries, truth, top_k=cfg.top_k, shot_db=shot_db,
            shortlist_size=cfg.shortlist_size, threads=args.threads)
        return _emit_report(args, report)

    index = storage.read_index(index_path)
    bundle = _load_bundle(args.models)
    scoring = cfg.scoring_config()
    randomized = index.hash_config.family in RANDOMIZED_FAMILIES
    n_trials = cfg.trials if randomized else 1
    if n_trials < cfg.trials:
        print(f"note: {index.hash_config.family} is deterministic; running 1 trial",
              file=sys.stderr)
    if n_trials > 1 and not args.manifest:
        raise ConfigError("--manifest is required when trials > 1 (per-trial rebuilds)")

    reports = [evaluation.run_benchmark(index, bundle, scoring, queries, truth,
                                        top_k=cfg.top_k, threads=args.threads,
                                        end_to_end=args.end_to_end)]
    if n_trials > 1:
        scenes, _ = storage.read_manifest(args.manifest)
        base_hcfg = index.hash_config
        for t in range(1, n_trials):
            hcfg = dataclasses.replace(base_hcfg, seed=base_hcfg.seed + t)
            bank_t = sample_hash_bank(hcfg)
            bundle_t = storage.make_bundle(bundle.pca, bundle.gmm, bank_t)
            build = build_bf_gd if index.pipeline == PIPELINE_BF_GD else build_bf_pi
            index_t = build(scenes, bundle_t, index.filter_config, storage.frame_loader)
            reports.append(evaluation.run_benchmark(
                index_t, bundle_t, scoring, queries, truth, top_k=cfg.top_k,
                threads=args.threads, end_to_end=args.end_to_end))
    report = evaluation.aggregate_trials(reports) if len(reports) > 1 else reports[0]
    return _emit_report(args, report)


def _emit_report(args, report) -> int:
    text = evaluation.format_report(report)
    sys.stdout.write(text)
    if args.output:
        payload = evaluation.report_json(report) if args.json else text
        Path(args.output).write_text(payload)
    return 0


# ------------------------------------------------------------ synthesis

def cmd_gen_synth(args, _cfg=None) -> int:
    spec = evaluation.SyntheticSpec(
        scene_count=args.scenes, frames_per_scene=args.frames,
        descriptors_per_frame=args.descriptors, d=args.dim,
        query_count=args.queries, noise_sigma=args.noise_sigma,
        seed=args.seed if args.seed is not None else 0,
        center_radius=args.center_radius, cloud_sigma=args.cloud_sigma)
    paths = evaluation.gen_synthetic(spec, args.output or "synthetic")
    print(f"manifest = {paths.manifest}")
    print(f"queries = {paths.queries}")
    print(f"ground_truth = {paths.ground_truth}")
    return 0


COMMANDS = {
    "train": cmd_train,
    "build": cmd_build,
    "query": cmd_query,
    "evaluate": cmd_evaluate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen-synth":
            return cmd_gen_synth(args)
        cfg = resolve_config(args)
        return COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (QivrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
