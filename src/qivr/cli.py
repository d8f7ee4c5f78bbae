"""Command-line interface: train, build, query, evaluate, gen-synth.

The commands parse their arguments, print and pick exit codes; the stages
they run live in `pipeline`. Settings resolve in three layers: built-in
desk-scale defaults, then a `key = value` config file (--config), then
explicit command-line flags.
Exit codes: 0 success, 2 config validation failure, 1 any other error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

from . import evaluation, pipeline, storage
from .errors import ConfigError, QivrError
from .hashing import DOMAINS, FAMILIES
from .index import (SCORE_HASH_MATCHES, SCORE_TFIDF, compute_idf,
                    materialize_filters, score_query)
# the model and index file names are read from here by e2ebench/flow.py
from .pipeline import (BANK_FILE, FVSTAR_FILE, GMM_FILE, INDEX_FILE,  # noqa: F401
                       PCA_FILE, PIPELINE_FRAME_FV, PIPELINE_SCENE_FV, PIPELINES,
                       SHOTS_FILE, RunConfig)


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


# ------------------------------------------------------------ commands

def cmd_train(args, cfg: RunConfig) -> int:
    bundle = pipeline.train(cfg, args.manifest)
    if not bundle.gmm.converged:
        trace = bundle.gmm.ll_trace
        print(f"warning: EM stopped at its cap of {len(trace)} iterations before "
              f"converging; last log-likelihood gain {trace[-1] - trace[-2]:.3g}",
              file=sys.stderr)
    report = bundle.bank.report if bundle.bank is not None else None
    if report is not None and not report.clean:
        sizes = ", ".join(f"hash {m} ({size} points)" for m, size in report.fallbacks)
        print(f"warning: sampled-centroid fallback for {sizes}", file=sys.stderr)
    pipeline.save_models(args.output or "models", bundle)
    _print_digests(bundle)
    return 0


def _print_digests(bundle):
    print(f"pca_sha256 = {hashlib.sha256(storage.model_to_bytes(bundle.pca)).hexdigest()}")
    print(f"gmm_sha256 = {hashlib.sha256(storage.model_to_bytes(bundle.gmm)).hexdigest()}")
    if bundle.bank is not None:
        print(f"bank_sha256 = {hashlib.sha256(storage.bank_to_bytes(bundle.bank)).hexdigest()}")


def cmd_build(args, cfg: RunConfig) -> int:
    outdir = Path(args.output or "index")
    outdir.mkdir(parents=True, exist_ok=True)
    scenes, shots = storage.read_manifest(args.manifest)
    fvstar = cfg.pipeline in (PIPELINE_SCENE_FV, PIPELINE_FRAME_FV)
    if fvstar and args.filters:
        raise ConfigError(f"--filters exports Bloom filters; {cfg.pipeline} builds none")
    bundle = pipeline.load_models(args.models, need_bank=not fvstar)
    pipeline.check_models_match(cfg, bundle)

    if fvstar:
        db, shot_db = pipeline.build_fvstar(cfg.pipeline, scenes, shots, bundle)
        db_path = storage.write_fvstar(outdir / FVSTAR_FILE, db)
        print(f"entries = {db.n_entries}")
        print(f"skipped = {db.skipped}")
        print(f"database_bytes = {db_path.stat().st_size}")
        if shot_db is not None:
            storage.write_fvstar(outdir / SHOTS_FILE, shot_db)
            print(f"shot_entries = {shot_db.n_entries}")
        return 0

    index = pipeline.build_index(cfg.pipeline, scenes, bundle, cfg.filter_config())
    index_path = storage.write_index(outdir / INDEX_FILE, index)
    if args.filters:
        storage.write_filters(args.filters, materialize_filters(index),
                              index.filter_config)
    stats = index.stats
    print(f"scenes = {index.n_scenes}")
    print(f"frames = {stats.frames}")
    print(f"descriptors = {stats.descriptors}")
    print(f"skipped_empty_frames = {stats.skipped_empty_frames}")
    print(f"index_bytes = {index_path.stat().st_size}")
    for sid, count in zip(index.scene_ids, index.per_scene_setbits):
        print(f"setbits {sid} = {count}")
    return 0


def cmd_query(args, cfg: RunConfig) -> int:
    index = storage.read_index(args.index)
    bundle = pipeline.load_models(args.models)
    query = storage.read_descriptors(args.query)
    idf = compute_idf(index)
    top_k = cfg.top_k if cfg.top_k else index.n_scenes
    t0 = time.perf_counter()
    result = score_query(index, idf, cfg.scoring_config(), query, bundle, top_k)
    latency = time.perf_counter() - t0
    lines = [f"{rank}\t{sid}\t{score:.6f}"
             for rank, (sid, score) in enumerate(result.ranking, start=1)]
    text = "\n".join(lines) + f"\nlatency_seconds = {latency:.6f}\n"
    sys.stdout.write(text)
    if args.output:
        Path(args.output).write_text(text)
    return 0


def cmd_evaluate(args, cfg: RunConfig) -> int:
    index_path = Path(args.index)
    fvstar = index_path.suffix == ".qivf" or cfg.pipeline in (PIPELINE_SCENE_FV,
                                                              PIPELINE_FRAME_FV)
    if args.rerank and not fvstar:
        raise ConfigError("--rerank re-ranks FV-star shortlists; "
                          f"{index_path.name} is not an FV-star database")
    queries = pipeline.load_queries(args.queries)
    truth = storage.read_ground_truth(args.truth)

    if fvstar:
        bundle = pipeline.load_models(args.models, need_bank=False)
        db = storage.read_fvstar(index_path)
        shot_db = None
        if args.rerank:
            shots_path = index_path.parent / SHOTS_FILE
            if not shots_path.exists():
                raise QivrError(f"--rerank needs a shot database at {shots_path}")
            shot_db = storage.read_fvstar(shots_path)
        report = evaluation.run_fvstar_benchmark(
            db, bundle, queries, truth, top_k=cfg.top_k, shot_db=shot_db,
            shortlist_size=cfg.shortlist_size)
        return _emit_report(args, report)

    index = storage.read_index(index_path)
    bundle = pipeline.load_models(args.models)
    family = index.hash_config.family
    n_trials = cfg.trials_for(family)
    if n_trials < cfg.trials:
        print(f"note: {family} is deterministic; running 1 trial", file=sys.stderr)
    if n_trials > 1 and not args.manifest:
        raise ConfigError("--manifest is required when trials > 1 (per-trial rebuilds)")
    scenes = storage.read_manifest(args.manifest)[0] if n_trials > 1 else ()
    report = pipeline.evaluate_index(cfg, index, bundle, queries, truth, n_trials, scenes)
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
