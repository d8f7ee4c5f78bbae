"""Byte and ranking identity of qivr between two source trees.

Run once per tree, on one machine, then compare the two records:

    python3 benchmarks/identity.py TREE OUT.json
    python3 benchmarks/identity.py --compare A.json B.json

TREE is a checkout that holds ``src/qivr``; qivr is imported from there.
The 24 identity setups run through ``cli.main``:

- the C07 corpus (100 scenes x 30 frames x 64 descriptors, seed 107) under
  ``bf_gd`` and ``bf_pi``, with a VQ bank, K = M = 16, d = 8 and n = 10;
- a 12-scene world under ``lsh_c``, ``lsh_s``, ``lsh_b`` and ``vq``, each
  with ``bf_gd`` and ``bf_pi``, partitioned and flat;
- ``bf_gd`` over the ``vbh`` domain with each of the four families;
- ``scene_fv_star`` and ``frame_fv_star``, evaluated with ``--rerank``.

For each setup the record holds the sha256 of every file ``train`` and
``build`` write (models, index or database, and the exported filters); the
exit code, stdout and stderr of ``train``, ``build``, ``evaluate`` (in both
scoring modes, and with ``--trials 3`` for the randomized families) and
``query``, with the latency lines dropped; and a sha256 of every query's
ranking with ``repr`` scores, in both scoring modes. For the FV* setups the
rankings are the scene-collapsed Hamming lists and their re-ranked
shortlists, plus the ``repr`` of ``run_fvstar_benchmark``'s per-query AP,
with and without the shot database.

``--compare`` prints every key whose value differs, or that only one record
has, and exits 1 if there is any. Keep both runs on one machine: BLAS builds
round differently on others, so the records are not portable.
"""

import os

# one BLAS thread, fixed before numpy loads, so both runs add in one order
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

FAMILIES = ("lsh_c", "lsh_s", "lsh_b", "vq")
RANDOMIZED = ("lsh_c", "lsh_s", "lsh_b")
MODES = ("tfidf", "hash_matches")
LATENCY_LINES = ("mean_latency_seconds", "latency_seconds")

# gen-synth arguments of the two corpora
CORPORA = {
    "c07": ["--scenes", "100", "--frames", "30", "--descriptors", "64", "--dim", "8",
            "--queries", "20", "--noise_sigma", "0.1", "--seed", "107"],
    "world": ["--scenes", "12", "--frames", "6", "--descriptors", "24", "--dim", "8",
              "--queries", "12", "--noise_sigma", "0.3", "--seed", "5"],
}
C07_FLAGS = ["--family", "vq", "--domain", "gbh", "--K", "16", "--M", "16", "--d", "8",
             "--n", "10"]
WORLD_FLAGS = ["--K", "4", "--d", "6", "--n", "6"]


def setups():
    """(name, corpus, flags) of every identity setup."""
    out = [(f"c07_{p}", "c07", ["--pipeline", p] + C07_FLAGS) for p in ("bf_gd", "bf_pi")]
    for family in FAMILIES:
        for p in ("bf_gd", "bf_pi"):
            for partitioned in ("true", "false"):
                layout = "partitioned" if partitioned == "true" else "flat"
                out.append((f"world_{family}_{p}_{layout}", "world",
                            ["--pipeline", p, "--family", family, "--domain", "gbh",
                             "--M", "4", "--partitioned", partitioned] + WORLD_FLAGS))
        out.append((f"world_{family}_bf_gd_vbh", "world",
                    ["--pipeline", "bf_gd", "--family", family, "--domain", "vbh",
                     "--M", "6"] + WORLD_FLAGS))
    for p in ("scene_fv_star", "frame_fv_star"):
        out.append((f"world_{p}", "world", ["--pipeline", p] + WORLD_FLAGS))
    return out


def flag(flags, name):
    """The value given to `name` in a flag list, or None."""
    return flags[flags.index(name) + 1] if name in flags else None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Runner:
    """Runs the setups against one imported qivr and fills `record`."""

    def __init__(self, work: Path):
        from qivr import cli
        self.cli = cli
        self.work = work
        self.record = {}

    def scrub(self, text: str) -> str:
        lines = [line for line in text.splitlines()
                 if not line.startswith(LATENCY_LINES)]
        return "\n".join(lines).replace(str(self.work), "<work>")

    def qivr(self, key: str, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main([str(a) for a in argv])
        self.record[key] = {"exit": code, "stdout": self.scrub(out.getvalue()),
                            "stderr": self.scrub(err.getvalue())}

    def corpus(self, name: str) -> Path:
        root = self.work / name
        self.qivr(f"{name}/gen-synth", ["gen-synth", "--output", root] + CORPORA[name])
        blob = hashlib.sha256()
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            blob.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
        self.record[f"{name}/data"] = blob.hexdigest()
        return root

    def setup(self, name: str, data: Path, flags):
        from qivr import pipeline
        manifest, queries, truth = (data / "manifest.tsv", data / "queries.tsv",
                                    data / "ground_truth.tsv")
        models, built = self.work / name / "models", self.work / name / "index"
        fvstar = flag(flags, "--pipeline") in (pipeline.PIPELINE_SCENE_FV,
                                               pipeline.PIPELINE_FRAME_FV)
        self.qivr(f"{name}/train", ["train", manifest, "--output", models] + flags)
        extra = [] if fvstar else ["--filters", built / "filters.qivb"]
        self.qivr(f"{name}/build", ["build", manifest, "--models", models,
                                    "--output", built] + extra + flags)
        for path in sorted(p for d in (models, built) for p in d.iterdir()):
            self.record[f"{name}/sha256/{path.parent.name}/{path.name}"] = sha256(
                path.read_bytes())

        if fvstar:
            self.qivr(f"{name}/evaluate", ["evaluate", built / pipeline.FVSTAR_FILE, queries,
                                           truth, "--models", models, "--rerank"] + flags)
            self.fvstar_rankings(name, built, models, queries, truth)
            return
        index_path = built / pipeline.INDEX_FILE
        evaluate = ["evaluate", index_path, queries, truth, "--models", models] + flags
        for mode in MODES:
            self.qivr(f"{name}/evaluate/{mode}", evaluate + ["--scoring", mode])
        if flag(flags, "--family") in RANDOMIZED:
            self.qivr(f"{name}/evaluate/trials3",
                      evaluate + ["--trials", "3", "--manifest", manifest])
        self.qivr(f"{name}/query", ["query", index_path, data / "queries" / "query0000.qivd",
                                    "--models", models] + flags)
        self.index_rankings(name, index_path, models, queries)

    def index_rankings(self, name, index_path, models, queries):
        from qivr import pipeline, storage
        from qivr.index import ScoringConfig, compute_idf, score_query
        index = storage.read_index(index_path)
        bundle = pipeline.load_models(models)
        idf = compute_idf(index)
        for mode in MODES:
            scoring = ScoringConfig(mode, 0.5)
            for qid, query in pipeline.load_queries(queries):
                ranking = score_query(index, idf, scoring, query, bundle, index.n_scenes).ranking
                self.record[f"{name}/ranking/{mode}/{qid}"] = sha256(repr(ranking).encode())

    def fvstar_rankings(self, name, built, models, queries, truth):
        from qivr import baseline, evaluation, pipeline, storage
        db = storage.read_fvstar(built / pipeline.FVSTAR_FILE)
        shot_db = storage.read_fvstar(built / pipeline.SHOTS_FILE)
        bundle = pipeline.load_models(models, need_bank=False)
        loaded = pipeline.load_queries(queries)
        for qid, query in loaded:
            words = baseline.encode_query(bundle.pca, bundle.gmm, query)
            order, dists = baseline.hamming_rank(db, words)
            ranking = baseline.scenes_from_ranking(db, order, dists)
            reranked = baseline.rerank_shortlist([sid for sid, _ in ranking], shot_db, words)
            self.record[f"{name}/ranking/hamming/{qid}"] = sha256(repr(ranking).encode())
            self.record[f"{name}/ranking/rerank/{qid}"] = sha256(repr(reranked).encode())
        ground_truth = storage.read_ground_truth(truth)
        for label, shots in (("plain", None), ("shots", shot_db)):
            report = evaluation.run_fvstar_benchmark(db, bundle, loaded, ground_truth,
                                                     shot_db=shots)
            self.record[f"{name}/per_query_ap/{label}"] = repr(report.per_query_ap)


def run(tree: Path, out: Path) -> int:
    src = tree.resolve() / "src"
    if not (src / "qivr" / "__init__.py").is_file():
        print(f"error: no qivr sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import qivr
    if Path(qivr.__file__).resolve().parent != src / "qivr":
        print(f"error: imported qivr from {qivr.__file__}, not from {src}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="qivr-identity-") as tmp:
        runner = Runner(Path(tmp))
        data = {name: runner.corpus(name) for name in CORPORA}
        for name, corpus, flags in setups():
            runner.setup(name, data[corpus], flags)
    out.write_text(json.dumps(runner.record, indent=1, sort_keys=True) + "\n")
    print(f"{len(setups())} setups, {len(runner.record)} records -> {out}")
    return 0


def compare(a_path: Path, b_path: Path) -> int:
    a = json.loads(a_path.read_text())
    b = json.loads(b_path.read_text())
    diffs = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    for key in diffs:
        if key not in a or key not in b:
            print(f"only in {a_path if key in a else b_path}: {key}")
        else:
            print(f"differs: {key}\n  {a[key]!r}\n  {b[key]!r}")
    print(f"{len(diffs)} differences over {len(a.keys() | b.keys())} records")
    return 1 if diffs else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs=2, type=Path, metavar="PATH",
                        help="TREE OUT.json, or two records with --compare")
    parser.add_argument("--compare", action="store_true",
                        help="compare two records instead of running a tree")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.paths)
    return run(*args.paths)


if __name__ == "__main__":
    sys.exit(main())
