"""One benchmark run: make a corpus, index it, serve it, check it, time it.

Every workload runs qivr the way its users do. `qivr train` and
`qivr build` index the collection once (through `cli.main` in this
process). Serving opens the index and its models, then answers image
queries one at a time in a closed loop with one client, and as one batch
through `qivr evaluate --json`.

A run writes the corpus, then makes `CYCLES` cycles of: train, build,
open the index (several times), evaluate, one timed round over the query
set. An operation repeated fewer times than there are cycles runs in the
first and last cycles (and evenly between), so its repeats lie far apart.
The first cycle also makes an untimed warm-up round and checks its
rankings and the files. Then come at least `EXTRA_ROUNDS` more timed
rounds, and more until `--seconds` have passed since the first train. The
traced run stops after the cycles, so its totals compare across commits.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

BENCH_DIR = Path(__file__).resolve().parent
CYCLES = 3  # see Run.execute; each cycle ends with a timed query round
EXTRA_ROUNDS = 2  # timed query rounds after the cycles, at least
CHECK_EVERY = 4  # dense-scan and FV* checks look at every 4th query
FRAME_SAMPLES = 64  # indexed frames probed by the no-false-negative check

# The C07 hash setup; every workload passes the same flags.
SETUP_FLAGS = ["--family", "vq", "--domain", "gbh", "--K", "16", "--M", "16",
               "--d", "8", "--n", "10", "--scoring", "tfidf", "--alpha", "0.5"]
ALPHA = 0.5


@dataclass(frozen=True)
class Workload:
    pipeline: str
    scenes: int
    frames: int        # per scene
    descriptors: int   # per frame
    center_radius: float
    queries: int
    trains: int        # repeats per run of each timed operation, at most
    builds: int        # one per cycle (opens: spread evenly over the cycles)
    opens: int
    evaluates: int


# The seed changes every descriptor and query but not the amount of work, so
# timings repeat across seeds. pi_short: 16 scenes far apart (radius 1000,
# unit clouds), one per GMM component, so EM stops within a few iterations
# and every VQ pool holds one scene's 1536 residuals (> 1024 centroids).
# gd_long and fvstar_long: 32 overlapping scenes (radius 2), on which EM
# always runs to its 100-iteration cap; 1280 frames >= 2^10 centroids, so
# every bf_gd VQ pool is trained.
WORKLOADS = {
    "pi_short": Workload("bf_pi", 16, 24, 64, 1000.0, 1000,
                         trains=2, builds=3, opens=15, evaluates=3),
    "gd_long": Workload("bf_gd", 32, 40, 8, 2.0, 1000,
                        trains=2, builds=2, opens=9, evaluates=2),
    "fvstar_long": Workload("frame_fv_star", 32, 40, 8, 2.0, 1000,
                            trains=3, builds=3, opens=45, evaluates=3),
}


def spread(repeats: int) -> set:
    """The cycles an operation repeated `repeats` times runs in: the first,
    the last and evenly between."""
    if repeats <= 1:
        return {0}
    return {round(i * (CYCLES - 1) / (repeats - 1)) for i in range(repeats)}


class Run:
    """State of one run; `tracer` is None in the untraced run.

    qivr's functions are looked up when called (module attributes, imports
    inside methods), never bound when this module loads, so the traced run
    sees the wrappers `tracer.Tracer.install` puts in their place.
    """

    def __init__(self, name: str, seed: int, seconds: float, tracer):
        from qivr import cli, evaluation
        self.cli = cli
        self.evaluation = evaluation
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.problems: list[str] = []
        self.work = BENCH_DIR / "_work" / f"{name}-seed{seed}"
        self.fvstar = self.wl.pipeline == cli.PIPELINE_FRAME_FV
        self.flags = ["--pipeline", self.wl.pipeline] + SETUP_FLAGS

    # --------------------------------------------------------- helpers

    def span(self, name):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.request_span(f"bench.{name}")

    def quiet(self):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.pause()

    def timed(self, name, fn):
        """Time one operation. A failure ends the run without a result."""
        gc.collect()
        self.attempted += 1
        with self.span(name):
            t0 = time.perf_counter()
            result = fn()
            return time.perf_counter() - t0, result

    def qivr(self, name, argv):
        """Run one qivr command in this process, capturing its output."""
        out, err = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
            return out.getvalue(), err.getvalue()

        return self.timed(name, call)

    # ------------------------------------------------------------ phases

    def make_corpus(self):
        ev = self.evaluation
        spec = ev.SyntheticSpec(
            scene_count=self.wl.scenes, frames_per_scene=self.wl.frames,
            descriptors_per_frame=self.wl.descriptors, d=8,
            query_count=self.wl.queries, noise_sigma=0.1, seed=self.seed,
            center_radius=self.wl.center_radius)
        shutil.rmtree(self.work, ignore_errors=True)
        with self.quiet():
            self.paths = ev.gen_synthetic(spec, self.work / "data")
        self.models = self.work / "models"
        self.index_path = self.work / "index" / (
            self.cli.FVSTAR_FILE if self.fvstar else self.cli.INDEX_FILE)

    def train(self):
        dt, (out, err) = self.qivr("train", ["train", str(self.paths.manifest),
                                             "--output", str(self.models)] + self.flags)
        self.digests.append(sorted(line for line in out.splitlines() if "_sha256 = " in line))
        if "fallback" in err.lower():
            self.problems.append(f"VQ training fell back to sampled centroids: {err.strip()}")
        return dt

    def build(self):
        dt, (out, _) = self.qivr("build", ["build", str(self.paths.manifest),
                                           "--models", str(self.models),
                                           "--output", str(self.index_path.parent)] + self.flags)
        self.blobs.append(self.index_path.read_bytes())
        self.index_bytes = len(self.blobs[-1])
        printed = [int(line.split("=")[1]) for line in out.splitlines()
                   if line.startswith(("index_bytes =", "database_bytes ="))]
        if printed != [self.index_bytes]:
            self.problems.append(f"build printed sizes {printed}, file has {self.index_bytes}")
        return dt

    def open_index(self):
        """What `qivr query` and `qivr evaluate` do before their first query."""
        from qivr import cli, storage
        from qivr.index import ModelBundle, compute_idf
        pca = storage.read_model(self.models / cli.PCA_FILE)
        gmm = storage.read_model(self.models / cli.GMM_FILE)
        if self.fvstar:
            return storage.read_fvstar(self.index_path), ModelBundle(pca, gmm, None), None
        index = storage.read_index(self.index_path)
        bank = storage.read_bank(self.models / cli.BANK_FILE)
        return index, storage.make_bundle(pca, gmm, bank), compute_idf(index)

    def setup(self):
        dt, self.served = self.timed("setup", self.open_index)
        return dt

    def evaluate(self):
        report_path = self.work / "report.json"
        dt, _ = self.qivr("evaluate", ["evaluate", str(self.index_path),
                                       str(self.paths.queries), str(self.paths.ground_truth),
                                       "--models", str(self.models), "--json",
                                       "--output", str(report_path)] + self.flags)
        self.report = json.loads(report_path.read_text())
        if self.report.get("index_bytes") != self.index_bytes:
            self.problems.append(f"evaluate reports index_bytes {self.report.get('index_bytes')}, "
                                 f"the file has {self.index_bytes}")
        return self.wl.queries / dt

    def query_fn(self):
        """One query, from loaded descriptors to a ranked scene list."""
        from qivr import baseline
        from qivr.index import ScoringConfig, score_query
        served, bundle, idf = self.served
        if self.fvstar:
            def one(query):
                words = baseline.encode_query(bundle.pca, bundle.gmm, query)
                order, dists = baseline.hamming_rank(served, words)
                return baseline.scenes_from_ranking(served, order, dists)
            return one
        scoring = ScoringConfig(mode="tfidf", alpha=ALPHA)
        n_scenes = served.n_scenes
        return lambda query: score_query(served, idf, scoring, query, bundle, n_scenes).ranking

    def warm_up(self):
        """One untimed round over the query set; its rankings are checked."""
        from qivr import storage
        with self.quiet():
            self.queries = [(qid, storage.read_descriptors(path, source_id=qid))
                            for qid, path in storage.read_queries(self.paths.queries)]
        one = self.query_fn()
        self.rankings = {}
        for qid, query in self.queries:
            self.attempted += 1
            with self.span("query"):
                self.rankings[qid] = [sid for sid, _ in one(query)]

    def query_round(self) -> np.ndarray:
        """Every query once, timed one by one; latencies in ms."""
        one = self.query_fn()
        gc.collect()
        lat = np.empty(len(self.queries))
        for i, (_, query) in enumerate(self.queries):
            self.attempted += 1
            with self.span("query"):
                t0 = time.perf_counter()
                one(query)
                lat[i] = time.perf_counter() - t0
        return lat * 1e3

    # ------------------------------------------------------------ checks

    def check(self):
        from qivr import storage
        with self.quiet():
            truth = storage.read_ground_truth(self.paths.ground_truth)
            self.problems += checks.check_ap(self.rankings, truth, self.report)
            blob = self.index_path.read_bytes()
            if self.fvstar:
                again = storage.fvstar_to_bytes(storage.fvstar_from_bytes(blob))
                self.check_fvstar()
            else:
                again = storage.index_to_bytes(storage.index_from_bytes(blob))
                self.check_index()
            if again != blob:
                self.problems.append("reading and re-serializing the index changed its bytes")
            if len(blob) != self.index_bytes:
                self.problems.append("index file size changed")

    def check_index(self):
        from qivr import storage
        from qivr.index import ScoringConfig, query_bits, score_query
        index, bundle, idf = self.served
        scan = checks.DenseScan(index)
        sample = self.queries[::CHECK_EVERY]
        probes = {qid: query_bits(index, bundle, q) for qid, q in sample}
        for mode in ("tfidf", "hash_matches"):
            scoring = ScoringConfig(mode=mode, alpha=ALPHA)
            program = {qid: score_query(index, idf, scoring, q, bundle, index.n_scenes).ranking
                       for qid, q in sample}
            self.problems += checks.check_dense_scan(scan, probes, program, mode, ALPHA)
        scenes, _ = storage.read_manifest(self.paths.manifest)
        frames = [(s.scene_id, ref) for s in scenes for ref in s.frame_refs]
        picks = np.random.default_rng(self.seed).choice(len(frames), FRAME_SAMPLES, replace=False)
        frame_probes = []
        for i in sorted(picks):
            scene_id, ref = frames[i]
            dset = storage.frame_loader(ref)
            frame_probes.append((scene_id, dset.source_id, query_bits(index, bundle, dset)))
        self.problems += checks.check_no_false_negatives(scan, frame_probes)

    def check_fvstar(self):
        from qivr import baseline
        db, bundle, _ = self.served
        words, program, ranked = {}, {}, {}
        for qid, q in self.queries[::CHECK_EVERY]:
            words[qid] = baseline.encode_query(bundle.pca, bundle.gmm, q)
            program[qid] = baseline.hamming_rank(db, words[qid])
            ranked[qid] = self.rankings[qid]
        self.problems += checks.check_fvstar(db, words, program, ranked)

    # --------------------------------------------------------------- run

    def execute(self) -> dict:
        """Timed operations, interleaved in cycles so each metric's repeats
        spread over the whole run rather than one stretch of it."""
        wl = self.wl
        self.make_corpus()
        self.t0 = time.perf_counter()
        self.digests, self.blobs = [], []
        times = {"train": [], "build": [], "setup": [], "evaluate": []}
        rounds = []
        for cycle in range(CYCLES):
            if cycle in spread(wl.trains):
                times["train"].append(self.train())
            if cycle in spread(wl.builds):
                times["build"].append(self.build())
            for _ in range(wl.opens // CYCLES):
                times["setup"].append(self.setup())
            if cycle in spread(wl.evaluates):
                times["evaluate"].append(self.evaluate())
            if cycle == 0:
                self.warm_up()
                self.check()
            rounds.append(self.query_round())
        while self.tracer is None and (len(rounds) < CYCLES + EXTRA_ROUNDS
                                       or time.perf_counter() < self.t0 + self.seconds):
            rounds.append(self.query_round())
        self.check_repeats()
        # The best of the repeats, except for set-up (median): this machine's
        # speed drops by up to 1.9x for seconds at a time, and the best repeat
        # is the one such a slow spell least affects.
        return {
            "train_s": min(times["train"]),
            "build_s": min(times["build"]),
            "setup_s": statistics.median(times["setup"]),
            "eval_qps": max(times["evaluate"]),
            "query_mean_ms": float(min(r.mean() for r in rounds)),
            # per round of 1000 queries, so 10 lie beyond its p99
            "query_p99_ms": float(min(np.percentile(r, 99) for r in rounds)),
            "map": float(self.report["map"]),
            "index_bytes": self.index_bytes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def check_repeats(self):
        want = {"pca", "gmm"} | (set() if self.fvstar else {"bank"})
        if {line.split("_sha256")[0] for line in self.digests[0]} != want:
            self.problems.append(f"train printed digests {self.digests[0]}")
        if any(d != self.digests[0] for d in self.digests):
            self.problems.append("repeated trains printed different digests")
        if any(b != self.blobs[0] for b in self.blobs):
            self.problems.append("repeated builds wrote different index bytes")

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


E2E_UNITS = {"setup_s": "s", "train_s": "s", "build_s": "s", "eval_qps": "1/s",
             "query_mean_ms": "ms", "query_p99_ms": "ms", "map": "ratio",
             "index_bytes": "bytes", "peak_rss_mb": "MB"}


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object the benchmark prints."""
    import tracer as tracing
    tr = None
    if trace:
        from qivr import (baseline, bloom, cli, clustering, embedding, evaluation,
                          hashing, index, kernels, storage)
        tr = tracing.Tracer()
        modules = dict(zip(tracing.LAYERS, (cli, storage, embedding, clustering, hashing,
                                            bloom, index, baseline, evaluation, kernels)))
        tr.install(modules)
    r = Run(name, seed, seconds, tr)
    try:
        values = r.execute()
    finally:
        if tr is not None:
            tr.uninstall()
        r.cleanup()
    for problem in r.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if tr is None:
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    else:
        layer = tr.metrics()
        metrics = {k: {"value": layer[k], "unit": tracing.metric_unit(k)}
                   for k in tracing.per_layer_names()}
        out = BENCH_DIR / "_traces"
        out.mkdir(exist_ok=True)
        tr.write(out / f"{name}-seed{seed}",
                 {"workload": name, "seed": seed, "end_to_end_traced": values,
                  "per_layer": layer, "spans": len(tr.start)})
    # an operation that raises ends the run, so a printed result has none failed
    return {"correct": not r.problems, "attempted": r.attempted, "failed": 0,
            "metrics": metrics}
