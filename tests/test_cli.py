import contextlib
import functools
import inspect
import io
import json
import struct

import numpy as np
import pytest

from qivr import cli, embedding, pipeline, storage
from qivr.bloom import FilterConfig
from qivr.embedding import DescriptorSet, fit_gmm
from qivr.errors import ConfigError
from qivr.hashing import HashFamilyConfig, sample_hash_bank
from qivr.index import (ScoringConfig, build_bf_gd, build_bf_pi, compute_idf,
                        score_query)

CONFIG = """\
# desk-scale settings for the test corpus
pipeline = bf_gd
family = lsh_c
domain = gbh
M = 4
K = 4
d = 3
n = 6
scoring = tfidf
alpha = 0.5
"""


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def lines_to_dict(text):
    pairs = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(" = ")
        pairs[key] = value
    return pairs


class Workspace:
    def __init__(self, root):
        self.root = root
        self.data = root / "data"
        self.models = root / "models"
        self.idx = root / "idx"
        self.cfg = root / "run.cfg"
        self.cfg.write_text(CONFIG)

        code, out, _ = run(["gen-synth", "--scenes", "6", "--frames", "4",
                            "--descriptors", "8", "--dim", "4", "--queries", "5",
                            "--noise_sigma", "0.05", "--seed", "3",
                            "--output", str(self.data)])
        assert code == 0
        self.manifest = self.data / "manifest.tsv"
        self.queries = self.data / "queries.tsv"
        self.truth = self.data / "ground_truth.tsv"

        code, self.train_out, _ = run(self.args("train", str(self.manifest),
                                                 "--output", str(self.models)))
        assert code == 0, self.train_out
        code, self.build_out, _ = run(self.args(
            "build", str(self.manifest), "--models", str(self.models),
            "--output", str(self.idx),
            "--filters", str(self.idx / "filters.qivb")))
        assert code == 0, self.build_out
        self.index_file = self.idx / "index.qivi"

    def args(self, command, *rest):
        return [command, "--config", str(self.cfg), "--seed", "1", *rest]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    return Workspace(tmp_path_factory.mktemp("cliws"))


# ---------------------------------------------------------------- happy path

def test_gen_synth_reports_paths(ws):
    assert ws.manifest.exists() and ws.queries.exists() and ws.truth.exists()


def test_train_writes_models_and_digests(ws):
    assert (ws.models / "pca.qivm").exists()
    assert (ws.models / "gmm.qivm").exists()
    assert (ws.models / "bank.qivh").exists()
    report = lines_to_dict(ws.train_out)
    assert set(report) == {"pca_sha256", "gmm_sha256", "bank_sha256"}
    assert all(len(v) == 64 for v in report.values())


def test_train_is_deterministic(ws, tmp_path):
    code, out, _ = run(ws.args("train", str(ws.manifest),
                               "--output", str(tmp_path / "m2")))
    assert code == 0
    assert out == ws.train_out


def test_build_report_counts(ws):
    report = lines_to_dict(ws.build_out)
    assert report["scenes"] == "6"
    assert report["frames"] == "24"
    assert report["descriptors"] == str(24 * 8)
    assert report["skipped_empty_frames"] == "0"
    assert int(report["index_bytes"]) == ws.index_file.stat().st_size


def test_build_is_idempotent(ws, tmp_path):
    code, _, _ = run(ws.args("build", str(ws.manifest), "--models", str(ws.models),
                             "--output", str(tmp_path / "idx2")))
    assert code == 0
    assert (tmp_path / "idx2" / "index.qivi").read_bytes() == ws.index_file.read_bytes()


def test_setbits_lines_match_exported_filters(ws):
    _, filters = storage.read_filters(ws.idx / "filters.qivb")
    pops = {f.scene_id: f.popcount for f in filters}
    reported = {}
    for line in ws.build_out.strip().splitlines():
        if line.startswith("setbits "):
            rest = line[len("setbits "):]
            sid, _, count = rest.partition(" = ")
            reported[sid] = int(count)
    assert reported == pops
    assert len(reported) == 6


def test_query_matches_library_scoring(ws):
    qid, qpath = storage.read_queries(ws.queries)[0]
    code, out, _ = run(ws.args("query", str(ws.index_file), qpath,
                               "--models", str(ws.models)))
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()
            if "\t" in line]
    assert [int(r[0]) for r in rows] == list(range(1, 7))

    index = storage.read_index(ws.index_file)
    bundle = pipeline.load_models(ws.models)
    result = score_query(index, compute_idf(index), ScoringConfig("tfidf", 0.5),
                         storage.read_descriptors(qpath, source_id=qid),
                         bundle, index.n_scenes)
    assert [r[1] for r in rows] == [sid for sid, _ in result.ranking]
    for row, (_, score) in zip(rows, result.ranking):
        assert row[2] == f"{score:.6f}"


def test_query_output_file_copies_stdout(ws, tmp_path):
    _, qpath = storage.read_queries(ws.queries)[0]
    dest = tmp_path / "ranking.tsv"
    code, out, _ = run(ws.args("query", str(ws.index_file), qpath,
                               "--models", str(ws.models),
                               "--output", str(dest)))
    assert code == 0
    assert dest.read_text() == out


def test_evaluate_text_report(ws):
    code, out, _ = run(ws.args("evaluate", str(ws.index_file), str(ws.queries),
                               str(ws.truth), "--models", str(ws.models)))
    assert code == 0
    report = lines_to_dict(out)
    assert float(report["map"]) >= 0.8  # near-copy queries on tiny corpus
    assert report["trials"] == "1"
    assert int(report["index_bytes"]) == ws.index_file.stat().st_size


def test_evaluate_json_output(ws, tmp_path):
    dest = tmp_path / "report.json"
    code, _, _ = run(ws.args("evaluate", str(ws.index_file), str(ws.queries),
                             str(ws.truth), "--models", str(ws.models),
                             "--json", "--output", str(dest)))
    assert code == 0
    payload = json.loads(dest.read_text())
    assert set(payload) == {"map", "map_stddev", "mean_latency_seconds",
                            "index_bytes", "trials", "per_query_ap"}
    assert len(payload["per_query_ap"]) == 5


def test_evaluate_multi_trial_requires_manifest(ws):
    code, _, err = run(ws.args("evaluate", str(ws.index_file), str(ws.queries),
                               str(ws.truth), "--models", str(ws.models),
                               "--trials", "3"))
    assert code == 2
    assert "manifest" in err


def test_evaluate_multi_trial_aggregates(ws):
    code, out, _ = run(ws.args("evaluate", str(ws.index_file), str(ws.queries),
                               str(ws.truth), "--models", str(ws.models),
                               "--trials", "3", "--manifest", str(ws.manifest)))
    assert code == 0
    assert lines_to_dict(out)["trials"] == "3"


# ------------------------------------------------------------ FV-star path

def test_fvstar_build_and_rerank_evaluate(ws, tmp_path):
    outdir = tmp_path / "fv"
    code, out, _ = run(ws.args("build", str(ws.manifest), "--models", str(ws.models),
                               "--pipeline", "scene_fv_star",
                               "--output", str(outdir)))
    assert code == 0  # flag overrides the config file's bf_gd
    assert (outdir / "fvstar.qivf").exists()
    assert (outdir / "shots.qivf").exists()
    report = lines_to_dict(out)
    assert report["entries"] == "6"
    assert report["shot_entries"] == "24"  # 4 frames, shot length 1

    code, out, _ = run(ws.args("evaluate", str(outdir / "fvstar.qivf"),
                               str(ws.queries), str(ws.truth),
                               "--models", str(ws.models),
                               "--pipeline", "scene_fv_star", "--rerank"))
    assert code == 0
    assert "map = " in out


def test_rerank_without_shot_database_fails(ws, tmp_path):
    # descriptor paths resolve relative to the manifest, so stay in data/
    stripped = ws.data / "noshots.tsv"
    rows = [line.split("\t")[:3] for line
            in ws.manifest.read_text().strip().splitlines()]
    stripped.write_text("\n".join("\t".join(r) for r in rows) + "\n")
    outdir = tmp_path / "fv"
    code, _, _ = run(ws.args("build", str(stripped), "--models", str(ws.models),
                             "--pipeline", "frame_fv_star", "--output", str(outdir)))
    assert code == 0
    assert not (outdir / "shots.qivf").exists()
    code, _, err = run(ws.args("evaluate", str(outdir / "fvstar.qivf"),
                               str(ws.queries), str(ws.truth),
                               "--models", str(ws.models), "--rerank"))
    assert code == 1
    assert "shot database" in err


def test_fvstar_build_with_filters_exits_two(ws, tmp_path):
    # an FV* database has no Bloom filters to export
    outdir, filters = tmp_path / "fv", tmp_path / "f.qivb"
    code, out, err = run(ws.args("build", str(ws.manifest), "--models", str(ws.models),
                                 "--pipeline", "frame_fv_star", "--output", str(outdir),
                                 "--filters", str(filters)))
    assert code == 2 and out == ""
    assert _one_line(err, "config error: ") and "--filters" in err
    assert not filters.exists() and not (outdir / "fvstar.qivf").exists()


def test_rerank_on_bloom_index_exits_two(ws):
    code, out, err = run(ws.args("evaluate", str(ws.index_file), str(ws.queries),
                                 str(ws.truth), "--models", str(ws.models), "--rerank"))
    assert code == 2 and out == ""
    assert _one_line(err, "config error: ") and "--rerank" in err


# -------------------------------------------------------------- exit codes

def test_unknown_config_key_exits_two(ws, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("piepline = bf_gd\n")
    code, _, err = run(["train", str(ws.manifest), "--config", str(bad)])
    assert code == 2
    assert "piepline" in err


def _with_bank(ws, hcfg):
    """The workspace's PCA and GMM (K=4, d=3) with a bank sampled from hcfg."""
    trained = pipeline.load_models(ws.models)
    return storage.make_bundle(trained.pca, trained.gmm, sample_hash_bank(hcfg))


def test_invalid_combination_exits_two(ws):
    # each rule is stated once; the CLI meets it through RunConfig, and the
    # library through RunConfig and the call that relies on it
    scenes, _ = storage.read_manifest(ws.manifest)
    rules = {
        "vq requires n <= 16": (
            ["--family", "vq", "--n", "17"], dict(family="vq", n=17, M=4, K=4),
            lambda: HashFamilyConfig("vq", "gbh", M=4, n=17, input_dim=3, seed=0)),
        "bf_pi requires domain = gbh": (
            ["--pipeline", "bf_pi", "--domain", "vbh"],
            dict(pipeline="bf_pi", domain="vbh", M=4, K=4),
            lambda: build_bf_pi(
                scenes, _with_bank(ws, HashFamilyConfig("lsh_c", "vbh", 4, 6, 12, 1)),
                FilterConfig(True, 4, L_p=64), storage.frame_loader)),
        "gbh requires M = K": (
            ["--M", "5"], dict(M=5, K=4),
            lambda: build_bf_gd(
                scenes, _with_bank(ws, HashFamilyConfig("lsh_c", "gbh", 5, 6, 3, 1)),
                FilterConfig(True, 5, L_p=64), storage.frame_loader)),
    }
    for message, (flags, settings, library_call) in rules.items():
        code, _, err = run(["build", str(ws.manifest), "--models", str(ws.models),
                            "--config", str(ws.cfg), *flags])
        assert code == 2 and message in err, err
        with pytest.raises(ConfigError, match=message):
            pipeline.RunConfig(**settings)
        with pytest.raises(ConfigError, match=message):
            library_call()


def test_pipeline_calls_other_layers_through_their_modules():
    # a qivr function imported by name would escape wrappers put on its module
    borrowed = [name for name, obj in vars(pipeline).items()
                if inspect.isfunction(obj) and obj.__module__.startswith("qivr.")
                and obj.__module__ != pipeline.__name__]
    assert borrowed == []


def test_mismatched_models_exit_two(ws):
    code, _, err = run(ws.args("build", str(ws.manifest), "--models", str(ws.models),
                               "--family", "lsh_s"))
    assert code == 2
    assert "bank" in err


def test_missing_file_exits_one(ws):
    code, _, err = run(ws.args("train", str(ws.root / "absent.tsv")))
    assert code == 1
    assert "error" in err


def test_train_warns_when_em_stops_at_its_cap(ws, tmp_path, monkeypatch):
    # the test world converges under the default cap, so nothing is printed
    code, _, err = run(ws.args("train", str(ws.manifest), "--output", str(tmp_path / "a")))
    assert code == 0 and "EM" not in err
    # patched on its module, where tracers wrap it too: the pipeline must look
    # fit_gmm up there for the capped fit, and so the warning, to happen
    monkeypatch.setattr(embedding, "fit_gmm", functools.partial(fit_gmm, max_iters=2))
    code, out, err = run(ws.args("train", str(ws.manifest), "--output", str(tmp_path / "b")))
    assert code == 0
    assert err.count("warning: EM stopped at its cap of 2 iterations") == 1
    # the benchmark reads "fallback" as a VQ failure; an EM cap is not one
    assert "fallback" not in err.lower()
    assert set(lines_to_dict(out)) == {"pca_sha256", "gmm_sha256", "bank_sha256"}


def test_query_non_finite_descriptors_exits_one(ws, tmp_path):
    blob = bytearray(storage.descriptors_to_bytes(DescriptorSet("q", np.ones((2, 4)))))
    blob[-4:] = struct.pack("<f", float("nan"))
    bad = tmp_path / "nan.qivd"
    bad.write_bytes(bytes(blob))
    code, _, err = run(ws.args("query", str(ws.index_file), str(bad),
                               "--models", str(ws.models)))
    assert code == 1
    assert err.startswith("error: ")


def test_query_zero_width_descriptors_exits_one(ws, tmp_path):
    bad = tmp_path / "wide.qivd"
    bad.write_bytes(b"QIVD" + struct.pack("<IQI", storage.VERSION, 2 ** 63, 0))
    code, out, err = run(ws.args("query", str(ws.index_file), str(bad),
                                 "--models", str(ws.models)))
    assert code == 1 and out == ""
    assert _one_line(err, "error: ") and "dimension 0" in err


def test_fvstar_evaluate_with_models_of_another_shape_exits_one(ws, tmp_path):
    # K=4, d=3 codes (ws.models) and K=2, d=3 codes both fit one 64-bit word
    small = tmp_path / "k2"
    code, _, _ = run(ws.args("train", str(ws.manifest), "--pipeline", "frame_fv_star",
                             "--K", "2", "--output", str(small)))
    assert code == 0
    for models, k in ((ws.models, "4"), (small, "2")):
        code, _, _ = run(ws.args("build", str(ws.manifest), "--models", str(models),
                                 "--pipeline", "frame_fv_star", "--K", k,
                                 "--output", str(tmp_path / f"k{k}db")))
        assert code == 0
    # the K=2 frame database with the K=4 shot database beside it
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    (mixed / "fvstar.qivf").write_bytes((tmp_path / "k2db" / "fvstar.qivf").read_bytes())
    (mixed / "shots.qivf").write_bytes((tmp_path / "k4db" / "shots.qivf").read_bytes())

    def evaluate(db_dir, *rest):
        return run(ws.args("evaluate", str(db_dir / "fvstar.qivf"), str(ws.queries),
                           str(ws.truth), "--models", str(small), "--K", "2",
                           "--pipeline", "frame_fv_star", *rest))

    assert evaluate(tmp_path / "k2db")[0] == 0
    for db_dir, rest in ((tmp_path / "k4db", ()), (mixed, ("--rerank",))):
        code, out, err = evaluate(db_dir, *rest)
        assert code == 1 and out == ""
        assert _one_line(err, "error: ") and "(K, d) = (4, 3)" in err


def test_evaluate_corrupt_index_exits_one(ws, tmp_path):
    blob = bytearray(ws.index_file.read_bytes())
    blob[8] = 7  # the pipeline code
    bad = tmp_path / "bad.qivi"
    bad.write_bytes(bytes(blob))
    code, _, err = run(ws.args("evaluate", str(bad), str(ws.queries), str(ws.truth),
                               "--models", str(ws.models)))
    assert code == 1
    assert err.startswith("error: ") and "pipeline" in err


def _models_copy(ws, root):
    root.mkdir()
    for name in (pipeline.PCA_FILE, pipeline.GMM_FILE, pipeline.BANK_FILE):
        (root / name).write_bytes((ws.models / name).read_bytes())
    return root


def test_build_with_out_of_range_bit_sample_exits_one(ws, tmp_path):
    models = _models_copy(ws, tmp_path / "models")
    bank = sample_hash_bank(HashFamilyConfig("lsh_b", "gbh", M=4, n=6, input_dim=3, seed=1))
    blob = bytearray(storage.bank_to_bytes(bank))
    struct.pack_into("<I", blob, 4 + 4 + 19, 999)  # the first coordinate of hash 0
    (models / pipeline.BANK_FILE).write_bytes(bytes(blob))
    code, _, err = run(ws.args("build", str(ws.manifest), "--models", str(models),
                               "--family", "lsh_b", "--output", str(tmp_path / "idx")))
    assert code == 1
    assert err.startswith("error: ") and "999" in err


def test_build_with_negative_gmm_variance_exits_one(ws, tmp_path):
    models = _models_copy(ws, tmp_path / "models")
    blob = bytearray((models / pipeline.GMM_FILE).read_bytes())
    blob[-4:] = struct.pack("<f", -1.0)  # the last variance
    (models / pipeline.GMM_FILE).write_bytes(bytes(blob))
    code, _, err = run(ws.args("build", str(ws.manifest), "--models", str(models),
                               "--output", str(tmp_path / "idx")))
    assert code == 1
    assert err.startswith("error: ") and "model file" in err
    assert not (tmp_path / "idx" / pipeline.INDEX_FILE).exists()


def _non_utf8_copy(src, dst):
    dst.write_bytes(src.read_bytes() + b"\xff\n")
    return dst


def _one_line(err, prefix):
    return err.startswith(prefix) and err.count("\n") == 1


def test_non_utf8_manifest_exits_one(ws, tmp_path):
    # next to the original, so its descriptor paths still resolve
    bad = _non_utf8_copy(ws.manifest, ws.data / "latin1_manifest.tsv")
    try:
        code, _, err = run(ws.args("train", str(bad), "--output", str(tmp_path / "m")))
    finally:
        bad.unlink()
    assert code == 1
    assert _one_line(err, "error: ") and "latin1_manifest.tsv" in err and "UTF-8" in err


def test_non_utf8_ground_truth_exits_one(ws, tmp_path):
    bad = _non_utf8_copy(ws.truth, tmp_path / "truth.tsv")
    code, _, err = run(ws.args("evaluate", str(ws.index_file), str(ws.queries), str(bad),
                               "--models", str(ws.models)))
    assert code == 1
    assert _one_line(err, "error: ") and "truth.tsv" in err and "UTF-8" in err


def test_non_utf8_config_file_exits_one(ws, tmp_path):
    bad = _non_utf8_copy(ws.cfg, tmp_path / "bad.cfg")
    code, _, err = run(["train", str(ws.manifest), "--config", str(bad),
                        "--output", str(tmp_path / "m")])
    assert code == 1
    assert _one_line(err, "error: ") and "bad.cfg" in err and "UTF-8" in err


def test_nan_alpha_in_config_exits_two(ws, tmp_path):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(CONFIG.replace("alpha = 0.5", "alpha = nan"))
    code, out, err = run(["evaluate", str(ws.index_file), str(ws.queries), str(ws.truth),
                          "--models", str(ws.models), "--config", str(cfg), "--seed", "1"])
    assert code == 2 and out == ""
    assert _one_line(err, "config error: ") and "alpha" in err


def test_negative_alpha_flag_exits_two(ws):
    code, out, err = run(ws.args("evaluate", str(ws.index_file), str(ws.queries),
                                 str(ws.truth), "--models", str(ws.models), "--alpha", "-3"))
    assert code == 2 and out == ""
    assert _one_line(err, "config error: ") and "alpha" in err


@pytest.mark.parametrize("flag, value", [("--noise_sigma", "nan"), ("--center_radius", "inf")])
def test_non_finite_synthetic_setting_exits_two(tmp_path, flag, value):
    code, out, err = run(["gen-synth", "--scenes", "2", "--frames", "2", "--descriptors", "2",
                          "--queries", "1", flag, value, "--output", str(tmp_path / "d")])
    assert code == 2 and out == ""
    assert _one_line(err, "config error: ") and flag[2:] in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("flag, value, named", [("--scenes", "0", "counts"),
                                                ("--noise_sigma", "-1", "noise_sigma")])
def test_out_of_range_synthetic_setting_exits_two(tmp_path, flag, value, named):
    code, out, err = run(["gen-synth", "--scenes", "2", "--frames", "2", "--descriptors", "2",
                          "--queries", "1", flag, value, "--output", str(tmp_path / "d")])
    assert code == 2 and out == ""
    assert _one_line(err, "config error: ") and named in err
    assert not (tmp_path / "d").exists()
