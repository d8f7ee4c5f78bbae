"""Span tracing from outside the program, for the traced benchmark run.

`Tracer.install` replaces every public function and method of qivr's
modules with a wrapper that records one span per call: its name, start,
end, parent span and the id of the benchmark request it serves. The
wrapper is bound wherever callers look the function up: the defining
module, every module that imported the name (``cli.fit_gmm``,
``index.point_index_batch``), module-level dispatch tables
(``cli.COMMANDS``) and the dispatch names in ``kernels``. Spans stay in
flat in-memory arrays until `write` saves them at the end of the run.

Per-bit helpers of `SceneFilter` (``set_bit``, ``get_bit``, ``bit_index``)
are left unwrapped: they run once per bit and their time stays in the
calling span. The stack is not thread-safe; the benchmark runs qivr with
one thread.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "storage", "embedding", "clustering", "hashing", "bloom",
          "index", "baseline", "evaluation", "kernels")
SKIP_METHODS = {"set_bit", "get_bit", "bit_index"}

# per-layer time totals: metric -> span names summed (kernel entries are the
# dispatch names in `kernels`, resolved to whatever they are bound to)
TIME_METRICS = {
    "storage.index_from_bytes_s": ["storage.index_from_bytes"],
    "storage.index_to_bytes_s": ["storage.index_to_bytes"],
    "storage.fvstar_from_bytes_s": ["storage.fvstar_from_bytes"],
    "storage.fvstar_to_bytes_s": ["storage.fvstar_to_bytes"],
    "storage.read_descriptors_s": ["storage.read_descriptors"],
    "storage.model_digests_s": ["storage.model_digests"],
    "embedding.fit_pca_s": ["embedding.fit_pca"],
    "embedding.fit_gmm_s": ["embedding.fit_gmm"],
    "embedding.compute_fv_s": ["embedding.compute_fv"],
    "embedding.point_index_batch_s": ["embedding.point_index_batch"],
    "embedding.apply_pca_s": ["embedding.apply_pca"],
    "clustering.lloyd_kmeans_s": ["clustering.lloyd_kmeans"],
    "clustering.kmeans_pp_init_s": ["clustering.kmeans_pp_init"],
    "hashing.train_vq_bank_s": ["hashing.train_vq_bank"],
    "hashing.bucket_s": ["hashing.VqHash.bucket", "hashing.PlaneHash.bucket",
                         "hashing.BitSampleHash.bucket"],
    "bloom.insert_s": ["bloom.SceneFilter.insert", "bloom.SceneFilter.insert_one"],
    "bloom.set_bits_s": ["bloom.SceneFilter.set_bits"],
    "index.build_s": ["index.build_bf_gd", "index.build_bf_pi"],
    "index.compute_idf_s": ["index.compute_idf"],
    "index.score_query_s": ["index.score_query"],
    "baseline.build_frame_fv_star_s": ["baseline.build_frame_fv_star"],
    "baseline.encode_query_s": ["baseline.encode_query"],
    "baseline.hamming_rank_s": ["baseline.hamming_rank"],
    "baseline.scenes_from_ranking_s": ["baseline.scenes_from_ranking"],
    "evaluation.run_benchmark_s": ["evaluation.run_benchmark"],
    "evaluation.run_fvstar_benchmark_s": ["evaluation.run_fvstar_benchmark"],
    "kernels.gauss_logprob_s": ["kernels:gauss_logprob"],
    "kernels.assign_nearest_s": ["kernels:assign_nearest"],
    "kernels.accumulate_postings_s": ["kernels:accumulate_postings"],
    "kernels.hamming_distances_s": ["kernels:hamming_distances"],
}
# per-layer call counts: metric -> span names counted
CALL_METRICS = {
    "storage.read_descriptors_calls": ["storage.read_descriptors"],
    "embedding.compute_fv_calls": ["embedding.compute_fv"],
    "hashing.bucket_calls": TIME_METRICS["hashing.bucket_s"],
    "bloom.insert_calls": TIME_METRICS["bloom.insert_s"],
}
SELF_METRICS = ("cli", "storage", "embedding", "clustering", "hashing", "bloom",
                "index", "baseline", "evaluation")
# counters filled by the hooks below; every one is reported, 0 when unused
COUNTERS = ("embedding.em_iters", "hashing.vq_fallbacks", "bloom.fill_ratio",
            "index.keys", "index.postings", "index.probes_per_query",
            "index.probe_hit_ratio", "baseline.rows_per_query",
            "kernels.gauss_logprob_rows", "kernels.assign_nearest_pairs",
            "kernels.accumulate_postings_probes", "kernels.hamming_distances_rows")


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def per_layer_names() -> list:
    names = [f"{m}.self_s" for m in SELF_METRICS]
    names += list(TIME_METRICS) + list(CALL_METRICS) + list(COUNTERS)
    return sorted(names)


class Tracer:
    """Records spans of calls into qivr; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self._stack: list[int] = []
        self._request = -1
        self._n_requests = 0
        self.paused = False
        self.sums = defaultdict(float)
        self._patched = []  # (owner, attribute, original value)
        self._dispatch = {}  # "kernels:<name>" -> span name
        self._hooks = dict(HOOKS)

    # ------------------------------------------------------------ spans

    def _intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name_idx: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def request_span(self, name: str):
        """A root span for one benchmark operation; its spans share its id."""
        outer = self._request
        self._request = self._n_requests
        self._n_requests += 1
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)
            self._request = outer

    @contextmanager
    def pause(self):
        """Run the benchmark's own checks without recording spans."""
        self.paused, was = True, self.paused
        try:
            yield
        finally:
            self.paused = was

    def _inside(self, span_name: str) -> bool:
        target = self._name_ids.get(span_name)
        return any(self.name_id[i] == target for i in self._stack)

    # --------------------------------------------------------- wrapping

    def _wrap(self, fn, span_name: str):
        name_idx = self._intern(span_name)
        hook = self._hooks.get(span_name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = tracer._open(name_idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def install(self, modules: dict):
        """Wrap the public functions and methods of `modules` (name -> module)."""
        kernels = modules["kernels"]
        for attr, hook in KERNEL_HOOKS.items():
            fn = getattr(kernels, attr, None)
            if inspect.isfunction(fn):
                span = f"kernels.{fn.__name__}"
                self._dispatch[f"kernels:{attr}"] = span
                self._hooks[span] = hook
        wrapped = {}  # id(original) -> (original, wrapper)
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and id(obj) not in wrapped:
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{short}.{obj.__name__}"))
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        if (mname.startswith("_") or mname in SKIP_METHODS
                                or not inspect.isfunction(meth)):
                            continue
                        self._patch(obj, mname, meth,
                                    self._wrap(meth, f"{short}.{obj.__name__}.{mname}"))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._patch(mod, attr, obj, wrapped[id(obj)][1])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        if id(val) in wrapped and wrapped[id(val)][0] is val:
                            self._patch(obj, key, val, wrapped[id(val)][1])

    def _patch(self, owner, attr, original, replacement):
        if isinstance(owner, dict):
            owner[attr] = replacement
        else:
            setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # ---------------------------------------------------------- results

    def arrays(self):
        return (np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.request, dtype=np.int32))

    def metrics(self) -> dict:
        """Every per-layer metric, as {name: value}."""
        start, end, name_id, parent, _ = self.arrays()
        dur = end - start
        n_names = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur)) if len(dur) else dur
        self_time = dur - child
        total_by_name = np.bincount(name_id, weights=dur, minlength=n_names)
        calls_by_name = np.bincount(name_id, minlength=n_names)
        self_by_name = np.bincount(name_id, weights=self_time, minlength=n_names)

        def pick(table, span_names):
            out = 0.0
            for span in span_names:
                span = self._dispatch.get(span, span)
                idx = self._name_ids.get(span)
                if idx is not None:
                    out += float(table[idx])
            return out

        values = {}
        for module in SELF_METRICS:
            values[f"{module}.self_s"] = float(sum(
                self_by_name[i] for i, n in enumerate(self.names)
                if n.split(".", 1)[0] == module))
        for metric, spans in TIME_METRICS.items():
            values[metric] = pick(total_by_name, spans)
        for metric, spans in CALL_METRICS.items():
            values[metric] = int(pick(calls_by_name, spans))
        sums = self.sums
        for metric in COUNTERS:
            values[metric] = sums.get(metric, 0)
        scored = sums.get("_score_queries", 0)
        probes = sums.get("_query_probes", 0)
        values["index.probes_per_query"] = probes / scored if scored else 0.0
        values["index.probe_hit_ratio"] = sums.get("_query_hits", 0) / probes if probes else 0.0
        ranked = sums.get("_ranked_queries", 0)
        values["baseline.rows_per_query"] = sums.get("_ranked_rows", 0) / ranked if ranked else 0.0
        return values

    def write(self, path, summary: dict):
        """Save the spans (npz) and a JSON summary next to them."""
        start, end, name_id, parent, request = self.arrays()
        np.savez_compressed(path.with_suffix(".npz"), start=start, end=end,
                            name_id=name_id, parent=parent, request=request,
                            names=np.array(self.names))
        path.with_suffix(".json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


# ------------------------------------------------------------------ hooks
# Each hook sees the tracer, the positional arguments and the result of a
# finished call. Last-seen values (iterations, index shape) describe the
# run's final train or build; the benchmark repeats identical ones.

def _fit_gmm(tr, args, gmm):
    trace = getattr(gmm, "ll_trace", None)
    tr.sums["embedding.em_iters"] = len(trace) if trace is not None else 0


def _train_vq_bank(tr, args, bank):
    report = getattr(bank, "report", None)
    tr.sums["hashing.vq_fallbacks"] = len(report.fallbacks) if report is not None else 0


def _build_index(tr, args, index):
    tr.sums["index.keys"] = int(len(index.keys))
    tr.sums["index.postings"] = int(len(index.ordinals))
    setbits = np.bincount(index.ordinals, minlength=index.n_scenes)
    tr.sums["bloom.fill_ratio"] = float(setbits.mean() / index.filter_config.n_bits)


def _score_query(tr, args, result):
    tr.sums["_score_queries"] += 1


def _hamming_rank(tr, args, result):
    tr.sums["_ranked_queries"] += 1
    tr.sums["_ranked_rows"] += args[0].n_entries


HOOKS = {
    "embedding.fit_gmm": _fit_gmm,
    "hashing.train_vq_bank": _train_vq_bank,
    "index.build_bf_gd": _build_index,
    "index.build_bf_pi": _build_index,
    "index.score_query": _score_query,
    "baseline.hamming_rank": _hamming_rank,
}


def _rows_hook(metric):
    def hook(tr, args, result):
        tr.sums[metric] += args[0].shape[0]
    return hook


def _assign_hook(tr, args, result):
    tr.sums["kernels.assign_nearest_pairs"] += args[0].shape[0] * args[1].shape[0]


def _accumulate_hook(tr, args, result):
    key_idx = args[0]
    tr.sums["kernels.accumulate_postings_probes"] += len(key_idx)
    if tr._inside("index.score_query"):
        tr.sums["_query_probes"] += len(key_idx)
        tr.sums["_query_hits"] += int(np.count_nonzero(key_idx >= 0))


KERNEL_HOOKS = {
    "gauss_logprob": _rows_hook("kernels.gauss_logprob_rows"),
    "assign_nearest": _assign_hook,
    "accumulate_postings": _accumulate_hook,
    "hamming_distances": _rows_hook("kernels.hamming_distances_rows"),
}
