"""Per-layer tracing of coreselect from outside the program.

``Tracer.install`` wraps every public module-level function of the layer
modules, plus ``ScoreMatrix.from_json_dict`` and ``ScoreMatrix.submatrix``.
Several modules import functions by name (``selectors`` imports ``ridge_cv``,
``evaluation`` and ``cli`` import ``run_selector``, ``selectors`` and ``irt``
import ``balance_weights``, ``evaluation`` keeps its correlations in a dict),
so each function is replaced wherever it is looked up: in every coreselect
module's globals and in dicts held there.

Each call records a span (name, start, end, parent) in memory, timed by the
process's CPU clock like the end-to-end metrics; spans are written out when
the run ends. A span's self time is its duration minus its child spans.
Counts and ratios are taken at the same boundary: K-Means iterations and
convergence from the returned ``objective_trace``, and distinct-input ratios
from a hash of the argument arrays and scalars.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import process_time

import numpy as np

LAYERS = ("pool", "weighting", "embeddings", "selectors", "irt", "regression",
          "evaluation", "cli")

# pool.normalize runs once per score cell (300k times at paper scale); a span
# there would cost more than the work it measures.
UNTRACED = {"pool.normalize"}

CORRELATIONS = ("evaluation.pearson_flagged", "evaluation.spearman_flagged",
                "evaluation.kendall_flagged")


def _digest(obj, h) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            _digest(getattr(obj, f.name), h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"(")
        for x in obj:
            _digest(x, h)
        h.update(b")")
    else:
        h.update(repr(obj).encode())


def _input_digest(sig: inspect.Signature, args, kwargs) -> str:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    h = hashlib.blake2b(digest_size=16)
    for name, value in bound.arguments.items():
        h.update(name.encode())
        _digest(value, h)
    return h.hexdigest()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []   # (name_id, start, end, parent, outermost in its group)
        self.notes: dict[int, object] = {}
        self._stack: list[int] = []
        self._active: Counter = Counter()

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        group = "correlation" if name in CORRELATIONS else name
        sig = inspect.signature(fn)
        note = self._observer(name, sig)
        spans, stack, active, notes = self.spans, self._stack, self._active, self.notes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer = active[group] == 0
            active[group] += 1
            stack.append(idx)
            start = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = process_time()
                stack.pop()
                active[group] -= 1
                spans[idx] = (name_id, start, end, parent, outer)
            if note is not None:
                notes[idx] = note(args, kwargs, result)
            return result

        return traced

    @staticmethod
    def _observer(name: str, sig: inspect.Signature):
        if name in ("embeddings.pca_reduce", "irt.fit_m2pl"):
            return lambda args, kwargs, result: _input_digest(sig, args, kwargs)
        if name == "selectors.weighted_kmeans":
            def kmeans(args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                iters = len(result.objective_trace)
                return iters, iters < bound.arguments["max_iter"]
            return kmeans
        if name == "evaluation.crossval_curve":
            def curve(args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                return a["config"].method, len(set(a["sizes"])) * a["folds"] * a["repeats"]
            return curve
        return None

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"coreselect.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNTRACED or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[obj] = self.wrap(name, obj)
        package = [m for n, m in sys.modules.items()
                   if m is not None and (n == "coreselect" or n.startswith("coreselect."))]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            obj[key] = wrappers[value]
        matrix_cls = modules["pool"].ScoreMatrix
        from_json = matrix_cls.__dict__["from_json_dict"].__func__
        matrix_cls.from_json_dict = classmethod(
            self.wrap("pool.ScoreMatrix.from_json_dict", from_json))
        matrix_cls.submatrix = self.wrap("pool.ScoreMatrix.submatrix",
                                         matrix_cls.__dict__["submatrix"])

    # -- aggregation ------------------------------------------------------

    def summarize(self, lo: int, hi: int) -> tuple[dict, dict]:
        """Per-layer metrics and per-method crossval time over spans[lo:hi]."""
        child = defaultdict(float)
        for name_id, start, end, parent, _ in self.spans[lo:hi]:
            if parent >= lo:
                child[parent] += end - start
        calls: Counter = Counter()
        incl: defaultdict = defaultdict(float)
        self_by_name: defaultdict = defaultdict(float)
        self_by_layer: defaultdict = defaultdict(float)
        group_incl: defaultdict = defaultdict(float)
        notes: defaultdict = defaultdict(list)
        curve_by_method: defaultdict = defaultdict(lambda: [0.0, 0])
        for idx in range(lo, hi):
            name_id, start, end, parent, outer = self.spans[idx]
            name = self.names[name_id]
            dur = end - start
            calls[name] += 1
            own = dur - child[idx]
            self_by_name[name] += own
            self_by_layer[name.split(".", 1)[0]] += own
            if outer:
                incl[name] += dur
                if name in CORRELATIONS:
                    group_incl["correlation"] += dur
            if idx in self.notes:
                notes[name].append(self.notes[idx])
                if name == "evaluation.crossval_curve":
                    method, evaluations = self.notes[idx]
                    curve_by_method[method][0] += dur
                    curve_by_method[method][1] += evaluations

        def ratio(num, den):
            return num / den if den else 0.0

        kmeans = notes["selectors.weighted_kmeans"]
        metrics = {
            "pool.load_pool_s": incl["pool.load_pool"],
            "pool.from_json_s": incl["pool.ScoreMatrix.from_json_dict"],
            "pool.from_json_calls": calls["pool.ScoreMatrix.from_json_dict"],
            "pool.submatrix_s": incl["pool.ScoreMatrix.submatrix"],
            "weighting.balance_weights_calls": calls["weighting.balance_weights"],
            "weighting.balance_weights_s": incl["weighting.balance_weights"],
            "embeddings.load_embedding_csv_s": incl["embeddings.load_embedding_csv"],
            "embeddings.pca_reduce_calls": calls["embeddings.pca_reduce"],
            "embeddings.pca_reduce_s": incl["embeddings.pca_reduce"],
            "embeddings.pca_reduce_distinct_ratio": ratio(
                len(set(notes["embeddings.pca_reduce"])), calls["embeddings.pca_reduce"]),
            "embeddings.assemble_combined_s": incl["embeddings.assemble_combined"],
            "selectors.weighted_kmeans_calls": calls["selectors.weighted_kmeans"],
            "selectors.weighted_kmeans_s": incl["selectors.weighted_kmeans"],
            "selectors.kmeans_lloyd_iters": sum(iters for iters, _ in kmeans),
            "selectors.kmeans_converged_ratio": ratio(sum(c for _, c in kmeans), len(kmeans)),
            "selectors.run_selector_calls": calls["selectors.run_selector"],
            "selectors.run_selector_s": incl["selectors.run_selector"],
            "selectors.select_learn_s": incl["selectors.select_learn"],
            "irt.fit_m2pl_calls": calls["irt.fit_m2pl"],
            "irt.fit_m2pl_s": incl["irt.fit_m2pl"],
            "irt.fit_m2pl_distinct_ratio": ratio(
                len(set(notes["irt.fit_m2pl"])), calls["irt.fit_m2pl"]),
            "irt.pirt_scores_s": incl["irt.pirt_scores"],
            "irt.estimate_ability_calls": calls["irt.estimate_ability"],
            "regression.ridge_fit_calls": calls["regression.ridge_fit"],
            "regression.ridge_cv_calls": calls["regression.ridge_cv"],
            "regression.ridge_cv_s": incl["regression.ridge_cv"],
            "regression.preference_lomo_s": incl["regression.preference_lomo"],
            "regression.pairwise_52_s": incl["regression.pairwise_52"],
            "evaluation.crossval_curve_s": incl["evaluation.crossval_curve"],
            "evaluation.harness_self_s": self_by_name["evaluation.crossval_curve"],
            "evaluation.correlation_s": group_incl["correlation"],
            "cli.self_s": self_by_layer["cli"],
        }
        per_eval_ms = {m: 1000.0 * t / n for m, (t, n) in curve_by_method.items() if n}
        return metrics, per_eval_ms

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for name_id, start, end, parent, _ in self.spans:
                fh.write(f"[{name_id},{start!r},{end!r},{parent}]\n")


# name -> (unit, better); the order BENCHMARK.json lists them in
PER_LAYER_UNITS = {
    name: ("s", "lower") if name.endswith("_s")
    else ("ratio", "higher") if name.endswith("_ratio")
    else ("count", "lower")
    for name in Tracer().summarize(0, 0)[0]
}
