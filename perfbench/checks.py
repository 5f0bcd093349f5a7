"""Output checks, computed apart from the program with ``csv``, ``json`` and numpy.

Each check reads one operation's outputs from a round directory and raises
``CheckFailed`` with a reason when they are wrong. None of them imports
coreselect: reference scores, balance weights and Ridge fits are recomputed
here from the generated CSVs.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np

from gen import DIMENSIONS

LEARN_LAMBDA_GRID = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)
PREFERENCE_LAMBDA_GRID = tuple(10.0 ** e for e in range(-4, 5))
ANCHOR_METHODS = ("irt_anchor", "anchor_points", "semantic_anchor", "acoustic_anchor",
                  "combined_anchor")
LEARN_METHODS = ("random_sampling_learn", "random_search_learn")
WEIGHT_SUM_TOL = 1e-9
STAT_TOL = 1e-12      # statistics recomputed from the report's own numbers
REFIT_TOL = 1e-6      # predictions and correlations from an independent Ridge solve
AUCC_RANGE = (10, 200)
# Correlations may leave [-1, 1] by rounding: the program does not clamp, and a
# full-pool Pearson reads 1 + 2**-52. This is the slack the program's own AUCC
# range check allows.
RANGE_TOL = 1e-12


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _load(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


class Inputs:
    """The generated inputs, parsed once per run."""

    def __init__(self, paths: dict[str, str]) -> None:
        self.items = [(r[0], r[1], r[2], int(r[3]), int(r[4]))
                      for r in _read_csv(Path(paths["items"]))]
        self.item_ids = [r[0] for r in self.items]
        self.item_pos = {item: j for j, item in enumerate(self.item_ids)}
        cells = {}
        for model, item, raw in _read_csv(Path(paths["scores"])):
            cells.setdefault(model, {})[item] = float(raw)
        self.model_ids = sorted(cells)
        self.values = np.array([[cells[m][i] for i in self.item_ids] for m in self.model_ids])
        tasks: dict[str, list[int]] = {}
        for j, row in enumerate(self.items):
            tasks.setdefault(row[1], []).append(j)
        self.balance = np.empty(len(self.items))
        for positions in tasks.values():
            self.balance[positions] = 1.0 / (len(tasks) * len(positions))
        self.reference = np.mean([self.values[:, p].mean(axis=1) for p in tasks.values()], axis=0)
        ratings: dict[str, dict[str, float]] = {}
        for model, dim, rating in _read_csv(Path(paths["ratings"])):
            ratings.setdefault(model, {})[dim] = (float(rating) - 1.0) / 5.0
        self.rated = list(ratings)
        self.ratings = {d: np.array([ratings[m][d] for m in self.rated]) for d in DIMENSIONS}

    def positions(self, item_ids) -> list[int]:
        return [self.item_pos[i] for i in item_ids]


def _ridge(x: np.ndarray, y: np.ndarray, lam: float) -> tuple[np.ndarray, float]:
    """Ridge with a free intercept, solved as augmented least squares."""
    xm, ym = x.mean(axis=0), y.mean()
    xc = x - xm
    a = np.vstack([xc, math.sqrt(lam) * np.eye(x.shape[1])])
    w = np.linalg.lstsq(a, np.concatenate([y - ym, np.zeros(x.shape[1])]), rcond=None)[0]
    return w, float(ym - xm @ w)


def _pearson(x: np.ndarray, y: np.ndarray) -> float | None:
    if x.max() == x.min() or y.max() == y.min():
        return None
    xc, yc = x - x.mean(), y - y.mean()
    return float(xc @ yc / math.sqrt((xc @ xc) * (yc @ yc)))


def _close(a, b, tol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol * max(1.0, abs(b))


def _in_grid(lam: float, grid) -> bool:
    return any(math.isclose(lam, g, rel_tol=1e-12) for g in grid)


def check_ridge_model(model: dict, x: np.ndarray, y: np.ndarray, item_ids, grid, what: str):
    """Stationarity of the Ridge objective: Xc'(y - Xw - b) = lam*w, residuals sum to 0."""
    _require([d["item_id"] for d in model["items"]] == list(item_ids),
             f"{what}: regressor items differ from the subset's")
    lam = model["lambda"]
    _require(_in_grid(lam, grid), f"{what}: lambda {lam} not in the grid")
    w = np.array([d["weight"] for d in model["items"]])
    resid = y - x @ w - model["intercept"]
    xc = x - x.mean(axis=0)
    scale = 1.0 + np.linalg.norm(xc) ** 2 * np.abs(w).max() + np.linalg.norm(xc) * np.linalg.norm(y)
    _require(abs(resid.sum()) <= 1e-9 * scale, f"{what}: residuals sum to {float(resid.sum())!r}")
    gap = np.abs(xc.T @ resid - lam * w).max()
    _require(gap <= 1e-9 * scale, f"{what}: normal equations off by {float(gap)!r}")


def check_ingest(rdir: Path, op: dict, inp: Inputs) -> None:
    pool = _load(rdir / op["out"] / "pool.json")
    _require(pool["model_ids"] == sorted(pool["model_ids"]), "pool model ids are not sorted")
    _require(pool["model_ids"] == inp.model_ids, "pool model ids differ from scores.csv")
    items = [(d["item_id"], d["task_id"], d["metric"], d["needs_audio_in"],
              d["needs_audio_out"]) for d in pool["items"]]
    _require(items == inp.items, "pool items differ from items.csv")
    _require(np.array_equal(np.array(pool["values"]), inp.values),
             "pool values differ from scores.csv")
    _require(_load(rdir / op["out"] / "manifest.json")["command"] == "ingest", "bad manifest")


def check_select(rdir: Path, op: dict, inp: Inputs) -> None:
    out = rdir / op["out"]
    subset = _load(out / "subset.json")
    ids = [d["item_id"] for d in subset["items"]]
    w = np.array([d["weight"] for d in subset["items"]])
    n, method = op["n"], op["method"]
    _require(subset["method"] == method and subset["n"] == n and len(ids) == n,
             f"subset is not {n} items of {method}")
    _require(len(set(ids)) == n and all(i in inp.item_pos for i in ids),
             "subset items are not distinct pool items")
    _require(bool((w >= 0).all()) and abs(w.sum() - 1.0) <= WEIGHT_SUM_TOL,
             f"subset weights sum to {float(w.sum())!r} or are negative")
    pos = inp.positions(ids)
    if method in ANCHOR_METHODS:
        _require(bool((w >= inp.balance[pos]).all()),
                 "an anchor weight is below its item's balance weight")
    else:
        _require(bool(np.all(w == 1.0 / n)), "uniform subset weights are not 1/n")
    if method in LEARN_METHODS:
        check_ridge_model(_load(out / "score_regressor.json"), inp.values[:, pos],
                          inp.reference, ids, LEARN_LAMBDA_GRID, "score regressor")
    if method == "irt_anchor":
        irt = _load(out / "irt_model.json")
        _require([d["item_id"] for d in irt["items"]] == inp.item_ids, "IRT items differ")
        alpha = np.array([d["alpha"] for d in irt["items"]])
        _require(alpha.shape == (len(inp.item_ids), irt["d"]) and np.isfinite(alpha).all(),
                 "IRT discriminations malformed")
    _require(_load(out / "manifest.json")["command"] == "select", "bad manifest")


def _aucc(points: list[tuple[int, float]]) -> float | None:
    pts = [(n, r) for n, r in points if AUCC_RANGE[0] <= n <= AUCC_RANGE[1]]
    if len(pts) < 2:
        return None
    area = sum((b[0] - a[0]) * (a[1] + b[1]) / 2.0 for a, b in zip(pts, pts[1:]))
    return area / (AUCC_RANGE[1] - AUCC_RANGE[0])


def check_evaluate(rdir: Path, op: dict, inp: Inputs) -> None:
    out = rdir / op["out"]
    report = _load(out / "report.json")
    evals = op["folds"] * op["repeats"]
    cfg = report["config"]
    _require(cfg["sizes"] == sorted(op["sizes"]) and cfg["evaluations_per_size"] == evals,
             "report config differs from the request")
    _require(sorted(report["curves"]) == sorted(op["methods"]),
             "report methods differ from the request")
    csv_rows = [line.split(",") for line in
                (out / "curves.csv").read_text(encoding="utf-8").splitlines()[1:]]
    expected_rows = []
    for method in op["methods"]:  # curves.csv keeps the request's order
        points = report["curves"][method]["points"]
        _require([p["n"] for p in points] == sorted(op["sizes"]), f"{method}: sizes differ")
        for p in points:
            v = np.array(p["values"])
            where = f"{method} n={p['n']}"
            _require(p["evaluations"] == evals and v.size == evals,
                     f"{where}: {v.size} evaluations, expected {evals}")
            _require(bool((np.abs(v) <= 1.0 + RANGE_TOL).all()),
                     f"{where}: value outside [-1, 1]")
            _require(0 <= p["degenerate"] <= evals, f"{where}: bad degenerate count")
            _require(_close(p["mean_r"], float(v.mean()), STAT_TOL), f"{where}: mean_r mismatch")
            sem = float(v.std(ddof=1) / math.sqrt(v.size)) if v.size > 1 else 0.0
            _require(_close(p["sem"], sem, STAT_TOL), f"{where}: sem mismatch")
            if op["full_pool_exact"] and p["n"] == len(inp.item_ids):
                _require(bool(np.all(np.abs(v - 1.0) <= 1e-9)),
                         f"{where}: full-pool subset does not reproduce the reference")
            expected_rows.append([method, str(p["n"]), p["mean_r"], p["sem"], cfg["metric"]])
        summary = report["summaries"][method]
        means = [(p["n"], p["mean_r"]) for p in points]
        _require(_close(summary["aucc"], _aucc(means), STAT_TOL), f"{method}: AUCC mismatch")
        for key, threshold in (("n90", 0.90), ("n95", 0.95)):
            first = next((n for n, r in means if r >= threshold), "--")
            _require(summary[key] == first, f"{method}: {key} disagrees with the curve")
    parsed = [[r[0], r[1], float(r[2]), float(r[3]), r[4]] for r in csv_rows]
    _require(parsed == expected_rows, "curves.csv differs from report.json")


def check_regress(rdir: Path, op: dict, inp: Inputs) -> None:
    out = rdir / op["out"]
    ids = [d["item_id"] for d in _load(rdir / op["subset"])["items"]]
    rows = [inp.model_ids.index(m) for m in inp.rated]
    x = inp.values[rows][:, inp.positions(ids)]
    y = inp.ratings[op["dimension"]]
    k = len(y)
    report = _load(out / "protocol_report.json")
    _require(report["protocol"] == op["protocol"] and report["dimension"] == op["dimension"],
             "protocol report header differs")
    folds = report["folds"]
    if op["protocol"] == "lomo":
        _require([f["held_out"] for f in folds] == [[m] for m in inp.rated],
                 f"{len(folds)} LOMO folds, expected one per each of {k} models")
        heldout = np.empty(k)
        for t, fold in enumerate(folds):
            _require(_in_grid(fold["lambda"], PREFERENCE_LAMBDA_GRID), "fold lambda off grid")
            train = np.arange(k) != t
            w, b = _ridge(x[train], y[train], fold["lambda"])
            preds = x @ w + b
            heldout[t] = preds[t]
            _require(_close(fold["pearson_r"], _pearson(preds, y), REFIT_TOL),
                     f"LOMO fold {t}: Pearson differs from a refit")
        defined = [f["pearson_r"] for f in folds if f["pearson_r"] is not None]
        mean = float(np.mean(defined)) if defined else None
        _require(_close(report["mean_pearson"], mean, STAT_TOL), "mean_pearson mismatch")
        _require(_close(report["heldout_pearson"], _pearson(heldout, y), REFIT_TOL),
                 "heldout_pearson differs from a refit")
    else:
        pairs = list(itertools.combinations(range(k), 2))
        _require([f["held_out"] for f in folds] == [[inp.rated[i], inp.rated[j]] for i, j in pairs],
                 f"{len(folds)} 5-2 folds, expected C({k},2) = {len(pairs)}")
        correct = 0
        for (i, j), fold in zip(pairs, folds):
            _require(_in_grid(fold["lambda"], PREFERENCE_LAMBDA_GRID), "fold lambda off grid")
            train = np.ones(k, dtype=bool)
            train[[i, j]] = False
            w, b = _ridge(x[train], y[train], fold["lambda"])
            pi, pj = fold["predictions"]
            _require(_close(pi, float(x[i] @ w + b), REFIT_TOL)
                     and _close(pj, float(x[j] @ w + b), REFIT_TOL),
                     f"pair ({i}, {j}): predictions differ from a refit")
            ok = pi != pj and y[i] != y[j] and (pi > pj) == (y[i] > y[j])
            _require(fold["correct"] == ok, f"pair ({i}, {j}): correct flag is wrong")
            correct += ok
        _require(report["accuracy"] == correct / len(pairs), "accuracy is not correct / pairs")
    check_ridge_model(_load(out / f"ridge_{op['dimension']}.json"), x, y, ids,
                      PREFERENCE_LAMBDA_GRID, "preference regressor")


def check_export(rdir: Path, op: dict, inp: Inputs) -> None:
    release = _load(rdir / op["out"] / "release.json")
    _require(release["format"] == "dual-mode-subset", "release format")
    _require(release["benchmark_mode"] == _load(rdir / op["subset"]),
             "release subset differs from subset.json")
    expected = {d: _load(rdir / f"reg_lomo_{d}" / f"ridge_{d}.json") for d in DIMENSIONS}
    _require(release["regression_mode"] == expected, "release regressors differ from regress")


CHECKS = {"setup": check_ingest, "select": check_select, "evaluate": check_evaluate,
          "regress": check_regress, "export": check_export}


def check_op(rdir: Path, op: dict, inp: Inputs) -> str | None:
    """None when the op's outputs pass, else the reason they do not."""
    try:
        CHECKS[op["stage"]](rdir, op, inp)
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
