"""Correlation statistics and the cross-validated meta-evaluation harness.

The harness repeatedly splits the model pool into folds. On each fold, every
method selects a subset on the same source models only, scores the held-out
models on that subset with its own prediction rule, and correlates those
scores with the held-out models' full-pool reference scores. Curves over
subset sizes are summarized by AUCC (average correlation over a size range)
and the smallest sizes reaching fixed correlation thresholds.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .pool import ScoreMatrix
from .embeddings import EmbeddingSet
from .weighting import reference_scores
from .selectors import METHODS, SelectorConfig

CORRELATION_METRICS = ("pearson", "spearman", "kendall")

DEFAULT_SIZES = (10, 20, 30, 50, 100, 200, 350, 500, 800, 1000)


def _check_pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
        raise ValidationError("correlation inputs must be 1-D and equal length")
    if x.size < 2:
        raise ValidationError("correlation needs at least 2 points")
    return x, y


def pearson_flagged(x: np.ndarray, y: np.ndarray) -> tuple[float, bool]:
    """Product-moment correlation, clamped to [-1, 1] against rounding;
    zero-variance input yields (0.0, True)."""
    x, y = _check_pair(x, y)
    # exact constancy check: mean-subtraction roundoff must not fake variance
    if x.max() == x.min() or y.max() == y.min():
        return 0.0, True
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc**2).sum() * (yc**2).sum())
    if denom == 0.0:
        return 0.0, True
    return float(np.clip((xc @ yc) / denom, -1.0, 1.0)), False


def _fractional_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with tied values sharing their average rank."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    # a tie group spanning sorted positions i..j (0-based) ranks 0.5 * (i + j) + 1
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


def spearman_flagged(x: np.ndarray, y: np.ndarray) -> tuple[float, bool]:
    """Pearson correlation of fractional ranks (average-rank ties)."""
    x, y = _check_pair(x, y)
    return pearson_flagged(_fractional_ranks(x), _fractional_ranks(y))


def kendall_flagged(x: np.ndarray, y: np.ndarray) -> tuple[float, bool]:
    """Kendall tau-b with tie correction."""
    x, y = _check_pair(x, y)
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    upper = np.triu_indices(x.size, k=1)
    concordance = float((dx[upper] * dy[upper]).sum())
    n0 = x.size * (x.size - 1) / 2.0
    ties_x = float((dx[upper] == 0).sum())
    ties_y = float((dy[upper] == 0).sum())
    denom = np.sqrt((n0 - ties_x) * (n0 - ties_y))
    if denom == 0.0:
        return 0.0, True
    return concordance / denom, False


_FLAGGED = {
    "pearson": pearson_flagged,
    "spearman": spearman_flagged,
    "kendall": kendall_flagged,
}


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    return pearson_flagged(x, y)[0]


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    return spearman_flagged(x, y)[0]


def kendall(x: np.ndarray, y: np.ndarray) -> float:
    return kendall_flagged(x, y)[0]


@dataclass(frozen=True)
class CurvePoint:
    n: int
    mean_r: float
    sem: float
    values: tuple[float, ...]
    degenerate: int = 0


@dataclass
class CorrelationCurve:
    """Mean +/- SEM correlation by subset size, one value per fold x repeat."""

    metric: str
    points: list[CurvePoint]

    def __post_init__(self) -> None:
        if self.metric not in CORRELATION_METRICS:
            raise ValidationError(f"unknown correlation metric {self.metric!r}")
        sizes = [p.n for p in self.points]
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValidationError("curve sizes must be strictly increasing")

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(p.n for p in self.points)

    def to_json_dict(self) -> dict:
        return {
            "metric": self.metric,
            "points": [
                {
                    "n": p.n,
                    "mean_r": p.mean_r,
                    "sem": p.sem,
                    "evaluations": len(p.values),
                    "degenerate": p.degenerate,
                    "values": list(p.values),
                }
                for p in self.points
            ],
        }


def aucc(curve: CorrelationCurve, lo: int = 10, hi: int = 200) -> float:
    """Trapezoidal mean of the curve over the evaluated sizes within [lo, hi]."""
    pts = [(p.n, p.mean_r) for p in curve.points if lo <= p.n <= hi]
    if len(pts) < 2:
        raise ValidationError(f"need at least 2 curve points within [{lo}, {hi}]")
    xs = np.asarray([p[0] for p in pts], dtype=np.float64)
    ys = np.asarray([p[1] for p in pts], dtype=np.float64)
    return float(np.trapezoid(ys, xs) / (hi - lo))


def n_threshold(curve: CorrelationCurve, r_min: float) -> int | None:
    """Smallest evaluated size with mean r >= r_min, or None if never reached."""
    if not curve.points:
        raise ValidationError("empty curve")
    for p in curve.points:
        if p.mean_r >= r_min:
            return p.n
    return None


def _fold_model_splits(
    n_models: int, folds: int, rng: np.random.Generator
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Shuffle models and return (source_rows, heldout_rows) per fold."""
    perm = rng.permutation(n_models)
    out = []
    for f in range(folds):
        held = np.sort(perm[f::folds])
        source = np.sort(np.setdiff1d(perm, held))
        out.append((source, held))
    return out


def _run_repeat(
    matrix: ScoreMatrix,
    configs: Sequence[SelectorConfig],
    sizes: Sequence[int],
    folds: int,
    master_seed: int,
    metric: str,
    ref: np.ndarray,
    semantic: EmbeddingSet | None,
    acoustic: EmbeddingSet | None,
    repeat: int,
) -> list[list[list[tuple[float, bool]]]]:
    """One repeat: per method and size, the (value, degenerate) pairs for every
    fold. Each fold's source submatrix is built once for all methods; a
    method's prepare step runs once per fold, with n the largest size, and
    select and score once per size."""
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([master_seed, repeat]))
    splits = _fold_model_splits(matrix.n_models, folds, shuffle_rng)
    corr = _FLAGGED[metric]
    out: list[list[list[tuple[float, bool]]]] = [[[] for _ in sizes] for _ in configs]
    for fold_idx, (source_rows, held_rows) in enumerate(splits):
        seeds = np.random.SeedSequence([master_seed, repeat, fold_idx]).generate_state(1)
        source = matrix.submatrix([matrix.model_ids[i] for i in source_rows])
        for config, per_size in zip(configs, out):
            prepare, select, score = METHODS[config.method]
            fold_config = replace(config, seed=int(seeds[0]))
            where = f"repeat={repeat}, fold={fold_idx}"
            try:
                prepared = prepare(source, replace(fold_config, n=sizes[-1]), semantic, acoustic)
                for size_idx, n in enumerate(sizes):
                    where = f"n={n}, repeat={repeat}, fold={fold_idx}"
                    selection = select(source, replace(fold_config, n=n), prepared)
                    predicted = score(matrix, held_rows, selection)
                    per_size[size_idx].append(corr(predicted, ref[held_rows]))
            except ValidationError as exc:
                raise ValidationError(f"{config.method} failed at {where}: {exc}") from exc
    return out


def crossval_curves(
    matrix: ScoreMatrix,
    configs: Sequence[SelectorConfig],
    sizes: Sequence[int],
    folds: int = 3,
    repeats: int = 100,
    master_seed: int = 0,
    metric: str = "pearson",
    semantic: EmbeddingSet | None = None,
    acoustic: EmbeddingSet | None = None,
    jobs: int = 1,
) -> dict[str, CorrelationCurve]:
    """folds x repeats held-out evaluations of each selector per subset size,
    one curve per method in the order of configs.

    Each repeat shuffles the models into folds with its own seed derived from
    master_seed, so results are identical for any worker count, and a
    method's curve does not depend on the other methods listed.
    """
    if metric not in CORRELATION_METRICS:
        raise ValidationError(f"unknown correlation metric {metric!r}")
    methods = [config.method for config in configs]
    for method in methods:
        if methods.count(method) > 1:
            raise ValidationError(f"the methods name {method!r} more than once")
    if folds < 2:
        raise ValidationError("need at least 2 folds")
    if matrix.n_models < 2 * folds:  # every held-out fold needs 2 models to correlate
        raise ValidationError(
            f"{folds} folds need at least {2 * folds} models (2 held out per fold), "
            f"got {matrix.n_models}"
        )
    sizes = sorted(set(int(s) for s in sizes))
    if not sizes:
        raise ValidationError("no subset sizes given")
    if sizes[-1] > matrix.n_items:
        raise ValidationError(f"size {sizes[-1]} exceeds pool size {matrix.n_items}")
    if repeats < 1:
        raise ValidationError("repeats must be >= 1")
    if jobs < 1:
        raise ValidationError("jobs must be >= 1")

    ref = reference_scores(matrix)
    run = partial(
        _run_repeat, matrix, configs, sizes, folds, master_seed, metric, ref, semantic, acoustic
    )
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            per_repeat = list(pool.map(run, range(repeats)))
    else:
        per_repeat = [run(r) for r in range(repeats)]

    curves = {}
    for method_idx, config in enumerate(configs):
        points = []
        for size_idx, n in enumerate(sizes):
            pairs = [pair for rep in per_repeat for pair in rep[method_idx][size_idx]]
            values = np.asarray([p[0] for p in pairs])
            degenerate = sum(p[1] for p in pairs)
            sem = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
            points.append(CurvePoint(n=n, mean_r=float(values.mean()), sem=sem,
                                     values=tuple(map(float, values)), degenerate=degenerate))
        curves[config.method] = CorrelationCurve(metric, points)
    return curves


@dataclass
class EvalReport:
    """Curves per method plus AUCC and threshold summaries."""

    curves: dict[str, CorrelationCurve]
    folds: int
    repeats: int
    sizes: tuple[int, ...]
    master_seed: int
    metric: str
    aucc_range: tuple[int, int] = (10, 200)
    summaries: dict[str, dict] = field(default_factory=dict)

    def summarize(self) -> None:
        self.summaries = {}
        lo, hi = self.aucc_range
        for method, curve in self.curves.items():
            in_range = [p for p in curve.points if lo <= p.n <= hi]
            area = aucc(curve, lo, hi) if len(in_range) >= 2 else None
            if area is not None and not -1.0 <= area <= 1.0 + 1e-12:
                raise ValidationError(f"AUCC {area} outside [-1, 1]")
            n90 = n_threshold(curve, 0.90)
            n95 = n_threshold(curve, 0.95)
            if n90 is not None and n95 is not None and n90 > n95:
                raise ValidationError("n90 exceeds n95")
            self.summaries[method] = {
                "aucc": area,
                "n90": n90 if n90 is not None else "--",
                "n95": n95 if n95 is not None else "--",
            }

    def to_json_dict(self) -> dict:
        if not self.summaries:
            self.summarize()
        return {
            "config": {
                "folds": self.folds,
                "repeats": self.repeats,
                "evaluations_per_size": self.folds * self.repeats,
                "sizes": list(self.sizes),
                "master_seed": self.master_seed,
                "metric": self.metric,
                "aucc_range": list(self.aucc_range),
            },
            "summaries": self.summaries,
            "curves": {m: c.to_json_dict() for m, c in self.curves.items()},
        }

    def to_csv(self) -> str:
        """Flat ``method,n,mean_r,sem,metric`` rows for external plotting."""
        lines = ["method,n,mean_r,sem,metric"]
        for method, curve in self.curves.items():
            for p in curve.points:
                lines.append(f"{method},{p.n},{p.mean_r!r},{p.sem!r},{curve.metric}")
        return "\n".join(lines) + "\n"
