"""Subset selection methods.

Ten methods share one output contract: a SubsetSpec of exactly n distinct
items whose weights sum to 1. Anchor-style methods cluster an item embedding
space with task-weighted K-Means and return the nearest real item to each
centroid, weighted by its cluster's share of the task-balance mass.
Learn-style methods additionally return the fitted score regressor.
METHODS declares each method once as three steps: prepare(matrix, config,
semantic, acoustic) does the work that does not depend on the subset size,
with config.n the largest size that will be selected;
select(matrix, config, prepared) returns (subset, regressor or None, IrtModel
or None); score(matrix, heldout_rows, selection) is the method's own
prediction for those rows of the full matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import ValidationError
from .pool import ScoreMatrix
from .embeddings import EmbeddingSet, assemble_combined, performance_embeddings
from .weighting import SubsetSpec, balance_weights, reference_scores
from .weighting import apw_scores, renormalized_balance_scores
from .regression import RidgeModel, _lambda_grid, _ridge_cv_stack, _stack_batch, ridge_cv
from . import irt as irt_mod

LEARN_LAMBDA_GRID = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)

KMEANS_MAX_ITER = 300

# Smallest n·k at which weighted_kmeans keeps per-point bounds (see its docstring).
KMEANS_BOUNDS_MIN_NK = 200_000


@dataclass(frozen=True)
class SelectorConfig:
    method: str
    n: int
    seed: int
    bins: int = 10
    n_search: int = 1000
    holdout_fraction: float = 0.25
    lambda_grid: tuple[float, ...] = LEARN_LAMBDA_GRID
    pca_dim: int = 50
    irt_dim: int = 5
    irt_epochs: int = 500
    irt_lr: float = 0.1

    def __post_init__(self) -> None:
        if not isinstance(self.method, str) or self.method not in METHODS:
            raise ValidationError(
                f"unknown method {self.method!r}; valid: {', '.join(METHODS)}"
            )
        for name in ("seed", "n", "bins", "n_search", "pca_dim", "irt_dim", "irt_epochs"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"{name} must be an integer")
        for name in ("holdout_fraction", "irt_lr"):
            if not _is_real(getattr(self, name)):
                raise ValidationError(f"{name} must be a finite real number")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        for name in ("n", "bins", "n_search", "pca_dim", "irt_dim", "irt_epochs"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if not self.irt_lr > 0.0:
            raise ValidationError("irt_lr must be > 0")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValidationError("holdout_fraction must be in (0, 1)")
        if not isinstance(self.lambda_grid, (list, tuple)):
            raise ValidationError("lambda_grid must be a list of numbers")
        if not self.lambda_grid:
            raise ValidationError("empty lambda grid")
        for lam in self.lambda_grid:
            if not (_is_real(lam) and lam > 0.0):
                raise ValidationError(f"lambda_grid values must be finite and > 0, got {lam!r}")
        object.__setattr__(self, "lambda_grid", tuple(self.lambda_grid))


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


@dataclass
class ClusterResult:
    """Weighted K-Means output: assignments, centroids, per-cluster anchor row,
    the final weighted within-cluster sum of squares, and the objective value
    recorded after each Lloyd iteration (non-increasing)."""

    assignments: np.ndarray
    centroids: np.ndarray
    anchor_rows: np.ndarray
    objective: float
    objective_trace: tuple[float, ...] = field(default_factory=tuple)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def cluster_weight(self, weights: np.ndarray) -> np.ndarray:
        """Sum of the item weights in each cluster."""
        return np.bincount(self.assignments, weights=weights, minlength=self.k)


def _pairwise_sq_dists(
    points: np.ndarray, norms: np.ndarray, centers: np.ndarray, out: np.ndarray, gram: np.ndarray
) -> None:
    """max((‖p‖² + ‖c‖²) − (2p)·c, 0) for every point and centre, in that order,
    into out; norms holds the points' ‖p‖² and gram is scratch of out's shape.
    (2p)·c is one matmul by 2c: doubling is exact, so every product is the same."""
    np.matmul(points, (2.0 * centers).T, out=gram)
    out[:] = norms[:, None]
    out += (centers**2).sum(axis=1)
    out -= gram
    np.maximum(out, 0.0, out=out)


def _kmeanspp_seed(
    points: np.ndarray, norms: np.ndarray, weights: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Distance-weighted greedy seeding (k-means++; Arthur & Vassilvitskii,
    SODA 2007): the first seed is drawn with probability proportional to
    weight, each later one to weight times squared distance to the nearest
    chosen seed. When that mass is all zero, every remaining point coincides
    with a chosen seed and the first unused row is taken.

    Each draw is Generator.choice(n, p=q)'s own inverse-CDF form for one
    sample with replacement, on q = mass / total: cdf = q.cumsum(), cdf /=
    cdf[-1], and the row cdf.searchsorted(rng.random(), side="right"). It
    takes the same row from the same stream without choice's per-call checks
    of q. A total that is not finite at draw j stops the seeding, and the j
    seeds drawn before it are returned. The one-centre distance is
    max((‖p‖² + ‖c‖²) − (2p)·c, 0) with ‖c‖² = norms[c], which is
    (c**2).sum() for C-contiguous points, and (2p)·c one matmul by
    2.0 * points[c]. Mass, q and cdf reuse the distance buffers."""
    n = points.shape[0]
    chosen = np.empty(k, dtype=np.intp)
    d2, new_d2, gram = np.full(n, np.inf), np.empty(n), np.empty((n, 1))
    mass, cdf = gram[:, 0], new_d2
    np.copyto(mass, weights)
    for j in range(k):
        total = mass.sum()
        if not math.isfinite(total):
            return chosen[:j]
        if total <= 0.0:
            used = np.zeros(n, dtype=bool)
            used[chosen[:j]] = True
            chosen[j] = int(np.flatnonzero(~used)[0])
        else:
            np.divide(mass, total, out=mass)
            np.cumsum(mass, out=cdf)
            cdf /= cdf[-1]
            chosen[j] = cdf.searchsorted(rng.random(), side="right")
        if j == k - 1:
            break
        c = chosen[j]
        np.matmul(points, (2.0 * points[c])[:, None], out=gram)
        np.add(norms, norms[c], out=new_d2)
        new_d2 -= gram[:, 0]
        np.maximum(new_d2, 0.0, out=new_d2)
        np.minimum(d2, new_d2, out=d2)
        np.multiply(weights, d2, out=mass)
    return chosen


class _KMeansInput:
    """Weighted K-Means input, checked once for every k: C-contiguous float64
    points, their weights and squared norms (p**2).sum(), and the K-Means++
    seed order of `seed`, drawn on first use for the largest k asked so far,
    and for at least `upto` seeds. Each draw depends only on the draws before
    it, so the seeds of any k are the first k rows of that order: the rows
    _kmeanspp_seed draws for k alone. A seeding that stops at draw j fails
    every k above j, as it would alone."""

    def __init__(self, points: np.ndarray, weights: np.ndarray, seed: int, upto: int) -> None:
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        if self.points.ndim != 2:
            raise ValidationError("points must be a 2-D array")
        self.weights = w = np.asarray(weights, dtype=np.float64)
        n = self.points.shape[0]
        if w.shape != (n,) or not ((w > 0.0) & (w < np.inf)).all():
            raise ValidationError("weights must be finite, positive and aligned with points")
        if not 1 <= upto <= n:
            raise ValidationError(f"k={upto} outside [1, {n}]")
        with np.errstate(over="ignore", invalid="ignore"):
            self.norms = (self.points**2).sum(axis=1)
        if not np.isfinite(self.norms).all():
            raise ValidationError("points must be finite, with squared norms below the float64 maximum")
        self.seed, self.upto, self._asked = seed, upto, 0

    def seeds(self, k: int) -> np.ndarray:
        if k > self._asked:
            self._asked = max(k, self.upto)
            rng = np.random.default_rng(self.seed)
            self._order = _kmeanspp_seed(self.points, self.norms, self.weights, self._asked, rng)
        if self._order.size < k:
            raise ValidationError("k-means++ seeding mass is not finite; points or weights too large")
        return self._order[:k]


def _own_sq_dists(points: np.ndarray, centroids: np.ndarray, assign: np.ndarray) -> np.ndarray:
    """((p − c)**2).sum() from every point to its own centroid, with one
    n × d temporary: p − c and its square are formed in place."""
    diffs = centroids[assign]
    np.subtract(points, diffs, out=diffs)
    np.multiply(diffs, diffs, out=diffs)
    return diffs.sum(axis=1)


def _weighted_means(
    wcols: np.ndarray, w: np.ndarray, assign: np.ndarray, counts: np.ndarray, out: np.ndarray
) -> None:
    """Each cluster's (w·p).sum(axis=0) / w.sum() over its rows in ascending
    order, into out; wcols holds the columns of w·p, one per row (d × n).

    numpy sums a C-contiguous block of two or more columns down its rows in
    order, starting from 0.0, which is the order np.bincount adds its weights
    in, so each such column takes one bincount. A 1-D sum, which the weight
    sums and a one-column block are, adds in order from 0.0 below 8 terms and
    pairwise from 8 on; clusters of 8 or more rows take those sums slice by
    slice after one stable sort of the assignment, whose int16 keys numpy
    radix-sorts to the same order whenever the cluster count fits."""
    k = counts.size
    totals = np.bincount(assign, weights=w, minlength=k)
    for j, col in enumerate(wcols):
        out[:, j] = np.bincount(assign, weights=col, minlength=k)
    big = np.flatnonzero(counts >= 8)
    if big.size:
        keys = assign.astype(np.int16) if k <= np.iinfo(np.int16).max else assign
        order = np.argsort(keys, kind="stable")
        ws, col = w[order], wcols[0][order] if len(wcols) == 1 else None
        stops = np.cumsum(counts)
        for c, a, b in zip(big.tolist(), (stops - counts)[big].tolist(), stops[big].tolist()):
            totals[c] = ws[a:b].sum()
            if col is not None:
                out[c, 0] = col[a:b].sum()
    out /= totals[:, None]


def _anchor_rows(d2: np.ndarray, assign: np.ndarray) -> np.ndarray:
    """Each cluster's lowest row among its members whose distance d2[row,
    cluster] equals the cluster's least exactly: the member np.argmin picks.
    One pass over the rows takes each cluster's least with np.minimum.at and
    the lowest equal row with np.minimum.at again. A NaN distance equals no
    least, and a cluster left without an anchor raises a ValidationError."""
    n, k = d2.shape
    own = d2[np.arange(n), assign]
    least = np.full(k, np.inf)
    np.minimum.at(least, assign, own)
    rows = np.flatnonzero(own == least[assign])
    anchors = np.full(k, n, dtype=np.intp)
    np.minimum.at(anchors, assign[rows], rows)
    if (anchors == n).any():
        raise ValidationError("non-finite distance to a centroid; points too large")
    return anchors


def _second_nearest(d2: np.ndarray, best: np.ndarray) -> np.ndarray:
    """Each row's smallest entry outside column best[row], masking d2 in place.
    An argmin and a gather are faster than d2.min(axis=1) when k is small."""
    rows = np.arange(d2.shape[0])
    d2[rows, best] = np.inf
    return d2[rows, d2.argmin(axis=1)]


def _bounded_assign(
    points: np.ndarray, norms: np.ndarray, centroids: np.ndarray, assign: np.ndarray,
    lower: np.ndarray, own: np.ndarray, err: np.ndarray, d2: np.ndarray, gram: np.ndarray,
) -> tuple[np.ndarray, np.ndarray] | None:
    """The next assignment and cluster counts, with distances computed only
    for the rows whose bounds do not settle their cluster, or None when the
    full kernel must decide: more than half the rows are active, an active
    row's two nearest computed distances lie within 2·err, or a cluster
    empties. The active rows are computed in the leading rows of d2 and gram,
    and their lower bounds are refreshed only when the step is taken."""
    n, k = d2.shape
    active = np.flatnonzero(~(lower * lower - own > 3.0 * err))
    m = active.size
    if 2 * m > n:
        return None
    sub = d2[:m]
    _pairwise_sq_dists(points[active], norms[active], centroids, sub, gram[:m])
    best = sub.argmin(axis=1)
    nearest = sub[np.arange(m), best]
    second = _second_nearest(sub, best)
    if not (second - nearest > 2.0 * err[active]).all():
        return None
    new_assign = assign.copy()
    new_assign[active] = best
    counts = np.bincount(new_assign, minlength=k)
    if not counts.all():
        return None
    lower[active] = np.sqrt(np.maximum(second - err[active], 0.0))
    return new_assign, counts


def weighted_kmeans(
    points: np.ndarray,
    weights: np.ndarray,
    k: int,
    seed: int,
    max_iter: int = KMEANS_MAX_ITER,
    prepared: _KMeansInput | None = None,
) -> ClusterResult:
    """Lloyd iterations with weight-aware centroid updates.

    Runs until the assignment reaches a fixpoint or max_iter. Every cluster is
    kept non-empty (an emptied cluster is repaired by giving it the point with
    the largest weighted distance contribution), and the recorded
    per-iteration objective never increases. Seeds come from _kmeanspp_seed,
    whose draws are Generator.choice's own inverse-CDF form.

    Every bit of the result depends on the arithmetic order, which is fixed:
    each squared distance is max((‖p‖² + ‖c‖²) − (2p)·c, 0) with ‖p‖² =
    (p**2).sum() held in norms, which also gives a seed's ‖c‖² as norms[c],
    and each centroid is (w·p).sum(axis=0) / w.sum() over its members' rows in
    ascending row order. Points are read as a C-contiguous float64 copy when
    they are not one already, so the result does not depend on their layout.

    The anchor of a cluster is the lowest row among its members whose final
    kernel distance to the centroid equals the cluster's minimum exactly, the
    member np.argmin picks; _anchor_rows finds every anchor in one pass.

    Non-finite points or weights, points whose squared norm overflows, and a
    seeding mass or final distance that is not finite raise a ValidationError.
    prepared, when given, is a _KMeansInput of these points, weights and
    seed, shared by several k: its checks, norms and seed order stand in for
    this call's own.

    When n·k reaches KMEANS_BOUNDS_MIN_NK, a Lloyd step recomputes distances
    only for the points whose cluster could change (Hamerly, "Making k-means
    even faster", SDM 2010; Elkan, ICML 2003), and the result keeps every bit.
    Each point keeps l, a lower bound on its true distance to every centre but
    its own, and s, its computed direct-form distance ((p − c)**2).sum() to
    its own centre, which the objective forms anyway. err = 4·γ_{d+2}·(‖p‖ +
    max‖c‖)² plus an underflow floor, with γ_m = m·u / (1 − m·u), is four
    times a bound on the rounding error of either form of a squared distance,
    in any summation order (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3); the spare factor covers the rounding of the bound
    arithmetic, and a lost skip costs nothing. A point with l² − s > 3·err
    would get a strictly smaller kernel distance to its own centre than to
    any other, so it keeps its cluster and the lowest-index tie rule is never
    needed. After each means step, l shrinks by the largest drift among the
    other centres, rounded up, and is clamped at 0. The remaining rows are
    computed on their own, which may round differently from the full kernel,
    so their argmin is taken only when it wins by more than 2·err. The full
    kernel runs, unchanged, on the first step, on such a near-tie, on a step
    that empties a cluster (the repair reads every distance), when more than
    half the rows are active, and in the final anchor pass.

    Below KMEANS_BOUNDS_MIN_NK every step runs the full kernel. Measured with
    one BLAS thread, the bounds cost 2–34% per call on 200-item pools (n·k ≤
    40,000), broke even around n·k = 100,000, and from 200,000 on saved
    12–28% at 4,000–10,000 points and a third at 16,680 points with k = 40–60;
    at 1,000 points with k = 200 they still cost 3–5%.
    """
    data = prepared or _KMeansInput(points, weights, seed, k)
    points, w, norms = data.points, data.weights, data.norms
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValidationError(f"k={k} outside [1, {n}]")

    if k > 1 and bool((points == points[0]).all()):
        # degenerate pool: first k rows become singleton anchors, the rest join cluster 0
        assign = np.zeros(n, dtype=np.intp)
        assign[:k] = np.arange(k)
        centroids = np.repeat(points[0][None, :], k, axis=0)
        return ClusterResult(assign, centroids, np.arange(k, dtype=np.intp), 0.0, (0.0,))

    centroids = points[data.seeds(k)]
    wcols = np.multiply(w, points.T, out=np.empty(points.shape[::-1]))
    d2, gram = np.empty((n, k)), np.empty((n, k))
    assign = np.full(n, -1, dtype=np.intp)
    trace: list[float] = []
    bounded = n * k >= KMEANS_BOUNDS_MIN_NK
    if bounded:
        terms = points.shape[1] + 2
        unit = np.finfo(np.float64).eps / 2
        slack = 4.0 * terms * unit / (1.0 - terms * unit)
        floor = terms * np.finfo(np.float64).tiny
        root_norms = np.sqrt(norms)
        lower = own = None

    for _ in range(max_iter):
        step = None
        if bounded:
            err = slack * (root_norms + math.sqrt((centroids**2).sum(axis=1).max())) ** 2 + floor
            if lower is not None:
                step = _bounded_assign(points, norms, centroids, assign, lower, own, err, d2, gram)
        if step is not None:
            new_assign, counts = step
        else:
            _pairwise_sq_dists(points, norms, centroids, d2, gram)
            new_assign = d2.argmin(axis=1)

            counts = np.bincount(new_assign, minlength=k)
            for empty in np.flatnonzero(counts == 0):
                contrib = w * d2[np.arange(n), new_assign]
                contrib[counts[new_assign] < 2] = -np.inf  # do not empty another cluster
                mover = int(np.argmax(contrib))
                counts[new_assign[mover]] -= 1
                new_assign[mover] = empty
                counts[empty] = 1
            if bounded:
                lower = np.sqrt(np.maximum(_second_nearest(d2, new_assign) - err, 0.0))

        converged = bool((new_assign == assign).all())
        assign = new_assign
        if converged:
            break
        previous = centroids.copy()
        _weighted_means(wcols, w, assign, counts, centroids)
        own = _own_sq_dists(points, centroids, assign)
        trace.append(float((w * own).sum()))
        if bounded:
            drift = np.sqrt(((centroids - previous) ** 2).sum(axis=1) + floor) * (1.0 + slack)
            top = int(np.argmax(drift))
            runner_up = np.partition(drift, k - 2)[k - 2] if k > 1 else 0.0
            other = np.where(assign == top, runner_up, drift[top])
            lower = np.maximum(lower - other, 0.0) * (1.0 - slack)

    _pairwise_sq_dists(points, norms, centroids, d2, gram)
    anchors = _anchor_rows(d2, assign)
    objective = float((w * _own_sq_dists(points, centroids, assign)).sum())
    if not trace:
        trace.append(objective)
    return ClusterResult(assign, centroids, anchors, objective, tuple(trace))


def _require_models(matrix: ScoreMatrix, minimum: int, what: str) -> None:
    if matrix.n_models < minimum:
        raise ValidationError(f"{what} needs at least {minimum} models")


def _require_items(matrix: ScoreMatrix, n: int) -> None:
    if n > matrix.n_items:
        raise ValidationError(f"n={n} exceeds pool size {matrix.n_items}")


def _first_occurrences(rows: np.ndarray) -> np.ndarray:
    """rows without repeats, each kept where it first occurs."""
    _, first = np.unique(rows, return_index=True)
    return rows if first.size == rows.size else rows[np.sort(first)]


class _BalancedDraws:
    """Balanced draws of n distinct item positions with probabilities p (the
    normalized balance weights); draw `index` of `seed` comes from the stream
    SeedSequence([seed, 0, index]).

    Each draw is Generator.choice(p.size, size=n, replace=False, p=p,
    shuffle=False) in its own form, and takes the same rows from the same
    stream. choice checks p, draws n uniforms, maps each to the row
    cdf.searchsorted(u, side="right") on cdf = p.cumsum(), cdf /= cdf[-1], and
    keeps the first occurrence of each row; while rows are missing, it zeroes
    the rows found in a copy of p, rebuilds the cdf and draws the rest. The
    checks and the first cdf do not depend on the stream, so they are made
    once here for every draw: p's checks by choice itself on a zero-size
    draw, which takes no sample, and the two checks of n against p."""

    def __init__(self, p: np.ndarray, n: int) -> None:
        np.random.default_rng(0).choice(p.size, size=0, replace=False, p=p)
        if n > p.size:
            raise ValueError("Cannot take a larger sample than population when replace is False")
        if np.count_nonzero(p > 0) < n:
            raise ValueError("Fewer non-zero entries in p than size")
        self.p, self.n = p, n
        self.cdf = np.cumsum(p)
        self.cdf /= self.cdf[-1]

    def __call__(self, seed: int, index: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0, index]))
        found = _first_occurrences(self.cdf.searchsorted(rng.random(self.n), side="right"))
        if found.size < self.n:
            p = self.p.copy()
            while found.size < self.n:
                u = rng.random(self.n - found.size)
                p[found] = 0
                cdf = np.cumsum(p)
                cdf /= cdf[-1]
                new = _first_occurrences(cdf.searchsorted(u, side="right"))
                found = np.concatenate([found, new])
        return found


def select_random_balanced(matrix: ScoreMatrix, n: int, seed: int) -> SubsetSpec:
    """Task-balanced random draw without replacement, uniform weights."""
    _require_items(matrix, n)
    b = balance_weights(matrix)
    idx = _BalancedDraws(b / b.sum(), n)(seed, 0)
    return SubsetSpec.uniform("random_balanced", [matrix.item_ids[i] for i in idx], seed)


def select_variance_top(matrix: ScoreMatrix, n: int, seed: int = 0) -> SubsetSpec:
    """Top-n items by sample variance across models (K-1 denominator),
    ties broken toward the lowest item_id."""
    _require_models(matrix, 2, "variance selection")
    _require_items(matrix, n)
    by_id = matrix.id_order
    var = matrix.values.var(axis=0, ddof=1)
    order = by_id[np.argsort(-var[by_id], kind="stable")]
    ids = [matrix.item_ids[i] for i in order[:n]]
    return SubsetSpec.uniform("variance_top", ids, seed)


def select_difficulty_stratified(
    matrix: ScoreMatrix, n: int, bins: int, seed: int
) -> SubsetSpec:
    """Two-phase stratified draw over difficulty quantile bins.

    Phase 1 takes floor(n/bins) items per bin with within-bin probabilities
    proportional to 1/|task|. Phase 2 re-bins the unsampled items into
    r = n mod bins fresh quantile bins and takes one from each.
    """
    _require_models(matrix, 2, "difficulty stratification")
    _require_items(matrix, n)
    rng = np.random.default_rng(seed)
    difficulty = 1.0 - matrix.values.mean(axis=0)
    task_sizes = np.empty(matrix.n_items)
    for pos in matrix.task_index.values():
        task_sizes[pos] = len(pos)

    by_id = matrix.id_order
    order = by_id[np.argsort(difficulty[by_id], kind="stable")]  # ties to the lowest item_id
    # empirical quantile bins: contiguous rank groups, the first N mod B one item larger
    groups = np.array_split(order, bins)
    chosen: list[int] = []
    taken = np.zeros(matrix.n_items, dtype=bool)

    def draw_from(pool: np.ndarray, count: int) -> None:
        avail = pool[~taken[pool]]
        p = 1.0 / task_sizes[avail]
        picks = rng.choice(avail, size=count, replace=False, p=p / p.sum(), shuffle=False)
        for i in picks:
            chosen.append(int(i))
            taken[i] = True

    # every bin holds at least floor(N/bins) >= quota items, so no bin runs short
    quota = n // bins
    if quota:
        for grp in groups:
            draw_from(grp, quota)

    # remainder < bins, and at least remainder items are left unsampled
    remainder = n - len(chosen)
    if remainder:
        unsampled = order[~taken[order]]  # difficulty order preserved
        for grp in np.array_split(unsampled, remainder):
            draw_from(grp, 1)

    if len(chosen) != n:
        raise ValidationError(f"stratified draw produced {len(chosen)} items, wanted {n}")
    ids = [matrix.item_ids[i] for i in chosen]
    return SubsetSpec.uniform("difficulty_stratified", ids, seed)


@dataclass
class _AnchorFold:
    """An anchor method's prepared fold: its embedding space's rows and the
    balance weights, both in item_id order, the fitted IrtModel (irt_anchor
    only) and the largest subset size n asked of the fold. The space itself
    is not kept, so it is freed before K-Means runs. From the fold's first
    select on, kmeans holds the K-Means input every size shares: these points
    and weights, their norms and the seed order for n."""

    points: np.ndarray
    weights: np.ndarray
    fitted: irt_mod.IrtModel | None
    n: int
    kmeans: _KMeansInput | None = None


def _anchor_fold(
    space: EmbeddingSet, matrix: ScoreMatrix, n: int, fitted: irt_mod.IrtModel | None = None
) -> _AnchorFold:
    if space.item_ids != matrix.item_ids:
        raise ValidationError("embedding rows do not match the pool")
    by_id = matrix.id_order
    return _AnchorFold(space.vectors[by_id], balance_weights(matrix)[by_id], fitted, n)


def _select_fold_anchors(
    fold: _AnchorFold, matrix: ScoreMatrix, n: int, seed: int, method_name: str
) -> tuple[SubsetSpec, ClusterResult]:
    """select_anchor_points on a prepared fold, whose K-Means input, built by
    the fold's first select, serves the sizes after it."""
    _require_items(matrix, n)
    if fold.kmeans is None or fold.kmeans.seed != seed:
        upto = min(fold.n, matrix.n_items)
        fold.kmeans = _KMeansInput(fold.points, fold.weights, seed, upto)
    data = fold.kmeans
    result = weighted_kmeans(data.points, data.weights, n, seed, prepared=data)
    cluster_w = result.cluster_weight(data.weights)
    by_id = matrix.id_order
    entries = tuple(
        (matrix.item_ids[by_id[row]], float(cw))
        for row, cw in zip(result.anchor_rows, cluster_w)
    )
    return SubsetSpec(method_name, n, seed, entries), result


def select_anchor_points(
    embeddings: EmbeddingSet,
    matrix: ScoreMatrix,
    n: int,
    seed: int,
    method_name: str = "anchor_points",
) -> tuple[SubsetSpec, ClusterResult]:
    """Cluster the embedding space into n task-weighted clusters and return
    each cluster's nearest item with the cluster's balance-weight mass.

    Items are processed in item_id order so every tie (anchor choice, the
    degenerate identical-pool rule) resolves toward the lowest item_id.
    """
    return _select_fold_anchors(_anchor_fold(embeddings, matrix, n), matrix, n, seed, method_name)


@dataclass
class LearnSelection:
    """Learn-method output: the subset, the fitted score regressor, and the
    per-candidate validation MAEs examined in search mode."""

    subset: SubsetSpec
    model: RidgeModel
    candidate_mae: tuple[float, ...] = ()


def select_learn(matrix: ScoreMatrix, config: SelectorConfig) -> LearnSelection:
    """Random-Sampling-Learn / Random-Search-Learn, by config.method.

    random_sampling_learn: balanced draw 0 (the random_balanced subset), then
    a Ridge fit from subset score vectors to full-pool reference scores
    (lambda by 5-fold CV, refit in dual form from the m x m kernel of the
    m models, regression._ridge_cv_stack).

    random_search_learn: config.n_search balanced draws scored by validation
    MAE on a fixed config.holdout_fraction split of the source models; the
    first draw of least MAE is refit on all source models. With n_search=1
    this reduces to sampling. Candidates are drawn one at a time, each from
    its own stream, and scored in stacked batches (regression._stack_batch):
    one _ridge_cv_stack call and one stacked prediction per batch. The MAEs
    equal those of scoring each candidate alone with ridge_cv, bit for bit.
    """
    method, n, seed, lambda_grid = config.method, config.n, config.seed, config.lambda_grid
    if method not in ("random_sampling_learn", "random_search_learn"):
        raise ValidationError(f"{method} is not a learn method")
    _require_models(matrix, 4, "learn-method selection")
    _require_items(matrix, n)
    k = matrix.n_models
    ref = reference_scores(matrix)
    b = balance_weights(matrix)
    draw = _BalancedDraws(b / b.sum(), n)  # shared by every candidate

    maes: list[float] = []
    if method == "random_search_learn":
        perm = np.random.default_rng(np.random.SeedSequence([seed, 1])).permutation(k)
        n_val = max(1, int(round(k * config.holdout_fraction)))
        val_rows, train_rows = perm[:n_val], perm[n_val:]
        if len(train_rows) < 2:
            raise ValidationError("not enough source models for the search split")
        m = len(train_rows)
        grid = _lambda_grid(lambda_grid)
        batch = _stack_batch(n, grid.size, m)
        for start in range(0, config.n_search, batch):
            stop = min(start + batch, config.n_search)
            idx = np.array([draw(seed, i) for i in range(start, stop)])
            x = matrix.values[train_rows[None, :, None], idx[:, None, :]]
            y = np.broadcast_to(ref[train_rows], (stop - start, m))
            _, weights, intercepts = _ridge_cv_stack(x, y, grid, min(5, m))
            x_val = matrix.values[val_rows[None, :, None], idx[:, None, :]]
            pred = (x_val @ weights[:, :, None])[:, :, 0] + intercepts[:, None]
            maes.extend(np.abs(pred - ref[val_rows]).mean(axis=1).tolist())

    # search keeps the first candidate of least MAE (np.argmin's tie rule); sampling, draw 0
    idx = draw(seed, int(np.argmin(maes)) if maes else 0)
    ids = [matrix.item_ids[i] for i in idx]
    model = ridge_cv(matrix.values[:, idx], ref, lambda_grid, folds=min(5, k), item_ids=ids)
    return LearnSelection(SubsetSpec.uniform(method, ids, seed), model, tuple(maes))


def _prepare_nothing(matrix, config, semantic, acoustic) -> None:
    return None


def _select_random_balanced(matrix, config, prepared):
    return select_random_balanced(matrix, config.n, config.seed), None, None


def _select_variance_top(matrix, config, prepared):
    return select_variance_top(matrix, config.n, config.seed), None, None


def _select_difficulty_stratified(matrix, config, prepared):
    return select_difficulty_stratified(matrix, config.n, config.bins, config.seed), None, None


def _select_learned(matrix, config, prepared):
    sel = select_learn(matrix, config)
    return sel.subset, sel.model, None


def _prepare_irt_anchor(matrix, config, semantic, acoustic):
    fitted = irt_mod.fit_m2pl(
        irt_mod.binarize(matrix), config.irt_dim, config.irt_epochs, config.irt_lr, config.seed
    )
    return _anchor_fold(irt_mod.item_embeddings(fitted), matrix, config.n, fitted)


def _prepare_anchor_points(matrix, config, semantic, acoustic):
    return _anchor_fold(performance_embeddings(matrix), matrix, config.n)


def _prepare_pca_anchor(kind, matrix, config, semantic, acoustic):
    """A standalone semantic or acoustic space, PCA-reduced to pca_dim
    components, or to the embedding width if that is smaller."""
    embeddings = semantic if kind == "semantic" else acoustic
    if embeddings is None:
        raise ValidationError(f"{config.method} requires {kind} embeddings")
    reduced = embeddings.pca(min(config.pca_dim, embeddings.dim), f"{kind} embedding")
    return _anchor_fold(EmbeddingSet(kind, embeddings.item_ids, reduced), matrix, config.n)


def _prepare_combined_anchor(matrix, config, semantic, acoustic):
    if semantic is None or acoustic is None:
        raise ValidationError(f"{config.method} requires semantic and acoustic embeddings")
    return _anchor_fold(assemble_combined(acoustic, semantic, matrix), matrix, config.n)


def _select_anchors(matrix, config, prepared):
    _require_models(matrix, 2, f"{config.method} selection")
    subset, _ = _select_fold_anchors(prepared, matrix, config.n, config.seed, config.method)
    return subset, None, prepared.fitted


def _score_balanced(matrix, heldout_rows, selection) -> np.ndarray:
    return renormalized_balance_scores(matrix, selection[0])[heldout_rows]


def _score_regressor(matrix, heldout_rows, selection) -> np.ndarray:
    subset, regressor, _ = selection
    positions = [matrix.item_position(i) for i in subset.item_ids]
    return regressor.predict(matrix.values[heldout_rows][:, positions])


def _score_pirt(matrix, heldout_rows, selection) -> np.ndarray:
    subset, _, fitted = selection
    heldout_ids = [matrix.model_ids[r] for r in heldout_rows]
    return irt_mod.pirt_scores(matrix, subset, heldout_ids, fitted)


def _score_apw(matrix, heldout_rows, selection) -> np.ndarray:
    return apw_scores(matrix, selection[0])[heldout_rows]


METHODS: dict[str, tuple[Callable, Callable, Callable]] = {
    "random_balanced": (_prepare_nothing, _select_random_balanced, _score_balanced),
    "random_sampling_learn": (_prepare_nothing, _select_learned, _score_regressor),
    "random_search_learn": (_prepare_nothing, _select_learned, _score_regressor),
    "variance_top": (_prepare_nothing, _select_variance_top, _score_balanced),
    "difficulty_stratified": (_prepare_nothing, _select_difficulty_stratified, _score_balanced),
    "irt_anchor": (_prepare_irt_anchor, _select_anchors, _score_pirt),
    "anchor_points": (_prepare_anchor_points, _select_anchors, _score_apw),
    "semantic_anchor": (partial(_prepare_pca_anchor, "semantic"), _select_anchors, _score_apw),
    "acoustic_anchor": (partial(_prepare_pca_anchor, "acoustic"), _select_anchors, _score_apw),
    "combined_anchor": (_prepare_combined_anchor, _select_anchors, _score_apw),
}


def run_selector(
    matrix: ScoreMatrix,
    config: SelectorConfig,
    semantic: EmbeddingSet | None = None,
    acoustic: EmbeddingSet | None = None,
) -> tuple[SubsetSpec, RidgeModel | None, irt_mod.IrtModel | None]:
    """Run one method's prepare and select steps.

    Returns (subset, regressor or None, fitted IrtModel or None); the extras
    are what the method's score step needs to score held-out models.
    """
    prepare, select, _ = METHODS[config.method]
    return select(matrix, config, prepare(matrix, config, semantic, acoustic))
