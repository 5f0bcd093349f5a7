"""Subset selection methods.

Ten methods share one output contract: a SubsetSpec of exactly n distinct
items whose weights sum to 1. Anchor-style methods cluster an item embedding
space with task-weighted K-Means and return the nearest real item to each
centroid, weighted by its cluster's share of the task-balance mass.
Learn-style methods additionally return the fitted score regressor.
METHODS declares each method once as three steps: prepare(matrix, config,
semantic, acoustic) does the work that does not depend on the subset size;
select(matrix, config, prepared) returns (subset, regressor or None, IrtModel
or None); score(matrix, heldout_rows, selection) is the method's own
prediction for those rows of the full matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .pool import ScoreMatrix
from .embeddings import EmbeddingSet, assemble_combined, pca_reduce, performance_embeddings
from .weighting import SubsetSpec, balance_weights, reference_scores
from .weighting import apw_scores, renormalized_balance_scores
from .regression import RidgeModel, ridge_cv
from . import irt as irt_mod

LEARN_LAMBDA_GRID = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)

KMEANS_MAX_ITER = 300


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


def _pairwise_sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d2 = (
        (points**2).sum(axis=1)[:, None]
        + (centers**2).sum(axis=1)[None, :]
        - 2.0 * points @ centers.T
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


def _kmeanspp_seed(
    points: np.ndarray, weights: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Distance-weighted greedy seeding: each new seed is drawn with
    probability proportional to weight times squared distance to the nearest
    chosen seed."""
    n = points.shape[0]
    chosen = np.empty(k, dtype=np.intp)
    chosen[0] = rng.choice(n, p=weights / weights.sum())
    d2 = _pairwise_sq_dists(points, points[chosen[0]][None, :])[:, 0]
    for j in range(1, k):
        mass = weights * d2
        total = mass.sum()
        if total <= 0.0:
            # remaining points coincide with chosen seeds; take the first unused
            used = np.zeros(n, dtype=bool)
            used[chosen[:j]] = True
            chosen[j] = int(np.flatnonzero(~used)[0])
        else:
            chosen[j] = rng.choice(n, p=mass / total)
        new_d2 = _pairwise_sq_dists(points, points[chosen[j]][None, :])[:, 0]
        np.minimum(d2, new_d2, out=d2)
    return chosen


def _weighted_objective(
    points: np.ndarray, weights: np.ndarray, centroids: np.ndarray, assign: np.ndarray
) -> float:
    diffs = points - centroids[assign]
    return float((weights * (diffs**2).sum(axis=1)).sum())


def weighted_kmeans(
    points: np.ndarray,
    weights: np.ndarray,
    k: int,
    seed: int,
    max_iter: int = KMEANS_MAX_ITER,
) -> ClusterResult:
    """Lloyd iterations with weight-aware centroid updates.

    Runs until the assignment reaches a fixpoint or max_iter. Every cluster is
    kept non-empty (an emptied cluster is repaired by giving it the point with
    the largest weighted distance contribution), anchors are the members
    nearest their centroid (ties to the lowest row index), and the recorded
    per-iteration objective never increases.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValidationError("points must be a 2-D array")
    w = np.asarray(weights)
    n = points.shape[0]
    if w.shape != (n,) or (w <= 0).any():
        raise ValidationError("weights must be positive and aligned with points")
    if not 1 <= k <= n:
        raise ValidationError(f"k={k} outside [1, {n}]")

    if k > 1 and bool((points == points[0]).all()):
        # degenerate pool: first k rows become singleton anchors, the rest join cluster 0
        assign = np.zeros(n, dtype=np.intp)
        assign[:k] = np.arange(k)
        centroids = np.repeat(points[0][None, :], k, axis=0)
        return ClusterResult(assign, centroids, np.arange(k, dtype=np.intp), 0.0, (0.0,))

    rng = np.random.default_rng(seed)
    centroids = points[_kmeanspp_seed(points, w, k, rng)].copy()
    assign = np.full(n, -1, dtype=np.intp)
    trace: list[float] = []

    for _ in range(max_iter):
        d2 = _pairwise_sq_dists(points, centroids)
        new_assign = d2.argmin(axis=1)

        counts = np.bincount(new_assign, minlength=k)
        for empty in np.flatnonzero(counts == 0):
            contrib = w * d2[np.arange(n), new_assign]
            contrib[counts[new_assign] < 2] = -np.inf  # do not empty another cluster
            mover = int(np.argmax(contrib))
            counts[new_assign[mover]] -= 1
            new_assign[mover] = empty
            counts[empty] = 1

        converged = bool((new_assign == assign).all())
        assign = new_assign
        if converged:
            break
        for c in range(k):
            members = assign == c
            wm = w[members]
            centroids[c] = (wm[:, None] * points[members]).sum(axis=0) / wm.sum()
        trace.append(_weighted_objective(points, w, centroids, assign))

    d2 = _pairwise_sq_dists(points, centroids)
    anchors = np.empty(k, dtype=np.intp)
    for c in range(k):
        members = np.flatnonzero(assign == c)
        anchors[c] = members[int(np.argmin(d2[members, c]))]
    objective = _weighted_objective(points, w, centroids, assign)
    if not trace:
        trace.append(objective)
    return ClusterResult(assign, centroids, anchors, objective, tuple(trace))


def _require_models(matrix: ScoreMatrix, minimum: int, what: str) -> None:
    if matrix.n_models < minimum:
        raise ValidationError(f"{what} needs at least {minimum} models")


def _draw_balanced(
    matrix: ScoreMatrix, n: int, p: np.ndarray, rng: np.random.Generator
) -> list[str]:
    """n distinct items drawn with probabilities p (the normalized balance weights)."""
    if n > matrix.n_items:
        raise ValidationError(f"n={n} exceeds pool size {matrix.n_items}")
    idx = rng.choice(matrix.n_items, size=n, replace=False, p=p, shuffle=False)
    return [matrix.item_ids[i] for i in idx]


def select_random_balanced(matrix: ScoreMatrix, n: int, seed: int) -> SubsetSpec:
    """Task-balanced random draw without replacement, uniform weights."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0, 0]))
    b = balance_weights(matrix)
    ids = _draw_balanced(matrix, n, b / b.sum(), rng)
    return SubsetSpec.uniform("random_balanced", ids, seed)


def select_variance_top(matrix: ScoreMatrix, n: int, seed: int = 0) -> SubsetSpec:
    """Top-n items by sample variance across models (K-1 denominator),
    ties broken toward the lowest item_id."""
    _require_models(matrix, 2, "variance selection")
    if n > matrix.n_items:
        raise ValidationError(f"n={n} exceeds pool size {matrix.n_items}")
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
    if n > matrix.n_items:
        raise ValidationError(f"n={n} exceeds pool size {matrix.n_items}")
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
    if embeddings.item_ids != matrix.item_ids:
        raise ValidationError("embedding rows do not match the pool")
    if n > matrix.n_items:
        raise ValidationError(f"n={n} exceeds pool size {matrix.n_items}")
    b = balance_weights(matrix)
    by_id = matrix.id_order
    result = weighted_kmeans(embeddings.vectors[by_id], b[by_id], n, seed)
    cluster_w = result.cluster_weight(b[by_id])
    entries = tuple(
        (matrix.item_ids[by_id[row]], float(cw))
        for row, cw in zip(result.anchor_rows, cluster_w)
    )
    return SubsetSpec(method_name, n, seed, entries), result


@dataclass
class LearnSelection:
    """Learn-method output: the subset, the fitted score regressor, and the
    per-candidate validation MAEs examined in search mode."""

    subset: SubsetSpec
    model: RidgeModel
    candidate_mae: tuple[float, ...] = ()


def _subset_features(matrix: ScoreMatrix, item_ids: Sequence[str]) -> np.ndarray:
    positions = [matrix.item_position(i) for i in item_ids]
    return matrix.values[:, positions]


def select_learn(
    matrix: ScoreMatrix,
    n: int,
    mode: str,
    seed: int,
    lambda_grid: Sequence[float] = LEARN_LAMBDA_GRID,
    n_search: int = 1000,
    holdout_fraction: float = 0.25,
) -> LearnSelection:
    """Random-Sampling-Learn / Random-Search-Learn.

    sampling: one task-balanced draw, then a Ridge fit from subset score
    vectors to full-pool reference scores (lambda by 5-fold CV).

    search: n_search task-balanced candidate draws scored by validation MAE
    on a fixed 25% split of the source models; the best candidate is refit on
    all source models. With n_search=1 this reduces to sampling mode.
    """
    if mode not in ("sampling", "search"):
        raise ValidationError(f"unknown learn mode {mode!r}")
    _require_models(matrix, 4, "learn-method selection")
    k = matrix.n_models
    ref = reference_scores(matrix)
    method = "random_sampling_learn" if mode == "sampling" else "random_search_learn"
    cv_folds = min(5, k)
    b = balance_weights(matrix)
    p = b / b.sum()  # draw probabilities, shared by every candidate

    def candidate(index: int) -> list[str]:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0, index]))
        return _draw_balanced(matrix, n, p, rng)

    def final_fit(item_ids: Sequence[str]) -> RidgeModel:
        x = _subset_features(matrix, item_ids)
        return ridge_cv(x, ref, lambda_grid, folds=cv_folds, item_ids=item_ids)

    if mode == "sampling":
        ids = candidate(0)
        return LearnSelection(SubsetSpec.uniform(method, ids, seed), final_fit(ids))

    split_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    perm = split_rng.permutation(k)
    n_val = max(1, int(round(k * holdout_fraction)))
    val_rows, train_rows = perm[:n_val], perm[n_val:]
    if len(train_rows) < 2:
        raise ValidationError("not enough source models for the 75/25 split")
    train_folds = min(5, len(train_rows))

    best_ids: list[str] | None = None
    best_mae = np.inf
    maes: list[float] = []
    for i in range(n_search):
        ids = candidate(i)
        x = _subset_features(matrix, ids)
        model = ridge_cv(x[train_rows], ref[train_rows], lambda_grid, folds=train_folds)
        mae = float(np.abs(model.predict(x[val_rows]) - ref[val_rows]).mean())
        maes.append(mae)
        if mae < best_mae:
            best_mae = mae
            best_ids = ids

    assert best_ids is not None
    return LearnSelection(
        SubsetSpec.uniform(method, best_ids, seed), final_fit(best_ids), tuple(maes)
    )


def _prepare_nothing(matrix, config, semantic, acoustic) -> None:
    return None


def _select_random_balanced(matrix, config, prepared):
    return select_random_balanced(matrix, config.n, config.seed), None, None


def _select_variance_top(matrix, config, prepared):
    return select_variance_top(matrix, config.n, config.seed), None, None


def _select_difficulty_stratified(matrix, config, prepared):
    return select_difficulty_stratified(matrix, config.n, config.bins, config.seed), None, None


def _select_learned(mode, matrix, config, prepared):
    sel = select_learn(
        matrix,
        config.n,
        mode,
        config.seed,
        lambda_grid=config.lambda_grid,
        n_search=config.n_search,
        holdout_fraction=config.holdout_fraction,
    )
    return sel.subset, sel.model, None


def _prepare_irt_anchor(matrix, config, semantic, acoustic):
    fitted = irt_mod.fit_m2pl(
        irt_mod.binarize(matrix), config.irt_dim, config.irt_epochs, config.irt_lr, config.seed
    )
    return irt_mod.item_embeddings(fitted), fitted


def _prepare_anchor_points(matrix, config, semantic, acoustic):
    return performance_embeddings(matrix), None


def _prepare_pca_anchor(kind, matrix, config, semantic, acoustic):
    """A standalone semantic or acoustic space, PCA-reduced to pca_dim
    components, or to the embedding width if that is smaller."""
    embeddings = semantic if kind == "semantic" else acoustic
    if embeddings is None:
        raise ValidationError(f"{config.method} requires {kind} embeddings")
    reduced = pca_reduce(embeddings.vectors, min(config.pca_dim, embeddings.dim))
    return EmbeddingSet(kind, embeddings.item_ids, reduced), None


def _prepare_combined_anchor(matrix, config, semantic, acoustic):
    if semantic is None or acoustic is None:
        raise ValidationError(f"{config.method} requires semantic and acoustic embeddings")
    return assemble_combined(acoustic, semantic, matrix), None


def _select_anchors(matrix, config, prepared):
    _require_models(matrix, 2, f"{config.method} selection")
    space, fitted = prepared
    subset, _ = select_anchor_points(space, matrix, config.n, config.seed, config.method)
    return subset, None, fitted


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
    "random_sampling_learn": (
        _prepare_nothing, partial(_select_learned, "sampling"), _score_regressor
    ),
    "random_search_learn": (
        _prepare_nothing, partial(_select_learned, "search"), _score_regressor
    ),
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
