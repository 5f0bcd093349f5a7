"""Closed-form Ridge regression with cross-validated regularization, plus the
leave-one-model-out and exhaustive 5-2 pairwise preference protocols."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .pool import HumanRatingsTable

# lambda grid for preference protocols: nine powers of ten, 1e-4 .. 1e4
PREFERENCE_LAMBDA_GRID = tuple(10.0 ** e for e in range(-4, 5))


@dataclass(frozen=True)
class RidgeModel:
    """Linear predictor y = w.x + b with an unpenalized intercept."""

    weights: np.ndarray
    intercept: float
    lam: float
    item_ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1:
            raise ValidationError("ridge weights must be 1-D")
        if self.item_ids is not None and len(self.item_ids) != w.size:
            raise ValidationError("ridge weights misaligned with feature item ids")
        if not (math.isfinite(self.intercept) and np.isfinite(w).all()):
            raise ValidationError("ridge weights and intercept must be finite")
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValidationError(f"ridge lambda must be finite and > 0, got {self.lam}")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return x @ self.weights + self.intercept

    def to_json_dict(self) -> dict:
        ids = self.item_ids or tuple(f"f{i}" for i in range(self.weights.size))
        return {
            "lambda": float(self.lam),
            "intercept": float(self.intercept),
            "items": [
                {"item_id": i, "weight": float(w)} for i, w in zip(ids, self.weights)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "RidgeModel":
        items = data["items"]
        return cls(
            weights=np.asarray([d["weight"] for d in items]),
            intercept=float(data["intercept"]),
            lam=float(data["lambda"]),
            item_ids=tuple(d["item_id"] for d in items),
        )


def _check_xy(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.size:
        raise ValidationError("ridge_fit expects X (m x n) and y (m)")
    if x.shape[0] < 1:
        raise ValidationError("ridge_fit needs at least one row")
    return x, y


def _check_lambda(lam: float, what: str) -> float:
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValidationError(f"{what} must be finite and > 0, got {lam}")
    return float(lam)


def _ridge_solve(x: np.ndarray, y: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights (B, n) and intercepts (B,) of the Ridge fit of each slice:
    x (B, m, n), y (B, m), lam (B,). Solved exactly on centered data, so
    X'(y - Xw - b) = lam * w and the residuals sum to zero.

    Only stacked matmul and np.linalg forms are used, which give each slice
    the bits of the same call on that slice alone. lam is added on the
    Gram's diagonal in place, so the stack holds one (B, n, n) array; that
    equals adding lam * I, whose +0.0 off the diagonal changes no entry (the
    Gram's sums start from +0.0, so it holds no -0.0).
    """
    x_mean = x.mean(axis=1)
    y_mean = y.mean(axis=1)
    xc = x - x_mean[:, None, :]
    yc = y - y_mean[:, None]
    xct = np.swapaxes(xc, 1, 2)
    gram = xct @ xc
    n = x.shape[2]
    gram.reshape(-1, n * n)[:, :: n + 1] += lam[:, None]
    w = np.linalg.solve(gram, xct @ yc[:, :, None])[:, :, 0]
    b = y_mean - (x_mean[:, None, :] @ w[:, :, None])[:, 0, 0]
    return w, b


def ridge_fit(
    x: np.ndarray,
    y: np.ndarray,
    lam: float,
    item_ids: Sequence[str] | None = None,
) -> RidgeModel:
    """Minimize sum (y - Xw - b)^2 + lam * |w|^2 with the intercept free.

    Solved exactly on centered data (_ridge_solve on one slice). lam must be
    finite and > 0, as in ridge_cv's grid.
    """
    x, y = _check_xy(x, y)
    lam = _check_lambda(lam, "ridge penalty")
    w, b = _ridge_solve(x[None], y[None], np.array([lam]))
    return RidgeModel(w[0], float(b[0]), lam, tuple(item_ids) if item_ids else None)


@functools.lru_cache(maxsize=64)
def _intercept_basis(m: int) -> np.ndarray:
    """Read-only orthonormal basis (m, m - 1) of the complement of the
    intercept direction 1: the last m - 1 columns of its complete QR."""
    q = np.linalg.qr(np.ones((m, 1)), mode="complete")[0][:, 1:]
    q.flags.writeable = False
    return q


def _cv_errors(x: np.ndarray, y: np.ndarray, grid: np.ndarray, folds: int) -> np.ndarray:
    """Mean over the stripe folds of each fold's held-out MSE, for every
    lambda and every slice: x (B, m, n), y (B, m) -> (B, lambdas).

    One m x m kernel eigendecomposition per slice serves the whole grid. With
    Q an orthonormal basis of the complement of the intercept direction 1,
    Z = Q'X and eigh(ZZ') = V diag(s) V', W = QV gives
    I - H = W diag(lam / (s + lam)) W' (ESL 3.4.1). The residuals of the fit
    without fold F are (I - H)_FF^-1 e_F with e = (I - H) y (ESL 7.10).
    Projecting through Q, rather than subtracting 11'/m from H, keeps the
    residual operator accurate to rounding when lam << s. Q and the fold
    index blocks depend only on m and folds, so one call builds them for
    the whole stack.
    """
    m = x.shape[1]
    q = _intercept_basis(m)
    z = q.T @ x
    s, v = np.linalg.eigh(z @ np.swapaxes(z, 1, 2))
    w = q @ v
    shrink = grid[:, None] / (np.maximum(s, 0.0)[:, None, :] + grid[:, None])
    # (B, lambdas, m, m): I - H
    resid_op = (w[:, None] * shrink[:, :, None, :]) @ np.swapaxes(w, 1, 2)[:, None]
    e = (resid_op @ y[:, None, :, None])[..., 0]
    fold_rows = [np.arange(f, m, folds) for f in range(folds)]
    fold_mse = np.empty((x.shape[0], grid.size, folds))
    for size in {rows.size for rows in fold_rows}:  # folds differ in size by <= 1
        group = [f for f in range(folds) if fold_rows[f].size == size]
        held = np.array([fold_rows[f] for f in group])
        block = resid_op[:, :, held[:, :, None], held[:, None, :]]
        r = np.linalg.solve(block, e[:, :, held, None])[..., 0]
        fold_mse[:, :, group] = np.mean(r**2, axis=3)
    return fold_mse.mean(axis=2)


def _lambda_grid(grid: Sequence[float]) -> np.ndarray:
    """The grid sorted ascending, every value checked finite and > 0."""
    grid = sorted(float(g) for g in grid)
    if not grid:
        raise ValidationError("empty lambda grid")
    for lam in grid:
        _check_lambda(lam, "lambda grid values")
    return np.asarray(grid)


def _ridge_cv_stack(
    x: np.ndarray, y: np.ndarray, grid: np.ndarray, folds: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ridge_cv on every slice of x (B, m, n), y (B, m) with the sorted grid
    from _lambda_grid: the picked lambdas (B,), weights (B, n) and
    intercepts (B,). A one-value grid skips CV. The first slice whose CV
    errors or fit are not finite raises, as its own ridge_cv call would."""
    if grid.size == 1:
        pick = np.zeros(x.shape[0], dtype=np.intp)
    else:
        errs = _cv_errors(x, y, grid, folds)
        y_term = 1e-24 * np.mean(y**2, axis=1, keepdims=True)
        tol = errs.min(axis=1, keepdims=True) * (1.0 + 1e-10) + y_term
        # the largest passing lambda; -1 when none passes, which takes a NaN error
        pick = np.where(errs <= tol, np.arange(grid.size), -1).max(axis=1)
    lams = grid[pick]
    w, b = _ridge_solve(x, y, lams)
    ok = (pick >= 0) & np.isfinite(w).all(axis=1) & np.isfinite(b)
    if not ok.all():
        first = int(np.argmin(ok))
        if pick[first] < 0:
            raise ValidationError("ridge CV errors must be finite")
        raise ValidationError("ridge weights and intercept must be finite")
    return lams, w, b


def ridge_cv(
    x: np.ndarray,
    y: np.ndarray,
    grid: Sequence[float],
    folds: int,
    item_ids: Sequence[str] | None = None,
) -> RidgeModel:
    """Pick lambda by K-fold CV, refit on all rows as ridge_fit does.

    Fold assignment is the deterministic stripe row i -> fold i mod folds;
    with folds equal to the number of rows this is leave-one-out. The CV
    error of a lambda is the mean of its per-fold held-out MSEs, computed in
    kernel form (_cv_errors), which reproduces the per-fold refits up to
    rounding. Ties go to the larger lambda: the pick is the largest lambda
    whose error is <= min * (1 + 1e-10) + 1e-24 * mean(y^2), so that rounding
    noise (a constant y, two-row training folds) cannot decide it. Every
    grid value must be finite and > 0. This is the one-slice case of
    _ridge_cv_stack.
    """
    grid = _lambda_grid(grid)
    x, y = _check_xy(x, y)
    if grid.size > 1:
        if folds < 2:
            raise ValidationError("cross-validation needs at least 2 folds")
        if folds > x.shape[0]:
            raise ValidationError(f"folds={folds} exceeds {x.shape[0]} rows")
    lams, w, b = _ridge_cv_stack(x[None], y[None], grid, folds)
    return RidgeModel(w[0], float(b[0]), float(lams[0]), tuple(item_ids) if item_ids else None)


@dataclass
class FoldOutcome:
    """One LOMO fold or one 5-2 pair."""

    held_out: tuple[str, ...]
    lam: float
    pearson_r: float | None = None
    degenerate: bool = False
    predictions: tuple[float, ...] = ()
    correct: bool | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"held_out": list(self.held_out), "lambda": self.lam}
        if self.correct is None:
            out["pearson_r"] = self.pearson_r
            out["degenerate"] = self.degenerate
        else:
            out["correct"] = self.correct
            out["predictions"] = list(self.predictions)
        return out


@dataclass
class ProtocolReport:
    """Per-fold outcomes plus the protocol aggregate."""

    protocol: str
    dimension: str
    folds: list[FoldOutcome] = field(default_factory=list)
    mean_pearson: float | None = None
    heldout_pearson: float | None = None
    accuracy: float | None = None

    def to_json_dict(self) -> dict:
        out = {
            "protocol": self.protocol,
            "dimension": self.dimension,
            "lambda_grid": list(PREFERENCE_LAMBDA_GRID),
            "folds": [f.to_json_dict() for f in self.folds],
        }
        if self.protocol == "lomo":
            out["mean_pearson"] = self.mean_pearson
            out["heldout_pearson"] = self.heldout_pearson
        else:
            out["accuracy"] = self.accuracy
        return out


def _align_ratings(
    subset_scores: np.ndarray, ratings: HumanRatingsTable, dimension: str
) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(subset_scores, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != len(ratings.model_ids):
        raise ValidationError(
            "subset score rows must match the rated models, in ratings order"
        )
    return x, ratings.column(dimension)


def preference_lomo(
    subset_scores: np.ndarray,
    ratings: HumanRatingsTable,
    dimension: str,
) -> ProtocolReport:
    """Leave-one-model-out preference prediction.

    For each held-out model: select lambda from PREFERENCE_LAMBDA_GRID by
    nested leave-one-out CV on the remaining models, refit on them, predict
    all models, and correlate the predictions with the ratings over all
    models. The aggregate is the mean
    fold Pearson; heldout_pearson additionally correlates only the held-out
    predictions collected across folds.
    """
    from .evaluation import pearson_flagged  # evaluation imports selectors, which imports this

    x, y = _align_ratings(subset_scores, ratings, dimension)
    k = x.shape[0]
    if k < 3:
        raise ValidationError("LOMO needs at least 3 rated models")
    report = ProtocolReport("lomo", dimension)
    heldout_preds = np.empty(k)
    for t in range(k):
        train = np.arange(k) != t
        model = ridge_cv(x[train], y[train], PREFERENCE_LAMBDA_GRID, folds=k - 1)
        preds = model.predict(x)
        heldout_preds[t] = preds[t]
        r, degenerate = pearson_flagged(preds, y)
        report.folds.append(
            FoldOutcome(
                held_out=(ratings.model_ids[t],),
                lam=model.lam,
                pearson_r=None if degenerate else r,
                degenerate=degenerate,
            )
        )
    defined = [f.pearson_r for f in report.folds if f.pearson_r is not None]
    report.mean_pearson = float(np.mean(defined)) if defined else None
    r, degenerate = pearson_flagged(heldout_preds, y)
    report.heldout_pearson = None if degenerate else r
    return report


def pairwise_52(
    subset_scores: np.ndarray,
    ratings: HumanRatingsTable,
    dimension: str,
) -> ProtocolReport:
    """Exhaustive train-on-(K-2)/test-on-2 pairwise ranking accuracy.

    Every C(K,2) held-out pair is enumerated; lambda is selected from
    PREFERENCE_LAMBDA_GRID by nested leave-one-out CV on the training
    models. Tied predictions (or tied ratings) count as incorrect.
    """
    x, y = _align_ratings(subset_scores, ratings, dimension)
    k = x.shape[0]
    if k < 4:
        raise ValidationError("the 5-2 protocol needs at least 4 rated models")
    report = ProtocolReport("pairwise52", dimension)
    correct = 0
    for i, j in itertools.combinations(range(k), 2):
        train = np.ones(k, dtype=bool)
        train[[i, j]] = False
        model = ridge_cv(x[train], y[train], PREFERENCE_LAMBDA_GRID, folds=k - 2)
        pred_i, pred_j = model.predict(x[[i, j]])
        ok = bool(
            pred_i != pred_j and y[i] != y[j] and ((pred_i > pred_j) == (y[i] > y[j]))
        )
        correct += ok
        report.folds.append(
            FoldOutcome(
                held_out=(ratings.model_ids[i], ratings.model_ids[j]),
                lam=model.lam,
                predictions=(float(pred_i), float(pred_j)),
                correct=ok,
            )
        )
    report.accuracy = correct / len(report.folds)
    return report
