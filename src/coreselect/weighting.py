"""Task-balance weights, full-pool reference scores, and weighted subset scores."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .pool import ScoreMatrix

WEIGHT_SUM_TOL = 1e-9


def balance_weights(matrix: ScoreMatrix) -> np.ndarray:
    """Read-only per-item weights b_i = 1/(T * |T_t|) for item i in task t,
    aligned with pool item order: every task contributes equally."""
    n_tasks = matrix.n_tasks
    if n_tasks == 0:
        raise ValidationError("empty task table")
    w = np.empty(matrix.n_items)
    for positions in matrix.task_index.values():
        w[positions] = 1.0 / (n_tasks * len(positions))
    w.flags.writeable = False
    return w


def reference_score(matrix: ScoreMatrix, model_id: str) -> float:
    """Task-averaged full-pool score: mean over tasks of the within-task mean."""
    row = matrix.row(model_id)
    task_means = [row[pos].mean() for pos in matrix.task_index.values()]
    return float(np.mean(task_means))


def reference_scores(matrix: ScoreMatrix) -> np.ndarray:
    """reference_score for every model, in matrix model order."""
    per_task = np.stack(
        [matrix.values[:, pos].mean(axis=1) for pos in matrix.task_index.values()]
    )
    return per_task.mean(axis=0)


@dataclass(frozen=True)
class SubsetSpec:
    """An ordered weighted subset: the output of every selector.

    Weights are nonnegative and sum to 1, so any weighted score over the
    subset is a convex combination of per-item scores.
    """

    method: str
    n: int
    seed: int
    entries: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValidationError("subset size must be positive")
        if len(self.entries) != self.n:
            raise ValidationError(
                f"subset has {len(self.entries)} entries, expected n={self.n}"
            )
        ids = [e[0] for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ValidationError("subset item ids are not distinct")
        weights = np.asarray([e[1] for e in self.entries], dtype=np.float64)
        if not np.isfinite(weights).all():
            raise ValidationError("non-finite subset weight")
        if weights.size and weights.min() < 0.0:
            raise ValidationError("negative subset weight")
        if abs(float(weights.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(
                f"subset weights sum to {float(weights.sum())!r}, expected 1"
            )

    @property
    def item_ids(self) -> tuple[str, ...]:
        return tuple(e[0] for e in self.entries)

    @property
    def weights(self) -> np.ndarray:
        return np.asarray([e[1] for e in self.entries])

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "n": self.n,
            "seed": self.seed,
            "items": [{"item_id": i, "weight": float(w)} for i, w in self.entries],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SubsetSpec":
        entries = tuple((d["item_id"], float(d["weight"])) for d in data["items"])
        return cls(data["method"], int(data["n"]), int(data["seed"]), entries)

    @classmethod
    def uniform(cls, method: str, item_ids: Sequence[str], seed: int) -> "SubsetSpec":
        n = len(item_ids)
        return cls(method, n, seed, tuple((i, 1.0 / n) for i in item_ids))


def apw_score(matrix: ScoreMatrix, subset: SubsetSpec, model_id: str) -> float:
    """Weighted sum of the model's scores on the subset items."""
    row = matrix.row(model_id)
    positions = [matrix.item_position(i) for i in subset.item_ids]
    return float(np.dot(subset.weights, row[positions]))


def apw_scores(matrix: ScoreMatrix, subset: SubsetSpec) -> np.ndarray:
    """apw_score for every model, in matrix model order."""
    positions = [matrix.item_position(i) for i in subset.item_ids]
    return matrix.values[:, positions] @ subset.weights


def renormalized_balance_scores(matrix: ScoreMatrix, subset: SubsetSpec) -> np.ndarray:
    """Subset scores weighted by the pool balance weights, renormalized over the subset.

    Used to evaluate selectors whose output weights are uniform (random,
    variance, difficulty): the full-pool task balance is preserved as far as
    the subset's task coverage allows.
    """
    b = balance_weights(matrix)
    positions = np.asarray([matrix.item_position(i) for i in subset.item_ids])
    w = b[positions]
    return matrix.values[:, positions] @ (w / w.sum())
