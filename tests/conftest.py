from __future__ import annotations

import numpy as np
import pytest

from coreselect.pool import ItemRecord, ScoreMatrix


def make_matrix(values, task_sizes, model_prefix="m", item_prefix="i") -> ScoreMatrix:
    """Build a ScoreMatrix from a K x N grid and per-task item counts."""
    values = np.asarray(values, dtype=np.float64)
    items = []
    pos = 0
    for t, size in enumerate(task_sizes):
        for _ in range(size):
            items.append(
                ItemRecord(
                    item_id=f"{item_prefix}{pos:04d}",
                    task_id=f"task{t:02d}",
                    metric_name="native",
                    needs_audio_in=bool(pos % 2),
                    needs_audio_out=bool(pos % 3 == 0),
                )
            )
            pos += 1
    assert pos == values.shape[1]
    model_ids = tuple(f"{model_prefix}{k:02d}" for k in range(values.shape[0]))
    return ScoreMatrix(model_ids, tuple(items), values)


def random_matrix(rng, n_models, task_sizes) -> ScoreMatrix:
    values = rng.random((n_models, sum(task_sizes)))
    return make_matrix(values, task_sizes)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def oracle_ridge_fit(x, y, lam):
    """The primal Ridge solve of one (m, n) problem on centered data, an
    n x n system: weights and intercept."""
    x_mean = x.mean(axis=0)
    y_mean = float(y.mean())
    xc = x - x_mean
    yc = y - y_mean
    gram = xc.T @ xc + lam * np.eye(x.shape[1])
    w = np.linalg.solve(gram, xc.T @ yc)
    return w, y_mean - float(x_mean @ w)


# The dual and primal Ridge forms round differently. Both err by about
# eps * (s + lam) / lam relative to the size of w that the data can produce,
# which is at most about |y| |X| / (|X_c|^2 + lam) (spectral norms; X_c is X
# with its column means removed). The uncentered |y| and |X| cover a
# constant y or X, whose projection off the intercept is rounding noise, not
# exactly 0, in the dual form. Measured over 20,000 problems, m = 1-18 rows,
# n = 1-300 features, lam = 1e-4-1e4, the largest difference was 1.1e-11 of
# that scale for w and 1e-12 for b.
PRIMAL_RTOL = 1e-9


def assert_near_primal(w, b, x, y, lam):
    """Assert that weights w and intercept b fit (x, y) at lam within
    PRIMAL_RTOL of oracle_ridge_fit. The scale is the larger of the oracle's
    largest weight and |y| |X| / (|X_c|^2 + lam); the second keeps the bound
    meaningful when the true weights are near zero (y uncorrelated with X, a
    constant y or X_c = 0), where both forms return rounding noise."""
    w_o, b_o = oracle_ridge_fit(x, y, lam)
    xc = np.linalg.norm(x - x.mean(axis=0), 2)
    scale = max(np.abs(w_o).max(), np.linalg.norm(y) * np.linalg.norm(x, 2) / (xc**2 + lam))
    assert np.abs(w - w_o).max() <= PRIMAL_RTOL * scale
    b_scale = abs(y.mean()) + np.abs(x.mean(axis=0)).sum() * scale
    assert abs(b - b_o) <= PRIMAL_RTOL * b_scale
