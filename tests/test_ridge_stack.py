"""The stack-first Ridge kernels against the one-matrix code they replaced.

``_cv_errors``, ``_ridge_solve`` and ``_ridge_cv_stack`` take a stack of B
problems. Each slice of their output must carry the bytes that the former
2-D code (kept below as the oracle) gives for that slice alone.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from coreselect.errors import ValidationError  # noqa: E402
from coreselect.regression import (  # noqa: E402
    PREFERENCE_LAMBDA_GRID,
    _cv_errors,
    _lambda_grid,
    _ridge_cv_stack,
    _ridge_solve,
    ridge_cv,
)
from coreselect.selectors import LEARN_LAMBDA_GRID  # noqa: E402


def oracle_cv_errors(x, y, grid, folds):
    """The 2-D kernel-form CV errors, one (m, n) problem per call."""
    m = x.shape[0]
    q = np.linalg.qr(np.ones((m, 1)), mode="complete")[0][:, 1:]
    z = q.T @ x
    s, v = np.linalg.eigh(z @ z.T)
    w = q @ v
    shrink = grid[:, None] / (np.maximum(s, 0.0) + grid[:, None])
    resid_op = (w * shrink[:, None, :]) @ w.T
    e = resid_op @ y
    fold_rows = [np.arange(f, m, folds) for f in range(folds)]
    fold_mse = np.empty((grid.size, folds))
    for size in {rows.size for rows in fold_rows}:
        group = [f for f in range(folds) if fold_rows[f].size == size]
        held = np.array([fold_rows[f] for f in group])
        block = resid_op[:, held[:, :, None], held[:, None, :]]
        r = np.linalg.solve(block, e[:, held, None])[..., 0]
        fold_mse[:, group] = np.mean(r**2, axis=2)
    return fold_mse.mean(axis=1)


def oracle_ridge_fit(x, y, lam):
    """The 2-D primal solve on centered data: weights and intercept."""
    x_mean = x.mean(axis=0)
    y_mean = float(y.mean())
    xc = x - x_mean
    yc = y - y_mean
    gram = xc.T @ xc + lam * np.eye(x.shape[1])
    w = np.linalg.solve(gram, xc.T @ yc)
    return w, y_mean - float(x_mean @ w)


def oracle_ridge_cv(x, y, grid, folds):
    """The 2-D lambda pick (largest within tolerance of the least error) and refit."""
    grid = sorted(grid)
    if len(grid) == 1:
        return (grid[0], *oracle_ridge_fit(x, y, grid[0]))
    errs = oracle_cv_errors(x, y, np.asarray(grid), folds)
    tol = float(errs.min()) * (1.0 + 1e-10) + 1e-24 * float(np.mean(y**2))
    lam = grid[int(np.flatnonzero(errs <= tol)[-1])]
    return (lam, *oracle_ridge_fit(x, y, lam))


GRIDS = ((0.5,), LEARN_LAMBDA_GRID)


@st.composite
def stacks(draw):
    """A stack (x, y, grid, folds) of B problems, each m rows by n features.

    Some stacks take their values from four binary fractions, so rows,
    columns and targets repeat and CV errors tie; some share one y across
    the stack, as a random-search batch does."""
    m = draw(st.integers(3, 14))
    n = draw(st.sampled_from((1, 2, m - 1, m, m + 1, draw(st.integers(1, 120)))))
    folds = draw(st.sampled_from((2, m, draw(st.integers(2, m)))))
    batch = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = rng.choice([0.0, 0.25, 0.5, 1.0], size=(batch, m, n))
        y = rng.choice([0.0, 0.25, 0.5, 1.0], size=(batch, m))
    else:
        x = rng.random((batch, m, n))
        y = rng.random((batch, m))
    if draw(st.booleans()):
        y = np.broadcast_to(y[0], (batch, m))
    return x, y, draw(st.sampled_from(GRIDS)), folds


@settings(max_examples=250, deadline=None)
@given(stacks())
def test_stacked_cv_errors_match_per_slice_oracle(case):
    x, y, grid, folds = case
    grid = np.asarray(grid)
    errs = _cv_errors(x, y, grid, folds)
    assert errs.shape == (x.shape[0], grid.size)
    for i in range(x.shape[0]):
        assert errs[i].tobytes() == oracle_cv_errors(x[i], y[i], grid, folds).tobytes()


@settings(max_examples=250, deadline=None)
@given(stacks(), st.data())
def test_stacked_ridge_solve_matches_per_slice_oracle(case, data):
    x, y, _, _ = case
    lams = np.asarray(data.draw(st.lists(st.sampled_from(PREFERENCE_LAMBDA_GRID),
                                         min_size=x.shape[0], max_size=x.shape[0])))
    w, b = _ridge_solve(x, y, lams)
    assert w.shape == x.shape[::2] and b.shape == x.shape[:1]
    for i in range(x.shape[0]):
        w_i, b_i = oracle_ridge_fit(x[i], y[i], lams[i])
        assert w[i].tobytes() == w_i.tobytes()
        assert b[i] == b_i


@settings(max_examples=250, deadline=None)
@given(stacks())
def test_stacked_ridge_cv_matches_per_slice_oracle(case):
    x, y, grid, folds = case
    lams, w, b = _ridge_cv_stack(x, y, _lambda_grid(grid), folds)
    for i in range(x.shape[0]):
        lam_i, w_i, b_i = oracle_ridge_cv(x[i], y[i], grid, folds)
        assert lams[i] == lam_i
        assert w[i].tobytes() == w_i.tobytes()
        assert b[i] == b_i
        model = ridge_cv(x[i], y[i], grid, folds)  # the one-slice case
        assert (model.lam, model.weights.tobytes(), model.intercept) == (lam_i, w_i.tobytes(), b_i)


def test_stacked_ridge_cv_raises_for_a_non_finite_slice():
    rng = np.random.default_rng(3)
    x = rng.random((5, 6, 4))
    y = rng.random((5, 6))
    y[3, 0] = np.inf  # slice 3's CV errors are NaN, and so is its refit
    grid = _lambda_grid(LEARN_LAMBDA_GRID)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValidationError, match="ridge CV errors must be finite"):
            _ridge_cv_stack(x, y, grid, 3)
        # with one lambda, CV is skipped and the refit is caught
        with pytest.raises(ValidationError, match="ridge weights and intercept must be finite"):
            _ridge_cv_stack(x, y, _lambda_grid((0.5,)), 3)
    y[3, 0] = 0.5
    _ridge_cv_stack(x, y, grid, 3)
