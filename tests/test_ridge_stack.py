"""The stack-first Ridge kernels against one-matrix oracles.

``_kernel_eigh``, ``_cv_errors``, ``_dual_refit`` and ``_ridge_cv_stack``
take a stack of B problems. Each slice of their output must carry the bytes
that the 2-D code below gives for that slice alone, and the fits must lie
within ``PRIMAL_RTOL`` of the primal n x n solve (``oracle_ridge_fit``).
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import assert_near_primal  # noqa: E402
from coreselect.errors import ValidationError  # noqa: E402
from coreselect.regression import (  # noqa: E402
    PREFERENCE_LAMBDA_GRID,
    _cv_errors,
    _dual_refit,
    _kernel_eigh,
    _lambda_grid,
    _ridge_cv_stack,
    ridge_cv,
)
from coreselect.selectors import LEARN_LAMBDA_GRID  # noqa: E402


def oracle_kernel_eigh(x):
    """The 2-D projection Z = Q'X and the eigenpairs of ZZ'."""
    m = x.shape[0]
    q = np.linalg.qr(np.ones((m, 1)), mode="complete")[0][:, 1:]
    z = q.T @ x
    s, v = np.linalg.eigh(z @ z.T)
    return q, z, s, v


def oracle_cv_errors(x, y, grid, folds):
    """The 2-D kernel-form CV errors, one (m, n) problem per call."""
    m = x.shape[0]
    q, _, s, v = oracle_kernel_eigh(x)
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


def oracle_dual_refit(x, y, lam):
    """The 2-D dual refit, w = Z'V diag(1 / (s + lam)) V'Q'y, in column
    vectors: weights and intercept."""
    q, z, s, v = oracle_kernel_eigh(x)
    t = v.T @ (q.T @ y[:, None])
    t /= (np.maximum(s, 0.0) + lam)[:, None]
    w = (z.T @ (v @ t))[:, 0]
    return w, float(y.mean() - (x.mean(axis=0)[None, :] @ w[:, None])[0, 0])


def oracle_ridge_cv(x, y, grid, folds):
    """The 2-D lambda pick (largest within tolerance of the least error) and dual refit."""
    grid = sorted(grid)
    if len(grid) == 1:
        return (grid[0], *oracle_dual_refit(x, y, grid[0]))
    errs = oracle_cv_errors(x, y, np.asarray(grid), folds)
    tol = float(errs.min()) * (1.0 + 1e-10) + 1e-24 * float(np.mean(y**2))
    lam = grid[int(np.flatnonzero(errs <= tol)[-1])]
    return (lam, *oracle_dual_refit(x, y, lam))


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
    _, s, v = _kernel_eigh(x)
    errs = _cv_errors(s, v, y, grid, folds)
    assert errs.shape == (x.shape[0], grid.size)
    for i in range(x.shape[0]):
        assert errs[i].tobytes() == oracle_cv_errors(x[i], y[i], grid, folds).tobytes()


@settings(max_examples=250, deadline=None)
@given(stacks(), st.data())
def test_stacked_dual_refit_matches_per_slice_oracle(case, data):
    x, y, _, _ = case
    lams = np.asarray(data.draw(st.lists(st.sampled_from(PREFERENCE_LAMBDA_GRID),
                                         min_size=x.shape[0], max_size=x.shape[0])))
    w, b = _dual_refit(x, y, *_kernel_eigh(x), lams)
    assert w.shape == x.shape[::2] and b.shape == x.shape[:1]
    for i in range(x.shape[0]):
        w_i, b_i = oracle_dual_refit(x[i], y[i], lams[i])
        assert w[i].tobytes() == w_i.tobytes()
        assert b[i] == b_i
        assert_near_primal(w[i], b[i], x[i], y[i], lams[i])


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
        assert_near_primal(w[i], b[i], x[i], y[i], lam_i)


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


def test_stacked_ridge_cv_refits_slice_by_slice_when_lapack_fails():
    # slice 1's huge row fails eigh on its own, which fails the stacked call;
    # the lone slice's LinAlgError becomes a ValidationError, and the stack
    # must still raise slice 0's own ValidationError first
    rng = np.random.default_rng(4)
    x = rng.random((3, 11, 1))
    y = rng.random((3, 11))
    x[1, 5] = 1e160
    grid = _lambda_grid(PREFERENCE_LAMBDA_GRID)
    lapack = r"ridge fit failed in LAPACK \(Eigenvalues did not converge\); are the features too large\?"
    with np.errstate(all="ignore"):
        with pytest.raises(np.linalg.LinAlgError):
            _kernel_eigh(x)
        with pytest.raises(ValidationError, match=lapack):
            _ridge_cv_stack(x[1:2], y[1:2], grid, 11)
        with pytest.raises(ValidationError, match=lapack):
            _ridge_cv_stack(x, y, grid, 11)
        with pytest.raises(ValidationError, match=lapack):
            ridge_cv(x[1], y[1], PREFERENCE_LAMBDA_GRID, 11)
        y[0, 0] = np.inf
        with pytest.raises(ValidationError) as first:
            _ridge_cv_stack(x[:1], y[:1], grid, 11)
        with pytest.raises(ValidationError, match=str(first.value)):
            _ridge_cv_stack(x, y, grid, 11)
    # the slices that fit keep their bits when the stack is refitted slice by slice
    x[1, 5], y[0, 0] = 0.5, 0.5
    x[2, 3] = 1e160
    with np.errstate(all="ignore"):
        with pytest.raises(ValidationError, match=lapack):
            _ridge_cv_stack(x, y, grid, 11)
    lams, w, b = _ridge_cv_stack(x[:2], y[:2], grid, 11)
    for i in range(2):
        lam_i, w_i, b_i = oracle_ridge_cv(x[i], y[i], PREFERENCE_LAMBDA_GRID, 11)
        assert (lams[i], w[i].tobytes(), b[i]) == (lam_i, w_i.tobytes(), b_i)
