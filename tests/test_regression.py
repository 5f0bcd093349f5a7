from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from conftest import assert_near_primal, oracle_ridge_fit
from coreselect import regression
from coreselect.cli import _canonical_json
from coreselect.errors import ValidationError
from coreselect.pool import HumanRatingsTable
from coreselect.regression import (
    PREFERENCE_LAMBDA_GRID,
    RidgeModel,
    pairwise_52,
    preference_lomo,
    ridge_cv,
    ridge_fit,
)
from coreselect.selectors import LEARN_LAMBDA_GRID


def augmented_oracle(x, y, lam):
    """Independent solve: explicit intercept column, penalty zeroed on it."""
    m, n = x.shape
    xa = np.hstack([x, np.ones((m, 1))])
    penalty = lam * np.eye(n + 1)
    penalty[n, n] = 0.0
    coef = np.linalg.solve(xa.T @ xa + penalty, xa.T @ y)
    return coef[:n], float(coef[n])


# ------------------------------------------------------------- ridge_fit

def test_ridge_identity_column(rng):
    y = rng.random(12)
    x = np.column_stack([y, rng.random(12)])
    model = ridge_fit(x, y, 1e-4)
    assert float(np.mean((model.predict(x) - y) ** 2)) <= 1e-6
    w, b = augmented_oracle(x, y, 1e-4)
    assert model.weights == pytest.approx(w, abs=1e-9)
    assert model.intercept == pytest.approx(b, abs=1e-9)


def test_ridge_huge_penalty_collapses_to_mean(rng):
    x = rng.random((15, 4))
    y = rng.random(15)
    model = ridge_fit(x, y, 1e9)
    assert np.linalg.norm(model.weights) <= 1e-6
    assert model.predict(x) == pytest.approx(np.full(15, y.mean()), abs=1e-3)


def test_ridge_single_row():
    model = ridge_fit(np.array([[0.3, 0.7]]), np.array([0.42]), 1.0)
    assert model.weights == pytest.approx([0.0, 0.0])
    assert model.intercept == pytest.approx(0.42)


def test_ridge_residual_identity(rng):
    # X'(y - Xw - b) = lam * w and the residuals sum to zero
    for lam in (1e-3, 0.1, 5.0):
        x = rng.random((20, 6))
        y = rng.random(20)
        model = ridge_fit(x, y, lam)
        resid = y - model.predict(x)
        scale = max(1.0, float(np.abs(x.T @ y).max()))
        assert np.linalg.norm(x.T @ resid - lam * model.weights) <= 1e-8 * scale
        assert abs(resid.sum()) <= 1e-10 * len(y)


def test_ridge_matches_oracle_on_random_systems(rng):
    for _ in range(25):
        m = int(rng.integers(3, 30))
        n = int(rng.integers(1, 8))
        x = rng.standard_normal((m, n))
        y = rng.standard_normal(m)
        lam = float(10 ** rng.uniform(-3, 2))
        model = ridge_fit(x, y, lam)
        w, b = augmented_oracle(x, y, lam)
        assert model.weights == pytest.approx(w, abs=1e-8)
        assert model.intercept == pytest.approx(b, abs=1e-8)


def test_ridge_nonpositive_or_nonfinite_lambda_rejected():
    x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # collinear columns
    for lam in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValidationError, match="finite and > 0"):
            ridge_fit(x, np.array([1.0, 2.0, 3.0]), lam)


@pytest.mark.parametrize("m, n", [(12, 5), (9, 9), (13, 13), (12, 350), (9, 1000), (4, 1000)])
def test_ridge_fit_near_primal_oracle(m, n):
    # n < m, n = m and n >> m, at every preference lambda, on random and on
    # four-value inputs (repeated rows and columns)
    rng = np.random.default_rng([m, n])
    for x, y in ((rng.random((m, n)), rng.random(m)),
                 (rng.choice([0.0, 0.25, 0.5, 1.0], size=(m, n)),
                  rng.choice([0.0, 0.25, 0.5, 1.0], size=m))):
        for lam in PREFERENCE_LAMBDA_GRID:
            model = ridge_fit(x, y, lam)
            assert_near_primal(model.weights, model.intercept, x, y, lam)
        model = ridge_cv(x, y, PREFERENCE_LAMBDA_GRID, folds=m)
        assert_near_primal(model.weights, model.intercept, x, y, model.lam)


def test_ridge_predictions_invariant_to_row_permutation(rng):
    x = rng.random((12, 3))
    y = rng.random(12)
    perm = rng.permutation(12)
    a = ridge_fit(x, y, 0.5)
    b = ridge_fit(x[perm], y[perm], 0.5)
    probe = rng.random((4, 3))
    assert a.predict(probe) == pytest.approx(b.predict(probe), abs=1e-10)


# -------------------------------------------------------------- ridge_cv

def test_cv_noiseless_linear_selects_grid_minimum(rng):
    x = rng.random((20, 3))
    y = x @ np.array([0.5, -0.2, 0.9]) + 0.1
    grid = (0.001, 0.01, 0.1, 1.0, 10.0)
    model = ridge_cv(x, y, grid, folds=5)
    # oracle: exhaustive loop over the grid with the same striped folds
    errs = {}
    assignment = np.arange(20) % 5
    for lam in grid:
        fold_errs = []
        for f in range(5):
            held = assignment == f
            fit = ridge_fit(x[~held], y[~held], lam)
            fold_errs.append(float(np.mean((fit.predict(x[held]) - y[held]) ** 2)))
        errs[lam] = float(np.mean(fold_errs))
    assert model.lam == min(grid)
    assert errs[model.lam] <= min(errs.values()) + 1e-15


def test_cv_singleton_grid_skips_cv():
    x = np.array([[0.1], [0.2]])
    y = np.array([0.3, 0.4])
    model = ridge_cv(x, y, (7.5,), folds=2)
    assert model.lam == 7.5


def test_cv_chosen_error_minimal_on_random_data(rng):
    for _ in range(10):
        x = rng.random((16, 4))
        y = rng.random(16)
        grid = (0.001, 0.1, 1.0, 100.0)
        folds = 4
        model = ridge_cv(x, y, grid, folds=folds)
        assignment = np.arange(16) % folds
        errs = {}
        for lam in grid:
            per_fold = []
            for f in range(folds):
                held = assignment == f
                fit = ridge_fit(x[~held], y[~held], lam)
                per_fold.append(float(np.mean((fit.predict(x[held]) - y[held]) ** 2)))
            errs[lam] = float(np.mean(per_fold))
        assert errs[model.lam] <= min(errs.values()) + 1e-15


def test_cv_pure_noise_prefers_strong_regularization(rng):
    grid = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)
    wins = 0
    for seed in range(100):
        local = np.random.default_rng(seed)
        x = local.random((20, 6))
        y = local.random(20)
        model = ridge_cv(x, y, grid, folds=5)
        wins += model.lam >= 1.0  # >= median of the grid
    assert wins >= 70


def test_cv_validation_errors():
    x = np.random.default_rng(0).random((6, 2))
    y = np.zeros(6)
    with pytest.raises(ValidationError):
        ridge_cv(x, y, (), folds=3)
    with pytest.raises(ValidationError):
        ridge_cv(x, y, (0.1, 1.0), folds=1)
    with pytest.raises(ValidationError):
        ridge_cv(x, y, (0.1, 1.0), folds=7)
    # every grid value must be finite and > 0, checked before any fit
    for grid, bad in (((0, 1), "0.0"), ((-1, 1), "-1.0"), ((1.0, np.inf), "inf"),
                      ((np.nan, 1.0), "nan"), ((0.0,), "0.0")):
        with pytest.raises(ValidationError, match=f"finite and > 0, got {bad}"):
            ridge_cv(x, y, grid, folds=3)


def primal_cv_lambda(x, y, grid, folds):
    """The per-fold refit loop: one primal solve (oracle_ridge_fit) per
    lambda x fold, ties to the larger lambda by <=."""
    assignment = np.arange(x.shape[0]) % folds
    best_lam, best_err = None, np.inf
    for lam in sorted(grid):
        fold_errs = []
        for f in range(folds):
            held = assignment == f
            w, b = oracle_ridge_fit(x[~held], y[~held], lam)
            fold_errs.append(float(np.mean((x[held] @ w + b - y[held]) ** 2)))
        err = float(np.mean(fold_errs))
        if err <= best_err:
            best_err, best_lam = err, lam
    return best_lam



def _lambda_fixtures():
    """Seeded (x, y, grid, folds) cases for the kernel-form CV."""
    for seed in range(24):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 10))
        for n in (1, 200):  # 200 >> m, where lambda = 1e-4 barely shrinks
            yield rng.random((m, n)), rng.random(m), PREFERENCE_LAMBDA_GRID, m
        x = rng.random((m, 12))
        yield x, np.full(m, rng.random()), PREFERENCE_LAMBDA_GRID, m  # constant y
        yield x, rng.integers(1, 7, m) / 6.0, PREFERENCE_LAMBDA_GRID, m  # 1-6 ratings
        rows = x.copy()
        rows[1:3] = rows[0]  # identical feature rows
        yield rows, rng.random(m), PREFERENCE_LAMBDA_GRID, m
        yield rng.random((3, 5)), rng.random(3), PREFERENCE_LAMBDA_GRID, 3  # two-row training folds
        yield rng.random((4, 5)), rng.random(4), LEARN_LAMBDA_GRID, 2  # two-row training folds
        k = int(rng.integers(6, 19))
        folds = 5 if k % 5 else 4  # k not a multiple of the fold count
        yield rng.random((k, 50)), rng.random(k), LEARN_LAMBDA_GRID, folds


def test_cv_lambda_matches_primal_refit_loop():
    cases = 0
    for x, y, grid, folds in _lambda_fixtures():
        model = ridge_cv(x, y, grid, folds)
        assert model.lam == primal_cv_lambda(x, y, grid, folds)
        # the refit is ridge_fit's one-value-grid path, bit for bit
        refit = ridge_fit(x, y, model.lam)
        assert np.array_equal(model.weights, refit.weights)
        assert model.intercept == refit.intercept
        assert_near_primal(model.weights, model.intercept, x, y, model.lam)
        cases += 1
    assert cases == 24 * 8


# ------------------------------------------------------------------ LOMO

def _ratings(values, dims=("overall",)):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] == 1:
        values = values.T
    ids = tuple(f"m{i}" for i in range(values.shape[0]))
    return HumanRatingsTable(ids, tuple(dims), values)


def test_lomo_fold_count_and_grid(rng):
    x = rng.random((7, 5))
    table = _ratings(rng.random(7))
    report = preference_lomo(x, table, "overall")
    assert len(report.folds) == 7
    assert report.to_json_dict()["lambda_grid"] == [10.0 ** e for e in range(-4, 5)]


def test_lomo_linear_ratings_recovered(rng):
    x = rng.random((7, 3))
    y = 0.1 + 0.8 * x[:, 2]  # ratings exactly linear in one column
    report = preference_lomo(x, _ratings(y), "overall")
    assert report.mean_pearson >= 0.999


def test_lomo_three_model_case_matches_hand_rolled(rng):
    x = rng.random((3, 2))
    y = rng.random(3)
    table = _ratings(y)
    report = preference_lomo(x, table, "overall")
    for t in range(3):
        train = [i for i in range(3) if i != t]
        # hand-rolled nested LOO over the 2 training models, ties -> larger lam
        best_lam, best_err = None, np.inf
        for lam in sorted(PREFERENCE_LAMBDA_GRID):
            errs = []
            for v in range(2):
                tr = [train[1 - v]]
                fit = ridge_fit(x[tr], y[tr], lam)
                errs.append(float((fit.predict(x[[train[v]]])[0] - y[train[v]]) ** 2))
            err = float(np.mean(errs))
            if err <= best_err:
                best_err, best_lam = err, lam
        refit = ridge_fit(x[train], y[train], best_lam)
        preds = refit.predict(x)
        xc = preds - preds.mean()
        yc = y - y.mean()
        expected = float((xc @ yc) / np.sqrt((xc**2).sum() * (yc**2).sum()))
        assert report.folds[t].lam == best_lam
        assert report.folds[t].pearson_r == pytest.approx(expected, abs=1e-9)


def test_lomo_constant_ratings_flagged(rng):
    x = rng.random((5, 3))
    report = preference_lomo(x, _ratings(np.full(5, 0.5)), "overall")
    assert all(f.degenerate for f in report.folds)
    assert report.mean_pearson is None


def test_lomo_constant_features_flagged(rng):
    # constant features force identical predictions; mean-subtraction roundoff
    # must not turn them into a fake correlation
    x = np.full((5, 3), 0.4)
    report = preference_lomo(x, _ratings(rng.random(5)), "overall")
    assert all(f.degenerate for f in report.folds)
    assert report.mean_pearson is None


def test_lomo_needs_three_models(rng):
    with pytest.raises(ValidationError):
        preference_lomo(rng.random((2, 3)), _ratings(rng.random(2)), "overall")


def test_lomo_unknown_dimension(rng):
    with pytest.raises(ValidationError, match="unknown rating dimension"):
        preference_lomo(rng.random((4, 3)), _ratings(rng.random(4)), "naturalness")


# ------------------------------------------------------------- 5-2 pairs

def test_pairwise_enumerates_21_pairs(rng):
    x = rng.random((7, 4))
    report = pairwise_52(x, _ratings(rng.random(7)), "overall")
    assert len(report.folds) == 21
    seen = {tuple(f.held_out) for f in report.folds}
    assert len(seen) == 21


def test_pairwise_perfect_feature_full_accuracy(rng):
    y = np.linspace(0.1, 0.9, 7)
    x = np.column_stack([y, rng.random(7) * 0.01])
    report = pairwise_52(x, _ratings(y), "overall")
    assert report.accuracy == 1.0


def test_pairwise_accuracy_matches_recount(rng):
    x = rng.random((6, 3))
    report = pairwise_52(x, _ratings(rng.random(6)), "overall")
    recount = sum(1 for f in report.folds if f.correct) / len(report.folds)
    assert report.accuracy == pytest.approx(recount)
    assert len(report.folds) == 15  # C(6,2)


def test_pairwise_tied_ratings_count_incorrect(rng):
    y = np.full(5, 0.5)
    x = rng.random((5, 3))
    report = pairwise_52(x, _ratings(y), "overall")
    assert report.accuracy == 0.0


def test_pairwise_needs_four_models(rng):
    with pytest.raises(ValidationError):
        pairwise_52(rng.random((3, 2)), _ratings(rng.random(3)), "overall")


def test_ridge_model_json_round_trip():
    model = RidgeModel(np.array([0.1, -0.2]), 0.05, 1.0, ("a", "b"))
    again = RidgeModel.from_json_dict(json.loads(_canonical_json(model.to_json_dict())))
    assert np.array_equal(again.weights, model.weights)
    assert again.intercept == model.intercept
    assert again.item_ids == ("a", "b")


# ------------------------------------------- stacked protocols vs the loop

def loop_protocol(protocol, x, table, dimension):
    """The protocol as one ridge_cv call per fold, predicting through each
    fold's RidgeModel: the form the stacked protocols replaced."""
    from coreselect.evaluation import pearson_flagged
    from coreselect.regression import FoldOutcome, ProtocolReport

    y = table.column(dimension)
    k = x.shape[0]
    report = ProtocolReport(protocol, dimension)
    if protocol == "lomo":
        heldout_preds = np.empty(k)
        for t in range(k):
            train = np.arange(k) != t
            model = ridge_cv(x[train], y[train], PREFERENCE_LAMBDA_GRID, folds=k - 1)
            preds = model.predict(x)
            heldout_preds[t] = preds[t]
            r, degenerate = pearson_flagged(preds, y)
            report.folds.append(FoldOutcome((table.model_ids[t],), model.lam,
                                            None if degenerate else r, degenerate))
        defined = [f.pearson_r for f in report.folds if f.pearson_r is not None]
        report.mean_pearson = float(np.mean(defined)) if defined else None
        r, degenerate = pearson_flagged(heldout_preds, y)
        report.heldout_pearson = None if degenerate else r
        return report
    correct = 0
    for i, j in itertools.combinations(range(k), 2):
        train = np.ones(k, dtype=bool)
        train[[i, j]] = False
        model = ridge_cv(x[train], y[train], PREFERENCE_LAMBDA_GRID, folds=k - 2)
        pred_i, pred_j = model.predict(x[[i, j]])
        ok = bool(pred_i != pred_j and y[i] != y[j] and ((pred_i > pred_j) == (y[i] > y[j])))
        correct += ok
        report.folds.append(FoldOutcome((table.model_ids[i], table.model_ids[j]), model.lam,
                                        predictions=(float(pred_i), float(pred_j)), correct=ok))
    report.accuracy = correct / len(report.folds)
    return report


PROTOCOLS = {"lomo": preference_lomo, "pairwise52": pairwise_52}


def assert_protocol_matches_loop(protocol, x, table, record=lambda: None):
    """Compare the protocol's report with the loop's, bit for bit; record()
    is called between the two runs, and its result returned with the report."""
    expected = loop_protocol(protocol, x, table, "overall")
    recorded = record()
    report = PROTOCOLS[protocol](x, table, "overall")
    assert _canonical_json(report.to_json_dict()) == _canonical_json(expected.to_json_dict())
    return report, recorded


def record_stacks(monkeypatch, per_batch=None, n=None, m=None):
    """Record the stack size of every _ridge_cv_stack call; with per_batch,
    set the budget so that stacks of m rows by n features hold that many folds."""
    if per_batch is not None:
        per_slice = max(n * m, len(PREFERENCE_LAMBDA_GRID) * m * m)
        monkeypatch.setattr(regression, "_RIDGE_STACK_ELEMENTS", per_batch * per_slice)
    sizes = []
    real = regression._ridge_cv_stack

    def recording(x, *args):
        sizes.append(x.shape[0])
        return real(x, *args)

    monkeypatch.setattr(regression, "_ridge_cv_stack", recording)
    return sizes


def protocol_inputs(rng, k, n, binary):
    """k rated models by n features; with binary, values from four exact
    binary fractions, so rows, columns and ratings repeat and CV errors tie."""
    if binary:
        x = rng.choice([0.0, 0.25, 0.5, 1.0], size=(k, n))
        y = rng.choice([0.0, 0.25, 0.5, 1.0], size=k)
    else:
        x, y = rng.random((k, n)), rng.random(k)
    return x, _ratings(y)


@pytest.mark.parametrize("protocol, models", [("lomo", range(3, 13)), ("pairwise52", range(4, 13))])
def test_stacked_protocol_bit_identical_to_ridge_cv_loop(monkeypatch, protocol, models):
    for k in models:
        for n in (1, 2, 50, 200):
            rng = np.random.default_rng([k, n])
            for binary in (False, True):
                x, table = protocol_inputs(rng, k, n, binary)
                report, sizes = assert_protocol_matches_loop(
                    protocol, x, table, lambda: record_stacks(monkeypatch))
                monkeypatch.undo()
                folds = len(report.folds)
                m = k - 1 if protocol == "lomo" else k - 2
                batch = max(1, 16_384 // max(n * m, 9 * m * m))
                assert sizes == [batch] * (folds // batch) + ([folds % batch] if folds % batch else [])


@pytest.mark.parametrize("protocol, k", [("lomo", 12), ("lomo", 8), ("pairwise52", 12),
                                         ("pairwise52", 9)])
@pytest.mark.parametrize("per_batch", [1, 5, 7])
def test_stacked_protocol_batches_split_with_a_remainder(monkeypatch, protocol, k, per_batch):
    # 12 and 8 LOMO folds, 66 and 36 pairs: stacks of 5 and 7 leave a remainder
    n, m = 50, k - 1 if protocol == "lomo" else k - 2
    x, table = protocol_inputs(np.random.default_rng([k, per_batch]), k, n, False)
    report, sizes = assert_protocol_matches_loop(
        protocol, x, table, lambda: record_stacks(monkeypatch, per_batch, n, m))
    folds = len(report.folds)
    assert sizes == [per_batch] * (folds // per_batch) + (
        [folds % per_batch] if folds % per_batch else [])
    assert per_batch == 1 or folds % per_batch


@pytest.mark.parametrize("protocol", ["lomo", "pairwise52"])
def test_stacked_protocol_flags_constant_ratings_and_features(monkeypatch, protocol):
    rng = np.random.default_rng(11)
    monkeypatch.setattr(regression, "_RIDGE_STACK_ELEMENTS", 3 * 9 * 25)  # stacks of 3 or more
    for x, y in ((rng.random((6, 4)), np.full(6, 0.5)), (np.full((6, 4), 0.4), rng.random(6))):
        report, _ = assert_protocol_matches_loop(protocol, x, _ratings(y))
        if protocol == "lomo":
            assert all(f.degenerate for f in report.folds) and report.mean_pearson is None
        else:
            assert report.accuracy == 0.0


def _error(call):
    """The (type, message) of the ValidationError call raises, or None; any
    other exception, np.linalg.LinAlgError included, fails the test."""
    with np.errstate(all="ignore"):
        try:
            call()
        except ValidationError as exc:
            return type(exc), str(exc)
    return None


def _lapack_error(cause):
    return ValidationError, f"ridge fit failed in LAPACK ({cause}); are the features too large?"


@pytest.mark.parametrize("protocol", ["lomo", "pairwise52"])
def test_stacked_protocol_raises_the_loops_error_on_huge_features(monkeypatch, protocol):
    # rows of huge features make the CV errors or the LAPACK calls of the
    # folds that train on them fail, not all in the same way; in stacks of
    # any size, the protocol must raise the first failing fold's own error
    rng = np.random.default_rng(1)
    seen = set()
    for trial in range(150):
        k, n = int(rng.integers(4, 13)), int(rng.choice([1, 2, 3, 5, 20, 50]))
        x, table = protocol_inputs(rng, k, n, False)
        for row in rng.integers(k, size=int(rng.integers(1, 3))):
            x[row] = rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(140, 300)
        expected = _error(lambda: loop_protocol(protocol, x, table, "overall"))
        per_batch = (None, 1, 4)[trial % 3]
        if per_batch is not None:
            record_stacks(monkeypatch, per_batch, n, k - 1 if protocol == "lomo" else k - 2)
        assert _error(lambda: PROTOCOLS[protocol](x, table, "overall")) == expected
        monkeypatch.undo()
        seen.add(expected)
    assert {None, _lapack_error("Eigenvalues did not converge"),
            (ValidationError, "ridge CV errors must be finite")} <= seen
    assert protocol == "lomo" or _lapack_error("Singular matrix") in seen


def test_huge_features_raise_validation_errors_not_lapack_errors(monkeypatch):
    # one row of features at 1e150-1e300 fails LAPACK in the kernel
    # eigendecomposition or a CV fold solve; every Ridge entry point must
    # turn that into a ValidationError, under the default stack budget and
    # under stacks of one, with the same first error under both
    rng = np.random.default_rng(23)
    seen = set()
    for k in range(4, 13):
        for n in (1, 3, 10, 50):
            for exponent in (150, 200, 250, 300):
                x, table = protocol_inputs(rng, k, n, False)
                x[rng.integers(k)] = rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(exponent, exponent + 8)
                y = table.column("overall")
                calls = (lambda: ridge_cv(x, y, PREFERENCE_LAMBDA_GRID, folds=k),
                         lambda: preference_lomo(x, table, "overall"),
                         lambda: pairwise_52(x, table, "overall"))
                errors = [_error(call) for call in calls]
                monkeypatch.setattr(regression, "_RIDGE_STACK_ELEMENTS", 1)  # stacks of one
                assert [_error(call) for call in calls] == errors
                monkeypatch.undo()
                seen.update(errors)
    assert _lapack_error("Eigenvalues did not converge") in seen
    assert _lapack_error("Singular matrix") in seen
