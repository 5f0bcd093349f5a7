from __future__ import annotations

import math

import numpy as np
import pytest

from coreselect.errors import ValidationError
from coreselect.evaluation import (
    CorrelationCurve,
    CurvePoint,
    EvalReport,
    aucc,
    crossval_curve,
    kendall,
    kendall_flagged,
    n_threshold,
    pearson,
    pearson_flagged,
    spearman,
    spearman_flagged,
)
from coreselect.selectors import SelectorConfig

from conftest import random_matrix


# ------------------------------------------------ definition-level oracles

def pearson_oracle(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y))
    return num / den


def rank_oracle(x):
    out = [0.0] * len(x)
    for i, v in enumerate(x):
        smaller = sum(1 for u in x if u < v)
        equal = sum(1 for u in x if u == v)
        out[i] = smaller + (equal + 1) / 2.0
    return out


def spearman_oracle(x, y):
    return pearson_oracle(rank_oracle(x), rank_oracle(y))


def kendall_oracle(x, y):
    concordant = discordant = ties_x = ties_y = 0
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0:
                ties_x += 1
            if dy == 0:
                ties_y += 1
            if dx * dy > 0:
                concordant += 1
            elif dx * dy < 0:
                discordant += 1
    n0 = n * (n - 1) / 2
    return (concordant - discordant) / math.sqrt((n0 - ties_x) * (n0 - ties_y))


# ------------------------------------------------------------ correlations

def test_identity_and_antisymmetry(rng):
    x = rng.random(20)
    for stat in (pearson, spearman, kendall):
        assert stat(x, x) == pytest.approx(1.0, abs=1e-12)
        assert stat(x, -x) == pytest.approx(-1.0, abs=1e-12)


def test_kendall_one_swap_is_one_third():
    assert kendall(np.array([1.0, 2.0, 3.0]), np.array([1.0, 3.0, 2.0])) == pytest.approx(
        1.0 / 3.0, abs=1e-15
    )


def test_all_three_match_oracles_on_random_vectors(rng):
    for trial in range(100):
        x = rng.random(50)
        y = rng.random(50)
        if trial % 3 == 0:  # exercise the tie corrections too
            x = np.round(x, 1)
            y = np.round(y, 1)
        assert abs(pearson(x, y) - pearson_oracle(list(x), list(y))) <= 1e-10
        assert abs(spearman(x, y) - spearman_oracle(list(x), list(y))) <= 1e-10
        assert abs(kendall(x, y) - kendall_oracle(list(x), list(y))) <= 1e-10


def test_pearson_affine_invariance(rng):
    x = rng.random(30)
    y = rng.random(30)
    base = pearson(x, y)
    for a, b in ((2.0, 1.0), (0.5, -3.0), (10.0, 0.0)):
        assert abs(pearson(a * x + b, y) - base) <= 1e-12


def test_spearman_equals_pearson_of_ranks_tie_free(rng):
    x = rng.permutation(40).astype(float)
    y = rng.permutation(40).astype(float)
    assert spearman(x, y) == pytest.approx(
        pearson(np.argsort(np.argsort(x)).astype(float),
                np.argsort(np.argsort(y)).astype(float)),
        abs=1e-12,
    )


def test_kendall_bounds_and_comonotone(rng):
    x = np.sort(rng.random(15))
    y = np.exp(x)  # strictly co-monotone
    assert kendall(x, y) == pytest.approx(1.0)
    for _ in range(20):
        a, b = rng.random(10), rng.random(10)
        assert -1.0 <= kendall(a, b) <= 1.0


def test_zero_variance_returns_zero_with_flag():
    x = np.full(5, 0.7)
    y = np.arange(5, dtype=float)
    for flagged in (pearson_flagged, spearman_flagged, kendall_flagged):
        value, degenerate = flagged(x, y)
        assert value == 0.0 and degenerate


def test_correlation_length_validation():
    with pytest.raises(ValidationError):
        pearson(np.array([1.0]), np.array([2.0]))
    with pytest.raises(ValidationError):
        pearson(np.arange(3.0), np.arange(4.0))


# ------------------------------------------------------------ aucc, N_r

def _curve(points):
    return CorrelationCurve(
        "pearson",
        [CurvePoint(n=n, mean_r=r, sem=0.0, values=(r,)) for n, r in points],
    )


def test_aucc_two_point_trapezoid():
    assert aucc(_curve([(10, 0.5), (200, 1.0)])) == pytest.approx(0.75)


def test_aucc_constant_curve():
    curve = _curve([(10, 0.9), (50, 0.9), (200, 0.9)])
    assert aucc(curve) == pytest.approx(0.9)


def test_aucc_two_triangles():
    assert aucc(_curve([(10, 0.0), (105, 1.0), (200, 0.0)])) == pytest.approx(0.5)


def test_aucc_ignores_out_of_range_points():
    curve = _curve([(5, 0.0), (10, 0.5), (200, 1.0), (500, 0.0)])
    assert aucc(curve) == pytest.approx(0.75)


def test_aucc_requires_two_in_range_points():
    with pytest.raises(ValidationError):
        aucc(_curve([(10, 0.5), (500, 1.0)]))


def test_n_threshold_first_crossing():
    curve = _curve([(10, 0.8), (50, 0.92), (100, 0.96)])
    assert n_threshold(curve, 0.90) == 50
    assert n_threshold(curve, 0.99) is None


def test_n_threshold_no_monotonicity_assumed():
    curve = _curve([(10, 0.95), (20, 0.85), (30, 0.96)])
    assert n_threshold(curve, 0.9) == 10


def test_curve_sizes_must_increase():
    with pytest.raises(ValidationError):
        _curve([(20, 0.5), (10, 0.6)])


def test_pearson_clamped_when_rounding_overshoots_one():
    x = np.arange(5) / 9.0
    xc = x - x.mean()
    assert (xc @ xc) / np.sqrt((xc**2).sum() * (xc**2).sum()) > 1.0  # unclamped ratio
    assert pearson_flagged(x, x) == (1.0, False)
    assert pearson_flagged(x, 3.0 * x + 1.0) == (1.0, False)
    assert pearson_flagged(x, -x) == (-1.0, False)


# --------------------------------------------------------------- harness

def test_crossval_evaluation_count(rng):
    m = random_matrix(rng, 6, [10, 10])
    curve = crossval_curve(
        m, SelectorConfig("random_balanced", n=5, seed=0), sizes=(5, 8),
        folds=3, repeats=4, master_seed=7,
    )
    assert curve.sizes == (5, 8)
    for p in curve.points:
        assert len(p.values) == 12  # folds x repeats


def test_crossval_whole_pool_single_task_is_exact(rng):
    m = random_matrix(rng, 6, [12])
    curve = crossval_curve(
        m, SelectorConfig("anchor_points", n=12, seed=0), sizes=(12,),
        folds=3, repeats=2, master_seed=1,
    )
    assert curve.points[0].mean_r == pytest.approx(1.0, abs=1e-12)


def test_crossval_deterministic(rng):
    m = random_matrix(rng, 6, [8, 8])
    cfg = SelectorConfig("anchor_points", n=6, seed=0)
    a = crossval_curve(m, cfg, sizes=(4, 6), folds=2, repeats=3, master_seed=5)
    b = crossval_curve(m, cfg, sizes=(4, 6), folds=2, repeats=3, master_seed=5)
    assert a.points == b.points


def test_crossval_jobs_do_not_change_results(rng):
    m = random_matrix(rng, 6, [8, 8])
    cfg = SelectorConfig("random_balanced", n=6, seed=0)
    serial = crossval_curve(m, cfg, sizes=(4, 6), folds=2, repeats=4, master_seed=5)
    parallel = crossval_curve(
        m, cfg, sizes=(4, 6), folds=2, repeats=4, master_seed=5, jobs=2
    )
    assert serial.points == parallel.points


def test_crossval_size_exceeding_pool_rejected(rng):
    m = random_matrix(rng, 4, [5])
    with pytest.raises(ValidationError):
        crossval_curve(m, SelectorConfig("random_balanced", n=5, seed=0),
                       sizes=(9,), folds=2, repeats=1, master_seed=0)


def test_crossval_rejects_folds_holding_out_one_model(rng, monkeypatch):
    import coreselect.evaluation as evaluation

    def no_repeat(*args):
        raise AssertionError("a repeat ran before the fold count was checked")

    monkeypatch.setattr(evaluation, "_run_repeat", no_repeat)
    cfg = SelectorConfig("random_balanced", n=3, seed=0)
    for models, folds in ((5, 3), (19, 10), (3, 2)):
        m = random_matrix(rng, models, [6])
        with pytest.raises(ValidationError, match=(
                rf"^{folds} folds need at least {2 * folds} models \(2 held out per fold\), "
                rf"got {models}$")):
            crossval_curve(m, cfg, sizes=(3,), folds=folds, repeats=1, master_seed=0)
    monkeypatch.undo()
    # 2 models in every held-out fold is enough
    curve = crossval_curve(random_matrix(rng, 6, [6]), cfg, sizes=(3,), folds=3, repeats=1)
    assert len(curve.points[0].values) == 3


def test_crossval_learn_and_irt_paths(rng):
    m = random_matrix(rng, 8, [6, 6])
    for method, extra in (
        ("random_sampling_learn", {}),
        ("irt_anchor", {"irt_dim": 2, "irt_epochs": 40}),
    ):
        cfg = SelectorConfig(method, n=5, seed=0, n_search=2, **extra)
        curve = crossval_curve(m, cfg, sizes=(5,), folds=2, repeats=2, master_seed=3)
        assert len(curve.points[0].values) == 4
        assert all(-1.0 <= v <= 1.0 for v in curve.points[0].values)


def test_crossval_fits_irt_once_per_fold(rng, monkeypatch):
    import coreselect.irt as irt_mod

    fits = []
    real_fit = irt_mod.fit_m2pl

    def counting_fit(*args, **kwargs):
        fits.append(args)
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(irt_mod, "fit_m2pl", counting_fit)
    m = random_matrix(rng, 8, [6, 6])
    cfg = SelectorConfig("irt_anchor", n=6, seed=0, irt_dim=2, irt_epochs=40)
    crossval_curve(m, cfg, sizes=(3, 4, 6), folds=2, repeats=3, master_seed=1)
    assert len(fits) == 2 * 3  # folds x repeats, not folds x repeats x sizes


def test_crossval_selector_failure_carries_fold_context(rng):
    m = random_matrix(rng, 6, [6, 6])  # 2 folds -> 3 source models, learn needs 4
    cfg = SelectorConfig("random_sampling_learn", n=5, seed=0)
    with pytest.raises(ValidationError, match="repeat=0, fold=0"):
        crossval_curve(m, cfg, sizes=(5,), folds=2, repeats=1, master_seed=3)


def test_report_summaries_render_missing_thresholds():
    low = _curve([(10, 0.2), (200, 0.4)])
    report = EvalReport(
        curves={"variance_top": low}, folds=3, repeats=1,
        sizes=(10, 200), master_seed=0, metric="pearson",
    )
    report.summarize()
    summary = report.summaries["variance_top"]
    assert summary["n90"] == "--" and summary["n95"] == "--"
    assert summary["aucc"] == pytest.approx(0.3)
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "method,n,mean_r,sem,metric"
    assert len(csv_text.splitlines()) == 3
