"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance and runtime budget is asserted, not just printed.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from coreselect.cli import main as cli_main
from coreselect.evaluation import (
    CorrelationCurve,
    CurvePoint,
    EvalReport,
    aucc,
    crossval_curves,
    kendall,
    n_threshold,
    pearson,
    spearman,
)
from coreselect.irt import binarize, fit_m2pl, log_posterior, log_posterior_gradients, pirt_scores
from coreselect.pool import HumanRatingsTable, NormalizationRule, normalize
from coreselect.regression import pairwise_52, preference_lomo, ridge_fit
from coreselect.selectors import (
    SelectorConfig,
    select_difficulty_stratified,
    weighted_kmeans,
)
from coreselect.synth import SynthConfig, gen_benchmark, gen_m2pl_dataset
from coreselect.weighting import SubsetSpec

from conftest import random_matrix
from test_evaluation import kendall_oracle, pearson_oracle, spearman_oracle
from test_selectors import exhaustive_two_cluster_oracle


def _report(number: int, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS: {detail}")


def test_criterion_01_correlation_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(100):
        x = rng.random(50)
        y = rng.random(50)
        if trial % 4 == 0:
            x = np.round(x, 1)
            y = np.round(y, 1)
        worst = max(
            worst,
            abs(pearson(x, y) - pearson_oracle(list(x), list(y))),
            abs(spearman(x, y) - spearman_oracle(list(x), list(y))),
            abs(kendall(x, y) - kendall_oracle(list(x), list(y))),
        )
    assert worst <= 1e-10
    tau = kendall(np.array([1.0, 2.0, 3.0]), np.array([1.0, 3.0, 2.0]))
    assert tau == 1.0 / 3.0
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(1, f"100x3 oracle deltas <= {worst:.2e}, tau swap = 1/3, {elapsed:.1f}s")


def test_criterion_02_weighted_kmeans_monotone_and_two_blob_oracle():
    start = time.time()
    rng = np.random.default_rng(202)
    for i in range(1000):
        n = int(rng.integers(2, 201))
        dim = int(rng.integers(1, 11))
        k = int(rng.integers(1, min(n, 25) + 1))
        points = rng.standard_normal((n, dim))
        w = rng.random(n) + 0.05
        res = weighted_kmeans(points, w / w.sum(), k, seed=i)
        trace = np.asarray(res.objective_trace)
        assert (np.diff(trace) <= 1e-12 * np.maximum(1.0, trace[:-1])).all()

    for trial in range(25):
        blob_a = rng.standard_normal((3, 2)) * 0.3 + 6.0
        blob_b = rng.standard_normal((3, 2)) * 0.3 - 6.0
        points = np.vstack([blob_a, blob_b])
        w = rng.random(6) + 0.2
        w = w / w.sum()
        res = weighted_kmeans(points, w, 2, seed=trial)
        oracle_cost, oracle_mask = exhaustive_two_cluster_oracle(points, w)
        assert res.objective == pytest.approx(oracle_cost, abs=1e-9)
        mask = res.assignments == res.assignments[0]
        assert np.array_equal(mask, oracle_mask) or np.array_equal(mask, ~oracle_mask)
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(2, f"1000 traces non-increasing, 25 two-blob oracles matched, {elapsed:.1f}s")


def test_criterion_03_irt_recovery_and_gradients():
    start = time.time()
    recovered = 0
    worst_r = 1.0
    for seed in range(5):
        cfg = SynthConfig(models=30, tasks=10, items_per_task=20, latent_dim=2, seed=seed)
        truth, responses = gen_m2pl_dataset(cfg)
        fitted = fit_m2pl(responses, d=2, epochs=500, lr=0.1, seed=seed)
        r = spearman(fitted.beta, truth.beta)
        worst_r = min(worst_r, r)
        recovered += r >= 0.8
    assert recovered >= 4

    rng = np.random.default_rng(33)
    alpha = rng.standard_normal((8, 2))
    beta = rng.standard_normal(8)
    theta = rng.standard_normal((5, 2))
    y = (rng.random((5, 8)) < 0.5).astype(float)
    g_alpha, g_beta, g_theta = log_posterior_gradients(alpha, beta, theta, y)
    eps = 1e-6
    worst_grad = 0.0
    for arr, grad in ((alpha, g_alpha), (beta, g_beta), (theta, g_theta)):
        flat, gflat = arr.ravel(), grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = log_posterior(alpha, beta, theta, y)
            flat[i] = orig - eps
            down = log_posterior(alpha, beta, theta, y)
            flat[i] = orig
            rel = abs((up - down) / (2 * eps) - gflat[i]) / max(1.0, abs(gflat[i]))
            worst_grad = max(worst_grad, rel)
    assert worst_grad <= 1e-5
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(3, f"{recovered}/5 seeds >= 0.8 (worst {worst_r:.3f}), "
               f"grad err {worst_grad:.2e}, {elapsed:.1f}s")


def test_criterion_04_pirt_full_pool_exactness():
    rng = np.random.default_rng(404)
    worst = 0.0
    for trial in range(20):
        t = int(rng.integers(2, 6))
        sizes = [int(rng.integers(2, 8)) for _ in range(t)]
        m = random_matrix(rng, int(rng.integers(3, 7)), sizes)
        responses = binarize(m)
        fitted = fit_m2pl(responses, d=2, epochs=40, lr=0.1, seed=trial)
        full = SubsetSpec.uniform("irt_anchor", [it.item_id for it in m.items], 0)
        got = pirt_scores(m, full, list(m.model_ids), fitted)
        expected = np.asarray([
            np.mean([responses.values[k, pos].mean() for pos in m.task_index.values()])
            for k in range(m.n_models)
        ])
        worst = max(worst, float(np.abs(got - expected).max()))
    assert worst <= 1e-9
    _report(4, f"20 pools, max |p-IRT - binarized reference| = {worst:.2e}")


def test_criterion_05_ridge_correctness():
    rng = np.random.default_rng(505)
    worst_resid = 0.0
    for _ in range(50):
        m_rows = int(rng.integers(4, 40))
        n_cols = int(rng.integers(1, 10))
        x = rng.standard_normal((m_rows, n_cols))
        y = rng.standard_normal(m_rows)
        lam = float(10 ** rng.uniform(-4, 2))
        model = ridge_fit(x, y, lam)
        resid = y - model.predict(x)
        scale = max(1.0, float(np.abs(x.T @ y).max()))
        gap = float(np.linalg.norm(x.T @ resid - lam * model.weights)) / scale
        worst_resid = max(worst_resid, gap)
    assert worst_resid <= 1e-8

    y = rng.random(12)
    x = np.column_stack([y, rng.random(12)])
    exact = ridge_fit(x, y, 1e-4)
    mse = float(np.mean((exact.predict(x) - y) ** 2))
    assert mse <= 1e-6

    x = rng.random((15, 4))
    y = rng.random(15)
    shrunk = ridge_fit(x, y, 1e9)
    collapse = float(np.abs(shrunk.predict(x) - y.mean()).max())
    assert collapse <= 1e-3
    _report(5, f"residual identity <= {worst_resid:.2e}, exact-fit MSE {mse:.2e}, "
               f"shrinkage gap {collapse:.2e}")


def test_criterion_06_protocol_structure():
    rng = np.random.default_rng(606)
    x = rng.random((7, 8))
    y = np.clip(0.2 + 0.7 * x[:, 1] + 0.02 * rng.standard_normal(7), 0, 1)
    table = HumanRatingsTable(tuple(f"m{i}" for i in range(7)), ("overall",), y[:, None])

    lomo = preference_lomo(x, table, "overall")
    assert len(lomo.folds) == 7
    assert lomo.to_json_dict()["lambda_grid"] == [10.0 ** e for e in range(-4, 5)]

    pairs = pairwise_52(x, table, "overall")
    assert len(pairs.folds) == math.comb(7, 2) == 21
    recount = sum(1 for f in pairs.folds if f.correct) / 21
    assert pairs.accuracy == pytest.approx(recount)
    _report(6, f"LOMO 7 folds / 9-value grid, 21 pairs, accuracy {pairs.accuracy:.3f} "
               f"matches recount")


def test_criterion_07_selector_quality_property():
    start = time.time()
    cfg = SynthConfig(models=24, tasks=20, items_per_task=50, noise=1.0, seed=42)
    matrix = gen_benchmark(cfg)
    means = {}
    for method in ("random_balanced", "anchor_points"):
        curve = crossval_curves(
            matrix, [SelectorConfig(method, n=50, seed=0)], sizes=(20, 50),
            folds=3, repeats=100, master_seed=123,
        )[method]
        means[method] = {p.n: p.mean_r for p in curve.points}
        assert all(len(p.values) == 300 for p in curve.points)
    anchor20 = means["anchor_points"][20]
    random20 = means["random_balanced"][20]
    anchor50 = means["anchor_points"][50]
    assert anchor20 >= random20 - 0.02
    assert anchor50 >= 0.85
    elapsed = time.time() - start
    assert elapsed < 600.0
    _report(7, f"anchor@20 {anchor20:.3f} vs random@20 {random20:.3f} (gap >= -0.02), "
               f"anchor@50 {anchor50:.3f} >= 0.85, {elapsed:.0f}s")


def test_criterion_08_stratification_exactness():
    rng = np.random.default_rng(808)
    matrix = random_matrix(rng, 5, [250, 250, 250, 250])
    difficulty = 1.0 - matrix.values.mean(axis=0)
    order = sorted(range(matrix.n_items),
                   key=lambda i: (difficulty[i], matrix.items[i].item_id))
    bin_of = {}
    for b, grp in enumerate(np.array_split(np.asarray(order), 10)):
        for i in grp:
            bin_of[matrix.items[i].item_id] = b

    for seed in range(100):
        subset = select_difficulty_stratified(matrix, 30, 10, seed=seed)
        assert len(set(subset.item_ids)) == 30
        counts = np.zeros(10, dtype=int)
        for item_id in subset.item_ids:
            counts[bin_of[item_id]] += 1
        assert list(counts) == [3] * 10

    subset = select_difficulty_stratified(matrix, 25, 10, seed=7)
    counts = np.zeros(10, dtype=int)
    for item_id in subset.item_ids:
        counts[bin_of[item_id]] += 1
    assert counts.sum() == 25 and (counts >= 2).all() and (counts - 2).sum() == 5
    _report(8, "100 seeds: n=30 -> 3 per bin exactly; n=25 -> 2 per bin + 5 remainder")


def test_criterion_09_normalization_table():
    rng = np.random.default_rng(909)
    table_rules = [
        NormalizationRule.identity(),                      # Native [0,1]
        NormalizationRule.one_minus_capped_error(1.0),     # word/phoneme error rates
        NormalizationRule.one_minus_capped_error(5.0),     # latency seconds
        NormalizationRule.affine_unit(1.0, 10.0),          # judge 1-10
        NormalizationRule.affine_unit(1.0, 5.0),           # speech-quality 1-5
    ]
    for rule in table_rules:
        raws = rng.random(500) if rule.kind == "identity" else rng.random(500) * 20.0
        for raw in raws:
            assert 0.0 <= normalize(float(raw), rule) <= 1.0
    assert normalize(0.3, table_rules[1]) == pytest.approx(0.7)
    assert normalize(6.0, table_rules[2]) == 0.0
    assert normalize(10.0, table_rules[3]) == 1.0
    assert normalize(3.0, table_rules[4]) == pytest.approx(0.5)
    _report(9, "all table rules land in [0,1]; WER .3->.7, 6s->0, judge 10->1, quality 3->.5")


def test_criterion_10_end_to_end_determinism(tmp_path):
    def pipeline(root):
        data = root / "data"
        assert cli_main(["synth", "--models", "9", "--tasks", "4",
                         "--items-per-task", "12", "--noise", "0.6",
                         "--embedding-dim", "12", "--rated-models", "7",
                         "--seed", "11", "--out", str(data)]) == 0
        bundle = root / "bundle"
        assert cli_main(["ingest", "--items", str(data / "items.csv"),
                         "--scores", str(data / "scores.csv"),
                         "--norm-config", str(data / "norm_config.json"),
                         "--out", str(bundle)]) == 0
        sel = root / "sel"
        assert cli_main(["select", "--bundle", str(bundle), "--method",
                         "combined_anchor", "--n", "10", "--seed", "4",
                         "--semantic", str(data / "semantic.csv"),
                         "--acoustic", str(data / "acoustic.csv"),
                         "--out", str(sel)]) == 0
        ev = root / "ev"
        assert cli_main(["evaluate", "--bundle", str(bundle), "--methods",
                         "random_balanced,anchor_points", "--sizes", "6,10",
                         "--folds", "3", "--repeats", "2", "--seed", "5",
                         "--out", str(ev)]) == 0
        reg = root / "reg"
        assert cli_main(["regress", "--bundle", str(bundle),
                         "--subset", str(sel / "subset.json"),
                         "--ratings", str(data / "ratings.csv"),
                         "--protocol", "lomo", "--dimension", "overall",
                         "--out", str(reg)]) == 0
        rel = root / "rel"
        assert cli_main(["export", "--subset", str(sel / "subset.json"),
                         "--regression", f"overall={reg / 'ridge_overall.json'}",
                         "--out", str(rel)]) == 0
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        }

    first = pipeline(tmp_path / "a")
    second = pipeline(tmp_path / "b")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between reruns"

    bundle = tmp_path / "a" / "bundle"
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert cli_main(["evaluate", "--bundle", str(bundle), "--methods",
                         "anchor_points", "--sizes", "6,10", "--folds", "3",
                         "--repeats", "3", "--seed", "5", "--jobs", jobs,
                         "--out", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    _report(10, f"{len(first)} files byte-identical across reruns; "
                f"--jobs 1 == --jobs 2")


def test_criterion_11_aucc_and_thresholds():
    def curve(points):
        return CorrelationCurve(
            "pearson",
            [CurvePoint(n=n, mean_r=r, sem=0.0, values=(r,)) for n, r in points],
        )

    assert aucc(curve([(10, 0.5), (200, 1.0)])) == pytest.approx(0.75)
    assert aucc(curve([(10, 0.0), (105, 1.0), (200, 0.0)])) == pytest.approx(0.5)
    rising = curve([(10, 0.8), (50, 0.92), (100, 0.96)])
    assert n_threshold(rising, 0.90) == 50
    assert n_threshold(rising, 0.99) is None
    bumpy = curve([(10, 0.95), (20, 0.85), (30, 0.96)])
    assert n_threshold(bumpy, 0.9) == 10

    report = EvalReport(curves={"variance_top": curve([(10, 0.2), (200, 0.4)])},
                        folds=3, repeats=1, sizes=(10, 200),
                        master_seed=0, metric="pearson")
    report.summarize()
    rendered = report.summaries["variance_top"]
    assert rendered["n90"] == "--" and rendered["n95"] == "--"
    text = json.dumps(report.to_json_dict())
    assert '"--"' in text
    _report(11, 'trapezoid cases 0.75/0.5, first-crossing thresholds, "--" rendering')
