from __future__ import annotations

import json

import numpy as np
import pytest

from coreselect.cli import _canonical_json
from coreselect.errors import ValidationError
from coreselect.irt import (
    IrtModel,
    binarize,
    estimate_ability,
    fit_m2pl,
    item_embeddings,
    log_posterior,
    log_posterior_gradients,
    pirt_scores,
    sigmoid,
)
from coreselect.synth import SynthConfig, gen_m2pl_dataset
from coreselect.weighting import SubsetSpec
from coreselect.evaluation import spearman

from conftest import make_matrix, random_matrix


# ------------------------------------------------------------- binarize

def test_binarize_reproduces_binary_matrix(rng):
    values = (rng.random((4, 12)) < 0.4).astype(float)
    m = make_matrix(values, [12])
    resp = binarize(m)
    assert np.array_equal(resp.values, values)
    assert resp.values.mean() == values.mean()


def test_binarize_constant_half_prefers_smaller_threshold():
    m = make_matrix(np.full((2, 4), 0.5), [4])
    resp = binarize(m)
    # gaps tie at 0.5 for every candidate; the smallest candidate (0) wins
    assert resp.threshold == 0.0
    assert np.all(resp.values == 1.0)


def test_binarize_threshold_beats_every_candidate(rng):
    # exhaustive scan oracle over all candidate thresholds
    for trial in range(20):
        m = random_matrix(rng, 3, [9])
        resp = binarize(m)
        target = m.values.mean()
        achieved = abs(resp.values.mean() - target)
        candidates = np.unique(np.concatenate([m.values.ravel(), [0.0, 1.0]]))
        for c in candidates:
            gap = abs((m.values >= c).mean() - target)
            assert achieved <= gap + 1e-15


# ------------------------------------------------------------------ fit

def test_fit_requires_binary_input():
    with pytest.raises(ValidationError):
        from coreselect.irt import BinarizedResponses

        BinarizedResponses(np.array([[0.5, 1.0]]), 0.5, ("m",), ("a", "b"))


def test_all_ones_column_drives_beta_negative(rng):
    values = (rng.random((10, 8)) < 0.5).astype(float)
    values[:, 3] = 1.0  # every model solves item 3
    m = make_matrix(values, [8])
    fit = fit_m2pl(binarize(m), d=2, epochs=300, lr=0.1, seed=0)
    assert fit.beta[3] < 0.0
    assert fit.beta[3] == fit.beta.min()


def test_gradients_match_central_differences(rng):
    k, n, d = 5, 8, 2
    alpha = rng.standard_normal((n, d))
    beta = rng.standard_normal(n)
    theta = rng.standard_normal((k, d))
    y = (rng.random((k, n)) < 0.5).astype(float)
    g_alpha, g_beta, g_theta = log_posterior_gradients(alpha, beta, theta, y)
    eps = 1e-6

    def numeric(arr, analytic):
        flat, grad = arr.ravel(), analytic.ravel()
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = log_posterior(alpha, beta, theta, y)
            flat[i] = orig - eps
            down = log_posterior(alpha, beta, theta, y)
            flat[i] = orig
            est = (up - down) / (2 * eps)
            worst = max(worst, abs(est - grad[i]) / max(1.0, abs(grad[i])))
        return worst

    assert numeric(alpha, g_alpha) < 1e-5
    assert numeric(beta, g_beta) < 1e-5
    assert numeric(theta, g_theta) < 1e-5


def test_plain_ascent_is_monotone_at_small_lr(rng):
    cfg = SynthConfig(models=20, tasks=4, items_per_task=5, latent_dim=2, seed=5)
    _, resp = gen_m2pl_dataset(cfg)
    y = resp.values
    alpha = 0.1 * rng.standard_normal((20, 2))
    beta = 0.1 * rng.standard_normal(20)
    theta = 0.1 * rng.standard_normal((20, 2))
    prev = log_posterior(alpha, beta, theta, y)
    for _ in range(400):
        g_alpha, g_beta, g_theta = log_posterior_gradients(alpha, beta, theta, y)
        alpha = alpha + 0.01 * g_alpha
        beta = beta + 0.01 * g_beta
        theta = theta + 0.01 * g_theta
        cur = log_posterior(alpha, beta, theta, y)
        assert cur >= prev - 1e-12
        prev = cur


def test_fit_recovers_difficulty_ordering():
    cfg = SynthConfig(models=30, tasks=10, items_per_task=20, latent_dim=2, seed=3)
    truth, resp = gen_m2pl_dataset(cfg)
    fit = fit_m2pl(resp, d=2, epochs=500, lr=0.1, seed=3)
    assert spearman(fit.beta, truth.beta) >= 0.8


def test_fit_deterministic(rng):
    values = (rng.random((6, 10)) < 0.5).astype(float)
    m = make_matrix(values, [10])
    a = fit_m2pl(binarize(m), d=2, epochs=50, lr=0.1, seed=9)
    b = fit_m2pl(binarize(m), d=2, epochs=50, lr=0.1, seed=9)
    assert np.array_equal(a.alpha, b.alpha)
    assert np.array_equal(a.theta, b.theta)


# ------------------------------------------------------------ embeddings

def test_item_embeddings_shapes_and_copy(rng):
    values = (rng.random((5, 6)) < 0.5).astype(float)
    m = make_matrix(values, [6])
    fit = fit_m2pl(binarize(m), d=5, epochs=20, lr=0.1, seed=1)
    emb = item_embeddings(fit)
    assert emb.dim == 6  # d=5 -> 6-dim item embeddings
    assert emb.kind == "irt"
    row = 2
    assert emb.vectors[row, :5] == pytest.approx(fit.alpha[row])
    assert emb.vectors[row, 5] == pytest.approx(fit.beta[row])
    one_d = fit_m2pl(binarize(m), d=1, epochs=20, lr=0.1, seed=1)
    assert item_embeddings(one_d).dim == 2


# ------------------------------------------------------- ability estimate

def _toy_model(alpha, beta, d):
    n = len(beta)
    return IrtModel(
        d=d,
        alpha=np.asarray(alpha, dtype=float),
        beta=np.asarray(beta, dtype=float),
        theta=np.zeros((2, d)),
        threshold=0.5,
        item_ids=tuple(f"i{j}" for j in range(n)),
        model_ids=("s0", "s1"),
    )


def ternary_max(f, lo, hi, iters=200):
    for _ in range(iters):
        a = lo + (hi - lo) / 3
        b = hi - (hi - lo) / 3
        if f(a) < f(b):
            lo = a
        else:
            hi = b
    return 0.5 * (lo + hi)


def test_single_item_ability_matches_1d_oracle():
    model = _toy_model([[1.0, 0.0, 0.0]], [0.0], d=3)
    theta = estimate_ability(model, [0], [1])
    # oracle: maximize log sigmoid(t) - t^2/2 on a line
    oracle = ternary_max(lambda t: float(np.log(sigmoid(np.array([t]))[0]) - t * t / 2), -5, 5)
    assert theta[0] == pytest.approx(oracle, abs=1e-6)
    assert theta[1:] == pytest.approx([0.0, 0.0], abs=1e-9)


def test_zero_discrimination_leaves_prior_mode():
    model = _toy_model([[0.0, 0.0]], [0.3], d=2)
    theta = estimate_ability(model, [0], [1])
    assert theta == pytest.approx([0.0, 0.0], abs=1e-8)


def test_all_correct_responses_stay_finite(rng):
    alpha = rng.standard_normal((6, 2))
    model = _toy_model(alpha, np.zeros(6), d=2)
    theta = estimate_ability(model, range(6), np.ones(6))
    assert np.isfinite(theta).all()
    assert np.linalg.norm(theta) < 10.0  # the prior bounds the estimate


def test_estimate_ability_requires_anchors():
    model = _toy_model([[1.0]], [0.0], d=1)
    with pytest.raises(ValidationError):
        estimate_ability(model, [], [])


@pytest.mark.parametrize("rows, responses", [([0, 1], [1]), ([0], [1, 0]), ([0, 1], [1, 2])])
def test_estimate_ability_rejects_mismatched_or_nonbinary_responses(rows, responses):
    model = _toy_model([[1.0], [0.5]], [0.0, 0.2], d=1)
    with pytest.raises(ValidationError):
        estimate_ability(model, rows, responses)


def test_ability_gradient_is_zero_at_estimate(rng):
    alpha = rng.standard_normal((8, 3))
    beta = rng.standard_normal(8)
    model = _toy_model(alpha, beta, d=3)
    y = (rng.random(8) < 0.5).astype(np.float64)
    theta = estimate_ability(model, range(8), y)
    grad = alpha.T @ (y - sigmoid(alpha @ theta - beta)) - theta
    assert np.linalg.norm(grad) <= 1e-6


# ---------------------------------------------------------------- p-IRT

def test_pirt_full_pool_equals_binarized_reference(rng):
    for trial in range(5):
        m = random_matrix(rng, 5, [4, 6, 3])
        resp = binarize(m)
        fit = fit_m2pl(resp, d=2, epochs=40, lr=0.1, seed=trial)
        full = SubsetSpec.uniform("irt_anchor", [it.item_id for it in m.items], 0)
        got = pirt_scores(m, full, list(m.model_ids), fit)
        expected = [
            np.mean([resp.values[k, pos].mean() for pos in m.task_index.values()])
            for k in range(m.n_models)
        ]
        assert got == pytest.approx(expected, abs=1e-9)


def test_pirt_uncovered_task_contributes_half(rng):
    # alpha=0, beta=0 -> predicted probability is exactly 0.5 everywhere
    m = random_matrix(rng, 3, [2, 2])
    resp = binarize(m)
    model = IrtModel(
        d=2,
        alpha=np.zeros((4, 2)),
        beta=np.zeros(4),
        theta=np.zeros((3, 2)),
        threshold=resp.threshold,
        item_ids=tuple(it.item_id for it in m.items),
        model_ids=m.model_ids,
    )
    sub = SubsetSpec.uniform("irt_anchor", [m.items[0].item_id, m.items[1].item_id], 0)
    got = pirt_scores(m, sub, [m.model_ids[0]], model)
    anchors = resp.values[0, :2].mean()
    assert got[0] == pytest.approx(0.5 * anchors + 0.5 * 0.5, abs=1e-12)


def test_pirt_two_task_toy_matches_direct_formula():
    # hand-set parameters, spreadsheet-style evaluation
    values = np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 0.0]])
    m = make_matrix(values, [2, 2])
    alpha = np.array([[0.8], [-0.4], [1.2], [0.3]])
    beta = np.array([0.2, -0.1, 0.5, -0.3])
    model = IrtModel(
        d=1, alpha=alpha, beta=beta, theta=np.zeros((2, 1)), threshold=0.5,
        item_ids=tuple(it.item_id for it in m.items), model_ids=m.model_ids,
    )
    sub = SubsetSpec.uniform("irt_anchor", [m.items[0].item_id, m.items[3].item_id], 0)
    got = pirt_scores(m, sub, [m.model_ids[0]], model)

    theta = estimate_ability(model, [0, 3], [1, 1])
    p = sigmoid(alpha @ theta - beta)
    task1 = (1.0 + p[1]) / 2.0  # observed anchor, predicted item
    task2 = (p[2] + 1.0) / 2.0
    assert got[0] == pytest.approx((task1 + task2) / 2.0, abs=1e-12)


def test_pirt_in_unit_interval(rng):
    m = random_matrix(rng, 4, [5, 5])
    resp = binarize(m)
    fit = fit_m2pl(resp, d=2, epochs=60, lr=0.1, seed=0)
    sub = SubsetSpec.uniform("irt_anchor", [it.item_id for it in m.items[:3]], 0)
    got = pirt_scores(m, sub, list(m.model_ids), fit)
    assert np.all(got >= 0.0) and np.all(got <= 1.0)


def test_predicted_probability_monotone_in_logit_and_difficulty(rng):
    z = np.sort(rng.standard_normal(50) * 4)
    p = sigmoid(z)
    assert (np.diff(p) > 0).all()  # strictly increasing in alpha.theta
    assert np.all((p > 0) & (p < 1))
    betas = np.sort(rng.standard_normal(50) * 4)
    assert (np.diff(sigmoid(0.7 - betas)) < 0).all()  # strictly decreasing in beta


def test_irt_model_json_round_trip(rng):
    values = (rng.random((3, 4)) < 0.5).astype(float)
    m = make_matrix(values, [4])
    fit = fit_m2pl(binarize(m), d=2, epochs=10, lr=0.1, seed=2)
    again = IrtModel.from_json_dict(json.loads(_canonical_json(fit.to_json_dict())))
    assert np.allclose(again.alpha, fit.alpha)
    assert np.allclose(again.theta, fit.theta)
    assert again.threshold == fit.threshold
