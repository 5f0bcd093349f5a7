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


# ----------------------------------------------- oracles of the old forms

def masked_sigmoid(z):
    """The two-branch sigmoid by boolean gather and scatter (the former form)."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def per_block_fit_m2pl(y, d, epochs, lr, seed):
    """Adam over (alpha, beta, theta) one block at a time (the former fit)."""
    k, n = y.shape
    rng = np.random.default_rng(seed)
    params = [0.1 * rng.standard_normal((n, d)), 0.1 * rng.standard_normal(n),
              0.1 * rng.standard_normal((k, d))]
    b1, b2, eps = 0.9, 0.999, 1e-8
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for step in range(1, epochs + 1):
        alpha, beta, theta = params
        z = theta @ alpha.T - beta
        resid = y - masked_sigmoid(z)
        grads = (resid.T @ theta - alpha, -resid.sum(axis=0) - beta, resid @ alpha - theta)
        for idx, g in enumerate(grads):
            m[idx] = b1 * m[idx] + (1 - b1) * g
            v[idx] = b2 * v[idx] + (1 - b2) * g**2
            m_hat = m[idx] / (1 - b1**step)
            v_hat = v[idx] / (1 - b2**step)
            params[idx] = params[idx] + lr * m_hat / (np.sqrt(v_hat) + eps)
    return params


def newton_estimate_ability(model, anchor_rows, responses, tol=1e-6, max_iter=500):
    """estimate_ability with np.eye and objective(theta) rebuilt every
    iteration (the former form)."""
    y = np.asarray(responses, dtype=np.float64)
    a = model.alpha[anchor_rows]
    b = model.beta[anchor_rows]

    def objective(theta):
        z = a @ theta - b
        return float(np.sum(y * z) - np.sum(np.logaddexp(0.0, z)) - 0.5 * theta @ theta)

    theta = np.zeros(model.d)
    for _ in range(max_iter):
        z = a @ theta - b
        p = masked_sigmoid(z)
        grad = a.T @ (y - p) - theta
        if float(np.linalg.norm(grad)) <= tol:
            break
        hess = -(a.T * (p * (1.0 - p))) @ a - np.eye(model.d)
        step = np.linalg.solve(-hess, grad)
        t, f0, slope = 1.0, objective(theta), float(grad @ step)
        while objective(theta + t * step) < f0 + 1e-4 * t * slope and t > 1e-12:
            t *= 0.5
        theta = theta + t * step
    return theta


EDGES = np.array([0.0, 5e-324, 36.7, 709.8, 745.2, 1e308, np.inf, 1.0, 0.25, 40.0])
EDGE_VALUES = np.concatenate([EDGES, -EDGES])


@pytest.mark.parametrize("view", ["contiguous", "strided", "reversed", "2d", "2d_transposed"])
def test_sigmoid_bit_identical_to_masked_form_at_edges(view):
    z = np.concatenate([EDGE_VALUES, np.linspace(-50.0, 50.0, 40)])
    z = {
        "contiguous": z,
        "strided": np.repeat(z, 3)[::3],
        "reversed": z[::-1],
        "2d": z.reshape(3, -1),
        "2d_transposed": z.reshape(3, -1).T,
    }[view]
    got = sigmoid(z)
    assert got.shape == z.shape
    assert got.tobytes() == masked_sigmoid(z).tobytes()


def test_sigmoid_of_nan_is_nan():
    z = np.array([np.nan, -np.nan, 1.0, -1.0])
    got = sigmoid(z)
    assert np.isnan(got[:2]).all()  # only the payload may differ from the masked form
    assert got[2:].tobytes() == masked_sigmoid(z[2:]).tobytes()


def test_gradients_bit_identical_to_masked_form(rng):
    k, n, d = 7, 30, 3
    alpha, beta, theta = rng.standard_normal((n, d)), rng.standard_normal(n), rng.standard_normal((k, d))
    y = (rng.random((k, n)) < 0.5).astype(float)
    resid = y - masked_sigmoid(theta @ alpha.T - beta)
    expected = (resid.T @ theta - alpha, -resid.sum(axis=0) - beta, resid @ alpha - theta)
    for got, want in zip(log_posterior_gradients(alpha, beta, theta, y), expected):
        assert got.tobytes() == want.tobytes()


def test_fit_bit_identical_to_per_block_adam():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 20), n=st.integers(2, 300), d=st.integers(1, 6),
           epochs=st.integers(1, 60), lr=st.sampled_from([0.001, 0.05, 0.1, 0.5, 2.0]),
           seed=st.integers(0, 2**32 - 1), rate=st.floats(0.05, 0.95))
    def check(k, n, d, epochs, lr, seed, rate):
        rng = np.random.default_rng(seed)
        y = (rng.random((k, n)) < rate).astype(float)
        m = make_matrix(y, [n])
        fit = fit_m2pl(binarize(m), d=d, epochs=epochs, lr=lr, seed=seed)
        alpha, beta, theta = per_block_fit_m2pl(y, d, epochs, lr, seed)
        assert fit.alpha.tobytes() == alpha.tobytes()
        assert fit.beta.tobytes() == beta.tobytes()
        assert fit.theta.tobytes() == theta.tobytes()

    check()


def test_fit_bit_identical_to_per_block_adam_on_synth_pool():
    cfg = SynthConfig(models=12, tasks=8, items_per_task=25, latent_dim=3, seed=11)
    _, resp = gen_m2pl_dataset(cfg)
    fit = fit_m2pl(resp, d=5, epochs=500, lr=0.1, seed=3)
    alpha, beta, theta = per_block_fit_m2pl(resp.values, 5, 500, 0.1, 3)
    assert fit.alpha.tobytes() == alpha.tobytes()
    assert fit.beta.tobytes() == beta.tobytes()
    assert fit.theta.tobytes() == theta.tobytes()


def test_diverging_fit_names_irt_lr_without_warnings(rng):
    import warnings

    m = make_matrix((rng.random((6, 10)) < 0.5).astype(float), [10])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="irt_lr"):
            fit_m2pl(binarize(m), d=2, epochs=20, lr=1e300, seed=0)


def test_estimate_ability_bit_identical_to_newton_oracle(rng):
    # scales of 20 and 60 make the full Newton step overshoot, so the
    # backtracking loop and its carried objective value are exercised
    for trial in range(60):
        n, d = int(rng.integers(1, 40)), int(rng.integers(1, 6))
        scale = float(rng.choice([0.1, 1.0, 5.0, 20.0, 60.0]))
        model = _toy_model(scale * rng.standard_normal((n, d)),
                           scale * rng.standard_normal(n), d)
        rows = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        y = (rng.random(rows.size) < rng.random()).astype(float)
        got = estimate_ability(model, rows, y)
        assert got.tobytes() == newton_estimate_ability(model, rows, y).tobytes()


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
