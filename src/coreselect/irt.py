"""Multidimensional two-parameter logistic (M2PL) latent-trait model.

Covers the full pipeline: mean-preserving binarization of continuous scores,
MAP fitting of item discrimination/difficulty and model ability (standard
normal priors on every parameter), item embeddings [alpha; beta], per-target
ability estimation from anchor responses, and the mixed observed/predicted
subset score that estimates the full-pool task-averaged score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .pool import ScoreMatrix
from .embeddings import EmbeddingSet
from .weighting import SubsetSpec, balance_weights


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow or boolean indexing.

    With e = exp(-|z|) in [0, 1], this is 1/(1+e) where z >= 0 and e/(1+e)
    elsewhere: max(e, z >= 0) is exactly 1 or e, so each element takes the
    same operations as the masked two-branch form and gets the same bits.
    A NaN stays NaN.
    """
    e = np.exp(-np.abs(z))
    return np.maximum(e, z >= 0) / (1.0 + e)


@dataclass(frozen=True)
class BinarizedResponses:
    """0/1 responses Y[model, item] thresholded at c (raw score >= c)."""

    values: np.ndarray  # K x N in {0, 1}
    threshold: float
    model_ids: tuple[str, ...]
    item_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        y = np.asarray(self.values, dtype=np.float64)
        if y.shape != (len(self.model_ids), len(self.item_ids)):
            raise ValidationError("binarized grid misaligned with ids")
        if y.size and not np.isin(y, (0.0, 1.0)).all():
            raise ValidationError("responses must be binary")
        y = y.copy()
        y.flags.writeable = False
        object.__setattr__(self, "values", y)


def binarize(matrix: ScoreMatrix) -> BinarizedResponses:
    """Threshold at the candidate c minimizing |mean(s >= c) - mean(s)|.

    Candidates are every distinct score value plus 0 and 1; ties pick the
    smaller c (verified optimal against an exhaustive scan in the tests).
    """
    flat = np.sort(matrix.values.ravel())
    candidates = np.unique(np.concatenate([flat, [0.0, 1.0]]))
    target = float(flat.mean())
    total = flat.size
    # count of scores >= c, via the sorted array
    at_least = total - np.searchsorted(flat, candidates, side="left")
    gaps = np.abs(at_least / total - target)
    c = float(candidates[int(np.argmin(gaps))])  # argmin takes the smallest c on ties
    return BinarizedResponses(
        (matrix.values >= c).astype(np.float64),
        c,
        matrix.model_ids,
        matrix.item_ids,
    )


@dataclass(frozen=True)
class IrtModel:
    """Point estimates: item discrimination alpha (N x d), item difficulty
    beta (N), source-model ability theta (K x d), and the binarization
    threshold the responses were produced with."""

    d: int
    alpha: np.ndarray
    beta: np.ndarray
    theta: np.ndarray
    threshold: float
    item_ids: tuple[str, ...]
    model_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        alpha = np.asarray(self.alpha, dtype=np.float64)
        beta = np.asarray(self.beta, dtype=np.float64)
        theta = np.asarray(self.theta, dtype=np.float64)
        n, k = len(self.item_ids), len(self.model_ids)
        if alpha.shape != (n, self.d) or beta.shape != (n,) or theta.shape != (k, self.d):
            raise ValidationError("IRT parameter shapes inconsistent")
        for arr in (alpha, beta, theta):
            if arr.size and not np.isfinite(arr).all():
                raise ValidationError("non-finite IRT parameters")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "theta", theta)

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "threshold": self.threshold,
            "items": [
                {"item_id": i, "alpha": [float(a) for a in row], "beta": float(b)}
                for i, row, b in zip(self.item_ids, self.alpha, self.beta)
            ],
            "models": [
                {"model_id": m, "theta": [float(t) for t in row]}
                for m, row in zip(self.model_ids, self.theta)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "IrtModel":
        items = data["items"]
        models = data["models"]
        return cls(
            d=int(data["d"]),
            alpha=np.asarray([d_["alpha"] for d_ in items]),
            beta=np.asarray([d_["beta"] for d_ in items]),
            theta=np.asarray([d_["theta"] for d_ in models]),
            threshold=float(data["threshold"]),
            item_ids=tuple(d_["item_id"] for d_ in items),
            model_ids=tuple(d_["model_id"] for d_ in models),
        )


def log_posterior(
    alpha: np.ndarray, beta: np.ndarray, theta: np.ndarray, y: np.ndarray
) -> float:
    """Bernoulli log-likelihood of Y plus standard-normal log-priors (up to
    the constant normalizer)."""
    z = theta @ alpha.T - beta  # K x N
    ll = float(np.sum(y * z) - np.sum(np.logaddexp(0.0, z)))
    prior = -0.5 * float((alpha**2).sum() + (beta**2).sum() + (theta**2).sum())
    return ll + prior


def _gradients_into(
    alpha: np.ndarray, beta: np.ndarray, theta: np.ndarray, y: np.ndarray,
    g_alpha: np.ndarray, g_beta: np.ndarray, g_theta: np.ndarray,
) -> None:
    """log_posterior_gradients, written into g_alpha, g_beta and g_theta."""
    z = theta @ alpha.T
    z -= beta
    resid = y - sigmoid(z)  # K x N
    np.matmul(resid.T, theta, out=g_alpha)
    g_alpha -= alpha
    np.sum(resid, axis=0, out=g_beta)
    np.negative(g_beta, out=g_beta)
    g_beta -= beta
    np.matmul(resid, alpha, out=g_theta)
    g_theta -= theta


def log_posterior_gradients(
    alpha: np.ndarray, beta: np.ndarray, theta: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradients of log_posterior w.r.t. (alpha, beta, theta)."""
    grads = np.empty(alpha.shape), np.empty(beta.shape), np.empty(theta.shape)
    _gradients_into(alpha, beta, theta, y, *grads)
    return grads


def fit_m2pl(
    responses: BinarizedResponses, d: int, epochs: int, lr: float, seed: int
) -> IrtModel:
    """MAP fit of the M2PL model by full-batch Adam gradient ascent.

    Runs a fixed number of epochs at learning rate lr from seeded normals
    scaled by 0.1. The selectors take d, epochs and lr from SelectorConfig.

    alpha, beta and theta are reshaped views of one flat parameter vector,
    and so are their gradients and Adam's moments m and v, so each step is
    one elementwise Adam pass over the whole vector. Every element goes
    through the same operations in the same order as a per-block update, so
    the fit is the same bit for bit. A fit that leaves a non-finite
    parameter raises ValidationError.
    """
    y = responses.values
    k, n = y.shape
    if k < 2 or n < 2:
        raise ValidationError("M2PL fit needs at least 2 models and 2 items")

    rng = np.random.default_rng(seed)
    params = 0.1 * rng.standard_normal(n * d + n + k * d)  # alpha, beta, theta
    grads, m, v, m_step, v_step = (np.zeros_like(params) for _ in range(5))

    def blocks(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return flat[:n * d].reshape(n, d), flat[n * d:n * d + n], flat[n * d + n:].reshape(k, d)

    param_blocks, grad_blocks = blocks(params), blocks(grads)
    b1, b2, eps = 0.9, 0.999, 1e-8
    with np.errstate(all="ignore"):  # a diverging fit ends in the check below
        for step in range(1, epochs + 1):
            _gradients_into(*param_blocks, y, *grad_blocks)
            m *= b1  # m = b1 * m + (1 - b1) * g
            np.multiply(grads, 1 - b1, out=m_step)
            m += m_step
            v *= b2  # v = b2 * v + (1 - b2) * g**2
            np.square(grads, out=v_step)
            v_step *= 1 - b2
            v += v_step
            np.divide(m, 1 - b1**step, out=m_step)  # lr * m_hat / (sqrt(v_hat) + eps)
            m_step *= lr
            np.divide(v, 1 - b2**step, out=v_step)
            np.sqrt(v_step, out=v_step)
            v_step += eps
            m_step /= v_step
            params += m_step
    if not np.isfinite(params).all():
        raise ValidationError(
            f"M2PL fit diverged to non-finite parameters at irt_lr {lr!r}; lower irt_lr"
        )
    alpha, beta, theta = param_blocks

    return IrtModel(
        d=d,
        alpha=alpha,
        beta=beta,
        theta=theta,
        threshold=responses.threshold,
        item_ids=responses.item_ids,
        model_ids=responses.model_ids,
    )


def item_embeddings(model: IrtModel) -> EmbeddingSet:
    """Per-item (d+1)-dim embedding [alpha_i; beta_i]."""
    vectors = np.hstack([model.alpha, model.beta[:, None]])
    return EmbeddingSet("irt", model.item_ids, vectors)


def estimate_ability(
    model: IrtModel, anchor_rows: Sequence[int], responses: np.ndarray,
    tol: float = 1e-6, max_iter: int = 500,
) -> np.ndarray:
    """MAP ability estimate from anchor responses, started at theta = 0.

    ``anchor_rows`` are the anchors' positions in the model's item order and
    ``responses`` the target's 0/1 response on each. Maximizes the anchored
    Bernoulli log-likelihood plus a standard-normal prior by damped Newton
    steps; the prior keeps all-correct / all-wrong anchor patterns finite.
    The objective is strictly concave, so the maximizer is unique.
    """
    if not len(anchor_rows):
        raise ValidationError("empty anchor response set")
    y = np.asarray(responses, dtype=np.float64)
    if y.shape != (len(anchor_rows),):
        raise ValidationError(f"{y.size} anchor responses for {len(anchor_rows)} anchor items")
    a = model.alpha[anchor_rows]  # n x d
    b = model.beta[anchor_rows]
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValidationError("anchor responses must be binary")

    def objective(theta: np.ndarray) -> float:
        z = a @ theta - b
        return float(np.sum(y * z) - np.sum(np.logaddexp(0.0, z)) - 0.5 * theta @ theta)

    eye = np.eye(model.d)
    theta = np.zeros(model.d)
    f0 = objective(theta)
    for _ in range(max_iter):
        z = a @ theta - b
        p = sigmoid(z)
        grad = a.T @ (y - p) - theta
        if float(np.linalg.norm(grad)) <= tol:
            break
        hess = -(a.T * (p * (1.0 - p))) @ a - eye
        step = np.linalg.solve(-hess, grad)
        # backtracking keeps the Newton step inside the concave bowl; the
        # accepted trial's objective is the next iteration's f0
        t, slope = 1.0, float(grad @ step)
        trial = theta + t * step
        f_trial = objective(trial)
        while f_trial < f0 + 1e-4 * t * slope and t > 1e-12:
            t *= 0.5
            trial = theta + t * step
            f_trial = objective(trial)
        theta, f0 = trial, f_trial
    return theta


def pirt_scores(
    matrix: ScoreMatrix,
    subset: SubsetSpec,
    model_ids: Sequence[str],
    irt: IrtModel,
) -> np.ndarray:
    """Task-averaged mixture score per target model.

    Anchor items contribute the target's binarized response; every other item
    contributes the predicted probability sigmoid(alpha.theta_hat - beta)
    under the target's estimated ability. Items are combined within each task
    by their balance weights and tasks are averaged equally, matching the
    full-pool reference score definition.
    """
    if irt.item_ids != matrix.item_ids:
        raise ValidationError("IRT model items do not match the pool")
    anchor_pos = np.asarray([matrix.item_position(i) for i in subset.item_ids])
    y = (matrix.values >= irt.threshold).astype(np.float64)
    b = balance_weights(matrix)
    scores = np.empty(len(model_ids))
    for out_idx, model_id in enumerate(model_ids):
        row = matrix.model_position(model_id)
        theta_hat = estimate_ability(irt, anchor_pos, y[row, anchor_pos])
        s = sigmoid(irt.alpha @ theta_hat - irt.beta)
        s[anchor_pos] = y[row, anchor_pos]
        task_vals = [
            float((b[pos] * s[pos]).sum() / b[pos].sum())
            for pos in matrix.task_index.values()
        ]
        scores[out_idx] = float(np.mean(task_vals))
    return scores
