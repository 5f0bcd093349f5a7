"""Seed-deterministic synthetic data generators.

These are desk-scale stand-ins for a real multi-task score pool: model
abilities and item difficulties drive clipped-logistic continuous scores, so
reference-score rankings follow ability with controllable noise and selector
quality can be judged against a known ground truth.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .pool import ItemRecord, ScoreMatrix
from .irt import BinarizedResponses, IrtModel, sigmoid
from .weighting import reference_score


@dataclass(frozen=True)
class SynthConfig:
    models: int
    tasks: int
    items_per_task: int
    latent_dim: int = 5
    ability_spread: float = 1.0
    noise: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.models, self.tasks, self.items_per_task, self.latent_dim) < 1:
            raise ValidationError("all synth counts must be positive")
        if not np.isfinite(self.noise) or self.noise < 0:
            raise ValidationError(f"noise must be finite and >= 0, got {self.noise}")
        if not np.isfinite(self.ability_spread):
            raise ValidationError(f"ability_spread must be finite, got {self.ability_spread}")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")

    @property
    def n_items(self) -> int:
        return self.tasks * self.items_per_task


def _model_ids(k: int) -> tuple[str, ...]:
    return tuple(f"model{i:03d}" for i in range(k))


def _item_labels(config: SynthConfig) -> tuple[tuple[str, str], ...]:
    """(item_id, task_id) pairs, items grouped by task."""
    out = []
    for t in range(config.tasks):
        for j in range(config.items_per_task):
            out.append((f"i{t * config.items_per_task + j:05d}", f"task{t:03d}"))
    return tuple(out)


def sample_m2pl_responses(truth: IrtModel, seed: int) -> BinarizedResponses:
    """Bernoulli responses Y ~ sigmoid(alpha.theta - beta) under given parameters."""
    rng = np.random.default_rng(seed)
    prob = sigmoid(truth.theta @ truth.alpha.T - truth.beta)
    responses = (rng.random(prob.shape) < prob).astype(np.float64)
    return BinarizedResponses(responses, truth.threshold, truth.model_ids, truth.item_ids)


def gen_m2pl_dataset(config: SynthConfig) -> tuple[IrtModel, BinarizedResponses]:
    """Draw true (alpha, beta, theta) from scaled normals and Bernoulli responses."""
    rng = np.random.default_rng(config.seed)
    n, k, d = config.n_items, config.models, config.latent_dim
    alpha = rng.standard_normal((n, d))
    beta = rng.standard_normal(n)
    theta = config.ability_spread * rng.standard_normal((k, d))
    prob = sigmoid(theta @ alpha.T - beta)
    responses = (rng.random((k, n)) < prob).astype(np.float64)
    labels = _item_labels(config)
    truth = IrtModel(
        d=d,
        alpha=alpha,
        beta=beta,
        theta=theta,
        threshold=0.5,
        item_ids=tuple(i for i, _ in labels),
        model_ids=_model_ids(k),
    )
    binarized = BinarizedResponses(responses, 0.5, truth.model_ids, truth.item_ids)
    return truth, binarized


def gen_benchmark(config: SynthConfig, abilities: np.ndarray | None = None) -> ScoreMatrix:
    """Continuous [0,1] score pool whose reference ranking follows ability.

    Scores are sigmoid(ability - item difficulty + noise), so with noise=0 the
    task-averaged reference ranking equals the ability ranking exactly. A
    noise or ability spread so large that every score is 0 or 1 (or one is
    NaN, from overflowing draws) raises a ValidationError.
    """
    rng = np.random.default_rng(config.seed)
    k, n = config.models, config.n_items
    if abilities is None:
        with np.errstate(over="ignore"):
            abilities = config.ability_spread * rng.standard_normal(k)
    else:
        abilities = np.asarray(abilities, dtype=np.float64)
        if abilities.shape != (k,):
            raise ValidationError(f"expected {k} abilities")
    task_difficulty = rng.standard_normal(config.tasks)
    item_difficulty = (
        np.repeat(task_difficulty, config.items_per_task) + 0.5 * rng.standard_normal(n)
    )
    with np.errstate(over="ignore", invalid="ignore"):
        noise = config.noise * rng.standard_normal((k, n))
        values = np.clip(sigmoid(abilities[:, None] - item_difficulty[None, :] + noise), 0.0, 1.0)
    if not (np.isfinite(values).all() and ((values > 0.0) & (values < 1.0)).any()):
        raise ValidationError("noise or ability_spread too large: every score is 0 or 1")

    audio_in = rng.random(n) < 0.5
    audio_out = rng.random(n) < 0.5
    items = tuple(
        ItemRecord(
            item_id=item_id,
            task_id=task_id,
            metric_name="native",
            needs_audio_in=bool(audio_in[pos]),
            needs_audio_out=bool(audio_out[pos]),
        )
        for pos, (item_id, task_id) in enumerate(_item_labels(config))
    )
    return ScoreMatrix(_model_ids(k), items, values)


def gen_embeddings(config: SynthConfig, dim: int, kind_seed: int) -> np.ndarray:
    """Random item embeddings (for exercising the semantic/acoustic paths)."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, kind_seed]))
    return rng.standard_normal((config.n_items, dim))


def gen_ratings_likert(
    matrix: ScoreMatrix,
    model_ids: list[str],
    dimensions: list[str],
    noise: float,
    seed: int,
) -> dict[tuple[str, str], float]:
    """Mean ratings on the 1-6 scale, correlated with the reference scores."""
    rng = np.random.default_rng(seed)
    out = {}
    for model_id in model_ids:
        ref = reference_score(matrix, model_id)
        for dim in dimensions:
            level = float(np.clip(ref + noise * rng.standard_normal(), 0.0, 1.0))
            out[(model_id, dim)] = 1.0 + 5.0 * level
    return out


def _write_csv(path: Path, header: list[str], rows) -> Path:
    """Write a header and rows in the CSV dialect the input readers accept."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_benchmark_files(
    matrix: ScoreMatrix,
    out_dir: str | Path,
    config: SynthConfig,
    embedding_dim: int = 0,
) -> dict[str, Path]:
    """Emit the generated pool in the exact formats the ingest path reads,
    plus, with embedding_dim > 0, semantic and acoustic embeddings drawn
    from config's seed."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    paths["items"] = _write_csv(
        out_dir / "items.csv",
        ["item_id", "task_id", "metric", "needs_audio_in", "needs_audio_out"],
        ([it.item_id, it.task_id, it.metric_name, int(it.needs_audio_in), int(it.needs_audio_out)]
         for it in matrix.items),
    )
    paths["scores"] = _write_csv(
        out_dir / "scores.csv", ["model_id", "item_id", "raw_value"],
        ([model_id, it.item_id, repr(float(matrix.values[i, j]))]
         for i, model_id in enumerate(matrix.model_ids) for j, it in enumerate(matrix.items)),
    )

    norm_path = out_dir / "norm_config.json"
    metrics = sorted({it.metric_name for it in matrix.items})
    norm_path.write_text(
        json.dumps({m: {"kind": "identity"} for m in metrics}, sort_keys=True, indent=2)
        + "\n",
        encoding="utf-8",
    )
    paths["norm_config"] = norm_path

    if embedding_dim > 0:
        for kind, kind_seed in (("semantic", 101), ("acoustic", 202)):
            vectors = gen_embeddings(config, embedding_dim, kind_seed)
            paths[kind] = _write_csv(
                out_dir / f"{kind}.csv", ["item_id"] + [f"v{i}" for i in range(embedding_dim)],
                ([it.item_id] + [repr(float(v)) for v in row]
                 for it, row in zip(matrix.items, vectors)),
            )
    return paths


def write_ratings_file(
    matrix: ScoreMatrix,
    out_path: str | Path,
    rated_models: int,
    dimensions: list[str],
    noise: float,
    seed: int,
) -> Path:
    out_path = Path(out_path)
    if rated_models < 1 or rated_models > matrix.n_models:
        raise ValidationError("rated model count outside the pool")
    model_ids = list(matrix.model_ids[:rated_models])
    ratings = gen_ratings_likert(matrix, model_ids, dimensions, noise, seed)
    return _write_csv(
        out_path, ["model_id", "dimension", "mean_rating"],
        ([model_id, dim, repr(ratings[(model_id, dim)])]
         for model_id in model_ids for dim in dimensions),
    )
