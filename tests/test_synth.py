from __future__ import annotations

import time

import numpy as np
import pytest

from coreselect.errors import ValidationError
from coreselect.pool import load_pool, load_ratings
from coreselect.synth import (
    SynthConfig,
    gen_benchmark,
    gen_m2pl_dataset,
    sample_m2pl_responses,
    write_benchmark_files,
    write_ratings_file,
)
from coreselect.weighting import reference_scores


def test_generators_deterministic():
    cfg = SynthConfig(models=5, tasks=3, items_per_task=4, seed=9)
    a = gen_benchmark(cfg)
    b = gen_benchmark(cfg)
    assert np.array_equal(a.values, b.values)
    ta, ra = gen_m2pl_dataset(cfg)
    tb, rb = gen_m2pl_dataset(cfg)
    assert np.array_equal(ra.values, rb.values)
    assert np.array_equal(ta.alpha, tb.alpha)


def test_benchmark_scores_bounded():
    cfg = SynthConfig(models=6, tasks=4, items_per_task=10, noise=2.0, seed=1)
    m = gen_benchmark(cfg)
    assert m.values.min() >= 0.0 and m.values.max() <= 1.0
    assert m.n_tasks == 4 and m.n_items == 40


def test_noise_free_ranking_follows_ability():
    cfg = SynthConfig(models=10, tasks=5, items_per_task=8, noise=0.0, seed=4)
    abilities = np.linspace(-1.5, 1.5, 10)
    m = gen_benchmark(cfg, abilities=abilities)
    ref = reference_scores(m)
    assert np.array_equal(np.argsort(ref), np.argsort(abilities))
    assert (np.diff(ref) > 0).all()


def test_identical_abilities_give_identical_reference():
    cfg = SynthConfig(models=2, tasks=3, items_per_task=6, noise=0.0, seed=2)
    m = gen_benchmark(cfg, abilities=np.array([0.4, 0.4]))
    ref = reference_scores(m)
    assert ref[0] == pytest.approx(ref[1], abs=1e-15)


def _truth(alpha, beta, theta):
    from coreselect.irt import IrtModel

    alpha = np.asarray(alpha, dtype=float)
    return IrtModel(
        d=alpha.shape[1],
        alpha=alpha,
        beta=np.asarray(beta, dtype=float),
        theta=np.asarray(theta, dtype=float),
        threshold=0.5,
        item_ids=tuple(f"i{j}" for j in range(alpha.shape[0])),
        model_ids=tuple(f"m{k}" for k in range(len(theta))),
    )


def test_m2pl_extreme_difficulty_rarely_solved():
    # beta = 10 surrogate for infinitely hard: correct-rate < 1% over 1000 draws
    truth = _truth(np.ones((1, 2)), [10.0], np.zeros((1000, 2)))
    resp = sample_m2pl_responses(truth, seed=0)
    assert resp.values.mean() < 0.01


def test_m2pl_neutral_item_is_fair_coin():
    truth = _truth(np.zeros((1, 2)), [0.0], np.zeros((1000, 2)))
    resp = sample_m2pl_responses(truth, seed=3)
    sigma = 0.5 / np.sqrt(1000)
    assert abs(resp.values.mean() - 0.5) <= 3 * sigma


def test_benchmark_generation_speed():
    cfg = SynthConfig(models=24, tasks=20, items_per_task=50, seed=0)
    start = time.time()
    gen_benchmark(cfg)
    assert time.time() - start < 1.0


def test_written_files_round_trip(tmp_path):
    cfg = SynthConfig(models=4, tasks=3, items_per_task=5, seed=12)
    m = gen_benchmark(cfg)
    paths = write_benchmark_files(m, tmp_path, cfg, embedding_dim=6)
    again = load_pool(paths["items"], paths["scores"], paths["norm_config"])
    assert again.model_ids == m.model_ids
    assert tuple(it.item_id for it in again.items) == tuple(it.item_id for it in m.items)
    assert np.array_equal(again.values, m.values)
    assert paths["semantic"].exists() and paths["acoustic"].exists()


def test_ratings_file_round_trip(tmp_path):
    cfg = SynthConfig(models=9, tasks=2, items_per_task=5, seed=12)
    m = gen_benchmark(cfg)
    path = write_ratings_file(m, tmp_path / "r.csv", 7, ["overall", "quality"],
                              noise=0.05, seed=3)
    table = load_ratings(path)
    assert len(table.model_ids) == 7
    assert table.dimensions == ("overall", "quality")
    assert table.ratings_unit.min() >= 0.0 and table.ratings_unit.max() <= 1.0


def test_config_validation():
    with pytest.raises(ValidationError):
        SynthConfig(models=0, tasks=1, items_per_task=1)
    with pytest.raises(ValidationError):
        SynthConfig(models=1, tasks=1, items_per_task=1, noise=-0.5)
