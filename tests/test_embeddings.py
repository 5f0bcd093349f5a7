from __future__ import annotations

import numpy as np
import pytest

from coreselect.embeddings import (
    EmbeddingSet,
    assemble_combined,
    load_embedding_csv,
    minmax_scale,
    pca_reduce,
    performance_embeddings,
)
from coreselect.errors import ValidationError

from conftest import random_matrix


def test_pca_rank_one_data_keeps_all_variance(rng):
    t = rng.standard_normal(40)
    points = np.stack([2.0 * t + 1.0, -3.0 * t + 0.5], axis=1)  # points on a line
    proj = pca_reduce(points, 1)
    total_var = points.var(axis=0, ddof=1).sum()
    assert proj[:, 0].var(ddof=1) / total_var == pytest.approx(1.0, abs=1e-12)


def test_pca_full_k_preserves_total_variance(rng):
    x = rng.standard_normal((30, 4))
    proj = pca_reduce(x, 4)
    assert proj.var(axis=0, ddof=1).sum() == pytest.approx(
        x.var(axis=0, ddof=1).sum(), abs=1e-9
    )


def test_pca_projection_variance_matches_independent_eigvals(rng):
    # oracle: singular values of the centered data via an SVD, squared
    x = rng.standard_normal((20, 5))
    proj = pca_reduce(x, 2)
    centered = x - x.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    top2 = (svals**2 / (x.shape[0] - 1))[:2]
    per_col = proj.var(axis=0, ddof=1)
    assert per_col == pytest.approx(top2, abs=1e-10)


def test_pca_surplus_columns_beyond_rank_are_zero(rng):
    base = rng.standard_normal((12, 1))
    x = np.hstack([base, 2 * base, -base, base + 1])  # rank 1 in 4 dims
    proj = pca_reduce(x, 3)
    assert np.all(proj[:, 1:] == 0.0)


def test_pca_columns_uncorrelated(rng):
    x = rng.standard_normal((50, 6)) @ rng.standard_normal((6, 6))
    proj = pca_reduce(x, 4)
    cov = np.cov(proj, rowvar=False)
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() <= 1e-8


def test_pca_nested_projection_matches_up_to_sign(rng):
    x = rng.standard_normal((40, 5))
    once = pca_reduce(x, 2)
    twice = pca_reduce(pca_reduce(x, 4), 2)
    for j in range(2):
        direct = once[:, j]
        nested = twice[:, j]
        assert min(
            np.abs(direct - nested).max(), np.abs(direct + nested).max()
        ) == pytest.approx(0.0, abs=1e-9)


def test_pca_is_deterministic(rng):
    x = rng.standard_normal((25, 4))
    assert np.array_equal(pca_reduce(x, 3), pca_reduce(x.copy(), 3))


def test_pca_input_validation(rng):
    with pytest.raises(ValidationError):
        pca_reduce(rng.standard_normal((10, 3)), 4)
    bad = rng.standard_normal((10, 3))
    bad[0, 0] = np.nan
    with pytest.raises(ValidationError):
        pca_reduce(bad, 2)


@pytest.mark.parametrize("scale", [1e200, 1.5e308])
def test_pca_overflow_names_the_input_without_a_warning(rng, scale):
    # 1e200 overflows the covariance; 1.5e308 in every cell overflows the column mean first
    x = rng.standard_normal((10, 3))
    if scale == 1e200:
        x[0, 0] = scale
    else:
        x = np.full((10, 3), scale)
        x[0] = -scale
    with np.errstate(all="raise"):
        with pytest.raises(ValidationError, match="^acoustic embedding values too large"):
            pca_reduce(x, 2, "acoustic embedding")


def test_minmax_endpoints_and_midpoint():
    out = minmax_scale(np.array([[2.0], [4.0], [6.0]]))
    assert out[:, 0] == pytest.approx([0.0, 0.5, 1.0])


def test_minmax_constant_column_maps_to_zero():
    out = minmax_scale(np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]]))
    assert np.all(out[:, 0] == 0.0)
    assert out[:, 1] == pytest.approx([0.0, 0.5, 1.0])


def test_minmax_hand_case():
    out = minmax_scale(np.array([[-1.0], [0.0], [3.0]]))
    assert out[:, 0] == pytest.approx([0.0, 0.25, 1.0])  # (x + 1) / 4


def test_minmax_bounded_and_idempotent(rng):
    x = rng.standard_normal((20, 5)) * 10.0
    once = minmax_scale(x)
    assert once.min() >= 0.0 and once.max() <= 1.0
    assert np.allclose(minmax_scale(once), once, atol=1e-12)


def test_combined_block_layout(rng):
    m = random_matrix(rng, 4, [3, 5])
    ids = tuple(it.item_id for it in m.items)
    acoustic = EmbeddingSet("acoustic", ids, rng.standard_normal((m.n_items, 10)))
    semantic = EmbeddingSet("semantic", ids, rng.standard_normal((m.n_items, 7)))
    combined = assemble_combined(acoustic, semantic, m)
    k = m.n_models
    assert combined.dim == 3 * k + 2
    # third block is the raw score column, fourth the audio-required bits
    assert np.array_equal(combined.vectors[:, 2 * k : 3 * k], m.values.T)
    meta = combined.vectors[:, 3 * k :]
    expect = np.array(
        [[float(it.needs_audio_in), float(it.needs_audio_out)] for it in m.items]
    )
    assert np.array_equal(meta, expect)
    # acoustic/semantic blocks are MinMax-scaled after PCA
    assert combined.vectors[:, : 2 * k].min() >= 0.0
    assert combined.vectors[:, : 2 * k].max() <= 1.0


def test_combined_dim_18_models_is_56(rng):
    m = random_matrix(rng, 18, [4, 4])
    ids = tuple(it.item_id for it in m.items)
    acoustic = EmbeddingSet("acoustic", ids, rng.standard_normal((m.n_items, 24)))
    semantic = EmbeddingSet("semantic", ids, rng.standard_normal((m.n_items, 30)))
    assert assemble_combined(acoustic, semantic, m).dim == 56


def test_combined_dim_4_models_is_14(rng):
    m = random_matrix(rng, 4, [2, 3])
    ids = tuple(it.item_id for it in m.items)
    acoustic = EmbeddingSet("acoustic", ids, rng.standard_normal((m.n_items, 6)))
    semantic = EmbeddingSet("semantic", ids, rng.standard_normal((m.n_items, 6)))
    assert assemble_combined(acoustic, semantic, m).dim == 14


def test_combined_missing_item_rejected(rng):
    m = random_matrix(rng, 3, [4])
    ids = tuple(it.item_id for it in m.items)
    short = EmbeddingSet("acoustic", ids[:-1], rng.standard_normal((3, 5)))
    semantic = EmbeddingSet("semantic", ids, rng.standard_normal((4, 5)))
    with pytest.raises(ValidationError, match="missing items"):
        assemble_combined(short, semantic, m)


def test_performance_embeddings_are_score_columns(rng):
    m = random_matrix(rng, 5, [3, 3])
    emb = performance_embeddings(m)
    assert emb.dim == 5
    assert np.array_equal(emb.vectors, m.values.T)


def test_load_embedding_csv_aligns_to_pool(tmp_path, rng):
    m = random_matrix(rng, 2, [3])
    path = tmp_path / "emb.csv"
    # rows written in reverse order; loader must realign to pool order
    lines = ["item_id,v0,v1"]
    vals = {}
    for it in reversed(m.items):
        row = rng.standard_normal(2)
        vals[it.item_id] = row
        lines.append(f"{it.item_id},{float(row[0])!r},{float(row[1])!r}")
    path.write_text("\n".join(lines) + "\n")
    emb = load_embedding_csv(path, m, "semantic")
    for pos, it in enumerate(m.items):
        assert emb.vectors[pos] == pytest.approx(vals[it.item_id])

    path.write_text("item_id,v0,v1\ni0000,0.1,0.2\n")
    with pytest.raises(ValidationError, match="missing embedding"):
        load_embedding_csv(path, m, "semantic")
