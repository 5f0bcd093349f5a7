from __future__ import annotations

import re

import numpy as np
import pytest

from coreselect import regression, selectors
from coreselect.cli import _canonical_json
from coreselect.embeddings import performance_embeddings
from coreselect.errors import ValidationError
from coreselect.pool import ItemRecord, ScoreMatrix
from coreselect.selectors import (
    LEARN_LAMBDA_GRID,
    SelectorConfig,
    run_selector,
    select_anchor_points,
    select_difficulty_stratified,
    select_learn,
    select_random_balanced,
    select_variance_top,
    weighted_kmeans,
)
from coreselect.weighting import balance_weights, reference_scores

from conftest import assert_near_primal, make_matrix, random_matrix


# ---------------------------------------------------------------- kmeans

def exhaustive_two_cluster_oracle(points, weights):
    """Best weighted SSQ over every nonempty 2-partition of the points."""
    n = len(points)
    best = (np.inf, None)
    for mask_bits in range(1, 2 ** (n - 1)):  # fix point 0 in cluster A
        mask = np.array([(mask_bits >> i) & 1 == 0 for i in range(n)])
        cost = 0.0
        for side in (mask, ~mask):
            if not side.any():
                cost = np.inf
                break
            w = weights[side]
            mu = (w[:, None] * points[side]).sum(axis=0) / w.sum()
            cost += float((w * ((points[side] - mu) ** 2).sum(axis=1)).sum())
        if cost < best[0]:
            best = (cost, mask)
    return best


def test_kmeans_k_equals_n_gives_singletons(rng):
    points = rng.standard_normal((8, 3))
    w = np.full(8, 1 / 8)
    res = weighted_kmeans(points, w, 8, seed=0)
    assert res.objective == pytest.approx(0.0, abs=1e-24)
    assert sorted(res.anchor_rows) == list(range(8))
    assert len(set(res.assignments)) == 8


def test_kmeans_k1_centroid_is_weighted_mean(rng):
    points = rng.standard_normal((20, 4))
    w = rng.random(20) + 0.05
    w = w / w.sum()
    res = weighted_kmeans(points, w, 1, seed=3)
    expected = (w[:, None] * points).sum(axis=0)
    assert res.centroids[0] == pytest.approx(expected, abs=1e-12)


def test_kmeans_two_blobs_match_exhaustive_oracle(rng):
    for trial in range(20):
        blob_a = rng.standard_normal((3, 2)) * 0.2 + np.array([5.0, 5.0])
        blob_b = rng.standard_normal((3, 2)) * 0.2 - np.array([5.0, 5.0])
        points = np.vstack([blob_a, blob_b])
        w = rng.random(6) + 0.2
        w = w / w.sum()
        res = weighted_kmeans(points, w, 2, seed=trial)
        oracle_cost, oracle_mask = exhaustive_two_cluster_oracle(points, w)
        assert res.objective == pytest.approx(oracle_cost, abs=1e-9)
        kmeans_mask = res.assignments == res.assignments[0]
        assert np.array_equal(kmeans_mask, oracle_mask) or np.array_equal(
            kmeans_mask, ~oracle_mask
        )
        # blob structure recovered
        assert len(set(res.assignments[:3])) == 1
        assert len(set(res.assignments[3:])) == 1


def test_kmeans_objective_trace_non_increasing(rng):
    for i in range(100):
        n = int(rng.integers(4, 60))
        dim = int(rng.integers(1, 8))
        k = int(rng.integers(1, min(n, 12) + 1))
        points = rng.standard_normal((n, dim))
        w = rng.random(n) + 0.05
        res = weighted_kmeans(points, w / w.sum(), k, seed=i)
        trace = np.asarray(res.objective_trace)
        assert (np.diff(trace) <= 1e-12 * np.maximum(1.0, trace[:-1])).all()


def test_kmeans_degenerate_identical_points():
    points = np.ones((6, 2))
    w = np.full(6, 1 / 6)
    res = weighted_kmeans(points, w, 3, seed=0)
    assert list(res.anchor_rows) == [0, 1, 2]
    assert list(res.assignments) == [0, 1, 2, 0, 0, 0]
    assert res.objective == 0.0


def test_kmeans_every_cluster_nonempty(rng):
    # duplicated points provoke empty clusters; repair must fill them
    base = rng.standard_normal((5, 2))
    points = np.vstack([base, base, base])
    w = np.full(15, 1 / 15)
    res = weighted_kmeans(points, w, 7, seed=1)
    assert len(set(res.assignments)) == 7
    for c, anchor in enumerate(res.anchor_rows):
        assert res.assignments[anchor] == c  # anchor belongs to its cluster


def test_kmeans_input_validation(rng):
    points = rng.standard_normal((4, 2))
    with pytest.raises(ValidationError):
        weighted_kmeans(points, np.full(4, 0.25), 5, seed=0)
    with pytest.raises(ValidationError):
        weighted_kmeans(points, np.array([0.5, 0.5, 0.0, 0.0]), 2, seed=0)


def _oracle_sq_dists(points, centers):
    d2 = (
        (points**2).sum(axis=1)[:, None]
        + (centers**2).sum(axis=1)[None, :]
        - 2.0 * points @ centers.T
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


def _oracle_kmeanspp_seed(points, weights, k, rng):
    n = points.shape[0]
    chosen = np.empty(k, dtype=np.intp)
    chosen[0] = rng.choice(n, p=weights / weights.sum())
    d2 = _oracle_sq_dists(points, points[chosen[0]][None, :])[:, 0]
    for j in range(1, k):
        mass = weights * d2
        total = mass.sum()
        if total <= 0.0:
            used = np.zeros(n, dtype=bool)
            used[chosen[:j]] = True
            chosen[j] = int(np.flatnonzero(~used)[0])
        else:
            chosen[j] = rng.choice(n, p=mass / total)
        new_d2 = _oracle_sq_dists(points, points[chosen[j]][None, :])[:, 0]
        np.minimum(d2, new_d2, out=d2)
    return chosen


def _oracle_objective(points, weights, centroids, assign):
    diffs = points - centroids[assign]
    return float((weights * (diffs**2).sum(axis=1)).sum())


def oracle_weighted_kmeans(points, w, k, seed, max_iter=300):
    """Reference Lloyd loop in its direct form: norms recomputed for every
    distance call and one `assign == c` mask per cluster. Returns
    (assignments, centroids, anchor rows, objective, trace, whether an empty
    cluster was repaired)."""
    n = points.shape[0]
    if k > 1 and bool((points == points[0]).all()):
        assign = np.zeros(n, dtype=np.intp)
        assign[:k] = np.arange(k)
        centroids = np.repeat(points[0][None, :], k, axis=0)
        return assign, centroids, np.arange(k, dtype=np.intp), 0.0, (0.0,), False
    rng = np.random.default_rng(seed)
    centroids = points[_oracle_kmeanspp_seed(points, w, k, rng)].copy()
    assign = np.full(n, -1, dtype=np.intp)
    trace = []
    repaired = False
    for _ in range(max_iter):
        d2 = _oracle_sq_dists(points, centroids)
        new_assign = d2.argmin(axis=1)
        counts = np.bincount(new_assign, minlength=k)
        for empty in np.flatnonzero(counts == 0):
            repaired = True
            contrib = w * d2[np.arange(n), new_assign]
            contrib[counts[new_assign] < 2] = -np.inf
            mover = int(np.argmax(contrib))
            counts[new_assign[mover]] -= 1
            new_assign[mover] = empty
            counts[empty] = 1
        converged = bool((new_assign == assign).all())
        assign = new_assign
        if converged:
            break
        for c in range(k):
            members = assign == c
            wm = w[members]
            centroids[c] = (wm[:, None] * points[members]).sum(axis=0) / wm.sum()
        trace.append(_oracle_objective(points, w, centroids, assign))
    d2 = _oracle_sq_dists(points, centroids)
    anchors = np.empty(k, dtype=np.intp)
    for c in range(k):
        members = np.flatnonzero(assign == c)
        anchors[c] = members[int(np.argmin(d2[members, c]))]
    objective = _oracle_objective(points, w, centroids, assign)
    if not trace:
        trace.append(objective)
    return assign, centroids, anchors, objective, tuple(trace), repaired


def _oracle_pools(rng, count):
    """Seeded (points, weights, k) pools: Gaussian, integer-grid with heavy
    ties, signed zeros, rounded weights, d = 1, k = 1 and k = n."""
    for i in range(count):
        n = int(rng.integers(1, 90))
        d = 1 if i % 4 == 0 else int(rng.integers(2, 14))
        kind = i % 3
        if kind == 0:
            points = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4)
        elif kind == 1:
            points = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        else:
            points = rng.integers(-1, 2, size=(n, d)) * 0.5
            points[points == 0.0] = np.where(rng.random((points == 0.0).sum()) < 0.5, 0.0, -0.0)
        w = rng.random(n) + 0.01
        if i % 2:
            w = np.round(w, 1) + 0.05
        k = 1 if i % 10 == 0 else n if i % 10 == 4 else int(rng.integers(1, n + 1))
        yield points, w / w.sum() if i % 7 else w, k


def _assert_kmeans_matches_oracle(points, w, k, seed, prepared=None):
    res = weighted_kmeans(points, w, k, seed, prepared=prepared)
    assign, centroids, anchors, objective, trace, repaired = oracle_weighted_kmeans(
        points, w, k, seed
    )
    assert res.assignments.tobytes() == assign.tobytes()
    assert res.centroids.tobytes() == centroids.tobytes()
    assert res.anchor_rows.tobytes() == anchors.tobytes()
    assert res.objective == objective
    assert res.objective_trace == trace
    return repaired


def test_kmeans_bit_identical_to_mask_loop_oracle():
    rng = np.random.default_rng(91)
    repaired = 0
    for seed, (points, w, k) in enumerate(_oracle_pools(rng, 360)):
        repaired += _assert_kmeans_matches_oracle(points, w, k, seed)
    base = rng.standard_normal((5, 2))
    assert _assert_kmeans_matches_oracle(np.vstack([base, base, base]), np.full(15, 1 / 15), 7, 1)
    assert repaired  # the random pools reach the empty-cluster repair too
    big = rng.standard_normal((5000, 12)) + rng.integers(0, 4, size=(5000, 1)) * 3.0
    _assert_kmeans_matches_oracle(big, rng.random(5000) + 0.1, 50, 5)


def _count_kernel_rows(monkeypatch, k):
    """Rows of every k-centre distance call that weighted_kmeans makes from now on."""
    rows = []
    kernel = selectors._pairwise_sq_dists

    def counting(points, norms, centers, out, gram):
        if centers.shape[0] == k:
            rows.append(points.shape[0])
        kernel(points, norms, centers, out, gram)

    monkeypatch.setattr(selectors, "_pairwise_sq_dists", counting)
    return rows


def _full_kernel_fallbacks(rows, res):
    """Lloyd steps whose bounded attempt was overruled by the full kernel: one
    call per step, plus one for each such step and one for the anchor pass."""
    return len(rows) - (len(res.objective_trace) + 1) - 1


def _blob_pool(rng, n, d, blobs):
    centers = rng.standard_normal((blobs, d)) * 4.0
    return centers[rng.integers(0, blobs, n)] + rng.standard_normal((n, d)), rng.random(n) + 0.05


@pytest.mark.parametrize("d", [1, 12, 64])
@pytest.mark.parametrize("k", [2, 50])
def test_kmeans_bounded_path_bit_identical_on_large_pools(monkeypatch, d, k):
    n = 5000
    # k = 2 sits below the module's n·k constant; lower it so the bounds run here too
    bound = min(selectors.KMEANS_BOUNDS_MIN_NK, n * k)
    monkeypatch.setattr(selectors, "KMEANS_BOUNDS_MIN_NK", bound)
    points, w = _blob_pool(np.random.default_rng([d, k]), n, d, 8)
    _assert_kmeans_matches_oracle(points, w, k, d + k)


def test_kmeans_bounds_skip_most_rows_at_module_constant(monkeypatch):
    n, k = 5000, 50
    assert n * k >= selectors.KMEANS_BOUNDS_MIN_NK
    rows = _count_kernel_rows(monkeypatch, k)
    points, w = _blob_pool(np.random.default_rng(12), n, 12, k)
    res = weighted_kmeans(points, w, k, seed=1)
    iterations = len(res.objective_trace) + 1
    assert iterations > 5
    assert sum(rows) < 0.75 * n * iterations


def test_kmeans_bounds_near_tie_falls_back_to_full_kernel(monkeypatch):
    monkeypatch.setattr(selectors, "KMEANS_BOUNDS_MIN_NK", 0)
    # a 5 x 5 integer grid: some points are exactly equidistant from two centroids
    points = np.random.default_rng(149).integers(0, 5, size=(400, 2)).astype(np.float64)
    w = np.ones(400)
    _assert_kmeans_matches_oracle(points, w, 7, 149)
    rows = _count_kernel_rows(monkeypatch, 7)
    assert _full_kernel_fallbacks(rows, weighted_kmeans(points, w, 7, 149)) >= 1


def test_kmeans_bounds_cluster_emptied_after_first_step(monkeypatch):
    monkeypatch.setattr(selectors, "KMEANS_BOUNDS_MIN_NK", 0)
    # cluster B's seed and its two heavy members each end up nearer another
    # centroid after one means step; a far group keeps most rows skipped
    cross = np.array([[-2.5, 0], [-1.8, 0], [-1, 0], [0, 0.9], [1, 0], [1.8, 0], [2.5, 0],
                      [0, 2.5], [0, 1.75]])
    far = 50.0 + np.arange(24)[:, None] * np.array([[0.1, -0.1]]) / 24
    points = np.vstack([cross, far])
    w = np.concatenate([np.where(np.isin(np.arange(9), [0, 3, 6, 7]), 0.2, 1.0), np.ones(24)])
    k, seed = 5, 2448
    _, centroids, *_ = oracle_weighted_kmeans(points, w, k, seed, max_iter=1)
    second_step = _oracle_sq_dists(points, centroids).argmin(axis=1)
    assert np.bincount(second_step, minlength=k).min() == 0
    _assert_kmeans_matches_oracle(points, w, k, seed)


def test_kmeans_bounds_clamp_lower_bound_driven_below_zero(monkeypatch):
    monkeypatch.setattr(selectors, "KMEANS_BOUNDS_MIN_NK", 0)
    rng = np.random.default_rng([0, 3])
    centers = rng.standard_normal((8, 2)) * 10
    points = centers[rng.integers(0, 8, 200)] + rng.standard_normal((200, 2))
    w = rng.random(200) + 0.01
    k, seed = 9, 3
    # after the first means step some point's nearest other seed is closer
    # than the largest drift among the other centres
    seeds = points[_oracle_kmeanspp_seed(points, w, k, np.random.default_rng(seed))]
    assign, centroids, *_ = oracle_weighted_kmeans(points, w, k, seed, max_iter=1)
    d2 = _oracle_sq_dists(points, seeds)
    d2[np.arange(200), assign] = np.inf
    drift = np.sqrt(((centroids - seeds) ** 2).sum(axis=1))
    other = np.array([np.delete(drift, a).max() for a in assign])
    assert (np.sqrt(d2.min(axis=1)) - other < 0).any()
    _assert_kmeans_matches_oracle(points, w, k, seed)


def test_kmeans_bounds_bit_identical_on_oracle_pools(monkeypatch):
    monkeypatch.setattr(selectors, "KMEANS_BOUNDS_MIN_NK", 0)
    rng = np.random.default_rng(91)
    for seed, (points, w, k) in enumerate(_oracle_pools(rng, 360)):
        _assert_kmeans_matches_oracle(points, w, k, seed)


def _non_finite_case(case):
    rng = np.random.default_rng(17)
    points, w = rng.standard_normal((40, 3)), rng.random(40) + 0.1
    if case in ("nan_point", "inf_point"):
        points[3, 1] = np.nan if case == "nan_point" else -np.inf
    elif case == "scaled_1e200":
        points *= 1e200  # finite, but every squared norm overflows
    elif case in ("nan_weight", "inf_weight"):
        w[2] = np.nan if case == "nan_weight" else np.inf
    elif case == "weight_sum_overflow":
        w = np.full(40, 1e307)  # the first draw's total is inf
    elif case == "seeding_mass_overflow":
        # ‖p‖² = 1e308 is finite, but ‖p‖² + ‖c‖² is not
        points = np.zeros((40, 3))
        points[::2, 0], points[1::2, 0] = 1e154, -1e154
    else:  # one huge point: seeding never measures it against itself, the anchor pass does
        points[7] = [1.1e154, 0.0, 0.0]
        w = np.full(40, 1 / 40)
    return points, w


@pytest.mark.parametrize("case, k, message", [
    ("nan_point", 5, "points must be finite"),
    ("inf_point", 5, "points must be finite"),
    ("scaled_1e200", 5, "points must be finite"),
    ("scaled_1e200", 1, "points must be finite"),
    ("nan_weight", 5, "weights must be finite"),
    ("inf_weight", 5, "weights must be finite"),
    ("weight_sum_overflow", 1, "seeding mass is not finite"),
    ("seeding_mass_overflow", 5, "seeding mass is not finite"),
    ("huge_point", 2, "non-finite distance to a centroid"),
])
def test_kmeans_rejects_non_finite_input(case, k, message):
    points, w = _non_finite_case(case)
    # the input checks come before any arithmetic that could warn; the later
    # checks see overflow that numpy warns of on the way
    quiet = message.startswith(("points", "weights"))
    with np.errstate(over="raise" if quiet else "ignore", invalid="raise" if quiet else "ignore"):
        with pytest.raises(ValidationError, match=message):
            weighted_kmeans(points, w, k, seed=0)


def _assert_seeds_match_oracle(points, w, k, seed):
    norms = (points**2).sum(axis=1)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = selectors._kmeanspp_seed(points, norms, w, k, got_rng)
    want = _oracle_kmeanspp_seed(points, w, k, want_rng)
    assert got.tobytes() == want.tobytes()
    assert got_rng.random() == want_rng.random()  # the same draws from the stream
    return got


@pytest.mark.parametrize("d, k", [(12, 40), (12, 350), (56, 60), (56, 350)])
def test_kmeanspp_seed_matches_choice_oracle_at_paper_shape(d, k):
    # 16,680 items; d = 12 source models, or combined_anchor's 3 * 18 + 2 columns
    rng = np.random.default_rng([d, k])
    points = rng.random((16_680, d))
    w = rng.random(16_680) + 0.01
    _assert_seeds_match_oracle(points, w / w.sum(), k, d * k)


def test_kmeans_non_contiguous_points_match_oracle(monkeypatch):
    rng = np.random.default_rng(23)
    base, w = _blob_pool(rng, 600, 24, 6)
    strided, strided_w = base[:, ::2], np.repeat(w, 2)[::2]
    assert not strided.flags.c_contiguous and not strided_w.flags.c_contiguous
    _assert_seeds_match_oracle(strided, strided_w, 40, 4)
    for bound in (selectors.KMEANS_BOUNDS_MIN_NK, 0):
        monkeypatch.setattr(selectors, "KMEANS_BOUNDS_MIN_NK", bound)
        _assert_kmeans_matches_oracle(strided, strided_w, 20, 4)
        # any other layout clusters as its C-contiguous copy
        res = weighted_kmeans(np.asfortranarray(strided), w, 20, 4)
        want = weighted_kmeans(np.ascontiguousarray(strided), w, 20, 4)
        assert res.assignments.tobytes() == want.assignments.tobytes()
        assert res.centroids.tobytes() == want.centroids.tobytes()
        assert res.anchor_rows.tobytes() == want.anchor_rows.tobytes()
        assert res.objective_trace == want.objective_trace


@pytest.mark.parametrize("seed", range(3))
def test_kmeans_fortran_duplicates_seed_as_c_contiguous(seed):
    # A Fortran-order row sum adds in another order than a C-order one, and
    # once every distinct row is a seed, the draws run on the few-ulp
    # distances left at the duplicates, so only norms taken from the C-order
    # copy give the same seeds as the C-order pool.
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((40, 12))[rng.permutation(np.arange(120) % 40)]
    w = rng.random(120) + 0.05
    res = weighted_kmeans(np.asfortranarray(points), w, 120, seed)
    want = weighted_kmeans(points, w, 120, seed)
    assert res.anchor_rows.tobytes() == want.anchor_rows.tobytes()
    assert res.centroids.tobytes() == want.centroids.tobytes()


@pytest.mark.parametrize("n, k", [(2000, 50), (120, 120)])
def test_kmeans_duplicate_points_take_first_unused_seed(n, k):
    rng = np.random.default_rng([n, k])
    # half-integers keep every distance exact, so a duplicate of a seed has
    # mass exactly 0 (rounded products can leave it a few ulps above)
    distinct = rng.integers(-6, 7, size=(40, 12)) * 0.5
    points = distinct[rng.permutation(np.arange(n) % 40)]
    w = rng.random(n) + 0.05
    seeds = _assert_seeds_match_oracle(points, w, k, 9)
    # after the 40 distinct points the mass is zero: the first unused rows follow
    assert len(np.unique(points[seeds[:40]], axis=0)) == 40
    unused = np.setdiff1d(np.arange(n), seeds[:40])
    assert seeds[40:].tolist() == unused[:k - 40].tolist()
    _assert_kmeans_matches_oracle(points, w, k, 9)


def _tied_anchor_clusters(points, w, k, seed):
    """Clusters of the oracle's result with two or more members at their
    cluster's least kernel distance."""
    assign, centroids, *_ = oracle_weighted_kmeans(points, w, k, seed)
    own = _oracle_sq_dists(points, centroids)[np.arange(len(points)), assign]
    return sum((own[assign == c] == own[assign == c].min()).sum() > 1 for c in range(k))


@pytest.mark.parametrize("n, k", [(6000, 33), (6000, 34), (400, 400)])
def test_kmeans_anchor_ties_match_oracle(n, k):
    # 6000 * 33 sits just below KMEANS_BOUNDS_MIN_NK and 6000 * 34 above it
    rng = np.random.default_rng([n, k])
    points = rng.integers(0, 9, size=(n, 2)).astype(np.float64)
    w = np.ones(n)
    if k < n:
        assert _tied_anchor_clusters(points, w, k, 5) > 0
    _assert_kmeans_matches_oracle(points, w, k, 5)


@pytest.mark.parametrize("k", [39, 40])
def test_kmeans_matches_oracle_on_both_sides_of_bounds_constant(k):
    n = 5000  # n * k = 195,000 and 200,000
    assert (n * k >= selectors.KMEANS_BOUNDS_MIN_NK) == (k == 40)
    points, w = _blob_pool(np.random.default_rng([n, k]), n, 12, 30)
    _assert_kmeans_matches_oracle(points, w, k, k)


# ------------------------------------------- one seed order for every size

def _shared_order_pools():
    """(points, weights) pools: Gaussian blobs; 60 rows with 15 distinct
    half-integer points, whose seeding mass is exactly zero after 15 seeds;
    and a single point."""
    rng = np.random.default_rng(301)
    yield _blob_pool(rng, 300, 5, 6)
    distinct = rng.integers(-6, 7, size=(15, 4)) * 0.5
    yield distinct[rng.permutation(np.arange(60) % 15)], rng.random(60) + 0.05
    yield rng.standard_normal((1, 3)), np.ones(1)


def _sizes(n):
    return sorted({1, 2, 7, 16, n // 2, n} & set(range(1, n + 1)))


@pytest.mark.parametrize("pool", range(3))
def test_shared_seed_order_prefix_equals_seeding_alone(pool):
    points, w = list(_shared_order_pools())[pool]
    sizes = _sizes(len(points))
    # drawn once for the largest size, asked largest first; and grown from 1
    largest = selectors._KMeansInput(points, w, 17, sizes[-1])
    grown = selectors._KMeansInput(points, w, 17, 1)
    for k in sizes[::-1]:
        alone = _assert_seeds_match_oracle(points, w, k, 17)
        assert largest.seeds(k).tobytes() == alone.tobytes()
    for k in sizes:
        assert grown.seeds(k).tobytes() == _assert_seeds_match_oracle(points, w, k, 17).tobytes()
    if pool == 1:  # the zero-mass branch: the first unused rows follow the 15 distinct seeds
        order = largest.seeds(60)
        assert len(np.unique(points[order[:15]], axis=0)) == 15
        assert order[15:].tolist() == np.setdiff1d(np.arange(60), order[:15]).tolist()


@pytest.mark.parametrize("bound", [None, 0])
def test_kmeans_from_shared_order_matches_oracle_at_every_size(monkeypatch, bound):
    if bound is not None:
        monkeypatch.setattr(selectors, "KMEANS_BOUNDS_MIN_NK", bound)
    for points, w in _shared_order_pools():
        sizes = _sizes(len(points))
        shared = selectors._KMeansInput(points, w, 5, sizes[-1])
        for k in sizes:
            _assert_kmeans_matches_oracle(points, w, k, 5, prepared=shared)


def test_shared_seed_order_fails_only_the_sizes_that_fail_alone():
    points, w = _non_finite_case("seeding_mass_overflow")  # the second draw's mass is NaN
    shared = selectors._KMeansInput(points, w, 0, 9)
    with np.errstate(over="ignore", invalid="ignore"):
        res, want = weighted_kmeans(points, w, 1, 0, prepared=shared), weighted_kmeans(points, w, 1, 0)
        for k in (2, 5, 9, 12):
            with pytest.raises(ValidationError, match="seeding mass is not finite"):
                weighted_kmeans(points, w, k, 0, prepared=shared)
    assert res.anchor_rows.tobytes() == want.anchor_rows.tobytes()
    assert res.centroids.tobytes() == want.centroids.tobytes()


def test_anchor_select_checks_pool_size_before_seeding(monkeypatch, rng):
    def no_seeding(*args):
        raise AssertionError("seeded")

    monkeypatch.setattr(selectors, "_kmeanspp_seed", no_seeding)
    m = random_matrix(rng, 3, [5, 5])
    with pytest.raises(ValidationError, match="n=11 exceeds pool size 10"):
        run_selector(m, SelectorConfig("anchor_points", n=11, seed=0))


def test_anchor_tables_and_seeds_built_once_per_fold(monkeypatch, rng):
    from coreselect.evaluation import crossval_curves

    calls = []
    for name in ("balance_weights", "_kmeanspp_seed"):
        def counted(*args, _name=name, _fn=getattr(selectors, name)):
            calls.append((_name, args[3] if _name == "_kmeanspp_seed" else None))
            return _fn(*args)
        monkeypatch.setattr(selectors, name, counted)
    m = random_matrix(rng, 6, [10, 14])
    run_selector(m, SelectorConfig("anchor_points", n=9, seed=0))
    assert calls == [("balance_weights", None), ("_kmeanspp_seed", 9)]
    calls.clear()
    crossval_curves(m, [SelectorConfig("anchor_points", n=2, seed=0)], sizes=(6, 2, 11),
                    folds=2, repeats=1)
    assert calls == [("balance_weights", None), ("_kmeanspp_seed", 11)] * 2


def _oracle_weighted_means(points, w, assign, k):
    """The per-cluster loop: one stable sort by cluster, then each cluster's
    (w·p).sum(axis=0) / w.sum() over its slice."""
    order = np.argsort(assign, kind="stable")
    wps, ws = (w[:, None] * points)[order], w[order]
    counts = np.bincount(assign, minlength=k)
    stops = np.cumsum(counts)
    out = np.empty((k, points.shape[1]))
    for c in range(k):
        a, b = stops[c] - counts[c], stops[c]
        out[c] = wps[a:b].sum(axis=0) / ws[a:b].sum()
    return out


def _assert_weighted_means_match_oracle(points, w, assign, k):
    out = np.empty((k, points.shape[1]))
    wcols = np.multiply(w, points.T, out=np.empty(points.shape[::-1]))
    selectors._weighted_means(wcols, w, assign, np.bincount(assign, minlength=k), out)
    assert out.tobytes() == _oracle_weighted_means(points, w, assign, k).tobytes()


@pytest.mark.parametrize("d", [1, 2, 5, 12, 38, 50, 64, 256])
def test_weighted_means_match_per_cluster_loop(d):
    # clusters of 1 to 9 rows sit on both sides of the 8-term pairwise threshold
    rng = np.random.default_rng(d)
    sizes = np.array([1, 2, 3, 4, 5, 6, 7, 8, 9, 128, 129, 3000, 8000])
    assign = rng.permutation(np.repeat(np.arange(sizes.size), sizes))
    n = assign.size
    points = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-4, 5, size=(n, 1))
    points[rng.random((n, d)) < 0.3] = -0.0
    points[(assign == 4) | (assign == 10)] = -0.0  # every sum of these clusters adds -0.0 terms
    w = rng.random(n) + 0.01
    _assert_weighted_means_match_oracle(points, w, assign, sizes.size)
    _assert_weighted_means_match_oracle(points, np.round(w, 1) + 0.05, assign, sizes.size)


@pytest.mark.parametrize("d", [1, 3])
def test_weighted_means_match_per_cluster_loop_past_int16_keys(d):
    rng = np.random.default_rng([d, 33])
    k = 33_000
    # every cluster non-empty, and a few large ones on both sides of 32,767
    large = rng.choice([0, 5, 16_000, 32_767, 32_768, 32_999], size=6000)
    assign = rng.permutation(np.concatenate([np.arange(k), large]))
    points = rng.standard_normal((assign.size, d))
    _assert_weighted_means_match_oracle(points, rng.random(assign.size) + 0.01, assign, k)


# ------------------------------------------------- random balanced draws

def test_random_balanced_expected_task_counts(rng):
    sizes = [100, 200, 300, 400]
    m = random_matrix(rng, 3, sizes)
    task_of = np.array([int(it.task_id[4:]) for it in m.items])
    n, reps = 8, 2000
    counts = np.zeros((reps, 4))
    for rep in range(reps):
        sub = select_random_balanced(m, n, seed=rep)
        for item_id in sub.item_ids:
            counts[rep, task_of[m.item_position(item_id)]] += 1
    mean = counts.mean(axis=0)
    sem = counts.std(axis=0, ddof=1) / np.sqrt(reps)
    # each task expects n/T = 2 draws
    assert np.all(np.abs(mean - n / 4) <= 3 * sem)


def test_random_balanced_exhaustion_and_determinism(rng):
    m = random_matrix(rng, 2, [3, 4])
    full = select_random_balanced(m, 7, seed=99)
    assert sorted(full.item_ids) == sorted(it.item_id for it in m.items)
    a = select_random_balanced(m, 4, seed=5)
    b = select_random_balanced(m, 4, seed=5)
    assert a == b and _canonical_json(a.to_json_dict()) == _canonical_json(b.to_json_dict())
    assert a.weights == pytest.approx([0.25] * 4)
    with pytest.raises(ValidationError):
        select_random_balanced(m, 8, seed=0)


def choice_oracle(p, n, seed, index):
    """Balanced draw `index` as Generator.choice takes it."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0, index]))
    return rng.choice(p.size, size=n, replace=False, p=p, shuffle=False)


def assert_draws_match_choice(p, n, seed, indices):
    from coreselect.selectors import _BalancedDraws

    draw = _BalancedDraws(p, n)
    for index in indices:
        assert np.array_equal(draw(seed, index), choice_oracle(p, n, seed, index))


def first_pass_repeats(p, n, seed, index):
    """Whether choice's first pass of n uniforms hits some row twice."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    u = np.random.default_rng(np.random.SeedSequence([seed, 0, index])).random(n)
    return np.unique(cdf.searchsorted(u, side="right")).size < n


def test_balanced_draws_match_choice_at_paper_shape():
    # 16,680 items in 40 tasks of unequal size, p = 1 / (T * |task|)
    sizes = 417 + np.resize([150, -150, 40, -40], 40)
    b = np.repeat(1.0 / (40 * sizes), sizes)
    assert_draws_match_choice(b / b.sum(), 50, 3, range(300))


def test_balanced_draws_match_choice_when_rows_repeat():
    # five rows hold 95% of the mass, so most first passes repeat a row and
    # the draw goes on with those rows zeroed, in one or more passes
    b = np.concatenate([np.full(5, 19.0), np.full(995, 5.0 / 995)])
    p = b / b.sum()
    assert sum(first_pass_repeats(p, 8, 1, i) for i in range(200)) > 150
    assert_draws_match_choice(p, 8, 1, range(200))
    # n = N takes every row; rows of zero mass are never drawn
    q = np.random.default_rng(2).random(40)
    assert_draws_match_choice(q / q.sum(), 40, 4, range(50))
    q[::3] = 0.0
    assert_draws_match_choice(q / q.sum(), 26, 4, range(50))


def test_balanced_draws_break_exact_cdf_ties_as_choice_does():
    from coreselect.selectors import _BalancedDraws

    for index in range(20):
        u = np.random.default_rng(np.random.SeedSequence([6, 0, index])).random()
        # cdf[0] == u: side="right" takes row 1
        assert_draws_match_choice(np.array([u, 1.0 - u]), 1, 6, [index])
        assert _BalancedDraws(np.array([u, 1.0 - u]), 1)(6, index).tolist() == [1]
        # p sums to 1 - 1e-9, inside choice's tolerance; only the normalized
        # cdf puts u below cdf[0] and takes row 0
        a = u * (1.0 - 5e-10)
        assert_draws_match_choice(np.array([a, 1.0 - 1e-9 - a]), 1, 6, [index])
        assert _BalancedDraws(np.array([a, 1.0 - 1e-9 - a]), 1)(6, index).tolist() == [0]
    for index in range(40):
        u1, u2, u3 = np.random.default_rng(np.random.SeedSequence([6, 0, index])).random(3)
        if max(u1, u2) >= 0.9:
            continue
        # both first uniforms take row 0; with row 0 zeroed, the cdf is
        # exactly (0, u3, 1), and side="right" takes row 2 for the third
        p = np.array([1.0 - 1.0 / 16, u3 / 16, (1.0 - u3) / 16])
        assert_draws_match_choice(p, 2, 6, [index])
        assert _BalancedDraws(p, 2)(6, index).tolist() == [0, 2]


@pytest.mark.parametrize("p, n", [
    (np.full((2, 2), 0.25), 1),  # not 1-D
    (np.array([0.5, np.nan, 0.25, 0.25]), 1),
    (np.array([np.inf, 0.25, 0.25, 0.25]), 1),
    (np.array([0.75, -0.25, 0.25, 0.25]), 1),
    (np.array([0.5, 0.25, 0.25, 0.25]), 1),  # sums to 1.25
    (np.full(4, 0.25), 5),
    (np.array([0.5, 0.5, 0.0, 0.0]), 3),
])
def test_balanced_draws_check_p_as_choice_does(p, n):
    from coreselect.selectors import _BalancedDraws

    with pytest.raises(ValueError) as expected:
        choice_oracle(p, n, 0, 0)
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        _BalancedDraws(p, n)


# ----------------------------------------------------------- variance top

def test_variance_uses_sample_denominator():
    m = make_matrix(np.array([[0.0, 0.2], [0.5, 0.2], [1.0, 0.2]]), [2])
    sub = select_variance_top(m, 1)
    assert sub.item_ids == ("i0000",)
    var = m.values.var(axis=0, ddof=1)
    assert var[0] == pytest.approx(0.25)  # (0, .5, 1) with K-1 denominator


def test_variance_constant_item_selected_last():
    values = np.array([[0.1, 0.4, 0.8], [0.9, 0.4, 0.2]])
    m = make_matrix(values, [3])
    order = select_variance_top(m, 3).item_ids
    assert order[-1] == "i0001"  # the constant column


def test_variance_tie_broken_by_item_id():
    values = np.array([[0.2, 0.2], [0.8, 0.8]])
    m = make_matrix(values, [2])
    assert select_variance_top(m, 1).item_ids == ("i0000",)


def test_variance_invariant_to_model_order(rng):
    m = random_matrix(rng, 5, [4, 4])
    perm = rng.permutation(5)
    shuffled = type(m)(
        tuple(m.model_ids[i] for i in perm), m.items, m.values[perm]
    )
    assert select_variance_top(m, 5).item_ids == select_variance_top(shuffled, 5).item_ids


def test_tie_breaks_match_tuple_sort_reference(rng):
    # heavy ties (constant columns give var -0.0 after negation), item ids not
    # in pool order; the reference sorts (key, item_id) tuples
    for _ in range(50):
        n = int(rng.integers(2, 30))
        ids = [f"i{j:04d}" for j in rng.permutation(n)]
        items = tuple(ItemRecord(i, f"t{p % 3}", "native", False, False)
                      for p, i in enumerate(ids))
        m = ScoreMatrix(("a", "b", "c"), items, rng.choice([0.0, 0.5, 1.0], size=(3, n)))
        assert list(m.id_order) == sorted(range(n), key=lambda i: ids[i])
        var = m.values.var(axis=0, ddof=1)
        by_var = sorted(range(n), key=lambda i: (-var[i], ids[i]))
        assert select_variance_top(m, n).item_ids == tuple(ids[i] for i in by_var)
        difficulty = 1.0 - m.values.mean(axis=0)
        by_difficulty = sorted(range(n), key=lambda i: (difficulty[i], ids[i]))
        # one bin per item: the draw takes the items in difficulty order
        sub = select_difficulty_stratified(m, n, n, seed=0)
        assert sub.item_ids == tuple(ids[i] for i in by_difficulty)
    flat = ScoreMatrix(("a", "b"), items, np.full((2, n), 0.5))
    sub, _ = select_anchor_points(performance_embeddings(flat), flat, 2, seed=0)
    assert sub.item_ids == tuple(sorted(ids)[:2])


# ------------------------------------------------- difficulty stratified

def difficulty_rank_bins(matrix, bins):
    difficulty = 1.0 - matrix.values.mean(axis=0)
    order = sorted(range(matrix.n_items), key=lambda i: (difficulty[i], matrix.items[i].item_id))
    return np.array_split(np.asarray(order), bins)


def test_stratified_two_phase_counts(rng):
    m = random_matrix(rng, 4, [250, 250, 250, 250])
    groups = difficulty_rank_bins(m, 10)
    bin_of = {}
    for b, grp in enumerate(groups):
        for i in grp:
            bin_of[m.items[i].item_id] = b
    # n=30: exactly 3 per bin, recounted from the same binning rule
    for seed in range(20):
        sub = select_difficulty_stratified(m, 30, 10, seed=seed)
        assert len(set(sub.item_ids)) == 30
        counts = np.zeros(10, dtype=int)
        for item_id in sub.item_ids:
            counts[bin_of[item_id]] += 1
        assert list(counts) == [3] * 10
    # n=25: 2 per bin plus 5 remainder items
    sub = select_difficulty_stratified(m, 25, 10, seed=3)
    counts = np.zeros(10, dtype=int)
    for item_id in sub.item_ids:
        counts[bin_of[item_id]] += 1
    assert counts.sum() == 25
    assert (counts >= 2).all()
    assert (counts - 2).sum() == 5


def test_stratified_every_bin_meets_its_quota(rng):
    # random pools, heavy ties on odd trials; bins = 1, bins > N, or random in between
    for trial in range(150):
        n_items = int(rng.integers(1, 40))
        cuts = np.sort(rng.choice(np.arange(1, n_items), size=min(2, n_items - 1), replace=False))
        m = make_matrix(
            rng.integers(0, 3, (3, n_items)) / 2 if trial % 2 else rng.random((3, n_items)),
            np.diff(np.concatenate([[0], cuts, [n_items]])),
        )
        n = int(rng.integers(1, n_items + 1))
        bins = (1, n_items + int(rng.integers(1, 6)), int(rng.integers(1, n_items + 1)))[trial % 3]
        sub = select_difficulty_stratified(m, n, bins, seed=trial)
        assert len(set(sub.item_ids)) == n
        chosen = {m.item_position(i) for i in sub.item_ids}
        for grp in difficulty_rank_bins(m, bins):
            assert len(chosen.intersection(grp.tolist())) >= n // bins


def test_stratified_hardest_item_lands_in_top_bin():
    values = np.vstack([np.linspace(0.1, 0.9, 20), np.linspace(0.2, 1.0, 20)])
    values[:, 7] = 0.0  # every model fails item 7 -> difficulty 1
    m = make_matrix(values, [20])
    groups = difficulty_rank_bins(m, 5)
    assert m.item_position("i0007") in groups[-1]


def test_stratified_quota_spills_to_neighbour_bins(rng):
    # 6 items, 3 bins of 2: quota 2 per bin is fine, but n=6 forces exhaustion
    m = random_matrix(rng, 3, [6])
    sub = select_difficulty_stratified(m, 6, 3, seed=0)
    assert sorted(sub.item_ids) == sorted(it.item_id for it in m.items)
    # more bins than items: the quota is 0, so phase 2 alone draws all five
    sub = select_difficulty_stratified(m, 5, 10, seed=1)
    assert len(set(sub.item_ids)) == 5


def test_stratified_deterministic(rng):
    m = random_matrix(rng, 3, [40])
    a = select_difficulty_stratified(m, 12, 10, seed=8)
    b = select_difficulty_stratified(m, 12, 10, seed=8)
    assert _canonical_json(a.to_json_dict()) == _canonical_json(b.to_json_dict())


# ----------------------------------------------------------- anchor points

def test_anchor_full_pool_weights_equal_balance(rng):
    m = random_matrix(rng, 3, [3, 5])
    sub, _ = select_anchor_points(performance_embeddings(m), m, m.n_items, seed=0)
    got = dict(sub.entries)
    for item_id, weight in zip(m.item_ids, balance_weights(m)):
        assert got[item_id] == pytest.approx(weight, abs=1e-12)


def test_anchor_two_blob_pool(rng):
    # two well-separated score profiles -> one anchor per profile at n=2
    easy = 0.9 + 0.02 * rng.standard_normal((4, 10))
    hard = 0.1 + 0.02 * rng.standard_normal((4, 10))
    values = np.clip(np.hstack([easy, hard]), 0, 1)
    m = make_matrix(values, [20])
    sub, res = select_anchor_points(performance_embeddings(m), m, 2, seed=4)
    sides = {int(m.item_position(i) >= 10) for i in sub.item_ids}
    assert sides == {0, 1}
    assert sum(w for _, w in sub.entries) == pytest.approx(1.0, abs=1e-12)


def test_anchor_weights_sum_to_one_any_n(rng):
    m = random_matrix(rng, 4, [7, 9, 4])
    for n in (1, 3, 8, 20):
        sub, _ = select_anchor_points(performance_embeddings(m), m, n, seed=n)
        assert sum(w for _, w in sub.entries) == pytest.approx(1.0, abs=1e-9)
        assert len(set(sub.item_ids)) == n


# --------------------------------------------------------------- learn

def independent_ridge_oracle(x, y, lam):
    """Augmented normal equations with an explicit intercept column."""
    m, n = x.shape
    xa = np.hstack([x, np.ones((m, 1))])
    penalty = lam * np.eye(n + 1)
    penalty[n, n] = 0.0  # intercept unpenalized
    coef = np.linalg.solve(xa.T @ xa + penalty, xa.T @ y)
    return coef[:n], coef[n]


def test_learn_exact_linear_relation_recovered(rng):
    # reference scores exactly linear in one item's score column
    m = random_matrix(rng, 8, [10])
    driver = m.values[:, 0]
    ref = reference_scores(m)
    # rebuild the pool so every other column is constant: ref = mean of cols
    values = np.tile(driver[:, None], (1, 10))
    m = make_matrix(values, [10])
    sel = select_learn(m, SelectorConfig("random_sampling_learn", n=4, seed=2,
                                         lambda_grid=(0.001,)))
    ref = reference_scores(m)
    positions = [m.item_position(i) for i in sel.subset.item_ids]
    preds = sel.model.predict(m.values[:, positions])
    assert float(np.mean((preds - ref) ** 2)) <= 1e-6
    w_oracle, b_oracle = independent_ridge_oracle(m.values[:, positions], ref, 0.001)
    assert sel.model.weights == pytest.approx(w_oracle, abs=1e-8)
    assert sel.model.intercept == pytest.approx(b_oracle, abs=1e-8)


def test_learn_search_keeps_argmin_candidate(rng):
    from coreselect.selectors import _BalancedDraws

    m = random_matrix(rng, 8, [6, 6])
    sel = select_learn(m, SelectorConfig("random_search_learn", n=5, seed=7, n_search=12))
    assert len(sel.candidate_mae) == 12
    # the kept subset is the argmin candidate: re-derive that candidate's draw
    kept_rank = sel.candidate_mae.index(min(sel.candidate_mae))
    b = balance_weights(m)
    kept = _BalancedDraws(b / b.sum(), 5)(7, kept_rank)
    assert tuple(m.item_ids[i] for i in kept) == sel.subset.item_ids
    assert all(min(sel.candidate_mae) <= mae for mae in sel.candidate_mae)


def test_learn_single_candidate_reduces_to_sampling(rng):
    m = random_matrix(rng, 9, [5, 5])
    search = select_learn(m, SelectorConfig("random_search_learn", n=6, seed=11, n_search=1))
    sampling = select_learn(m, SelectorConfig("random_sampling_learn", n=6, seed=11))
    assert search.subset.item_ids == sampling.subset.item_ids
    assert search.model.lam == sampling.model.lam
    assert search.model.weights == pytest.approx(sampling.model.weights)


def two_path_learn_oracle(matrix, config):
    """select_learn in its two-path form: sampling returns draw 0 early;
    search keeps a candidate only when its MAE is strictly below the best."""
    from coreselect.regression import ridge_cv

    n, seed, grid, k = config.n, config.seed, config.lambda_grid, matrix.n_models
    ref = reference_scores(matrix)
    b = balance_weights(matrix)
    p = b / b.sum()

    def candidate(index):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0, index]))
        idx = rng.choice(matrix.n_items, size=n, replace=False, p=p, shuffle=False)
        return [matrix.item_ids[i] for i in idx]

    def features(ids):
        return matrix.values[:, [matrix.item_position(i) for i in ids]]

    def final_fit(ids):
        return ridge_cv(features(ids), ref, grid, folds=min(5, k), item_ids=ids)

    if config.method == "random_sampling_learn":
        ids = candidate(0)
        return ids, final_fit(ids), ()
    perm = np.random.default_rng(np.random.SeedSequence([seed, 1])).permutation(k)
    n_val = max(1, int(round(k * config.holdout_fraction)))
    val_rows, train_rows = perm[:n_val], perm[n_val:]
    best_ids, best_mae, maes = None, np.inf, []
    for i in range(config.n_search):
        ids = candidate(i)
        x = features(ids)
        model = ridge_cv(x[train_rows], ref[train_rows], grid, folds=min(5, len(train_rows)))
        mae = float(np.abs(model.predict(x[val_rows]) - ref[val_rows]).mean())
        maes.append(mae)
        if mae < best_mae:
            best_ids, best_mae = ids, mae
    return best_ids, final_fit(best_ids), tuple(maes)


def assert_learn_matches_oracle(m, config):
    sel = select_learn(m, config)
    ids, model, maes = two_path_learn_oracle(m, config)
    assert sel.subset.item_ids == tuple(ids)
    assert sel.model.weights.tobytes() == model.weights.tobytes()
    assert sel.model.intercept == model.intercept
    assert sel.model.lam == model.lam
    assert sel.candidate_mae == maes
    x = m.values[:, [m.item_position(i) for i in ids]]
    assert_near_primal(sel.model.weights, sel.model.intercept, x, reference_scores(m), sel.model.lam)
    return sel


def test_learn_bit_identical_to_two_path_oracle():
    for pool in range(40):
        rng = np.random.default_rng([20240817, pool])
        k = (4, 5, 7, 9, 12)[pool % 5]
        m = random_matrix(rng, k, list(rng.integers(1, 7, size=int(rng.integers(1, 4)))))
        n = (1, m.n_items, int(rng.integers(1, m.n_items + 1)))[pool % 3]
        grid = ((0.01, 0.1, 1.0), (0.5,), (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0))[pool % 3]
        for method in ("random_sampling_learn", "random_search_learn"):
            config = SelectorConfig(method, n=n, seed=pool, n_search=1 + pool % 9,
                                    lambda_grid=grid)
            assert_learn_matches_oracle(m, config)


def assert_all_tied_keeps_draw_zero(rng):
    from coreselect.selectors import _BalancedDraws

    # constant columns of exact binary fractions: every candidate predicts
    # the reference exactly, so every MAE ties and draw 0 is kept
    m = make_matrix(np.tile(rng.choice([0.25, 0.5, 0.75], size=12), (6, 1)), [4, 8])
    sel = assert_learn_matches_oracle(
        m, SelectorConfig("random_search_learn", n=3, seed=5, n_search=10)
    )
    assert len(set(sel.candidate_mae)) == 1
    b = balance_weights(m)
    draws = [tuple(_BalancedDraws(b / b.sum(), 3)(5, i)) for i in range(10)]
    assert len(set(draws)) > 1  # the candidates differ; only their MAEs tie
    assert sel.subset.item_ids == tuple(m.item_ids[i] for i in draws[0])


def test_learn_search_all_tied_keeps_draw_zero(rng):
    assert_all_tied_keeps_draw_zero(rng)


def set_search_batch(monkeypatch, m, config, batch):
    """Make select_learn score config's candidates in stacks of `batch` and
    return the list that records each stack's size."""
    n_train = m.n_models - max(1, int(round(m.n_models * config.holdout_fraction)))
    per_slice = max(config.n * n_train, len(config.lambda_grid) * n_train ** 2)
    monkeypatch.setattr(regression, "_RIDGE_STACK_ELEMENTS", batch * per_slice)
    sizes = []
    real = selectors._ridge_cv_stack

    def recording(x, *args):
        sizes.append(x.shape[0])
        return real(x, *args)

    monkeypatch.setattr(selectors, "_ridge_cv_stack", recording)
    return sizes


@pytest.mark.parametrize("batch", [1, 2, 3])
def test_learn_batches_bit_identical_to_two_path_oracle(monkeypatch, batch):
    # n_search one below, at and one above each of the first three batch ends
    for j in (1, 2, 3):
        for n_search in (batch * j - 1, batch * j, batch * j + 1):
            if n_search < 1:
                continue
            rng = np.random.default_rng([20240817, batch, n_search])
            k = int(rng.choice([4, 7, 12]))
            m = random_matrix(rng, k, [6, 5, 4])
            for grid in ((0.01, 0.1, 1.0), (0.5,), LEARN_LAMBDA_GRID):  # (0.5,) skips CV
                config = SelectorConfig("random_search_learn", n=int(rng.integers(1, 16)),
                                        seed=n_search, n_search=n_search, lambda_grid=grid)
                sizes = set_search_batch(monkeypatch, m, config, batch)
                assert_learn_matches_oracle(m, config)
                full, last = divmod(n_search, batch)
                assert sizes == [batch] * full + ([last] if last else [])
                monkeypatch.undo()


@pytest.mark.parametrize("batch", [1, 3, 4])
def test_learn_search_all_tied_across_batches_keeps_draw_zero(rng, monkeypatch, batch):
    config = SelectorConfig("random_search_learn", n=3, seed=5, n_search=10)
    m = make_matrix(np.zeros((6, 12)), [4, 8])  # the shape assert_all_tied_keeps_draw_zero uses
    sizes = set_search_batch(monkeypatch, m, config, batch)
    assert_all_tied_keeps_draw_zero(rng)
    assert sizes[0] == batch and sum(sizes) == 10


def test_learn_requires_enough_models(rng):
    m = random_matrix(rng, 3, [8])
    with pytest.raises(ValidationError):
        select_learn(m, SelectorConfig("random_search_learn", n=4, seed=0))


def test_learn_empty_grid_rejected():
    with pytest.raises(ValidationError, match="empty lambda grid"):
        SelectorConfig("random_sampling_learn", n=4, seed=0, lambda_grid=())


def test_learn_rejects_other_methods(rng):
    m = random_matrix(rng, 6, [8])
    with pytest.raises(ValidationError, match="not a learn method"):
        select_learn(m, SelectorConfig("random_balanced", n=4, seed=0))


# ----------------------------------------------------------- dispatcher

def test_every_method_returns_valid_subset(rng):
    from coreselect.embeddings import EmbeddingSet

    m = random_matrix(rng, 6, [8, 8, 8])
    ids = tuple(it.item_id for it in m.items)
    semantic = EmbeddingSet("semantic", ids, rng.standard_normal((m.n_items, 9)))
    acoustic = EmbeddingSet("acoustic", ids, rng.standard_normal((m.n_items, 9)))
    for method in (
        "random_balanced",
        "random_sampling_learn",
        "random_search_learn",
        "variance_top",
        "difficulty_stratified",
        "irt_anchor",
        "anchor_points",
        "semantic_anchor",
        "acoustic_anchor",
        "combined_anchor",
    ):
        cfg = SelectorConfig(
            method, n=6, seed=13, n_search=3, pca_dim=4, irt_dim=2, irt_epochs=60
        )
        subset, regressor, irt_model = run_selector(m, cfg, semantic, acoustic)
        assert subset.n == 6
        assert len(set(subset.item_ids)) == 6
        assert abs(sum(w for _, w in subset.entries) - 1.0) <= 1e-9
        assert (regressor is not None) == method.endswith("learn")
        assert (irt_model is not None) == (method == "irt_anchor")


def test_selector_json_determinism(rng):
    m = random_matrix(rng, 5, [10, 10])
    for method in ("random_balanced", "anchor_points", "difficulty_stratified"):
        cfg = SelectorConfig(method, n=7, seed=21)
        a = _canonical_json(run_selector(m, cfg)[0].to_json_dict())
        b = _canonical_json(run_selector(m, cfg)[0].to_json_dict())
        assert a == b


def test_unknown_method_rejected():
    with pytest.raises(ValidationError, match="valid:"):
        SelectorConfig("best_effort", n=3, seed=0)


@pytest.mark.parametrize("method", ["anchor_points", "irt_anchor", "semantic_anchor",
                                    "acoustic_anchor", "combined_anchor"])
def test_anchor_fold_frees_its_space_before_kmeans(rng, monkeypatch, method):
    import weakref

    from coreselect.embeddings import EmbeddingSet

    m = random_matrix(rng, 6, [8, 8, 8])
    ids = tuple(it.item_id for it in m.items)
    semantic = EmbeddingSet("semantic", ids, rng.standard_normal((m.n_items, 9)))
    acoustic = EmbeddingSet("acoustic", ids, rng.standard_normal((m.n_items, 9)))
    spaces = []
    real_init = EmbeddingSet.__post_init__

    def tracked_init(self):
        real_init(self)
        spaces.append(weakref.ref(self))

    monkeypatch.setattr(EmbeddingSet, "__post_init__", tracked_init)
    real_kmeans = selectors.weighted_kmeans
    alive = []

    def kmeans(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in spaces))
        return real_kmeans(*args, **kwargs)

    monkeypatch.setattr(selectors, "weighted_kmeans", kmeans)
    config = SelectorConfig(method, n=6, seed=13, pca_dim=4, irt_dim=2, irt_epochs=60)
    prepare, select, _ = selectors.METHODS[method]
    fold = prepare(m, config, semantic, acoustic)
    assert not hasattr(fold, "space") and spaces
    assert select(m, config, fold)[0].n == 6
    assert alive == [0]  # every space built by prepare is gone before K-Means runs


def test_select_anchor_points_without_a_prepared_fold(rng):
    m = random_matrix(rng, 6, [8, 8, 8])
    for n in (1, 6, 24):
        subset, result = select_anchor_points(performance_embeddings(m), m, n, seed=13)
        assert subset == run_selector(m, SelectorConfig("anchor_points", n=n, seed=13))[0]
        assert result.k == n
