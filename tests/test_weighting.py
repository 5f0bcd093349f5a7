from __future__ import annotations

import json

import numpy as np
import pytest

from coreselect.cli import _canonical_json
from coreselect.errors import ValidationError
from coreselect.weighting import (
    SubsetSpec,
    apw_score,
    balance_weights,
    reference_score,
    reference_scores,
    renormalized_balance_scores,
)

from conftest import make_matrix, random_matrix


def test_balance_weights_two_task_example():
    m = make_matrix(np.zeros((2, 5)), [2, 3])
    w = balance_weights(m)
    assert w[:2] == pytest.approx([0.25, 0.25])
    assert w[2:] == pytest.approx([1 / 6] * 3)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert not w.flags.writeable


def test_balance_weights_single_task_uniform():
    m = make_matrix(np.zeros((2, 4)), [4])
    assert balance_weights(m) == pytest.approx([0.25] * 4)


def test_balance_weights_wide_task_table():
    # 40 tasks, one of them with 200 items -> that task's items weigh 1/8000
    sizes = [200] + [10] * 39
    m = make_matrix(np.zeros((2, sum(sizes))), sizes)
    w = balance_weights(m)
    assert w[0] == pytest.approx(1.0 / 8000.0, abs=1e-15)


def test_balance_weights_sum_to_one_property(rng):
    for _ in range(100):
        t = int(rng.integers(1, 12))
        sizes = [int(rng.integers(1, 30)) for _ in range(t)]
        m = random_matrix(rng, 2, sizes)
        assert abs(balance_weights(m).sum() - 1.0) < 1e-9


def test_reference_score_task_mean_example():
    m = make_matrix([[1.0, 0.0, 0.5, 0.5, 0.5]], [2, 3])
    assert reference_score(m, "m00") == pytest.approx(0.5)


def test_reference_score_all_ones():
    m = make_matrix(np.ones((3, 7)), [3, 4])
    assert reference_scores(m) == pytest.approx([1.0, 1.0, 1.0])


def test_reference_score_equals_balance_weighted_sum(rng):
    # the two formulations of the task-averaged score agree to 1e-12
    for _ in range(100):
        t = int(rng.integers(1, 8))
        sizes = [int(rng.integers(1, 15)) for _ in range(t)]
        m = random_matrix(rng, int(rng.integers(2, 6)), sizes)
        b = balance_weights(m)
        for k, model_id in enumerate(m.model_ids):
            direct = reference_score(m, model_id)
            weighted = float(b @ m.values[k])
            assert abs(direct - weighted) < 1e-12


def test_reference_score_invariant_to_item_and_task_order(rng):
    m = random_matrix(rng, 4, [3, 5, 2])
    perm = rng.permutation(m.n_items)
    shuffled = type(m)(
        m.model_ids, tuple(m.items[i] for i in perm), m.values[:, perm]
    )
    for model_id in m.model_ids:
        assert reference_score(m, model_id) == pytest.approx(
            reference_score(shuffled, model_id), abs=1e-12
        )


def test_reference_score_unknown_model():
    m = make_matrix(np.zeros((2, 3)), [3])
    with pytest.raises(ValidationError):
        reference_score(m, "nope")


def test_apw_single_entry_identity():
    m = make_matrix([[0.3, 0.9], [0.8, 0.1]], [2])
    sub = SubsetSpec("anchor_points", 1, 0, (("i0001", 1.0),))
    assert apw_score(m, sub, "m00") == pytest.approx(0.9)


def test_apw_uniform_over_single_task_pool_equals_reference(rng):
    m = random_matrix(rng, 3, [6])
    sub = SubsetSpec.uniform("anchor_points", [it.item_id for it in m.items], 0)
    for model_id in m.model_ids:
        assert apw_score(m, sub, model_id) == pytest.approx(
            reference_score(m, model_id), abs=1e-12
        )


def test_apw_dot_product_example():
    # weights (0.5, 0.3, 0.2) on scores (1, 0, 0.5) -> 0.6 (hand oracle)
    m = make_matrix([[1.0, 0.0, 0.5]], [3])
    sub = SubsetSpec(
        "anchor_points", 3, 0, (("i0000", 0.5), ("i0001", 0.3), ("i0002", 0.2))
    )
    expected = 0.5 * 1.0 + 0.3 * 0.0 + 0.2 * 0.5
    assert apw_score(m, sub, "m00") == pytest.approx(expected, abs=1e-12)


def test_apw_is_convex_combination(rng):
    for _ in range(30):
        m = random_matrix(rng, 3, [4, 4])
        raw = rng.random(5)
        ids = [m.items[i].item_id for i in rng.choice(m.n_items, 5, replace=False)]
        w = raw / raw.sum()
        sub = SubsetSpec("anchor_points", 5, 0, tuple(zip(ids, w)))
        for model_id in m.model_ids:
            row = m.row(model_id)
            vals = [row[m.item_position(i)] for i in ids]
            s = apw_score(m, sub, model_id)
            assert min(vals) - 1e-12 <= s <= max(vals) + 1e-12


def test_apw_unknown_item_rejected():
    m = make_matrix([[0.5, 0.5]], [2])
    sub = SubsetSpec("anchor_points", 1, 0, (("ghost", 1.0),))
    with pytest.raises(ValidationError):
        apw_score(m, sub, "m00")


def test_subset_spec_validation():
    with pytest.raises(ValidationError, match="sum"):
        SubsetSpec("anchor_points", 2, 0, (("a", 0.6), ("b", 0.6)))
    with pytest.raises(ValidationError, match="distinct"):
        SubsetSpec("anchor_points", 2, 0, (("a", 0.5), ("a", 0.5)))
    with pytest.raises(ValidationError, match="entries"):
        SubsetSpec("anchor_points", 3, 0, (("a", 0.5), ("b", 0.5)))


def test_subset_spec_json_round_trip_is_byte_stable():
    sub = SubsetSpec("difficulty_stratified", 2, 7, (("a", 0.25), ("b", 0.75)))
    text = _canonical_json(sub.to_json_dict())
    again = SubsetSpec.from_json_dict(json.loads(text))
    assert again == sub
    assert _canonical_json(again.to_json_dict()) == text


def test_renormalized_balance_scores_subset_of_one_task(rng):
    # picking only task-0 items reduces to that task's balance-weighted mean
    m = random_matrix(rng, 3, [4, 6])
    ids = [it.item_id for it in m.items[:4]]
    sub = SubsetSpec.uniform("random_balanced", ids, 0)
    out = renormalized_balance_scores(m, sub)
    assert out == pytest.approx(m.values[:, :4].mean(axis=1), abs=1e-12)
