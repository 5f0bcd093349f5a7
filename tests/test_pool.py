from __future__ import annotations

import json

import numpy as np
import pytest

from coreselect.errors import ValidationError
from coreselect.pool import (
    NormalizationRule,
    _normalize_cells,
    _rescale_cells,
    load_pool,
    load_ratings,
    normalize,
    rescale_rating,
)


def test_normalize_capped_error_spot_values():
    rule = NormalizationRule.one_minus_capped_error(1.0)
    assert normalize(0.3, rule) == pytest.approx(0.7)
    assert normalize(2.5, rule) == 0.0  # clamped at the cap
    latency = NormalizationRule.one_minus_capped_error(5.0)
    assert normalize(6.0, latency) == 0.0


def test_normalize_affine_unit_spot_values():
    judge = NormalizationRule.affine_unit(1.0, 10.0)
    assert normalize(10.0, judge) == 1.0
    assert normalize(1.0, judge) == 0.0
    utmos = NormalizationRule.affine_unit(1.0, 5.0)
    assert normalize(3.0, utmos) == pytest.approx(0.5)
    # slight judge-scale overshoot clamps instead of erroring
    assert normalize(10.2, judge) == 1.0
    assert normalize(0.5, judge) == 0.0


def test_normalize_identity_passthrough_and_range_error():
    rule = NormalizationRule.identity()
    assert normalize(0.42, rule) == 0.42
    with pytest.raises(ValidationError):
        normalize(1.2, rule)
    with pytest.raises(ValidationError):
        normalize(-0.1, rule)


def test_normalize_rejects_negative_error_values():
    rule = NormalizationRule.one_minus_capped_error(1.0)
    with pytest.raises(ValidationError):
        normalize(-0.2, rule)


def test_rule_construction_validation():
    with pytest.raises(ValidationError):
        NormalizationRule.one_minus_capped_error(0.0)
    with pytest.raises(ValidationError):
        NormalizationRule.affine_unit(2.0, 2.0)
    with pytest.raises(ValidationError):
        NormalizationRule.from_config({"kind": "log_scale"})


def test_normalize_output_in_unit_interval_property(rng):
    rules = [
        NormalizationRule.one_minus_capped_error(float(c)) for c in (0.5, 1, 5, 20)
    ] + [NormalizationRule.affine_unit(float(lo), float(lo + s))
         for lo, s in ((0, 1), (1, 9), (1, 4), (-3, 7))]
    for rule in rules:
        for raw in rng.random(200) * 30.0:
            out = normalize(float(raw), rule)
            assert 0.0 <= out <= 1.0


def test_normalize_monotonicity_property(rng):
    capped = NormalizationRule.one_minus_capped_error(5.0)
    affine = NormalizationRule.affine_unit(1.0, 10.0)
    raws = np.sort(rng.random(100) * 12.0)
    capped_out = [normalize(float(r), capped) for r in raws]
    affine_out = [normalize(float(r), affine) for r in raws]
    assert all(b <= a + 1e-15 for a, b in zip(capped_out, capped_out[1:]))
    assert all(b >= a - 1e-15 for a, b in zip(affine_out, affine_out[1:]))


_EDGE_VALUES = [0.0, -0.0, 5e-324, 0.25, 0.5, 0.7, 1.0, 1.0 + 2**-52, 1.5, 2.0, 3.0, 5.0, 6.0,
                6.5, 10.0, 11.0, -0.1, -2.0, -3.0, 1e300, -1e300, 1.7e308, -1.7e308,
                float("nan"), float("inf"), float("-inf")]


def _cellwise(scalar, values):
    """The scalar rule at each value, NaN where it raises."""
    out = []
    for v in values:
        try:
            out.append(scalar(v))
        except ValidationError:
            out.append(float("nan"))
    return np.asarray(out)


@pytest.mark.parametrize("rule", [
    NormalizationRule.identity(),
    NormalizationRule.one_minus_capped_error(0.5),
    NormalizationRule.one_minus_capped_error(3.0),
    NormalizationRule.affine_unit(0.0, 1.0),
    NormalizationRule.affine_unit(0.0, 10.0),
    NormalizationRule.affine_unit(-2.0, 3.0),
    NormalizationRule.affine_unit(-1.7e308, 1.7e308),  # hi - lo overflows: 0/0 cases
], ids=["identity", "cap_half", "cap_3", "unit", "judge", "shifted", "overflowing"])
def test_normalize_cells_bit_identical_to_normalize(rule):
    raw = np.asarray(_EDGE_VALUES)
    want = _cellwise(lambda v: normalize(v, rule), _EDGE_VALUES)
    got = _normalize_cells(raw, rule)
    assert got.tobytes() == want.tobytes()
    if rule.kind == "affine_unit" and rule.lo == 0.0:  # max(0.0, -0.0) is 0.0, not -0.0
        assert np.signbit(want[1]) == np.signbit(got[1]) == False  # noqa: E712


def test_rescale_cells_bit_identical_to_rescale_rating():
    got = _rescale_cells(np.asarray(_EDGE_VALUES))
    assert got.tobytes() == _cellwise(rescale_rating, _EDGE_VALUES).tobytes()


def test_rescale_rating_endpoints_and_midpoint():
    assert rescale_rating(6) == 1.0
    assert rescale_rating(1) == 0.0
    assert rescale_rating(3.5) == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        rescale_rating(0.5)
    with pytest.raises(ValidationError):
        rescale_rating(6.5)


def test_rescale_rating_is_affine(rng):
    for _ in range(50):
        a, b = 1.0 + 5.0 * rng.random(2)
        lhs = rescale_rating(a) + rescale_rating(b)
        rhs = 2.0 * rescale_rating((a + b) / 2.0)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def _write_pool(tmp_path, scores_rows, wer_raw="0.2"):
    items = tmp_path / "items.csv"
    items.write_text(
        "item_id,task_id,metric,needs_audio_in,needs_audio_out\n"
        "i1,asr,WER,1,0\n"
        "i2,asr,WER,1,0\n"
        "i3,chat,judge,1,1\n"
    )
    scores = tmp_path / "scores.csv"
    scores.write_text("model_id,item_id,raw_value\n" + "\n".join(scores_rows) + "\n")
    norm = tmp_path / "norm.json"
    norm.write_text(json.dumps({
        "WER": {"kind": "one_minus_capped_error", "params": {"cap": 1}},
        "judge": {"kind": "affine_unit", "params": {"lo": 1, "hi": 10}},
    }))
    return items, scores, norm


def test_load_pool_happy_path(tmp_path):
    rows = []
    for m in ("m2", "m1"):
        rows += [f"{m},i1,0.2", f"{m},i2,0.5", f"{m},i3,10"]
    matrix = load_pool(*_write_pool(tmp_path, rows))
    assert matrix.n_models == 2 and matrix.n_items == 3
    assert matrix.model_ids == ("m1", "m2")  # lexicographic, not file order
    # WER 0.2 -> 0.8 via the configured rule
    assert matrix.values[0, 0] == pytest.approx(0.8)
    assert matrix.values[0, 2] == 1.0


def test_load_pool_missing_cell_names_the_pair(tmp_path):
    rows = ["m1,i1,0.2", "m1,i2,0.5", "m1,i3,10", "m2,i1,0.2", "m2,i2,0.5"]
    with pytest.raises(ValidationError, match=r"\(m2, i3\)"):
        load_pool(*_write_pool(tmp_path, rows))


def test_load_pool_duplicate_cell_rejected(tmp_path):
    rows = ["m1,i1,0.2", "m1,i1,0.3", "m1,i2,0.5", "m1,i3,10"]
    with pytest.raises(ValidationError, match="duplicate cell"):
        load_pool(*_write_pool(tmp_path, rows))


def test_load_pool_unknown_metric_rejected(tmp_path):
    items, scores, norm = _write_pool(tmp_path, ["m1,i1,0.2", "m1,i2,0.5", "m1,i3,10"])
    norm.write_text(json.dumps({"WER": {"kind": "one_minus_capped_error", "params": {"cap": 1}}}))
    with pytest.raises(ValidationError, match="judge"):
        load_pool(items, scores, norm)


def test_load_pool_error_names_item_and_model(tmp_path):
    items = tmp_path / "items.csv"
    items.write_text(
        "item_id,task_id,metric,needs_audio_in,needs_audio_out\ni1,t,acc,0,0\n"
    )
    scores = tmp_path / "scores.csv"
    scores.write_text("model_id,item_id,raw_value\nm1,i1,1.4\n")
    norm = tmp_path / "norm.json"
    norm.write_text(json.dumps({"acc": {"kind": "identity"}}))
    with pytest.raises(ValidationError, match="item 'i1', model 'm1'"):
        load_pool(items, scores, norm)


def test_load_pool_deterministic_serialization(tmp_path):
    rows = [f"m{k},i{j},0.{k}{j}" for k in (1, 2) for j in (1, 2, 3)]
    items = tmp_path / "items.csv"
    items.write_text(
        "item_id,task_id,metric,needs_audio_in,needs_audio_out\n"
        "i1,a,acc,0,0\ni2,a,acc,0,1\ni3,b,acc,1,0\n"
    )
    scores = tmp_path / "scores.csv"
    scores.write_text("model_id,item_id,raw_value\n" + "\n".join(rows) + "\n")
    norm = tmp_path / "norm.json"
    norm.write_text(json.dumps({"acc": {"kind": "identity"}}))
    first = json.dumps(load_pool(items, scores, norm).to_json_dict(), sort_keys=True)
    second = json.dumps(load_pool(items, scores, norm).to_json_dict(), sort_keys=True)
    assert first == second
    # row order of the long-form file must not matter
    scores.write_text("model_id,item_id,raw_value\n" + "\n".join(reversed(rows)) + "\n")
    assert json.dumps(load_pool(items, scores, norm).to_json_dict(), sort_keys=True) == first


def test_load_ratings_rescales_and_validates(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text(
        "model_id,dimension,mean_rating\n"
        "m1,overall,6\nm1,quality,1\nm2,overall,3.5\nm2,quality,2\n"
    )
    table = load_ratings(path)
    assert table.model_ids == ("m1", "m2")
    assert table.column("overall")[0] == 1.0
    assert table.column("overall")[1] == pytest.approx(0.5)
    assert table.column("quality")[0] == 0.0
    path.write_text("model_id,dimension,mean_rating\nm1,overall,6\nm2,quality,2\n")
    with pytest.raises(ValidationError, match="missing rating"):
        load_ratings(path)
