from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coreselect.cli import _canonical_json, _load_bundle, _pool_json, main
from coreselect.embeddings import load_embedding_csv
from coreselect.pool import ItemRecord, ScoreMatrix, load_ratings


def run_cli(*argv):
    return main([str(a) for a in argv])


def make_pool_files(tmp_path, seed=11, models=9, tasks=4, items=12, **extra):
    data = tmp_path / "data"
    args = [
        "synth", "--models", models, "--tasks", tasks, "--items-per-task", items,
        "--noise", 0.6, "--seed", seed, "--out", data,
    ]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", value]
    assert run_cli(*args) == 0
    return data


def ingest(tmp_path, data):
    bundle = tmp_path / "bundle"
    assert run_cli(
        "ingest", "--items", data / "items.csv", "--scores", data / "scores.csv",
        "--norm-config", data / "norm_config.json", "--out", bundle,
    ) == 0
    return bundle


def test_ingest_writes_bundle_and_manifest(tmp_path):
    data = make_pool_files(tmp_path)
    bundle = ingest(tmp_path, data)
    assert (bundle / "pool.json").exists()
    manifest = json.loads((bundle / "manifest.json").read_text())
    assert manifest["command"] == "ingest"
    assert set(manifest["inputs"]) == {"items", "scores", "norm_config"}
    assert manifest["version"]


def test_ingest_missing_cell_exits_1_with_error_json(tmp_path, capsys):
    data = make_pool_files(tmp_path)
    scores = (data / "scores.csv").read_text().strip().splitlines()
    (data / "scores.csv").write_text("\n".join(scores[:-1]) + "\n")  # drop one cell
    code = run_cli(
        "ingest", "--items", data / "items.csv", "--scores", data / "scores.csv",
        "--norm-config", data / "norm_config.json", "--out", tmp_path / "b2",
    )
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "validation"
    assert "missing score cells" in err["error"]
    assert "(model008, i00047)" in err["error"]


def test_pool_json_matches_canonical_json(tmp_path):
    ids = ["plain", "caf\u00e9", 'say "hi"', "back\\slash", "tab\there", "\u2028\U0001f600"]
    items = tuple(ItemRecord(i, f"task {i}", f"metric {i}", k % 2 == 0, k % 3 == 0)
                  for k, i in enumerate(ids))
    values = [[0.0, -0.0, 1.0, 0.1, 5e-324, 1 / 3], [0.5, 1e-300, 0.999999999999, 0.25, 1.0, 0.0]]
    matrix = ScoreMatrix(("m\u00fc", 'm"2'), items, values)
    assert _pool_json(matrix) == _canonical_json(matrix.to_json_dict())
    one = ScoreMatrix(("m",), items[:1], [[0.7]])
    assert _pool_json(one) == _canonical_json(one.to_json_dict())
    bundle = ingest(tmp_path, make_pool_files(tmp_path))
    assert (bundle / "pool.json").read_text() == _canonical_json(
        _load_bundle(bundle).to_json_dict())


def test_select_writes_valid_subset(tmp_path):
    data = make_pool_files(tmp_path)
    bundle = ingest(tmp_path, data)
    out = tmp_path / "sel"
    assert run_cli(
        "select", "--bundle", bundle, "--method", "anchor_points",
        "--n", 20, "--seed", 7, "--out", out,
    ) == 0
    subset = json.loads((out / "subset.json").read_text())
    assert subset["method"] == "anchor_points"
    assert len(subset["items"]) == 20
    assert sum(e["weight"] for e in subset["items"]) == pytest.approx(1.0, abs=1e-9)


def test_select_difficulty_two_phase_counts(tmp_path):
    data = make_pool_files(tmp_path)
    bundle = ingest(tmp_path, data)
    out = tmp_path / "sel"
    assert run_cli(
        "select", "--bundle", bundle, "--method", "difficulty_stratified",
        "--n", 25, "--bins", 10, "--seed", 3, "--out", out,
    ) == 0
    subset = json.loads((out / "subset.json").read_text())
    assert len({e["item_id"] for e in subset["items"]}) == 25


def test_select_config_file_with_flag_precedence(tmp_path):
    data = make_pool_files(tmp_path)
    bundle = ingest(tmp_path, data)
    config = tmp_path / "selector.json"
    config.write_text(json.dumps({"method": "difficulty_stratified", "n": 12, "bins": 4}))
    out_a = tmp_path / "from_file"
    assert run_cli("select", "--bundle", bundle, "--config", config,
                   "--seed", 3, "--out", out_a) == 0
    subset = json.loads((out_a / "subset.json").read_text())
    assert subset["method"] == "difficulty_stratified" and subset["n"] == 12
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["config"]["bins"] == 4
    # CLI flag beats the file value
    out_b = tmp_path / "flag_wins"
    assert run_cli("select", "--bundle", bundle, "--config", config, "--n", 8,
                   "--seed", 3, "--out", out_b) == 0
    assert json.loads((out_b / "subset.json").read_text())["n"] == 8
    # unknown config keys rejected
    config.write_text(json.dumps({"method": "random_balanced", "n": 5, "nn": 2}))
    assert run_cli("select", "--bundle", bundle, "--config", config,
                   "--seed", 3, "--out", tmp_path / "bad") == 1


def test_select_unknown_method_lists_valid_ones(tmp_path, capsys):
    data = make_pool_files(tmp_path)
    bundle = ingest(tmp_path, data)
    code = run_cli("select", "--bundle", bundle, "--method", "clever", "--n", 5,
                   "--seed", 1, "--out", tmp_path / "x")
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "validation"
    assert "anchor_points" in err["error"]  # error lists the valid methods


def test_select_requires_seed(tmp_path, capsys):
    data = make_pool_files(tmp_path)
    bundle = ingest(tmp_path, data)
    with pytest.raises(SystemExit):
        run_cli("select", "--bundle", bundle, "--method", "anchor_points",
                "--n", 5, "--out", tmp_path / "x")


def test_evaluate_report_and_csv(tmp_path):
    data = make_pool_files(tmp_path)
    bundle = ingest(tmp_path, data)
    out = tmp_path / "ev"
    assert run_cli(
        "evaluate", "--bundle", bundle, "--methods", "random_balanced,variance_top",
        "--sizes", "8,16", "--folds", 3, "--repeats", 2, "--seed", 5, "--out", out,
    ) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["evaluations_per_size"] == 6
    assert set(report["curves"]) == {"random_balanced", "variance_top"}
    for curve in report["curves"].values():
        for point in curve["points"]:
            assert point["evaluations"] == 6
    csv_lines = (out / "curves.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "method,n,mean_r,sem,metric"
    assert len(csv_lines) == 1 + 2 * 2


def test_evaluate_custom_aucc_range(tmp_path):
    data = make_pool_files(tmp_path)
    bundle = ingest(tmp_path, data)
    out = tmp_path / "ev"
    assert run_cli(
        "evaluate", "--bundle", bundle, "--methods", "random_balanced",
        "--sizes", "8,16,24", "--folds", 2, "--repeats", 2, "--seed", 5,
        "--aucc-range", 8, 24, "--out", out,
    ) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["aucc_range"] == [8, 24]
    curve = report["curves"]["random_balanced"]["points"]
    lo, mid, hi = (p["mean_r"] for p in curve)
    # trapezoid over (8, 16, 24) normalized by 16
    expected = ((lo + mid) / 2 * 8 + (mid + hi) / 2 * 8) / 16
    assert report["summaries"]["random_balanced"]["aucc"] == pytest.approx(expected)


def test_evaluate_rerun_identical_and_jobs_independent(tmp_path):
    data = make_pool_files(tmp_path)
    bundle = ingest(tmp_path, data)
    outs = []
    for name, jobs in (("e1", 1), ("e2", 1), ("e3", 2)):
        out = tmp_path / name
        assert run_cli(
            "evaluate", "--bundle", bundle, "--methods", "anchor_points,irt_anchor",
            "--sizes", "8,12", "--folds", 3, "--repeats", 2, "--seed", 5,
            "--jobs", jobs, "--out", out,
        ) == 0
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_evaluate_malformed_sizes_exit_1(tmp_path, capsys):
    bundle = ingest(tmp_path, make_pool_files(tmp_path))
    assert run_cli(
        "evaluate", "--bundle", bundle, "--methods", "random_balanced",
        "--sizes", "5,x", "--seed", 5, "--out", tmp_path / "ev",
    ) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "validation"
    assert "5,x" in err["error"]


@pytest.mark.parametrize("lo, hi", [(20, 10), (10, 10)])
def test_evaluate_empty_aucc_range_exit_1(tmp_path, capsys, lo, hi):
    bundle = ingest(tmp_path, make_pool_files(tmp_path))
    assert run_cli(
        "evaluate", "--bundle", bundle, "--methods", "random_balanced",
        "--sizes", "8,16", "--folds", 2, "--repeats", 1, "--seed", 5,
        "--aucc-range", lo, hi, "--out", tmp_path / "ev",
    ) == 1
    assert json.loads(capsys.readouterr().err.strip())["kind"] == "validation"
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize("jobs", [0, -3])
def test_evaluate_jobs_below_1_exit_1(tmp_path, capsys, valid_inputs, jobs):
    assert run_cli(
        "evaluate", "--bundle", valid_inputs[1], "--methods", "random_balanced",
        "--sizes", "8", "--folds", 2, "--repeats", 1, "--seed", 5, "--jobs", jobs,
        "--out", tmp_path / "ev",
    ) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "validation"
    assert err["error"] == "jobs must be >= 1"
    assert not (tmp_path / "ev").exists()


def test_evaluate_folds_holding_out_one_model_exit_1(tmp_path, capsys, valid_inputs):
    # 9 models in 5 folds: four held-out folds would hold a single model
    assert run_cli(
        "evaluate", "--bundle", valid_inputs[1],
        "--methods", "random_sampling_learn,random_search_learn", "--sizes", "8",
        "--folds", 5, "--repeats", 1, "--seed", 5, "--out", tmp_path / "ev",
    ) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "validation"
    assert err["error"] == "5 folds need at least 10 models (2 held out per fold), got 9"
    assert not (tmp_path / "ev").exists()


def test_evaluate_repeated_method_exit_1(tmp_path, capsys, valid_inputs):
    assert run_cli(
        "evaluate", "--bundle", valid_inputs[1], "--methods", "random_balanced,random_balanced",
        "--sizes", "8", "--folds", 2, "--repeats", 1, "--seed", 5, "--out", tmp_path / "ev",
    ) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "validation"
    assert "'random_balanced'" in err["error"]
    assert not (tmp_path / "ev").exists()


def test_evaluate_default_sizes_are_those_that_fit_the_pool(tmp_path):
    bundle = ingest(tmp_path, make_pool_files(tmp_path))  # 4 tasks x 12 = 48 items
    out = tmp_path / "ev"
    assert run_cli(
        "evaluate", "--bundle", bundle, "--methods", "random_balanced",
        "--folds", 2, "--repeats", 1, "--seed", 5, "--out", out,
    ) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["sizes"] == [10, 20, 30]


@pytest.mark.parametrize("flags, code", [
    (["--method", "irt_anchor", "--irt-dim", 0], 1),
    (["--method", "irt_anchor", "--irt-lr", -1], 1),
    (["--method", "irt_anchor", "--irt-epochs", 0], 1),
    (["--method", "semantic_anchor", "--pca-dim", 0], 1),
    # the default pca_dim (50) is clamped to the 24-wide embeddings
    (["--method", "semantic_anchor"], 0),
], ids=["irt_dim_0", "irt_lr_negative", "irt_epochs_0", "pca_dim_0", "semantic_24_wide"])
def test_select_validates_selector_params(tmp_path, capsys, flags, code):
    data = make_pool_files(tmp_path, embedding_dim=24)
    bundle = ingest(tmp_path, data)
    out = tmp_path / "sel"
    assert run_cli("select", "--bundle", bundle, *flags, "--n", 10, "--seed", 7,
                   "--semantic", data / "semantic.csv", "--out", out) == code
    if code:
        assert json.loads(capsys.readouterr().err.strip())["kind"] == "validation"
        assert not out.exists()
    else:
        assert len(json.loads((out / "subset.json").read_text())["items"]) == 10


def _validation_error_in_subprocess(*argv):
    """Run the CLI in a fresh interpreter, where numpy warnings reach stderr
    (pytest captures them in-process); assert exit 1 with exactly one stderr
    line, a validation error, and return its message."""
    import coreselect

    src = Path(coreselect.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from coreselect.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *map(str, argv)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    err = json.loads(lines[0])
    assert err["kind"] == "validation"
    return err["error"]


def test_diverging_irt_fit_writes_one_json_line_to_stderr(tmp_path):
    bundle = ingest(tmp_path, make_pool_files(tmp_path))
    error = _validation_error_in_subprocess(
        "select", "--bundle", bundle, "--method", "irt_anchor", "--n", 10, "--seed", 7,
        "--irt-lr", "1e300", "--out", tmp_path / "sel")
    assert "irt_lr" in error
    assert not (tmp_path / "sel").exists()


@pytest.mark.parametrize("method, kind", [("semantic_anchor", "semantic"),
                                          ("combined_anchor", "semantic"),
                                          ("combined_anchor", "acoustic")])
def test_pca_overflow_writes_one_json_line_to_stderr(tmp_path, method, kind):
    data = make_pool_files(tmp_path, embedding_dim=12)
    bundle = ingest(tmp_path, data)
    path = data / f"{kind}.csv"
    # one finite cell whose square overflows the covariance
    path.write_text(_edit_row(path.read_text(), 2, lambda c: [c[0], "1e200", *c[2:]]))
    error = _validation_error_in_subprocess(
        "select", "--bundle", bundle, "--method", method, "--n", 10, "--seed", 7,
        "--semantic", data / "semantic.csv", "--acoustic", data / "acoustic.csv",
        "--out", tmp_path / "sel")
    assert error.startswith(f"{kind} embedding values too large for PCA")
    assert not (tmp_path / "sel").exists()


@pytest.mark.parametrize("entry, message", [
    ({"bins": "x"}, "bins must be an integer"),
    ({"lambda_grid": 5}, "lambda_grid must be a list"),
    ({"lambda_grid": ["a", 1]}, "got 'a'"),
    ({"n_search": 2.5}, "n_search must be an integer"),
    ({"holdout_fraction": "0.3"}, "holdout_fraction must be a finite real"),
    ({"lambda_grid": [0, 1]}, "got 0"),
    ({"lambda_grid": [-1, 1]}, "got -1"),
], ids=["bins_str", "grid_int", "grid_str_value", "n_search_float", "holdout_str",
        "grid_zero", "grid_negative"])
def test_select_ill_typed_config_exits_1(tmp_path, capsys, entry, message):
    data = make_pool_files(tmp_path)
    bundle = ingest(tmp_path, data)
    config = tmp_path / "selector.json"
    config.write_text(json.dumps(entry))
    capsys.readouterr()
    out = tmp_path / "sel"
    assert run_cli("select", "--bundle", bundle, "--method", "difficulty_stratified",
                   "--n", 10, "--seed", 7, "--config", config, "--out", out) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "validation"
    assert message in err["error"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["select", "evaluate"])
def test_bad_selector_value_names_config_file_only_when_read_from_it(
    tmp_path, capsys, valid_inputs, command
):
    bundle = valid_inputs[1]
    argv = {
        "select": ["select", "--bundle", bundle, "--method", "difficulty_stratified", "--n", 10],
        "evaluate": ["evaluate", "--bundle", bundle, "--methods", "difficulty_stratified",
                     "--sizes", "4,8", "--folds", 2, "--repeats", 1],
    }[command]
    config = tmp_path / "selector.json"

    def error(*extra):
        capsys.readouterr()
        out = tmp_path / "out"
        assert run_cli(*argv, "--seed", 7, "--config", config, *extra, "--out", out) == 1
        assert not out.exists()
        err = json.loads(capsys.readouterr().err.strip())
        assert err["kind"] == "validation"
        return err["error"]

    config.write_text(json.dumps({"bins": "x"}))
    assert error() == f"{config}: bins must be an integer"
    config.write_text(json.dumps({"bins": 3}))
    assert error("--bins", 0) == "bins must be >= 1"
    config.write_text(json.dumps({"bins": "x", "irt_lr": -1}))
    assert error("--bins", 4) == f"{config}: irt_lr must be > 0"  # the flag's bins replaces "x"


def test_regress_rated_model_missing_from_pool_names_both_files(tmp_path, capsys, valid_inputs):
    data, bundle, subset = valid_inputs
    lines = (data / "ratings.csv").read_text().splitlines()
    ghost = lines[1].split(",")[0]
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("\n".join(ln.replace(ghost, "ghost") for ln in lines) + "\n")
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cli("regress", "--bundle", bundle, "--subset", subset, "--ratings", ratings,
                   "--protocol", "lomo", "--out", out) == 1
    assert not out.exists()
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "validation"
    assert err["error"] == (
        f"{ratings}: unknown model id 'ghost': the model is not in the pool {bundle / 'pool.json'}"
    )


def test_regress_subset_item_missing_from_pool_names_both_files(tmp_path, capsys, valid_inputs):
    data, bundle, subset = valid_inputs
    doc = json.loads(subset.read_text())
    doc["items"][0]["item_id"] = "ghost"
    ghost_subset = tmp_path / "subset.json"
    ghost_subset.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cli("regress", "--bundle", bundle, "--subset", ghost_subset,
                   "--ratings", data / "ratings.csv", "--protocol", "lomo", "--out", out) == 1
    assert not out.exists()
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "validation"
    assert err["error"] == (
        f"{ghost_subset}: unknown item id 'ghost': the item is not in the pool "
        f"{bundle / 'pool.json'}"
    )


def test_regress_lomo_and_export(tmp_path):
    data = make_pool_files(tmp_path, rated_models=7)
    bundle = ingest(tmp_path, data)
    sel = tmp_path / "sel"
    assert run_cli("select", "--bundle", bundle, "--method", "anchor_points",
                   "--n", 15, "--seed", 2, "--out", sel) == 0
    reg = tmp_path / "reg"
    assert run_cli(
        "regress", "--bundle", bundle, "--subset", sel / "subset.json",
        "--ratings", data / "ratings.csv", "--protocol", "lomo",
        "--dimension", "overall", "--out", reg,
    ) == 0
    report = json.loads((reg / "protocol_report.json").read_text())
    assert len(report["folds"]) == 7
    assert len(report["lambda_grid"]) == 9

    pw = tmp_path / "pw"
    assert run_cli(
        "regress", "--bundle", bundle, "--subset", sel / "subset.json",
        "--ratings", data / "ratings.csv", "--protocol", "pairwise52",
        "--dimension", "naturalness", "--out", pw,
    ) == 0
    pw_report = json.loads((pw / "protocol_report.json").read_text())
    assert len(pw_report["folds"]) == 21
    assert pw_report["dimension"] == "naturalness"

    rel = tmp_path / "rel"
    assert run_cli(
        "export", "--subset", sel / "subset.json",
        "--regression", f"overall={reg / 'ridge_overall.json'}",
        "--regression", f"naturalness={pw / 'ridge_naturalness.json'}",
        "--out", rel,
    ) == 0
    release = json.loads((rel / "release.json").read_text())
    assert release["format"] == "dual-mode-subset"
    assert set(release["regression_mode"]) == {"overall", "naturalness"}
    assert len(release["benchmark_mode"]["items"]) == 15
    for model in release["regression_mode"].values():
        assert {e["item_id"] for e in model["items"]} == {
            e["item_id"] for e in release["benchmark_mode"]["items"]
        }


def test_export_rejects_mismatched_regressor(tmp_path):
    data = make_pool_files(tmp_path, rated_models=7)
    bundle = ingest(tmp_path, data)
    for name, n in (("s1", 10), ("s2", 12)):
        assert run_cli("select", "--bundle", bundle, "--method", "random_balanced",
                       "--n", n, "--seed", 2, "--out", tmp_path / name) == 0
    reg = tmp_path / "reg"
    assert run_cli("regress", "--bundle", bundle,
                   "--subset", tmp_path / "s1" / "subset.json",
                   "--ratings", data / "ratings.csv",
                   "--protocol", "lomo", "--out", reg) == 0
    code = run_cli("export", "--subset", tmp_path / "s2" / "subset.json",
                   "--regression", f"overall={reg / 'ridge_overall.json'}",
                   "--out", tmp_path / "rel")
    assert code == 1


def test_export_rejects_repeated_regression_dimension(tmp_path, capsys, valid_inputs):
    data, bundle, subset = valid_inputs
    fits = []
    for protocol in ("lomo", "pairwise52"):
        reg = tmp_path / protocol
        assert run_cli("regress", "--bundle", bundle, "--subset", subset,
                       "--ratings", data / "ratings.csv", "--protocol", protocol,
                       "--out", reg) == 0
        fits.append(reg / "ridge_overall.json")
    capsys.readouterr()
    out = tmp_path / "rel"
    assert run_cli("export", "--subset", subset, "--regression", f"overall={fits[0]}",
                   "--regression", f"overall={fits[1]}", "--out", out) == 1
    assert not out.exists()
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "validation"
    assert "'overall'" in err["error"]


@pytest.mark.parametrize("dim", ["", " "])
def test_export_rejects_empty_regression_dimension(tmp_path, capsys, valid_inputs, dim):
    data, bundle, subset = valid_inputs
    reg = tmp_path / "reg"
    assert run_cli("regress", "--bundle", bundle, "--subset", subset,
                   "--ratings", data / "ratings.csv", "--protocol", "lomo", "--out", reg) == 0
    capsys.readouterr()
    out = tmp_path / "rel"
    assert run_cli("export", "--subset", subset,
                   "--regression", f"{dim}={reg / 'ridge_overall.json'}", "--out", out) == 1
    assert not out.exists()
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "validation"
    assert "empty dimension" in err["error"]


def test_export_strips_regression_dimension(tmp_path, capsys, valid_inputs):
    data, bundle, subset = valid_inputs
    reg = tmp_path / "reg"
    assert run_cli("regress", "--bundle", bundle, "--subset", subset,
                   "--ratings", data / "ratings.csv", "--protocol", "lomo", "--out", reg) == 0
    fit = reg / "ridge_overall.json"
    assert run_cli("export", "--subset", subset, "--regression", f" overall ={fit}",
                   "--out", tmp_path / "rel") == 0
    release = json.loads((tmp_path / "rel" / "release.json").read_text())
    assert list(release["regression_mode"]) == ["overall"]
    capsys.readouterr()
    assert run_cli("export", "--subset", subset, "--regression", f"overall={fit}",
                   "--regression", f"overall ={fit}", "--out", tmp_path / "rel2") == 1
    assert "more than once" in json.loads(capsys.readouterr().err.strip())["error"]


def test_full_pipeline_rerun_is_byte_identical(tmp_path):
    digests = []
    for name in ("run_a", "run_b"):
        root = tmp_path / name
        data = make_pool_files(root, rated_models=7, embedding_dim=12)
        bundle = ingest(root, data)
        sel = root / "sel"
        assert run_cli("select", "--bundle", bundle, "--method", "combined_anchor",
                       "--n", 10, "--seed", 4, "--semantic", data / "semantic.csv",
                       "--acoustic", data / "acoustic.csv", "--out", sel) == 0
        ev = root / "ev"
        assert run_cli("evaluate", "--bundle", bundle, "--methods", "random_balanced",
                       "--sizes", "6,10", "--folds", 3, "--repeats", 2, "--seed", 5,
                       "--out", ev) == 0
        reg = root / "reg"
        assert run_cli("regress", "--bundle", bundle, "--subset", sel / "subset.json",
                       "--ratings", data / "ratings.csv", "--protocol", "lomo",
                       "--out", reg) == 0
        rel = root / "rel"
        assert run_cli("export", "--subset", sel / "subset.json",
                       "--regression", f"overall={reg / 'ridge_overall.json'}",
                       "--out", rel) == 0
        digests.append([
            (p.relative_to(root), p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()
        ])
    names_a = [n for n, _ in digests[0]]
    names_b = [n for n, _ in digests[1]]
    assert names_a == names_b
    for (name, blob_a), (_, blob_b) in zip(*digests):
        assert blob_a == blob_b, f"{name} differs between reruns"


@pytest.mark.parametrize("entry", [
    {"kind": "one_minus_capped_error"},
    "identity",
    {"kind": "affine_unit", "params": {"lo": "a", "hi": 1}},
    {"kind": "affine_unit", "params": {"lo": 0}},
    {"kind": "affine_unit", "params": {"lo": float("-inf"), "hi": 1}},
    {"kind": "one_minus_capped_error", "params": {"cap": float("inf")}},
], ids=["cap_missing", "bare_string", "lo_not_numeric", "hi_missing", "lo_infinite",
        "cap_infinite"])
def test_ingest_malformed_norm_config_entry_exits_1(tmp_path, capsys, entry):
    data = make_pool_files(tmp_path)
    (data / "norm_config.json").write_text(json.dumps({"native": entry}))
    code = run_cli(
        "ingest", "--items", data / "items.csv", "--scores", data / "scores.csv",
        "--norm-config", data / "norm_config.json", "--out", tmp_path / "bundle",
    )
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "validation"
    assert "'native'" in err["error"]


def _drop_items(path):
    data = json.loads(path.read_text())
    del data["items"]
    path.write_text(json.dumps(data))
    return path


def _pool_values(path, values):
    data = json.loads(path.read_text())
    data["values"] = values(data["values"])
    path.write_text(json.dumps(data))
    return path


# pool.json values that are not numbers; a true among floats is still read as 1.0
_BAD_POOL_VALUES = {
    "pool_string_value": lambda v: [[str(v[0][0]), *v[0][1:]], *v[1:]],
    "pool_boolean_values": lambda v: [[x > 0.5 for x in row] for row in v],
    "pool_null_value": lambda v: [[None, *v[0][1:]], *v[1:]],
}


def _nan_weight(path):
    data = json.loads(path.read_text())
    data["items"][0]["weight"] = float("nan")  # json writes the bare token NaN
    path.write_text(json.dumps(data))
    return path


# regression-model fields that export must reject (json writes inf as Infinity)
_BAD_RIDGE = {
    "regression_infinite_intercept": {"intercept": float("inf")},
    "regression_zero_lambda": {"lambda": 0.0},
}


@pytest.mark.parametrize("case", [
    "regress_subset_without_items", "export_subset_without_items",
    "pool_without_items", "regression_not_json", "no_methods", "subset_nan_weight",
    *_BAD_RIDGE, *_BAD_POOL_VALUES,
])
def test_malformed_json_inputs_exit_1(tmp_path, capsys, case):
    data = make_pool_files(tmp_path, rated_models=7)
    bundle = ingest(tmp_path, data)
    sel = tmp_path / "sel"
    assert run_cli("select", "--bundle", bundle, "--method", "random_balanced",
                   "--n", 10, "--seed", 2, "--out", sel) == 0
    subset = sel / "subset.json"
    capsys.readouterr()
    if case == "regress_subset_without_items":
        argv = ["regress", "--bundle", bundle, "--subset", _drop_items(subset),
                "--ratings", data / "ratings.csv", "--protocol", "lomo"]
    elif case == "export_subset_without_items":
        argv = ["export", "--subset", _drop_items(subset)]
    elif case == "pool_without_items":
        _drop_items(bundle / "pool.json")
        argv = ["select", "--bundle", bundle, "--method", "random_balanced",
                "--n", 10, "--seed", 2]
    elif case in _BAD_POOL_VALUES:
        _pool_values(bundle / "pool.json", _BAD_POOL_VALUES[case])
        argv = ["select", "--bundle", bundle, "--method", "random_balanced",
                "--n", 10, "--seed", 2]
    elif case == "regression_not_json":
        (tmp_path / "ridge.json").write_text("not json\n")
        argv = ["export", "--subset", subset, "--regression",
                f"overall={tmp_path / 'ridge.json'}"]
    elif case == "subset_nan_weight":
        argv = ["export", "--subset", _nan_weight(subset)]
    elif case in _BAD_RIDGE:
        items = json.loads(subset.read_text())["items"]
        (tmp_path / "ridge.json").write_text(json.dumps({
            "lambda": 1.0, "intercept": 0.0,
            "items": [{"item_id": d["item_id"], "weight": 0.0} for d in items],
            **_BAD_RIDGE[case],
        }))
        argv = ["export", "--subset", subset, "--regression",
                f"overall={tmp_path / 'ridge.json'}"]
    else:
        argv = ["evaluate", "--bundle", bundle, "--methods", " , ", "--sizes", "4,8",
                "--folds", 2, "--repeats", 1, "--seed", 5]
    assert run_cli(*argv, "--out", tmp_path / "out") == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "validation"
    if case in _BAD_POOL_VALUES:
        assert f"{bundle / 'pool.json'}: values must be numbers" in err["error"]
    assert not (tmp_path / "out").exists()


# every file-input flag and the synth file that is valid for it
_FILE_INPUTS = {
    "items": "items.csv", "scores": "scores.csv", "norm-config": "norm_config.json",
    "ratings": "ratings.csv", "semantic": "semantic.csv", "acoustic": "acoustic.csv",
}


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    data = make_pool_files(root, rated_models=7, embedding_dim=6)
    bundle = ingest(root, data)
    sel = root / "sel"
    assert run_cli("select", "--bundle", bundle, "--method", "random_balanced",
                   "--n", 10, "--seed", 2, "--out", sel) == 0
    return data, bundle, sel / "subset.json"


def _command_reading(flag, path, valid_inputs):
    """A command whose every input is valid except the --flag file, which is path."""
    data, bundle, subset = valid_inputs
    if flag in ("items", "scores", "norm-config"):
        files = {f: path if f == flag else data / _FILE_INPUTS[f]
                 for f in ("items", "scores", "norm-config")}
        return ["ingest", *(a for f, p in files.items() for a in (f"--{f}", p))]
    if flag == "ratings":
        return ["regress", "--bundle", bundle, "--subset", subset, "--ratings", path,
                "--protocol", "lomo"]
    return ["select", "--bundle", bundle, "--method", "random_balanced", "--n", 10,
            "--seed", 2, f"--{flag}", path]


def _assert_rejects_file(argv, path, out, capsys, fragment=""):
    capsys.readouterr()
    assert run_cli(*argv, "--out", out) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "validation"
    assert str(path) in err["error"]
    assert fragment in err["error"]
    assert not out.exists()


@pytest.mark.parametrize("fault", ["missing", "directory", "not_utf8"])
@pytest.mark.parametrize("flag", list(_FILE_INPUTS))
def test_unreadable_input_file_exits_1(tmp_path, capsys, valid_inputs, flag, fault):
    path = tmp_path / "input"
    if fault == "directory":
        path.mkdir()
    elif fault == "not_utf8":
        path.write_bytes(b"\xff\xfe item_id\n")
    argv = _command_reading(flag, path, valid_inputs)
    _assert_rejects_file(argv, path, tmp_path / "out", capsys)


def _edit_row(text, lineno, edit):
    lines = text.splitlines()
    lines[lineno] = ",".join(edit(lines[lineno].split(",")))
    return "\n".join(lines) + "\n"


def _append_row(text, row):
    return text + ",".join(row) + "\n"


def _blank_first_model(text):
    """The CSV with the model_id of every row of the first row's model emptied."""
    lines = text.splitlines()
    model = lines[1].split(",")[0] + ","
    return "\n".join("," + ln[len(model):] if ln.startswith(model) else ln for ln in lines) + "\n"


def _blank_first_dimension(text):
    """The ratings CSV with every row of the first row's dimension given an empty one."""
    lines = text.splitlines()
    dim = "," + lines[1].split(",")[1] + ","
    return "\n".join(ln.replace(dim, ",,") for ln in lines) + "\n"


@pytest.mark.parametrize("flag, corrupt, fragment", [
    ("semantic", lambda t: "", "empty file"),
    ("semantic", lambda t: _edit_row(t, 0, lambda c: ["id", *c[1:]]), "expected header"),
    ("semantic", lambda t: _edit_row(t, 1, lambda c: c[:-1]), "expected 7 fields"),
    ("semantic", lambda t: t + t.splitlines()[1] + "\n", "duplicate embedding"),
    ("semantic", lambda t: _edit_row(t, 1, lambda c: [c[0], "x", *c[2:]]), "non-numeric"),
    ("semantic", lambda t: _append_row(t, ["nope"] + ["1"] * 6), "unknown items"),
    ("semantic", lambda t: _edit_row(t, 2, lambda c: [c[0], "nan", *c[2:]]),
     "non-finite embedding values for item 'i"),
    ("acoustic", lambda t: _edit_row(t, 1, lambda c: [*c[:-1], "-inf"]),
     "non-finite embedding values for item 'i"),
    ("items", lambda t: "", "empty file"),
    ("items", lambda t: _edit_row(t, 0, lambda c: ["id", *c[1:]]), "expected header"),
    ("items", lambda t: _edit_row(t, 1, lambda c: c[:-1]), "expected 5 fields"),
    ("items", lambda t: _edit_row(t, 1, lambda c: [*c[:3], "2", c[4]]), "must be 0 or 1"),
    ("items", lambda t: t + t.splitlines()[1] + "\n", "duplicate item id"),
    ("items", lambda t: t.splitlines()[0] + "\n", "no items"),
    ("scores", lambda t: _edit_row(t, 1, lambda c: [c[0], "nope", c[2]]), "unknown item id"),
    ("scores", lambda t: _edit_row(t, 1, lambda c: [*c[:2], "x"]), "bad raw_value"),
    ("scores", lambda t: t.splitlines()[0] + "\n", "no scores"),
    ("ratings", lambda t: t + t.splitlines()[1] + "\n", "duplicate rating"),
    ("ratings", lambda t: _edit_row(t, 1, lambda c: [*c[:2], "x"]), "bad mean_rating"),
    ("ratings", lambda t: t.splitlines()[0] + "\n", "no ratings"),
    ("norm-config", lambda t: "{", "invalid JSON"),
    ("norm-config", lambda t: "[]", "expected a JSON object"),
    ("items", lambda t: _edit_row(t, 1, lambda c: ["", *c[1:]]), "empty item_id"),
    ("scores", lambda t: _edit_row(t, 1, lambda c: [*c[:2], "1.5"]), "1.5 outside [0,1]"),
    ("scores", lambda t: "\n".join(t.splitlines()[:-1]) + "\n", "missing score cells"),
    ("ratings", lambda t: _edit_row(t, 1, lambda c: [*c[:2], "7"]), "outside the 1-6 scale"),
    ("norm-config", lambda t: "{}", "missing from norm config"),
    ("scores", _blank_first_model, "empty model_id"),
    ("ratings", _blank_first_model, "empty model_id"),
    ("ratings", _blank_first_dimension, "empty dimension"),
    ("scores", lambda t: _edit_row(t, 1, lambda c: [c[0], "", c[2]]), "empty item_id"),
    ("scores", lambda t: _edit_row(t, 1, lambda c: [*c[:2], f'"{"0" * 200_000}"']),
     "field larger than field limit"),
], ids=[
    "embedding_empty", "embedding_header", "embedding_fields", "embedding_duplicate",
    "embedding_non_numeric", "embedding_unknown_item", "embedding_nan", "acoustic_inf",
    "items_empty", "items_header",
    "items_fields", "items_bad_flag", "items_duplicate", "items_none", "scores_unknown_item",
    "scores_bad_value", "scores_none", "ratings_duplicate", "ratings_bad_value",
    "ratings_none", "norm_invalid_json", "norm_not_object", "items_empty_id",
    "scores_out_of_range", "scores_missing_cell", "ratings_off_scale", "norm_missing_metric",
    "scores_empty_model", "ratings_empty_model", "ratings_empty_dimension", "scores_empty_item",
    "scores_quoted_cell_over_csv_limit",
])
def test_malformed_input_file_exits_1(tmp_path, capsys, valid_inputs, flag, corrupt, fragment):
    path = tmp_path / _FILE_INPUTS[flag]
    path.write_text(corrupt((valid_inputs[0] / _FILE_INPUTS[flag]).read_text()))
    argv = _command_reading(flag, path, valid_inputs)
    _assert_rejects_file(argv, path, tmp_path / "out", capsys, fragment)


def _padded_crlf(text):
    """The same CSV with CRLF line ends, space-padded cells and blank rows."""
    lines = [" , ".join(f"  {c} " for c in line.split(",")) for line in text.splitlines()]
    lines[1:1] = ["", "   "]
    lines.append(" , , ")
    return "\r\n".join(lines) + "\r\n\r\n"


def test_csv_inputs_ignore_crlf_padding_and_blank_rows(tmp_path, valid_inputs):
    data, bundle, _ = valid_inputs
    padded = tmp_path / "padded"
    padded.mkdir()
    for name in ("items.csv", "scores.csv", "ratings.csv", "semantic.csv"):
        (padded / name).write_bytes(_padded_crlf((data / name).read_text()).encode())
    assert run_cli("ingest", "--items", padded / "items.csv", "--scores", padded / "scores.csv",
                   "--norm-config", data / "norm_config.json", "--out", tmp_path / "b") == 0
    assert (tmp_path / "b" / "pool.json").read_bytes() == (bundle / "pool.json").read_bytes()

    matrix = _load_bundle(bundle)
    want = load_embedding_csv(data / "semantic.csv", matrix, "semantic")
    got = load_embedding_csv(padded / "semantic.csv", matrix, "semantic")
    assert (got.kind, got.item_ids) == (want.kind, want.item_ids)
    assert np.array_equal(got.vectors, want.vectors)
    want, got = load_ratings(data / "ratings.csv"), load_ratings(padded / "ratings.csv")
    assert (got.model_ids, got.dimensions) == (want.model_ids, want.dimensions)
    assert np.array_equal(got.ratings_unit, want.ratings_unit)


@pytest.mark.parametrize("command", ["select", "evaluate", "synth"])
def test_negative_seed_exits_1(tmp_path, capsys, valid_inputs, command):
    bundle = valid_inputs[1]
    argv = {
        "select": ["select", "--bundle", bundle, "--method", "random_balanced", "--n", 10],
        "evaluate": ["evaluate", "--bundle", bundle, "--methods", "random_balanced",
                     "--sizes", "4,8", "--folds", 2, "--repeats", 1],
        "synth": ["synth", "--models", 4, "--tasks", 2, "--items-per-task", 3],
    }[command]
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cli(*argv, "--seed", -1, "--out", out) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "validation"
    assert "seed must be >= 0" in err["error"]
    assert not out.exists()


def _quickstart_commands():
    """Each command of the fenced block under README's "## Quickstart", as argv."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("## Quickstart", 1)[1]
    block = section.split("```", 2)[1]
    return [shlex.split(cmd) for cmd in block.replace("\\\n", " ").split("\n\n") if cmd.strip()]


def test_readme_quickstart_runs(tmp_path, monkeypatch, capsys):
    # the one edit: --repeats 100 is lowered to 2 so the suite stays fast
    commands = _quickstart_commands()
    assert [argv[:2] for argv in commands] == [
        ["coreselect", cmd] for cmd in ("synth", "ingest", "select", "evaluate", "regress",
                                        "export")
    ]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        argv = argv[1:]
        if "--repeats" in argv:
            argv[argv.index("--repeats") + 1] = "2"
        assert main(argv) == 0, capsys.readouterr().err
        out = tmp_path / argv[argv.index("--out") + 1]
        assert (out / "manifest.json").is_file()
    assert (tmp_path / "eval" / "report.json").is_file()
    assert (tmp_path / "release" / "release.json").is_file()
