"""Shows that every output check catches a wrong output.

Usage, from the root of a checkout: ``python3 perfbench/selfcheck.py``

Runs one small round of the pipeline through ``coreselect.cli.main``, checks
that every operation's outputs pass, then doctors one output at a time (a
shifted ``mean_r``, a perturbed Ridge weight, subset weights that sum to
0.99, ...) and shows that the matching check fails. Exits 1 if a clean output
fails its check or a doctored one passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import checks
import gen
from workloads import round_ops

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / ".work" / f"selfcheck-{os.getpid()}"

SPEC = {
    "shape": {"models": 10, "tasks": 4, "items_per_task": 15, "rated": 6, "emb_dim": 64},
    "setup_reps": 1,
    "select_reps": 1,
    "select": [("anchor_points", 10, []), ("random_sampling_learn", 10, []),
               ("irt_anchor", 10, ["--irt-epochs", "20"])],
    "evaluate": {"methods": ("random_balanced", "anchor_points", "semantic_anchor"),
                 "sizes": (10, 20, 60), "folds": 2, "repeats": 1, "extra": []},
    "full_pool_exact": True,
}


def _edit_json(path: str, fn):
    def apply(rdir: Path) -> None:
        target = rdir / path
        data = json.loads(target.read_text(encoding="utf-8"))
        fn(data)
        target.write_text(json.dumps(data), encoding="utf-8")
    return apply


def _edit_text(path: str, old: str, new: str):
    def apply(rdir: Path) -> None:
        target = rdir / path
        text = target.read_text(encoding="utf-8")
        if old not in text:
            raise RuntimeError(f"{path}: nothing to doctor")
        target.write_text(text.replace(old, new, 1), encoding="utf-8")
    return apply


def _point(data, method="anchor_points", index=0):
    return data["curves"][method]["points"][index]


def _add(getter, key, delta):
    def apply(data):
        getter(data)[key] += delta
    return apply


def _set(getter, key, value):
    def apply(data):
        getter(data)[key] = value
    return apply


def _scale_weights(data, factor):
    for d in data["items"]:
        d["weight"] *= factor


def _starve_anchor(data):
    # move most of one anchor's mass to another; the sum stays 1
    moved = data["items"][0]["weight"] * 0.9
    data["items"][0]["weight"] -= moved
    data["items"][1]["weight"] += moved


def _swap_models(data):
    data["model_ids"][0], data["model_ids"][1] = data["model_ids"][1], data["model_ids"][0]


def _duplicate_item(data):
    data["items"][1]["item_id"] = data["items"][0]["item_id"]


def _double_sem(data):
    _point(data)["sem"] *= 2


def _flip_first_pair(data):
    data["folds"][0]["correct"] = not data["folds"][0]["correct"]


def _move_n90(data):
    summary = data["summaries"]["anchor_points"]
    summary["n90"] = 60 if summary["n90"] != 60 else 10


def _doctor_full_pool(report):
    full = report["curves"]["anchor_points"]["points"][-1]
    full["values"] = [0.999] * len(full["values"])
    full["mean_r"] = 0.999
    full["sem"] = 0.0


def _first_item(data):
    return data["items"][0]


def _first_fold(data):
    return data["folds"][0]


def _ap_summary(data):
    return data["summaries"]["anchor_points"]


POOL = "bundle0/pool.json"
ANCHORS = "sel_anchor_points_0/subset.json"
LEARN = "sel_random_sampling_learn_0/score_regressor.json"
REPORT = "eval/report.json"
LOMO = "reg_lomo_overall/protocol_report.json"
PAIRS = "reg_pairwise52_overall/protocol_report.json"
RELEASE = "release/release.json"

# (what is wrong, the op whose check must catch it, how the output is doctored)
CASES = [
    ("pool value +1e-9", "bundle0", _edit_json(POOL, _add(lambda d: d["values"][2], 3, 1e-9))),
    ("pool model ids unsorted", "bundle0", _edit_json(POOL, _swap_models)),
    ("subset weights sum to 0.99", "sel_anchor_points_0",
     _edit_json(ANCHORS, lambda d: _scale_weights(d, 0.99))),
    ("anchor weight below its balance weight", "sel_anchor_points_0",
     _edit_json(ANCHORS, _starve_anchor)),
    ("duplicate subset item", "sel_anchor_points_0",
     _edit_json(ANCHORS, _duplicate_item)),
    ("learn regressor weight +1e-3", "sel_random_sampling_learn_0",
     _edit_json(LEARN, _add(_first_item, "weight", 1e-3))),
    ("learn regressor lambda off the grid", "sel_random_sampling_learn_0",
     _edit_json(LEARN, _set(lambda d: d, "lambda", 0.5))),
    ("IRT model item dropped", "sel_irt_anchor_0",
     _edit_json("sel_irt_anchor_0/irt_model.json", lambda d: d["items"].pop())),
    ("mean_r shifted by 1e-6", "eval", _edit_json(REPORT, _add(_point, "mean_r", 1e-6))),
    ("sem doubled", "eval", _edit_json(REPORT, _double_sem)),
    ("correlation value 1.5", "eval",
     _edit_json(REPORT, _set(lambda d: _point(d)["values"], 0, 1.5))),
    ("one evaluation missing", "eval", _edit_json(REPORT, lambda d: _point(d)["values"].pop())),
    ("AUCC shifted by 1e-6", "eval", _edit_json(REPORT, _add(_ap_summary, "aucc", 1e-6))),
    ("N90 moved", "eval", _edit_json(REPORT, _move_n90)),
    ("full-pool Pearson 0.999", "eval", _edit_json(REPORT, _doctor_full_pool)),
    ("curves.csv row edited", "eval",
     _edit_text("eval/curves.csv", "anchor_points,10,0.", "anchor_points,10,-0.")),
    ("preference Ridge weight +1e-3", "reg_lomo_overall",
     _edit_json("reg_lomo_overall/ridge_overall.json", _add(_first_item, "weight", 1e-3))),
    ("LOMO fold missing", "reg_lomo_overall", _edit_json(LOMO, lambda d: d["folds"].pop())),
    ("LOMO fold Pearson shifted by 1e-4", "reg_lomo_overall",
     _edit_json(LOMO, _add(_first_fold, "pearson_r", -1e-4))),
    ("5-2 accuracy altered", "reg_pairwise52_overall",
     _edit_json(PAIRS, _add(lambda d: d, "accuracy", -1.0 / 15))),
    ("5-2 correct flag flipped", "reg_pairwise52_overall",
     _edit_json(PAIRS, _flip_first_pair)),
    ("5-2 prediction perturbed", "reg_pairwise52_overall",
     _edit_json(PAIRS, _add(lambda d: d["folds"][0]["predictions"], 0, 1e-3))),
    ("release subset differs from subset.json", "release",
     _edit_json(RELEASE, lambda d: d["benchmark_mode"]["items"].reverse())),
    ("release regressor missing", "release",
     _edit_json(RELEASE, lambda d: d["regression_mode"].pop("quality"))),
]


def main() -> int:
    if not (ROOT / "src" / "coreselect" / "cli.py").is_file():
        print(f"selfcheck: no coreselect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from coreselect import cli

    WORK.mkdir(parents=True)
    try:
        inputs = {k: str(v) for k, v in
                  gen.generate(WORK / "inputs", seed=3, **SPEC["shape"]).items()}
        inp = checks.Inputs(inputs)
        ops = {op["out"]: op for op in round_ops(SPEC, inputs, 3)}
        clean = WORK / "clean"
        clean.mkdir()
        os.chdir(clean)
        for op in ops.values():
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(op["argv"])
            if rc != 0:
                print(f"selfcheck: {op['argv'][0]} {op['out']} exited {rc}", file=sys.stderr)
                return 1
        bad = 0
        for op in ops.values():
            reason = checks.check_op(clean, op, inp)
            if reason is not None:
                print(f"FAIL clean {op['out']}: {reason}")
                bad += 1
        for label, out, doctor in CASES:
            copy = WORK / "doctored"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(clean, copy)
            doctor(copy)
            reason = checks.check_op(copy, ops[out], inp)
            print(f"{'caught' if reason else 'MISSED'}  {label:42s} {reason or ''}")
            bad += reason is None
        print(f"selfcheck: {len(CASES)} doctored outputs, {bad} problems")
        return 1 if bad else 0
    finally:
        os.chdir(ROOT)
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
