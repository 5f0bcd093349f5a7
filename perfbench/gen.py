"""Seeded synthetic inputs for the benchmark workloads, with numpy only.

The generator belongs to the benchmark, not to the program under test, so a
change to ``coreselect.synth`` cannot change what the benchmark measures.
It writes the files ``coreselect ingest``, ``select --semantic/--acoustic``
and ``regress --ratings`` read:

* ``items.csv``: every task has the same number of items; item ids are a
  seeded permutation, so pool order differs from item-id order (the anchor
  selectors sort by item id);
* ``scores.csv``: one row per cell, models in a seeded order (ingest sorts
  them); score = sigmoid(ability - item difficulty + noise), kept in [0, 1];
* ``norm_config.json``: the one metric ``acc`` with the identity rule;
* ``ratings.csv``: five 1-6 rating dimensions for a seeded subset of the
  models, each the model's task-averaged score plus small noise;
* ``semantic.csv`` and ``acoustic.csv`` when ``emb_dim > 0``: task-clustered
  and audio-flag-clustered Gaussian vectors of width ``emb_dim``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

DIMENSIONS = ("overall", "understanding", "naturalness", "quality", "effectiveness")
METRIC = "acc"
NOISE = 0.8  # standard deviation of the per-cell logit noise


def _write_rows(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def generate(out: Path, models: int, tasks: int, items_per_task: int, rated: int,
             emb_dim: int, seed: int) -> dict[str, Path]:
    """Write one workload's inputs under ``out`` and return their paths."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, models, tasks, items_per_task]))
    n_items = tasks * items_per_task
    task_of = np.repeat(np.arange(tasks), items_per_task)
    item_ids = [f"q{i:05d}" for i in rng.permutation(n_items)]
    task_ids = [f"task{t:03d}" for t in task_of]
    audio = rng.random((n_items, 2)) < 0.5

    ability = rng.standard_normal(models)
    difficulty = rng.standard_normal(tasks)[task_of] + 0.5 * rng.standard_normal(n_items)
    z = ability[:, None] - difficulty[None, :] + NOISE * rng.standard_normal((models, n_items))
    values = 1.0 / (1.0 + np.exp(-z))
    model_ids = [f"model{k:03d}" for k in range(models)]

    paths = {name: out / f"{name}.csv" for name in ("items", "scores", "ratings")}
    paths["norm_config"] = out / "norm_config.json"
    _write_rows(paths["items"],
                ["item_id", "task_id", "metric", "needs_audio_in", "needs_audio_out"],
                ([i, t, METRIC, int(a), int(b)]
                 for i, t, (a, b) in zip(item_ids, task_ids, audio)))
    _write_rows(paths["scores"], ["model_id", "item_id", "raw_value"],
                ([model_ids[k], i, repr(v)]
                 for k in rng.permutation(models)
                 for i, v in zip(item_ids, values[k].tolist())))
    paths["norm_config"].write_text(json.dumps({METRIC: {"kind": "identity"}}) + "\n",
                                    encoding="utf-8")

    reference = np.stack([values[:, task_of == t].mean(axis=1) for t in range(tasks)]).mean(axis=0)
    rated_rows = rng.permutation(models)[:rated]
    level = np.clip(reference[rated_rows, None]
                    + 0.05 * rng.standard_normal((rated, len(DIMENSIONS))), 0.0, 1.0)
    _write_rows(paths["ratings"], ["model_id", "dimension", "mean_rating"],
                ([model_ids[k], d, repr(1.0 + 5.0 * float(level[r, j]))]
                 for r, k in enumerate(rated_rows) for j, d in enumerate(DIMENSIONS)))

    if emb_dim > 0:
        centres = {
            "semantic": (rng.standard_normal((tasks, emb_dim)), task_of),
            "acoustic": (rng.standard_normal((4, emb_dim)), audio[:, 0] * 2 + audio[:, 1]),
        }
        for kind, (centre, group) in centres.items():
            vectors = centre[group] + 0.7 * rng.standard_normal((n_items, emb_dim))
            paths[kind] = out / f"{kind}.csv"
            _write_rows(paths[kind], ["item_id"] + [f"v{j}" for j in range(emb_dim)],
                        ([i] + [repr(v) for v in row]
                         for i, row in zip(item_ids, vectors.tolist())))
    return paths
