"""Workload definitions: input shapes and the CLI calls of one round.

A round is one pass of ``ingest -> select -> evaluate -> regress -> export``
through ``coreselect.cli.main``. Every CLI call is one operation. Stages that
are short on a workload repeat within the round (``setup_reps`` and
``select_reps``), so that each run holds several samples of them. Select
repetition r passes ``--seed`` workload seed + r: the Lloyd iterations of an
anchor select vary with its K-Means seed (4 to 11 for one 200-item pool), so
one seed repeated would tie a run's ``select_s`` to that seed's count.

The host's speed drifts by about 10% over seconds, so a stage timed in one
contiguous slice of the round inherits that slice's speed. After the first
set-up and the first select, which the later ops read, each stage's ops are
spread evenly over the round instead.
"""

from __future__ import annotations

from gen import DIMENSIONS

EMBEDDING_METHODS = ("semantic_anchor", "acoustic_anchor", "combined_anchor")
SEVEN_NON_FITTING = ("random_balanced", "variance_top", "difficulty_stratified",
                     "anchor_points", *EMBEDDING_METHODS)

WORKLOADS = {
    # Quickstart shape. Every evaluation costs milliseconds, so the time goes to
    # weighted K-Means on small pools, PCA re-run per size, and harness overhead.
    # The size grid ends at the full pool, where every method must score exactly
    # the reference. No M2PL fit and no learn-method Ridge.
    "anchor_sweep": {
        "shape": {"models": 18, "tasks": 8, "items_per_task": 25, "rated": 7, "emb_dim": 64},
        "setup_reps": 3,
        "select_reps": 6,
        "select": [("anchor_points", 20, [])],
        "evaluate": {"methods": SEVEN_NON_FITTING, "sizes": (10, 20, 50, 100, 200),
                     "folds": 3, "repeats": 2, "extra": []},
        "full_pool_exact": True,
    },
    # Quickstart shape with 12 rated models and no embeddings: Ridge solves
    # and M2PL fits carry nearly all the time.
    "model_fit": {
        "shape": {"models": 18, "tasks": 8, "items_per_task": 25, "rated": 12, "emb_dim": 0},
        "setup_reps": 3,
        "select_reps": 1,
        "select": [("random_search_learn", 50, []), ("irt_anchor", 50, [])],
        "evaluate": {"methods": ("random_sampling_learn", "random_search_learn", "irt_anchor"),
                     "sizes": (10, 20, 50), "folds": 3, "repeats": 2,
                     "extra": ["--n-search", "50"]},
        "full_pool_exact": False,
    },
    # The paper's shape, 18 models x 40 tasks x 417 items (16,680 items):
    # costs that grow with item count -- per-cell CSV ingest, the pool.json
    # parse in every command, embedding CSV loads, K-Means over 16.7k points,
    # balance weights recomputed per candidate draw -- and memory.
    "paper_scale": {
        "shape": {"models": 18, "tasks": 40, "items_per_task": 417, "rated": 9, "emb_dim": 64},
        "setup_reps": 1,
        "select_reps": 1,
        "select": [("combined_anchor", 50, []), ("random_search_learn", 50, [])],
        # Lloyd iterations to a fixpoint over 16.7k points vary ~20% per call with
        # the seed, so the sizes run as separate calls spread over the round: 9
        # anchor_points K-Means runs per sample, at three times in the round.
        "evaluate": {"methods": ("random_balanced", "variance_top", "difficulty_stratified",
                                 "anchor_points"),
                     "sizes": (40, 50, 60), "folds": 3, "repeats": 1, "extra": [],
                     "call_per_size": True},
        "full_pool_exact": False,
    },
}

# A tiny fixed pool that runs every command and every method family once before
# the first timed stage: imports, BLAS start-up and first-call paths.
WARMUP = {
    "shape": {"models": 10, "tasks": 4, "items_per_task": 15, "rated": 6, "emb_dim": 64},
    "setup_reps": 1,
    "select_reps": 1,
    "select": [("combined_anchor", 10, []), ("semantic_anchor", 10, []),
               ("random_search_learn", 10, ["--n-search", "5"]),
               ("irt_anchor", 10, ["--irt-epochs", "20"])],
    "evaluate": {"methods": ("random_balanced", "anchor_points", "random_sampling_learn"),
                 "sizes": (5, 10), "folds": 2, "repeats": 1, "extra": []},
    "full_pool_exact": False,
}
WARMUP_SEED = 0


def round_ops(spec: dict, inputs: dict[str, str], seed: int) -> list[dict]:
    """The CLI calls of one round, in order.

    Each op carries its ``stage``, the ``sample`` it is timed in (ops with the
    same sample key are summed), its ``argv`` and its output directory ``out``.
    Output directories are relative to the round's directory.
    """
    embeddings = {k: inputs[k] for k in ("semantic", "acoustic") if k in inputs}
    emb_flags = [f for k, p in embeddings.items() for f in (f"--{k}", p)]
    setups, selects, regresses = [], [], []
    for rep in range(spec["setup_reps"]):
        out = f"bundle{rep}"
        setups.append({
            "stage": "setup", "sample": f"setup{rep}", "out": out,
            "argv": ["ingest", "--items", inputs["items"], "--scores", inputs["scores"],
                     "--norm-config", inputs["norm_config"], "--out", out],
            "load": {"bundle": out, "embeddings": embeddings},
        })
    for rep in range(spec["select_reps"]):
        for method, n, extra in spec["select"]:
            out = f"sel_{method}_{rep}"
            selects.append({
                "stage": "select", "sample": f"select{rep}", "out": out,
                "method": method, "n": n,
                "argv": ["select", "--bundle", "bundle0", "--method", method, "--n", str(n),
                         "--seed", str(seed + rep), "--out", out, *extra,
                         *(emb_flags if method in EMBEDDING_METHODS else [])],
            })
    ev = spec["evaluate"]
    grids = [[n] for n in ev["sizes"]] if ev.get("call_per_size") else [list(ev["sizes"])]
    evaluates = []
    for sizes in grids:
        out = f"eval_{sizes[0]}" if len(grids) > 1 else "eval"
        evaluates.append({
            "stage": "evaluate", "sample": "evaluate", "out": out,
            "evaluations": len(ev["methods"]) * len(sizes) * ev["folds"] * ev["repeats"],
            "methods": list(ev["methods"]), "sizes": sizes,
            "folds": ev["folds"], "repeats": ev["repeats"],
            "full_pool_exact": spec["full_pool_exact"],
            "argv": ["evaluate", "--bundle", "bundle0", "--methods", ",".join(ev["methods"]),
                     "--sizes", ",".join(map(str, sizes)), "--folds", str(ev["folds"]),
                     "--repeats", str(ev["repeats"]), "--seed", str(seed), "--out", out,
                     *ev["extra"],
                     *(emb_flags if set(ev["methods"]) & set(EMBEDDING_METHODS) else [])],
        })
    subset = f"sel_{spec['select'][0][0]}_0/subset.json"
    for protocol in ("lomo", "pairwise52"):
        for dim in DIMENSIONS:
            out = f"reg_{protocol}_{dim}"
            regresses.append({
                "stage": "regress", "sample": "regress", "out": out,
                "subset": subset, "protocol": protocol, "dimension": dim,
                "argv": ["regress", "--bundle", "bundle0", "--subset", subset,
                         "--ratings", inputs["ratings"], "--protocol", protocol,
                         "--dimension", dim, "--out", out],
            })
    export = {
        "stage": "export", "sample": "export", "out": "release", "subset": subset,
        "argv": ["export", "--subset", subset, "--out", "release",
                 *[f for d in DIMENSIONS
                   for f in ("--regression", f"{d}=reg_lomo_{d}/ridge_{d}.json")]],
    }
    spread = [setups[1:], selects[1:], evaluates, regresses]
    keyed = sorted(((i + 0.5) / len(group), g, op)
                   for g, group in enumerate(spread) for i, op in enumerate(group))
    return [setups[0], selects[0], *(op for _, _, op in keyed), export]
