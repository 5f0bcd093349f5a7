"""Time one fold of a paper-shape evaluate: each method's prepare and select.

Generates perfbench's paper_scale inputs (the shape that
``perfbench/workloads.py`` gives: 18 models x 40 tasks x 417 items = 16,680
items, 64-wide semantic and acoustic embeddings) with ``perfbench/gen.py`` at
input seed 1 in a temporary directory, ingests them, and takes one fold's
source models: the first 12, the source-model count of a 3-fold split. For
each method, with the selector seed 3, it times the prepare step once (with
n the largest size, as ``evaluation`` does) and the select step at every
size, in CPU time with BLAS pinned to one thread. After each timed select
it runs the same select once more, untimed, under ``tracemalloc``, whose
peak (``traced_peak_mb``, in MiB as perfbench's ``peak_rss_mb``) is what
that select allocates on top of the loaded inputs and the prepared fold.
It prints one JSON line per (method, size) with that peak and the SHA-256
of the selected item ids, then one line with the projected hours of a
3-fold x 100-repeat evaluate of the timed sizes (300 folds of prepare plus
every select; score steps, at most about 0.014 s each, are left out):

    python scripts/paper_cost.py --methods random_search_learn --sizes 350,1000
    python scripts/paper_cost.py --root /path/to/other/checkout --sizes 10,100

``--root`` is the checkout whose ``src/`` is imported (default: the one
holding this script); the inputs always come from this script's
``perfbench/gen.py``, so two checkouts are timed on the same inputs, and
equal digests mean equal subsets. Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads, as perfbench's worker does

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "perfbench"))
import gen  # noqa: E402 - perfbench's modules import each other by bare name
from workloads import WORKLOADS  # noqa: E402

SHAPE = WORKLOADS["paper_scale"]["shape"]
SOURCE_MODELS = 12
INPUT_SEED = 1
SELECT_SEED = 3
FOLDS, REPEATS = 3, 100


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--methods", help="comma-separated methods (default: all)")
    parser.add_argument("--sizes", help="comma-separated sizes (default: evaluate's DEFAULT_SIZES)")
    parser.add_argument("--root", type=Path, default=HERE, help="checkout whose src/ is timed")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.root.resolve() / "src"))
    from coreselect.embeddings import load_embedding_csv
    from coreselect.evaluation import DEFAULT_SIZES
    from coreselect.pool import load_pool
    from coreselect.selectors import METHODS, SelectorConfig

    methods = args.methods.split(",") if args.methods else list(METHODS)
    sizes = [int(s) for s in args.sizes.split(",")] if args.sizes else list(DEFAULT_SIZES)
    with tempfile.TemporaryDirectory() as tmp:
        paths = gen.generate(Path(tmp), seed=INPUT_SEED, **SHAPE)
        matrix = load_pool(paths["items"], paths["scores"], paths["norm_config"])
        semantic = load_embedding_csv(paths["semantic"], matrix, "semantic")
        acoustic = load_embedding_csv(paths["acoustic"], matrix, "acoustic")
    source = matrix.submatrix(list(matrix.model_ids[:SOURCE_MODELS]))

    hours = {}
    for method in methods:
        prepare, select, _ = METHODS[method]
        config = SelectorConfig(method, n=max(sizes), seed=SELECT_SEED)
        start = time.process_time()
        prepared = prepare(source, config, semantic, acoustic)
        prepare_s = time.process_time() - start
        fold_s = prepare_s
        for n in sizes:
            start = time.process_time()
            subset = select(source, replace(config, n=n), prepared)[0]
            select_s = time.process_time() - start
            fold_s += select_s
            tracemalloc.start()
            select(source, replace(config, n=n), prepared)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            digest = hashlib.sha256("\n".join(subset.item_ids).encode()).hexdigest()
            print(json.dumps({"method": method, "n": n, "prepare_s": round(prepare_s, 4),
                              "select_s": round(select_s, 4), "traced_peak_mb": round(peak_mb, 2),
                              "ids_sha256": digest}), flush=True)
        hours[method] = round(fold_s * FOLDS * REPEATS / 3600, 3)
    print(json.dumps({"projection": f"{FOLDS} folds x {REPEATS} repeats", "sizes": sizes,
                      "hours": hours, "total_hours": round(sum(hours.values()), 3)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
