"""Digest every output of one fixed run of the CLI pipeline.

Runs synth -> ingest -> select -> evaluate -> regress -> export through
``coreselect.cli.main`` in a temporary directory and prints ``sha256  relpath``
for every file written there, sorted by path. Two source trees that print the
same lines produce byte-identical outputs on this run:

    python scripts/pipeline_digest.py > change.txt
    python scripts/pipeline_digest.py /path/to/other/checkout > parent.txt
    diff parent.txt change.txt

The optional argument is the root of the checkout whose ``src/`` is imported
(default: the checkout holding this script).

The run: a synth pool of 18 models x 8 tasks x 25 items with 24-wide
semantic and acoustic embeddings and ratings for 7 models; ingest; select of
every method at n=20 (20 search draws); random_search_learn selects at n=20,
50 and 200 with the default 1,000 search draws, whose candidates are scored
in stacks of 13 with a last one of 12, stacks of 6 with a last one of 4, and
one at a time (see ``selectors._SEARCH_BATCH_ELEMENTS``); irt_anchor
selects at n=20 with ``--irt-dim 1`` and with ``--irt-epochs 37 --irt-lr
0.5``, whose M2PL fits take a shape and a step size the defaults do not;
evaluate of every method at sizes 10,20,50,200 (3 folds x 2 repeats, 20
search draws), once with --jobs 1 and once with --jobs 2;
regress with lomo and pairwise52 on every rated dimension for every subset;
export of every subset with its lomo regressors.

A second synth pool of 18 models x 40 tasks x 100 items (4,000 items) runs
one anchor_points select at n=60, one irt_anchor select at n=60 (an 18 x 4,000
M2PL fit) and one anchor_points evaluate at sizes 50,60 (3 folds x 1 repeat).
Its K-Means calls have n·k of at least 200,000, so they take the bounded Lloyd
steps of ``selectors.weighted_kmeans`` that the small pool never reaches.

A third synth pool of 6 models x 3 tasks x 6 items has its CSV inputs
rewritten with LF line ends and space-padded cells, and in the scores and
semantic files one quoted cell, before ingest, a combined_anchor select at
n=6 and a lomo regress. Synth writes CRLF and no quotes, so this pool keeps
the ``csv.reader`` path of the chunked CSV reader, and LF text on its split
path, under the digest.

A fourth synth pool of 6 models x 3 tasks x 8 items has the scores of each
group of four items in its first two tasks replaced by those of the group's
first item, leaving 12 distinct score columns among 24 items. anchor_points
selects at n=24 and n=8 put the two tie rules of ``selectors.weighted_kmeans``
under the digest: at n=24 the k-means++ seeding mass reaches zero after 12
seeds, so the rest take the first unused row, and at n=8 clusters hold
identical items, whose anchor is the lowest row among the exact minima.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

DIMENSIONS = ("overall", "understanding", "naturalness", "quality", "effectiveness")
SEED = 7


def _run(cli_main, *argv) -> None:
    argv = [str(a) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    if code != 0:
        sys.exit(f"pipeline_digest: exit {code} from {' '.join(argv)}\n{err.getvalue()}")


def run_pipeline(cli_main, methods, root: Path) -> None:
    data, bundle = root / "data", root / "bundle"
    _run(cli_main, "synth", "--models", 18, "--tasks", 8, "--items-per-task", 25,
         "--embedding-dim", 24, "--rated-models", 7, "--seed", SEED, "--out", data)
    _run(cli_main, "ingest", "--items", data / "items.csv", "--scores", data / "scores.csv",
         "--norm-config", data / "norm_config.json", "--out", bundle)
    embeddings = ("--semantic", data / "semantic.csv", "--acoustic", data / "acoustic.csv")
    for method in methods:
        _run(cli_main, "select", "--bundle", bundle, "--method", method, "--n", 20,
             "--seed", SEED, "--n-search", 20, *embeddings, "--out", root / "select" / method)
    for n in (20, 50, 200):  # the default --n-search of 1,000
        _run(cli_main, "select", "--bundle", bundle, "--method", "random_search_learn",
             "--n", n, "--seed", SEED, "--out", root / "select_search_default" / f"n{n}")
    for name, flags in (("dim1", ("--irt-dim", 1)),
                        ("epochs37_lr0.5", ("--irt-epochs", 37, "--irt-lr", 0.5))):
        _run(cli_main, "select", "--bundle", bundle, "--method", "irt_anchor", "--n", 20,
             "--seed", SEED, *flags, "--out", root / "select_irt" / name)
    for jobs in (1, 2):
        _run(cli_main, "evaluate", "--bundle", bundle, "--methods", ",".join(methods),
             "--sizes", "10,20,50,200", "--folds", 3, "--repeats", 2, "--n-search", 20,
             "--seed", SEED, "--jobs", jobs, *embeddings, "--out", root / f"evaluate_jobs{jobs}")
    for method in methods:
        subset = root / "select" / method / "subset.json"
        regressors = []
        for protocol in ("lomo", "pairwise52"):
            for dim in DIMENSIONS:
                out = root / "regress" / method / protocol / dim
                _run(cli_main, "regress", "--bundle", bundle, "--subset", subset,
                     "--ratings", data / "ratings.csv", "--protocol", protocol,
                     "--dimension", dim, "--out", out)
                if protocol == "lomo":
                    regressors += ["--regression", f"{dim}={out / f'ridge_{dim}.json'}"]
        _run(cli_main, "export", "--subset", subset, *regressors,
             "--out", root / "export" / method)


def run_large_pool(cli_main, root: Path) -> None:
    data, bundle = root / "large" / "data", root / "large" / "bundle"
    _run(cli_main, "synth", "--models", 18, "--tasks", 40, "--items-per-task", 100,
         "--seed", SEED, "--out", data)
    _run(cli_main, "ingest", "--items", data / "items.csv", "--scores", data / "scores.csv",
         "--norm-config", data / "norm_config.json", "--out", bundle)
    _run(cli_main, "select", "--bundle", bundle, "--method", "anchor_points", "--n", 60,
         "--seed", SEED, "--out", root / "large" / "select")
    _run(cli_main, "select", "--bundle", bundle, "--method", "irt_anchor", "--n", 60,
         "--seed", SEED, "--out", root / "large" / "select_irt")
    _run(cli_main, "evaluate", "--bundle", bundle, "--methods", "anchor_points",
         "--sizes", "50,60", "--folds", 3, "--repeats", 1, "--seed", SEED,
         "--out", root / "large" / "evaluate")


def _rewrite_csv(text: str, quote: bool) -> str:
    """The CSV with LF line ends and space-padded cells; with ``quote``, the
    first cell of the second data row is quoted, padded inside the quotes."""
    lines = []
    for lineno, line in enumerate(text.splitlines()):
        cells = [f" {c}  " for c in line.split(",")]
        if quote and lineno == 2:
            cells[0] = f'"  {cells[0].strip()} "'
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def run_rewritten_pool(cli_main, root: Path) -> None:
    data, bundle = root / "rewritten" / "data", root / "rewritten" / "bundle"
    _run(cli_main, "synth", "--models", 6, "--tasks", 3, "--items-per-task", 6,
         "--embedding-dim", 8, "--rated-models", 6, "--seed", SEED, "--out", data)
    for name in ("items", "scores", "ratings", "semantic", "acoustic"):
        path = data / f"{name}.csv"
        text = path.read_text(encoding="utf-8")
        path.write_bytes(_rewrite_csv(text, name in ("scores", "semantic")).encode())
    _run(cli_main, "ingest", "--items", data / "items.csv", "--scores", data / "scores.csv",
         "--norm-config", data / "norm_config.json", "--out", bundle)
    select = root / "rewritten" / "select"
    _run(cli_main, "select", "--bundle", bundle, "--method", "combined_anchor", "--n", 6,
         "--seed", SEED, "--semantic", data / "semantic.csv", "--acoustic", data / "acoustic.csv",
         "--out", select)
    _run(cli_main, "regress", "--bundle", bundle, "--subset", select / "subset.json",
         "--ratings", data / "ratings.csv", "--protocol", "lomo", "--out",
         root / "rewritten" / "regress")


def _share_scores(text: str, group: int, items: int) -> str:
    """The scores CSV with each of the first ``items`` items (in synth's
    order) given the scores of the first item of its group of ``group``."""
    lines = text.splitlines()
    item_ids = list(dict.fromkeys(line.split(",")[1] for line in lines[1:]))
    source = {item_ids[i]: item_ids[i - i % group] for i in range(items)}
    raw = {tuple(line.split(",")[:2]): line.split(",")[2] for line in lines[1:]}
    rows = [lines[0]]
    for line in lines[1:]:
        model, item, value = line.split(",")
        rows.append(f"{model},{item},{raw[model, source.get(item, item)]}")
    return "\n".join(rows) + "\n"


def run_duplicate_pool(cli_main, root: Path) -> None:
    data, bundle = root / "duplicates" / "data", root / "duplicates" / "bundle"
    _run(cli_main, "synth", "--models", 6, "--tasks", 3, "--items-per-task", 8,
         "--seed", SEED, "--out", data)
    scores = data / "scores.csv"
    scores.write_text(_share_scores(scores.read_text(encoding="utf-8"), 4, 16), encoding="utf-8")
    _run(cli_main, "ingest", "--items", data / "items.csv", "--scores", scores,
         "--norm-config", data / "norm_config.json", "--out", bundle)
    for n in (24, 8):
        _run(cli_main, "select", "--bundle", bundle, "--method", "anchor_points", "--n", n,
             "--seed", SEED, "--out", root / "duplicates" / f"select_n{n}")


def main() -> None:
    checkout = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(checkout.resolve() / "src"))
    from coreselect.cli import main as cli_main
    from coreselect.selectors import METHODS
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        run_pipeline(cli_main, METHODS, root)
        run_large_pool(cli_main, root)
        run_rewritten_pool(cli_main, root)
        run_duplicate_pool(cli_main, root)
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(root).as_posix()}")


if __name__ == "__main__":
    main()
