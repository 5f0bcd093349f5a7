"""The measured process: runs a workload's rounds through ``coreselect.cli.main``.

Usage: ``python3 perfbench/worker.py PLAN.json`` with ``src`` on PYTHONPATH.
``perfbench/run.py`` writes the plan, starts this process with BLAS pinned to
one thread, and checks the outputs after it ends. The worker runs the warm-up
ops once, then whole rounds, at least one, stopping at the round end nearest
to the plan's ``seconds``. With ``trace`` set it wraps the program's layers
first (see ``tracing.py``) and reports per-layer metrics per round. It writes
each op's CPU time and the peak resident memory to ``result.json``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time


def _run_cli(cli, argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit instead of returning
        return exc.code if isinstance(exc.code, int) else 2


def _run_ops(cli, embeddings, ops: list[dict], out_dir: Path) -> list[dict]:
    out_dir.mkdir(parents=True)
    os.chdir(out_dir)
    results = []
    for op in ops:
        cpu = process_time()
        rc = _run_cli(cli, op["argv"])
        error = None
        if "load" in op and rc == 0:
            # the rest of set-up: what every later command pays before it works
            try:
                matrix = cli._load_bundle(op["load"]["bundle"])
                for kind, path in op["load"]["embeddings"].items():
                    embeddings.load_embedding_csv(path, matrix, kind)
            except Exception as exc:  # noqa: BLE001 - reported as a failed operation
                error = f"{type(exc).__name__}: {exc}"
        results.append({"rc": rc, "cpu": process_time() - cpu, "load_error": error})
    return results


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    work = Path(plan["work"])
    tracer = None
    if plan["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    from coreselect import cli, embeddings

    warmup = _run_ops(cli, embeddings, plan["warmup_ops"], work / "warmup")
    rounds, per_layer, per_eval_ms = [], [], []
    start = perf_counter()
    while True:
        lo = len(tracer.spans) if tracer else 0
        round_start = perf_counter()
        ops = _run_ops(cli, embeddings, plan["ops"], work / f"round{len(rounds)}")
        rounds.append({"ops": ops, "seconds": perf_counter() - round_start})
        if tracer:
            metrics, ms = tracer.summarize(lo, len(tracer.spans))
            per_layer.append(metrics)
            per_eval_ms.append(ms)
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / len(rounds) > plan["seconds"]:
            break  # stopping now ends nearer to the time asked for than one more round
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.write(plan["spans_path"])
    result = {
        "warmup_failures": sum(op["rc"] != 0 or op["load_error"] is not None for op in warmup),
        "rounds": rounds,
        "peak_rss_kb": peak_rss_kb,
        "per_layer": per_layer,
        "per_eval_ms": per_eval_ms,
    }
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
