"""coreselect benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload anchor_sweep --seed 1 --seconds 30 --trace 0

The run generates the workload's inputs from ``--seed`` in this process,
starts ``worker.py`` (the measured process) with ``src`` on its path and BLAS
pinned to one thread, then checks every operation's outputs here, apart from
the program. Lines starting with ``#`` describe the machine and the samples;
the last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402 - after pinning BLAS threads

import checks  # noqa: E402
import gen  # noqa: E402
from tracing import PER_LAYER_UNITS  # noqa: E402
from workloads import WARMUP, WARMUP_SEED, WORKLOADS, round_ops  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
RUN_LIMIT_S = 170.0


def _inputs(out: Path, spec: dict, seed: int) -> dict[str, str]:
    paths = gen.generate(out, seed=seed, **spec["shape"])
    return {name: str(path) for name, path in paths.items()}


def _digests(directory: Path) -> dict[str, str]:
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _machine() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"# machine nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas.get('name')}-{blas.get('version')} "
            f"blas_threads={THREAD_ENV['OPENBLAS_NUM_THREADS']}")


def _samples(rounds: list[dict], ops: list[dict], stage: str, ok: list[list[bool]],
             per: str | None = None) -> list[float]:
    """Per-sample CPU seconds of one stage, summed over the sample's ops, for
    the samples whose ops all passed; with ``per``, that op field's sum
    divided by the seconds instead."""
    out = []
    for r, rnd in enumerate(rounds):
        totals: dict[str, list[float]] = {}
        failed = set()
        for i, (op, res) in enumerate(zip(ops, rnd["ops"])):
            if op["stage"] != stage:
                continue
            total = totals.setdefault(op["sample"], [0.0, 0.0])
            total[0] += res["cpu"]
            total[1] += op[per] if per else 0.0
            if not ok[r][i]:
                failed.add(op["sample"])
        out.extend(work / t if per else t
                   for key, (t, work) in totals.items() if key not in failed)
    return out


def _check_rounds(work: Path, ops: list[dict], rounds: list[dict], inp) -> list[list[bool]]:
    """Check every op of every round; later rounds must also match round 0 byte for byte."""
    ok = []
    first: dict[str, dict[str, str]] = {}
    for r, rnd in enumerate(rounds):
        rdir = work / f"round{r}"
        row = []
        for op, res in zip(ops, rnd["ops"]):
            if res["rc"] != 0 or res["load_error"]:
                reason = f"exit {res['rc']}" if res["rc"] != 0 else res["load_error"]
            else:
                reason = checks.check_op(rdir, op, inp)
                digest = _digests(rdir / op["out"])
                if reason is None and first.setdefault(op["out"], digest) != digest:
                    reason = "outputs differ from round 0"
            if reason:
                print(f"# FAILED round {r} {' '.join(op['argv'][:1] + [op['out']])}: {reason}")
            row.append(reason is None)
        ok.append(row)
    return ok


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args: argparse.Namespace, work: Path) -> int:
    started = time.monotonic()
    spec = WORKLOADS[args.workload]
    inputs = _inputs(work / "inputs", spec, args.seed)
    ops = round_ops(spec, inputs, args.seed)
    warm_inputs = _inputs(work / "warmup_inputs", WARMUP, WARMUP_SEED)
    plan = {
        "work": str(work), "seconds": args.seconds, "trace": bool(args.trace), "ops": ops,
        "warmup_ops": round_ops(WARMUP, warm_inputs, WARMUP_SEED),
        "spans_path": str(BENCH / ".work" / f"spans-{args.workload}-s{args.seed}.jsonl"),
    }
    (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    with open(work / "worker.log", "wb") as log:
        worker = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(work / "plan.json")],
            cwd=work, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            rc = worker.wait(timeout=max(10.0, RUN_LIMIT_S - (time.monotonic() - started)))
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.wait()
            print("perfbench: the worker ran past the time limit", file=sys.stderr)
            return 3
    if rc != 0:
        log_text = (work / "worker.log").read_text(encoding="utf-8", errors="replace")
        sys.stderr.write(log_text[-4000:])
        print(f"perfbench: the worker exited {rc}", file=sys.stderr)
        return 3
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    rounds = result["rounds"]
    if result["warmup_failures"]:
        print(f"# warm-up: {result['warmup_failures']} operations failed")

    ok = _check_rounds(work, ops, rounds, checks.Inputs(inputs))
    attempted = sum(len(row) for row in ok)
    failed = attempted - sum(sum(row) for row in ok)
    # an op that exited 0 but failed its check makes the run incorrect
    correct = all(res["rc"] != 0 or res["load_error"] or good
                  for rnd, row in zip(rounds, ok) for res, good in zip(rnd["ops"], row))
    print(_machine())
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} rounds={len(rounds)} "
          f"round_s={[round(r['seconds'], 3) for r in rounds]}")
    outputs = json.dumps(_digests(work / "round0"), sort_keys=True).encode()
    print(f"# outputs sha256={hashlib.sha256(outputs).hexdigest()}")

    if args.trace:
        metrics = {}
        for name, (unit, _) in PER_LAYER_UNITS.items():
            metrics[name] = _metric(statistics.median(m[name] for m in result["per_layer"]), unit)
        methods = sorted({m for per in result["per_eval_ms"] for m in per})
        for m in methods:
            ms = statistics.median(per[m] for per in result["per_eval_ms"] if m in per)
            print(f"# ms_per_evaluation {m} {ms:.3f}")
    else:
        samples = {name: _samples(rounds, ops, stage, ok) for name, stage in
                   (("setup_s", "setup"), ("select_s", "select"), ("regress_s", "regress"))}
        samples["evaluate_evals_per_s"] = _samples(rounds, ops, "evaluate", ok,
                                                   per="evaluations")
        empty = [name for name, values in samples.items() if not values]
        if empty:
            print(f"perfbench: no successful samples of {', '.join(empty)}", file=sys.stderr)
            return 4
        for name, values in samples.items():
            print(f"# samples {name} n={len(values)} {[round(v, 4) for v in values]}")
        metrics = {name: _metric(statistics.median(values),
                                 "evals/s" if name.endswith("per_s") else "s")
                   for name, values in samples.items()}
        metrics["peak_rss_mb"] = _metric(result["peak_rss_kb"] / 1024.0, "MB")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "coreselect" / "cli.py").is_file():
        print(f"perfbench: no coreselect sources under {ROOT / 'src'}; "
              "run it from a checkout of the repository", file=sys.stderr)
        return 2
    work = BENCH / ".work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
