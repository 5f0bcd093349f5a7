"""Command-line surface: ingest, select, evaluate, regress, synth, export.

Every command writes its primary outputs plus a run manifest (command, config
echo, seed, input digests, tool version). Outputs contain no wall-clock
state, so a rerun with identical inputs and seed is byte-identical. All
randomized commands require an explicit --seed.

Exit codes: 0 success, 1 validation error, 2 internal error; errors go to
stderr as one JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Iterable

import numpy as np

from . import __version__
from .errors import ValidationError
from .pool import ScoreMatrix, load_pool, load_ratings, read_json
from .embeddings import load_embedding_csv
from .weighting import SubsetSpec
from .selectors import METHODS, SelectorConfig
from .regression import PREFERENCE_LAMBDA_GRID, RidgeModel, pairwise_52, preference_lomo, ridge_cv
from .evaluation import CORRELATION_METRICS, DEFAULT_SIZES, EvalReport, crossval_curves
from .synth import SynthConfig, gen_benchmark, write_benchmark_files, write_ratings_file


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_canonical_json(obj), encoding="utf-8")


def _json_array(elements: Iterable[str], depth: int) -> str:
    """Encoded JSON values as one array, laid out as ``_canonical_json`` lays
    out an array nested ``depth`` levels deep."""
    inner = "\n" + "  " * (depth + 1)
    body = ("," + inner).join(elements)
    return f"[{inner}{body}\n{'  ' * depth}]" if body else "[]"


def _pool_json(matrix: ScoreMatrix) -> str:
    """``_canonical_json(matrix.to_json_dict())``, assembled directly. With an
    indent, ``json.dumps`` runs CPython's pure-Python encoder, which takes two
    to three times as long on a paper-size pool."""
    string = json.encoder.encode_basestring_ascii
    pad = "\n      "
    items = (
        f'{{{pad}"item_id": {string(it.item_id)},{pad}"metric": {string(it.metric_name)},'
        f'{pad}"needs_audio_in": {int(it.needs_audio_in)},'
        f'{pad}"needs_audio_out": {int(it.needs_audio_out)},'
        f'{pad}"task_id": {string(it.task_id)}\n    }}'
        for it in matrix.items
    )
    values = (_json_array(map(float.__repr__, row), 2) for row in matrix.values.tolist())
    return (f'{{\n  "items": {_json_array(items, 1)},\n'
            f'  "model_ids": {_json_array(map(string, matrix.model_ids), 1)},\n'
            f'  "values": {_json_array(values, 1)}\n}}\n')


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict, seed: int | None,
                    inputs: dict[str, Path]) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": {name: _sha256(p) for name, p in sorted(inputs.items())},
        "version": __version__,
    }
    _write_json(out_dir / "manifest.json", manifest)


def _load_bundle(bundle_dir: str) -> ScoreMatrix:
    path = Path(bundle_dir) / "pool.json"
    if not path.exists():
        raise ValidationError(f"no pool bundle at {path}")
    return read_json(path, ScoreMatrix.from_json_dict)


def cmd_ingest(args: argparse.Namespace) -> int:
    matrix = load_pool(args.items, args.scores, args.norm_config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "pool.json").write_text(_pool_json(matrix), encoding="utf-8")
    _write_manifest(
        out,
        "ingest",
        {"models": matrix.n_models, "items": matrix.n_items, "tasks": matrix.n_tasks},
        None,
        {"items": Path(args.items), "scores": Path(args.scores),
         "norm_config": Path(args.norm_config)},
    )
    print(f"ingested {matrix.n_models} models x {matrix.n_items} items -> {out / 'pool.json'}")
    return 0


_SELECTOR_DEFAULTS = {
    f.name: f.default for f in dataclasses.fields(SelectorConfig)
    if f.default is not dataclasses.MISSING
}


def _selector_config(args: argparse.Namespace, **fixed) -> SelectorConfig:
    """Selector parameters by precedence: `fixed` > CLI flag > config file >
    built-in default. A config-file value that SelectorConfig rejects is
    reported with the file's path."""
    from_file: dict = {}
    if getattr(args, "config", None):
        from_file = read_json(args.config)
        unknown = set(from_file) - set(_SELECTOR_DEFAULTS) - {"method", "n"}
        if unknown:
            raise ValidationError(f"{args.config}: unknown keys {sorted(unknown)}")
    flags = {key: getattr(args, key, None) for key in ("method", "n", *_SELECTOR_DEFAULTS)}
    used_file = {key: value for key, value in from_file.items()
                 if key not in fixed and flags[key] is None}
    params = {**_SELECTOR_DEFAULTS, "method": None, "n": None, **used_file,
              **{key: value for key, value in flags.items() if value is not None}, **fixed}
    if not params["method"]:
        raise ValidationError("no method given (flag --method or config file)")
    if params["n"] is None:
        raise ValidationError("no subset size given (flag --n or config file)")
    if used_file:
        try:  # the file's values alone, over valid placeholders
            SelectorConfig(**{"method": next(iter(METHODS)), "n": 1, "seed": 0, **used_file})
        except ValidationError as exc:
            raise ValidationError(f"{args.config}: {exc}") from None
    return SelectorConfig(seed=args.seed, **params)


def _load_side_embeddings(args: argparse.Namespace, matrix: ScoreMatrix):
    semantic = acoustic = None
    if getattr(args, "semantic", None):
        semantic = load_embedding_csv(args.semantic, matrix, "semantic")
    if getattr(args, "acoustic", None):
        acoustic = load_embedding_csv(args.acoustic, matrix, "acoustic")
    return semantic, acoustic


def cmd_select(args: argparse.Namespace) -> int:
    matrix = _load_bundle(args.bundle)
    config = _selector_config(args)
    prepare, select, _ = METHODS[config.method]
    # run_selector's steps, with the embeddings held only by prepare's call: a
    # call keeps its arguments alive until it returns, so they are freed
    # before select clusters, which needs only what prepare built from them
    prepared = prepare(matrix, config, *_load_side_embeddings(args, matrix))
    subset, regressor, irt_model = select(matrix, config, prepared)

    out = Path(args.out)
    _write_json(out / "subset.json", subset.to_json_dict())
    if regressor is not None:
        _write_json(out / "score_regressor.json", regressor.to_json_dict())
    if irt_model is not None:
        _write_json(out / "irt_model.json", irt_model.to_json_dict())
    inputs = {"bundle": Path(args.bundle) / "pool.json"}
    for name in ("semantic", "acoustic", "config"):
        if getattr(args, name, None):
            inputs[name] = Path(getattr(args, name))
    echo = {k: v for k, v in dataclasses.asdict(config).items() if k != "seed"}
    _write_manifest(out, "select", echo, args.seed, inputs)
    print(f"selected {subset.n} items with {config.method} -> {out / 'subset.json'}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    matrix = _load_bundle(args.bundle)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ValidationError("--methods names no method")
    if args.sizes is None:
        sizes = tuple(s for s in DEFAULT_SIZES if s <= matrix.n_items)
        if not sizes:
            raise ValidationError(f"no default size fits {matrix.n_items} items; give --sizes")
    else:
        try:
            sizes = tuple(int(s) for s in args.sizes.split(","))
        except ValueError:
            raise ValidationError(f"--sizes expects integers, got {args.sizes!r}") from None
    lo, hi = args.aucc_range
    if hi <= lo:
        raise ValidationError(f"--aucc-range needs LO < HI, got {lo} {hi}")
    # every config is validated before any evaluation starts
    configs = [_selector_config(args, method=m, n=max(sizes)) for m in methods]
    semantic, acoustic = _load_side_embeddings(args, matrix)

    curves = crossval_curves(
        matrix, configs, sizes, folds=args.folds, repeats=args.repeats, master_seed=args.seed,
        metric=args.metric, semantic=semantic, acoustic=acoustic, jobs=args.jobs,
    )
    report = EvalReport(
        curves=curves, folds=args.folds, repeats=args.repeats,
        sizes=tuple(sorted(set(sizes))), master_seed=args.seed, metric=args.metric,
        aucc_range=(lo, hi),
    )
    out = Path(args.out)
    _write_json(out / "report.json", report.to_json_dict())
    (out / "curves.csv").write_text(report.to_csv(), encoding="utf-8")
    inputs = {"bundle": Path(args.bundle) / "pool.json"}
    for name in ("semantic", "acoustic", "config"):
        if getattr(args, name, None):
            inputs[name] = Path(getattr(args, name))
    # --jobs is deliberately not echoed: output is independent of worker count
    _write_manifest(out, "evaluate", {
        "methods": methods, "sizes": list(report.sizes), "folds": args.folds,
        "repeats": args.repeats, "metric": args.metric,
    }, args.seed, inputs)
    print(f"evaluated {len(methods)} methods x {len(report.sizes)} sizes "
          f"({args.folds * args.repeats} evaluations per size) -> {out}")
    return 0


def cmd_regress(args: argparse.Namespace) -> int:
    matrix = _load_bundle(args.bundle)
    subset = read_json(args.subset, SubsetSpec.from_json_dict)
    ratings = load_ratings(args.ratings)
    pool_json = Path(args.bundle) / "pool.json"

    def pool_positions(lookup, keys, source, what):
        try:
            return [lookup(key) for key in keys]
        except ValidationError as exc:
            raise ValidationError(
                f"{source}: {exc}: the {what} is not in the pool {pool_json}"
            ) from None

    rows = pool_positions(matrix.model_position, ratings.model_ids, args.ratings, "model")
    positions = pool_positions(matrix.item_position, subset.item_ids, args.subset, "item")
    features = matrix.values[np.asarray(rows)][:, positions]

    if args.protocol == "lomo":
        report = preference_lomo(features, ratings, args.dimension)
    else:
        report = pairwise_52(features, ratings, args.dimension)

    final_model = ridge_cv(
        features, ratings.column(args.dimension), PREFERENCE_LAMBDA_GRID,
        folds=features.shape[0], item_ids=subset.item_ids,
    )
    out = Path(args.out)
    _write_json(out / "protocol_report.json", report.to_json_dict())
    _write_json(out / f"ridge_{args.dimension}.json", final_model.to_json_dict())
    _write_manifest(out, "regress", {
        "protocol": args.protocol, "dimension": args.dimension,
        "subset_method": subset.method, "subset_n": subset.n,
    }, None, {"bundle": pool_json, "subset": Path(args.subset), "ratings": Path(args.ratings)})
    label = (f"mean Pearson {report.mean_pearson}" if args.protocol == "lomo"
             else f"accuracy {report.accuracy}")
    print(f"{args.protocol} on {len(ratings.model_ids)} models: {label} -> {out}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    config = SynthConfig(
        models=args.models, tasks=args.tasks, items_per_task=args.items_per_task,
        ability_spread=args.ability_spread, noise=args.noise, seed=args.seed,
    )
    # every flag is checked before any file is written
    dims = [d.strip() for d in args.dimensions.split(",")]
    if not all(dims):
        raise ValidationError(f"--dimensions has an empty entry in {args.dimensions!r}")
    for dim in dims:
        if dims.count(dim) > 1:
            raise ValidationError(f"--dimensions names {dim!r} more than once")
    if not 0 <= args.rated_models <= config.models:
        raise ValidationError(
            f"--rated-models {args.rated_models} is outside the pool's 0 to {config.models} models"
        )
    if not np.isfinite(args.rating_noise) or args.rating_noise < 0:
        raise ValidationError(f"--rating-noise must be finite and >= 0, got {args.rating_noise}")
    if args.embedding_dim < 0:
        raise ValidationError(f"--embedding-dim must be >= 0, got {args.embedding_dim}")
    matrix = gen_benchmark(config)
    out = Path(args.out)
    write_benchmark_files(matrix, out, config, embedding_dim=args.embedding_dim)
    if args.rated_models > 0:
        write_ratings_file(
            matrix, out / "ratings.csv", args.rated_models, dims,
            noise=args.rating_noise, seed=args.seed,
        )
    _write_manifest(out, "synth", {
        "models": args.models, "tasks": args.tasks,
        "items_per_task": args.items_per_task, "noise": args.noise,
        "ability_spread": args.ability_spread, "embedding_dim": args.embedding_dim,
        "rated_models": args.rated_models,
    }, args.seed, {})
    print(f"wrote synthetic pool ({config.models} models x {config.n_items} items) -> {out}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    subset = read_json(args.subset, SubsetSpec.from_json_dict)
    regression = {}
    inputs = {"subset": Path(args.subset)}
    for spec in args.regression or []:
        if "=" not in spec:
            raise ValidationError(f"--regression expects dimension=path, got {spec!r}")
        dim, path = spec.split("=", 1)
        dim = dim.strip()
        if not dim:
            raise ValidationError(f"--regression names an empty dimension in {spec!r}")
        if dim in regression:
            raise ValidationError(f"--regression names the dimension {dim!r} more than once")
        model = read_json(path, RidgeModel.from_json_dict)
        if set(model.item_ids or ()) != set(subset.item_ids):
            raise ValidationError(
                f"regression model for {dim!r} was fitted on different items"
            )
        regression[dim] = model.to_json_dict()
        inputs[f"regression_{dim}"] = Path(path)

    bundle = {
        "format": "dual-mode-subset",
        "version": __version__,
        "benchmark_mode": subset.to_json_dict(),
        "regression_mode": regression,
    }
    out = Path(args.out)
    _write_json(out / "release.json", bundle)
    _write_manifest(out, "export", {
        "dimensions": sorted(regression), "subset_method": subset.method,
        "subset_n": subset.n,
    }, None, inputs)
    print(f"exported dual-mode bundle ({len(regression)} regression dimensions) -> {out}")
    return 0


def _add_selector_params(parser: argparse.ArgumentParser) -> None:
    # defaults stay None here; _selector_config resolves flag > config file > default
    parser.add_argument("--config", help="selector config JSON (flags override it)")
    default = _SELECTOR_DEFAULTS
    parser.add_argument("--bins", type=int, help=f"difficulty bins (default {default['bins']})")
    parser.add_argument("--n-search", type=int, dest="n_search",
                        help=f"search-mode candidate draws (default {default['n_search']})")
    parser.add_argument("--holdout-fraction", type=float, dest="holdout_fraction",
                        help=f"search-mode holdout share (default {default['holdout_fraction']})")
    parser.add_argument("--lambda-grid", type=float, nargs="+", dest="lambda_grid",
                        help="ridge grid for learn methods")
    parser.add_argument("--pca-dim", type=int, dest="pca_dim",
                        help="PCA target for standalone semantic/acoustic spaces, at most the "
                             f"embedding width (default {default['pca_dim']})")
    parser.add_argument("--irt-dim", type=int, dest="irt_dim")
    parser.add_argument("--irt-epochs", type=int, dest="irt_epochs")
    parser.add_argument("--irt-lr", type=float, dest="irt_lr")
    parser.add_argument("--semantic", help="semantic embedding CSV")
    parser.add_argument("--acoustic", help="acoustic embedding CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coreselect",
        description="Benchmark coreset selection, meta-evaluation, and preference regression.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and bundle a score pool")
    p.add_argument("--items", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--norm-config", required=True, dest="norm_config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("select", help="run one selection method")
    p.add_argument("--bundle", required=True)
    p.add_argument("--method", help=f"one of: {', '.join(METHODS)}")
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_selector_params(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("evaluate", help="cross-validated correlation curves")
    p.add_argument("--bundle", required=True)
    p.add_argument("--methods", required=True, help="comma-separated method names")
    p.add_argument("--sizes", help="comma-separated subset sizes (default: those of "
                   f"{','.join(map(str, DEFAULT_SIZES))} that fit the pool)")
    p.add_argument("--folds", type=int, default=3)
    p.add_argument("--repeats", type=int, default=100)
    p.add_argument("--metric", choices=CORRELATION_METRICS, default="pearson")
    p.add_argument("--aucc-range", type=int, nargs=2, default=[10, 200],
                   dest="aucc_range", metavar=("LO", "HI"),
                   help="size range the AUCC summary averages over")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    _add_selector_params(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("regress", help="preference prediction protocols")
    p.add_argument("--bundle", required=True)
    p.add_argument("--subset", required=True)
    p.add_argument("--ratings", required=True)
    p.add_argument("--protocol", choices=("lomo", "pairwise52"), required=True)
    p.add_argument("--dimension", default="overall")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("synth", help="generate a synthetic pool")
    p.add_argument("--models", type=int, default=18)
    p.add_argument("--tasks", type=int, default=8)
    p.add_argument("--items-per-task", type=int, default=25, dest="items_per_task")
    p.add_argument("--ability-spread", type=float, default=1.0, dest="ability_spread")
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--embedding-dim", type=int, default=0, dest="embedding_dim",
                   help="also emit semantic/acoustic CSVs of this width")
    p.add_argument("--rated-models", type=int, default=0, dest="rated_models",
                   help="also emit a 1-6 ratings CSV for the first N models")
    p.add_argument("--dimensions",
                   default="overall,understanding,naturalness,quality,effectiveness")
    p.add_argument("--rating-noise", type=float, default=0.05, dest="rating_noise")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("export", help="bundle subset + per-dimension regressors")
    p.add_argument("--subset", required=True)
    p.add_argument("--regression", action="append",
                   help="dimension=ridge_model.json (repeatable)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(json.dumps({"kind": "validation", "error": str(exc)}), file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(json.dumps({"kind": "internal", "error": f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
