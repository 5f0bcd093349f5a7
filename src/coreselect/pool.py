"""Score-pool ingestion: item manifest, metric normalization, human ratings.

File formats accepted here (and emitted by the synth module):

* items manifest: CSV ``item_id,task_id,metric,needs_audio_in,needs_audio_out``
  with the two boolean columns encoded as ``0``/``1``.
* raw scores: long-form CSV ``model_id,item_id,raw_value``, exactly one row
  per (model, item) cell.
* norm config: JSON map ``metric -> {"kind": ..., "params": {...}}``.
* human ratings: long-form CSV ``model_id,dimension,mean_rating``, one row per
  (model, dimension) cell, on the 1-6 scale; rescaled to [0,1] at load time.
* item embeddings: CSV ``item_id,v0,v1,...``, one row per pool item (read by
  ``embeddings.load_embedding_csv``).

Every CSV input is read as UTF-8 by ``_read_csv_cells``: the first row is the
header, blank rows are skipped, cells are stripped of surrounding whitespace,
and every other row has as many fields as the header. Every input error names
its file. The reader streams each file in chunks of about ``CSV_CHUNK_CELLS``
cells. A chunk with no ``"``, no NUL and no CR outside a CRLF is split on line
ends and commas, which gives the cells ``csv.reader`` would; any other chunk
goes through ``csv.reader``. The score and ratings grids are built from whole
columns, and an input error is the first one a row-by-row pass would meet.

The resulting ScoreMatrix is dense (a missing cell is a hard error) and
immutable; it is safe to share read-only across workers.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ValidationError

# each normalization kind and the params its config entry must give
NORMALIZATION_KINDS = {
    "identity": (),
    "one_minus_capped_error": ("cap",),
    "affine_unit": ("lo", "hi"),
}

# cells per chunk of a CSV input: bounds the cells held as Python strings at once
CSV_CHUNK_CELLS = 1024


@dataclass(frozen=True)
class ItemRecord:
    item_id: str
    task_id: str
    metric_name: str
    needs_audio_in: bool
    needs_audio_out: bool

    def __post_init__(self) -> None:
        if not self.item_id:
            raise ValidationError("empty item_id")
        if not self.task_id:
            raise ValidationError(f"item {self.item_id!r}: empty task_id")


@dataclass(frozen=True)
class NormalizationRule:
    """Maps one raw metric value to the unit interval.

    kinds:
      identity                      -- value passed through, must be in [0,1]
      one_minus_capped_error(cap)   -- 1 - min(raw, cap)/cap, for error metrics
      affine_unit(lo, hi)           -- clamp((raw - lo)/(hi - lo), 0, 1)
    """

    kind: str
    cap: float | None = None
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in NORMALIZATION_KINDS:
            raise ValidationError(f"unknown normalization kind {self.kind!r}")
        for name in ("cap", "lo", "hi"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValidationError(f"{self.kind} param {name!r} must be finite, got {value!r}")
        if self.kind == "one_minus_capped_error":
            if self.cap is None or not self.cap > 0:
                raise ValidationError("one_minus_capped_error requires cap > 0")
        if self.kind == "affine_unit":
            if self.lo is None or self.hi is None or not self.hi > self.lo:
                raise ValidationError("affine_unit requires hi > lo")

    @classmethod
    def identity(cls) -> "NormalizationRule":
        return cls("identity")

    @classmethod
    def one_minus_capped_error(cls, cap: float) -> "NormalizationRule":
        return cls("one_minus_capped_error", cap=float(cap))

    @classmethod
    def affine_unit(cls, lo: float, hi: float) -> "NormalizationRule":
        return cls("affine_unit", lo=float(lo), hi=float(hi))

    @classmethod
    def from_config(cls, entry: Mapping) -> "NormalizationRule":
        """Parse one ``{"kind": ..., "params": {...}}`` norm-config entry."""
        if not isinstance(entry, Mapping):
            raise ValidationError(f"expected a rule object, got {entry!r}")
        kind = entry.get("kind")
        params = entry.get("params", {})
        if kind not in NORMALIZATION_KINDS:
            raise ValidationError(f"unknown normalization kind {kind!r}")
        values = {}
        for name in NORMALIZATION_KINDS[kind]:
            try:
                values[name] = float(params[name])
            except (KeyError, TypeError, ValueError):
                raise ValidationError(f"{kind} needs a numeric param {name!r}") from None
        return cls(kind, **values)


def normalize(raw: float, rule: NormalizationRule) -> float:
    """Apply one normalization rule; result is always in [0,1]."""
    raw = float(raw)
    if not np.isfinite(raw):
        raise ValidationError(f"non-finite raw value {raw!r}")
    if rule.kind == "identity":
        if raw < 0.0 or raw > 1.0:
            raise ValidationError(f"identity metric value {raw!r} outside [0,1]")
        return raw
    if rule.kind == "one_minus_capped_error":
        if raw < 0.0:
            raise ValidationError(f"error metric value {raw!r} is negative")
        return 1.0 - min(raw, rule.cap) / rule.cap
    # affine_unit: clamp rather than error, robust to slight judge-scale overshoot
    scaled = (raw - rule.lo) / (rule.hi - rule.lo)
    return min(1.0, max(0.0, scaled))


def rescale_rating(likert: float) -> float:
    """Rescale a 1-6 Likert rating linearly to [0,1]."""
    likert = float(likert)
    if not (1.0 <= likert <= 6.0):
        raise ValidationError(f"rating {likert!r} outside the 1-6 scale")
    return (likert - 1.0) / 5.0


def _normalize_cells(raw: np.ndarray, rule: NormalizationRule) -> np.ndarray:
    """``normalize`` over an array with the same elementwise operations, so each
    accepted value keeps its bits; NaN marks a value ``normalize`` rejects."""
    ok = np.isfinite(raw)
    if rule.kind == "identity":
        ok &= (raw >= 0.0) & (raw <= 1.0)
        out = raw.copy()
    elif rule.kind == "one_minus_capped_error":
        ok &= raw >= 0.0
        with np.errstate(over="ignore"):  # only rejected values overflow
            out = 1.0 - np.minimum(raw, rule.cap) / rule.cap
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # Python floats overflow silently
            scaled = (raw - rule.lo) / (rule.hi - rule.lo)
        # Python's max(0.0, x) keeps 0.0 unless x > 0.0, where np.maximum(0.0, -0.0) is -0.0
        clamped = np.where(scaled > 0.0, scaled, 0.0)
        out = np.where(clamped < 1.0, clamped, 1.0)
    out[~ok] = np.nan
    return out


def _rescale_cells(likert: np.ndarray) -> np.ndarray:
    """``rescale_rating`` over an array; NaN marks a rating it rejects."""
    out = (likert - 1.0) / 5.0
    out[~((likert >= 1.0) & (likert <= 6.0))] = np.nan
    return out


@dataclass
class ScoreMatrix:
    """Dense models x items grid of unit-interval scores plus task labels."""

    model_ids: tuple[str, ...]
    items: tuple[ItemRecord, ...]
    values: np.ndarray  # K x N, float64, all in [0,1]
    item_ids: tuple[str, ...] = field(init=False, repr=False)
    task_index: dict[str, np.ndarray] = field(init=False, repr=False)
    _item_pos: dict[str, int] = field(init=False, repr=False)
    _model_pos: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.model_ids = tuple(self.model_ids)
        self.items = tuple(self.items)
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (len(self.model_ids), len(self.items)):
            raise ValidationError(
                f"values shape {values.shape} does not match "
                f"{len(self.model_ids)} models x {len(self.items)} items"
            )
        if len(set(self.model_ids)) != len(self.model_ids):
            raise ValidationError("duplicate model ids")
        self.item_ids = tuple(it.item_id for it in self.items)
        if len(set(self.item_ids)) != len(self.item_ids):
            raise ValidationError("duplicate item ids")
        if values.size and (not np.isfinite(values).all()):
            raise ValidationError("non-finite score values")
        if values.size and (values.min() < 0.0 or values.max() > 1.0):
            raise ValidationError("score values outside [0,1]")
        values = values.copy()
        values.flags.writeable = False
        self.values = values
        index: dict[str, list[int]] = {}
        for pos, it in enumerate(self.items):
            index.setdefault(it.task_id, []).append(pos)
        self.task_index = {t: np.asarray(p, dtype=np.intp) for t, p in index.items()}
        self._item_pos = {item_id: pos for pos, item_id in enumerate(self.item_ids)}
        self._model_pos = {m: pos for pos, m in enumerate(self.model_ids)}

    @property
    def n_models(self) -> int:
        return len(self.model_ids)

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_tasks(self) -> int:
        return len(self.task_index)

    @cached_property
    def id_order(self) -> np.ndarray:
        """Item positions sorted by item_id (read-only). A stable sort of any
        per-item key taken in this order breaks ties toward the lowest item_id."""
        order = np.asarray(sorted(range(self.n_items), key=self.item_ids.__getitem__),
                           dtype=np.intp)
        order.flags.writeable = False
        return order

    def item_position(self, item_id: str) -> int:
        try:
            return self._item_pos[item_id]
        except KeyError:
            raise ValidationError(f"unknown item id {item_id!r}") from None

    def model_position(self, model_id: str) -> int:
        try:
            return self._model_pos[model_id]
        except KeyError:
            raise ValidationError(f"unknown model id {model_id!r}") from None

    def row(self, model_id: str) -> np.ndarray:
        return self.values[self.model_position(model_id)]

    def submatrix(self, model_ids: Sequence[str]) -> "ScoreMatrix":
        """Row-restricted copy, same items; used for cross-validation folds."""
        rows = [self.model_position(m) for m in model_ids]
        return ScoreMatrix(tuple(model_ids), self.items, self.values[rows])

    def to_json_dict(self) -> dict:
        return {
            "model_ids": list(self.model_ids),
            "items": [
                {
                    "item_id": it.item_id,
                    "task_id": it.task_id,
                    "metric": it.metric_name,
                    "needs_audio_in": int(it.needs_audio_in),
                    "needs_audio_out": int(it.needs_audio_out),
                }
                for it in self.items
            ],
            "values": [[float(v) for v in row] for row in self.values],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ScoreMatrix":
        items = tuple(
            ItemRecord(
                item_id=d["item_id"],
                task_id=d["task_id"],
                metric_name=d["metric"],
                needs_audio_in=bool(d["needs_audio_in"]),
                needs_audio_out=bool(d["needs_audio_out"]),
            )
            for d in data["items"]
        )
        values = np.asarray(data["values"])
        if values.dtype.kind not in "fiu":  # JSON strings, booleans and mixtures
            raise ValidationError(f"values must be numbers, got {values.dtype.name} entries")
        return cls(tuple(data["model_ids"]), items, values)


@dataclass
class HumanRatingsTable:
    """Per-model mean ratings by dimension, rescaled to [0,1]."""

    model_ids: tuple[str, ...]
    dimensions: tuple[str, ...]
    ratings_unit: np.ndarray  # K x D in [0,1]

    def __post_init__(self) -> None:
        self.model_ids = tuple(self.model_ids)
        self.dimensions = tuple(self.dimensions)
        r = np.asarray(self.ratings_unit, dtype=np.float64)
        if r.shape != (len(self.model_ids), len(self.dimensions)):
            raise ValidationError("ratings grid shape mismatch")
        if r.size and (r.min() < 0.0 or r.max() > 1.0):
            raise ValidationError("unit ratings outside [0,1]")
        self.ratings_unit = r

    def column(self, dimension: str) -> np.ndarray:
        if dimension not in self.dimensions:
            raise ValidationError(
                f"unknown rating dimension {dimension!r}; "
                f"have {', '.join(self.dimensions)}"
            )
        return self.ratings_unit[:, self.dimensions.index(dimension)]


def read_json(path: str | Path, parse=dict):
    """Read one JSON object file and parse it. An unreadable file, invalid
    JSON, and a missing or ill-typed field are validation errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValidationError("expected a JSON object")
        return parse(data)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    except KeyError as exc:
        raise ValidationError(f"{path}: missing field {exc}") from None
    except (OSError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _read_csv_cells(path: Path, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield the data rows of a CSV input read by the rules in the module
    docstring, in chunks of ``CSV_CHUNK_CELLS // width`` rows, and at least
    one, where ``width`` is the header's field count. A chunk is
    ``(width, cells)``: the stripped cells of its rows, row after row, ``width``
    to a row. A last ``header`` entry ``"..."`` stands for one or more further
    columns.

    A chunk whose text has no ``"`` or NUL and no ``\\r`` outside a ``\\r\\n``
    is split on line ends and commas, which gives the rows ``csv.reader`` would;
    any other chunk goes through ``csv.reader``. Line numbers count records, as
    ``csv.reader`` does. The rows before a row with the wrong field count, or
    before text that is not UTF-8, are yielded before its error is raised, so a
    consumer that checks rows in order meets the same first error."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            try:
                found = [h.strip() for h in next(csv.reader(fh))]
            except StopIteration:
                raise ValidationError(f"{path}: empty file") from None
            if header[-1] == "...":
                ok = len(found) >= len(header) and found[:len(header) - 1] == header[:-1]
            else:
                ok = found == header
            if not ok:
                raise ValidationError(
                    f"{path}: expected header {','.join(header)!r}, got {','.join(found)!r}"
                )
            width, lineno, fault = len(found), 2, None
            chunk_rows = max(1, CSV_CHUNK_CELLS // width)
            while fault is None:
                lines: list[str] = []
                try:
                    lines.extend(islice(fh, chunk_rows))  # keeps the lines read before a fault
                except UnicodeDecodeError as exc:
                    fault = exc
                if not lines:
                    break
                text = "".join(lines)
                # the file's lines end at any CR, so only a line end can hold a lone CR
                if '"' in text or "\0" in text or any(map(str.endswith, lines, repeat("\r"))):
                    # a quoted cell may run on past the chunk
                    records = csv.reader(chain(lines, fh))
                    rows = []
                    while records.line_num < len(lines):
                        rows.append(next(records))
                else:
                    if set(map(str.count, lines, repeat(","))) == {width - 1}:
                        cells = list(map(str.strip, text.replace("\n", ",").split(",")))
                        del cells[len(lines) * width:]  # the empty cell after a last line end
                        if "" not in cells[::width]:  # a blank row has an empty first cell
                            lineno += len(lines)
                            yield width, cells
                            continue
                    rows = [line.split(",") for line in lines]
                kept = []
                for row in rows:
                    cells = [c.strip() for c in row]
                    if any(cells):
                        if len(cells) != width:
                            if kept:
                                yield width, list(chain.from_iterable(kept))
                            raise ValidationError(f"{path}:{lineno}: expected {width} fields")
                        kept.append(cells)
                    lineno += 1
                if kept:
                    yield width, list(chain.from_iterable(kept))
            if fault is not None:
                raise fault
    except (OSError, UnicodeDecodeError, csv.Error) as exc:  # csv: a cell over its size limit
        raise ValidationError(f"{path}: {exc}") from None


def _long_form_grid(
    path: Path,
    header: list[str],
    col_keys: Sequence[str] | None,
    convert: Callable[[float, str, int], float],
    convert_cells: Callable[[np.ndarray, np.ndarray], np.ndarray],
    cell_words: tuple[str, str],
    sort_rows: bool = False,
) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """Dense grid from the long-form ``row key, column key, value`` rows of the
    CSV at ``path``, read under ``header``; returns the row keys, the column
    keys and the grid. Row keys are the file's, sorted when ``sort_rows`` and
    in first-seen order otherwise. Column keys are ``col_keys``, or the file's
    in first-seen order when that is None.

    Each value goes through one ``float`` and then the rule of its cell:
    ``convert(value, row_key, j)`` for one value, ``convert_cells(values, j)``
    for many at once with the same elementwise operations and NaN for a value
    ``convert`` rejects. An empty row or column key, an unknown column key, a
    bad value, a duplicate cell, missing cells and a ``convert`` error name the
    file; the first error is the one a row-by-row pass in file order meets
    first. ``cell_words`` is the (singular, plural) word for a cell."""
    row_pos: dict[str, int] = {}
    col_pos = {} if col_keys is None else {key: j for j, key in enumerate(col_keys)}

    def parse(row_col, col_col, texts):
        n = len(texts)
        return (np.fromiter(map(row_pos.__getitem__, row_col), np.intp, n),
                np.fromiter(map(col_pos.__getitem__, col_col), np.intp, n),
                np.fromiter(map(float, texts), np.float64, n))

    parts = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    fault = None
    for _, cells in _read_csv_cells(path, header):
        if fault is not None:
            continue  # read on: a field-count error further down comes first
        row_col, col_col, texts = cells[0::3], cells[1::3], cells[2::3]
        for key in dict.fromkeys(row_col):
            row_pos.setdefault(key, len(row_pos))
        if col_keys is None:
            for key in dict.fromkeys(col_col):
                col_pos.setdefault(key, len(col_pos))
        try:
            if "" in row_col or "" in col_col:
                raise ValueError
            parts.append(parse(row_col, col_col, texts))
        except (KeyError, ValueError):
            k, fault = _first_bad_cell(header, row_col, col_col, texts, col_pos)
            parts.append(parse(row_col[:k], col_col[:k], texts[:k]))
    row_keys = tuple(sorted(row_pos) if sort_rows else row_pos)
    col_keys = tuple(col_pos)
    i, j, raw = map(np.concatenate, zip(*parts))
    if sort_rows:
        i = np.argsort(np.fromiter(map(row_pos.__getitem__, row_keys), np.intp))[i]
    flat = i * len(col_keys) + j
    counts = np.bincount(flat, minlength=len(row_keys) * len(col_keys))
    end = dup = len(flat)  # rows before `end` pass every per-row check but the rule
    if end and counts.max() > 1:
        first = np.zeros(len(flat), dtype=bool)
        first[np.unique(flat, return_index=True)[1]] = True
        end = dup = int(np.argmin(first))
    values = convert_cells(raw[:end], j[:end])
    rejected = np.flatnonzero(np.isnan(values))
    try:
        if rejected.size:
            k = rejected[0]
            convert(float(raw[k]), row_keys[i[k]], int(j[k]))
        if dup < len(flat):
            raise ValidationError(
                f"duplicate {cell_words[0]} ({row_keys[i[dup]]}, {col_keys[j[dup]]})")
        if fault is not None:
            raise ValidationError(fault)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        width = len(col_keys)
        cells = ", ".join(f"({row_keys[c // width]}, {col_keys[c % width]})" for c in missing[:5])
        more = "" if len(missing) <= 5 else f" and {len(missing) - 5} more"
        raise ValidationError(f"{path}: missing {cell_words[1]}: {cells}{more}")
    grid = np.empty((len(row_keys), len(col_keys)))
    grid.reshape(-1)[flat] = values
    return row_keys, col_keys, grid


def _first_bad_cell(header, row_col, col_col, texts, col_pos) -> tuple[int, str]:
    """The first row of a chunk that fails a per-row check before the rule, and its error."""
    for k, (row_key, col_key, text) in enumerate(zip(row_col, col_col, texts)):
        if not row_key:
            return k, f"empty {header[0]}"
        if not col_key:
            return k, f"empty {header[1]}"
        if col_key not in col_pos:
            return k, f"unknown {header[1].replace('_', ' ')} {col_key!r}"
        try:
            float(text)
        except ValueError:
            return k, f"bad {header[2]} {text!r} for ({row_key}, {col_key})"
    raise AssertionError("no bad cell in the chunk")


def _parse_bool01(text: str, where: str) -> bool:
    if text == "0":
        return False
    if text == "1":
        return True
    raise ValidationError(f"{where}: boolean column must be 0 or 1, got {text!r}")


def load_items_manifest(path: str | Path) -> tuple[ItemRecord, ...]:
    path = Path(path)
    header = ["item_id", "task_id", "metric", "needs_audio_in", "needs_audio_out"]
    items: list[ItemRecord] = []
    seen: set[str] = set()
    for width, cells in _read_csv_cells(path, header):
        for item_id, task_id, metric, ain, aout in zip(*[iter(cells)] * width):
            if item_id in seen:
                raise ValidationError(f"{path}: duplicate item id {item_id!r}")
            seen.add(item_id)
            where = f"item {item_id}"
            try:
                items.append(ItemRecord(item_id, task_id, metric, _parse_bool01(ain, where),
                                        _parse_bool01(aout, where)))
            except ValidationError as exc:
                raise ValidationError(f"{path}: {exc}") from None
    if not items:
        raise ValidationError(f"{path}: no items")
    return tuple(items)


def load_norm_config(path: str | Path) -> dict[str, NormalizationRule]:
    rules = {}
    for metric, entry in read_json(path).items():
        try:
            rules[metric] = NormalizationRule.from_config(entry)
        except ValidationError as exc:
            raise ValidationError(f"{path}: metric {metric!r}: {exc}") from None
    return rules


def load_pool(
    items_manifest: str | Path,
    raw_scores: str | Path,
    norm_config: str | Path,
) -> ScoreMatrix:
    """Ingest manifest + long-form scores, normalize, and validate density.

    Model ids are ordered lexicographically so the result does not depend on
    the row order of the scores file.
    """
    items = load_items_manifest(items_manifest)
    rules = load_norm_config(norm_config)
    for it in items:
        if it.metric_name not in rules:
            raise ValidationError(
                f"{norm_config}: item {it.item_id!r}: metric {it.metric_name!r} "
                "missing from norm config"
            )

    scores_path = Path(raw_scores)
    item_ids = [it.item_id for it in items]
    item_rules = [rules[it.metric_name] for it in items]
    metrics = {m: k for k, m in enumerate(dict.fromkeys(it.metric_name for it in items))}
    item_metric = np.fromiter((metrics[it.metric_name] for it in items), np.intp, len(items))

    def score(raw: float, model_id: str, j: int) -> float:
        try:
            return normalize(raw, item_rules[j])
        except ValidationError as exc:
            raise ValidationError(f"item {item_ids[j]!r}, model {model_id!r}: {exc}") from None

    def score_cells(raw: np.ndarray, j: np.ndarray) -> np.ndarray:
        out = np.empty_like(raw)
        cell_metric = item_metric[j]
        for metric, m in metrics.items():
            sel = cell_metric == m
            out[sel] = _normalize_cells(raw[sel], rules[metric])
        return out

    model_ids, _, values = _long_form_grid(
        scores_path, ["model_id", "item_id", "raw_value"], item_ids, score, score_cells,
        ("cell", "score cells"), sort_rows=True)
    if not model_ids:
        raise ValidationError(f"{scores_path}: no scores")
    return ScoreMatrix(model_ids, items, values)


def load_ratings(path: str | Path) -> HumanRatingsTable:
    """Load ``model_id,dimension,mean_rating`` ratings, rescaling 1-6 to [0,1].
    Models and dimensions keep the order in which the file first names them."""
    path = Path(path)
    model_ids, dimensions, grid = _long_form_grid(
        path, ["model_id", "dimension", "mean_rating"], None,
        lambda rating, model_id, j: rescale_rating(rating),
        lambda ratings, j: _rescale_cells(ratings), ("rating", "ratings"))
    if not model_ids:
        raise ValidationError(f"{path}: no ratings")
    return HumanRatingsTable(model_ids, dimensions, grid)
