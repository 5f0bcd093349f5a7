"""Score-pool ingestion: item manifest, metric normalization, human ratings.

File formats accepted here (and emitted by the synth module):

* items manifest: CSV ``item_id,task_id,metric,needs_audio_in,needs_audio_out``
  with the two boolean columns encoded as ``0``/``1``.
* raw scores: long-form CSV ``model_id,item_id,raw_value``, exactly one row
  per (model, item) cell.
* norm config: JSON map ``metric -> {"kind": ..., "params": {...}}``.
* human ratings: CSV ``model_id,dimension,mean_rating`` with ratings on the
  original 1-6 scale; they are rescaled to [0,1] at load time.

The resulting ScoreMatrix is dense (a missing cell is a hard error) and
immutable; it is safe to share read-only across workers.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError

# each normalization kind and the params its config entry must give
NORMALIZATION_KINDS = {
    "identity": (),
    "one_minus_capped_error": ("cap",),
    "affine_unit": ("lo", "hi"),
}


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
        return cls(tuple(data["model_ids"]), items, np.asarray(data["values"]))


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


def _read_csv_rows(path: Path, expected_header: list[str]) -> list[list[str]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValidationError(f"{path}: empty file") from None
            if [h.strip() for h in header] != expected_header:
                raise ValidationError(
                    f"{path}: expected header {','.join(expected_header)!r}, "
                    f"got {','.join(header)!r}"
                )
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != len(expected_header):
                    raise ValidationError(f"{path}:{lineno}: expected {len(header)} fields")
                rows.append([c.strip() for c in row])
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return rows


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
    for row in _read_csv_rows(path, header):
        item_id, task_id, metric, ain, aout = row
        if item_id in seen:
            raise ValidationError(f"{path}: duplicate item id {item_id!r}")
        seen.add(item_id)
        items.append(
            ItemRecord(
                item_id=item_id,
                task_id=task_id,
                metric_name=metric,
                needs_audio_in=_parse_bool01(ain, f"{path} item {item_id}"),
                needs_audio_out=_parse_bool01(aout, f"{path} item {item_id}"),
            )
        )
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
                f"item {it.item_id!r}: metric {it.metric_name!r} missing from norm config"
            )

    scores_path = Path(raw_scores)
    rows = _read_csv_rows(scores_path, ["model_id", "item_id", "raw_value"])
    item_pos = {it.item_id: i for i, it in enumerate(items)}
    model_ids = sorted({row[0] for row in rows})
    model_pos = {m: i for i, m in enumerate(model_ids)}

    values = np.full((len(model_ids), len(items)), np.nan)
    for model_id, item_id, raw_text in rows:
        if item_id not in item_pos:
            raise ValidationError(f"{scores_path}: unknown item id {item_id!r}")
        try:
            raw = float(raw_text)
        except ValueError:
            raise ValidationError(
                f"{scores_path}: bad raw_value {raw_text!r} for ({model_id}, {item_id})"
            ) from None
        i, j = model_pos[model_id], item_pos[item_id]
        if not np.isnan(values[i, j]):
            raise ValidationError(f"{scores_path}: duplicate cell ({model_id}, {item_id})")
        rule = rules[items[j].metric_name]
        try:
            values[i, j] = normalize(raw, rule)
        except ValidationError as exc:
            raise ValidationError(f"item {item_id!r}, model {model_id!r}: {exc}") from None

    missing = np.argwhere(np.isnan(values))
    if missing.size:
        pairs = ", ".join(
            f"({model_ids[i]}, {items[j].item_id})" for i, j in missing[:5]
        )
        more = "" if len(missing) <= 5 else f" and {len(missing) - 5} more"
        raise ValidationError(f"missing score cells: {pairs}{more}")

    return ScoreMatrix(tuple(model_ids), items, values)


def load_ratings(path: str | Path) -> HumanRatingsTable:
    """Load ``model_id,dimension,mean_rating`` ratings, rescaling 1-6 to [0,1]."""
    path = Path(path)
    rows = _read_csv_rows(path, ["model_id", "dimension", "mean_rating"])
    model_ids: list[str] = []
    dimensions: list[str] = []
    cells: dict[tuple[str, str], float] = {}
    for model_id, dimension, text in rows:
        if model_id not in model_ids:
            model_ids.append(model_id)
        if dimension not in dimensions:
            dimensions.append(dimension)
        key = (model_id, dimension)
        if key in cells:
            raise ValidationError(f"{path}: duplicate rating for {key}")
        try:
            rating = float(text)
        except ValueError:
            raise ValidationError(f"{path}: bad mean_rating {text!r} for {key}") from None
        cells[key] = rescale_rating(rating)

    grid = np.empty((len(model_ids), len(dimensions)))
    for i, m in enumerate(model_ids):
        for j, d in enumerate(dimensions):
            if (m, d) not in cells:
                raise ValidationError(f"{path}: missing rating for ({m}, {d})")
            grid[i, j] = cells[(m, d)]
    return HumanRatingsTable(tuple(model_ids), tuple(dimensions), grid)
