"""Chunked CSV ingest against the row-by-row reference it replaced.

The reference below reads every row through one ``csv.reader`` and builds the
score, ratings and embedding tables one cell at a time. The chunked reader
and the column-wise tables must give the same rows, the same bits and the
same first error, message and line number included, on any text.
"""

from __future__ import annotations

import csv
import json
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from coreselect import pool  # noqa: E402
from coreselect.embeddings import EmbeddingSet, load_embedding_csv  # noqa: E402
from coreselect.errors import ValidationError  # noqa: E402
from coreselect.pool import (  # noqa: E402
    ItemRecord,
    ScoreMatrix,
    load_items_manifest,
    load_norm_config,
    load_pool,
    load_ratings,
    normalize,
    rescale_rating,
)

# ---------------------------------------------------------------- reference


def _reference_rows(path, header):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                found = [h.strip() for h in next(reader)]
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
            for lineno, row in enumerate(reader, start=2):
                cells = [c.strip() for c in row]
                if not any(cells):
                    continue
                if len(cells) != len(found):
                    raise ValidationError(f"{path}:{lineno}: expected {len(found)} fields")
                yield cells
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _reference_grid(path, header, rows, row_keys, col_keys, convert, cell_words):
    row_pos = {key: i for i, key in enumerate(row_keys)}
    col_pos = {key: j for j, key in enumerate(col_keys)}
    grid = np.empty((len(row_keys), len(col_keys)))
    filled = np.zeros(grid.shape, dtype=bool)
    for row_key, col_key, text in rows:
        if not row_key:
            raise ValidationError(f"{path}: empty {header[0]}")
        if not col_key:
            raise ValidationError(f"{path}: empty {header[1]}")
        j = col_pos.get(col_key)
        if j is None:
            raise ValidationError(f"{path}: unknown {header[1].replace('_', ' ')} {col_key!r}")
        i = row_pos[row_key]
        try:
            value = float(text)
        except ValueError:
            raise ValidationError(
                f"{path}: bad {header[2]} {text!r} for ({row_key}, {col_key})"
            ) from None
        if filled[i, j]:
            raise ValidationError(f"{path}: duplicate {cell_words[0]} ({row_key}, {col_key})")
        try:
            grid[i, j] = convert(value, i, j)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
        filled[i, j] = True
    missing = np.argwhere(~filled)
    if missing.size:
        cells = ", ".join(f"({row_keys[i]}, {col_keys[j]})" for i, j in missing[:5])
        more = "" if len(missing) <= 5 else f" and {len(missing) - 5} more"
        raise ValidationError(f"{path}: missing {cell_words[1]}: {cells}{more}")
    return grid


def _reference_load_pool(items_path, scores_path, norm_path):
    items = load_items_manifest(items_path)
    rules = load_norm_config(norm_path)
    header = ["model_id", "item_id", "raw_value"]
    rows = list(_reference_rows(scores_path, header))
    if not rows:
        raise ValidationError(f"{scores_path}: no scores")
    model_ids = tuple(sorted({row[0] for row in rows}))
    item_ids = [it.item_id for it in items]

    def score(raw, i, j):
        try:
            return normalize(raw, rules[items[j].metric_name])
        except ValidationError as exc:
            raise ValidationError(f"item {item_ids[j]!r}, model {model_ids[i]!r}: {exc}") from None

    values = _reference_grid(scores_path, header, rows, model_ids, item_ids, score,
                             ("cell", "score cells"))
    return ScoreMatrix(model_ids, items, values)


def _reference_load_ratings(path):
    header = ["model_id", "dimension", "mean_rating"]
    rows = list(_reference_rows(path, header))
    if not rows:
        raise ValidationError(f"{path}: no ratings")
    model_ids = tuple(dict.fromkeys(row[0] for row in rows))
    dimensions = tuple(dict.fromkeys(row[1] for row in rows))
    grid = _reference_grid(path, header, rows, model_ids, dimensions,
                           lambda rating, i, j: rescale_rating(rating), ("rating", "ratings"))
    return pool.HumanRatingsTable(model_ids, dimensions, grid)


def _reference_load_embedding_csv(path, matrix, kind):
    rows = {}
    for item_id, *values in _reference_rows(path, ["item_id", "..."]):
        if item_id in rows:
            raise ValidationError(f"{path}: duplicate embedding for {item_id!r}")
        try:
            rows[item_id] = np.asarray([float(c) for c in values])
        except ValueError as exc:
            raise ValidationError(f"{path}: non-numeric value for {item_id!r} ({exc})") from None
    try:
        vectors = np.asarray([rows.pop(item_id) for item_id in matrix.item_ids])
    except KeyError as exc:
        raise ValidationError(f"{path}: missing embedding for item {exc.args[0]!r}") from None
    if rows:
        raise ValidationError(f"{path}: embeddings for unknown items {sorted(rows)[:5]}")
    if not np.isfinite(vectors).all():  # the new reader names the file and item here
        raise ValidationError("non-finite embedding values")
    return EmbeddingSet(kind, matrix.item_ids, vectors)


def _outcome(load):
    """What a load gives: its result, or the message of the error it raises."""
    try:
        return "ok", load()
    except ValidationError as exc:
        return "error", str(exc)


def _rows_until_error(rows):
    got = []
    try:
        for row in rows:
            got.append(row)
    except ValidationError as exc:
        return got, str(exc)
    return got, None


def _chunked_rows(path, header):
    for width, cells in pool._read_csv_cells(path, header):
        yield from (cells[k:k + width] for k in range(0, len(cells), width))


# ---------------------------------------------------------------- texts


def _mostly(good, bad, odds=12):
    """A draw from ``good``, or one time in ``odds`` from ``bad``."""
    return st.integers(0, odds - 1).flatmap(lambda k: bad if k == 0 else good)


_PLAIN = ["a", "b2", "q00161", "0.5", "-0", "1e-3", "é", "x y"]
_PADDED = [" a ", "\tb2", "0.5  ", " ", "", "\x0b", "　c"]
_SPECIAL = ['"q,r"', '"s""t"', '"u\nv"', '"w\r\nx"', "n\0ul", '"', 'a"b']
_CELL = _mostly(st.sampled_from(_PLAIN + _PADDED), st.sampled_from(_SPECIAL), 8)
_HEADERS = {
    "h1,h2,h3": ["h1", "h2", "h3"],
    " h1 , h2,h3\t": ["h1", "h2", "h3"],
    "h1,h2,h3,h4": ["h1", "..."],
    "h1,h2": ["h1", "h2", "h3"],
}


@st.composite
def _csv_text(draw, cell=_CELL):
    """A CSV text: mostly rows of the header's width with one line-end style,
    and now and then blank or whitespace rows, rows of another width, lone
    CRs and a missing last line end."""
    header = draw(st.sampled_from(sorted(_HEADERS)))
    width = len(header.split(","))
    odd_row = st.one_of(st.sampled_from(["", "   ", " , , ", "\t"]),
                        st.lists(cell, min_size=1, max_size=5).map(",".join))
    row = _mostly(st.lists(cell, min_size=width, max_size=width).map(",".join), odd_row, 6)
    rows = draw(st.lists(row, max_size=14))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    ends = [end] * (len(rows) + 1)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        ends[draw(st.integers(0, len(rows)))] = "\r"
    text = "".join(line + e for line, e in zip([header, *rows], ends))
    if draw(st.booleans()):
        text = text[:-len(ends[-1])]
    return text, _HEADERS[header]


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=400, deadline=None)
@given(case=_csv_text(), chunk_cells=st.integers(1, 16))
def test_chunked_reader_matches_csv_reader(csv_dir, case, chunk_cells):
    text, header = case
    path = csv_dir / "in.csv"
    path.write_bytes(text.encode())
    with mock.patch.object(pool, "CSV_CHUNK_CELLS", chunk_cells):
        got = _rows_until_error(_chunked_rows(path, header))
    assert got == _rows_until_error(_reference_rows(path, header))


@settings(max_examples=150, deadline=None)
@given(case=_csv_text(cell=st.sampled_from(_PLAIN + _PADDED)))
def test_reader_takes_the_split_path_on_plain_text(csv_dir, case):
    """Text without quotes, NUL or a lone CR never reaches csv.reader."""
    text, header = case
    path = csv_dir / "plain.csv"
    path.write_bytes(text.encode())
    with mock.patch.object(pool.csv, "reader", wraps=csv.reader) as reader:
        got = _rows_until_error(_chunked_rows(path, header))
    assert got == _rows_until_error(_reference_rows(path, header))
    if "\r" not in text.replace("\r\n", ""):
        assert reader.call_count == 1  # the header only


def test_reader_keeps_rows_read_before_text_that_is_not_utf8(csv_dir):
    path = csv_dir / "latin1.csv"
    good = "".join(f"m{k},i{k},0.{k}\n" for k in range(900))
    path.write_bytes(b"model_id,item_id,raw_value\n" + good.encode() + b"m,i,\xff\n")
    for chunk_cells in (3000, 21):
        with mock.patch.object(pool, "CSV_CHUNK_CELLS", chunk_cells):
            got = _rows_until_error(_chunked_rows(path, ["model_id", "item_id", "raw_value"]))
        assert got == _rows_until_error(
            _reference_rows(path, ["model_id", "item_id", "raw_value"]))
        assert "can't decode" in got[1]


# ---------------------------------------------------------------- tables

_ITEMS = ("i1", "i2", "i3", "i4")
_NORM = {
    "acc": {"kind": "identity"},
    "wer": {"kind": "one_minus_capped_error", "params": {"cap": 0.5}},
    "judge": {"kind": "affine_unit", "params": {"lo": 0, "hi": 10}},
}
_METRIC = {"i1": "acc", "i2": "wer", "i3": "judge", "i4": "acc"}


_RAW = _mostly(st.sampled_from(["0.5", "1", "0", "-0", "0.25", " 0.75 "]),
               st.sampled_from(["1.5", "-0.1", "10", "11", "nan", "inf", "x", ""]))


@pytest.fixture(scope="module")
def pool_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("pool")
    (root / "items.csv").write_text(
        "item_id,task_id,metric,needs_audio_in,needs_audio_out\n"
        + "".join(f"{i},t{k % 2},{_METRIC[i]},0,1\n" for k, i in enumerate(_ITEMS)))
    (root / "norm.json").write_text(json.dumps(_NORM))
    return root


@st.composite
def _long_form(draw, row_keys, col_keys, values):
    """Long-form rows over a full grid, shuffled, with cells dropped,
    repeated and corrupted, and now and then a row of the wrong width."""
    cells = [[r, c, draw(values)] for r in row_keys for c in col_keys]
    rows = draw(st.permutations(cells))
    rows = [row for row in rows if draw(st.integers(0, 30)) > 0]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        if rows:
            rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    for row in rows:
        fault = draw(st.integers(0, 60))
        if fault == 0:
            row[0] = ""
        elif fault == 1:
            row[1] = draw(st.sampled_from(["", "nope"]))
        elif fault == 2:
            row.append("extra")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(",".join(row) + end for row in rows)


@settings(max_examples=300, deadline=None)
@given(body=_long_form(("m2", "m1", "m3"), _ITEMS, _RAW),
       chunk_cells=st.integers(1, 24))
def test_load_pool_matches_row_by_row_reference(pool_files, body, chunk_cells):
    scores = pool_files / "scores.csv"
    scores.write_text("model_id,item_id,raw_value\n" + body, newline="")
    args = (pool_files / "items.csv", scores, pool_files / "norm.json")
    with mock.patch.object(pool, "CSV_CHUNK_CELLS", chunk_cells):
        kind, got = _outcome(lambda: load_pool(*args))
    want_kind, want = _outcome(lambda: _reference_load_pool(*args))
    assert kind == want_kind
    if kind == "error":
        assert got == want
    else:
        assert got.model_ids == want.model_ids
        assert got.values.tobytes() == want.values.tobytes()


@settings(max_examples=200, deadline=None)
@given(body=_long_form(("r2", "r1"), ("overall", "quality"),
                       _mostly(st.sampled_from(["1", "6", "3.5", " 2 "]),
                               st.sampled_from(["-0", "0.5", "7", "x", "nan"]), 6)),
       chunk_cells=st.integers(1, 12))
def test_load_ratings_matches_row_by_row_reference(pool_files, body, chunk_cells):
    path = pool_files / "ratings.csv"
    path.write_text("model_id,dimension,mean_rating\n" + body, newline="")
    with mock.patch.object(pool, "CSV_CHUNK_CELLS", chunk_cells):
        kind, got = _outcome(lambda: load_ratings(path))
    want_kind, want = _outcome(lambda: _reference_load_ratings(path))
    assert kind == want_kind
    if kind == "error":
        assert got == want
    else:
        assert (got.model_ids, got.dimensions) == (want.model_ids, want.dimensions)
        assert got.ratings_unit.tobytes() == want.ratings_unit.tobytes()


def _matrix(item_ids):
    items = tuple(ItemRecord(i, "t", "acc", False, False) for i in item_ids)
    return ScoreMatrix(("m1", "m2"), items, np.full((2, len(items)), 0.5))


@st.composite
def _embedding_rows(draw):
    ids = draw(st.permutations(["e1", "e2", "e3", "e4", "e5"]))
    ids = [i for i in ids if draw(st.integers(0, 15)) > 0]
    for _ in range(draw(st.integers(0, 1))):
        ids.insert(draw(st.integers(0, len(ids))), draw(st.sampled_from(["e1", "e9", ""])))
    values = _mostly(st.sampled_from(["0.5", "-1e3", " 2 ", "-0"]),
                     st.sampled_from(["x", "nan", "inf", ""]), 20)
    rows = []
    for item_id in ids:
        width = draw(_mostly(st.just(3), st.sampled_from([2, 4]), 15))
        rows.append(",".join([item_id, *draw(st.lists(values, min_size=width,
                                                      max_size=width))]))
    return "".join(row + "\r\n" for row in rows)


@settings(max_examples=300, deadline=None)
@given(body=_embedding_rows(), chunk_cells=st.integers(1, 16))
def test_load_embedding_csv_matches_row_by_row_reference(pool_files, body, chunk_cells):
    path = pool_files / "emb.csv"
    path.write_text("item_id,v0,v1,v2\r\n" + body, newline="")
    matrix = _matrix(["e3", "e1", "e2", "e4", "e5"])
    with mock.patch.object(pool, "CSV_CHUNK_CELLS", chunk_cells):
        kind, got = _outcome(lambda: load_embedding_csv(path, matrix, "semantic"))
    want_kind, want = _outcome(lambda: _reference_load_embedding_csv(path, matrix, "semantic"))
    assert kind == want_kind
    if kind == "error" and want == "non-finite embedding values":
        assert got.startswith(f"{path}: non-finite embedding values for item ")
    elif kind == "error":
        assert got == want
    else:
        assert got.vectors.tobytes() == want.vectors.tobytes()
