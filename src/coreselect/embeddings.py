"""Item embedding spaces for clustering.

Variants: raw performance vectors (one score per source model), PCA-reduced
semantic/acoustic vectors ingested from CSV, latent-trait embeddings built by
the irt module, and the combined concatenation
[acoustic | semantic | performance | audio-metadata bits].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .pool import ScoreMatrix, _read_csv_cells

EMBEDDING_KINDS = ("performance", "semantic", "acoustic", "irt", "combined")


@dataclass(frozen=True)
class EmbeddingSet:
    """One vector per pool item, rows in pool item order."""

    kind: str
    item_ids: tuple[str, ...]
    vectors: np.ndarray  # N x dim
    _pca: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in EMBEDDING_KINDS:
            raise ValidationError(f"unknown embedding kind {self.kind!r}")
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != len(self.item_ids):
            raise ValidationError("embedding rows misaligned with item ids")
        if v.size and not np.isfinite(v).all():
            raise ValidationError("non-finite embedding values")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def pca(self, k: int, name: str) -> np.ndarray:
        """pca_reduce(self.vectors, k, name), computed once per k and read-only."""
        if k not in self._pca:
            self._pca[k] = pca_reduce(self.vectors, k, name)
            self._pca[k].flags.writeable = False
        return self._pca[k]


def pca_reduce(vectors: np.ndarray, k: int, name: str = "embedding") -> np.ndarray:
    """Project mean-centered rows onto the top-k principal directions.

    Components are ordered by descending explained variance; each component's
    sign is fixed so its largest-magnitude loading is positive, making the
    output deterministic across runs and platforms. Columns beyond the matrix
    rank are exactly zero. Finite values whose covariance overflows raise a
    ValidationError that names the input as ``name``, without a numpy warning.
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError("pca_reduce expects a 2-D array")
    n, d = x.shape
    if n < 2:
        raise ValidationError("pca_reduce needs at least 2 rows")
    if not 1 <= k <= d:
        raise ValidationError(f"pca target k={k} outside [1, {d}]")
    if not np.isfinite(x).all():
        raise ValidationError("non-finite input to pca_reduce")

    with np.errstate(over="ignore", invalid="ignore"):
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / (n - 1)
    if not np.isfinite(cov).all():
        raise ValidationError(f"{name} values too large for PCA: their covariance overflows")
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order][:k]
    components = eigvecs[:, order][:, :k]

    for j in range(components.shape[1]):
        lead = np.argmax(np.abs(components[:, j]))
        if components[lead, j] < 0:
            components[:, j] = -components[:, j]

    projected = centered @ components
    tol = max(n, d) * np.finfo(np.float64).eps * max(float(eigvals[0]), 0.0)
    projected[:, eigvals <= tol] = 0.0
    return projected


def minmax_scale(vectors: np.ndarray) -> np.ndarray:
    """Affine-map each column to [0,1]; constant columns map to all zeros."""
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValidationError("minmax_scale expects a non-empty 2-D array")
    if not np.isfinite(x).all():
        raise ValidationError("non-finite input to minmax_scale")
    lo = x.min(axis=0)
    span = x.max(axis=0) - lo
    out = np.zeros_like(x)
    nonconst = span > 0
    out[:, nonconst] = (x[:, nonconst] - lo[nonconst]) / span[nonconst]
    return out


def performance_embeddings(matrix: ScoreMatrix) -> EmbeddingSet:
    """Each item's vector of source-model scores (dim = number of models)."""
    return EmbeddingSet("performance", matrix.item_ids, matrix.values.T)


def _check_alignment(embedding: EmbeddingSet, matrix: ScoreMatrix, label: str) -> None:
    if embedding.item_ids != matrix.item_ids:
        missing = set(matrix.item_ids) - set(embedding.item_ids)
        if missing:
            raise ValidationError(
                f"{label} embeddings missing items: {sorted(missing)[:5]}"
            )
        raise ValidationError(f"{label} embeddings not in pool item order")


def assemble_combined(
    acoustic: EmbeddingSet,
    semantic: EmbeddingSet,
    matrix: ScoreMatrix,
) -> EmbeddingSet:
    """Concatenate [pca_K(acoustic) | pca_K(semantic) | scores | audio bits].

    Acoustic/semantic blocks are PCA-reduced to K = number of source models
    and then MinMax-scaled, matching the [0,1] range of the score block; the
    metadata block is the two audio-required bits. Total dim is 3K + 2.
    """
    _check_alignment(acoustic, matrix, "acoustic")
    _check_alignment(semantic, matrix, "semantic")
    k = matrix.n_models
    ac = minmax_scale(acoustic.pca(k, "acoustic embedding"))
    se = minmax_scale(semantic.pca(k, "semantic embedding"))
    perf = matrix.values.T
    meta = np.asarray(
        [[float(it.needs_audio_in), float(it.needs_audio_out)] for it in matrix.items]
    )
    combined = np.hstack([ac, se, perf, meta])
    return EmbeddingSet("combined", matrix.item_ids, combined)


def load_embedding_csv(path: str | Path, matrix: ScoreMatrix, kind: str) -> EmbeddingSet:
    """Read ``item_id,v0,v1,...`` rows and align them to the pool item order."""
    path = Path(path)
    seen: set[str] = set()  # every item id read so far
    vectors = np.empty((matrix.n_items, 0))
    for width, cells in _read_csv_cells(path, ["item_id", "..."]):
        ids = cells[::width]
        n = len(ids)
        chunk_ids = dict.fromkeys(ids)
        try:
            if len(chunk_ids) < n or not seen.isdisjoint(chunk_ids):
                raise ValueError
            cells[::width] = repeat("0", n)  # parse the id column as zeros, then drop it
            block = np.fromiter(map(float, cells), np.float64, n * width).reshape(n, width)
        except ValueError:
            _raise_first_row_error(path, seen, ids, cells, width)
        seen.update(chunk_ids)
        if vectors.shape[1] != width - 1:  # the first chunk
            vectors = np.empty((matrix.n_items, width - 1))
        rows = np.fromiter(map(matrix._item_pos.get, ids, repeat(-1)), np.intp, n)
        known = rows >= 0
        vectors[rows[known]] = block[known, 1:]
    missing = [item_id for item_id in matrix.item_ids if item_id not in seen]
    if missing:
        raise ValidationError(f"{path}: missing embedding for item {missing[0]!r}")
    if len(seen) > matrix.n_items:
        unknown = sorted(seen.difference(matrix.item_ids))
        raise ValidationError(f"{path}: embeddings for unknown items {unknown[:5]}")
    finite = np.isfinite(vectors).all(axis=1)
    if not finite.all():
        raise ValidationError(f"{path}: non-finite embedding values for item "
                              f"{matrix.item_ids[np.argmin(finite)]!r}")
    return EmbeddingSet(kind, matrix.item_ids, vectors)


def _raise_first_row_error(path: Path, seen: set[str], ids: list[str], cells: list[str],
                           width: int) -> None:
    """Raise the error of the first row of a chunk, in file order, that repeats
    an item id or holds a value ``float`` rejects."""
    seen = set(seen)
    for k, item_id in enumerate(ids):
        if item_id in seen:
            raise ValidationError(f"{path}: duplicate embedding for {item_id!r}")
        seen.add(item_id)
        try:
            [float(c) for c in cells[k * width + 1:(k + 1) * width]]
        except ValueError as exc:
            raise ValidationError(f"{path}: non-numeric value for {item_id!r} ({exc})") from None
