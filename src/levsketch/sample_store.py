"""Sample-model data structures for vectors and matrices.

A :class:`SampleTree` stores a real vector in a complete binary tree whose
leaves hold the signed entries and whose internal nodes hold partial sums of
squares. Querying or updating an entry costs O(log n), and one tree descent
draws an index i with probability v_i^2 / ||v||^2.

``fill_sums`` and ``sample_leaves`` build and walk such trees along the
last axis of an array, so the same code serves one SampleTree and the
sampled-dot scorer's stack of trees, one per row of S in a block. The walk
reads a threshold table built from the sums: each internal node's
threshold is its left child's sum, or the largest double where the right
subtree is empty, so a draw steps right exactly when its residual reaches
the threshold and never into a zero-mass subtree.

A :class:`MatrixSampleStore` keeps the dense entries and flat row-norm and
column-norm arrays, which a write updates in place. The first read of
||A||_F or column draw after a write builds a tree over each array afresh,
in O(m + n), and raises if ||A||_F^2 overflows or is subnormal, as the
store's build does; later reads reuse them. Entry reads, norm reads and
index draws are counted on the store for cost instrumentation.

For draws within a column the store keeps a column layer: the sum of
squares of every ROW_BLOCK-row block of every column, and one tree per
column over those block sums. A draw walks its column's tree to a block
and then reads that block's entries, so it costs O(log m) tree steps and
ROW_BLOCK entry reads, not m. The layer is built at the first such draw
after the store's build. A write only flags its block; the next draw from
that column first sums its flagged blocks afresh.

A tree update redoes the adds of a fresh build, so its sums never drift,
and so does a refreshed block. The store's column norms are updated
incrementally and do drift; the store's periodic rebuild exists only for
them.
"""
from __future__ import annotations

import math
import threading

import numpy as np

from . import textfile

# store rebuild after this many updates, to bound column-norm drift
REBUILD_EVERY = 1_000_000
# threshold of an empty right subtree: no residual reaches it, and
# _NEVER * False is 0.0
_NEVER = np.finfo(np.float64).max
_TINY = np.finfo(np.float64).tiny
# rows per block of the store's column layer: 2^ROW_BLOCK_BITS
ROW_BLOCK_BITS = 6
ROW_BLOCK = 1 << ROW_BLOCK_BITS
# the column layer's build squares about this many bytes of entries at a
# time, so that each chunk's squares are still in cache when they are summed
_CHUNK_BYTES = 1 << 20


def fill_sums(sums: np.ndarray, leaves: np.ndarray) -> None:
    """Fill the trees along the last axis of ``sums`` from ``leaves``.

    A tree over cap = 2^L leaves takes 2 cap slots: node v has children 2v
    and 2v + 1, leaf i sits at cap + i and holds the squared entry, and each
    internal node the sum of its children's; slot 0 is unused.
    """
    sums[..., leaves.shape[-1]:] = leaves * leaves
    sum_levels(sums)


def sum_levels(sums: np.ndarray) -> None:
    """Fill the internal nodes of the trees along the last axis of ``sums``
    from their leaves' masses, level by level (the adds of ``fill_sums``)."""
    half = sums.shape[-1] // 4
    while half >= 1:
        child = sums[..., 2 * half:4 * half]
        np.add(child[..., 0::2], child[..., 1::2],
               out=sums[..., half:2 * half])
        half //= 2


def block_sums(sq: np.ndarray) -> np.ndarray:
    """Sums of every ROW_BLOCK consecutive rows of the 2-D ``sq``, whose
    row count is a multiple of ROW_BLOCK, added strictly in order: bitwise
    the last prefix that ``np.cumsum`` takes of each block.

    numpy adds along an axis in order unless that axis is the innermost
    one of the array, which it sums pairwise; so the blocks' rows are the
    middle axis of a C-ordered array, next to a zero column if ``sq`` has
    one column.
    """
    cols = sq.shape[1]
    blocks = np.ascontiguousarray(sq).reshape(-1, ROW_BLOCK, cols)
    if cols == 1:
        blocks = np.concatenate([blocks, np.zeros_like(blocks)], axis=2)
    return blocks.sum(axis=1)[:, :cols]


def pick_in_block(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row of prefix sums ``cum``, the first index whose prefix exceeds
    ``u``. A ``u`` that rounded up to the row's total lands on the row's
    last entry with mass, never on a zero tail."""
    over = (cum <= u[:, None]).sum(axis=1)
    return np.minimum(over, (cum < cum[:, -1:]).sum(axis=1))


def sample_leaves(sums: np.ndarray, counts,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``counts[r]`` leaves of the tree in row r of ``sums``, each
    leaf i with probability v_i^2 / ||v||^2.

    Returns the tree and the leaf of every draw, tree by tree. All draws
    take their uniforms from one ``rng.random`` call in that order, which
    reads the stream exactly as one call per tree would, and descend
    together in one ``descend``.
    """
    tree = np.repeat(np.arange(sums.shape[0]), counts)
    u = rng.random(tree.size) * np.repeat(sums[:, 1], counts)
    return tree, descend(sums, tree, u)[0]


def descend(sums: np.ndarray, tree: np.ndarray,
            u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walk draw d down tree ``tree[d]`` of ``sums`` from the mass
    ``u[d]``, in [0, that tree's total); returns each draw's leaf and the
    residual mass left within it. ``u`` is consumed.

    The walk reads one threshold table, built in O(trees * leaves) per
    call: a draw at node j of depth d in tree t sits at flat index
    t 2^d + j of that level's (trees, 2^d) thresholds, goes right when
    its residual u reaches its threshold, and then drops the threshold
    from u. Where a right subtree is empty the threshold is the largest
    double, which a residual below the tree's finite total never
    reaches, so rounding in u cannot land a walk on a zero-mass leaf.
    Going left subtracts the threshold times 0, which is 0.0: every step
    is branchless and bitwise a step that tests both children. A zero
    total, or one that overflows, raises ValueError.
    """
    width = sums.shape[1]
    totals = sums[:, 1]
    if (totals <= 0.0).any():
        raise ValueError("cannot sample zero vector")
    if not (totals < _NEVER).all():
        raise ValueError("squared norm overflows")
    # column v - 1 holds the threshold of internal node v, so depth d is
    # columns 2^d - 1 to 2^(d+1) - 2
    tables = np.where(sums[:, 3::2] == 0.0, _NEVER, sums[:, 2::2])
    flat = tree.copy()
    half = 1
    while 2 * half < width:
        thr = tables[:, half - 1:2 * half - 1].ravel()[flat]
        right = u >= thr
        thr *= right
        u -= thr
        flat <<= 1
        flat += right
        half *= 2
    return flat & (half - 1), u


def _check_total(sq_frobenius: float, nonzero: bool) -> None:
    """Raise ValueError for a squared Frobenius norm that overflows, or
    that is subnormal or zero for a matrix that is ``nonzero``: sampling by
    subnormal squares would be inexact."""
    if sq_frobenius == math.inf:
        raise ValueError("squared norm overflows")
    if sq_frobenius < _TINY and nonzero:
        raise ValueError("squared norm underflows")


class SampleTree:
    """Squared-magnitude sampling tree over a fixed-length signed vector."""

    __slots__ = ("size", "touches", "_cap", "_levels", "_leaf", "_sums")

    def __init__(self, values):
        arr = np.atleast_1d(np.asarray(values, dtype=np.float64))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("empty vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite input")
        self.size = arr.size
        self._cap = 1 << max(0, (arr.size - 1).bit_length())
        self._levels = self._cap.bit_length() - 1
        self._leaf = np.zeros(self._cap)
        self._leaf[:arr.size] = arr
        self._sums = np.zeros(2 * self._cap)
        self.touches = 0
        self.rebuild()

    def __len__(self) -> int:
        return self.size

    @property
    def sq_norm(self) -> float:
        """Sum of squared entries (root node)."""
        return float(self._sums[1])

    @property
    def values(self) -> np.ndarray:
        """Copy of the stored vector."""
        return self._leaf[:self.size].copy()

    def rebuild(self) -> None:
        """Recompute every internal node from the leaves."""
        fill_sums(self._sums, self._leaf)

    def _check_index(self, i: int) -> int:
        i = int(i)
        if not 0 <= i < self.size:
            raise IndexError(f"index {i} out of range for size {self.size}")
        return i

    def query(self, i: int) -> float:
        """Signed entry at position ``i``."""
        i = self._check_index(i)
        self.touches += 1
        return float(self._leaf[i])

    def update(self, i: int, value: float) -> None:
        """Set entry ``i`` and restore the path to the root, with the same
        adds as ``fill_sums``: the sums stay bitwise a fresh build's."""
        i = self._check_index(i)
        value = float(value)
        if not np.isfinite(value):
            raise ValueError("non-finite input")
        self._leaf[i] = value
        node = self._cap + i
        self._sums[node] = value * value
        self.touches += 1
        while node > 1:
            node //= 2
            self._sums[node] = self._sums[2 * node] + self._sums[2 * node + 1]
            self.touches += 1

    def sample_indices(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` indices, each i with probability v_i^2 / ||v||^2; one
        descent per draw, all draws in one vectorized walk."""
        size = int(size)
        _, idx = sample_leaves(self._sums[None], np.array([size]), rng)
        self.touches += size * (2 * self._levels + 1)
        return idx


class MatrixSampleStore:
    """Sample-model store for a dense m-by-n matrix.

    ``queries`` counts entry reads, norm reads and index draws; the counter
    is public and may be reset between phases of an experiment.
    """

    def __init__(self, matrix):
        entries = np.array(matrix, dtype=np.float64, order="C", ndmin=2)
        if entries.ndim != 2 or entries.size == 0:
            raise ValueError("matrix must be two-dimensional and non-empty")
        self.m, self.n = entries.shape
        self._entries = entries
        self.queries = 0
        # serializes the column layer's build and refreshes between readers
        self._lock = threading.Lock()
        self.rebuild()
        with np.errstate(over="ignore"):
            sq_frobenius = self._row_norms @ self._row_norms
        # squares can all underflow to 0: only then are the entries scanned
        _check_total(sq_frobenius, sq_frobenius > 0.0 or entries.any())

    def rebuild(self) -> None:
        """Recompute both norm arrays from the stored entries; the column
        layer is built afresh at the next within-column draw. A non-finite
        entry, or a norm whose square overflows, raises ValueError and leaves
        the store as it was."""
        with np.errstate(over="ignore"):
            sq = self._entries * self._entries
            rows, cols = np.sqrt(sq.sum(axis=1)), np.sqrt(sq.sum(axis=0))
        if not (np.isfinite(rows).all() and np.isfinite(cols).all()):
            # a nan or inf entry makes its norms non-finite too
            if not np.isfinite(self._entries).all():
                raise ValueError("non-finite input")
            raise ValueError("squared norm overflows")
        self._row_norms, self._col_norms = rows, cols
        self._trees = None
        self._updates = 0
        self._col_sums = None
        # flag of block b of column j, at b n + j: written since the column
        # layer summed it (a bytearray item is the cheapest flag to set)
        blocks = -(-self.m // ROW_BLOCK)
        self._stale = bytearray(blocks * self.n)
        self._stale_flags = np.frombuffer(self._stale, dtype=np.uint8
                                          ).reshape(blocks, self.n)

    def _norm_trees(self) -> tuple[SampleTree, SampleTree]:
        """The row-norm and column-norm trees, built after the last write;
        reader threads that race here build equal trees, and any is kept.
        Writes can leave a total that the build refuses, which raises
        here."""
        if self._trees is None:
            with np.errstate(over="ignore"):
                trees = (SampleTree(self._row_norms),
                         SampleTree(self._col_norms))
            # as at build, the entries are scanned only for a zero total
            _check_total(trees[0].sq_norm,
                         trees[0].sq_norm > 0.0 or self._entries.any())
            self._trees = trees
        return self._trees

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    @property
    def sq_frobenius(self) -> float:
        return self._norm_trees()[0].sq_norm

    def to_array(self) -> np.ndarray:
        """Dense copy of the stored matrix."""
        return self._entries.copy()

    def _check_entry(self, i: int, j: int) -> tuple[int, int]:
        i, j = int(i), int(j)
        if not (0 <= i < self.m and 0 <= j < self.n):
            raise IndexError(f"entry ({i}, {j}) out of range for shape "
                             f"{self.shape}")
        return i, j

    def query(self, i: int, j: int) -> float:
        """Entry A[i, j]."""
        i, j = self._check_entry(i, j)
        self.queries += 1
        return float(self._entries[i, j])

    def block_values(self, rows, cols) -> np.ndarray:
        """Entries A[rows][:, cols] as one counted gather."""
        rows = np.asarray(rows, dtype=np.int64)
        idx = np.asarray(cols, dtype=np.int64)
        self.queries += rows.size * idx.size
        # two takes are C-contiguous, which the stacked exact-dot product
        # needs to round as each row's own product does; the axis whose
        # take leaves the smaller intermediate goes first (same bits)
        if rows.size * self.n <= self.m * idx.size:
            return self._entries.take(rows, axis=0).take(idx, axis=1)
        return self._entries.take(idx, axis=1).take(rows, axis=0)

    def col_sq_norm(self, j: int) -> float:
        j = int(j)
        if not 0 <= j < self.n:
            raise IndexError(f"column {j} out of range for {self.n} columns")
        self.queries += 1
        v = float(self._col_norms[j])
        return v * v

    def update(self, i: int, j: int, value: float) -> None:
        """Set A[i, j], maintaining both norm arrays. A value that makes
        a norm's square overflow raises ValueError and leaves the store as
        it was."""
        i, j = self._check_entry(i, j)
        value = float(value)
        if not math.isfinite(value):
            raise ValueError("non-finite input")
        row = self._entries[i]
        old = float(row[j])
        row[j] = value
        # summed from the dense row: bitwise the value a rebuild computes.
        # The row's squares summed to rowv^2 before this write, so below
        # half the largest double no step of the new sum can overflow; only
        # past that is numpy's overflow warning silenced, since entering
        # np.errstate costs about 2 us (numpy 2.4 on a 2-core host)
        rowv = float(self._row_norms[i])
        if rowv * rowv + value * value < 0.5 * _NEVER:
            row_sq = np.add.reduce(row * row)
        else:
            with np.errstate(over="ignore"):
                row_sq = np.add.reduce(row * row)
        colv = float(self._col_norms[j])
        col_sq = colv * colv - old * old + value * value
        if not (math.isfinite(row_sq) and math.isfinite(col_sq)):
            row[j] = old
            raise ValueError("squared norm overflows")
        self._row_norms[i] = math.sqrt(row_sq)
        self._col_norms[j] = math.sqrt(max(col_sq, 0.0))
        self._trees = None
        self._stale[(i >> ROW_BLOCK_BITS) * self.n + j] = 1
        self._updates += 1
        if self._updates >= REBUILD_EVERY:
            self.rebuild()

    def _block_entries(self, cols: np.ndarray,
                       blocks: np.ndarray) -> np.ndarray:
        """Entries of block ``blocks[d]`` of column ``cols[d]``, one
        ROW_BLOCK-wide row per pair, zero past the last matrix row; counts
        the entries read."""
        rows = blocks[:, None] * ROW_BLOCK + np.arange(ROW_BLOCK)
        inside = rows < self.m
        self.queries += int(inside.sum())
        vals = self._entries[np.minimum(rows, self.m - 1), cols[:, None]]
        return np.where(inside, vals, 0.0)

    def _build_column_layer(self) -> None:
        """Sum every block of every column and one tree per column (see
        fill_sums) over those sums. The entries are squared a chunk of whole
        blocks at a time, each chunk in cache when it is summed; a ragged
        last block is padded with zeros, which add exactly 0. Like the
        store's build, this preprocessing counts no reads."""
        m, n = self.m, self.n
        blocks = self._stale_flags.shape[0]
        cap = 1 << max(0, (blocks - 1).bit_length())
        col_sums = np.zeros((n, 2 * cap))
        chunk = ROW_BLOCK * min(blocks, max(1, _CHUNK_BYTES // (
            8 * n * ROW_BLOCK)))
        sq = np.zeros((chunk, n))
        for start in range(0, m, chunk):
            rows = min(chunk, m - start)
            padded = -(-rows // ROW_BLOCK) * ROW_BLOCK
            part = self._entries[start:start + rows]
            np.multiply(part, part, out=sq[:rows])
            sq[rows:padded] = 0.0
            first = cap + start // ROW_BLOCK
            col_sums[:, first:first + padded // ROW_BLOCK] = block_sums(
                sq[:padded]).T
        sum_levels(col_sums)
        self._stale_flags[:] = 0
        self._block_sq = col_sums[:, cap:cap + blocks]
        self._col_sums = col_sums

    def _column_trees(self, cols: np.ndarray) -> np.ndarray:
        """The trees of the distinct columns ``cols``, bitwise a fresh
        build's: the layer is built if it is not, and the written blocks
        of ``cols`` are summed afresh and their trees re-summed. Reader
        threads take turns here."""
        with self._lock:
            if self._col_sums is None:
                self._build_column_layer()
            block, at = np.nonzero(self._stale_flags[:, cols])
            if at.size:
                col = cols[at]
                vals = self._block_entries(col, block)
                self._block_sq[col, block] = block_sums((vals * vals).T)[0]
                col = np.unique(col)
                sums = self._col_sums[col]
                sum_levels(sums)
                self._col_sums[col] = sums
                self._stale_flags[:, col] = 0
            return self._col_sums[cols]

    def sample_in_columns(self, cols, u) -> np.ndarray:
        """Row i of column ``cols[d]`` for every draw d, with probability
        A[i, j]^2 / ||A_{:,j}||^2 given its uniform ``u[d]`` in [0, 1].

        All draws walk their columns' trees together to a block (see
        ``descend``), then pick the row within the block from its prefix
        sums; each distinct (column, block) is read once. Costs one index
        draw per draw and ROW_BLOCK entry reads per distinct block, after
        the flagged blocks of ``cols`` are summed afresh (ROW_BLOCK reads
        each).
        """
        cols = np.asarray(cols, dtype=np.int64)
        u = np.asarray(u, dtype=np.float64)
        if cols.size and not 0 <= cols.min() <= cols.max() < self.n:
            raise IndexError(f"column out of range for {self.n} columns")
        if not ((u >= 0.0) & (u <= 1.0)).all():
            raise ValueError("uniforms must lie in [0, 1]")
        distinct, tree = np.unique(cols, return_inverse=True)
        sums = self._column_trees(distinct)
        block, rest = descend(sums, tree, u * sums[tree, 1])
        blocks = self._stale_flags.shape[0]
        pair, at = np.unique(cols * blocks + block, return_inverse=True)
        vals = self._block_entries(pair // blocks, pair % blocks)
        self.queries += cols.size
        cum = np.cumsum(vals * vals, axis=1)[at]
        return block * ROW_BLOCK + pick_in_block(cum, rest)

    def sample_column_indices(self, rng: np.random.Generator,
                              size: int) -> np.ndarray:
        """Indices j drawn with probability ||A_{:,j}||^2 / ||A||_F^2."""
        if self.sq_frobenius <= 0.0:
            raise ValueError("zero matrix")
        self.queries += int(size)
        return self._norm_trees()[1].sample_indices(rng, size)


def write_matrix_csv(path, matrix, metadata: dict | None = None) -> None:
    """Write a dense matrix as comma-separated rows with `#` metadata lines.

    ``m`` and ``n`` are always recorded; extra metadata keys are written one
    per line as ``# key=value``. Values are formatted as the text file
    format does (see ``textfile``), so the file round-trips bit-exactly.
    """
    arr = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    meta = {key: val for key, val in (metadata or {}).items()
            if key not in ("m", "n")}
    textfile.write(path, [f"# m={arr.shape[0]} n={arr.shape[1]}",
                          *textfile.meta_lines(**meta),
                          *map(textfile.floats, arr)])


def read_matrix_csv(path) -> tuple[np.ndarray, dict]:
    """Read a matrix file written by :func:`write_matrix_csv` or in triplet
    form (``# coo m n`` header, then 1-based ``i,j,value`` lines, each
    position at most once). A malformed file raises a one-line ValueError.
    """
    f = textfile.TextFile(path, "matrix")
    meta = {key: textfile.typed(val) for key, val in f.metadata().items()}
    rows = f.sections[None]
    coo = None
    for body in f.comments:
        parts = body.split()
        if parts[:1] == ["coo"]:
            if len(parts) != 3:
                raise f.malformed("expected a '# coo m n' header")
            coo = tuple(f.numbers(parts[1:], int))
            if min(coo) < 1:
                raise f.malformed(f"'# {body}' needs m, n >= 1")
    if coo is not None:
        m, n = coo
        arr = np.zeros((m, n))
        seen = set()
        for line in rows:
            fields = line.split(",")
            if len(fields) != 3:
                raise f.malformed("triplet lines must be i,j,value")
            i, j = f.numbers(fields[:2], int)
            if not (1 <= i <= m and 1 <= j <= n):
                raise f.malformed(f"entry ({i}, {j}) outside the {m}x{n} "
                                  "matrix")
            if (i, j) in seen:
                raise f.malformed(f"entry ({i}, {j}) given twice")
            seen.add((i, j))
            arr[i - 1, j - 1] = f.numbers(fields[2:])[0]
        meta.setdefault("m", m)
        meta.setdefault("n", n)
        return arr, meta
    values = [f.numbers(line.split(",")) for line in rows]
    widths = {len(row) for row in values}
    if len(widths) > 1:
        raise f.malformed(f"rows of {sorted(widths)} fields")
    shape = (len(values), widths.pop() if widths else 0)
    if (meta.get("m", shape[0]), meta.get("n", shape[1])) != shape:
        raise f.malformed(f"header m={meta.get('m')} n={meta.get('n')} "
                          f"but {shape[0]} rows of {shape[1]} values")
    return np.array(values), meta
