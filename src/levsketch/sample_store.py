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

A :class:`MatrixSampleStore` keeps the dense entries and, per column, the
squared norm ("mass"), a slack that bounds the rounding the mass has
taken and, where it is known, the count of nonzero squares. The build
sums the masses in one chunked pass. A write updates its column's mass by
its change of square and reads no other entry, unless the slack shows
that the mass has cancelled; a column whose count reaches 0 has mass
exactly 0. The first read of ||A||_F or column draw after a write sums a
tree over the masses afresh, in O(n), whose root is ||A||_F^2 and which
raises if that overflows or is subnormal, as the store's build does;
later reads reuse it. Entry reads, norm reads and index draws are
counted on the store for cost instrumentation.

For draws within a column the store keeps a column layer: the sum of
squares of every ROW_BLOCK-row block of every column, and one tree per
column over those block sums. A draw walks its column's tree to a block
and then reads that block's entries, so it costs O(log m) tree steps and
ROW_BLOCK entry reads, not m. The layer is built at the first such draw
after the store's build, from the same chunked pass. A write only flags
its block; the next draw from that column first sums its flagged blocks
afresh.

A tree update redoes the adds of a fresh build, so its sums never drift,
and so does a refreshed block. The store's masses are updated
incrementally and drift within their slack; the store's periodic rebuild
exists only for them.
"""
from __future__ import annotations

import math
import operator
import threading

import numpy as np

from . import textfile

# store rebuild after this many updates, to bound column-mass drift
REBUILD_EVERY = 1_000_000
_EPS = np.finfo(np.float64).eps
# a column whose mass is below its slack over _RESUM is summed afresh
_RESUM = 2.0 ** -20
# threshold of an empty right subtree: no residual reaches it, and
# _NEVER * False is 0.0
_NEVER = np.finfo(np.float64).max
_TINY = np.finfo(np.float64).tiny
# rows per block of the store's column layer: 2^ROW_BLOCK_BITS
ROW_BLOCK_BITS = 6
ROW_BLOCK = 1 << ROW_BLOCK_BITS
# the store's builds square about this many bytes of entries at a time, so
# that each chunk's squares are still in cache when they are summed: a
# 1000x100 store built in a median 0.43 ms at 256 KiB and 0.67 ms at 1 MiB,
# a 64000x100 one in 30 ms at either (2-core host, numpy 2.4)
_CHUNK_BYTES = 1 << 18


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
        fill_sums(self._sums, self._leaf)
        self.touches = 0

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

    def _check_index(self, i: int) -> int:
        try:
            i = operator.index(i)
        except TypeError:
            raise ValueError("index must be a whole number") from None
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

    Keeps the entries and, per column, the squared norm ("mass") that
    ``col_sq_norm`` reads and column draws sample by; no row norm is kept,
    since the sketch draws rows only within columns. Each mass carries a
    slack that bounds its rounding, and a write whose slack exceeds 2^-20
    of its column's mass sums that column afresh, so no read returns a
    cancelled mass or total. Indices are Python or numpy integers: any
    other type, even the float 1.0, raises ValueError.

    ``queries`` counts entry reads, norm reads and index draws; the counter
    is public and may be reset between phases of an experiment.
    """

    def __init__(self, matrix):
        entries = np.array(matrix, dtype=np.float64, order="C", ndmin=2)
        if entries.ndim != 2 or entries.size == 0:
            raise ValueError("matrix must be two-dimensional and non-empty")
        self.m, self.n = entries.shape
        self._entries = entries
        # row blocks of the column layer, the last one possibly ragged
        self._blocks = -(-self.m // ROW_BLOCK)
        self.queries = 0
        # serializes the column layer's build and refreshes between readers
        self._lock = threading.Lock()
        self.rebuild()
        self._mass_tree()

    def rebuild(self) -> None:
        """Sum every column's squares afresh, in one chunked pass over the
        entries: each mass is the in-order sum of its column's squares,
        bitwise ``(a * a).sum(axis=0)`` for two or more columns, with no
        m-by-n temporary. A column's slack starts at that sum's own
        rounding bound, m eps times its mass, and its nonzero squares are
        counted only where the count is free: 0 for a zero mass. The
        column layer is built afresh at the next within-column draw. A
        non-finite entry, or a mass that overflows, raises ValueError and
        leaves the store as it was."""
        with np.errstate(over="ignore"):
            for _, rows, buf in self._square_chunks():
                buf[0] = buf[:1 + rows].sum(axis=0)
        masses = buf[0, :self.n]
        if not np.isfinite(masses).all():
            # a nan or inf entry makes its column's mass non-finite too
            if not np.isfinite(self._entries).all():
                raise ValueError("non-finite input")
            raise ValueError("squared norm overflows")
        self._masses = masses.tolist()
        # the count of nonzero squares is infinite where it is unknown
        self._nonzero = [math.inf if mass else 0 for mass in self._masses]
        self._slack = (masses * (self.m * _EPS)).tolist()
        self._tree = None
        self._updates = 0
        self._col_sums = None
        # flag of block b of column j, at b n + j: written since the column
        # layer summed it (a bytearray item is the cheapest flag to set)
        self._stale = bytearray(self._blocks * self.n)
        self._stale_flags = np.frombuffer(self._stale, dtype=np.uint8
                                          ).reshape(self._blocks, self.n)

    def _square_chunks(self):
        """Yield (start, rows, buf) for each chunk of whole ROW_BLOCK-row
        blocks: buf[1:1 + rows] holds the squares of entry rows start to
        start + rows, and zero rows follow up to the buffer's end; row 0 is
        the caller's, to carry running totals. A chunk holds about
        _CHUNK_BYTES of squares, still in cache when they are summed. The
        buffer is at least two columns wide, since numpy sums a lone column
        pairwise and along any other axis in order."""
        chunk = ROW_BLOCK * min(self._blocks, max(1, _CHUNK_BYTES // (
            8 * self.n * ROW_BLOCK)))
        buf = np.empty((1 + chunk, max(self.n, 2)))
        buf[0] = 0.0
        for start in range(0, self.m, chunk):
            rows = min(chunk, self.m - start)
            part = self._entries[start:start + rows]
            np.multiply(part, part, out=buf[1:1 + rows, :self.n])
            buf[1 + rows:] = 0.0
            yield start, rows, buf

    def _mass_tree(self) -> np.ndarray:
        """The tree over the column masses (see fill_sums), summed after
        the last write; its root is the squared Frobenius norm. Reader
        threads that race here build equal trees, and any is kept.

        Raises ValueError for a total that overflows, or that is subnormal
        or zero for a nonzero matrix: sampling by subnormal squares would
        be inexact. The build refuses such a total, and so does the first
        read after the writes that leave one."""
        if self._tree is None:
            cap = 1 << max(0, (self.n - 1).bit_length())
            sums = np.zeros(2 * cap)
            sums[cap:cap + self.n] = self._masses
            with np.errstate(over="ignore"):
                sum_levels(sums)
            if sums[1] == math.inf:
                raise ValueError("squared norm overflows")
            # squares can all underflow to 0: only then are the entries
            # scanned
            if sums[1] < _TINY and (sums[1] > 0.0 or self._entries.any()):
                raise ValueError("squared norm underflows")
            self._tree = sums
        return self._tree

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    @property
    def sq_frobenius(self) -> float:
        return float(self._mass_tree()[1])

    def to_array(self) -> np.ndarray:
        """Dense copy of the stored matrix."""
        return self._entries.copy()

    def _check_entry(self, i: int, j: int) -> tuple[int, int]:
        # int() would truncate 1.9 to 1: only integer types are indices
        try:
            i, j = operator.index(i), operator.index(j)
        except TypeError:
            raise ValueError("entry index must be a whole number") from None
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
        try:
            j = operator.index(j)
        except TypeError:
            raise ValueError("column index must be a whole number") from None
        if not 0 <= j < self.n:
            raise IndexError(f"column {j} out of range for {self.n} columns")
        self.queries += 1
        return self._masses[j]

    def update(self, i: int, j: int, value: float) -> None:
        """Set A[i, j] and update column j's mass by the write's change of
        square. No row is summed: a total that overflows is refused at the
        next read (see ``_mass_tree``), but a value that makes the column's
        mass overflow raises ValueError here and leaves the store as it was.

        Each write adds 2 eps (mass + old^2 + value^2) to the column's
        slack, a bound on the rounding its mass has taken. A column whose
        counted nonzero squares reach 0 gets mass exactly 0. A mass whose
        slack exceeds 2^-20 of it has cancelled: its column is summed
        afresh, bitwise as ``rebuild`` sums it, and its nonzero squares
        are counted from then on.
        """
        i, j = self._check_entry(i, j)
        value = float(value)
        if not math.isfinite(value):
            raise ValueError("non-finite input")
        old = float(self._entries[i, j])
        mass, old_sq, new_sq = self._masses[j], old * old, value * value
        new = mass - old_sq + new_sq
        if not math.isfinite(new):
            raise ValueError("squared norm overflows")
        self._entries[i, j] = value
        count = self._nonzero[j] + (new_sq != 0.0) - (old_sq != 0.0)
        slack = self._slack[j] + 2.0 * _EPS * (mass + old_sq + new_sq)
        if count == 0:
            new = slack = 0.0
        elif slack > _RESUM * new:
            new, count = self._sum_column(j)
            slack = self.m * _EPS * new
        self._masses[j], self._nonzero[j], self._slack[j] = new, count, slack
        self._tree = None
        self._stale[(i >> ROW_BLOCK_BITS) * self.n + j] = 1
        self._updates += 1
        if self._updates >= REBUILD_EVERY:
            self.rebuild()

    def _sum_column(self, j: int) -> tuple[float, int]:
        """Column j's mass, summed in order as ``rebuild`` sums it, and its
        count of nonzero squares."""
        col = self._entries[:, j]
        sq = col * col
        return float(np.cumsum(sq)[-1]), int(np.count_nonzero(sq))

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
        fill_sums) over those sums, from the chunks of ``_square_chunks``:
        a block's rows are the middle axis of the chunk's reshape, so they
        are added in order, and a ragged last block is padded with zeros,
        which add exactly 0. Like the store's build, this preprocessing
        counts no reads."""
        cap = 1 << max(0, (self._blocks - 1).bit_length())
        col_sums = np.zeros((self.n, 2 * cap))
        for start, rows, buf in self._square_chunks():
            padded = -(-rows // ROW_BLOCK)
            first = cap + start // ROW_BLOCK
            sq = buf[1:1 + padded * ROW_BLOCK].reshape(padded, ROW_BLOCK, -1)
            col_sums[:, first:first + padded] = sq.sum(axis=1)[:, :self.n].T
        sum_levels(col_sums)
        self._stale_flags[:] = 0
        self._block_sq = col_sums[:, cap:cap + self._blocks]
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
                self._block_sq[col, block] = np.cumsum(vals * vals,
                                                       axis=1)[:, -1]
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
        pair, at = np.unique(cols * self._blocks + block,
                             return_inverse=True)
        vals = self._block_entries(pair // self._blocks, pair % self._blocks)
        self.queries += cols.size
        cum = np.cumsum(vals * vals, axis=1)[at]
        return block * ROW_BLOCK + pick_in_block(cum, rest)

    def sample_column_indices(self, rng: np.random.Generator,
                              size: int) -> np.ndarray:
        """Indices j drawn with probability ||A_{:,j}||^2 / ||A||_F^2, by
        one walk of the mass tree per draw (see ``sample_leaves``)."""
        sums = self._mass_tree()
        if sums[1] <= 0.0:
            raise ValueError("zero matrix")
        self.queries += int(size)
        return sample_leaves(sums[None], np.array([int(size)]), rng)[1]


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
