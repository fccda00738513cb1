"""Sample-model data structures for vectors and matrices.

In the sample model a real vector lives in a complete binary tree whose
leaves hold the signed entries and whose internal nodes hold partial sums
of squares, and one walk down the tree draws an index i with probability
v_i^2 / ||v||^2. ``build_trees`` builds one such tree per row of a 2-D
array, and ``sample_leaves`` and ``descend`` walk a stack of trees
together, so the same code serves one vector (``estimate_inner``), the
sampled-dot scorer's stack of trees, one per row of S in a block, and the
store's trees below. The walk reads a threshold table built from the sums:
each internal node's threshold is its left child's sum, or the largest
double where the right subtree is empty, so a draw steps right exactly
when its residual reaches the threshold and never into a zero-mass
subtree.

A :class:`MatrixSampleStore` keeps the dense entries and one norm
structure, its column layer: the sum of squares of every ROW_BLOCK-row
block of every column, one tree per column over those block sums, whose
root is the column's squared norm ("mass"), and one tree over the masses,
whose root is ||A||_F^2. The build sums all of it in one chunked pass over
the entries. A write checks its indices and value, stores the value, flags
its block and reads nothing else: about 0.50 us a write in a loop of 20000
writes to a 64000x100 store (the benchmark's banded-tall ``update_us``, in
reference-host time; Python 3.11, numpy 2.4). The
first norm read or draw after writes sums every flagged block afresh in
one gather, then the trees of the changed columns and the mass tree, with
the adds of the build: every norm and tree the store reports is bitwise a
fresh store's over the same entries, so no mass drifts and none needs a
periodic rebuild.

A column draw walks the mass tree. A draw within a column walks its
column's tree to a block and then reads that block's entries, so it costs
O(log m) tree steps and ROW_BLOCK entry reads, not m.

Entry reads, norm reads and index draws are counted on the store for cost
instrumentation: every entry read in ``_gather`` but the row draws' block
scan, which ``sample_in_columns`` counts with its draws, every norm read
in ``col_sq_norms`` and the column draws in ``sample_column_indices``.
The build and the refresh after writes are the store's own upkeep and
count no reads, so a sketch drawn after writes counts what it would on a
fresh store of the same entries.
"""
from __future__ import annotations

import math
import operator
import threading
from collections.abc import Iterator

import numpy as np

from . import textfile

# threshold of an empty right subtree: no residual reaches it, and
# _NEVER * False is 0.0
_NEVER = np.finfo(np.float64).max
_TINY = np.finfo(np.float64).tiny
# rows per block of the store's column layer: 2^ROW_BLOCK_BITS
ROW_BLOCK_BITS = 6
ROW_BLOCK = 1 << ROW_BLOCK_BITS
# the store's build squares about this many bytes of entries at a time, so
# that each chunk's squares are still in cache when they are summed: a
# 1000x100 store built in a median 0.43 ms at 256 KiB and 0.67 ms at 1 MiB,
# a 64000x100 one in 30 ms at either (2-core host, numpy 2.4)
_CHUNK_BYTES = 1 << 18


class IndexRangeError(IndexError, ValueError):
    """An index outside its range. It is both an IndexError and a
    ValueError, as numpy's AxisError is, so that a caller that catches
    either of them catches it."""


def check_index(i, size: int, what: str = "index") -> int:
    """``i`` as an int in [0, size). Only Python and numpy integers are
    indices: a bool, or any other type, even the float 1.0, raises
    ValueError, and an index outside the range IndexRangeError. This and
    ``check_indices`` are the library's index checks, except that
    ``MatrixSampleStore.update`` tests an exact int in range in place and
    defers every other index to this one."""
    try:
        if isinstance(i, (bool, np.bool_)):
            raise TypeError
        i = operator.index(i)
    except TypeError:
        raise ValueError(f"{what} must be a whole number") from None
    if not 0 <= i < size:
        raise IndexRangeError(f"{what} {i} out of range for size {size}")
    return i


def check_indices(idx, size: int, what: str = "index") -> np.ndarray:
    """``idx`` as an int64 array of indices in [0, size), checked before
    any cast. An array of any other than an integer type, bool included,
    raises ValueError, and an index outside the range IndexRangeError. An
    object array of Python and numpy integers, as numpy holds an int that
    int64 cannot, is checked value by value."""
    idx = np.asarray(idx)
    if idx.size and idx.dtype.kind not in "iu":
        if not (idx.dtype == object and all(
                isinstance(i, (int, np.integer)) and not isinstance(i, bool)
                for i in idx.flat)):
            raise ValueError(f"{what} must be a whole number")
        if not all(0 <= i < size for i in idx.flat):
            raise IndexRangeError(f"{what} out of range for size {size}")
    idx = idx.astype(np.int64, copy=False)
    # one pass: a negative index read as unsigned is above any size
    if idx.size and idx.view(np.uint64).max() >= size:
        raise IndexRangeError(f"{what} out of range for size {size}")
    return idx


def build_trees(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One tree per row of the 2-D ``vectors``, as (leaves, sums).

    Each row is padded with zeros to cap = 2^L leaves. Its tree takes 2 cap
    slots of ``sums``: node v has children 2v and 2v + 1, leaf i sits at
    cap + i and holds the squared entry, and each internal node the sum of
    its children's; slot 0 is unused.
    """
    rows, size = vectors.shape
    cap = 1 << max(0, (size - 1).bit_length())
    leaves = np.zeros((rows, cap))
    leaves[:, :size] = vectors
    sums = np.zeros((rows, 2 * cap))
    sums[:, cap:] = leaves * leaves
    sum_levels(sums)
    return leaves, sums


def sum_levels(sums: np.ndarray) -> None:
    """Fill the internal nodes of the trees along the last axis of ``sums``
    from their leaves' masses, level by level, each node the sum of its two
    children (see ``build_trees``)."""
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


class MatrixSampleStore:
    """Sample-model store for a dense m-by-n matrix.

    Keeps the entries and the column layer (see the module docstring): per
    column a tree over its ROW_BLOCK-row block sums, whose root is the
    squared column norm ("mass") that ``col_sq_norm`` reads, and a tree
    over the masses that column draws walk. No row norm is kept, since the
    sketch draws rows only within columns. A write flags its block; the
    next norm read or draw sums the flagged blocks and the trees above
    them afresh, so every norm is bitwise a fresh build's. Indices are
    Python or numpy integers: a bool or any other type, even the float
    1.0, raises ValueError, and an index out of range IndexRangeError
    (see ``check_index`` and ``check_indices``).

    ``queries`` counts entry reads, norm reads and index draws, and nothing
    else: the build and the refresh after writes count no reads. The
    counter is public and may be reset between phases of an experiment.
    """

    def __init__(self, matrix):
        entries = np.array(matrix, dtype=np.float64, order="C", ndmin=2)
        if entries.ndim != 2 or entries.size == 0:
            raise ValueError("matrix must be two-dimensional and non-empty")
        self.m, self.n = entries.shape
        self._entries = entries
        # the entries in row-major order as a 1-D memoryview, which update
        # writes: its item store is cheaper than a numpy scalar setitem
        self._flat = memoryview(entries.reshape(-1))
        # row blocks of the column layer, the last one possibly ragged
        self._blocks = -(-self.m // ROW_BLOCK)
        self.queries = 0
        # serializes the refresh after writes between readers
        self._lock = threading.Lock()
        # node v of column j's tree (see build_trees) at [v, j]: leaf
        # cap + b holds the sum of squares of block b, the root the mass
        cap = 1 << max(0, (self._blocks - 1).bit_length())
        self._col_sums = np.zeros((2 * cap, self.n))
        # squares of whole blocks, about _CHUNK_BYTES at a time; the buffer
        # is at least two columns wide, since numpy sums a lone column
        # pairwise and along any other axis in order, and a ragged last
        # block is padded with zeros, which add exactly 0
        chunk = ROW_BLOCK * min(self._blocks, max(1, _CHUNK_BYTES // (
            8 * self.n * ROW_BLOCK)))
        buf = np.zeros((chunk, max(self.n, 2)))
        with np.errstate(over="ignore"):
            for start in range(0, self.m, chunk):
                rows = min(chunk, self.m - start)
                part = entries[start:start + rows]
                np.multiply(part, part, out=buf[:rows, :self.n])
                buf[rows:] = 0.0
                padded = -(-rows // ROW_BLOCK)
                first = cap + start // ROW_BLOCK
                sq = buf[:padded * ROW_BLOCK].reshape(padded, ROW_BLOCK, -1)
                self._col_sums[first:first + padded] = sq.sum(
                    axis=1)[:, :self.n]
            sum_levels(self._col_sums.T)
        # flag of block b of column j, at b n + j: written since it was
        # summed (a bytearray item is the cheapest flag to set)
        self._stale = bytearray(self._blocks * self.n)
        self._stale_flags = np.frombuffer(self._stale, dtype=np.uint8
                                          ).reshape(self._blocks, self.n)
        self._mass = None
        self._mass_tree()

    def _mass_tree(self) -> np.ndarray:
        """The tree over the column masses (see build_trees), whose root is
        the squared Frobenius norm, after the written blocks are summed
        afresh: one gather of every flagged block, then the trees of their
        columns and this tree, with the adds of the build. Later reads
        reuse it until the next write. Reader threads take turns here, and
        the first refreshes for all. Counts no reads.

        Raises ValueError for a non-finite entry, for a total that
        overflows, or that is subnormal or zero for a nonzero matrix:
        sampling by subnormal squares would be inexact. The build refuses
        such a total, and so does every read after the writes that leave
        one, until writes bring it back."""
        with self._lock, np.errstate(over="ignore"):
            if self._mass is None:
                block, col = np.nonzero(self._stale_flags)
                if col.size:
                    sq = self._block_entries(col, block)
                    sq *= sq
                    # each block summed in order, as the build sums it
                    total = sq[0]
                    for row in sq[1:]:
                        total += row
                    self._col_sums[len(self._col_sums) // 2 + block,
                                   col] = total
                    col = np.unique(col)
                    sums = self._col_sums[:, col]
                    sum_levels(sums.T)
                    self._col_sums[:, col] = sums
                    self._stale_flags[:] = 0
                cap = 1 << max(0, (self.n - 1).bit_length())
                tree = np.zeros(2 * cap)
                tree[cap:cap + self.n] = self._col_sums[1]
                sum_levels(tree)
                if not tree[1] < math.inf:
                    # a nan or inf entry makes the total non-finite too
                    if not np.isfinite(self._entries).all():
                        raise ValueError("non-finite input")
                    raise ValueError("squared norm overflows")
                # squares can all underflow to 0: only then are the
                # entries scanned
                if tree[1] < _TINY and (tree[1] > 0.0 or
                                        self._entries.any()):
                    raise ValueError("squared norm underflows")
                self._mass = tree
            return self._mass

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    @property
    def sq_frobenius(self) -> float:
        return float(self._mass_tree()[1])

    def to_array(self) -> np.ndarray:
        """Dense copy of the stored matrix."""
        return self._entries.copy()

    def query(self, i: int, j: int) -> float:
        """Entry A[i, j], one counted gather."""
        i, j = check_index(i, self.m, "row"), check_index(j, self.n, "column")
        return float(self._gather(np.array([i]), np.array([j]),
                                  np.empty((1, 1)))[0, 0])

    def block_values(self, rows, cols) -> np.ndarray:
        """Entries A[rows][:, cols] as one counted gather into a new
        C-contiguous array: rows that are one increasing run, such as all
        m, are read from a view of them, and only the column take copies
        (see ``_gather``)."""
        rows = check_indices(rows, self.m, "row index")
        cols = check_indices(cols, self.n, "column index")
        return self._gather(rows, cols, np.empty((rows.size, cols.size)))

    def row_blocks(self, rows, cols,
                   step: int) -> Iterator[tuple[int, np.ndarray]]:
        """Yield (first, A[rows[first:first + step]][:, cols]) for first =
        0, step, 2 step, ...: the entries of ``rows`` at ``cols`` in blocks
        of up to ``step`` rows, in order.

        Both index arrays are checked once, before the first block, so a
        bad index raises before anything is read or counted; each block
        is one ``_gather``, which counts its entries as it reads them.
        Every block is written to one buffer, which the next block
        overwrites, and holds the bits that ``block_values`` gives for its
        rows.
        """
        rows = check_indices(rows, self.m, "row index")
        cols = check_indices(cols, self.n, "column index")
        buf = np.empty((min(step, rows.size), cols.size))
        for first in range(0, rows.size, step):
            block = rows[first:first + step]
            yield first, self._gather(block, cols, buf[:block.size])

    def _gather(self, rows: np.ndarray, cols: np.ndarray,
                out: np.ndarray) -> np.ndarray:
        """Write A[rows][:, cols] to ``out``, count its entries and return
        it: the store's one entry read. ``rows`` and ``cols`` are checked
        index arrays, so the takes skip their own bounds check. Rows that
        are one increasing run are read from a view of them, and any other
        rows are taken first; the columns are then taken into ``out``.
        ``out`` is C-contiguous, which the stacked exact-dot product needs
        to round as each row's own product does."""
        if rows.size and (np.diff(rows) == 1).all():
            src = self._entries[rows[0]:rows[-1] + 1]
        else:
            src = self._entries.take(rows, axis=0, mode="clip")
        src.take(cols, axis=1, mode="clip", out=out)
        self.queries += out.size
        return out

    def col_sq_norm(self, j: int) -> float:
        """The squared norm of column j, one counted norm read."""
        return float(self.col_sq_norms(check_index(j, self.n, "column")))

    def col_sq_norms(self, cols) -> np.ndarray:
        """The squared norms of columns ``cols`` in one read, bitwise what
        ``col_sq_norm`` gives for each, counting one norm read per index."""
        cols = check_indices(cols, self.n, "column index")
        self._mass_tree()
        self.queries += cols.size
        return self._col_sums[1, cols]

    def update(self, i: int, j: int, value: float) -> None:
        """Set A[i, j] and flag its block, reading nothing else. A non-finite
        value, or one whose square overflows, raises ValueError and leaves
        the store as it was; a total that overflows only with the other
        entries is refused at the next read (see ``_mass_tree``)."""
        # a check_index call per index is a large share of a write: an
        # exact int in range is tested here, and check_index takes the rest
        if not (type(i) is int and 0 <= i < self.m):
            i = check_index(i, self.m, "row")
        if not (type(j) is int and 0 <= j < self.n):
            j = check_index(j, self.n, "column")
        value = float(value)
        # one test refuses nan, an infinity and a square that overflows
        if not value * value < math.inf:
            if not math.isfinite(value):
                raise ValueError("non-finite input")
            raise ValueError("squared norm overflows")
        self._flat[i * self.n + j] = value
        self._stale[(i >> ROW_BLOCK_BITS) * self.n + j] = 1
        self._mass = None

    def _block_entries(self, cols: np.ndarray,
                       blocks: np.ndarray) -> np.ndarray:
        """Entries of block ``blocks[d]`` of column ``cols[d]`` in column d,
        one row per row of a block, zero past the last matrix row, as one
        flat gather; counts nothing. A gather of rows past the last one is
        clipped to the last entry and then zeroed."""
        vals = self._entries.take(
            np.arange(0, ROW_BLOCK * self.n, self.n)[:, None]
            + (blocks * (ROW_BLOCK * self.n) + cols), mode="clip")
        vals[self.m - ROW_BLOCK * (self._blocks - 1):,
             blocks == self._blocks - 1] = 0.0
        return vals

    def sample_in_columns(self, cols, u) -> np.ndarray:
        """Row i of column ``cols[d]`` for every draw d, with probability
        A[i, j]^2 / ||A_{:,j}||^2 given its uniform ``u[d]`` in [0, 1].

        All draws walk their columns' trees together to a block (see
        ``descend``), then pick the row within the block from its prefix
        sums; each distinct (column, block) is read once. Costs one index
        draw per draw and one entry read per matrix row of each distinct
        block. A ``u`` outside [0, 1], or whose shape is not ``cols``',
        raises ValueError.
        """
        cols = check_indices(cols, self.n, "column index")
        u = np.asarray(u, dtype=np.float64)
        if u.shape != cols.shape or not ((u >= 0.0) & (u <= 1.0)).all():
            raise ValueError("uniforms must lie in [0, 1], one per draw")
        self._mass_tree()
        distinct, tree = np.unique(cols, return_inverse=True)
        sums = self._col_sums[:, distinct].T
        block, rest = descend(sums, tree, u * sums[tree, 1])
        pair, at = np.unique(cols * self._blocks + block,
                             return_inverse=True)
        col, blk = np.divmod(pair, self._blocks)
        vals = self._block_entries(col, blk)
        self.queries += cols.size + int(np.minimum(
            ROW_BLOCK, self.m - blk * ROW_BLOCK).sum())
        cum = np.cumsum(vals * vals, axis=0).T[at]
        return block * ROW_BLOCK + pick_in_block(cum, rest)

    def sample_column_indices(self, rng: np.random.Generator,
                              size: int) -> np.ndarray:
        """Indices j drawn with probability ||A_{:,j}||^2 / ||A||_F^2, by
        one walk of the mass tree per draw (see ``sample_leaves``). A
        ``size`` that is not a whole number, as ``check_index`` has it, or
        that is negative or beyond int64, raises ValueError; the draws
        are counted once they are made."""
        size = check_index(size, 2 ** 63, "draw count")
        sums = self._mass_tree()
        if sums[1] <= 0.0:
            raise ValueError("zero matrix")
        idx = sample_leaves(sums[None], np.array([size]), rng)[1]
        self.queries += size
        return idx


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
    arr = f.table(rows)
    shape = arr.shape if rows else (0, 0)
    if (meta.get("m", shape[0]), meta.get("n", shape[1])) != shape:
        raise f.malformed(f"header m={meta.get('m')} n={meta.get('n')} "
                          f"but {shape[0]} rows of {shape[1]} values")
    return arr, meta
