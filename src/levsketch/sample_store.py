"""Sample-model data structures for vectors and matrices.

A :class:`SampleTree` stores a real vector in a complete binary tree whose
leaves hold the signed entries and whose internal nodes hold partial sums of
squares. Querying or updating an entry costs O(log n), and one tree descent
draws an index i with probability v_i^2 / ||v||^2.

A :class:`MatrixSampleStore` keeps one tree per row, a tree over row norms
and a tree over column norms, giving O(1) access to ||A_{i,:}||, ||A_{:,j}||
and ||A||_F, O(log n) row-index and column-index sampling, and an O(m) walk
for sampling a row within a fixed column. Entry reads, norm reads and index
draws are counted on the store for cost instrumentation.
"""
from __future__ import annotations

import numpy as np

# full rebuild after this many updates, to bound floating-point drift
REBUILD_EVERY = 1_000_000


class SampleTree:
    """Squared-magnitude sampling tree over a fixed-length signed vector."""

    __slots__ = ("size", "touches", "_cap", "_levels", "_leaf", "_sums",
                 "_updates", "_rebuild_every")

    def __init__(self, values, rebuild_every: int = REBUILD_EVERY):
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
        self._updates = 0
        self._rebuild_every = int(rebuild_every)
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
        s, cap = self._sums, self._cap
        s[cap:] = self._leaf * self._leaf
        half = cap // 2
        while half >= 1:
            child = s[2 * half:4 * half]
            s[half:2 * half] = child[0::2] + child[1::2]
            half //= 2
        self._updates = 0

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

    def query_many(self, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        self.touches += idx.size
        return self._leaf[idx]

    def update(self, i: int, value: float) -> None:
        """Set entry ``i`` and restore the path to the root."""
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
        self._updates += 1
        if self._updates >= self._rebuild_every:
            self.rebuild()

    def sample_index(self, rng: np.random.Generator) -> int:
        """Draw one index with probability v_i^2 / ||v||^2."""
        total = self._sums[1]
        if total <= 0.0:
            raise ValueError("cannot sample zero vector")
        u = rng.random() * total
        node = 1
        self.touches += 1
        for _ in range(self._levels):
            node *= 2
            left = self._sums[node]
            # an empty right subtree is never entered, so rounding in u
            # cannot land the walk on a zero-mass leaf
            if not (self._sums[node + 1] == 0.0 or u < left):
                u -= left
                node += 1
            self.touches += 2
        return node - self._cap

    def sample_indices(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Vectorized :meth:`sample_index`; one descent per draw."""
        size = int(size)
        total = self._sums[1]
        if total <= 0.0:
            raise ValueError("cannot sample zero vector")
        u = rng.random(size) * total
        node = np.ones(size, dtype=np.int64)
        for _ in range(self._levels):
            node <<= 1
            left = self._sums[node]
            go_right = (self._sums[node + 1] != 0.0) & (u >= left)
            u -= np.where(go_right, left, 0.0)
            node += go_right
        self.touches += size * (2 * self._levels + 1)
        return node - self._cap


class MatrixSampleStore:
    """Row-major sample-model store for a dense m-by-n matrix.

    ``queries`` counts entry reads, norm reads and index draws; the counter
    is public and may be reset between phases of an experiment.
    """

    def __init__(self, matrix, rebuild_every: int = REBUILD_EVERY):
        entries = np.array(matrix, dtype=np.float64, order="C", ndmin=2)
        if entries.ndim != 2 or entries.size == 0:
            raise ValueError("matrix must be two-dimensional and non-empty")
        if not np.all(np.isfinite(entries)):
            raise ValueError("non-finite input")
        self.m, self.n = entries.shape
        self._entries = entries
        self._rebuild_every = int(rebuild_every)
        self.queries = 0
        self._updates = 0
        self._build_trees()

    def _build_trees(self) -> None:
        e = self._entries
        self._rows = [SampleTree(row, self._rebuild_every) for row in e]
        self._row_tree = SampleTree(np.sqrt((e * e).sum(axis=1)),
                                    self._rebuild_every)
        self._col_tree = SampleTree(np.sqrt((e * e).sum(axis=0)),
                                    self._rebuild_every)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    @property
    def sq_frobenius(self) -> float:
        return self._row_tree.sq_norm

    def to_array(self) -> np.ndarray:
        """Dense copy of the stored matrix."""
        return self._entries.copy()

    def row_tree(self, i: int) -> SampleTree:
        return self._rows[int(i)]

    def query(self, i: int, j: int) -> float:
        """Entry A[i, j]."""
        self.queries += 1
        return float(self._entries[int(i), int(j)])

    def row_values(self, i: int, cols) -> np.ndarray:
        """Entries A[i, cols] as one counted gather."""
        idx = np.asarray(cols, dtype=np.int64)
        self.queries += idx.size
        return self._entries[int(i), idx]

    def column_values(self, j: int) -> np.ndarray:
        """Column A[:, j]; costs m entry reads."""
        self.queries += self.m
        return self._entries[:, int(j)].copy()

    def row_sq_norm(self, i: int) -> float:
        self.queries += 1
        v = self._row_tree.query(int(i))
        return v * v

    def col_sq_norm(self, j: int) -> float:
        self.queries += 1
        v = self._col_tree.query(int(j))
        return v * v

    def update(self, i: int, j: int, value: float) -> None:
        """Set A[i, j], maintaining all three tree layers."""
        i, j = int(i), int(j)
        value = float(value)
        if not np.isfinite(value):
            raise ValueError("non-finite input")
        old = self._entries[i, j]
        self._entries[i, j] = value
        row = self._rows[i]
        row.update(j, value)
        self._row_tree.update(i, np.sqrt(row.sq_norm))
        colv = self._col_tree.query(j)
        col_sq = colv * colv - old * old + value * value
        self._col_tree.update(j, np.sqrt(max(col_sq, 0.0)))
        self._updates += 1
        if self._updates >= self._rebuild_every:
            self.rebuild()

    def rebuild(self) -> None:
        """Rebuild every tree layer from the stored entries."""
        self._build_trees()
        self._updates = 0

    def sample_row_index(self, rng: np.random.Generator) -> int:
        """Row index i with probability ||A_{i,:}||^2 / ||A||_F^2."""
        if self.sq_frobenius <= 0.0:
            raise ValueError("zero matrix")
        self.queries += 1
        return self._row_tree.sample_index(rng)

    def sample_column_index(self, rng: np.random.Generator) -> int:
        """Column index j with probability ||A_{:,j}||^2 / ||A||_F^2."""
        if self.sq_frobenius <= 0.0:
            raise ValueError("zero matrix")
        self.queries += 1
        return self._col_tree.sample_index(rng)

    def sample_row_given_column(self, j: int, rng: np.random.Generator) -> int:
        """Row index i with probability A[i,j]^2 / ||A_{:,j}||^2.

        The store is row-major, so this walks the whole column once.
        """
        col = self.column_values(j)
        sq = col * col
        total = sq.sum()
        if total <= 0.0:
            raise ValueError("zero column")
        self.queries += 1
        return draw_from_cumsum(np.cumsum(sq), rng.random() * total)


def draw_from_cumsum(cum: np.ndarray, u: float) -> int:
    """Index i with cum[i-1] <= u < cum[i] for cumulative masses ``cum``.

    A ``u`` that rounded up to the total lands on the last index with
    positive mass, never on a zero-mass tail.
    """
    i = int(np.searchsorted(cum, u, side="right"))
    return i if i < cum.size else int(np.searchsorted(cum, cum[-1]))


def write_matrix_csv(path, matrix, metadata: dict | None = None) -> None:
    """Write a dense matrix as comma-separated rows with `#` metadata lines.

    ``m`` and ``n`` are always recorded; extra metadata keys are written one
    per line as ``# key=value``. Values are formatted with ``repr`` so the
    file round-trips bit-exactly.
    """
    arr = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    lines = [f"# m={arr.shape[0]} n={arr.shape[1]}"]
    for key, val in (metadata or {}).items():
        if key in ("m", "n"):
            continue
        val = repr(float(val)) if isinstance(val, float) else val
        lines.append(f"# {key}={val}")
    for row in arr:
        lines.append(",".join(repr(float(x)) for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_meta_token(token: str):
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            pass
    return token


def read_matrix_csv(path) -> tuple[np.ndarray, dict]:
    """Read a matrix file written by :func:`write_matrix_csv` or in triplet
    form (``# coo m n`` header, then 1-based ``i,j,value`` lines)."""
    meta: dict = {}
    coo = None
    rows = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("coo"):
                    parts = body.split()
                    coo = (int(parts[1]), int(parts[2]))
                    continue
                for token in body.split():
                    if "=" in token:
                        key, _, val = token.partition("=")
                        meta[key] = _parse_meta_token(val)
                continue
            rows.append(line)
    if coo is not None:
        m, n = coo
        arr = np.zeros((m, n))
        for line in rows:
            i, j, val = line.split(",")
            arr[int(i) - 1, int(j) - 1] = float(val)
        meta.setdefault("m", m)
        meta.setdefault("n", n)
        return arr, meta
    arr = np.array([[float(x) for x in line.split(",")] for line in rows])
    return arr, meta
