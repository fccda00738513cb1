"""Inner-product estimation and per-row approximate leverage scores.

The score of row i is ||t Sigma^-1||^2 with t_j close to S_{i,:} V_{:,j}.
Exact-dot mode sums the p products directly, which is cheap whenever p is
desk-scale. Sampled-dot mode draws indices from the row's squared-value
distribution, one draw set per row shared by the k coordinates, and takes
a median-of-means of each coordinate; that is the access pattern whose
cost does not grow with p.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import textfile
from .rng import stream
from .sample_store import (MatrixSampleStore, SampleTree, fill_sums,
                           sample_leaves)
from .sketch import Params, SketchDescription, s_matrix, s_rows

MODES = ("exact-dot", "sampled-dot")
# gathered values (draws times k) per block of sampled-dot rows: enough to
# spread numpy's fixed cost per call over many draws, few enough that a
# block's arrays stay small (8 to 16 rows at k=20; the fastest of the sizes
# tried on a 2-core host)
BLOCK_DRAWS = 1 << 14
# most draws one row may take, each shared by its k coordinates: above
# this a descent's arrays run to gigabytes (a floored CLI run peaks near
# 3.7e6)
MAX_COORD_DRAWS = 1 << 24


def mom_group_shape(xi, eta: float) -> tuple[int, float | np.ndarray]:
    """(group count, group size) for additive error xi||x||||y|| with
    failure probability eta: Chernoff gives 9 ln(1/eta) groups and
    Chebyshev ceil(6/xi^2) draws per group, as a float that is inf where
    it overflows. An array ``xi`` gives one size per value."""
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    xi = np.asarray(xi, dtype=np.float64)
    if not (xi > 0.0).all():
        raise ValueError("xi must be positive")
    with np.errstate(divide="ignore", over="ignore"):
        sizes = np.ceil(6.0 / (xi * xi))
    return max(math.ceil(9.0 * math.log(1.0 / eta)), 1), sizes


def estimate_inner(x_tree: SampleTree, y, xi: float, eta: float,
                   rng: np.random.Generator) -> float:
    """Estimate <x, y> from samples of i ~ x_i^2 / ||x||^2.

    The single-draw value z = y_i ||x||^2 / x_i is unbiased with second
    moment ||x||^2 ||y||^2; group means tame the variance and the median
    across groups boosts the success probability, so the result lands
    within xi ||x|| ||y|| of the truth with probability at least 1 - eta.
    Draws land on nonzero coordinates by construction; a draw that does
    not raises ValueError, and so does a ``y`` whose length is not x's.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (x_tree.size,):
        raise ValueError(f"y has shape {y.shape}, x has {x_tree.size} "
                         "entries")
    groups, size = mom_group_shape(xi, eta)
    est = mom_estimates(x_tree._sums[None], x_tree._leaf[None], y[:, None],
                        groups, np.array([size]), rng)
    x_tree.touches += groups * int(size) * (2 * x_tree._levels + 1)
    return float(est[0, 0])


def mom_estimates(sums: np.ndarray, leaves: np.ndarray, ys: np.ndarray,
                  groups: int, sizes: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Median-of-means estimates of <x_r, y_c> for every row x_r of
    ``leaves`` (trees in the rows of ``sums``, see ``fill_sums``) and every
    column y_c of ``ys``, as a (rows, columns) array.

    Row r takes one draw set of ``groups`` groups of ``sizes[r]`` draws,
    whole numbers held as integers or floats, and every column shares it:
    draw i gives the row of values ys[i, :] ||x_r||^2 / x_i, whose group
    means and median across groups are the estimates. The draws read the
    stream in the order row, group, sample, so a one-column call reads it
    as ``estimate_inner`` does. A single row whose draws times columns
    exceed BLOCK_DRAWS descends BLOCK_DRAWS // (columns * size) groups at
    a time (at least one), which reads the stream as one descent would;
    the caller keeps a block of several rows within BLOCK_DRAWS. More than
    MAX_COORD_DRAWS draws for one row (inf included) raises ValueError
    before any draw.
    """
    per_row = groups * sizes
    if per_row.max() > MAX_COORD_DRAWS:
        raise ValueError(f"sampled-dot needs {per_row.max():.0f} draws for "
                         f"one coordinate, more than {MAX_COORD_DRAWS}; "
                         "pass a larger xi_override")
    sizes = sizes.astype(np.int64)
    step = groups if sizes.size > 1 else max(1, min(
        groups, BLOCK_DRAWS // (ys.shape[1] * int(sizes[0]))))
    means = np.concatenate([
        group_means(sums, leaves, ys, min(step, groups - first), sizes, rng)
        for first in range(0, groups, step)], axis=1)
    # np.median's arithmetic, the mean of the middle one or two group
    # means, taken from a sort, which is faster here than its partition
    mid = slice((groups - 1) // 2, groups // 2 + 1)
    return np.sort(means, axis=1)[:, mid].mean(axis=1)


def group_means(sums: np.ndarray, leaves: np.ndarray, ys: np.ndarray,
                groups: int, sizes: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    """The (rows, groups, columns) group means of ``mom_estimates`` from
    one descent of ``groups`` groups of ``sizes[r]`` draws per row."""
    rows, cap = leaves.shape
    counts = groups * sizes
    tree, idx = sample_leaves(sums, counts, rng)
    picked = leaves.ravel()[tree * cap + idx]
    if not picked.all():
        raise ValueError("sampled a zero coordinate")
    z = ys[idx]
    z *= (sums[tree, 1] / picked)[:, None]
    # rows of one group size share a reshape; a mean of one draw is the
    # reduction's 0.0 + z, which is z except that -0.0 turns to 0.0
    starts = np.cumsum(counts) - counts
    means = np.empty((rows, groups, ys.shape[1]))
    for size in np.unique(sizes):
        same = np.flatnonzero(sizes == size)
        draws = z if same.size == rows else z[
            starts[same, None] + np.arange(counts[same[0]])]
        draws = draws.reshape(same.size, groups, size, -1)
        means[same] = draws[:, :, 0] + 0.0 if size == 1 else draws.mean(
            axis=2)
    return means


def row_scores(store: MatrixSampleStore, sketch: SketchDescription,
               rows: np.ndarray, mode: str, params: Params | None = None,
               rng: np.random.Generator | None = None) -> np.ndarray:
    """Scores of ``rows``, in order, from S gathered BLOCK_DRAWS // p rows
    at a time (at least one). Exact-dot takes each row's own product
    S_i V as one stacked matmul of 1-by-p rows, which is bitwise the
    per-row product where a block product S V is not; sampled-dot
    estimates it with ``sampled_block``. A sketch whose columns the store
    does not have, or whose V is not p by k, raises ValueError."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode == "sampled-dot" and (params is None or rng is None):
        raise ValueError("sampled-dot mode needs params and rng")
    if sketch.v is None or sketch.sigma is None:
        raise ValueError("sketch carries no singular triplets")
    cols = sketch.col_indices
    if cols.min() < 0 or cols.max() >= store.n:
        raise ValueError(f"sketch columns out of range for the store's "
                         f"{store.n} columns")
    if sketch.v.shape != (sketch.p, sketch.k):
        raise ValueError(f"sketch v has shape {sketch.v.shape}, not (p, k) "
                         f"= ({sketch.p}, {sketch.k})")
    scores = np.zeros(rows.size)
    step = max(1, BLOCK_DRAWS // sketch.p)
    for first in range(0, rows.size, step):
        s = s_rows(store, sketch, rows[first:first + step])
        out = scores[first:first + step]
        if mode == "sampled-dot":
            sampled_block(s, sketch, params, rng, out)
            continue
        # a stack of 1-by-p products, bitwise each row's own srow @ V
        u = (s[:, None, :] @ sketch.v) / sketch.sigma
        out[:] = (u @ u.transpose(0, 2, 1))[:, 0, 0]
    return scores


def sampled_block(s: np.ndarray, sketch: SketchDescription, params: Params,
                  rng: np.random.Generator, out: np.ndarray) -> None:
    """Write the sampled-dot scores of the gathered rows ``s`` of S to the
    zeroed ``out``.

    Each nonzero row takes one draw set, shared by its k coordinates (see
    ``mom_estimates``). Every draw gathers k values, so a block's budget
    is BLOCK_DRAWS of those values, draws times k: the rows are scored in
    blocks of consecutive rows within it, one tree per row and one descent
    per block. A row over the budget by itself is a block of its own and
    descends a few groups at a time.

    Each coordinate lands within xi_i ||S_i|| ||V_{:,j}|| of the truth
    with probability at least 1 - delta / k, so all k do at least with
    1 - delta, by the union bound. The precision target is absolute,
    xi ||S||_F, so the relative xi_i handed to the estimator is scaled by
    the row norm. A zero row scores 0 and draws nothing.
    """
    eta = params.delta / params.k
    scale = params.xi_effective * sketch.frob_norm
    p = sketch.p
    cap = 1 << max(0, (p - 1).bit_length())
    # stacks of 1-by-p by p-by-1 products, bitwise each row's srow @ srow
    sq = (s[:, None, :] @ s[:, :, None])[:, 0, 0]
    live = np.flatnonzero(sq)
    if live.size == 0:
        return
    # each row's own xi; a size that overflows is inf, which mom_estimates
    # refuses
    groups, sizes = mom_group_shape(scale / np.sqrt(sq[live]), eta)
    ends = np.cumsum(sketch.k * groups * sizes)
    start = 0
    while start < live.size:
        drawn = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(
            ends, drawn + BLOCK_DRAWS, side="right")))
        block = live[start:stop]
        leaves = np.zeros((block.size, cap))
        leaves[:, :p] = s[block]
        sums = np.zeros((block.size, 2 * cap))
        fill_sums(sums, leaves)
        t = mom_estimates(sums, leaves, sketch.v, groups, sizes[start:stop],
                          rng)
        u = t / sketch.sigma
        out[block] = (u[:, None, :] @ u[:, :, None])[:, 0, 0]
        start = stop


def _row_indices(rows, m: int) -> np.ndarray:
    """``rows`` as int64 indices of an m-row store. An empty set, an index
    that is not a whole number or one outside [0, m) raises ValueError."""
    rows = np.asarray(rows)
    if rows.size == 0:
        raise ValueError("empty row set")
    if rows.dtype.kind not in "iu":
        raise ValueError("row index must be a whole number")
    if rows.min() < 0 or rows.max() >= m:
        raise ValueError("row index out of range")
    return rows.astype(np.int64)


def qisls_score(store: MatrixSampleStore, sketch: SketchDescription, i: int,
                mode: str = "exact-dot", params: Params | None = None,
                rng: np.random.Generator | None = None) -> float:
    """Approximate leverage score of row i, as a one-row ``row_scores``
    call. Exact-dot needs only the sketch; sampled-dot additionally needs
    params (for xi and delta) and an rng."""
    return float(row_scores(store, sketch, _row_indices([i], store.m), mode,
                            params, rng)[0])


@dataclass
class LeverageReport:
    """Scores for a set of rows plus the coherence they imply."""
    rows: np.ndarray
    approx: np.ndarray
    exact: np.ndarray | None
    abs_err: np.ndarray | None
    coherence_row: int
    coherence: float
    mode: str
    seed: int
    params: Params

    @classmethod
    def from_scores(cls, rows: np.ndarray, approx: np.ndarray, exact,
                    mode: str, seed: int, params: Params) -> LeverageReport:
        """Report on ``approx``, the scores of ``rows``; ``exact`` covers all
        m rows or is None. Coherence is the max approximate score; argmax
        ties resolve to the lowest index."""
        exact_vals = abs_err = None
        if exact is not None:
            exact_vals = exact[rows]
            abs_err = np.abs(approx - exact_vals)
        top = int(np.argmax(approx))
        return cls(rows=rows, approx=approx, exact=exact_vals,
                   abs_err=abs_err, coherence_row=int(rows[top]),
                   coherence=float(approx[top]), mode=mode, seed=int(seed),
                   params=params)


def qisls_all(store: MatrixSampleStore, sketch: SketchDescription,
              params: Params, rows=None, mode: str = "exact-dot",
              rng: np.random.Generator | None = None, seed: int = 0,
              exact=None) -> LeverageReport:
    """Score every requested row (all of them by default); ``exact``, when
    given, must cover all m rows."""
    if rows is None:
        rows = np.arange(store.m, dtype=np.int64)
    else:
        rows = _row_indices(rows, store.m)
    if exact is not None:
        exact = np.asarray(exact, dtype=np.float64)
        if exact.shape != (store.m,):
            raise ValueError("exact scores must cover every row of the store")
    if rng is None:
        rng = stream(seed)
    approx = row_scores(store, sketch, rows, mode, params, rng)
    return LeverageReport.from_scores(rows, approx, exact, mode, seed, params)


def orthogonality_defect(store: MatrixSampleStore,
                         sketch: SketchDescription) -> float:
    """||U^T U - I||_F for the implied U = S V Sigma^-1, computed exactly
    through U^T U = Sigma^-1 V^T (S^T S) V Sigma^-1."""
    if sketch.v is None or sketch.sigma is None:
        raise ValueError("sketch carries no singular triplets")
    s = s_matrix(store, sketch)
    gram = sketch.v.T @ (s.T @ s) @ sketch.v
    gram /= np.outer(sketch.sigma, sketch.sigma)
    gram -= np.eye(sketch.k)
    return math.sqrt(float((gram * gram).sum()))


_REPORT_FLOATS = ("epsilon", "delta", "kappa", "spectral_norm", "frob_norm",
                  "omega", "theta", "xi")


def write_report_csv(path, report: LeverageReport) -> None:
    """Header `i,approx,exact,abs_err`, 1-based indices, with metadata
    comments carrying mode, seed, coherence, and the full params."""
    p = report.params
    lines = textfile.meta_lines(
        mode=report.mode, seed=report.seed,
        coherence_row=report.coherence_row + 1, coherence=report.coherence,
        k=p.k, p=p.p, **{name: getattr(p, name) for name in _REPORT_FLOATS},
        p_override=p.p_override, xi_override=p.xi_override)
    nan = np.full(report.rows.size, np.nan)
    table = np.column_stack([
        report.approx, nan if report.exact is None else report.exact,
        nan if report.abs_err is None else report.abs_err]).tolist()
    lines.append("i,approx,exact,abs_err")
    lines += [f"{i + 1},{textfile.floats(vals)}"
              for i, vals in zip(report.rows.tolist(), table)]
    textfile.write(path, lines)


def read_report_csv(path) -> LeverageReport:
    """Read a report written by :func:`write_report_csv`. A missing
    metadata key, a non-numeric field, a row index that is not a positive
    integer, a data row of other than 4 fields or a file without data rows
    raises a one-line ValueError."""
    f = textfile.TextFile(path, "report", header="i,")
    body = [line.split(",") for line in f.sections[None]]
    for fields in body:
        if len(fields) != 4:
            raise f.malformed(f"data row of {len(fields)} fields")
    if not body:
        raise f.malformed("no data rows")
    data = np.array([f.numbers(fields) for fields in body])
    meta = f.metadata()
    missing = [key for key in (*_REPORT_FLOATS, "k", "p", "coherence_row",
                               "coherence", "seed", "mode")
               if key not in meta]
    if missing:
        raise f.malformed(f"no {missing[0]} line")

    def number(key: str, cast=float):
        return f.numbers([meta[key]], cast)[0] if key in meta else None

    params = Params(k=number("k", int), p=number("p", int),
                    p_override=number("p_override", int),
                    xi_override=number("xi_override"),
                    **{name: number(name) for name in _REPORT_FLOATS})
    exact = data[:, 2]
    abs_err = data[:, 3]
    if np.isnan(exact).all():
        exact = abs_err = None
    return LeverageReport(
        rows=f.indices(data[:, 0], "row index"), approx=data[:, 1],
        exact=exact, abs_err=abs_err,
        coherence_row=number("coherence_row", int) - 1,
        coherence=number("coherence"), mode=meta["mode"],
        seed=number("seed", int), params=params)
