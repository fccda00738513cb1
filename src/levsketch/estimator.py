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
from .sample_store import (MatrixSampleStore, build_trees, check_indices,
                           sample_leaves)
from .sketch import Params, SketchDescription, s_matrix

MODES = ("exact-dot", "sampled-dot")
# gathered values per block of rows of S: exact-dot scores BLOCK_DRAWS // k
# rows at a time and sampled-dot gathers BLOCK_DRAWS // p (a banded-tall
# exact-dot call over 64000 rows took 12.4 ms at 2^14 and 13.2 ms at 2^16
# on a 2-core host)
BLOCK_DRAWS = 1 << 14
# gathered values (draws times k) per descent of sampled-dot rows: enough
# to spread numpy's fixed cost per call over many draws, few enough that a
# block's arrays stay near a megabyte. In paired compare-cli runs on a
# 2-core host 2^17 scored 14% more rows per second than 2^16, and 2^18 5%
# more again but with 0.1 to 1 MB more at peak in each pair
SAMPLED_BLOCK_DRAWS = 1 << 17
# most draws one row may take, each shared by its k coordinates: above
# this a descent's arrays run to gigabytes (a floored CLI run peaks near
# 3.7e6)
MAX_COORD_DRAWS = 1 << 24


def mom_group_shape(xi, eta: float) -> tuple[int, float | np.ndarray]:
    """(group count, group size) for additive error xi||x||||y|| with
    failure probability eta: Chernoff gives 9 ln(1/eta) groups and
    Chebyshev ceil(6/xi^2) draws per group, at least one, as a float that
    is inf where it overflows. An array ``xi`` gives one size per value."""
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    xi = np.asarray(xi, dtype=np.float64)
    if not (xi > 0.0).all():
        raise ValueError("xi must be positive")
    with np.errstate(divide="ignore", over="ignore"):
        # 6 / xi^2 is 0 where xi^2 overflows: one draw meets that target
        sizes = np.maximum(np.ceil(6.0 / (xi * xi)), 1.0)
    return max(math.ceil(9.0 * math.log(1.0 / eta)), 1), sizes


def estimate_inner(x, y, xi: float, eta: float,
                   rng: np.random.Generator) -> float:
    """Estimate <x, y> from samples of i ~ x_i^2 / ||x||^2.

    The single-draw value z = y_i ||x||^2 / x_i is unbiased with second
    moment ||x||^2 ||y||^2; group means tame the variance and the median
    across groups boosts the success probability, so the result lands
    within xi ||x|| ||y|| of the truth with probability at least 1 - eta.
    An empty or non-finite ``x``, or a ``y`` whose length is not x's,
    raises ValueError. Draws land on nonzero coordinates by construction;
    a draw that does not raises ValueError too.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("empty vector")
    if not np.isfinite(x).all():
        raise ValueError("non-finite input")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != x.shape:
        raise ValueError(f"y has shape {y.shape}, x has {x.size} entries")
    groups, size = mom_group_shape(xi, eta)
    leaves, sums = build_trees(x[None])
    return float(mom_estimates(sums, leaves, y[:, None], groups,
                               np.array([size]), rng)[0, 0])


def mom_estimates(sums: np.ndarray, leaves: np.ndarray, ys: np.ndarray,
                  groups: int, sizes: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Median-of-means estimates of <x_r, y_c> for every row x_r of
    ``leaves`` (trees in the rows of ``sums``, see ``build_trees``) and every
    column y_c of ``ys``, as a (rows, columns) array.

    Row r takes one draw set of ``groups`` groups of ``sizes[r]`` draws,
    whole numbers held as integers or floats, and every column shares it:
    draw i gives the row of values ys[i, :] ||x_r||^2 / x_i, whose group
    means and median across groups are the estimates. The draws read the
    stream in the order row, group, sample, so a one-column call reads it
    as ``estimate_inner`` does. The rows descend SAMPLED_BLOCK_DRAWS //
    (columns * the sum of their sizes) groups at a time, at least one and
    at most all of them. The caller keeps a block of several rows within
    SAMPLED_BLOCK_DRAWS, so that only a single row ever descends in parts,
    which reads the stream as one descent would. More than
    MAX_COORD_DRAWS draws for one row (inf included) raises ValueError
    before any draw.
    """
    per_row = groups * sizes
    if per_row.max() > MAX_COORD_DRAWS:
        raise ValueError(f"sampled-dot needs {per_row.max():.0f} draws for "
                         f"one coordinate, more than {MAX_COORD_DRAWS}; "
                         "pass a larger xi_override")
    sizes = sizes.astype(np.int64)
    step = max(1, min(groups, SAMPLED_BLOCK_DRAWS // (
        ys.shape[1] * int(sizes.sum()))))
    parts = [group_means(sums, leaves, ys, min(step, groups - first), sizes,
                         rng) for first in range(0, groups, step)]
    means = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=2)
    # np.median's arithmetic, the mean of the middle one or two group
    # means, taken from a sort of each coordinate's contiguous group means,
    # which is faster here than a partition
    means.sort()
    mid = slice((groups - 1) // 2, groups // 2 + 1)
    return means[..., mid].mean(axis=2).T.copy()


def group_means(sums: np.ndarray, leaves: np.ndarray, ys: np.ndarray,
                groups: int, sizes: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    """The (columns, rows, groups) group means of ``mom_estimates`` from
    one descent of ``groups`` groups of ``sizes[r]`` draws per row."""
    rows, cap = leaves.shape
    counts = groups * sizes
    tree, idx = sample_leaves(sums, counts, rng)
    picked = leaves.ravel()[tree * cap + idx]
    if not picked.all():
        raise ValueError("sampled a zero coordinate")
    factor = sums[tree, 1] / picked
    # every row's first draw of each group, gathered once from the columns
    # of ys: the mean of a group of one draw is the reduction's 0.0 + z,
    # which is z except that -0.0 turns to 0.0
    starts = np.cumsum(counts) - counts
    first = (starts[:, None] + sizes[:, None] * np.arange(groups)).ravel()
    means = np.ascontiguousarray(ys.T).take(idx[first], axis=1)
    means *= factor[first]
    means += 0.0
    means = means.reshape(-1, rows, groups)
    # rows of a larger group size gather all their draws and share one mean
    # over a (rows, groups, size, k) reshape, which sums in the order that
    # one row's own (groups, size, k) mean does
    for size in np.unique(sizes[sizes > 1]):
        same = np.flatnonzero(sizes == size)
        pos = (starts[same, None] + np.arange(counts[same[0]])).ravel()
        z = ys[idx[pos]]
        z *= factor[pos, None]
        means[:, same] = z.reshape(same.size, groups, size, -1).mean(
            axis=2).transpose(2, 0, 1)
    return means


def row_scores(store: MatrixSampleStore, sketch: SketchDescription,
               rows: np.ndarray, mode: str, params: Params | None = None,
               rng: np.random.Generator | None = None) -> np.ndarray:
    """Scores of ``rows``, in order. S is read in blocks of rows from
    ``MatrixSampleStore.row_blocks``, which checks ``rows`` and the
    sketch's columns once per call, before anything is read or drawn, and
    counts p reads per row: BLOCK_DRAWS // k rows a block in exact-dot
    mode and BLOCK_DRAWS // p in sampled-dot mode (at least one). Each
    block is scaled and scored in buffers allocated once per call.
    Exact-dot takes each row's own product S_i V as one stacked matmul of
    1-by-p rows, which is bitwise the per-row product where a block
    product S V is not; sampled-dot estimates it with ``sampled_block``. A
    row the store does not have, or a sketch column (a sketch of another
    store), raises the store's IndexRangeError, which is a ValueError; a
    V that is not p by k raises ValueError."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode == "sampled-dot" and (params is None or rng is None):
        raise ValueError("sampled-dot mode needs params and rng")
    if sketch.v is None or sketch.sigma is None:
        raise ValueError("sketch carries no singular triplets")
    if sketch.v.shape != (sketch.p, sketch.k):
        raise ValueError(f"sketch v has shape {sketch.v.shape}, not (p, k) "
                         f"= ({sketch.p}, {sketch.k})")
    scores = np.zeros(np.size(rows))
    exact = mode == "exact-dot"
    step = max(1, BLOCK_DRAWS // (sketch.k if exact else sketch.p))
    u = np.empty((min(step, scores.size), 1, sketch.k)) if exact else None
    for first, s in store.row_blocks(rows, sketch.col_indices, step):
        s *= sketch.col_scale
        out = scores[first:first + len(s)]
        if not exact:
            sampled_block(s, sketch, params, rng, out)
            continue
        # a stack of 1-by-p products, bitwise each row's own srow @ V
        ub = np.matmul(s[:, None, :], sketch.v, out=u[:len(s)])
        ub /= sketch.sigma
        np.matmul(ub, ub.transpose(0, 2, 1), out=out[:, None, None])
    return scores


def sampled_block(s: np.ndarray, sketch: SketchDescription, params: Params,
                  rng: np.random.Generator, out: np.ndarray) -> None:
    """Write the sampled-dot scores of the gathered rows ``s`` of S to the
    zeroed ``out``.

    Each nonzero row takes one draw set, shared by its k coordinates (see
    ``mom_estimates``). Every draw gathers k values, so a block's budget
    is SAMPLED_BLOCK_DRAWS of those values, draws times k: the rows are
    scored in blocks of consecutive rows within it, one tree per row and
    one descent per block. A row over the budget by itself is a block of
    its own and descends a few groups at a time.

    Each coordinate lands within xi_i ||S_i|| ||V_{:,j}|| of the truth
    with probability at least 1 - delta / k, so all k do at least with
    1 - delta, by the union bound. The precision target is absolute,
    xi ||S||_F, so the relative xi_i handed to the estimator is scaled by
    the row norm. A zero row scores 0 and draws nothing.
    """
    eta = params.delta / params.k
    scale = params.xi_effective * sketch.frob_norm
    # stacks of 1-by-p by p-by-1 products, bitwise each row's srow @ srow
    sq = (s[:, None, :] @ s[:, :, None])[:, 0, 0]
    live = np.flatnonzero(sq)
    # each row's own xi; a size that overflows is inf, which mom_estimates
    # refuses
    groups, sizes = mom_group_shape(scale / np.sqrt(sq[live]), eta)
    ends = np.cumsum(sketch.k * groups * sizes)
    start = 0
    while start < live.size:
        drawn = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(
            ends, drawn + SAMPLED_BLOCK_DRAWS, side="right")))
        block = live[start:stop]
        leaves, sums = build_trees(s[block])
        t = mom_estimates(sums, leaves, sketch.v, groups, sizes[start:stop],
                          rng)
        u = t / sketch.sigma
        out[block] = (u[:, None, :] @ u[:, :, None])[:, 0, 0]
        start = stop


def qisls_score(store: MatrixSampleStore, sketch: SketchDescription, i: int,
                mode: str = "exact-dot", params: Params | None = None,
                rng: np.random.Generator | None = None) -> float:
    """Approximate leverage score of row i, as a one-row ``row_scores``
    call, which checks i. Exact-dot needs only the sketch; sampled-dot
    additionally needs params (for xi and delta) and an rng."""
    return float(row_scores(store, sketch, [i], mode, params, rng)[0])


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
    """Score every requested row (all of them by default), checked by the
    store's ``check_indices``; an empty set raises ValueError. ``exact``,
    when given, must cover all m rows."""
    rows = np.arange(store.m) if rows is None else check_indices(
        rows, store.m, "row index")
    if rows.size == 0:
        raise ValueError("empty row set")
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
    f = textfile.TextFile(path, "report")
    body = [line for line in f.sections[None] if not line.startswith("i,")]
    for line in body:
        fields = line.count(",") + 1
        if fields != 4:
            raise f.malformed(f"data row of {fields} fields")
    if not body:
        raise f.malformed("no data rows")
    data = f.table(body)
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
