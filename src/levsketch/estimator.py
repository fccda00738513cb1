"""Inner-product estimation and per-row approximate leverage scores.

The score of row i is ||t Sigma^-1||^2 with t_j close to S_{i,:} V_{:,j}.
Exact-dot mode sums the p products directly, which is cheap whenever p is
desk-scale. Sampled-dot mode draws indices from the row's squared-value
distribution and runs a median-of-means estimate per coordinate; that is
the access pattern whose cost does not grow with p.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import stream
from .sample_store import (MatrixSampleStore, SampleTree, fill_sums,
                           sample_leaves)
from .sketch import (Params, SketchDescription, positive_integers, s_matrix,
                     s_rows)

MODES = ("exact-dot", "sampled-dot")
# draws per block of sampled-dot rows: enough to spread numpy's fixed cost
# per call over many draws, few enough that a block's arrays stay small
# (8 to 16 rows at k=20; the fastest of the sizes tried on a 2-core host)
BLOCK_DRAWS = 1 << 14
# most draws one coordinate of one row may take: above this a descent's
# arrays run to gigabytes (a floored CLI run peaks near 3.7e6)
MAX_COORD_DRAWS = 1 << 24


def mom_groups(eta: float) -> int:
    """Group count for failure probability eta: Chernoff gives
    9 ln(1/eta) groups."""
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    return max(math.ceil(9.0 * math.log(1.0 / eta)), 1)


def mom_group_shape(xi: float, eta: float) -> tuple[int, int]:
    """(group count, group size) for additive error xi||x||||y|| with
    failure probability eta: Chebyshev gives 6/xi^2 per group."""
    if xi <= 0.0:
        raise ValueError("xi must be positive")
    return mom_groups(eta), math.ceil(6.0 / (xi * xi))


def estimate_inner(x_tree: SampleTree, y, xi: float, eta: float,
                   rng: np.random.Generator) -> float:
    """Estimate <x, y> from samples of i ~ x_i^2 / ||x||^2.

    The single-draw value z = y_i ||x||^2 / x_i is unbiased with second
    moment ||x||^2 ||y||^2; group means tame the variance and the median
    across groups boosts the success probability, so the result lands
    within xi ||x|| ||y|| of the truth with probability at least 1 - eta.
    Draws land on nonzero coordinates by construction; a draw that does
    not raises ValueError.
    """
    groups, size = mom_group_shape(xi, eta)
    y = np.asarray(y, dtype=np.float64)
    est = mom_estimates(x_tree._sums[None], x_tree._leaf[None], y[:, None],
                        groups, np.array([size]), rng)
    x_tree.touches += groups * size * (2 * x_tree._levels + 1)
    return float(est[0, 0])


def mom_estimates(sums: np.ndarray, leaves: np.ndarray, ys: np.ndarray,
                  groups: int, sizes: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Median-of-means estimates of <x_r, y_c> for every row x_r of
    ``leaves`` (trees in the rows of ``sums``, see ``fill_sums``) and every
    column y_c of ``ys``, as a (rows, columns) array.

    Each estimate takes ``groups`` groups of ``sizes[r]`` draws, whole
    numbers held as integers or floats. The draws come from one descent,
    in the order row, column, group, sample: the stream is read as if by
    one ``estimate_inner`` call per row and column. More than
    MAX_COORD_DRAWS draws for one estimate (inf included) raises
    ValueError.
    """
    per_col = groups * sizes
    if per_col.max() > MAX_COORD_DRAWS:
        raise ValueError(f"sampled-dot needs {per_col.max():.0f} draws for "
                         f"one coordinate, more than {MAX_COORD_DRAWS}; "
                         "pass a larger xi_override")
    sizes = sizes.astype(np.int64)
    per_col = groups * sizes
    rows, cap = leaves.shape
    p, cols = ys.shape
    counts = cols * per_col
    tree, idx = sample_leaves(sums, counts, rng)
    picked = leaves.ravel()[tree * cap + idx]
    if not picked.all():
        raise ValueError("sampled a zero coordinate")
    # flat index of y_c[i] in the columns of ys laid end to end
    at = np.repeat(np.tile(np.arange(0, cols * p, p), rows),
                   np.repeat(per_col, cols))
    at += idx
    z = ys.T.ravel()[at] * (np.repeat(sums[:, 1], counts) / picked)
    # rows of one group size share a reshape; a mean of one draw is the
    # reduction's 0.0 + z, which is z except that -0.0 turns to 0.0
    starts = np.cumsum(counts) - counts
    # np.median's arithmetic, the mean of the middle one or two group
    # means, taken from a sort, which is faster here than its partition
    mid = slice((groups - 1) // 2, groups // 2 + 1)
    est = np.empty((rows, cols))
    for size in np.unique(sizes):
        same = np.flatnonzero(sizes == size)
        draws = z if same.size == rows else z[
            starts[same, None] + np.arange(counts[same[0]])]
        draws = draws.reshape(same.size, cols, groups, size)
        means = draws[..., 0] + 0.0 if size == 1 else draws.mean(axis=3)
        est[same] = np.sort(means, axis=2)[..., mid].mean(axis=2)
    return est


def row_scores(store: MatrixSampleStore, sketch: SketchDescription,
               rows: np.ndarray, mode: str, params: Params | None = None,
               rng: np.random.Generator | None = None) -> np.ndarray:
    """Scores of ``rows``, in order, from S gathered BLOCK_DRAWS // p rows
    at a time (at least one). Exact-dot takes each row's own product
    S_i V as one stacked matmul of 1-by-p rows, which is bitwise the
    per-row product where a block product S V is not; sampled-dot
    estimates it with ``sampled_block``."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode == "sampled-dot" and (params is None or rng is None):
        raise ValueError("sampled-dot mode needs params and rng")
    if sketch.v is None or sketch.sigma is None:
        raise ValueError("sketch carries no singular triplets")
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

    The nonzero rows are scored in blocks of consecutive rows with at most
    BLOCK_DRAWS draws in all: one tree per row, one descent per block. A
    row with more draws is a block of its own and descends a few
    coordinates at a time, so no descent is larger than BLOCK_DRAWS or one
    coordinate's draws.

    The k coordinate estimates each get an independent run of the
    estimator at per-coordinate success probability (1 - delta)^(1/k), and
    the precision target is absolute, xi ||S||_F, so the relative xi handed
    to the estimator is scaled by the row norm. A zero row scores 0 and
    draws nothing.
    """
    eta = 1.0 - (1.0 - params.delta) ** (1.0 / params.k)
    scale = params.xi_effective * sketch.frob_norm
    p = sketch.p
    cap = 1 << max(0, (p - 1).bit_length())
    # stacks of 1-by-p by p-by-1 products, bitwise each row's srow @ srow
    sq = (s[:, None, :] @ s[:, :, None])[:, 0, 0]
    live = np.flatnonzero(sq)
    if live.size == 0:
        return
    # mom_group_shape's group size ceil(6 / xi^2) for each row's own xi; a
    # size that overflows is inf, which mom_estimates refuses
    groups = mom_groups(eta)
    xi = scale / np.sqrt(sq[live])
    with np.errstate(divide="ignore", over="ignore"):
        sizes = np.ceil(6.0 / (xi * xi))
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
        # a row over the bound draws a few coordinates at a time
        cols = max(1, min(sketch.k, int(BLOCK_DRAWS // (
            groups * sizes[start:stop].sum()))))
        t = np.hstack([mom_estimates(sums, leaves, sketch.v[:, c:c + cols],
                                     groups, sizes[start:stop], rng)
                       for c in range(0, sketch.k, cols)])
        u = t / sketch.sigma
        out[block] = (u[:, None, :] @ u[:, :, None])[:, 0, 0]
        start = stop


def qisls_score(store: MatrixSampleStore, sketch: SketchDescription, i: int,
                mode: str = "exact-dot", params: Params | None = None,
                rng: np.random.Generator | None = None) -> float:
    """Approximate leverage score of row i, as a one-row ``row_scores``
    call. Exact-dot needs only the sketch; sampled-dot additionally needs
    params (for xi and delta) and an rng."""
    if not 0 <= i < store.m:
        raise ValueError("row index out of range")
    return float(row_scores(store, sketch, np.array([i], dtype=np.int64),
                            mode, params, rng)[0])


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
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            raise ValueError("empty row set")
        if rows.min() < 0 or rows.max() >= store.m:
            raise ValueError("row index out of range")
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
    lines = [f"# mode={report.mode}",
             f"# seed={report.seed}",
             f"# coherence_row={report.coherence_row + 1}",
             f"# coherence={repr(report.coherence)}",
             f"# k={p.k}", f"# p={p.p}"]
    for name in _REPORT_FLOATS:
        lines.append(f"# {name}={repr(getattr(p, name))}")
    if p.p_override is not None:
        lines.append(f"# p_override={p.p_override}")
    if p.xi_override is not None:
        lines.append(f"# xi_override={repr(p.xi_override)}")
    lines.append("i,approx,exact,abs_err")
    nan = float("nan")
    for t in range(report.rows.size):
        e = nan if report.exact is None else float(report.exact[t])
        a = nan if report.abs_err is None else float(report.abs_err[t])
        lines.append(f"{int(report.rows[t]) + 1},"
                     f"{repr(float(report.approx[t]))},{repr(e)},{repr(a)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _malformed(path, what: str) -> ValueError:
    return ValueError(f"malformed report file {path}: {what}")


def read_report_csv(path) -> LeverageReport:
    """Read a report written by :func:`write_report_csv`. A missing
    metadata key, a non-numeric field, a row index that is not a positive
    integer, a data row of other than 4 fields or a file without data rows
    raises a one-line ValueError."""
    meta: dict[str, str] = {}
    body: list[list[str]] = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("i,"):
                continue
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition("=")
                meta[key] = val
                continue
            fields = line.split(",")
            if len(fields) != 4:
                raise _malformed(path, f"data row of {len(fields)} fields")
            body.append(fields)
    if not body:
        raise _malformed(path, "no data rows")
    try:
        data = np.array([[float(x) for x in fields] for fields in body])
        params = Params(
            epsilon=float(meta["epsilon"]), delta=float(meta["delta"]),
            k=int(meta["k"]), kappa=float(meta["kappa"]),
            spectral_norm=float(meta["spectral_norm"]),
            frob_norm=float(meta["frob_norm"]), omega=float(meta["omega"]),
            theta=float(meta["theta"]), p=int(meta["p"]),
            xi=float(meta["xi"]),
            p_override=(int(meta["p_override"]) if "p_override" in meta
                        else None),
            xi_override=(float(meta["xi_override"]) if "xi_override" in meta
                         else None))
        coherence_row = int(meta["coherence_row"]) - 1
        coherence = float(meta["coherence"])
        seed = int(meta["seed"])
        mode = meta["mode"]
    except KeyError as exc:
        raise _malformed(path, f"no {exc.args[0]} line") from None
    except ValueError as exc:
        raise _malformed(path, f"non-numeric field ({exc})") from None
    index = data[:, 0]
    if not positive_integers(index):
        raise _malformed(path, "row index not a positive integer")
    exact = data[:, 2]
    abs_err = data[:, 3]
    if np.isnan(exact).all():
        exact = abs_err = None
    return LeverageReport(
        rows=index.astype(np.int64) - 1, approx=data[:, 1],
        exact=exact, abs_err=abs_err, coherence_row=coherence_row,
        coherence=coherence, mode=mode, seed=seed, params=params)
