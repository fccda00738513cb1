"""Two-stage subsampling sketch of a low-rank matrix.

From a sample-model store, p column indices are drawn by squared column
norm, giving the implicit scaled matrix S with S[:, t] = A[:, j_t] /
sqrt(p P_{j_t}); p row indices are then drawn from the mixture of the
sampled columns' row distributions, giving the small core W with
W[t, :] = S[i_t, :] / sqrt(p P'_{i_t}). Both rescalings preserve the
Frobenius norm exactly, and the top right singular triplets of W are a
succinct description of approximate left singular vectors U^ = S V Sigma^-1
that is never materialized at full size.

A sketch reads each column norm and each entry it needs once: the column
draws hand their squared norms to the row draws, and the row draws' one
gather of the drawn rows at the sampled columns gives both the mixture
probabilities and the entries of W.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import textfile
from .sample_store import MatrixSampleStore, check_indices
from .svd import positive_int, svd_dense, truncate_top_k

# largest p for which qisvd builds the dense p-by-p core
W_CAP = 2000


@dataclass(frozen=True)
class Params:
    """Run parameters, derived and practical.

    ``omega``, ``theta``, ``p`` and ``xi`` follow from the target error
    ``epsilon``, failure probability ``delta``, truncation order ``k`` and
    the matrix constants. ``p_override`` and ``xi_override`` substitute
    desk-scale values for the (astronomical) derived ones without touching
    the rest; their presence marks the parameter set as practical mode.
    """
    epsilon: float
    delta: float
    k: int
    kappa: float
    spectral_norm: float
    frob_norm: float
    omega: float
    theta: float
    p: int
    xi: float
    p_override: int | None = None
    xi_override: float | None = None

    @property
    def practical(self) -> bool:
        return self.p_override is not None or self.xi_override is not None

    @property
    def xi_effective(self) -> float:
        return self.xi if self.xi_override is None else self.xi_override

    @property
    def beta(self) -> float:
        """Near-orthonormality bound omega / (4k + 3)."""
        return self.omega / (4 * self.k + 3)


def _parameter_formulas(epsilon: float, k: int, kappa: float,
                        spectral_norm: float, frob_norm: float
                        ) -> tuple[float, float, float]:
    """(omega, theta's upper end, xi): the one checked evaluation of the
    paper's formulas behind ``theta_upper`` and ``compute_params``."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    k = positive_int(k, "k")
    if not 1.0 <= kappa < math.inf:
        raise ValueError("kappa must be finite and >= 1")
    if not (0.0 < spectral_norm < math.inf and 0.0 < frob_norm < math.inf):
        raise ValueError("norms must be positive and finite")
    for shift in (0, -math.frexp(spectral_norm)[1]):
        try:
            spectral = math.ldexp(spectral_norm, shift)
            frob = math.ldexp(frob_norm, shift)
            w = max(frob * kappa + spectral, kappa)
            # bounds every product below: where it is finite, none overflows
            bound = 196.0 * (4 * k + 5) * w * w
            s2, f2, k2 = spectral ** 2, frob ** 2, kappa ** 2
            num, xnum = s2 * epsilon ** 2, 2.0 * epsilon * s2
            omega = num / (196.0 * (frob * kappa + spectral) ** 2)
            top = omega * s2
            upper = top / ((4 * k + 3 + 2 * omega) * k2 * f2)
            # sqrt(r + 1) - 1 = r / (sqrt(r + 1) + 1), which does not
            # cancel where r is small; r = inf gives xi = nan
            r = xnum / (k2 * (4 * k + 5) * f2)
            xi = r / (math.sqrt(r + 1.0) + 1.0) / math.sqrt(k)
        except (OverflowError, ZeroDivisionError):
            continue
        # upper overflows, and xi is nan, where frob_norm is far below
        # spectral_norm (max() would pass a nan, so xi is tested itself);
        # every other intermediate that scales with the norms is at least
        # one of the last four, so none is subnormal
        if (max(bound, upper) < math.inf and xi < math.inf
                and min(f2, num, top, xnum) >= sys.float_info.min):
            return omega, upper, xi
    raise ValueError("the parameter formulas overflow or underflow at "
                     "every scale of the norms")


def theta_upper(epsilon: float, k: int, kappa: float, spectral_norm: float,
                frob_norm: float) -> tuple[float, float]:
    """(omega, largest admissible theta) for the given constants.

    epsilon lies in (0, 1), k is a positive integer (see
    ``positive_int``), kappa is finite and >= 1 and both norms are positive
    and finite; anything else raises ValueError. omega, theta and xi
    depend on the norms only through their ratio. Where an intermediate of
    their formulas could overflow or is subnormal, they are evaluated on
    both norms divided by the power of two that brings spectral_norm into
    [0.5, 1), which is exact. Only there: elsewhere ``**`` rounds through
    libm ``pow``, and scaled norms could move the last bit. Where the
    formulas overflow or underflow at that scale too (kappa, the ratio of
    the norms, 1 / epsilon or k far out of range), ValueError.
    """
    return _parameter_formulas(epsilon, k, kappa, spectral_norm, frob_norm)[:2]


def compute_params(epsilon: float, delta: float, k: int, kappa: float,
                   spectral_norm: float, frob_norm: float,
                   p_override: int | None = None,
                   theta: float | None = None,
                   xi_override: float | None = None) -> Params:
    """Derive the full parameter set.

    omega, theta's upper end and xi are evaluated, and epsilon, k, kappa
    and the norms checked, as in ``theta_upper``. ``theta`` defaults to
    the upper end of its admissible interval (any smaller value only
    inflates p). ``p_override`` replaces p alone. ``k`` and ``p_override``
    are whole numbers of any real type, stored as int. A theta for which
    p = 1 / (theta^2 delta) is not finite (theta underflows to 0 for a
    large enough kappa) raises ValueError.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    omega, upper, xi = _parameter_formulas(epsilon, k, kappa,
                                           spectral_norm, frob_norm)
    if theta is None:
        theta = upper
    elif not 0.0 < theta <= upper:
        raise ValueError(f"theta must lie in (0, {upper!r}]")
    # theta is 0 where omega or its bound underflows, and theta^2 delta
    # can underflow where theta does not
    denom = theta * theta * delta
    if not (denom > 0.0 and 1.0 / denom < math.inf):
        raise ValueError(f"theta={theta!r} underflows the parameter "
                         "formulas: p = 1 / (theta^2 delta) is not finite")
    # a theta^2 delta that overflows still needs one draw
    p = max(math.ceil(1.0 / denom), 1)
    if p_override is not None:
        p = p_override = positive_int(p_override, "p_override")
    if xi_override is not None and not xi_override > 0.0:
        raise ValueError("xi_override must be positive")
    return Params(epsilon=epsilon, delta=delta, k=int(k), kappa=kappa,
                  spectral_norm=spectral_norm, frob_norm=frob_norm,
                  omega=omega, theta=theta, p=p, xi=xi,
                  p_override=p_override, xi_override=xi_override)


@dataclass
class SketchDescription:
    """Sampled indices with their probabilities plus the core's top right
    singular triplets; everything needed to evaluate scores later."""
    col_indices: np.ndarray
    col_probs: np.ndarray
    row_indices: np.ndarray
    row_probs: np.ndarray
    frob_norm: float
    v: np.ndarray | None = None
    sigma: np.ndarray | None = None

    @property
    def p(self) -> int:
        return int(self.col_indices.size)

    @property
    def k(self) -> int:
        return 0 if self.sigma is None else int(self.sigma.size)

    @cached_property
    def col_scale(self) -> np.ndarray:
        """Per-column factors 1 / sqrt(p P_{j_t}) of S."""
        return 1.0 / np.sqrt(self.p * self.col_probs)


def sample_columns(store: MatrixSampleStore, p: int, rng: np.random.Generator
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p i.i.d. column indices by squared column norm, with replacement.

    Returns the indices, their exact probabilities P_j and their squared
    norms ||A_{:,j}||^2, one norm read per draw. A ``p`` that is not a
    positive integer (see ``positive_int``) or a zero matrix raises
    ValueError.
    """
    idx = store.sample_column_indices(rng, positive_int(p, "p"))
    col_sq = store.col_sq_norms(idx)
    return idx, col_sq / store.sq_frobenius, col_sq


def sample_rows(store: MatrixSampleStore, col_indices, col_sq, p: int,
                rng: np.random.Generator
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p row indices from the mixture of the sampled columns' distributions.

    ``col_sq`` holds the squared norms of the columns ``col_indices``, one
    per column, as ``sample_columns`` returns them; no norm is read again.
    Each draw picks t uniformly, then a row within column j_t by squared
    entry, from one ``rng.integers`` and one ``rng.random`` call in that
    order; the store then walks all p draws together
    (``MatrixSampleStore.sample_in_columns``), the library's one
    within-column draw.

    One gather reads the distinct drawn rows at the sampled columns. From
    it come the exact mixture probabilities P'_i = sum_t A[i, j_t]^2 /
    (p ||A_{:,j_t}||^2), which equal ||S_{i,:}||^2 / ||S||_F^2, and the
    p-by-p block A[i_s, j_t] of the drawn rows, which ``build_w`` scales
    into W. Returns the row indices, their probabilities and that block.
    A ``p`` that is not a positive integer raises ValueError, as in
    ``sample_columns``.
    """
    p = positive_int(p, "p")
    cols = check_indices(col_indices, store.n, "column index")
    if np.shape(col_sq) != cols.shape:
        raise ValueError("col_sq must hold one squared norm per column")
    if np.any(np.asarray(col_sq) <= 0.0):
        raise ValueError("zero column")
    picks = np.empty(p, dtype=np.int64)
    u = np.empty(p)
    for t in range(p):
        picks[t], u[t] = rng.integers(0, cols.size), rng.random()
    idx = store.sample_in_columns(cols[picks], u)
    rows, at = np.unique(idx, return_inverse=True)
    vals = store.block_values(rows, cols)
    # a row-wise sum adds each row as the sum of that row alone does
    probs = (vals * vals / col_sq).sum(axis=1) / cols.size
    return idx, probs[at], vals[at]


def s_rows(store: MatrixSampleStore, sketch: SketchDescription,
           rows) -> np.ndarray:
    """Rows S[rows, :] as one counted gather."""
    return store.block_values(rows, sketch.col_indices) * sketch.col_scale


def s_matrix(store: MatrixSampleStore,
             sketch: SketchDescription) -> np.ndarray:
    """Dense m-by-p S, as one counted gather of every row (m p entries)."""
    return s_rows(store, sketch, np.arange(store.m))


def build_w(sketch: SketchDescription, block: np.ndarray) -> np.ndarray:
    """Dense p-by-p core W, rows being rescaled sampled rows of S, from the
    block A[i_s, j_t] that ``sample_rows`` gathered; reads no entry."""
    if (sketch.row_probs <= 0.0).any():
        raise ValueError("drawn row has zero mixture probability")
    scale = np.sqrt(sketch.p * sketch.row_probs)
    return (block * sketch.col_scale) / scale[:, None]


def draw_sketch(store: MatrixSampleStore, p: int, rng: np.random.Generator
                ) -> tuple[SketchDescription, np.ndarray]:
    """The p column and p row draws of one sketch and its core W, without
    the core SVD."""
    cols, col_probs, col_sq = sample_columns(store, p, rng)
    rows, row_probs, block = sample_rows(store, cols, col_sq, p, rng)
    sketch = SketchDescription(cols, col_probs, rows, row_probs,
                               float(np.sqrt(store.sq_frobenius)))
    return sketch, build_w(sketch, block)


def qisvd(store: MatrixSampleStore, params: Params,
          rng: np.random.Generator) -> SketchDescription:
    """Run the full sketch: sample columns and rows, build W, keep its top
    k right singular triplets (threshold-guarded).

    The SVD runs on W with its repeated draws merged: each distinct row and
    column appears once, scaled by the square root of its draw count. That
    core has W's singular values, and W's V is the core's V expanded back,
    entry t being the entry of draw t's group over sqrt(count). At most
    min(k, rank of the merged core) triplets are kept; k above p raises.

    Parameters
    ----------
    store : frozen sample-model store of A.
    params : from :func:`compute_params`; ``params.p`` drives the sample
        count, so theoretical p far beyond ``W_CAP`` is rejected here.
    rng : stream owning all draws of this sketch.
    """
    p = params.p
    if p > W_CAP:
        raise ValueError(
            f"p={p} exceeds the dense-core cap {W_CAP}; use p_override "
            "for practical runs or the counted-sample diagnostics for "
            "theoretical p")
    if not 1 <= params.k <= p:
        raise ValueError(f"k={params.k} out of range 1..{p}")
    sketch, w = draw_sketch(store, p, rng)
    # a row or column drawn c times is c equal rows or columns of W: one
    # copy scaled by sqrt(c) leaves W^T W, so sigma and V, unchanged
    _, rows, row_count = np.unique(sketch.row_indices, return_index=True,
                                   return_counts=True)
    _, cols, col_group, col_count = np.unique(
        sketch.col_indices, return_index=True, return_inverse=True,
        return_counts=True)
    core = w[np.ix_(rows, cols)] * np.sqrt(row_count)[:, None] * np.sqrt(
        col_count)
    res = svd_dense(core, left=False)
    res = truncate_top_k(res, min(params.k, res.sigma.size))
    sketch.v = res.v[col_group] / np.sqrt(col_count[col_group])[:, None]
    sketch.sigma = res.sigma
    return sketch


def write_sketch_csv(path, sketch: SketchDescription) -> None:
    """Serialize a sketch as sectioned CSV ([cols], [rows], [V], [sigma]).

    Indices are written 1-based, matching the matrix file conventions.
    """
    lines = textfile.meta_lines(frob_norm=float(sketch.frob_norm))
    for name, index, probs in (
            ("cols", sketch.col_indices, sketch.col_probs),
            ("rows", sketch.row_indices, sketch.row_probs)):
        lines.append(f"[{name}]")
        lines += [f"{int(i) + 1},{textfile.floats([prob])}"
                  for i, prob in zip(index, probs)]
    textfile.write(path, [*lines, "[V]", *map(textfile.floats, sketch.v),
                          "[sigma]", textfile.floats(sketch.sigma)])


def _positive(values: np.ndarray) -> bool:
    return bool((np.isfinite(values) & (values > 0.0)).all())


def _draws(f: textfile.TextFile, name: str,
           pairs: list) -> tuple[np.ndarray, np.ndarray]:
    """0-based indices and probabilities of the ``[name]`` section's
    1-based (index, probability) lines."""
    index, probs = np.array(pairs).T
    index = f.indices(index, f"[{name}] index")
    if not _positive(probs):
        raise f.malformed(f"[{name}] probability not positive")
    return index, probs


def read_sketch_csv(path) -> SketchDescription:
    """Read a file written by :func:`write_sketch_csv`.

    Raises ValueError with a one-line message if the file is truncated or
    its sections are malformed, an index is not a positive integer, a
    probability, a singular value or frob_norm is not positive and finite,
    or an entry of V is not finite.
    """
    f = textfile.TextFile(path, "sketch", sections=("cols", "rows", "V",
                                                    "sigma"))
    meta = f.metadata()
    missing = [f"[{name}]" for name, rows in f.sections.items() if not rows]
    if "frob_norm" not in meta:
        missing.insert(0, "frob_norm")
    if missing:
        raise ValueError(f"truncated sketch file {path}: missing "
                         f"{', '.join(missing)}")
    frob = f.numbers([meta["frob_norm"]])[0]
    cols, rows, v, sigma = ([f.numbers(line.split(",")) for line in part]
                            for part in f.sections.values())
    p, k = len(cols), len(sigma[0])
    if (any(len(r) != 2 for r in cols + rows) or len(rows) != p
            or len(sigma) != 1 or len(v) != p
            or any(len(r) != k for r in v)):
        raise f.malformed("section sizes disagree")
    v, sigma = np.array(v), np.array(sigma[0])
    if not (np.isfinite(v).all() and _positive(sigma)
            and 0.0 < frob < math.inf):
        raise f.malformed("[V] not finite, or [sigma] or frob_norm not "
                          "positive")
    cols, col_probs = _draws(f, "cols", cols)
    rows, row_probs = _draws(f, "rows", rows)
    return SketchDescription(col_indices=cols, col_probs=col_probs,
                             row_indices=rows, row_probs=row_probs,
                             frob_norm=frob, v=v, sigma=sigma)
