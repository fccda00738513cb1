"""Two-stage subsampling sketch of a low-rank matrix.

From a sample-model store, p column indices are drawn by squared column
norm, giving the implicit scaled matrix S with S[:, t] = A[:, j_t] /
sqrt(p P_{j_t}); p row indices are then drawn from the mixture of the
sampled columns' row distributions, giving the small core W with
W[t, :] = S[i_t, :] / sqrt(p P'_{i_t}). Both rescalings preserve the
Frobenius norm exactly, and the top right singular triplets of W are a
succinct description of approximate left singular vectors U^ = S V Sigma^-1
that is never materialized at full size.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import textfile
from .sample_store import MatrixSampleStore
from .svd import svd_dense, truncate_top_k

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


def theta_upper(epsilon: float, k: int, kappa: float, spectral_norm: float,
                frob_norm: float) -> tuple[float, float]:
    """(omega, largest admissible theta) for the given constants."""
    omega = (spectral_norm ** 2 * epsilon ** 2
             / (196.0 * (frob_norm * kappa + spectral_norm) ** 2))
    upper = (omega * spectral_norm ** 2
             / ((4 * k + 3 + 2 * omega) * kappa ** 2 * frob_norm ** 2))
    return omega, upper


def _positive_int(value, name: str) -> int:
    """``value`` as an int: a whole number >= 1 of any real type."""
    if not (isinstance(value, numbers.Real) and value >= 1
            and float(value).is_integer()):
        raise ValueError(f"{name} must be a positive integer")
    return int(value)


def compute_params(epsilon: float, delta: float, k: int, kappa: float,
                   spectral_norm: float, frob_norm: float,
                   p_override: int | None = None,
                   theta: float | None = None,
                   xi_override: float | None = None) -> Params:
    """Derive the full parameter set.

    ``theta`` defaults to the upper end of its admissible interval (any
    smaller value only inflates p). ``p_override`` replaces p alone.
    ``k`` and ``p_override`` are whole numbers of any real type, stored
    as int.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    k = _positive_int(k, "k")
    if not 1.0 <= kappa < math.inf:
        raise ValueError("kappa must be finite and >= 1")
    if not (0.0 < spectral_norm < math.inf and 0.0 < frob_norm < math.inf):
        raise ValueError("norms must be positive and finite")
    omega, upper = theta_upper(epsilon, k, kappa, spectral_norm, frob_norm)
    if theta is None:
        theta = upper
    elif not 0.0 < theta <= upper:
        raise ValueError(f"theta must lie in (0, {upper!r}]")
    p = math.ceil(1.0 / (theta * theta * delta))
    if p_override is not None:
        p = p_override = _positive_int(p_override, "p_override")
    xi = (math.sqrt(2.0 * epsilon * spectral_norm ** 2
                    / (kappa ** 2 * (4 * k + 5) * frob_norm ** 2) + 1.0)
          - 1.0) / math.sqrt(k)
    if xi_override is not None and xi_override <= 0.0:
        raise ValueError("xi_override must be positive")
    return Params(epsilon=epsilon, delta=delta, k=k, kappa=kappa,
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
    _col_scale: np.ndarray | None = field(default=None, repr=False)

    @property
    def p(self) -> int:
        return int(self.col_indices.size)

    @property
    def k(self) -> int:
        return 0 if self.sigma is None else int(self.sigma.size)

    @property
    def col_scale(self) -> np.ndarray:
        """Per-column factors 1 / sqrt(p P_{j_t}) of S."""
        if self._col_scale is None:
            self._col_scale = 1.0 / np.sqrt(self.p * self.col_probs)
        return self._col_scale


def sample_columns(store: MatrixSampleStore, p: int,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """p i.i.d. column indices by squared column norm, with replacement.

    Returns the indices and their exact probabilities P_j.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    fro = store.sq_frobenius
    if fro <= 0.0:
        raise ValueError("zero matrix")
    idx = store.sample_column_indices(rng, p)
    probs = np.array([store.col_sq_norm(j) for j in idx]) / fro
    return idx, probs


def sample_rows(store: MatrixSampleStore, col_indices, p: int,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """p row indices from the mixture of the sampled columns' distributions.

    Each draw picks t uniformly, then a row within column j_t by squared
    entry, from one ``rng.integers`` and one ``rng.random`` call in that
    order; the store then walks all p draws together
    (``MatrixSampleStore.sample_in_columns``), the library's one
    within-column draw. The returned probabilities are the exact mixture
    values P'_i = sum_t A[i, j_t]^2 / (p ||A_{:,j_t}||^2), which equal
    ||S_{i,:}||^2 / ||S||_F^2, from one gather of the distinct rows.
    """
    cols = np.asarray(col_indices, dtype=np.int64)
    col_sq = np.array([store.col_sq_norm(j) for j in cols])
    if np.any(col_sq <= 0.0):
        raise ValueError("zero column")
    picks = np.empty(p, dtype=np.int64)
    u = np.empty(p)
    for t in range(p):
        picks[t] = rng.integers(0, cols.size)
        u[t] = rng.random()
    idx = store.sample_in_columns(cols[picks], u)
    rows, at = np.unique(idx, return_inverse=True)
    vals = store.block_values(rows, cols)
    # a row-wise sum adds each row as the sum of that row alone does
    probs = (vals * vals / col_sq).sum(axis=1) / cols.size
    return idx, probs[at]


def s_rows(store: MatrixSampleStore, sketch: SketchDescription,
           rows) -> np.ndarray:
    """Rows S[rows, :] as one counted gather."""
    return store.block_values(rows, sketch.col_indices) * sketch.col_scale


def s_matrix(store: MatrixSampleStore,
             sketch: SketchDescription) -> np.ndarray:
    """Dense m-by-p S, as one counted gather of every row (m p entries)."""
    return s_rows(store, sketch, np.arange(store.m))


def build_w(store: MatrixSampleStore, sketch: SketchDescription) -> np.ndarray:
    """Dense p-by-p core W, rows being rescaled sampled rows of S."""
    if (sketch.row_probs <= 0.0).any():
        raise ValueError("drawn row has zero mixture probability")
    scale = np.sqrt(sketch.p * sketch.row_probs)
    return s_rows(store, sketch, sketch.row_indices) / scale[:, None]


def draw_sketch(store: MatrixSampleStore, p: int,
                rng: np.random.Generator) -> SketchDescription:
    """The p column and p row draws of one sketch, without the core SVD."""
    cols, col_probs = sample_columns(store, p, rng)
    rows, row_probs = sample_rows(store, cols, p, rng)
    return SketchDescription(col_indices=cols, col_probs=col_probs,
                             row_indices=rows, row_probs=row_probs,
                             frob_norm=float(np.sqrt(store.sq_frobenius)))


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
    sketch = draw_sketch(store, p, rng)
    w = build_w(store, sketch)
    # a row or column drawn c times is c equal rows or columns of W: one
    # copy scaled by sqrt(c) leaves W^T W, so sigma and V, unchanged
    _, rows, row_count = np.unique(sketch.row_indices, return_index=True,
                                   return_counts=True)
    _, cols, col_group, col_count = np.unique(
        sketch.col_indices, return_index=True, return_inverse=True,
        return_counts=True)
    core = w[np.ix_(rows, cols)] * np.sqrt(row_count)[:, None] * np.sqrt(
        col_count)
    res = svd_dense(core)
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
