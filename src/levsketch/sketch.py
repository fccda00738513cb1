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
from dataclasses import dataclass, field

import numpy as np

from .sample_store import MatrixSampleStore, draw_from_cumsum
from .svd import svd_dense, truncate_top_k

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


def compute_params(epsilon: float, delta: float, k: int, kappa: float,
                   spectral_norm: float, frob_norm: float,
                   p_override: int | None = None,
                   theta: float | None = None,
                   xi_override: float | None = None) -> Params:
    """Derive the full parameter set.

    ``theta`` defaults to the upper end of its admissible interval (any
    smaller value only inflates p). ``p_override`` replaces p alone.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if k < 1:
        raise ValueError("k must be a positive integer")
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    if spectral_norm <= 0.0 or frob_norm <= 0.0:
        raise ValueError("norms must be positive")
    k = int(k)
    omega, upper = theta_upper(epsilon, k, kappa, spectral_norm, frob_norm)
    if theta is None:
        theta = upper
    elif not 0.0 < theta <= upper:
        raise ValueError(f"theta must lie in (0, {upper!r}]")
    p = math.ceil(1.0 / (theta * theta * delta))
    if p_override is not None:
        if p_override < 1:
            raise ValueError("p_override must be a positive integer")
        p = int(p_override)
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
    idx = np.empty(p, dtype=np.int64)
    probs = np.empty(p)
    for t in range(p):
        j = store.sample_column_index(rng)
        idx[t] = j
        probs[t] = store.col_sq_norm(j) / fro
    return idx, probs


def sample_rows(store: MatrixSampleStore, col_indices, p: int,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """p row indices from the mixture of the sampled columns' distributions.

    Each draw picks t uniformly, then a row within column j_t by squared
    entry. The returned probabilities are the exact mixture values
    P'_i = sum_t A[i, j_t]^2 / (p ||A_{:,j_t}||^2), which equal
    ||S_{i,:}||^2 / ||S||_F^2.
    """
    cols = np.asarray(col_indices, dtype=np.int64)
    col_sq = np.array([store.col_sq_norm(j) for j in cols])
    if np.any(col_sq <= 0.0):
        raise ValueError("zero column")
    # cache each distinct column's cumulative weights; repeated draws from
    # the same column then skip the O(m) walk
    cum_cache: dict[int, np.ndarray] = {}
    prob_cache: dict[int, float] = {}
    idx = np.empty(p, dtype=np.int64)
    probs = np.empty(p)
    for t in range(p):
        j = int(cols[rng.integers(0, cols.size)])
        cum = cum_cache.get(j)
        if cum is None:
            col = store.column_values(j)
            cum = np.cumsum(col * col)
            cum_cache[j] = cum
        i = draw_from_cumsum(cum, rng.random() * cum[-1])
        idx[t] = i
        if i not in prob_cache:
            vals = store.row_values(i, cols)
            prob_cache[i] = float((vals * vals / col_sq).sum() / cols.size)
        probs[t] = prob_cache[i]
    return idx, probs


def s_entry(store: MatrixSampleStore, sketch: SketchDescription,
            i: int, t: int) -> float:
    """Entry S[i, t] = A[i, j_t] / sqrt(p P_{j_t})."""
    return store.query(i, sketch.col_indices[t]) * float(sketch.col_scale[t])


def s_row(store: MatrixSampleStore, sketch: SketchDescription,
          i: int) -> np.ndarray:
    """Row S[i, :] as one counted gather."""
    return store.row_values(i, sketch.col_indices) * sketch.col_scale


def build_w(store: MatrixSampleStore, sketch: SketchDescription) -> np.ndarray:
    """Dense p-by-p core W, rows being rescaled sampled rows of S."""
    p = sketch.p
    w = np.empty((p, p))
    for t in range(p):
        prob = sketch.row_probs[t]
        if prob <= 0.0:
            raise ValueError("drawn row has zero mixture probability")
        w[t] = s_row(store, sketch, sketch.row_indices[t]) / np.sqrt(p * prob)
    return w


def qisvd(store: MatrixSampleStore, params: Params, rng: np.random.Generator,
          w_cap: int = W_CAP) -> SketchDescription:
    """Run the full sketch: sample columns and rows, build W, keep its top
    k right singular triplets (threshold-guarded).

    Parameters
    ----------
    store : frozen sample-model store of A.
    params : from :func:`compute_params`; ``params.p`` drives the sample
        count, so theoretical p far beyond ``w_cap`` is rejected here.
    rng : stream owning all draws of this sketch.
    """
    p = params.p
    if p > w_cap:
        raise ValueError(
            f"p={p} exceeds the dense-core cap {w_cap}; use p_override "
            "for practical runs or the counted-sample diagnostics for "
            "theoretical p")
    cols, col_probs = sample_columns(store, p, rng)
    rows, row_probs = sample_rows(store, cols, p, rng)
    sketch = SketchDescription(col_indices=cols, col_probs=col_probs,
                               row_indices=rows, row_probs=row_probs,
                               frob_norm=float(np.sqrt(store.sq_frobenius)))
    w = build_w(store, sketch)
    res = truncate_top_k(svd_dense(w), params.k)
    sketch.v = res.v
    sketch.sigma = res.sigma
    return sketch


def write_sketch_csv(path, sketch: SketchDescription) -> None:
    """Serialize a sketch as sectioned CSV ([cols], [rows], [V], [sigma]).

    Indices are written 1-based, matching the matrix file conventions.
    """
    lines = [f"# frob_norm={repr(float(sketch.frob_norm))}", "[cols]"]
    for j, prob in zip(sketch.col_indices, sketch.col_probs):
        lines.append(f"{int(j) + 1},{repr(float(prob))}")
    lines.append("[rows]")
    for i, prob in zip(sketch.row_indices, sketch.row_probs):
        lines.append(f"{int(i) + 1},{repr(float(prob))}")
    lines.append("[V]")
    for row in sketch.v:
        lines.append(",".join(repr(float(x)) for x in row))
    lines.append("[sigma]")
    lines.append(",".join(repr(float(x)) for x in sketch.sigma))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_sketch_csv(path) -> SketchDescription:
    """Read a file written by :func:`write_sketch_csv`.

    Raises ValueError with a one-line message if the file is truncated or
    its sections are malformed.
    """
    section = None
    frob = None
    parts: dict[str, list] = {"cols": [], "rows": [], "V": [], "sigma": []}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("frob_norm="):
                    frob = float(body.partition("=")[2])
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1]
                continue
            if section not in parts:
                raise ValueError(f"malformed sketch file {path}: data "
                                 "outside the [cols], [rows], [V], [sigma] "
                                 "sections")
            parts[section].append([float(x) for x in line.split(",")])
    missing = [f"[{name}]" for name, rows in parts.items() if not rows]
    if frob is None:
        missing.insert(0, "frob_norm")
    if missing:
        raise ValueError(f"truncated sketch file {path}: missing "
                         f"{', '.join(missing)}")
    p, k = len(parts["cols"]), len(parts["sigma"][0])
    if (any(len(r) != 2 for r in parts["cols"] + parts["rows"])
            or len(parts["rows"]) != p or len(parts["sigma"]) != 1
            or len(parts["V"]) != p or any(len(r) != k for r in parts["V"])):
        raise ValueError(f"malformed sketch file {path}: section sizes "
                         "disagree")
    cols = np.array([int(r[0]) - 1 for r in parts["cols"]], dtype=np.int64)
    col_probs = np.array([r[1] for r in parts["cols"]])
    rows = np.array([int(r[0]) - 1 for r in parts["rows"]], dtype=np.int64)
    row_probs = np.array([r[1] for r in parts["rows"]])
    return SketchDescription(col_indices=cols, col_probs=col_probs,
                             row_indices=rows, row_probs=row_probs,
                             frob_norm=frob, v=np.array(parts["V"]),
                             sigma=np.array(parts["sigma"][0]))
