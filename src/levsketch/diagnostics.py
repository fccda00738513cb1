"""Monte Carlo diagnostics, including regimes the dense core cannot reach.

The counted evaluator rests on an exact reduction: for statistics that do
not depend on the order of the drawn indices (singular values of W, the
orthonormality defect of the implied U), the multinomial counts of column
and row draws are sufficient. With c_j column draws and d_i row draws,

    W^T W  and  G^(1/2) (A^T H A) G^(1/2)

share their nonzero spectrum, where G = diag(c_j / (p P_j)) and
H = diag(d_i / (p P'_i)) restrict to the support of the counts. The
reduced matrix has side at most min(n, p), so theoretical sample counts in
the billions evaluate in milliseconds, and the resulting draws follow the
exact sketch distribution rather than an approximation of it.

numpy's multinomial and eigh are deliberate here: this module is the
independent second route used to cross-check the hand-built sampling and
SVD paths, so it must not share code with them.
"""
from __future__ import annotations

import math
import sys

import numpy as np

from .sample_store import MatrixSampleStore
from .sketch import Params, draw_sketch, s_matrix
from .svd import positive_int

# singular values at or below this fraction of the largest are dropped
REL_THRESHOLD = 1e-12


def counted_sketch_spectrum(matrix, p: int, k: int, rng: np.random.Generator
                            ) -> tuple[np.ndarray, float]:
    """Top-k singular values of W and the defect ||U^T U - I||_F, for a
    sketch of `p` column and row draws evaluated through count statistics.

    Returns (sigma, defect) with sigma descending. ``p`` and ``k`` are
    whole numbers >= 1 (see ``positive_int``). A is first divided by the
    power of two nearest max |A|, and sigma multiplied back by it: exact,
    so sigma scales by exactly 2^s and the defect is the same bits at any
    power-of-two scale 2^s of A. Raises on a zero matrix or a numerically
    rank-zero reduced core.
    """
    p, k = positive_int(p, "p"), positive_int(k, "k")
    a = np.asarray(matrix, dtype=np.float64)
    shift = -math.frexp(float(np.abs(a).max(initial=0.0)))[1]
    a = np.ldexp(a, shift)
    col_sq = (a * a).sum(axis=0)
    fro2 = float(col_sq.sum())
    if fro2 <= 0.0:
        raise ValueError("zero matrix")
    p_col = col_sq / fro2
    c = rng.multinomial(p, p_col)
    sup = np.flatnonzero(c)
    g = c[sup] / (p * p_col[sup])
    # columns of S collapsed by multiplicity: B_cols B_cols^T = S S^T
    b_cols = a[:, sup] * np.sqrt(g)
    row_sq = (b_cols * b_cols).sum(axis=1)
    p_row = row_sq / row_sq.sum()
    d = rng.multinomial(p, p_row)
    sup_r = np.flatnonzero(d)
    h = d[sup_r] / (p * p_row[sup_r])
    m_core = (a[np.ix_(sup_r, sup)].T * h) @ a[np.ix_(sup_r, sup)]
    core = np.sqrt(g)[:, None] * m_core * np.sqrt(g)[None, :]
    lam, vec = np.linalg.eigh(core)
    order = np.argsort(-lam, kind="stable")
    sigma = np.sqrt(np.clip(lam[order], 0.0, None))
    significant = int((sigma > REL_THRESHOLD * sigma[0]).sum())
    if significant == 0:
        raise ValueError("numerically rank zero")
    keep = min(k, significant)
    x = vec[:, order[:keep]]
    sigma = sigma[:keep]
    # S v_j = A_sup G^(1/2) x_j, so U^T U = F^T F / (sigma sigma^T)
    f = b_cols @ x
    gram = (f.T @ f) / np.outer(sigma, sigma)
    gram -= np.eye(keep)
    return np.ldexp(sigma, -shift), math.sqrt(float((gram * gram).sum()))


def concentration_ratios(store: MatrixSampleStore, p: int,
                         rng: np.random.Generator) -> tuple[float, float]:
    """One trial of the two deviation ratios the tail bound controls:
    ||A A^T - S S^T||_F / ||A||_F^2 and ||S^T S - W^T W||_F / ||S||_F^2.

    Uses the real sampling path and dense products; intended for small
    matrices and desk-scale p. The products hold fourth powers of the
    entries, so A, S and W are first divided by the power of two nearest
    max |A|, and ||A||_F^2 by its square: exact, and the ratios are the
    same bits at any power-of-two scale of A.
    """
    sketch, w = draw_sketch(store, p, rng)
    a = store.to_array()
    shift = -math.frexp(float(np.abs(a).max()))[1]
    a = np.ldexp(a, shift)
    s = np.ldexp(s_matrix(store, sketch), shift)
    w = np.ldexp(w, shift)
    fro2 = math.ldexp(store.sq_frobenius, 2 * shift)
    d1 = a @ a.T - s @ s.T
    d2 = s.T @ s - w.T @ w
    return (math.sqrt(float((d1 * d1).sum())) / fro2,
            math.sqrt(float((d2 * d2).sum())) / fro2)


def deviation_bound(theta: float, p: int) -> float:
    """Tail probability bound 1 / (theta^2 p), clipped to 1.

    theta lies in (0, inf) and p is a positive integer (see
    ``positive_int``); anything else raises ValueError. Where theta^2 or
    theta^2 p leaves the normal range of a double, or p or an int theta^2 p
    the float range, the bound is the exact 1 / (theta^2 p) rounded once;
    elsewhere it is the float formula's.
    """
    if not 0.0 < theta < math.inf:
        raise ValueError("need theta > 0 and finite")
    p = positive_int(p, "p")
    square = theta * theta
    try:
        denom = float(square * p)
    except OverflowError:  # p, or an int theta^2 p, beyond the float range
        denom = math.inf
    if square < sys.float_info.min or denom == math.inf:
        # theta is num / den exactly, and an int division rounds once
        num, den = theta.as_integer_ratio()
        num, den = num * num * p, den * den
        return den / num if num > den else 1.0
    return 1.0 / denom if denom > 1.0 else 1.0


def sigma_min_bound(params: Params) -> float:
    """Lower bound sqrt((4k+3) / (4k+3+2 omega)) ||A|| / kappa on the
    smallest retained singular value of W at theoretical theta."""
    q = 4.0 * params.k + 3.0
    return math.sqrt(q / (q + 2.0 * params.omega)) * params.spectral_norm / params.kappa
