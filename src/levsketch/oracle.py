"""Ground truth: exact leverage scores, conditioning, and dataset generators.

Exact statistical leverage scores come from a thin SVD of the full matrix:
the score of row i is the squared i-th row norm of the left singular factor
restricted to the numerical rank. The generators reproduce two synthetic
families used throughout the experiments: a blockwise row-scaled Gaussian
matrix with a chosen number of zeroed columns, and a factor-form low-rank
matrix with a prescribed condition number.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .rng import standard_normal, stream
from .svd import householder_qr, svd_dense

# numerical rank threshold, relative to the largest singular value
RANK_TOL = 1e-10


class OracleFacts(NamedTuple):
    """Exact leverage scores, numerical rank r, ||A|| and kappa."""
    scores: np.ndarray
    rank: int
    spectral_norm: float
    kappa: float


def oracle_facts(matrix) -> OracleFacts:
    """Every exact quantity the experiments need, from one thin SVD.

    r counts the singular values above ``RANK_TOL`` times the largest; the
    scores are l_i = ||U[i, :r]||^2 and kappa = sigma_1 / sigma_r.
    """
    res = svd_dense(matrix)
    top = float(res.sigma[0])
    if top <= 0.0:
        raise ValueError("zero matrix")
    r = int((res.sigma > RANK_TOL * top).sum())
    u = res.u[:, :r]
    return OracleFacts((u * u).sum(axis=1), r, top,
                       top / float(res.sigma[r - 1]))


def gen_example1(m: int, n: int, n_zero: int, seed: int) -> np.ndarray:
    """Blockwise row-scaled Gaussian matrix with zeroed columns.

    Rows are standard normal, scaled by 1, 1e2, 1e3, 1e4 in four equal bands;
    ``n_zero`` distinct columns chosen uniformly are then set to zero, so the
    rank is n - n_zero almost surely. ``m`` must be divisible by 4.
    """
    if m % 4 != 0:
        raise ValueError("m must be divisible by 4")
    if not 0 <= n_zero < n:
        raise ValueError("need 0 <= n_zero < n")
    rng = stream(seed)
    a = standard_normal(rng, (m, n))
    band = m // 4
    for b, scale in enumerate((1.0, 1e2, 1e3, 1e4)):
        a[b * band:(b + 1) * band] *= scale
    a[:, _draw_distinct(rng, n, n_zero)] = 0.0
    return a


def _draw_distinct(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` distinct indices from range(n), by partial Fisher-Yates."""
    pool = np.arange(n)
    for t in range(count):
        swap = int(rng.integers(t, n))
        pool[t], pool[swap] = pool[swap], pool[t]
    return pool[:count]


def gen_example2(m: int, n: int, r: int, kappa: float, a: int, b: int,
                 seed: int) -> np.ndarray:
    """Low-rank factor-form matrix with prescribed condition number.

    Orthonormal factors come from Householder QR of Gaussian matrices. The
    largest singular value is a uniform integer in [a, b], the smallest is
    sigma_max / kappa, and the r - 2 interior values are uniform between
    them. kappa = 1 collapses all singular values to sigma_max.
    """
    if not 1 <= r <= min(m, n):
        raise ValueError("need 1 <= r <= min(m, n)")
    if not 1 <= a <= b:
        raise ValueError("need 1 <= a <= b")
    if not 1.0 <= kappa < math.inf:
        raise ValueError("kappa must be finite and >= 1")
    if r < 2 and kappa > 1.0:
        raise ValueError("r < 2 with kappa > 1: no distinct min and max")
    rng = stream(seed)
    u, _ = householder_qr(standard_normal(rng, (m, r)))
    v, _ = householder_qr(standard_normal(rng, (n, r)))
    s_max = float(rng.integers(a, b + 1))
    s_min = s_max / kappa
    if r >= 2:
        interior = s_min + (s_max - s_min) * rng.random(r - 2)
        sigma = np.concatenate(([s_max], interior, [s_min]))
    else:
        sigma = np.array([s_max])
    return (u * sigma) @ v.T
