"""Dense SVD by one-sided Jacobi rotations.

The kernel orthogonalizes the columns of a square matrix by plane rotations
until every pairwise inner product is negligible; singular values are the
final column norms, right vectors accumulate the rotations, and left vectors
are the normalized columns. Each round of a sweep rotates n/2 disjoint column
pairs in one array step, in Brent and Luk's round-robin order. A tall input
is first factored A = QR (Drmac and Veselic's preconditioning), the sweeps
run on R, and U = Q U_R; wide inputs are handled by transposition. The order
is fixed, so the result is deterministic for a fixed input, and working on
the matrix directly avoids the squared conditioning of a Gram-matrix
eigensolve.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

_TOL = 1e-14
_MAX_SWEEPS = 60


@dataclass
class SvdResult:
    """Factors M = U diag(sigma) V^T with orthonormal U, V columns and
    sigma sorted non-increasing.

    ``sweeps`` counts the Jacobi sweeps run, the last of which rotated
    nothing; ``residual`` is the largest |u_i . u_j| / (|u_i| |u_j|) over
    the column pairs of that last sweep.
    """
    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    sweeps: int = 0
    residual: float = 0.0


def svd_dense(matrix) -> SvdResult:
    """Full SVD of a dense matrix.

    Parameters
    ----------
    matrix : (m, n) array-like with finite entries.

    Returns
    -------
    SvdResult with min(m, n) triplets. Ties among equal singular values keep
    the lower original column index first. Raises ValueError if the sweeps
    have not converged after ``_MAX_SWEEPS``.
    """
    a = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    if a.ndim != 2 or a.size == 0:
        raise ValueError("matrix must be two-dimensional and non-empty")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entries")
    if a.shape[0] < a.shape[1]:
        res = svd_dense(a.T)
        return replace(res, u=res.v, v=res.u)
    q, a = householder_qr(a) if a.shape[0] > a.shape[1] else (None, a)

    # row i holds column i of the working matrix, then column i of V (a zero
    # row pads odd n). Position k pairs with position size-1-k; positions 1..
    # shift by one per round, so each sweep ends with every row back in place.
    n = a.shape[1]
    size = n + n % 2
    work = np.zeros((size, 2 * n))
    work[:n, :n] = a.T
    work[:n, n:] = np.eye(n)
    top, bottom = work[:size // 2, :n], work[size // 2:, :n][::-1]
    for sweeps in range(1, _MAX_SWEEPS + 1):
        rotated, residual = False, 0.0
        for _ in range(size - 1):
            sq_top = np.einsum("ij,ij->i", top, top)
            sq_bottom = np.einsum("ij,ij->i", bottom, bottom)
            gamma = np.einsum("ij,ij->i", top, bottom)
            bound = np.sqrt(sq_top) * np.sqrt(sq_bottom)
            bound[bound == 0.0] = np.inf  # a zero column never rotates
            residual = max(residual, float((np.abs(gamma) / bound).max()))
            # pairs already orthogonal to _TOL are left bit-for-bit as they are
            i = np.flatnonzero(np.abs(gamma) > _TOL * bound)
            if i.size:
                rotated = True
                zeta = (sq_bottom[i] - sq_top[i]) / (2.0 * gamma[i])
                # sign(0) must be +1: equal-mass parallel columns need the
                # full 45-degree rotation, not a no-op
                t = np.copysign(1.0, zeta) / (np.abs(zeta) + np.hypot(1.0, zeta))
                c = (1.0 / np.sqrt(1.0 + t * t))[:, None]
                s = c * t[:, None]
                j = size - 1 - i
                x, y = work[i], work[j]
                work[i], work[j] = c * x - s * y, s * x + c * y
            work[1:] = np.roll(work[1:], 1, axis=0)
        if not rotated:
            break
    else:
        raise ValueError(f"Jacobi SVD did not converge in {_MAX_SWEEPS} "
                         f"sweeps (residual {residual:.3g})")

    sigma = np.sqrt(np.einsum("ij,ij->i", work[:n, :n], work[:n, :n]))
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    u = work[order, :n].T
    v = work[order, n:].T
    positive = sigma > 0.0
    u[:, positive] /= sigma[positive]
    if not positive.all():
        _complete_basis(u, np.flatnonzero(~positive))
    u = u if q is None else q @ u
    return SvdResult(u=np.ascontiguousarray(u), sigma=sigma,
                     v=np.ascontiguousarray(v), sweeps=sweeps,
                     residual=residual)


def _complete_basis(u: np.ndarray, empty: np.ndarray) -> None:
    """Fill zero columns of ``u`` with unit vectors orthogonal to the rest.

    Candidates are canonical basis vectors, chosen deterministically by the
    smallest current row mass, with one re-orthogonalization pass.
    """
    for idx in empty:
        filled = np.flatnonzero((u * u).sum(axis=0) > 0.0)
        basis = u[:, filled]
        b = int(np.argmin((basis * basis).sum(axis=1)))
        vec = np.zeros(u.shape[0])
        vec[b] = 1.0
        for _ in range(2):
            vec -= basis @ (basis.T @ vec)
        u[:, idx] = vec / np.sqrt((vec * vec).sum())


def truncate_top_k(res: SvdResult, k: int, rel_threshold: float = 1e-12) -> SvdResult:
    """Keep the leading triplets: min(k, count of sigma_i > rel_threshold * sigma_1).

    Raises if ``k`` is out of range or nothing survives the threshold
    ("numerically rank zero").
    """
    k = int(k)
    if not 1 <= k <= res.sigma.size:
        raise ValueError(f"k={k} out of range 1..{res.sigma.size}")
    significant = int((res.sigma > rel_threshold * res.sigma[0]).sum())
    if significant == 0:
        raise ValueError("numerically rank zero")
    keep = min(k, significant)
    return replace(res, u=res.u[:, :keep].copy(),
                   sigma=res.sigma[:keep].copy(), v=res.v[:, :keep].copy())


def householder_qr(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR with the sign convention diag(R) >= 0.

    Returns (Q, R) with Q of shape (m, r) for an (m, r) input, m >= r.
    Deterministic: plain Householder reflections, no pivoting.
    """
    a = np.array(matrix, dtype=np.float64, copy=True)
    m, r = a.shape
    if m < r:
        raise ValueError("householder_qr needs m >= r")
    reflectors = []
    for j in range(r):
        x = a[j:, j]
        norm = np.sqrt((x * x).sum())
        if norm == 0.0:
            reflectors.append(None)
            continue
        v = x.copy()
        v[0] += norm if x[0] >= 0.0 else -norm
        v /= np.sqrt((v * v).sum())
        a[j:, j:] -= np.outer(2.0 * v, v @ a[j:, j:])
        reflectors.append(v)
    upper = np.triu(a[:r])
    a = x = None  # free the factored copy (x views it) before Q is built
    q = np.zeros((m, r))
    q[:r, :r] = np.eye(r)
    for j in range(r - 1, -1, -1):
        v = reflectors[j]
        if v is not None:
            q[j:] -= np.outer(2.0 * v, v @ q[j:])
    flip = np.diag(upper) < 0.0
    upper[flip] *= -1.0
    q[:, flip] *= -1.0
    return q, upper
