"""Dense SVD by one-sided Jacobi rotations on a rank-revealing QR's R.

After Drmac and Veselic, "New fast and accurate Jacobi SVD algorithm I/II",
SIMAX 29(4), 2008, and Veselic and Hari, Numer. Math. 56, 1989. An m-by-n
input with m >= n (wide inputs are transposed) is factored A P = Q R by
Householder QR with column pivoting, stopped at the numerical rank r: when
no remaining column is larger than n eps times the largest initial column.
The QR factors a C-ordered copy of A^T, so that each column of A, which
each step reads whole, is one contiguous row.
The r-by-n R is scaled by the power of two that brings its largest entry
into [0.5, 1), R_s = R 2^-e, and the Jacobi sweeps run on the n-by-r
R_s^T Q_e, where Q_e holds the eigenvectors of R_s R_s^T by non-increasing
eigenvalue, ties in column order. Those columns are nearly orthogonal
already. Each sweep starts with one check of every pair's cosine at once,
bitwise as a rotation computes it, and the sweeps end when no pair
exceeds ``_TOL``: the sweep that would rotate nothing is not run.
Counting that check as a sweep, the cores of 40 sketches of each
benchmark workload's seed-7 matrix took {2: 38, 3: 2} sweeps on
factor-core, {1: 38, 2: 2} on compare-cli and {1: 40} on banded-tall. A
sweep rotates only the pairs that its check flagged, a few dozen of some
four thousand on factor-core's cores, in the order in which Brent and
Luk's round-robin rounds meet them; a pair that a rotation pushes over
``_TOL`` waits for the next check. The flagged pairs go in batches of
disjoint pairs, one array step each, on rows gathered from the columns,
which never move: disjoint rotations commute exactly, so the sweep is
bitwise one pair at a time in round-robin order. The final column norms
are the singular values, R_s^T Q_e = U_J Sigma_s V_J^T, so R =
(Q_e V_J) (Sigma_s 2^e) U_J^T and A = (Q Q_e V_J) Sigma (P U_J)^T.
Only the triplets with sigma > 0 are returned: the thin SVD
U_A Sigma_A V_A^T of the paper, with U_A m-by-r and V_A n-by-r. The
sweeps rotate V_J beside the columns, and the QR builds Q, only when U_A
is asked for, and always for a wide input, whose V_A is the transposed
problem's U. An input whose largest entry is below 2^-500 is factored
after an exact power-of-two scaling too, so that its squares do not
underflow in the QR. The order is fixed, so the result is deterministic
for a fixed input. The Gram matrix's eigenvectors only choose where the
sweeps start: the sweeps still stop only when every pair's cosine, on
the actual columns, is at most ``_TOL``, so sigma and U_J come from
Jacobi on the matrix, not from the eigensolve, and a poor Q_e (say on an
ill-conditioned R, whose Gram matrix squares its conditioning) costs
sweeps, not accuracy.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

_TOL = 1e-14
_MAX_SWEEPS = 60
_EPS = np.finfo(float).eps
# truncate_top_k drops singular values at or below this fraction of sigma_1
REL_THRESHOLD = 1e-12
# inputs whose largest entry is below this are scaled before they are factored
_TINY_ENTRY = 2.0 ** -500


@dataclass
class SvdResult:
    """Factors M = U diag(sigma) V^T with orthonormal U, V columns and
    sigma sorted non-increasing. ``svd_dense`` returns r triplets, every
    sigma > 0, where r is the numerical rank.

    ``sweeps`` counts the Jacobi sweeps run on the preconditioned
    R_s^T Q_e (see the module docstring) and, as the last of them, the
    all-pairs check that found nothing to rotate: 1 means the
    preconditioner left nothing to rotate. ``residual`` is the largest
    |u_i . u_j| / (|u_i| |u_j|) over the column pairs in that check; when
    the sweeps do not converge, the error names the largest cosine of the
    last sweep's opening check. ``u`` is None when the caller did not ask
    for it.
    """
    u: np.ndarray | None
    sigma: np.ndarray
    v: np.ndarray
    sweeps: int = 0
    residual: float = 0.0


def svd_dense(matrix, *, left: bool = True) -> SvdResult:
    """Thin SVD of a dense matrix.

    Parameters
    ----------
    matrix : (m, n) array-like with finite entries, not all zero.
    left : return U as well. With ``left=False`` neither the pivoted QR's
        Q nor the sweeps' V_J, which only U reads, is built, and the
        preconditioner costs one r-by-r Gram product, one ``eigh`` and one
        n-by-r product; sigma, V, ``sweeps`` and ``residual`` are bitwise
        those of ``left=True``. A wide input builds both either way, since
        its V is the transposed problem's U.

    The pivoted QR's R is scaled by the power of two that brings its
    largest entry into [0.5, 1), R_s, and the sweeps run on R_s^T times
    the eigenvectors of R_s R_s^T; sigma is scaled back exactly. See the
    module docstring.

    Returns
    -------
    SvdResult with r triplets, every sigma > 0: U is (m, r), or None with
    ``left=False``, and V is (n, r), where r is the numerical rank. Ties
    among equal singular values keep the lower original column index
    first. Raises ValueError on an all-zero input ("zero matrix"), if a
    squared column norm overflows, if the sweeps have not converged
    after ``_MAX_SWEEPS`` or if ``eigh`` fails (its LinAlgError is a
    ValueError).
    """
    a = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    if a.ndim != 2 or a.size == 0:
        raise ValueError("matrix must be two-dimensional and non-empty")
    if a.shape[0] < a.shape[1]:
        res = svd_dense(a.T)
        return replace(res, u=res.v if left else None, v=res.u)
    top = float(np.abs(a).max())
    if not math.isfinite(top):
        raise ValueError("non-finite entries")
    if top == 0.0:
        raise ValueError("zero matrix")
    # the power of two that brings the largest entry into [0.5, 1)
    shift = math.frexp(top)[1] if top < _TINY_ENTRY else 0
    q, upper, perm = pivoted_qr(np.ldexp(a, -shift) if shift else a,
                                basis=left)
    # R_s = R 2^-r_shift has its largest entry in [0.5, 1), so that its
    # Gram matrix does not overflow or underflow needlessly; the sweeps
    # run on R_s^T Q_e (see the module docstring)
    r_shift = math.frexp(float(np.abs(upper).max()))[1]
    scaled = np.ldexp(upper, -r_shift)
    lam, eig = np.linalg.eigh(scaled @ scaled.T)
    eig = eig[:, np.argsort(-lam, kind="stable")]
    sigma, u_j, v_j, sweeps, residual = _jacobi(scaled.T @ eig, left)
    v = np.empty((a.shape[1], sigma.size))
    v[perm] = u_j
    return SvdResult(u=None if q is None else q @ (eig @ v_j),
                     sigma=np.ldexp(sigma, shift + r_shift), v=v,
                     sweeps=sweeps, residual=residual)


def _jacobi(a: np.ndarray, left: bool):
    """One-sided Jacobi on the n columns of the m-by-n ``a``.

    Returns (sigma, U, V, sweeps, residual) with a = U diag(sigma) V^T,
    only the columns with sigma > 0, sorted non-increasing, ties in column
    order; V is not accumulated, and is None, when ``left`` is false.
    Each sweep first zeroes the columns at rounding level, then takes
    every pair's cosine from one Gram matrix made by numpy's own einsum
    loop. If no cosine exceeds ``_TOL``, that check ends the sweeps and
    counts as the last. Otherwise the sweep rotates only the pairs that
    the check flagged, in batches of disjoint pairs (see
    ``_round_robin_batches``), which is bitwise one pair at a time in
    Brent and Luk's round-robin order, top and bottom roles included.
    Each rotation takes its pair's dot products afresh and gets t = 0 if
    its cosine no longer exceeds ``_TOL``; a pair that an earlier rotation
    pushed over ``_TOL`` waits for the next check. ``residual`` is the
    largest cosine of the last check, and so is the residual that the
    error names when the sweeps do not converge in ``_MAX_SWEEPS``.
    """
    # each row holds a column of the working matrix, m long, then that
    # column of V if it is accumulated; the columns never move
    m, n = a.shape
    work = np.zeros((n, m + n if left else m))
    work[:, :m] = a.T
    if left:
        work[:, m:] = np.eye(n)
    cols = work[:, :m]
    # a pair with a zero column divides 0 by 0: never rotated, not counted
    with np.errstate(divide="ignore", invalid="ignore"):
        for sweeps in range(1, _MAX_SWEEPS + 1):
            # columns at rounding level would shrink toward underflow and
            # never pass _TOL: zero them
            norms = np.sqrt(np.einsum("ij,ij->i", cols, cols))
            cols[norms <= n * _EPS * norms.max(initial=0.0)] = 0.0
            # every pair's cosine at once, bitwise as a rotation computes it
            gram = np.einsum("ij,kj->ik", cols, cols)
            norms = np.sqrt(np.diagonal(gram))
            ratio = np.abs(gram) / np.multiply.outer(norms, norms)
            np.fill_diagonal(ratio, 0.0)
            residual = float(np.fmax.reduce(ratio, axis=None, initial=0.0))
            if residual <= _TOL:
                break
            for top, bottom in _round_robin_batches(ratio > _TOL):
                x, y = work[top], work[bottom]
                sq_x = np.einsum("ij,ij->i", x[:, :m], x[:, :m])
                sq_y = np.einsum("ij,ij->i", y[:, :m], y[:, :m])
                gamma = np.einsum("ij,ij->i", x[:, :m], y[:, :m])
                zeta = (sq_y - sq_x) / (2.0 * gamma)
                # sign(0) must be +1: equal-mass parallel columns need the
                # full 45-degree rotation, not a no-op
                t = np.copysign(1.0, zeta) / (np.abs(zeta)
                                              + np.hypot(1.0, zeta))
                ratio = np.abs(gamma) / (np.sqrt(sq_x) * np.sqrt(sq_y))
                t[~(ratio > _TOL)] = 0.0
                c = (1.0 / np.sqrt(1.0 + t * t))[:, None]
                s = c * t[:, None]
                work[top] = x * c - s * y
                work[bottom] = y * c + s * x
        else:
            raise ValueError(f"Jacobi SVD did not converge in "
                             f"{_MAX_SWEEPS} sweeps (residual "
                             f"{residual:.3g})")

    sigma = np.sqrt(np.einsum("ij,ij->i", cols, cols))
    # zero columns sort last and are dropped
    order = np.argsort(-sigma, kind="stable")[:np.count_nonzero(sigma)]
    sigma = sigma[order]
    u = work[order, :m].T / sigma
    return (sigma, u, work[order, m:].T if left else None, sweeps,
            residual)


def _round_robin_batches(flagged: np.ndarray):
    """The pairs (i, k) that the n-by-n ``flagged`` marks, as one (top
    indices, bottom indices) pair of lists per batch.

    Brent and Luk's round r pairs position k, the top, with size-1-k, for
    k < size/2, where size is n, or n + 1 with a column that pairs with
    nothing for odd n: position 0 holds column 0, and position p >= 1
    holds column 1 + (p - 1 - r) mod (size - 1). Taken round by round,
    each pair goes into the batch after the last one that holds either of
    its columns, so a batch's pairs are disjoint and a pair comes after
    every earlier pair that shares a column with it.
    """
    size = flagged.shape[0] + flagged.shape[0] % 2
    flagged = np.pad(flagged, (0, size - flagged.shape[0]))
    pos = np.arange(size)
    col = np.where(pos == 0, 0, 1 + (pos - 1 - np.arange(size - 1)[:, None])
                   % (size - 1))
    top, bottom = col[:, :size // 2], col[:, :size // 2 - 1:-1]
    hit = flagged[top, bottom]
    batches, last = [], [-1] * size
    for i, k in zip(top[hit].tolist(), bottom[hit].tolist()):
        b = max(last[i], last[k]) + 1
        if b == len(batches):
            batches.append(([], []))
        batches[b][0].append(i)
        batches[b][1].append(k)
        last[i] = last[k] = b
    return batches


def pivoted_qr(matrix, *, basis: bool = True
               ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Householder QR with column pivoting, stopped at the numerical rank.

    Returns (Q, R, perm) for an (m, n) input, m >= n: Q is (m, r) with
    orthonormal columns, R is (r, n) upper trapezoidal and A[:, perm] =
    Q R up to rounding, where r is the numerical rank. With
    ``basis=False`` Q is not built and is None; R and perm are the same.
    Each step pivots the remaining column of largest norm, recomputed
    exactly: a unique largest is taken directly, exactly tied norms go to
    the lowest original index, and a pivot already in place is not
    swapped. The factorization stops when every remaining squared norm
    is at most (n eps)^2 times the largest initial one.

    It works on a C-ordered copy of A^T, in which each column of A is one
    contiguous row: the norms are one row-wise einsum, and each reflection
    updates the later rows by one matrix-vector product over the trailing
    block and one rank-1 update over the whole rows. Q is built as Q^T, r
    rows of length m, and returned as its transposed view.
    """
    # the same copy whatever the input's layout: the bits must not
    # depend on it
    t = np.array(np.transpose(matrix), dtype=np.float64, order="C")
    n, m = t.shape
    perm = np.arange(n)
    # one flat product buffer for every step, each product a contiguous
    # prefix: fresh per-step temporaries of the matrix's size cost page
    # faults
    buf = np.empty(n * m)
    reflectors = []
    for j in range(n):
        rest = t[j:, j:]
        sq = np.einsum("ij,ij->i", rest, rest)
        k = int(sq.argmax())
        top = sq[k]
        if j == 0:
            if not math.isfinite(top):
                raise ValueError("squared norm overflows")
            floor = (n * _EPS) ** 2 * top
        if top <= floor:
            break
        if (sq[k + 1:] == top).any():  # a tie: lowest original index
            ties = np.flatnonzero(sq == top)
            k = int(ties[np.argmin(perm[j + ties])])
        k += j
        if k != j:
            t[j], t[k] = t[k], t[j].copy()
            perm[j], perm[k] = perm[k], perm[j]
        # x -> beta e_1 with v[0] = 1: exact for a column with one nonzero
        x = t[j, j:]
        alpha = float(x[0])
        beta = -math.copysign(math.sqrt(top), alpha)
        v = x / (alpha - beta)
        v[0] = 1.0
        w = np.zeros(m)
        w[j:] = (beta - alpha) / beta * v
        t[j, j] = beta
        # the update runs over whole rows, which are contiguous: on the
        # strided trailing block the subtraction took three times as long.
        # w is zero on the first j entries, where einsum's outer product,
        # 0.0 + u_i w_k, is +0.0, so R's entries there keep their bits
        trail = t[j + 1:]
        out = buf[:trail.size].reshape(trail.shape)
        np.einsum("i,j->ij", trail[:, j:] @ v, w, out=out)
        trail -= out
        reflectors.append((w, v))
    r = len(reflectors)
    upper = np.triu(t[:, :r].T)
    if not basis:
        return None, upper, perm
    t = rest = x = trail = None  # free the factored copy before Q is built
    # Q^T: only Q's r columns are built, as rows of length m, so
    # reflector j's product spans the r - j rows from j
    q = np.eye(r, m)
    for j in range(r - 1, -1, -1):
        w, v = reflectors[j]
        rows = q[j:]
        out = buf[:rows.size].reshape(rows.shape)
        np.einsum("i,j->ij", rows[:, j:] @ v, w, out=out)
        rows -= out
    return q.T, upper, perm


def positive_int(value, name: str) -> int:
    """``value`` as an int: a whole number >= 1 of any real type but bool,
    which is refused as the store refuses a bool index. An integer beyond
    the float range is one too."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and value >= 1 and (isinstance(value, numbers.Integral)
                                or float(value).is_integer())):
        raise ValueError(f"{name} must be a positive integer")
    return int(value)


def truncate_top_k(res: SvdResult, k: int) -> SvdResult:
    """Keep the leading triplets: min(k, count of sigma_i > REL_THRESHOLD * sigma_1).

    Raises if ``k`` is out of range or not a whole number (see
    ``positive_int``), or nothing survives the threshold ("numerically
    rank zero").
    """
    if isinstance(k, numbers.Real) and not 1 <= k <= res.sigma.size:
        raise ValueError(f"k={k} out of range 1..{res.sigma.size}")
    k = positive_int(k, "k")
    significant = int((res.sigma > REL_THRESHOLD * res.sigma[0]).sum())
    if significant == 0:
        raise ValueError("numerically rank zero")
    keep = min(k, significant)
    return replace(res, u=None if res.u is None else res.u[:, :keep].copy(),
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
    buf = np.empty((m, r))  # one product buffer, as in pivoted_qr
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
        out = buf[:m - j, :r - j]
        np.multiply.outer(2.0 * v, v @ a[j:, j:], out=out)
        a[j:, j:] -= out
        reflectors.append(v)
    upper = np.triu(a[:r])
    a = x = None  # free the factored copy (x views it) before Q is built
    q = np.zeros((m, r))
    q[:r, :r] = np.eye(r)
    for j in range(r - 1, -1, -1):
        v = reflectors[j]
        if v is not None:
            out = buf[:m - j]
            np.multiply.outer(2.0 * v, v @ q[j:], out=out)
            q[j:] -= out
    flip = np.diag(upper) < 0.0
    upper[flip] *= -1.0
    q[:, flip] *= -1.0
    return q, upper
