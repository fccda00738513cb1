"""Independent oracles the suite checks the library against.

Everything here leans on numpy.linalg and scipy, which the library's own
algorithm paths avoid on purpose; agreement between the two routes is
evidence, not tautology. The exceptions are the frozen references at the
end: library functions kept verbatim as they were before a change that
must keep every bit, which the change is checked against.
"""
import math

import numpy as np
from scipy import stats

from levsketch.svd import _EPS, _MAX_SWEEPS, _TOL


def power_iteration_sigma(matrix, count, seed=0, max_iters=100_000):
    """Leading singular values via power iteration with deflation on the
    Gram matrix, each eigenvalue iterated to convergence."""
    g = (np.asarray(matrix, dtype=np.float64).T @ matrix).copy()
    n = g.shape[0]
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(min(count, n)):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(max_iters):
            w = g @ v
            nrm = float(np.linalg.norm(w))
            if nrm == 0.0:
                lam = 0.0
                break
            v = w / nrm
            if abs(nrm - lam) <= 1e-15 * max(nrm, 1e-300):
                lam = nrm
                break
            lam = nrm
        out.append(np.sqrt(max(lam, 0.0)))
        g -= lam * np.outer(v, v)
    return np.array(out)


def hat_leverage(matrix):
    """Diagonal of A (A^T A)^+ A^T via numpy's pseudoinverse."""
    a = np.asarray(matrix, dtype=np.float64)
    return np.diag(a @ np.linalg.pinv(a)).copy()


def dense_s(a, col_indices, col_probs):
    """S built literally from its definition."""
    p = len(col_indices)
    return a[:, col_indices] / np.sqrt(p * np.asarray(col_probs))


def dense_w(s, row_indices, row_probs):
    """W built literally from its definition."""
    p = len(row_indices)
    return s[row_indices] / np.sqrt(p * np.asarray(row_probs))[:, None]


def chisquare_pvalue(counts, probs):
    """Goodness-of-fit p-value of observed counts against probabilities."""
    counts = np.asarray(counts, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    keep = probs > 0
    return float(stats.chisquare(counts[keep], probs[keep] * counts.sum()).pvalue)


def sample_leaves_reference(sums, counts, uniforms):
    """(tree, leaf, residual) of every draw of ``sample_leaves``, one
    scalar descent per draw. Draw d of tree t starts from
    u = uniforms[d] * ||v_t||^2 and, at each node, goes right when the
    right child's sum is nonzero and u reaches the left child's sum, which
    it then subtracts from u; the residual is what is left of u."""
    trees, width = sums.shape
    cap = width // 2
    tree, leaf, rest = [], [], []
    draws = iter(uniforms)
    for t in range(trees):
        for _ in range(int(counts[t])):
            u = float(next(draws)) * float(sums[t, 1])
            node = 1
            while node < cap:
                node *= 2
                left = float(sums[t, node])
                if sums[t, node + 1] != 0.0 and u >= left:
                    u -= left
                    node += 1
            tree.append(t)
            leaf.append(node - cap)
            rest.append(u)
    return (np.array(tree, dtype=np.int64), np.array(leaf, dtype=np.int64),
            np.array(rest))


def parameter_formulas_reference(epsilon, k, kappa, spectral, frob):
    """(omega, theta's upper end, xi) literally as the paper writes them,
    on the unscaled norms, and every intermediate of their formulas. xi's
    (sqrt(r + 1) - 1) / sqrt(k) is written r / (sqrt(r + 1) + 1) / sqrt(k),
    the same number without the cancellation."""
    omega = (spectral ** 2 * epsilon ** 2
             / (196.0 * (frob * kappa + spectral) ** 2))
    upper = (omega * spectral ** 2
             / ((4 * k + 3 + 2 * omega) * kappa ** 2 * frob ** 2))
    r = (2.0 * epsilon * spectral ** 2
         / (kappa ** 2 * (4 * k + 5) * frob ** 2))
    xi = r / (math.sqrt(r + 1.0) + 1.0) / math.sqrt(k)
    intermediates = (
        spectral ** 2, epsilon ** 2, frob * kappa + spectral,
        spectral ** 2 * epsilon ** 2, 196.0 * (frob * kappa + spectral) ** 2,
        omega, omega * spectral ** 2, kappa ** 2 * frob ** 2,
        (4 * k + 3 + 2 * omega) * kappa ** 2 * frob ** 2, upper,
        2.0 * epsilon * spectral ** 2, kappa ** 2 * (4 * k + 5) * frob ** 2,
        xi)
    return (omega, upper, xi), intermediates


# ``svd._jacobi`` and ``svd.pivoted_qr`` as they were before the sweeps
# gained the all-pairs check and the QR's pivot step its argmax: the
# bitwise references for both
def jacobi_reference(a: np.ndarray, left: bool):
    """One-sided Jacobi on the n columns of the m-by-n ``a``.

    Returns (sigma, U, V, sweeps, residual) with a = U diag(sigma) V^T,
    only the columns with sigma > 0, sorted non-increasing, ties in column
    order; V is not accumulated, and is None, when ``left`` is false.
    """
    # each row holds a column of the working matrix, m long, then that
    # column of V if it is accumulated (a zero row pads odd n). Columns sit
    # on a circle of size positions, position k paired with size-1-k: row
    # k holds position k and row half+k position size-1-k, so pair k is
    # rows k and half+k and both halves are forward views. Positions 1..
    # move one step per round, so each sweep ends with every column back
    # in place.
    m, n = a.shape
    size = n + n % 2
    half = size // 2
    work = np.zeros((size, m + n if left else m))
    work[:n, :m] = a.T
    if left:
        work[:n, m:] = np.eye(n)
    work[half:] = work[half:][::-1]
    cols = work[:, :m]
    top, bottom = work[:half], work[half:]
    top_cols, bottom_cols = top[:, :m], bottom[:, :m]
    # the rotation's products, one buffer each
    s_top, s_bottom = np.empty_like(top), np.empty_like(bottom)
    # a pair with a zero column divides 0 by 0: never rotated, not counted
    with np.errstate(divide="ignore", invalid="ignore"):
        for sweeps in range(1, _MAX_SWEEPS + 1):
            # columns at rounding level would shrink toward underflow and
            # never pass _TOL: zero them
            norms = np.sqrt(np.einsum("ij,ij->i", cols, cols))
            cols[norms <= n * _EPS * norms.max(initial=0.0)] = 0.0
            rotated, residual = False, 0.0
            for _ in range(size - 1):
                sq = np.einsum("ij,ij->i", cols, cols)
                gamma = np.einsum("ij,ij->i", top_cols, bottom_cols)
                norms = np.sqrt(sq)
                ratio = np.abs(gamma) / (norms[:half] * norms[half:])
                # fmax skips the NaN of a pair with a zero column
                worst = float(np.fmax.reduce(ratio))
                residual = max(residual, worst)
                if worst > _TOL:
                    rotated = True
                    zeta = (sq[half:] - sq[:half]) / (2.0 * gamma)
                    # sign(0) must be +1: equal-mass parallel columns need
                    # the full 45-degree rotation, not a no-op
                    t = np.copysign(1.0, zeta) / (np.abs(zeta)
                                                  + np.hypot(1.0, zeta))
                    # t = 0 leaves a pair that passes, or whose ratio is
                    # NaN, bit-for-bit as it is
                    t[~(ratio > _TOL)] = 0.0
                    c = (1.0 / np.sqrt(1.0 + t * t))[:, None]
                    s = c * t[:, None]
                    np.multiply(s, top, out=s_top)
                    top *= c
                    top -= np.multiply(s, bottom, out=s_bottom)
                    bottom *= c
                    bottom += s_top
                if half > 1:  # two columns never move
                    # position size-1 moves to 1 and half-1 to half
                    to_top = bottom[0].copy()
                    bottom[:-1] = bottom[1:]
                    bottom[-1] = top[-1]
                    top[2:] = top[1:-1]
                    top[1] = to_top
            if not rotated:
                break
        else:
            raise ValueError(f"Jacobi SVD did not converge in "
                             f"{_MAX_SWEEPS} sweeps (residual "
                             f"{residual:.3g})")

    # back to column order, so that ties sort in it
    work[half:] = work[half:][::-1]
    sigma = np.sqrt(np.einsum("ij,ij->i", cols[:n], cols[:n]))
    # zero columns sort last and are dropped
    order = np.argsort(-sigma, kind="stable")[:np.count_nonzero(sigma)]
    sigma = sigma[order]
    u = work[order, :m].T / sigma
    return (sigma, u, work[order, m:].T if left else None, sweeps,
            residual)


def pivoted_qr_reference(matrix, *, basis: bool = True
               ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Householder QR with column pivoting, stopped at the numerical rank.

    Returns (Q, R, perm) for an (m, n) input, m >= n: Q is (m, r) with
    orthonormal columns, R is (r, n) upper trapezoidal and A[:, perm] =
    Q R up to rounding, where r is the numerical rank. With
    ``basis=False`` Q is not built and is None; R and perm are the same.
    Each step pivots the remaining column of largest norm, recomputed
    exactly (ties: lowest original index), and the factorization stops
    when every remaining squared norm is at most (n eps)^2 times the
    largest initial one.
    """
    # a C-ordered copy: the result must not depend on the input's layout
    a = np.array(matrix, dtype=np.float64, order="C")
    m, n = a.shape
    perm = np.arange(n)
    # one product buffer for every step: fresh per-step temporaries of the
    # matrix's size cost page faults
    buf = np.empty((m, n))
    reflectors = []
    for j in range(n):
        rest = a[j:, j:]
        sq = np.einsum("ij,ij->j", rest, rest)
        top = sq.max()
        if j == 0:
            if not math.isfinite(top):
                raise ValueError("squared norm overflows")
            floor = (n * _EPS) ** 2 * top
        if top <= floor:
            break
        ties = np.flatnonzero(sq == top)
        k = j + ties[np.argmin(perm[j + ties])]
        a[:, [j, k]] = a[:, [k, j]]
        perm[[j, k]] = perm[[k, j]]
        # x -> beta e_1 with v[0] = 1: exact for a column with one nonzero
        x = a[j:, j]
        alpha = float(x[0])
        beta = -math.copysign(math.sqrt(top), alpha)
        v = x / (alpha - beta)
        v[0] = 1.0
        w = (beta - alpha) / beta * v
        a[j, j] = beta
        out = buf[:m - j, :n - j - 1]
        np.multiply.outer(w, v @ a[j:, j + 1:], out=out)
        a[j:, j + 1:] -= out
        reflectors.append((w, v))
    upper = np.triu(a[:len(reflectors)])
    if not basis:
        return None, upper, perm
    a = rest = x = None  # free the factored copy before Q is built
    r = len(reflectors)
    # only Q's first r columns are built. Each reflector's product still
    # spans all n - j columns: a product's columns depend only on their
    # own, but a narrower one rounds them differently
    q = np.zeros((m, n))
    q[:r, :r] = np.eye(r)
    for j in range(r - 1, -1, -1):
        w, v = reflectors[j]
        out = buf[:m - j, :r - j]
        np.multiply.outer(w, (v @ q[j:, j:])[:r - j], out=out)
        q[j:, j:r] -= out
    return q[:, :r], upper, perm
