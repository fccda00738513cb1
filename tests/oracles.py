"""Independent oracles the suite checks the library against.

Everything here leans on numpy.linalg and scipy, which the library's own
algorithm paths avoid on purpose; agreement between the two routes is
evidence, not tautology. The exceptions are the Jacobi and QR references
at the end: a plain one-pair-at-a-time loop that ``svd._jacobi`` must
match bit for bit, a one-column-at-a-time QR that ``svd.pivoted_qr``
must match bit for bit, and library functions kept verbatim as they were
before a change, which the change is checked against.
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
    the same number without the cancellation. Each square is the correctly
    rounded product x * x: ``x ** 2`` goes through libm ``pow``, which
    differs from it in the last bit for about one double in a thousand."""
    def sq(x):
        return x * x

    omega = (sq(spectral) * sq(epsilon)
             / (196.0 * sq(frob * kappa + spectral)))
    upper = (omega * sq(spectral)
             / ((4 * k + 3 + 2 * omega) * sq(kappa) * sq(frob)))
    r = (2.0 * epsilon * sq(spectral)
         / (sq(kappa) * (4 * k + 5) * sq(frob)))
    xi = r / (math.sqrt(r + 1.0) + 1.0) / math.sqrt(k)
    intermediates = (
        sq(spectral), sq(epsilon), frob * kappa + spectral,
        sq(spectral) * sq(epsilon), 196.0 * sq(frob * kappa + spectral),
        omega, omega * sq(spectral), sq(kappa) * sq(frob),
        (4 * k + 3 + 2 * omega) * sq(kappa) * sq(frob), upper,
        2.0 * epsilon * sq(spectral), sq(kappa) * (4 * k + 5) * sq(frob),
        xi)
    return (omega, upper, xi), intermediates


def threshold_jacobi_reference(a: np.ndarray, left: bool):
    """One-sided Jacobi on the n columns of the m-by-n ``a``, one pair at
    a time: the bitwise reference for ``svd._jacobi``.

    Returns (sigma, U, V, sweeps, residual) as ``_jacobi`` does. Each
    sweep zeroes the columns at rounding level and takes every pair's
    cosine from its two columns. If none exceeds ``_TOL`` the sweeps stop,
    and ``residual`` is the largest. Otherwise each pair whose cosine
    exceeded it is rotated alone, from its two columns' dot products taken
    afresh (t = 0 once its cosine no longer exceeds ``_TOL``), in the order
    in which Brent and Luk's round-robin rounds meet the pairs.
    """
    m, n = a.shape
    work = np.zeros((n, m + n if left else m))
    work[:, :m] = a.T
    if left:
        work[:, m:] = np.eye(n)
    cols = work[:, :m]
    # the round-robin circle: position k meets size-1-k, position 0 stays
    # and the others move one step a round; None pads odd n
    circle = list(range(n)) + [None] * (n % 2)
    size = len(circle)
    pairs = []
    for _ in range(size - 1):
        pairs += [(circle[k], circle[size - 1 - k])
                  for k in range(size // 2)
                  if None not in (circle[k], circle[size - 1 - k])]
        circle = [circle[0], circle[-1]] + circle[1:-1]

    def dots(i, k):
        x, y = cols[i:i + 1], cols[k:k + 1]
        sq_x = np.einsum("ij,ij->i", x, x)
        sq_y = np.einsum("ij,ij->i", y, y)
        gamma = np.einsum("ij,ij->i", x, y)
        return sq_x, sq_y, gamma, np.abs(gamma) / (np.sqrt(sq_x)
                                                   * np.sqrt(sq_y))

    with np.errstate(divide="ignore", invalid="ignore"):
        for sweeps in range(1, _MAX_SWEEPS + 1):
            norms = np.sqrt(np.einsum("ij,ij->i", cols, cols))
            cols[norms <= n * _EPS * norms.max(initial=0.0)] = 0.0
            cosines = [float(dots(i, k)[3][0]) for i, k in pairs]
            residual = max((c for c in cosines if c == c), default=0.0)
            if residual <= _TOL:
                break
            for (i, k), cosine in zip(pairs, cosines):
                if not cosine > _TOL:
                    continue
                sq_x, sq_y, gamma, ratio = dots(i, k)
                zeta = (sq_y - sq_x) / (2.0 * gamma)
                t = np.copysign(1.0, zeta) / (np.abs(zeta)
                                              + np.hypot(1.0, zeta))
                t[~(ratio > _TOL)] = 0.0
                c = (1.0 / np.sqrt(1.0 + t * t))[:, None]
                s = c * t[:, None]
                x, y = work[i:i + 1].copy(), work[k:k + 1].copy()
                work[i:i + 1] = x * c - s * y
                work[k:k + 1] = y * c + s * x
        else:
            raise ValueError(f"Jacobi SVD did not converge in "
                             f"{_MAX_SWEEPS} sweeps (residual "
                             f"{residual:.3g})")
    sigma = np.sqrt(np.einsum("ij,ij->i", cols, cols))
    order = np.argsort(-sigma, kind="stable")[:np.count_nonzero(sigma)]
    sigma = sigma[order]
    u = work[order, :m].T / sigma
    return (sigma, u, work[order, m:].T if left else None, sweeps,
            residual)


# ``svd._jacobi`` and ``svd.pivoted_qr`` as they were before the sweeps
# gained the all-pairs check and the QR's pivot step its argmax: the
# bitwise references for both. ``jacobi_reference`` also rotates, within
# a sweep, every pair that the rounds find above ``_TOL``, where
# ``_jacobi`` now rotates only the pairs that the sweep's opening check
# flagged, so it pins the old bits only on inputs where the two agree
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
    """``svd.pivoted_qr`` one column at a time, on the same working copy
    A^T, whose row c is column c of A.

    Each step takes every remaining column's squared norm on its own,
    picks the largest, exactly tied norms going to the lowest original
    index, swaps it in unless it is in place, forms the reflector
    x -> beta e_1 with v[0] = 1 and applies it to each later column in
    turn. The products v . column are the library's one matrix-vector
    product over the trailing block, since its bits depend on the block
    it runs on, and each update subtracts 0.0 + product * w, as einsum's
    outer product does (it turns a -0.0 product into +0.0). Q^T is
    built the same way, one row at a time.
    """
    t = np.array(np.transpose(matrix), dtype=np.float64, order="C")
    n, m = t.shape
    perm = list(range(n))
    reflectors = []
    for j in range(n):
        sq = [np.einsum("i,i->", t[c, j:], t[c, j:]) for c in range(j, n)]
        top = max(sq)
        if j == 0:
            if not math.isfinite(top):
                raise ValueError("squared norm overflows")
            floor = (n * _EPS) ** 2 * top
        if top <= floor:
            break
        k = min((perm[c], c) for c in range(j, n) if sq[c - j] == top)[1]
        if k != j:
            t[[j, k]] = t[[k, j]]
            perm[j], perm[k] = perm[k], perm[j]
        x = t[j, j:]
        alpha = float(x[0])
        beta = -math.copysign(math.sqrt(top), alpha)
        v = x / (alpha - beta)
        v[0] = 1.0
        w = (beta - alpha) / beta * v
        t[j, j] = beta
        products = t[j + 1:, j:] @ v
        for c in range(j + 1, n):
            t[c, j:] -= 0.0 + products[c - j - 1] * w
        reflectors.append((w, v))
    r = len(reflectors)
    upper = np.zeros((r, n))
    for c in range(n):
        upper[:c + 1, c] = t[c, :min(c + 1, r)]
    if not basis:
        return None, upper, np.array(perm)
    q = np.zeros((r, m))
    for i in range(r):
        q[i, i] = 1.0
    for j in range(r - 1, -1, -1):
        w, v = reflectors[j]
        products = q[j:, j:] @ v
        for i in range(j, r):
            q[i, j:] -= 0.0 + products[i - j] * w
    return q.T, upper, np.array(perm)


def strided_pivoted_qr_reference(matrix, *, basis: bool = True
                                 ) -> tuple[np.ndarray | None, np.ndarray,
                                            np.ndarray]:
    """``svd.pivoted_qr`` as it was when it factored a C-ordered copy of
    A itself, each column strided, before it factored A^T.

    Householder QR with column pivoting, stopped at the numerical rank.

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
