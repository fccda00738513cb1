"""Independent oracles the suite checks the library against.

Everything here leans on numpy.linalg and scipy, which the library's own
algorithm paths avoid on purpose; agreement between the two routes is
evidence, not tautology.
"""
import numpy as np
from scipy import stats


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
