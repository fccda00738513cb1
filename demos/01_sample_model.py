"""Tour of the sample model.

A vector is kept as a tree of its squared entries, and one walk down the
tree draws index i with probability v_i^2 / ||v||^2. ``estimate_inner``
builds that tree for a vector x and estimates <x, y> from such draws: a
draw i gives y_i ||x||^2 / x_i, whose mean is <x, y>, and the median of
group means lands within xi ||x|| ||y|| of it with probability at least
1 - eta.

A MatrixSampleStore keeps the entries of a matrix, one tree per column over
the sums of squares of its 64-row blocks, and one tree over the columns'
squared norms. The sketch draws columns by squared norm, then rows inside
the drawn columns by squared entry, and never samples inside a row. The
store counts every entry read, norm read and index draw in ``queries``; a
write counts nothing, and the next read sums the written block afresh.
"""
import numpy as np

from levsketch import MatrixSampleStore, estimate_inner, sample_rows, stream


def main() -> None:
    x = np.array([3.0, -4.0, 0.0, 1.0])
    y = np.array([1.0, 2.0, 5.0, -1.0])
    est = estimate_inner(x, y, 0.1, 0.05, stream(0))
    bound = 0.1 * np.sqrt(x @ x) * np.sqrt(y @ y)
    print(f"<x, y> = {x @ y}, estimated from draws i ~ x_i^2 / ||x||^2: "
          f"{est:.4f} (target error {bound:.4f})")

    store = MatrixSampleStore([[1.0, 2.0], [3.0, 4.0]])
    print(f"\nstore of [[1,2],[3,4]]: frobenius^2={store.sq_frobenius}, "
          f"column sq norms=({store.col_sq_norm(0)}, {store.col_sq_norm(1)})")
    print(f"queries after two norm reads: {store.queries}")

    rng = stream(3)
    col_draws = np.bincount(store.sample_column_indices(rng, 30_000),
                            minlength=2)
    print(f"column draw frequencies {(col_draws / 30_000).round(4)} "
          f"vs expected [1/3 2/3]; queries now {store.queries}")

    rows, _, _ = sample_rows(store, [0], [store.col_sq_norm(0)], 1000, rng)
    freq = np.bincount(rows, minlength=2) / rows.size
    print(f"rows drawn inside column 0: frequencies {freq.round(3)} "
          f"vs expected [0.1 0.9]")

    before = store.queries
    store.update(1, 0, 0.0)
    print(f"\nzeroing entry (1, 0) counts {store.queries - before} queries")
    rows, _, _ = sample_rows(store, [0], [store.col_sq_norm(0)], 20, rng)
    print(f"column 0 sq norm is now {store.col_sq_norm(0)}, and every row "
          f"drawn inside it is in {sorted(set(rows.tolist()))}")
    print(f"total counted queries: {store.queries}")


if __name__ == "__main__":
    main()
