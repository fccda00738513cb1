"""Tour of the sample-model data structures.

A SampleTree holds a signed vector and answers three queries: read an
entry, change an entry, draw an index with probability proportional to the
squared value. Each costs O(log n) leaf-or-node touches. The
MatrixSampleStore keeps the entries with flat row-norm and column-norm
arrays, and builds a tree over each from them when ||A||_F or a column draw
first needs it after a write: the sketch draws columns by norm, then rows
inside the sampled columns, and never samples inside a row.
"""
import numpy as np

from levsketch import MatrixSampleStore, SampleTree, sample_rows, stream


def main() -> None:
    tree = SampleTree([3.0, -4.0])
    print(f"vector (3, -4): sq_norm={tree.sq_norm}, query(1)={tree.query(1)}")

    draws = tree.sample_indices(stream(0), 100_000)
    freq = np.bincount(draws, minlength=2) / draws.size
    print(f"sampling frequencies {freq.round(4)} vs expected [0.36 0.64]")

    tree.touches = 0
    tree.sample_indices(stream(1), 1)
    print(f"one draw cost {tree.touches} touches "
          f"(bound 2*ceil(log2 n) + 1 = 3)")

    tree.update(1, 0.0)
    print(f"after zeroing the second entry: sq_norm={tree.sq_norm}, "
          f"all samples land on index {tree.sample_indices(stream(2), 1)[0]}")

    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    store = MatrixSampleStore(a)
    print(f"\nstore of [[1,2],[3,4]]: frobenius^2={store.sq_frobenius}, "
          f"column sq norms=({store.col_sq_norm(0)}, {store.col_sq_norm(1)})")

    rng = stream(3)
    col_draws = np.bincount(store.sample_column_indices(rng, 30_000),
                            minlength=2)
    print(f"column draw frequencies {(col_draws / 30_000).round(4)} "
          f"vs expected [1/3 2/3]")

    rows, _, _ = sample_rows(store, [0], [store.col_sq_norm(0)], 1, rng)
    print(f"a row drawn inside column 0 (probabilities 0.1 / 0.9): {rows[0]}")
    print(f"total counted queries so far: {store.queries}")


if __name__ == "__main__":
    main()
