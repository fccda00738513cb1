"""Show that neither the sketch nor a score reads more as the matrix grows.

Each approximate score reads one sketch row: p counted entries, whatever
the number of matrix rows. The sketch itself reads p column norms and
p index draws for each of the two stages, 64 entries per block that a
row draw lands in, p entries per distinct drawn row and the p-by-p core
W, none of which depends on m either. Quadrupling m twice leaves both
counts flat while the exact oracle's cost would grow with the full
matrix.
"""
import math
import time

from levsketch import (MatrixSampleStore, compute_params, gen_example1,
                       qisls_all, qisvd, trial_stream)


def main() -> None:
    p, k = 60, 20
    print("     m  sketch reads  queries/score  wall_ms")
    for m in (1000, 4000, 16000):
        a = gen_example1(m, 100, 70, seed=9 ^ m)
        store = MatrixSampleStore(a)
        frob = math.sqrt(store.sq_frobenius)
        params = compute_params(0.5, 0.1, k, 1.0, frob, frob, p_override=p)
        rng = trial_stream(9 ^ m, 0)
        before = store.queries
        sketch = qisvd(store, params, rng)
        sketch_reads = store.queries - before
        before = store.queries
        start = time.perf_counter()
        qisls_all(store, sketch, params, rng=rng)
        wall = (time.perf_counter() - start) * 1e3
        print(f"  {m:5d}  {sketch_reads:12d}  "
              f"{(store.queries - before) / m:13.1f}  {wall:7.1f}")
    print(f"\nper-score cost is exactly p={p}: one gathered sketch row each;"
          f"\nthe sketch costs {4 * p} norm reads and index draws, 64 entries"
          f" per distinct\ndrawn block, {p} per distinct drawn row and "
          f"{p * p} for W")


if __name__ == "__main__":
    main()
