"""Sketch a low-rank matrix and approximate its leverage scores.

The theoretical sample count p for honest error guarantees is astronomical
even for toy matrices, so practical runs substitute a desk-scale
p_override; everything else (the two-stage sampling, the small SVD, the
score formula) is unchanged. The exact oracle on the side tells us how the
approximation actually did.
"""
import math

import numpy as np

from levsketch import (MatrixSampleStore, compute_params, gen_example1,
                       oracle_facts, qisls_all, qisvd, stream)


def main() -> None:
    a = gen_example1(1000, 100, 70, seed=4)
    store = MatrixSampleStore(a)
    exact, _, spectral, kappa = oracle_facts(a)
    frob = math.sqrt(store.sq_frobenius)
    print(f"matrix 1000x100, 70 columns zeroed: rank 30, "
          f"kappa={kappa:.1f}, ||A||={spectral:.1f}, ||A||_F={frob:.1f}")

    theoretical = compute_params(0.5, 0.1, 20, kappa, spectral, frob)
    print(f"theoretical sample count p={theoretical.p:.2e} "
          f"(theta={theoretical.theta:.2e})")

    params = compute_params(0.5, 0.1, 20, kappa, spectral, frob,
                            p_override=60)
    sketch = qisvd(store, params, stream(7))
    print(f"practical sketch: p={sketch.p}, kept k={sketch.k} triplets, "
          f"sigma_1={sketch.sigma[0]:.1f}")

    report = qisls_all(store, sketch, params, exact=exact)
    err = report.abs_err
    print(f"scored all 1000 rows: max|err|={err.max():.3f} "
          f"median|err|={np.median(err):.2e}")
    print(f"coherence {report.coherence:.3f} at row {report.coherence_row} "
          f"(exact coherence {exact.max():.3f} at row {exact.argmax()})")

    order = np.argsort(exact)[::-1][:5]
    print("\n  row   exact    approx")
    for i in order:
        print(f"  {i:4d}  {exact[i]:.4f}  {report.approx[i]:.4f}")


if __name__ == "__main__":
    main()
