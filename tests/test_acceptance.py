"""Acceptance suite: one test per stated criterion, at its stated
tolerance and runtime budget. Thresholds marked "frozen" were calibrated
against the Monte Carlo oracle before the implementation and are not to be
loosened here.
"""
import hashlib
import math
import time

import numpy as np
import pytest

from levsketch import (MatrixSampleStore, SketchDescription, build_w,
                       compute_params, concentration_ratios,
                       counted_sketch_spectrum, estimate_inner,
                       gen_example1, gen_example2, householder_qr,
                       oracle_facts, qisls_all, qisvd, sample_columns,
                       sample_rows, standard_normal, stream, svd_dense,
                       trial_stream)

from oracles import hat_leverage


def elapsed_under(start: float, budget_s: float) -> None:
    took = time.perf_counter() - start
    assert took < budget_s, f"runtime {took:.1f}s exceeded {budget_s}s budget"


def test_criterion_1_exact_scores_sum_rank_bounds_and_hat_oracle():
    start = time.perf_counter()
    for seed in range(50):
        rng = stream(seed)
        r = int(rng.integers(1, 11))
        m = int(rng.integers(r, 201))
        n = int(rng.integers(max(r, 2), 51))
        a = standard_normal(rng, (m, r)) @ standard_normal(rng, (r, n))
        scores = oracle_facts(a).scores
        assert abs(scores.sum() - r) <= 1e-6
        assert scores.min() >= 0.0
        assert scores.max() <= 1.0 + 1e-10
        assert np.abs(scores - hat_leverage(a)).max() <= 1e-6
    elapsed_under(start, 10.0)


def test_criterion_2_rank_one_exact_dot_is_exact():
    start = time.perf_counter()
    for seed in range(100):
        rng = stream(seed)
        m = int(rng.integers(2, 501))
        n = int(rng.integers(2, 31))
        a = np.outer(standard_normal(rng, m), standard_normal(rng, n))
        store = MatrixSampleStore(a)
        fro = math.sqrt(store.sq_frobenius)
        exact = (a * a).sum(axis=1) / store.sq_frobenius
        for p in (1, 4, 16):
            prm = compute_params(0.5, 0.1, 1, 1.0, fro, fro, p_override=p)
            sketch = qisvd(store, prm, stream(seed + 20_000))
            rep = qisls_all(store, sketch, prm, exact=exact)
            assert rep.abs_err.max() <= 1e-6
    elapsed_under(start, 10.0)


def test_criterion_3_core_frobenius_matches_input():
    start = time.perf_counter()
    for seed in range(200):
        a = standard_normal(stream(seed), (12, 8))
        store = MatrixSampleStore(a)
        rng = stream(seed + 40_000)
        cols, col_probs, col_sq = sample_columns(store, 10, rng)
        rows, row_probs, block = sample_rows(store, cols, col_sq, 10, rng)
        sketch = SketchDescription(col_indices=cols, col_probs=col_probs,
                                   row_indices=rows, row_probs=row_probs,
                                   frob_norm=math.sqrt(store.sq_frobenius))
        w = build_w(sketch, block)
        ratio = math.sqrt((w * w).sum()) / sketch.frob_norm
        assert abs(ratio - 1.0) <= 1e-8
    elapsed_under(start, 5.0)


def test_criterion_4_deviation_tail_rates_within_bound_plus_slack():
    start = time.perf_counter()
    theta, p, trials = 0.5, 100, 500
    store = MatrixSampleStore(standard_normal(stream(42), (40, 30)))
    ratios = np.array([concentration_ratios(store, p, trial_stream(4000, t))
                       for t in range(trials)])
    # tail bound 1/(theta^2 p) = 0.04; gate adds Monte Carlo slack
    assert float(np.mean(ratios[:, 0] >= theta)) <= 0.07
    assert float(np.mean(ratios[:, 1] >= theta)) <= 0.07
    elapsed_under(start, 60.0)


def test_criterion_5_near_orthonormal_at_theoretical_parameters():
    start = time.perf_counter()
    rng = stream(12345)
    q1, _ = householder_qr(standard_normal(rng, (16, 2)))
    q2, _ = householder_qr(standard_normal(rng, (16, 2)))
    a = q1 @ q2.T
    prm = compute_params(0.9, 0.2, 2, 1.0, 1.0, math.sqrt(2.0))
    # pin the derived constants this instance was calibrated under
    assert prm.omega == pytest.approx(7.090512e-4, rel=1e-6)
    assert prm.theta == pytest.approx(3.222544e-5, rel=1e-6)
    assert prm.p == 4814732709
    assert prm.beta == pytest.approx(6.445920e-5, rel=1e-6)

    # full theoretical p through the count-collapsed evaluator: the defect
    # bound beta holds as stated
    defects = np.array([
        counted_sketch_spectrum(a, prm.p, 2, trial_stream(500, t))[1]
        for t in range(100)])
    assert float(np.mean(defects <= prm.beta)) >= 0.80

    # desk-scale rerun with the sample count capped; the cap is logged and
    # the gate is the frozen calibrated threshold for this regime
    cap = 10 ** 5
    print(f"sample count capped at {cap} (theoretical p={prm.p})")
    capped = np.array([
        counted_sketch_spectrum(a, cap, 2, trial_stream(500, t))[1]
        for t in range(100)])
    assert float(np.mean(capped <= 1.0e-2)) >= 0.80
    elapsed_under(start, 120.0)


def test_criterion_6_banded_family_median_error():
    start = time.perf_counter()
    a = gen_example1(1000, 100, 70, seed=1)
    store = MatrixSampleStore(a)
    res = svd_dense(a)
    r = int((res.sigma > 1e-10 * res.sigma[0]).sum())
    assert r == 30
    ell = (res.u[:, :r] ** 2).sum(axis=1)
    kappa = float(res.sigma[0] / res.sigma[r - 1])
    prm = compute_params(0.5, 0.1, 20, kappa, float(res.sigma[0]),
                         math.sqrt(store.sq_frobenius), p_override=60)
    acc = np.zeros(1000)
    trials = 50
    for t in range(trials):
        sketch = qisvd(store, prm, trial_stream(6000, t))
        acc += qisls_all(store, sketch, prm).approx
    median_err = float(np.median(np.abs(ell - acc / trials)))
    # frozen threshold; calibration medians ranged (3.8e-5, 6.8e-5)
    assert median_err <= 5.0e-4
    elapsed_under(start, 300.0)


def test_criterion_7_factor_family_error_shrinks_with_k():
    start = time.perf_counter()
    a = gen_example2(2000, 500, 100, kappa=1.0, a=1, b=1000, seed=10)
    store = MatrixSampleStore(a)
    res = svd_dense(a)
    r = int((res.sigma > 1e-10 * res.sigma[0]).sum())
    assert r == 100
    ell = (res.u[:, :r] ** 2).sum(axis=1)
    kappa = float(res.sigma[0] / res.sigma[r - 1])
    prm = compute_params(0.5, 0.1, 88, kappa, float(res.sigma[0]),
                         math.sqrt(store.sq_frobenius), p_override=100)
    ks = (75, 82, 88)
    per_k = {k: [] for k in ks}
    for t in range(10):
        # one sketch per trial; smaller k are truncations of the same
        # factorization, so the draw sequence is identical across k
        sketch = qisvd(store, prm, trial_stream(7000, t))
        for k in ks:
            sub = SketchDescription(
                col_indices=sketch.col_indices, col_probs=sketch.col_probs,
                row_indices=sketch.row_indices, row_probs=sketch.row_probs,
                frob_norm=sketch.frob_norm, v=sketch.v[:, :k],
                sigma=sketch.sigma[:k])
            rep = qisls_all(store, sub, prm, rows=sketch.row_indices)
            per_k[k].append(float(np.median(
                np.abs(rep.approx - ell[sketch.row_indices]))))
    summary = [float(np.median(per_k[k])) for k in ks]
    non_increasing = sum(summary[i + 1] <= summary[i]
                         for i in range(len(ks) - 1))
    assert non_increasing >= 1, summary
    assert summary[-1] <= summary[0], summary
    elapsed_under(start, 600.0)


def test_criterion_8_inner_product_estimates_hit_additive_target():
    start = time.perf_counter()
    hits = 0
    runs = 400
    estimates = []
    for seed in range(runs):
        rng = stream(seed)
        x = standard_normal(rng, 100)
        y = standard_normal(rng, 100)
        est = estimate_inner(x, y, 0.1, 0.05, stream(seed + 80_000))
        estimates.append(est)
        bound = 0.1 * math.sqrt(float(x @ x)) * math.sqrt(float(y @ y))
        hits += abs(est - float(x @ y)) <= bound
    assert hits / runs >= 0.95
    # every estimate is pinned, bit for bit
    assert hashlib.sha256(np.array(estimates).tobytes()).hexdigest() == (
        "d5e083488fa983567437eb8143ee2e9becb4c956b8a6e3b80a0315c6f44e4023")
    elapsed_under(start, 30.0)


def test_criterion_9_per_score_queries_flat_in_matrix_height():
    start = time.perf_counter()
    per_score = []
    for m in (1000, 4000, 16000):
        a = gen_example1(m, 100, 70, seed=9 ^ m)
        store = MatrixSampleStore(a)
        fro = math.sqrt(store.sq_frobenius)
        prm = compute_params(0.5, 0.1, 20, 1.0, fro, fro, p_override=60)
        rng = trial_stream(9 ^ m, 0)
        sketch = qisvd(store, prm, rng)
        before = store.queries  # store build and sketch are excluded
        qisls_all(store, sketch, prm, rng=rng)
        per_score.append((store.queries - before) / m)
    assert max(per_score) <= 1.05 * min(per_score), per_score
    elapsed_under(start, 300.0)
