"""Exact scores, conditioning, QR, and the two synthetic dataset families."""
import hashlib

import numpy as np
import pytest

from levsketch import (gen_example1, gen_example2, householder_qr,
                       oracle_facts, stream, standard_normal,
                       write_matrix_csv)

from oracles import hat_leverage


@pytest.mark.parametrize("seed, digest", [
    (7, "53f5b585ab2f6d41c94abd8df9a16dbadbbd1ca843c8ee2bcf0f92502b2493a1"),
    (11, "8620babc71a00448902b22bc397f103dbdf4a82a8fd05ea764a2f82b0beeed26"),
], ids=["seed-7", "seed-11"])
def test_oracle_facts_are_bitwise_pinned(seed, digest):
    # the compare command's oracle on its benchmark's matrix shape: how
    # the pivoted QR builds Q must keep every bit of the scores
    facts = oracle_facts(gen_example2(1000, 100, 30, 1.0, 1, 10, seed))
    h = hashlib.sha256(facts.scores.tobytes())
    h.update(repr(facts[1:]).encode())
    assert h.hexdigest() == digest


def test_identity_scores():
    np.testing.assert_allclose(oracle_facts(np.eye(3)).scores, np.ones(3),
                               atol=1e-14)


def test_diagonal_with_zero_row():
    a = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    np.testing.assert_allclose(oracle_facts(a).scores, [1.0, 1.0, 0.0],
                               atol=1e-14)


def test_rank_deficient_matches_hat_matrix():
    rng = stream(55)
    a = standard_normal(rng, (40, 5)) @ standard_normal(rng, (5, 10))
    scores, rank, _, _ = oracle_facts(a)
    np.testing.assert_allclose(scores, hat_leverage(a), atol=1e-6)
    assert scores.sum() == pytest.approx(5.0, abs=1e-9)
    assert rank == 5


def test_scores_bounded_and_sum_to_rank():
    a = gen_example1(80, 20, 6, seed=1)
    scores, rank, _, _ = oracle_facts(a)
    assert np.all(scores >= 0.0)
    assert np.all(scores <= 1.0 + 1e-10)
    assert scores.sum() == pytest.approx(rank, abs=1e-8)


def test_spectral_norm_and_kappa_diagonal():
    norm, kappa = oracle_facts(np.diag([4.0, 2.0]))[2:]
    assert norm == pytest.approx(4.0, abs=1e-14)
    assert kappa == pytest.approx(2.0, abs=1e-14)


def test_kappa_skips_zero_singular_values():
    norm, kappa = oracle_facts(np.diag([3.0, 0.0]))[2:]
    assert norm == pytest.approx(3.0, abs=1e-14)
    assert kappa == pytest.approx(1.0, abs=1e-14)


def test_zero_matrix_errors():
    for shape in ((2, 2), (3, 2)):
        with pytest.raises(ValueError, match="zero matrix"):
            oracle_facts(np.zeros(shape))


@pytest.mark.parametrize("scale", [1e-160, 1e-165])
def test_tiny_matrix_facts_match_the_unscaled(scale):
    # the squares of every entry underflow: factored as given, the sweeps
    # did not converge (1e-160) or found no rank at all (1e-165)
    a = gen_example2(40, 8, 3, 2.0, 1, 10, 4)
    scores, rank, _, kappa = oracle_facts(a)
    tiny = oracle_facts(a * scale)
    assert tiny.rank == rank == 3
    assert tiny.kappa == pytest.approx(2.0, abs=1e-12)
    assert tiny.kappa == pytest.approx(kappa, abs=1e-12)
    np.testing.assert_allclose(tiny.scores, scores, rtol=0.0, atol=1e-15)


def test_one_svd_answers_every_question():
    a = gen_example2(40, 15, 5, kappa=3.0, a=1, b=10, seed=3)
    scores, rank, norm, kappa = oracle_facts(a)
    assert rank == 5
    assert scores.sum() == pytest.approx(5.0, abs=1e-9)
    assert norm == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
    assert kappa == pytest.approx(3.0, rel=1e-6)


def test_householder_qr_factors():
    a = standard_normal(stream(8), (12, 5))
    q, r = householder_qr(a)
    assert q.shape == (12, 5)
    np.testing.assert_allclose(q.T @ q, np.eye(5), atol=1e-12)
    np.testing.assert_allclose(q @ r, a, atol=1e-12)
    np.testing.assert_array_equal(r, np.triu(r))
    assert np.all(np.diag(r) >= 0.0)


def test_householder_qr_zero_column_gives_a_zero_diagonal():
    # a zero column below the diagonal skips its reflector: Q keeps an
    # orthonormal column there and R a 0 on its diagonal
    a = standard_normal(stream(8), (12, 5))
    a[:, 2] = 0.0
    q, r = householder_qr(a)
    np.testing.assert_allclose(q.T @ q, np.eye(5), rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(q @ r, a, rtol=0.0, atol=1e-14)
    np.testing.assert_array_equal(r, np.triu(r))
    assert r[2, 2] == 0.0
    assert np.all(np.diag(r) >= 0.0)


def test_householder_qr_wide_rejected():
    with pytest.raises(ValueError, match="m >= r"):
        householder_qr(np.ones((2, 3)))


def test_example1_rank_and_zeroed_columns():
    a = gen_example1(1000, 100, 70, seed=4)
    zero_cols = int((np.abs(a).sum(axis=0) == 0.0).sum())
    assert zero_cols == 70
    assert oracle_facts(a).rank == 30


def test_example1_full_rank_without_zeroed_columns():
    a = gen_example1(40, 10, 0, seed=2)
    assert oracle_facts(a).rank == 10


def test_example1_band_scaling():
    a = gen_example1(8, 50, 0, seed=3)
    band = np.sqrt((a * a).sum(axis=1)).reshape(4, 2).mean(axis=1)
    # bands scaled 1, 1e2, 1e3, 1e4: adjacent ratios 100, 10, 10 up to
    # the sampling spread of 50-entry Gaussian row norms
    assert 30.0 < band[1] / band[0] < 300.0
    assert 3.0 < band[2] / band[1] < 30.0
    assert 3.0 < band[3] / band[2] < 30.0


def test_example1_validation():
    with pytest.raises(ValueError, match="divisible by 4"):
        gen_example1(10, 5, 0, seed=0)
    with pytest.raises(ValueError, match="0 <= n_zero < n"):
        gen_example1(8, 5, 5, seed=0)


def test_example1_reproducible_csv(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_matrix_csv(p1, gen_example1(40, 12, 3, seed=9))
    write_matrix_csv(p2, gen_example1(40, 12, 3, seed=9))
    assert p1.read_bytes() == p2.read_bytes()


def test_example2_rank_one():
    a = gen_example2(30, 8, 1, kappa=1.0, a=1, b=10, seed=5)
    _, rank, norm, kappa = oracle_facts(a)
    assert rank == 1
    assert kappa == pytest.approx(1.0, rel=1e-6)
    assert norm == pytest.approx(round(norm), abs=1e-9)
    assert 1.0 - 1e-9 <= norm <= 10.0 + 1e-9


def test_example2_rank_matches_r():
    for seed, r in [(0, 2), (1, 5), (2, 12)]:
        a = gen_example2(40, 15, r, kappa=3.0, a=1, b=10, seed=seed)
        assert oracle_facts(a).rank == r


def test_example2_measured_kappa():
    a = gen_example2(60, 25, 5, kappa=10.0, a=2, b=9, seed=11)
    _, kappa = oracle_facts(a)[2:]
    assert kappa == pytest.approx(10.0, rel=1e-6)
    flat = gen_example2(60, 25, 5, kappa=1.0, a=2, b=9, seed=11)
    _, kappa_flat = oracle_facts(flat)[2:]
    assert kappa_flat == pytest.approx(1.0, rel=1e-6)


def test_example2_validation():
    with pytest.raises(ValueError, match="no distinct min and max"):
        gen_example2(10, 10, 1, kappa=2.0, a=1, b=10, seed=0)
    with pytest.raises(ValueError, match="1 <= r"):
        gen_example2(4, 3, 5, kappa=1.0, a=1, b=10, seed=0)
    with pytest.raises(ValueError, match="1 <= a <= b"):
        gen_example2(4, 3, 2, kappa=1.0, a=5, b=2, seed=0)
    with pytest.raises(ValueError, match="kappa"):
        gen_example2(4, 3, 2, kappa=0.5, a=1, b=2, seed=0)
    for kappa in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="kappa must"):
            gen_example2(10, 8, 3, kappa=kappa, a=1, b=10, seed=0)


def test_row_permutation_permutes_scores():
    a = gen_example1(16, 8, 2, seed=7)
    perm = stream(1).permutation(16)
    np.testing.assert_allclose(oracle_facts(a[perm]).scores,
                               oracle_facts(a).scores[perm], atol=1e-6)


def test_right_orthogonal_invariance():
    a = gen_example1(16, 8, 0, seed=7)
    q, _ = householder_qr(standard_normal(stream(2), (8, 8)))
    np.testing.assert_allclose(oracle_facts(a @ q).scores,
                               oracle_facts(a).scores, atol=1e-6)
