"""One-sided Jacobi SVD: exact small cases, orthonormality, oracle agreement."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

import levsketch.svd as svd_module
from levsketch import SvdResult, svd_dense, truncate_top_k, stream

from oracles import power_iteration_sigma


def reconstruction_error(a, res):
    diff = res.u @ (res.sigma[:, None] * res.v.T) - a
    return np.sqrt((diff * diff).sum())


def orthonormality_defect(q):
    g = q.T @ q - np.eye(q.shape[1])
    return np.abs(g).max()


def test_identity():
    res = svd_dense(np.eye(3))
    np.testing.assert_allclose(res.sigma, np.ones(3), atol=1e-15)
    assert reconstruction_error(np.eye(3), res) < 1e-14
    assert orthonormality_defect(res.u) < 1e-14
    assert orthonormality_defect(res.v) < 1e-14


def test_diag_with_zero():
    a = np.diag([3.0, 0.0])
    res = svd_dense(a)
    np.testing.assert_allclose(res.sigma, [3.0, 0.0], atol=1e-15)
    # leading right vector is e1 up to sign
    np.testing.assert_allclose(np.abs(res.v[:, 0]), [1.0, 0.0], atol=1e-15)
    assert reconstruction_error(a, res) < 1e-14


def test_equal_singular_values_keep_column_order():
    res = svd_dense(np.diag([2.0, 2.0]))
    np.testing.assert_allclose(res.sigma, [2.0, 2.0], atol=1e-15)
    np.testing.assert_allclose(np.abs(res.v), np.eye(2), atol=1e-12)


def test_dense_30x30_against_power_iteration():
    a = stream(77).standard_normal((30, 30))
    res = svd_dense(a)
    fro = np.sqrt((a * a).sum())
    assert reconstruction_error(a, res) <= 1e-10 * fro
    assert orthonormality_defect(res.u) < 1e-12
    assert orthonormality_defect(res.v) < 1e-12
    assert np.all(np.diff(res.sigma) <= 1e-12 * res.sigma[0])
    oracle = power_iteration_sigma(a, 8)
    keep = res.sigma[:8] > 1e-8 * res.sigma[0]
    np.testing.assert_allclose(res.sigma[:8][keep], oracle[keep], rtol=1e-6)


def test_rank_one_sigma_is_spectral_norm():
    x = stream(5).standard_normal(40)
    y = stream(6).standard_normal(12)
    a = np.outer(x, y)
    res = svd_dense(a)
    expected = np.sqrt((x * x).sum()) * np.sqrt((y * y).sum())
    assert res.sigma[0] == pytest.approx(expected, rel=1e-8)
    assert np.all(res.sigma[1:] <= 1e-10 * res.sigma[0])


def test_wide_matrix_shapes():
    a = stream(9).standard_normal((3, 7))
    res = svd_dense(a)
    assert res.u.shape == (3, 3)
    assert res.sigma.shape == (3,)
    assert res.v.shape == (7, 3)
    assert reconstruction_error(a, res) < 1e-12 * np.sqrt((a * a).sum())


def test_zero_matrix_full_orthonormal_basis():
    res = svd_dense(np.zeros((4, 2)))
    np.testing.assert_array_equal(res.sigma, np.zeros(2))
    assert orthonormality_defect(res.u) < 1e-14
    assert orthonormality_defect(res.v) < 1e-14


def test_one_by_one_negative():
    a = np.array([[-5.0]])
    res = svd_dense(a)
    assert res.sigma[0] == 5.0
    assert reconstruction_error(a, res) == 0.0


def test_input_validation():
    with pytest.raises(ValueError, match="two-dimensional"):
        svd_dense(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        svd_dense([[1.0, np.nan]])


def test_truncate_drops_below_relative_threshold():
    res = SvdResult(u=np.eye(3), sigma=np.array([5.0, 3.0, 1e-18]),
                    v=np.eye(3))
    cut = truncate_top_k(res, 3)
    np.testing.assert_array_equal(cut.sigma, [5.0, 3.0])
    assert cut.u.shape == (3, 2)
    assert cut.v.shape == (3, 2)


def test_truncate_keeps_exactly_k():
    res = svd_dense(np.diag([4.0, 3.0, 2.0, 1.0]))
    cut = truncate_top_k(res, 2)
    np.testing.assert_allclose(cut.sigma, [4.0, 3.0], atol=1e-14)


def test_truncate_errors():
    res = svd_dense(np.eye(2))
    with pytest.raises(ValueError, match="out of range"):
        truncate_top_k(res, 0)
    with pytest.raises(ValueError, match="out of range"):
        truncate_top_k(res, 3)
    zero = svd_dense(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="numerically rank zero"):
        truncate_top_k(zero, 1)


@given(st.integers(2, 64), st.integers(2, 64), st.integers(0, 10_000))
def test_random_shapes_match_numpy(m, n, seed):
    a = stream(seed).standard_normal((m, n))
    res = svd_dense(a)
    fro = np.sqrt((a * a).sum())
    assert reconstruction_error(a, res) <= 1e-10 * fro
    assert orthonormality_defect(res.u) < 1e-10
    assert orthonormality_defect(res.v) < 1e-10
    ref = np.linalg.svd(a, compute_uv=False)
    np.testing.assert_allclose(res.sigma, ref, atol=1e-10 * max(fro, 1.0))


def test_scaled_columns_remain_accurate():
    # per-column scales spanning many orders of magnitude
    base = stream(21).standard_normal((12, 6))
    scales = 10.0 ** np.array([-120.0, -40.0, 0.0, 35.0, 80.0, 130.0])
    a = base * scales
    res = svd_dense(a)
    ref = np.linalg.svd(a, compute_uv=False)
    np.testing.assert_allclose(res.sigma, ref, rtol=1e-10,
                               atol=1e-12 * ref[0])
    assert orthonormality_defect(res.u[:, res.sigma > 0]) < 1e-10


def test_convergence_is_reported():
    res = svd_dense(stream(77).standard_normal((30, 30)))
    assert 1 < res.sweeps <= svd_module._MAX_SWEEPS
    assert 0.0 <= res.residual <= svd_module._TOL
    # the default fields keep three-argument construction working
    bare = SvdResult(u=np.eye(2), sigma=np.ones(2), v=np.eye(2))
    assert (bare.sweeps, bare.residual) == (0, 0.0)


def test_unconverged_sweeps_raise(monkeypatch):
    a = stream(77).standard_normal((30, 30))
    monkeypatch.setattr(svd_module, "_MAX_SWEEPS", 1)
    with pytest.raises(ValueError, match="did not converge") as info:
        svd_dense(a)
    assert "\n" not in str(info.value)


@st.composite
def rank_deficient(draw):
    """B @ C with inner dimension r < min(m, n), square (like the core W) or
    tall (the QR path), with some columns zeroed and some duplicated."""
    n = draw(st.integers(2, 24))
    m = draw(st.one_of(st.just(n), st.integers(n + 1, 48)))
    r = draw(st.integers(1, n - 1))
    rng = stream(draw(st.integers(0, 10_000)))
    a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    cols = st.integers(0, n - 1)
    for src, dst in draw(st.lists(st.tuples(cols, cols), max_size=4)):
        a[:, dst] = a[:, src]
    a[:, draw(st.lists(cols, max_size=3))] = 0.0
    return a


@given(rank_deficient())
def test_rank_deficient_matches_numpy(a):
    res = svd_dense(a)
    fro = np.sqrt((a * a).sum())
    assert reconstruction_error(a, res) <= 1e-10 * max(fro, 1.0)
    assert orthonormality_defect(res.u) < 1e-10
    assert orthonormality_defect(res.v) < 1e-10
    ref = np.linalg.svd(a, compute_uv=False)
    np.testing.assert_allclose(res.sigma, ref, atol=1e-10 * max(fro, 1.0))


def test_tall_equal_singular_values_keep_column_order():
    a = np.vstack([2.0 * np.eye(3), np.zeros((4, 3))])
    res = svd_dense(a)
    np.testing.assert_array_equal(res.sigma, [2.0, 2.0, 2.0])
    np.testing.assert_allclose(np.abs(res.v), np.eye(3), atol=1e-12)
    np.testing.assert_allclose(np.abs(res.u), a / 2.0, atol=1e-12)


@pytest.mark.parametrize("shape", [(30, 30), (60, 20), (20, 60)])
def test_repeated_calls_bitwise_equal(shape):
    a = stream(31).standard_normal(shape)
    first, second = svd_dense(a), svd_dense(a)
    for name in ("u", "sigma", "v"):
        np.testing.assert_array_equal(getattr(first, name),
                                      getattr(second, name))
    assert (first.sweeps, first.residual) == (second.sweeps, second.residual)
