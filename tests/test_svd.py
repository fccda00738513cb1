"""One-sided Jacobi SVD: exact small cases, orthonormality, oracle agreement."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

import levsketch.svd as svd_module
from levsketch import (MatrixSampleStore, SvdResult, build_w, draw_sketch,
                       gen_example1, standard_normal, stream, svd_dense,
                       trial_stream, truncate_top_k)

from oracles import power_iteration_sigma


def reconstruction_error(a, res):
    diff = res.u @ (res.sigma[:, None] * res.v.T) - a
    return np.sqrt((diff * diff).sum())


def orthonormality_defect(q):
    g = q.T @ q - np.eye(q.shape[1])
    return np.abs(g).max()


def assert_sigma_matches(res, expected, shape, rtol=0.0, atol=0.0):
    """The r returned triplets are the rank-r SVD: U is m x r, V is n x r,
    sigma matches the leading r of ``expected`` and the rest of
    ``expected`` lies within the same tolerance of zero."""
    r = res.sigma.size
    assert res.u.shape == (shape[0], r) and res.v.shape == (shape[1], r)
    padded = np.concatenate([res.sigma, np.zeros(expected.size - r)])
    np.testing.assert_allclose(padded, expected, rtol=rtol, atol=atol)


def assert_matches_numpy(a, res, rtol=0.0, atol=0.0):
    assert_sigma_matches(res, np.linalg.svd(a, compute_uv=False), a.shape,
                         rtol, atol)


def test_identity():
    res = svd_dense(np.eye(3))
    np.testing.assert_allclose(res.sigma, np.ones(3), atol=1e-15)
    assert reconstruction_error(np.eye(3), res) < 1e-14
    assert orthonormality_defect(res.u) < 1e-14
    assert orthonormality_defect(res.v) < 1e-14


def test_diag_with_zero():
    a = np.diag([3.0, 0.0])
    res = svd_dense(a)
    np.testing.assert_allclose(res.sigma, [3.0], atol=1e-15)
    assert_matches_numpy(a, res, atol=1e-15)
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


def test_zero_matrix_raises():
    for shape in ((4, 2), (2, 4)):
        with pytest.raises(ValueError, match="zero matrix"):
            svd_dense(np.zeros(shape))


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
    # the first squared column norm is inf: factoring on would stop at rank
    # 0 and report all-zero singular values
    with pytest.raises(ValueError, match="squared norm overflows"):
        svd_dense(standard_normal(stream(1), (40, 8)) * 1e200)


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
    # svd_dense never returns a zero sigma, but truncate_top_k still checks
    zero = SvdResult(u=np.eye(2), sigma=np.zeros(2), v=np.eye(2))
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
    assert_matches_numpy(a, res, rtol=1e-10, atol=1e-12 * ref[0])
    assert orthonormality_defect(res.u) < 1e-10


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


def test_rank_70_core_converges_like_lapack():
    # trial 2 of `compare --p 127 --k 40 --trials 2 --seed 2` on
    # `gen --family example1 --m 400 --n 150 --zero 20 --seed 2`: a valid
    # 127x127 core of rank 70 whose null-space columns shrink toward
    # underflow under plain sweeps
    store = MatrixSampleStore(gen_example1(400, 150, 20, 2))
    w = build_w(store, draw_sketch(store, 127, trial_stream(2, 1)))
    res = svd_dense(w)
    # 61 sweeps of plain Jacobi on the unreduced core
    assert res.sweeps <= 12
    ref = np.linalg.svd(w, compute_uv=False)
    assert_matches_numpy(w, res, atol=1e-12 * ref[0])
    assert reconstruction_error(w, res) <= 1e-12 * ref[0]
    assert orthonormality_defect(res.u) < 1e-10
    assert orthonormality_defect(res.v) < 1e-10


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


def svd_or_zero(a):
    """svd_dense(a), or None after checking that an all-zero ``a``
    raises."""
    if a.any():
        return svd_dense(a)
    with pytest.raises(ValueError, match="zero matrix"):
        svd_dense(a)
    return None


@given(rank_deficient())
def test_rank_deficient_matches_numpy(a):
    res = svd_or_zero(a)
    if res is None:
        return
    fro = np.sqrt((a * a).sum())
    assert reconstruction_error(a, res) <= 1e-10 * max(fro, 1.0)
    assert orthonormality_defect(res.u) < 1e-10
    assert orthonormality_defect(res.v) < 1e-10
    assert_matches_numpy(a, res, atol=1e-10 * max(fro, 1.0))


@given(rank_deficient())
def test_rank_deficient_returns_only_positive_sigma(a):
    res = svd_or_zero(a)
    if res is None:
        return
    assert res.sigma.size >= 1
    assert np.all(res.sigma > 0.0)
    assert np.all(np.diff(res.sigma) <= 0.0)


def test_tall_equal_singular_values_keep_column_order():
    a = np.vstack([2.0 * np.eye(3), np.zeros((4, 3))])
    res = svd_dense(a)
    np.testing.assert_array_equal(res.sigma, [2.0, 2.0, 2.0])
    np.testing.assert_allclose(np.abs(res.v), np.eye(3), atol=1e-12)
    np.testing.assert_allclose(np.abs(res.u), a / 2.0, atol=1e-12)


@pytest.mark.parametrize("shape", [(30, 30), (60, 20), (20, 60)])
def test_memory_layout_does_not_change_the_result(shape):
    a = stream(32).standard_normal(shape)
    c_order, f_order = svd_dense(a), svd_dense(np.asfortranarray(a))
    for name in ("u", "sigma", "v"):
        np.testing.assert_array_equal(getattr(c_order, name),
                                      getattr(f_order, name))


@pytest.mark.parametrize("shape", [(30, 30), (60, 20), (20, 60)])
def test_repeated_calls_bitwise_equal(shape):
    a = stream(31).standard_normal(shape)
    first, second = svd_dense(a), svd_dense(a)
    for name in ("u", "sigma", "v"):
        np.testing.assert_array_equal(getattr(first, name),
                                      getattr(second, name))
    assert (first.sweeps, first.residual) == (second.sweeps, second.residual)


@given(st.integers(1, 24), st.integers(0, 8), st.booleans(),
       st.integers(0, 10_000))
def test_permuted_scaled_diagonal_is_exact(n, extra_rows, wide, seed):
    # one nonzero per row and column, with zeros and ties: every
    # reflection and rotation is exact, so sigma is the sorted |diagonal|
    rng = stream(seed)
    d = standard_normal(rng, n) * 10.0 ** rng.integers(-3, 4, n)
    d[rng.random(n) < 0.2] = -d[0]
    d[rng.random(n) < 0.2] = 0.0
    a = np.zeros((n + extra_rows, n))
    a[rng.permutation(n + extra_rows)[:n], rng.permutation(n)] = d
    a = a.T if wide else a
    res = svd_or_zero(a)
    if res is None:
        return
    assert_sigma_matches(res, np.sort(np.abs(d))[::-1], a.shape)
    assert orthonormality_defect(res.u) < 1e-14
    assert orthonormality_defect(res.v) < 1e-14


def kahan(n, theta):
    """Kahan's triangle, whose pivoted QR does not pivot and hides how
    small its last singular values are."""
    s, c = np.sin(theta), np.cos(theta)
    return np.diag(s ** np.arange(n)) @ (np.eye(n)
                                         + np.triu(-c * np.ones((n, n)), 1))


@pytest.mark.parametrize("n, theta", [(30, 0.3), (60, 0.6), (90, 1.2)])
def test_singular_values_below_the_qr_rank_are_completed(n, theta):
    # the sweeps zero some columns of the triangle that the pivoted QR
    # kept: those triplets are dropped, and what numpy finds there is
    # below the tolerance
    a = kahan(n, theta)
    res = svd_dense(a)
    rank = svd_module.pivoted_qr(a)[1].shape[0]
    assert res.sigma.size < rank
    ref = np.linalg.svd(a, compute_uv=False)
    assert_matches_numpy(a, res, atol=1e-13 * ref[0])
    assert reconstruction_error(a, res) <= 1e-13 * ref[0]
    assert orthonormality_defect(res.u) < 1e-13
    assert orthonormality_defect(res.v) < 1e-13


@pytest.mark.parametrize("scale", [1e-160, 1e-300])
def test_tiny_identity_sigma_is_exact(scale):
    # the squares of these entries underflow unless the input is scaled
    res = svd_dense(np.eye(4) * scale)
    assert np.all(np.abs(res.sigma - scale) <= np.spacing(scale))
    assert orthonormality_defect(res.u) < 1e-14
    assert orthonormality_defect(res.v) < 1e-14


@pytest.mark.parametrize("shape", [(20, 8), (8, 20), (12, 12)])
def test_tiny_input_is_factored_after_an_exact_power_of_two(shape):
    a = standard_normal(stream(33), shape)
    a *= 0.75 / np.abs(a).max()  # largest entry 0.75, in [0.5, 1)
    ref, tiny = svd_dense(a), svd_dense(np.ldexp(a, -700))
    np.testing.assert_array_equal(tiny.u, ref.u)
    np.testing.assert_array_equal(tiny.v, ref.v)
    np.testing.assert_array_equal(tiny.sigma, np.ldexp(ref.sigma, -700))
