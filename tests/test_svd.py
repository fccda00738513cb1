"""One-sided Jacobi SVD: exact small cases, orthonormality, oracle agreement."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import levsketch.sketch as sketch_module
import levsketch.svd as svd_module
from levsketch import (MatrixSampleStore, SvdResult, compute_params,
                       draw_sketch, gen_example1, gen_example2,
                       householder_qr, standard_normal, stream, svd_dense,
                       trial_stream, truncate_top_k)

from oracles import (jacobi_reference, pivoted_qr_reference,
                     power_iteration_sigma, threshold_jacobi_reference)


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
    # int() kept 2 triplets for 2.5 and 1 for True
    wide = svd_dense(np.diag([4.0, 3.0, 2.0, 1.0]))
    for k in (2.5, True):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            truncate_top_k(wide, k)
    # svd_dense never returns a zero sigma, but truncate_top_k still checks
    zero = SvdResult(u=np.eye(2), sigma=np.zeros(2), v=np.eye(2))
    with pytest.raises(ValueError, match="numerically rank zero"):
        truncate_top_k(zero, 1)


@pytest.mark.parametrize("k", [None, "a", "2", [2]],
                         ids=["none", "text", "digit-text", "list"])
def test_truncate_k_that_is_not_a_real_number_is_refused(k):
    # each raised TypeError from the range comparison
    with pytest.raises(ValueError, match="k must be a positive integer"
                       ) as info:
        truncate_top_k(svd_dense(np.diag([4.0, 3.0, 2.0, 1.0])), k)
    assert "\n" not in str(info.value)


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
    inputs, jacobi = [], svd_module._jacobi

    def record(cols, left):
        inputs.append(cols)
        return jacobi(cols, left)

    monkeypatch.setattr(svd_module, "_jacobi", record)
    with pytest.raises(ValueError, match="did not converge") as info:
        svd_dense(a)
    assert "\n" not in str(info.value)
    # the residual named is the largest cosine of the last (here the
    # first) sweep's opening check, on the Jacobi input's own columns
    cols = inputs[0].T
    gram = np.einsum("ij,kj->ik", cols, cols)
    norms = np.sqrt(np.diagonal(gram))
    ratio = np.abs(gram) / np.multiply.outer(norms, norms)
    np.fill_diagonal(ratio, 0.0)
    assert str(info.value).endswith(f"(residual {ratio.max():.3g})")


def example1_core():
    """Trial 2 of `compare --p 127 --k 40 --trials 2 --seed 2` on
    `gen --family example1 --m 400 --n 150 --zero 20 --seed 2`: a valid
    127x127 core of rank 70 whose null-space columns shrink toward
    underflow under plain sweeps."""
    store = MatrixSampleStore(gen_example1(400, 150, 20, 2))
    return draw_sketch(store, 127, trial_stream(2, 1))[1]


def test_rank_70_core_converges_like_lapack():
    w = example1_core()
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


@pytest.mark.parametrize("make", [
    lambda: stream(34).standard_normal((60, 20)),
    lambda: stream(34).standard_normal((30, 30)),
    example1_core,
    lambda: np.ldexp(stream(34).standard_normal((20, 8)), -700),
    lambda: stream(34).standard_normal((20, 60)),
], ids=["tall", "square", "rank-deficient-core", "tiny", "wide"])
def test_without_left_only_u_is_dropped(make):
    a = make()
    full, right = svd_dense(a), svd_dense(a, left=False)
    assert right.u is None
    np.testing.assert_array_equal(right.sigma, full.sigma)
    np.testing.assert_array_equal(right.v, full.v)
    assert (right.sweeps, right.residual) == (full.sweeps, full.residual)
    cut = truncate_top_k(right, 3)
    assert cut.u is None
    np.testing.assert_array_equal(cut.v, full.v[:, :3])


@pytest.mark.parametrize("make", [
    lambda: stream(35).standard_normal((60, 20)),
    lambda: stream(35).standard_normal((30, 30)),
    example1_core,
], ids=["tall", "square", "rank-deficient-core"])
def test_pivoted_qr_without_basis_keeps_r_and_perm(make):
    # svd_dense(left=False) asks for no Q, which only U reads
    a = make()
    q, upper, perm = svd_module.pivoted_qr(a)
    none, same_upper, same_perm = svd_module.pivoted_qr(a, basis=False)
    assert q.shape == (a.shape[0], upper.shape[0]) and none is None
    np.testing.assert_array_equal(same_upper, upper)
    np.testing.assert_array_equal(same_perm, perm)


@pytest.mark.parametrize("make", [
    lambda: stream(37).standard_normal((80, 30)),
    # the factorization of a wide input's transpose
    lambda: stream(37).standard_normal((30, 80)).T,
    lambda: gen_example1(200, 40, 12, 37),
    lambda: kahan(60, 0.6),
], ids=["tall", "wide", "rank-deficient", "kahan"])
def test_pivoted_qr_basis_is_the_rank_r_columns(make):
    # Q is built only to the rank r, the columns svd_dense reads
    a = make()
    q, upper, perm = svd_module.pivoted_qr(a)
    r = upper.shape[0]
    assert q.shape == (a.shape[0], r)
    assert orthonormality_defect(q) < 1e-14
    diff = a[:, perm] - q @ upper
    assert np.abs(diff).max() <= 1e-13 * np.linalg.norm(a, 2)


@pytest.mark.parametrize("stack", [1, 2], ids=["square", "stacked"])
def test_pivoted_qr_ties_go_to_the_lowest_original_index(stack):
    # after column 2 is pivoted first, columns 1 and 0 tie in that order:
    # the first of them in the working order would give [2, 1, 0]
    a = np.vstack([np.diag([1.0, 1.0, 2.0])] * stack)
    perm = svd_module.pivoted_qr(a)[2]
    np.testing.assert_array_equal(perm, [2, 0, 1])


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


def graded_rows(m, n, step):
    """A standard normal m x n matrix whose row i is scaled by step^-i."""
    return (standard_normal(stream(9), (m, n))
            * (step ** -np.arange(float(m)))[:, None])


def row_bands():
    """Four bands of ten standard normal rows, scaled by 1, 10^(4/3),
    10^(8/3) and 1e4."""
    bands = np.repeat(np.logspace(0.0, 4.0, 4), 10)
    return standard_normal(stream(9), (40, 10)) * bands[:, None]


def graded_shuffled():
    """A standard normal 12 x 8 matrix whose rows and columns are graded
    by powers of 1e-3 in shuffled order, so that no row order the QR
    could keep is graded downward."""
    rows = [5, 0, 9, 2, 11, 7, 1, 4, 10, 3, 8, 6]
    cols = [3, 6, 0, 5, 1, 7, 2, 4]
    return (standard_normal(stream(9), (12, 8))
            * (1e3 ** -np.array(rows, float))[:, None]
            * 1e3 ** -np.array(cols, float))


def conditioned_1e12():
    """Q_1 diag(1 .. 1e-12) Q_2^T, 20 x 12, with sigma spaced evenly in
    the logarithm; the product is einsum's own loop."""
    q1 = householder_qr(standard_normal(stream(9), (20, 12)))[0]
    q2 = householder_qr(standard_normal(stream(10), (12, 12)))[0]
    return np.einsum("ik,k,jk->ij", q1, np.logspace(0.0, -12.0, 12), q2)


# singular values of the float inputs below, computed once by mpmath's
# svd_r at 60 decimal digits and kept here to 20
SIXTY_DIGIT_SIGMA = {
    "kahan-20": (lambda: kahan(20, 1.0), [
        "3.8357044313574081801", "1.2532122857993804929",
        "1.0519396023662696345", "0.88297126759235171616",
        "0.74093653265792882853", "0.62152489754411775878",
        "0.52113210634047236087", "0.43672951482570167411",
        "0.36576983695373280027", "0.30611013202971343963",
        "0.25594731522573310354", "0.21376381655976421832",
        "0.17828161707790247142", "0.1484231098101682411",
        "0.1232772231719404034", "0.10206878178195679138",
        "0.084127116743975249097", "0.068841078027656265185",
        "0.055527433502760678124", "1.86373887847380775e-5"]),
    "graded-columns": (lambda: (standard_normal(stream(9), (14, 8))
                                @ np.diag(1e4 ** -np.arange(8.0))), [
        "4.1115302932215115168", "3.0984528622450545314e-4",
        "3.2334488421579805118e-8", "3.3992639066829310442e-12",
        "3.0847438163260095563e-16", "3.495077261404574939e-20",
        "3.3776837316096765624e-24", "1.5524782679429406409e-28"]),
    "graded-rows-1e2": (lambda: graded_rows(12, 8, 1e2), [
        "3.2548764958815277084", "0.017172987890467762278",
        "0.00014611972248248599002", "2.2720656634307988818e-6",
        "1.3670019010548360314e-8", "1.1826657085130677689e-10",
        "8.2106692440085436e-13", "2.6080035641135987955e-15"]),
    "graded-rows-1e4": (lambda: graded_rows(14, 8, 1e4), [
        "3.2548173575962164725", "0.00017173299780827210759",
        "1.4611686153569655768e-8", "2.2720700489833724794e-12",
        "1.3670219856451967203e-16", "1.1825711992930539334e-20",
        "8.2112806550650858829e-25", "2.6075949760897582551e-29"]),
    # rows graded down by 1e3 and columns up by 1e3
    "graded-both-ways": (lambda: graded_rows(10, 10, 1e3)
                         * 1e3 ** np.arange(10.0), [
        "8.5920516346324531572e+26", "4.0065495630257627518e+20",
        "4567583685901332.5663", "294483809.29671082674",
        "1167.6079931278921697", "0.0012838793890832100772",
        "2.1690411139426280893e-9", "2.0011409825296068947e-14",
        "1.2979293931226197488e-21", "6.328609312733311218e-27"]),
    "graded-shuffled": (graded_shuffled, [
        "0.57379708005272220411", "3.5151180248415838407e-6",
        "6.8830363444243547243e-13", "2.6671986070591989228e-19",
        "6.44407282573703493e-24", "1.2321220352900593472e-30",
        "1.0818202525710007324e-35", "1.8839614972091026712e-42"]),
    "row-bands": (row_bands, [
        "51237.648661890505676", "49713.314257294469227",
        "39927.980048046091547", "33222.144866313101407",
        "27724.484351677418879", "26490.148897250930172",
        "14640.196163664611208", "12453.175580949520229",
        "10800.549374846161649", "3583.3894645980452625"]),
    "hilbert-10": (lambda: 1.0 / (np.arange(10.0)[:, None]
                                  + np.arange(10.0) + 1.0), [
        "1.7519196702651775066", "0.34292954848350909963",
        "0.035741816271639232787", "0.0025308907686700285995",
        "0.00012874961427637339136", "4.7296892931900962987e-6",
        "1.2289677387429185853e-7", "2.1474388217975422457e-9",
        "2.2667455503810731916e-11", "1.093252433497455222e-13"]),
    "conditioned-1e12": (conditioned_1e12, [
        "1.0000000000000006177", "0.081113083078968708159",
        "0.0065793322465756905433", "0.00053366992312062642319",
        "0.000043287612810826257257", "3.5111917342041653629e-6",
        "2.8480358683047567694e-7", "2.3101296999708656735e-8",
        "1.8738174211574474095e-9", "1.5199109692766540298e-10",
        "1.2328459450850642883e-11", "1.0000052484060824234e-12"]),
}


@pytest.mark.parametrize("name, bound", [("kahan-20", 3e-14),
                                         ("graded-columns", 2e-15),
                                         ("graded-rows-1e2", 5e-6),
                                         ("graded-rows-1e4", 8e-12),
                                         ("graded-both-ways", 6e-16),
                                         ("graded-shuffled", 2.2e-15),
                                         ("row-bands", 1.5e-15),
                                         ("hilbert-10", 6e-5),
                                         ("conditioned-1e12", 1e-5)])
def test_sigma_matches_a_sixty_digit_reference(name, bound):
    # the top r sigma, r the numerical rank, against the reference; each
    # bound is about 2.5 times the largest relative error measured when it
    # was set: 1.16e-14 on Kahan's triangle, 5.9e-16 on the graded columns,
    # 1.84e-6 and 3.06e-12 on the rows graded by 1e2 and 1e4, 2.19e-16 on
    # the input graded both ways, 8.8e-16 on the shuffled grading,
    # 5.85e-16 on the row bands, 2.48e-5 on Hilbert's matrix and 4.04e-6
    # at condition 1e12. The rows graded by 1e2 lose theirs to the QR's
    # rank stop, which drops a trailing block of norm 4.1e-15, below n eps
    # times the largest column: that moves sigma_7 = 8.2e-13 by 1.5e-18.
    # Every other graded input grades its rows downward, which a QR
    # without column pivoting also factors within these bounds; on the
    # shuffled grading it errs by 2.0e-13
    make, digits = SIXTY_DIGIT_SIGMA[name]
    res = svd_dense(make())
    ref = np.array([float(d) for d in digits[:res.sigma.size]])
    assert (np.abs(res.sigma - ref) / ref).max() <= bound


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


def qisvd_core(matrix, p, k, trial):
    """The merged core that ``qisvd`` factors on ``matrix`` with p and k,
    in trial ``trial`` of seed 7."""
    store = MatrixSampleStore(matrix)
    params = compute_params(0.5, 0.1, k, 1.0, 1.0, 1.0, p_override=p)
    cores = []

    def record(core, **kwargs):
        cores.append(core)
        return svd_dense(core, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sketch_module, "svd_dense", record)
        sketch_module.qisvd(store, params, trial_stream(7, trial))
    return cores[0]


def factor_core(trial):
    """The merged core that ``qisvd`` factors on factor-core's matrix
    (example2 2000x500, rank 100, p = 100): trial 1 leaves a 92-wide
    Jacobi triangle, trial 2 a 95-wide one."""
    return qisvd_core(gen_example2(2000, 500, 100, 1.0, 1, 1000, 7), 100, 88,
                      trial)


@pytest.mark.parametrize("trial", [1, 2], ids=["even", "odd"])
def test_factor_core_converges_in_few_sweeps(trial):
    # started from the eigenvectors of the triangle's Gram matrix, the
    # sweeps polish nearly orthogonal columns: plain sweeps took 9 or 10
    assert svd_dense(factor_core(trial), left=False).sweeps <= 3


def with_zero_columns():
    a = stream(36).standard_normal((12, 8))
    a[:, [2, 5]] = 0.0
    return a


PINNED_INPUTS = {
    "n1": lambda: stream(36).standard_normal((1, 1)),
    "n2": lambda: stream(36).standard_normal((2, 2)),
    "n3": lambda: stream(36).standard_normal((3, 3)),
    "n4": lambda: stream(36).standard_normal((4, 4)),
    "factor-core-even": lambda: factor_core(1),
    "factor-core-odd": lambda: factor_core(2),
    "zero-columns": with_zero_columns,
    "kahan": lambda: kahan(30, 0.3),
    "wide": lambda: stream(36).standard_normal((8, 20)),
}

# sha256 of each result's sigma, V, U (when returned), sweeps and residual
PINNED_DIGESTS = {
    ('factor-core-even', True):
        "268885ed2badebc94755c42f3daf1cc9f2de5545fe62719b4e11afd6bd3688c6",
    ('factor-core-even', False):
        "2783b2f8ae1a47e1e59ca66f38309ef35e08940f34e7f2db134fe9893a9322c2",
    ('factor-core-odd', True):
        "6f646949443f753597129d2c56dd6a3487523dbd3a8f65402f81849a911930f8",
    ('factor-core-odd', False):
        "e6861a0889509c7252075e76da8d2ae97346d1459c73ce3c94f5134c9c2107e9",
    ('kahan', True):
        "13efd5c153c80ba20c4b690f259213897ef60b49570bbb02a0ca8f619a625146",
    ('kahan', False):
        "80556c92d06fe7013f882be218fe336527cef8e1fc4165da221f74257f2e91c2",
    ('n1', True):
        "8b1cbb34bf46854aeb053d76dc6a30f79cdcde80a31794fd33fbe0af09065940",
    ('n1', False):
        "d035d5759414d5a837c2cf3b5ebbbb7e04d22c53ae48c8f46f0afbe8c0b15a84",
    ('n2', True):
        "7467f3f131d1b7d7997efe3b53a02293d850a2b6110e028af9d2dc3fb1b3a08b",
    ('n2', False):
        "4f4c2e10a5115871ecadea9c35258a48c6c3302779a43af7e4d336dd545a63ae",
    ('n3', True):
        "30bb4cf1ee660afeb5d69b57a592077b9a1143242bbed0c8360cd11ef687ee7d",
    ('n3', False):
        "ee32c8ab2951e020d67740729180edeaddc08313fc2285e8306cf44fc56d2446",
    ('n4', True):
        "b5b554ae58b4847f00b105ba090a49881b6aa776f33f4569c0cc84ca242035e3",
    ('n4', False):
        "ae4f9866b9d5c80f448bdb767b983b3f7c6c62f4460b9a0d3de68036b09666f5",
    ('wide', True):
        "83ab3e5643f9ec274449c5e9975147f1bdc301a9172b2b7ecd142d96ffd99c6c",
    ('wide', False):
        "d50cb241e6c780254c1f4567f69f0cb22b0c4a700520ffd354b6c88585dda43b",
    ('zero-columns', True):
        "304f2a262d8ec21b87eb8dad59a344944ba25f7b28ff54a99c0764c1978ccf9a",
    ('zero-columns', False):
        "db0404a2540b6cdcf63fb1cd7909f6168c3914b187150f9dd58e56da473f5e8b",
}


def result_digest(res):
    h = hashlib.sha256()
    for part in (res.sigma, res.v, res.u):
        if part is not None:
            h.update(repr(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
    h.update(f"{res.sweeps} {res.residual.hex()}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
@pytest.mark.parametrize("name", sorted(PINNED_INPUTS))
def test_results_are_bitwise_pinned(name, left):
    # a refactor of the sweeps or the QRs must keep every bit
    res = svd_dense(PINNED_INPUTS[name](), left=left)
    assert result_digest(res) == PINNED_DIGESTS[name, left]


@st.composite
def graded_inputs(draw):
    """Tall, square or wide inputs, odd and even widths down to one
    column, of any rank, graded by columns or by rows, with exactly tied
    column norms and zeroed columns."""
    n = draw(st.integers(1, 24))
    m = draw(st.integers(n, 40))
    r = draw(st.integers(1, n))
    rng = stream(draw(st.integers(0, 10_000)))
    a = standard_normal(rng, (m, r)) @ standard_normal(rng, (r, n))
    step = 10.0 ** -draw(st.integers(0, 4))
    graded = draw(st.sampled_from(["none", "columns", "rows"]))
    if graded == "columns":
        a *= step ** np.arange(float(n))
    elif graded == "rows":
        a *= (step ** np.arange(float(m)))[:, None]
    cols = st.integers(0, n - 1)
    for src, dst in draw(st.lists(st.tuples(cols, cols), max_size=3)):
        a[:, dst] = -a[:, src]  # the same squared norm, bit for bit
    a[:, draw(st.lists(cols, max_size=2))] = 0.0
    return a.T if draw(st.booleans()) else a


def assert_bitwise(got, want):
    if want is None:
        assert got is None
    else:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=150)
@given(graded_inputs(), st.booleans())
@example(np.ones((5, 5)), True)
@example(np.eye(6), False)
@example(np.array([[-3.0]]), True)
@example(np.arange(1.0, 6.0)[:, None], False)
@example(np.vstack([np.diag([1.0, 1.0, 2.0])] * 2), True)
def test_bitwise_the_frozen_references(a, left):
    # svd_dense with the one-pair-at-a-time Jacobi of tests/oracles.py and
    # the pivoted_qr kept as it was before the QR's argmax pivot gives the
    # same bits, and so do pivoted_qr and _jacobi alone
    if not a.any():
        return
    res = svd_dense(a, left=left)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(svd_module, "_jacobi", threshold_jacobi_reference)
        patch.setattr(svd_module, "pivoted_qr", pivoted_qr_reference)
        ref = svd_dense(a, left=left)
    for name in ("u", "sigma", "v"):
        assert_bitwise(getattr(res, name), getattr(ref, name))
    assert res.sweeps == ref.sweeps
    assert res.residual.hex() == ref.residual.hex()
    tall = a if a.shape[0] >= a.shape[1] else a.T
    for got, want in zip(svd_module.pivoted_qr(tall, basis=left),
                         pivoted_qr_reference(tall, basis=left)):
        assert_bitwise(got, want)
    # _jacobi alone on the input's own columns, where most sweeps rotate
    got = svd_module._jacobi(tall, left)
    want = threshold_jacobi_reference(tall, left)
    for part, ref_part in zip(got[:3], want[:3]):
        assert_bitwise(part, ref_part)
    assert got[3] == want[3] and got[4].hex() == want[4].hex()


OLD_BITS_INPUTS = {
    "factor-core-even": lambda: factor_core(1),
    "factor-core-odd": lambda: factor_core(2),
    # compare-cli's matrix and p, and banded-tall's family and p on a
    # tenth of its rows: cores whose opening check passes at once
    "compare-cli-core": lambda: qisvd_core(
        gen_example2(1000, 100, 30, 1.0, 1, 10, 7), 60, 20, 1),
    "banded-tall-core": lambda: qisvd_core(gen_example1(6400, 100, 70, 7),
                                           60, 20, 1),
    **{name: make for name, (make, _) in SIXTY_DIGIT_SIGMA.items()},
}


@pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
@pytest.mark.parametrize("name", sorted(OLD_BITS_INPUTS))
def test_workload_cores_keep_the_bits_of_full_round_robin_sweeps(name, left):
    # the sweeps of jacobi_reference walk every round and rotate whatever
    # a round finds above _TOL; on these inputs every pair that they
    # rotate was flagged by the sweep's opening check, so rotating only
    # the flagged pairs gives their bits
    a = OLD_BITS_INPUTS[name]()
    res = svd_dense(a, left=left)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(svd_module, "_jacobi", jacobi_reference)
        ref = svd_dense(a, left=left)
    assert result_digest(res) == result_digest(ref)


def test_a_sweep_rotates_only_the_pairs_its_check_flags():
    # orthogonal columns of norms 8, 4, 2 and 1, one pair nudged to a
    # cosine of 1e-13; the third column holds a -0.0 where the fourth is
    # negative, which a t = 0 rotation of the two would make +0.0
    a = np.zeros((6, 4))
    a[[0, 1, 2, 3], [0, 1, 2, 3]] = [8.0, 4.0, 2.0, -1.0]
    a[0, 1] = 4e-13
    a[3, 2] = -0.0
    sigma, u, v, sweeps, residual = svd_module._jacobi(a, True)
    assert sweeps == 2 and residual <= svd_module._TOL
    # only columns 0 and 1 mix
    assert np.abs(v[0, 1]) > 0.0 and np.abs(v[1, 0]) > 0.0
    for j in (2, 3):
        assert sigma[j] == abs(a[j, j])
        assert v[:, j].tobytes() == np.eye(4)[:, j].tobytes()
        assert u[:, j].tobytes() == (a[:, j] / sigma[j]).tobytes()
    assert np.signbit(u[3, 2])


def jacobi_digest(parts):
    """sha256 of _jacobi's sigma, U, V, sweeps and residual."""
    h = hashlib.sha256()
    for part in parts[:3]:
        h.update(np.ascontiguousarray(part).tobytes())
    h.update(f"{parts[3]} {parts[4].hex()}".encode())
    return h.hexdigest()


def test_jacobi_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the sweeps' products are numpy's own einsum and elementwise loops,
    # never BLAS: on factor_core(1)'s raw columns, where many sweeps
    # rotate, one BLAS thread gives the bits of the default count
    core = factor_core(1)
    np.save(tmp_path / "core.npy", core)
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), str(root / "tests"),
                      env.get("PYTHONPATH")]))
    code = ("import sys, numpy as np; from levsketch.svd import _jacobi; "
            "from test_svd import jacobi_digest; "
            "print(jacobi_digest(_jacobi(np.load(sys.argv[1]), True)))")
    done = subprocess.run([sys.executable, "-c", code,
                           str(tmp_path / "core.npy")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == jacobi_digest(svd_module._jacobi(core,
                                                                   True))
