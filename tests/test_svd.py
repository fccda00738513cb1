"""One-sided Jacobi SVD: exact small cases, orthonormality, oracle agreement."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

import levsketch.sketch as sketch_module
import levsketch.svd as svd_module
from levsketch import (MatrixSampleStore, SvdResult, compute_params,
                       draw_sketch, gen_example1, gen_example2,
                       standard_normal, stream, svd_dense, trial_stream,
                       truncate_top_k)

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
    with pytest.raises(ValueError, match="did not converge") as info:
        svd_dense(a)
    assert "\n" not in str(info.value)


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
}


@pytest.mark.parametrize("name, bound", [("kahan-20", 3e-14),
                                         ("graded-columns", 2e-15)])
def test_sigma_matches_a_sixty_digit_reference(name, bound):
    # the top r sigma, r the numerical rank, against the reference; each
    # bound is about 2.5 times the largest relative error measured when it
    # was set (1.16e-14 on Kahan's triangle, 5.9e-16 on the graded columns)
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


def factor_core(trial):
    """The merged core that ``qisvd`` factors on factor-core's matrix
    (example2 2000x500, rank 100, p = 100): trial 1 leaves a 92-wide
    Jacobi triangle, trial 2 a 95-wide one."""
    store = MatrixSampleStore(gen_example2(2000, 500, 100, 1.0, 1, 1000, 7))
    params = compute_params(0.5, 0.1, 88, 1.0, 1.0, 1.0, p_override=100)
    cores = []

    def record(core, **kwargs):
        cores.append(core)
        return svd_dense(core, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sketch_module, "svd_dense", record)
        sketch_module.qisvd(store, params, trial_stream(7, trial))
    return cores[0]


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
        "cf7c8a30d08b9b6660dabffb5e5b98ab35c96d38597c0e94d7f39c18acf99c53",
    ('kahan', False):
        "18d93e4797f80416853b461d305978bd02900e7df66dcd5757bd1c6ee396d42a",
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
