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
    assert q.shape == a.shape and none is None
    np.testing.assert_array_equal(same_upper, upper)
    np.testing.assert_array_equal(same_perm, perm)


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
        "4e4e17718a0490df3c6ef3eb7b9445e31127a9c9c9242626fc2a8429c9f392ad",
    ('factor-core-even', False):
        "7dce3ab36b22a00482fc4a6a9083c00061f19e839a4464c059e1d8bfb5af2ce8",
    ('factor-core-odd', True):
        "a159f01955802ac28d356742da899fae562c4daa512b72a955698fcd0ced3d6b",
    ('factor-core-odd', False):
        "faeba5cb9d484c2f63910f0d441265000fb5a25e21a4cf981fc70a9a303d0ec2",
    ('kahan', True):
        "a34cf29f3dded2e06728802fce1396990b094f7e41ed32d4a5ac1eddb2d54b0b",
    ('kahan', False):
        "0ec59408c9d0f47b647e3fbc06056a13fec5d31a183b05ee6b812ad23f34730f",
    ('n1', True):
        "8b1cbb34bf46854aeb053d76dc6a30f79cdcde80a31794fd33fbe0af09065940",
    ('n1', False):
        "d035d5759414d5a837c2cf3b5ebbbb7e04d22c53ae48c8f46f0afbe8c0b15a84",
    ('n2', True):
        "60b4f844ff5836977c3a7eaaa6b0de6afe498750ace58e47d7b001dad86bee74",
    ('n2', False):
        "5ba1c5fc91b3b785b91615143f91450b080bf40308a1dac7490e8a29d32531ac",
    ('n3', True):
        "830eef3015a117ce62fadad46f6000605186073d19349965ee5e5254ee2a6008",
    ('n3', False):
        "f99828592b0c79298699b1ed5c88a4975ef91c7f564e0863922de3050279d676",
    ('n4', True):
        "39adfef598a742e2e9b4928ff1aca31c12e78afb49e0b89135a846ae3eec0215",
    ('n4', False):
        "465d40fc82b4acfb832bc38b3a19b67724d7dba6332e9bad78dd68dc6c4d93c6",
    ('wide', True):
        "3fd0778ade685dee0b507dc25da199b4fb4de9fd43b364ca85aaf668e2ed760b",
    ('wide', False):
        "47514e2cb31ad0f31e0e8e3660b09a801c2e4ae3425abebaddb8ed10efe2b283",
    ('zero-columns', True):
        "f43d5ed21fd43044723c5f43572ff7470edff49e85303d5cbb283c934d41e168",
    ('zero-columns', False):
        "11ca7039b4c40ee7a17f4cb4ce00ae4a80ed55988f5bb756ab473c8fa1e27e19",
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
