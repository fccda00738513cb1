"""Parameter derivation and the two-stage column/row sketch."""
import dataclasses
import decimal
import hashlib
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import levsketch.sketch
from levsketch import (MatrixSampleStore, SketchDescription, build_w,
                       compute_params, draw_sketch, gen_example1,
                       gen_example2, oracle_facts, qisls_all, qisvd,
                       read_sketch_csv, sample_columns, sample_rows,
                       standard_normal, stream, theta_upper,
                       write_sketch_csv)
from levsketch.sketch import s_matrix, s_rows

from oracles import dense_s, dense_w, parameter_formulas_reference
from test_matrix_store import TopDraw

# reference parameter set: unit norms, kappa 1, k 1
REF = dict(epsilon=0.5, delta=0.1, k=1, kappa=1.0,
           spectral_norm=1.0, frob_norm=1.0)


def test_reference_omega_theta_p():
    prm = compute_params(**REF)
    assert prm.omega == pytest.approx(1.0 / 3136.0, rel=1e-14, abs=0.0)
    assert prm.theta == pytest.approx(4.554978591600619e-5, rel=1e-12,
                                      abs=0.0)
    assert prm.p == 4819781161
    assert not prm.practical


def test_reference_xi():
    prm = compute_params(0.5, 0.1, 20, 10.0, 1.0, math.sqrt(30.0))
    # (sqrt(r + 1) - 1) / sqrt(k) at 50 digits, on the float frob_norm:
    # evaluated in doubles it cancelled to 4.384442716124085e-07
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        r = 1 / (100 * 85 * decimal.Decimal(math.sqrt(30.0)) ** 2)
        exact = ((r + 1).sqrt() - 1) / decimal.Decimal(20).sqrt()
    # abs=0: approx's default 1e-12 absolute tolerance would pass any xi
    # this small
    assert prm.xi == pytest.approx(float(exact), rel=1e-12, abs=0.0)


def test_small_xi_does_not_cancel_to_zero():
    # kappa 1e4 and frob / spectral 1e4 give r = 1 / (9 * 10^16), below
    # eps, where sqrt(r + 1) - 1 gave xi = 0.0
    prm = compute_params(0.5, 0.1, 1, 1e4, 1.0, 1e4)
    assert prm.xi == pytest.approx(1.0 / 1.8e17, rel=1e-15, abs=0.0)


def test_theta_defaults_to_upper_endpoint():
    omega, upper = theta_upper(0.5, 1, 1.0, 1.0, 1.0)
    prm = compute_params(**REF)
    assert prm.theta == upper
    assert prm.omega == omega
    # any admissible theta is accepted, and p follows 1/(theta^2 delta)
    half = compute_params(**REF, theta=upper / 2.0)
    assert half.p == math.ceil(1.0 / (half.theta ** 2 * 0.1))
    assert half.p > prm.p


def test_theta_out_of_range():
    _, upper = theta_upper(0.5, 1, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="theta must lie in"):
        compute_params(**REF, theta=upper * 1.01)
    with pytest.raises(ValueError, match="theta must lie in"):
        compute_params(**REF, theta=0.0)


def test_fractional_k_and_p_override_are_rejected():
    # truncated, they would run a value other than the one reported
    with pytest.raises(ValueError, match="p_override must be a positive "
                       "integer"):
        compute_params(**REF, p_override=12.7)
    with pytest.raises(ValueError, match="k must be a positive integer"):
        compute_params(0.5, 0.1, 2.5, 1.0, 1.0, 1.0)
    # a bool is refused as the store refuses a bool index; True ran as 1
    with pytest.raises(ValueError, match="k must be a positive integer"):
        compute_params(0.5, 0.1, True, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="p_override must be a positive "
                       "integer"):
        compute_params(**REF, p_override=True)


def test_parameter_validation():
    with pytest.raises(ValueError, match="epsilon"):
        compute_params(1.5, 0.1, 1, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="delta"):
        compute_params(0.5, 0.0, 1, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="k must be"):
        compute_params(0.5, 0.1, 0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="kappa"):
        compute_params(0.5, 0.1, 1, 0.9, 1.0, 1.0)
    with pytest.raises(ValueError, match="norms"):
        compute_params(0.5, 0.1, 1, 1.0, 0.0, 1.0)
    for kappa, spectral, frob, match in [(math.inf, 1.0, 1.0, "kappa must"),
                                         (math.nan, 1.0, 1.0, "kappa must"),
                                         (2.0, math.nan, 1.0, "norms must"),
                                         (2.0, math.inf, 1.0, "norms must"),
                                         (2.0, 1.0, math.inf, "norms must")]:
        with pytest.raises(ValueError, match=match):
            compute_params(0.5, 0.1, 2, kappa, spectral, frob, p_override=10)
    with pytest.raises(ValueError, match="p_override"):
        compute_params(**REF, p_override=0)
    for xi in (-0.1, math.nan):
        with pytest.raises(ValueError, match="xi_override must be positive"):
            compute_params(**REF, xi_override=xi)


def example_constants():
    """kappa, spectral norm and Frobenius norm of
    gen_example2(200, 40, 10, 5, 1, 10, 3)."""
    a = gen_example2(200, 40, 10, 5.0, 1, 10, 3)
    _, _, spectral, kappa = oracle_facts(a)
    return kappa, spectral, float(np.sqrt((a * a).sum()))


EXAMPLE = example_constants()


def params_at(scale, **kw):
    kappa, spectral, frob = EXAMPLE
    return compute_params(0.5, 0.1, 5, kappa, math.ldexp(spectral, scale),
                          math.ldexp(frob, scale), **kw)


def derived(prm):
    return prm.omega, prm.theta, prm.p, prm.xi


def theta_upper_at(scale):
    kappa, spectral, frob = EXAMPLE
    return theta_upper(0.5, 5, kappa, math.ldexp(spectral, scale),
                       math.ldexp(frob, scale))


@pytest.mark.parametrize("scale", [-530, -520, -515, -510, -300, 100, 300,
                                   505])
@pytest.mark.parametrize("p_override", [None, 20])
def test_params_at_a_power_of_two_scale_are_the_unscaled_ones(scale,
                                                              p_override):
    # omega, theta, p and xi depend on the norms only through their ratio.
    # At scale 505 the squares of the example's norms overflow: theta came
    # out 0 and p = ceil(1 / (theta^2 delta)) divided by zero. From -510
    # down to -530 omega * spectral^2, and then the squares themselves, are
    # subnormal, and omega, theta, p and xi drifted from the unscaled values
    want = params_at(0, p_override=p_override)
    got = params_at(scale, p_override=p_override)
    assert derived(got) == derived(want)
    assert (got.spectral_norm, got.frob_norm) == (
        math.ldexp(EXAMPLE[1], scale), math.ldexp(EXAMPLE[2], scale))


@pytest.mark.parametrize("scale", [-530, -510, 300, 505, 510])
def test_theta_upper_at_a_power_of_two_scale_is_the_unscaled_one(scale):
    # at 505 the squares of the norms overflowed and theta_upper returned
    # (0.0, 0.0); at 510 it raised OverflowError; at -510 and -530 it
    # drifted, as compute_params did
    assert theta_upper_at(scale) == theta_upper_at(0)


@given(st.integers(-1000, 1000))
@example(-1000)
@example(1000)
def test_parameters_are_the_same_bits_at_any_scale(scale):
    assert theta_upper_at(scale) == theta_upper_at(0)
    assert derived(params_at(scale)) == derived(params_at(0))


@given(epsilon=st.floats(1e-3, 0.999), k=st.integers(1, 1000),
       kappa=st.floats(1.0, 1e4), ratio=st.floats(1.0, 1e4),
       mantissa=st.floats(0.5, 1.0, exclude_max=True),
       exponent=st.integers(-540, 450))
def test_parameter_formulas_match_the_literal_reference(
        epsilon, k, kappa, ratio, mantissa, exponent):
    # where every intermediate of the reference is a normal, finite
    # double, the library runs the formulas unscaled and gives the
    # reference's bits; exponents up to 450 keep every product well below
    # the largest double, short of where the library prescales
    spectral = math.ldexp(mantissa, exponent)
    frob = spectral * ratio
    want, intermediates = parameter_formulas_reference(epsilon, k, kappa,
                                                       spectral, frob)
    assume(all(sys.float_info.min <= x < math.inf for x in intermediates))
    assert theta_upper(epsilon, k, kappa, spectral, frob) == want[:2]
    prm = compute_params(epsilon, 0.1, k, kappa, spectral, frob)
    assert (prm.omega, prm.theta, prm.xi) == want
    assert prm.p == math.ceil(1.0 / (want[1] * want[1] * 0.1))


@pytest.mark.parametrize("args, match", [
    ((0.5, 5, 2.0, 0.0, 1.0), "norms must be positive and finite"),
    ((0.5, 5, 2.0, 1.0, 0.0), "norms must be positive and finite"),
    ((0.5, 5, 2.0, math.nan, 1.0), "norms must be positive and finite"),
    ((0.5, 5, 2.0, 1.0, math.inf), "norms must be positive and finite"),
    ((2.0, 5, 2.0, 1.0, 1.0), "epsilon must lie in"),
    ((0.5, 0, 2.0, 1.0, 1.0), "k must be a positive integer"),
    ((0.5, 10 ** 400, 2.0, 1.0, 1.0), "overflow")],
    ids=["zero-spectral", "zero-frob", "nan-spectral", "inf-frob",
         "epsilon-2", "k-0", "k-beyond-float"])
def test_theta_upper_refuses_bad_input(args, match):
    # each returned numbers, nan or 0 before the one evaluation checked
    # its input; a k beyond the float range raised OverflowError
    with pytest.raises(ValueError, match=match) as info:
        theta_upper(*args)
    assert "\n" not in str(info.value)
    with pytest.raises(ValueError, match=match):
        compute_params(args[0], 0.1, *args[1:])


@pytest.mark.parametrize("kappa, spectral, frob", [
    (1e200, 1.0, 1e200), (1.0, 1e-300, 1e300), (1e160, 1.0, 1.0)])
def test_params_whose_ratio_overflows_are_refused(kappa, spectral, frob):
    # kappa * frob / spectral so large that no scale of the norms keeps
    # the squares finite: one line, not a ZeroDivisionError or
    # OverflowError from the formulas
    with pytest.raises(ValueError, match="overflow") as info:
        compute_params(0.5, 0.1, 3, kappa, spectral, frob)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("kappa, spectral, frob, p_override, theta", [
    (1e100, 1.0, 1.0, None, None), (1e100, 1.0, 1.0, 20, None),
    (1.0, 1.0, 1.0, None, 1e-160)])
def test_params_whose_theta_underflows_are_refused(kappa, spectral, frob,
                                                   p_override, theta):
    # a huge kappa made theta 0, and p = ceil(1 / (theta^2 delta))
    # divided by zero; a theta of 1e-160 made p infinite: one line, not a
    # ZeroDivisionError or OverflowError
    with pytest.raises(ValueError, match="underflows the parameter") as info:
        compute_params(0.5, 0.1, 1, kappa, spectral, frob,
                       p_override=p_override, theta=theta)
    assert "\n" not in str(info.value)


def test_params_of_tiny_norms_are_those_at_any_power_of_two_scale():
    # the squares of 1e-170 underflow, which was refused as "theta=0.0
    # underflows the parameter formulas"; the formulas run on both norms
    # times 2^564, so the result is the bits of both norms times any power
    # of two. 1e-170 is not a power of two: the unit norms' values agree
    # to an ulp, and their p to 1
    got = derived(compute_params(0.5, 0.1, 1, 1.0, 1e-170, 1e-170))
    for scale in (-400, 100, 300, 564, 1000):
        tiny = math.ldexp(1e-170, scale)
        assert derived(compute_params(0.5, 0.1, 1, 1.0, tiny, tiny)) == got
    unit = derived(compute_params(0.5, 0.1, 1, 1.0, 1.0, 1.0))
    assert got == pytest.approx(unit, rel=1e-15, abs=1)


def test_params_whose_theta_squared_overflows_draw_once():
    # a frob_norm far below spectral_norm, which no matrix has, makes
    # theta's upper end about 1.8e296: p = ceil(1 / (theta^2 delta)) came
    # out 0 where theta^2 delta overflows
    prm = compute_params(0.5, 0.1, 1, 1.0, 1.0, 1e-150)
    assert prm.theta > 1e296
    assert prm.p == 1


def test_overrides_and_derived_properties():
    prm = compute_params(**REF, p_override=64, xi_override=0.25)
    assert prm.p == 64
    assert prm.practical
    assert prm.xi_effective == 0.25
    assert prm.beta == pytest.approx(prm.omega / 7.0, rel=1e-14, abs=0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        prm.p = 1


@pytest.fixture
def small_store():
    return MatrixSampleStore([[1.0, 2.0], [3.0, 4.0]])


def test_sample_columns_exact_probs(small_store):
    cols, probs, col_sq = sample_columns(small_store, 40, stream(3))
    expected = np.array([10.0, 20.0]) / 30.0
    np.testing.assert_allclose(probs, expected[cols], rtol=1e-14)
    np.testing.assert_allclose(col_sq, 30.0 * expected[cols], rtol=1e-14)
    assert cols.shape == (40,)


def test_sample_columns_skip_zero_column():
    store = MatrixSampleStore([[1.0, 0.0, 2.0], [1.0, 0.0, 0.0]])
    cols, _, _ = sample_columns(store, 200, stream(4))
    assert 1 not in set(cols.tolist())


def test_sample_columns_errors(small_store):
    with pytest.raises(ValueError, match="positive"):
        sample_columns(small_store, 0, stream(0))
    with pytest.raises(ValueError, match="zero matrix"):
        sample_columns(MatrixSampleStore(np.zeros((2, 2))), 1, stream(0))


@pytest.mark.parametrize("p", [True, 2.5, 0, -1])
def test_draw_counts_are_positive_integers(small_store, p):
    # one rule for a count, svd.positive_int's, in both draws
    with pytest.raises(ValueError) as info:
        sample_columns(small_store, p, stream(0))
    assert str(info.value) == "p must be a positive integer"
    with pytest.raises(ValueError) as info:
        sample_rows(small_store, [0], [10.0], p, stream(0))
    assert str(info.value) == "p must be a positive integer"
    assert small_store.queries == 0


def test_whole_float_draw_count_draws_as_its_int(small_store):
    got_rng, want_rng = stream(6), stream(6)
    got = sample_columns(small_store, 8.0, got_rng)
    want = sample_columns(small_store, 8, want_rng)
    got += sample_rows(small_store, got[0], got[2], 8.0, got_rng)
    want += sample_rows(small_store, want[0], want[2], 8, want_rng)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)
    assert np.array_equal(got_rng.random(2), want_rng.random(2))


def test_sample_rows_mixture_probs(small_store):
    cols = np.array([0, 1, 1])
    col_sq = np.array([10.0, 20.0, 20.0])
    rows, probs, block = sample_rows(small_store, cols, col_sq, 50,
                                     stream(5))
    a = small_store.to_array()
    mixture = (a[:, cols] ** 2 / col_sq).sum(axis=1) / 3.0
    np.testing.assert_allclose(probs, mixture[rows], rtol=1e-12)
    assert probs.sum() > 0
    assert np.array_equal(block, a[np.ix_(rows, cols)])


@given(st.integers(0, 5000), st.integers(1, 200), st.integers(1, 150))
def test_row_probs_are_bitwise_per_row_sums(seed, m, p):
    # one gather and a row-wise sum, bitwise each drawn row's own sum
    rng = stream(seed)
    a = standard_normal(rng, (m, 12)) * 10.0 ** rng.integers(-5, 5, (m, 1))
    store = MatrixSampleStore(a)
    cols, _, col_sq = sample_columns(store, p, rng)
    rows, probs, block = sample_rows(store, cols, col_sq, p, rng)
    assert np.array_equal(col_sq, [store.col_sq_norm(j) for j in cols])
    for i, prob, drawn in zip(rows, probs, block):
        vals = store.block_values([i], cols)[0]
        assert prob == float((vals * vals / col_sq).sum() / cols.size)
        assert np.array_equal(drawn, vals)


def test_sample_rows_zero_column_rejected():
    store = MatrixSampleStore([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="zero column"):
        sample_rows(store, np.array([1]), [store.col_sq_norm(1)], 3,
                    stream(0))


def test_sample_rows_needs_one_norm_per_column(small_store):
    # one norm for two columns would broadcast into wrong probabilities
    for col_sq in ([10.0], [10.0, 20.0, 20.0]):
        with pytest.raises(ValueError, match="one squared norm per column"):
            sample_rows(small_store, [0, 1], col_sq, 3, stream(0))


def test_sample_rows_refuses_column_indices_that_are_not_whole():
    # a cast to int64 truncated cols + 0.7 to cols, and drew from them
    store = MatrixSampleStore(gen_example2(60, 12, 4, 2.0, 1, 10, 7))
    cols, _, col_sq = sample_columns(store, 9, stream(2))
    store.queries = 0
    rng = stream(3)
    with pytest.raises(ValueError, match="whole number"):
        sample_rows(store, cols + 0.7, col_sq, 9, rng)
    assert store.queries == 0
    assert np.array_equal(rng.random(4), stream(3).random(4))


def test_sketch_preserves_frobenius_norm():
    a = standard_normal(stream(19), (12, 7))
    store = MatrixSampleStore(a)
    fro = math.sqrt(store.sq_frobenius)
    rng = stream(20)
    cols, col_probs, col_sq = sample_columns(store, 30, rng)
    s = dense_s(a, cols, col_probs)
    assert math.sqrt((s * s).sum()) == pytest.approx(fro, rel=1e-12)
    rows, row_probs, _ = sample_rows(store, cols, col_sq, 30, rng)
    w = dense_w(s, rows, row_probs)
    assert math.sqrt((w * w).sum()) == pytest.approx(fro, rel=1e-8)


def test_entry_and_row_match_dense_s():
    a = standard_normal(stream(23), (6, 5))
    store = MatrixSampleStore(a)
    prm = compute_params(**REF, p_override=9)
    sketch = qisvd(store, prm, stream(24))
    s = dense_s(a, sketch.col_indices, sketch.col_probs)
    assert s_rows(store, sketch, [2])[0, 4] == pytest.approx(s[2, 4],
                                                            rel=1e-14)
    np.testing.assert_allclose(s_rows(store, sketch, [3]), s[3:4], rtol=1e-14)


def test_s_matrix_peak_allocation_stays_near_its_output():
    # a tall store gathered at few columns must not copy all m x n entries
    # on the way to its m x p output
    store = MatrixSampleStore(gen_example1(20000, 100, 0, 40))
    sketch, _ = draw_sketch(store, 20, stream(41))
    tracemalloc.start()
    try:
        s = s_matrix(store, sketch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.shape == (20000, 20)
    assert peak < 3 * s.nbytes


def test_build_w_matches_dense_oracle():
    a = standard_normal(stream(25), (8, 6))
    store = MatrixSampleStore(a)
    rng = stream(26)
    cols, col_probs, col_sq = sample_columns(store, 12, rng)
    rows, row_probs, block = sample_rows(store, cols, col_sq, 12, rng)
    sketch = SketchDescription(col_indices=cols, col_probs=col_probs,
                               row_indices=rows, row_probs=row_probs,
                               frob_norm=math.sqrt(store.sq_frobenius))
    s = dense_s(a, cols, col_probs)
    np.testing.assert_allclose(build_w(sketch, block),
                               dense_w(s, rows, row_probs), rtol=1e-12)


def test_build_w_reads_nothing_and_checks_probabilities_first():
    a = standard_normal(stream(27), (9, 5))
    store = MatrixSampleStore(a)
    rng = stream(28)
    cols, col_probs, col_sq = sample_columns(store, 7, rng)
    rows, row_probs, block = sample_rows(store, cols, col_sq, 7, rng)
    sketch = SketchDescription(col_indices=cols, col_probs=col_probs,
                               row_indices=rows, row_probs=row_probs,
                               frob_norm=math.sqrt(store.sq_frobenius))
    store.queries = 0
    w = build_w(sketch, block)
    assert store.queries == 0
    plain = [a[i, sketch.col_indices] * sketch.col_scale / np.sqrt(7 * prob)
             for i, prob in zip(sketch.row_indices, sketch.row_probs)]
    assert np.array_equal(w, np.array(plain))
    # draw_sketch makes the same draws and the same W
    drawn, drawn_w = draw_sketch(store, 7, stream(28))
    assert np.array_equal(drawn.row_indices, rows)
    assert np.array_equal(drawn_w, w)
    # the check comes before the block is touched: with no block at all,
    # it still raises
    sketch.row_probs[-1] = 0.0
    with pytest.raises(ValueError, match="zero mixture probability"):
        build_w(sketch, None)


def test_qisvd_rank_one_top_sigma():
    x = np.array([1.0, -2.0])
    y = np.array([3.0, 4.0, 0.0])
    a = np.outer(x, y)
    store = MatrixSampleStore(a)
    spectral = math.sqrt(5.0) * 5.0
    prm = compute_params(0.5, 0.1, 1, 1.0, spectral,
                         math.sqrt(store.sq_frobenius), p_override=16)
    sketch = qisvd(store, prm, stream(30))
    assert sketch.sigma.size == 1
    assert sketch.sigma[0] == pytest.approx(spectral, rel=1e-8)
    assert sketch.p == 16
    assert sketch.frob_norm == pytest.approx(spectral, rel=1e-12)


def test_qisvd_sigma_sorted_and_v_shape():
    a = standard_normal(stream(31), (20, 9))
    store = MatrixSampleStore(a)
    prm = compute_params(0.5, 0.1, 4, 1.0, 1.0, 1.0, p_override=25)
    sketch = qisvd(store, prm, stream(32))
    assert sketch.sigma.size == 4
    assert np.all(np.diff(sketch.sigma) <= 0.0)
    assert sketch.v.shape == (25, 4)
    assert sketch.k == 4
    np.testing.assert_allclose(sketch.col_scale,
                               1.0 / np.sqrt(25 * sketch.col_probs),
                               rtol=1e-14)


def test_qisvd_rejects_theoretical_p():
    store = MatrixSampleStore(np.eye(2))
    prm = compute_params(**REF)
    with pytest.raises(ValueError, match="counted-sample diagnostics"):
        qisvd(store, prm, stream(0))


@pytest.mark.parametrize("m, n, rank, p, k, seed", [
    (30, 12, 12, 40, 8, 40),
    (50, 6, 6, 24, 6, 41),
    (40, 20, 5, 30, 10, 42),
    (200, 40, 40, 60, 20, 43),
    (8, 40, 8, 30, 6, 46),
], ids=["square", "six-columns", "rank-5", "tall", "wide"])
def test_qisvd_merged_core_matches_unmerged_lapack(m, n, rank, p, k, seed):
    rng = stream(seed)
    a = standard_normal(rng, (m, rank)) @ standard_normal(rng, (rank, n))
    store = MatrixSampleStore(a)
    prm = compute_params(0.5, 0.1, k, 1.0, 1.0, 1.0, p_override=p)
    sketch = qisvd(store, prm, stream(seed + 100))
    assert np.unique(sketch.col_indices).size < p  # draws repeat
    # the same stream draws the same sketch and W
    _, w = draw_sketch(store, p, stream(seed + 100))
    _, sigma, vt = np.linalg.svd(w)
    keep = min(k, int((sigma > 1e-12 * sigma[0]).sum()))
    assert sketch.sigma.size == keep
    np.testing.assert_allclose(sketch.sigma, sigma[:keep], rtol=0.0,
                               atol=1e-12 * sigma[0])
    assert np.abs(sketch.v.T @ sketch.v - np.eye(keep)).max() < 1e-12
    unmerged = dataclasses.replace(sketch, v=vt[:keep].T, sigma=sigma[:keep])
    np.testing.assert_allclose(qisls_all(store, sketch, prm).approx,
                               qisls_all(store, unmerged, prm).approx,
                               rtol=0.0, atol=1e-12)


def test_qisvd_k_ranges_over_p_not_the_merged_side():
    store = MatrixSampleStore(standard_normal(stream(44), (30, 5)))
    prm = compute_params(0.5, 0.1, 9, 1.0, 1.0, 1.0, p_override=12)
    sketch = qisvd(store, prm, stream(45))
    # k = 9 is above the merged side (at most 5) and at most p: it runs
    assert sketch.sigma.size == min(np.unique(sketch.row_indices).size,
                                    np.unique(sketch.col_indices).size)
    assert sketch.v.shape == (12, sketch.sigma.size)
    too_big = dataclasses.replace(prm, k=13)
    with pytest.raises(ValueError, match=r"k=13 out of range 1\.\.12"):
        qisvd(store, too_big, stream(45))


def test_factor_core_converges_in_few_sweeps(monkeypatch):
    # the factor-core benchmark's shape: plain sweeps on its 100x100 W
    # took 26 to 31
    sweeps = []
    real = levsketch.sketch.svd_dense

    def counting(matrix, **kw):
        res = real(matrix, **kw)
        sweeps.append(res.sweeps)
        return res

    monkeypatch.setattr(levsketch.sketch, "svd_dense", counting)
    store = MatrixSampleStore(gen_example2(2000, 500, 100, 1.0, 1, 1000, 3))
    prm = compute_params(0.5, 0.1, 88, 1.0, 1.0, 1.0, p_override=100)
    for seed in range(3):
        qisvd(store, prm, stream(seed))
    assert len(sweeps) == 3
    assert max(sweeps) <= 12


def test_sketch_csv_round_trip(tmp_path):
    a = standard_normal(stream(33), (10, 6))
    store = MatrixSampleStore(a)
    prm = compute_params(0.5, 0.1, 3, 1.0, 1.0, 1.0, p_override=8)
    sketch = qisvd(store, prm, stream(34))
    path = tmp_path / "sketch.csv"
    write_sketch_csv(path, sketch)
    back = read_sketch_csv(path)
    np.testing.assert_array_equal(back.col_indices, sketch.col_indices)
    np.testing.assert_array_equal(back.col_probs, sketch.col_probs)
    np.testing.assert_array_equal(back.row_indices, sketch.row_indices)
    np.testing.assert_array_equal(back.row_probs, sketch.row_probs)
    np.testing.assert_array_equal(back.v, sketch.v)
    np.testing.assert_array_equal(back.sigma, sketch.sigma)
    assert back.frob_norm == sketch.frob_norm


def test_sketch_csv_output_is_pinned(tmp_path):
    # a seeded sketch file, pinned byte for byte
    store = MatrixSampleStore(standard_normal(stream(33), (10, 6)))
    prm = compute_params(0.5, 0.1, 3, 1.0, 1.0, 1.0, p_override=8)
    path = tmp_path / "sketch.csv"
    write_sketch_csv(path, qisvd(store, prm, stream(34)))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == ("00e39dbf5a813578a72a0bd758147e08"
                      "617cd68d5fbfce0064b181935f312122")


@given(st.integers(0, 5000), st.integers(2, 10), st.integers(2, 8),
       st.integers(1, 30))
def test_frobenius_preserved_property(seed, m, n, p):
    a = standard_normal(stream(seed), (m, n))
    store = MatrixSampleStore(a)
    rng = stream(seed + 1)
    cols, col_probs, col_sq = sample_columns(store, p, rng)
    s = dense_s(a, cols, col_probs)
    assert (s * s).sum() == pytest.approx(store.sq_frobenius, rel=1e-10)
    rows, row_probs, _ = sample_rows(store, cols, col_sq, p, rng)
    w = dense_w(s, rows, row_probs)
    assert (w * w).sum() == pytest.approx(store.sq_frobenius, rel=1e-8)


def test_sample_rows_never_lands_on_zero_mass_tail():
    store = MatrixSampleStore([[1.0, 1.0], [2.0, 1.0], [0.0, 1.0],
                               [0.0, 1.0]])
    rows, probs, _ = sample_rows(store, [0], [store.col_sq_norm(0)], 1,
                                 TopDraw())
    np.testing.assert_array_equal(rows, [1])
    assert probs[0] > 0.0


def _cut_before(text, marker):
    return text[:text.index(marker)]


def _first_line(section, value, at=0):
    """An edit replacing field ``at`` of the first line of ``[section]``
    with ``value``."""
    def edit(text):
        head, _, rest = text.partition(f"[{section}]\n")
        line, _, tail = rest.partition("\n")
        fields = line.split(",")
        fields[at] = value
        return f"{head}[{section}]\n{','.join(fields)}\n{tail}"
    return edit


def _frob_norm(value):
    return lambda t: f"# frob_norm={value}\n" + t.partition("\n")[2]


@pytest.mark.parametrize("cut", [
    lambda t: _cut_before(t, "[rows]"),
    lambda t: _cut_before(t, "[V]"),
    lambda t: _cut_before(t, "[sigma]"),
    lambda t: t[:t.rindex(",")] + "\n",
    lambda t: t.replace("# frob_norm=", "# other="),
    lambda t: t.replace("[cols]\n", "[cols]\n1,x\n"),
    lambda t: t.replace("# frob_norm=", "# frob_norm=x"),
    _first_line("cols", "2.7"),
    _first_line("cols", "0"),
    _first_line("rows", "-3"),
    _first_line("rows", "inf"),
    _first_line("cols", "0.0", at=1),
    _first_line("rows", "-0.25", at=1),
    _first_line("cols", "nan", at=1),
    _first_line("sigma", "nan"),
    _first_line("sigma", "0.0"),
    _first_line("sigma", "-1.0", at=2),
    _first_line("V", "inf", at=1),
    _first_line("V", "nan"),
    _frob_norm("nan"),
    _frob_norm("0.0"),
    _frob_norm("inf"),
], ids=["no-rows", "no-V", "no-sigma", "short-sigma", "no-frob-norm",
        "non-numeric-col-prob", "non-numeric-frob-norm", "fractional-col",
        "zero-col", "negative-row", "infinite-row", "zero-col-prob",
        "negative-row-prob", "nan-col-prob", "nan-sigma", "zero-sigma",
        "negative-sigma", "infinite-V", "nan-V", "nan-frob-norm",
        "zero-frob-norm", "infinite-frob-norm"])
def test_truncated_sketch_csv_is_value_error(tmp_path, cut):
    store = MatrixSampleStore(standard_normal(stream(33), (10, 6)))
    prm = compute_params(0.5, 0.1, 3, 1.0, 1.0, 1.0, p_override=8)
    path = tmp_path / "sketch.csv"
    write_sketch_csv(path, qisvd(store, prm, stream(34)))
    path.write_text(cut(path.read_text()))
    with pytest.raises(ValueError, match="sketch file") as info:
        read_sketch_csv(path)
    assert "\n" not in str(info.value)


def test_sketch_csv_data_before_its_first_section_is_refused(tmp_path):
    store = MatrixSampleStore(standard_normal(stream(33), (10, 6)))
    prm = compute_params(0.5, 0.1, 3, 1.0, 1.0, 1.0, p_override=8)
    path = tmp_path / "sketch.csv"
    write_sketch_csv(path, qisvd(store, prm, stream(34)))
    path.write_text(path.read_text().replace("[cols]\n", "1,0.5\n[cols]\n"))
    with pytest.raises(ValueError) as info:
        read_sketch_csv(path)
    assert str(info.value) == (
        f"malformed sketch file {path}: data outside the [cols], [rows], "
        "[V], [sigma] sections")
