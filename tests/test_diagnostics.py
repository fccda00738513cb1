"""Count-collapsed sketch evaluation and concentration measurements."""
import math
from fractions import Fraction

import numpy as np
import pytest

from levsketch import (MatrixSampleStore, compute_params,
                       concentration_ratios, counted_sketch_spectrum,
                       deviation_bound, draw_sketch, estimate_inner,
                       gen_example1, gen_example2, oracle_facts,
                       orthogonality_defect, qisvd, s_matrix,
                       sigma_min_bound, standard_normal, stream,
                       trial_stream)


def test_deviation_bound_values():
    assert deviation_bound(0.5, 100) == pytest.approx(0.04, rel=1e-14,
                                                      abs=0.0)
    assert deviation_bound(1.0, 1) == 1.0
    assert deviation_bound(0.1, 10) == 1.0
    with pytest.raises(ValueError):
        deviation_bound(0.0, 10)
    with pytest.raises(ValueError):
        deviation_bound(0.5, 0)
    with pytest.raises(ValueError, match="theta > 0"):
        deviation_bound(float("nan"), 5)


def test_deviation_bound_of_an_underflowing_theta_is_clipped():
    # theta^2 p underflows to 0: 1 / 0 raised ZeroDivisionError
    assert deviation_bound(1e-200, 5) == 1.0
    assert deviation_bound(5e-324, 10 ** 6) == 1.0


@pytest.mark.parametrize("theta, p, bound", [
    # p beyond the float range: theta^2 p raised OverflowError
    (0.5, 10 ** 400, 0.0),
    (1e-200, 10 ** 401, 1 / (Fraction(1e-200) ** 2 * 10 ** 401)),
    (1.0, 2 ** 1030, 2.0 ** -1030),
    # theta^2 p overflows a double: the bound is a subnormal, not 1 / inf
    (1e154, 2, 1 / (Fraction(1e154) ** 2 * 2)),
    (2.0 ** 600, 1, 0.0),
    # a subnormal theta^2 has lost bits: the float formula gives ...903
    (1e-154, 101 * 10 ** 306, 0.9900990099009902),
    # an int theta^2 p beyond the float range raised OverflowError
    (10 ** 160, 5, 1 / (Fraction(10 ** 160) ** 2 * 5)),
    (10 ** 400, 5, 0.0),
    (10 ** 154, 2, 1 / (Fraction(10 ** 154) ** 2 * 2)),
    (3, 10 ** 400, 0.0),
], ids=["p-401-digits", "tiny-theta-p-402-digits", "p-2^1030",
        "product-overflows", "square-overflows", "square-subnormal",
        "int-theta-160-digits", "int-theta-400-digits",
        "int-product-overflows", "int-theta-p-401-digits"])
def test_deviation_bound_beyond_the_float_range_is_correctly_rounded(
        theta, p, bound):
    assert deviation_bound(theta, p) == float(bound)


def test_deviation_bound_keeps_the_float_formula_in_range():
    # the two roundings of 1.0 / (theta * theta * p) stay where nothing
    # leaves the normal range
    for theta, p in [(0.5, 7), (0.75, 50), (1e-150, 10 ** 301),
                     (1e150, 1)]:
        assert deviation_bound(theta, p) == 1.0 / (theta * theta * p)


@pytest.mark.parametrize("theta", [math.inf, -math.inf, -0.5])
def test_deviation_bound_refuses_theta_outside_zero_to_inf(theta):
    # an infinite theta gave the bound 0.0
    with pytest.raises(ValueError, match="theta > 0") as info:
        deviation_bound(theta, 5)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("p", [2.5, True, 0, -3, math.nan])
def test_deviation_bound_takes_p_as_a_positive_integer(p):
    # 2.5 and True gave the bound 1.0
    with pytest.raises(ValueError, match="p must be a positive integer"):
        deviation_bound(0.5, p)
    assert deviation_bound(0.5, 100.0) == deviation_bound(0.5, 100)


def test_sigma_min_bound_formula():
    prm = compute_params(0.5, 0.1, 1, 1.0, 1.0, 1.0)
    q = 7.0
    expected = math.sqrt(q / (q + 2.0 * prm.omega))
    assert sigma_min_bound(prm) == pytest.approx(expected, rel=1e-14)
    scaled = compute_params(0.5, 0.1, 2, 4.0, 8.0, 16.0)
    assert sigma_min_bound(scaled) == pytest.approx(
        math.sqrt(11.0 / (11.0 + 2.0 * scaled.omega)) * 2.0, rel=1e-14)


def test_counted_rank_one_recovers_spectral_norm():
    a = np.outer([3.0, -4.0, 0.0], [1.0, 2.0])
    sigma, defect = counted_sketch_spectrum(a, 10_000, 1, stream(1))
    assert sigma.shape == (1,)
    assert sigma[0] == pytest.approx(5.0 * math.sqrt(5.0), rel=1e-8)
    assert defect <= 1e-8


def test_counted_validation():
    with pytest.raises(ValueError, match="zero matrix"):
        counted_sketch_spectrum(np.zeros((2, 2)), 10, 1, stream(0))
    with pytest.raises(ValueError, match="positive"):
        counted_sketch_spectrum(np.eye(2), 0, 1, stream(0))
    # p = 2.5 took 2 draws weighted by p P_j, True ran as p = 1, k = 0
    # returned no singular value and k = -1 ended in a numpy error
    for p, k, name in ((2.5, 1, "p"), (True, 1, "p"), (-1, 1, "p"),
                       (4, 2.5, "k"), (4, True, "k"), (4, 0, "k"),
                       (4, -1, "k")):
        rng = stream(2)
        with pytest.raises(ValueError, match=f"^{name} must be a positive "
                           "integer$"):
            counted_sketch_spectrum(np.eye(3), p, k, rng)
        assert np.array_equal(rng.random(4), stream(2).random(4))


@pytest.mark.parametrize("scale", [-300, 300, 500, 600])
@pytest.mark.parametrize("p", [20, 100_000, 4_814_732_709])
@pytest.mark.parametrize("a", [gen_example2(200, 40, 10, 5.0, 1, 10, 3),
                               gen_example2(300, 50, 20, 100.0, 1, 1000, 5)],
                         ids=["example2-small", "example2-wide"])
def test_counted_spectrum_is_bitwise_the_same_at_any_scale(a, p, scale):
    # sigma scales by exactly 2^s and the defect is scale-free: sigma's
    # last bit moved at s = -300, 300 and 500, and at s = 600 the column
    # masses overflowed into NaN probabilities
    sigma, defect = counted_sketch_spectrum(a, p, 5, stream(12))
    got = counted_sketch_spectrum(np.ldexp(a, scale), p, 5, stream(12))
    assert np.array_equal(got[0], np.ldexp(sigma, scale))
    assert got[1] == defect


def layer_outputs(a, scale):
    """What each layer gives on A times 2^scale, divided back by the power
    of 2^scale it carries: W, the draws, S, the defect of the implied U,
    sigma_min_bound, an inner product estimate and the counted defect."""
    _, _, spectral, kappa = oracle_facts(a)
    frob = float(np.sqrt((a * a).sum()))
    scaled = np.ldexp(a, scale)
    store = MatrixSampleStore(scaled)
    sketch, w = draw_sketch(store, 20, trial_stream(3, 0))
    params = compute_params(0.5, 0.1, 5, kappa, math.ldexp(spectral, scale),
                            math.ldexp(frob, scale), p_override=20)
    full = qisvd(store, params, trial_stream(3, 1))
    inner = estimate_inner(scaled[:, 0], a[:, 1], 0.2, 0.1, stream(5))
    return [np.ldexp(w, -scale), sketch.col_indices, sketch.col_probs,
            sketch.row_indices, sketch.row_probs,
            np.ldexp(s_matrix(store, sketch), -scale),
            orthogonality_defect(store, full),
            math.ldexp(sigma_min_bound(params), -scale),
            math.ldexp(inner, -scale),
            counted_sketch_spectrum(scaled, 20, 5, stream(12))[1]]


def test_every_layer_is_the_same_bits_at_a_power_of_two_scale():
    # the draws, the scale-free values and the scaled ones divided back are
    # the s = 0 bits at each scale where the store takes A
    a = gen_example2(200, 40, 10, 5.0, 1, 10, 3)
    want = layer_outputs(a, 0)
    for scale in (-500, -300, -100, 100, 300, 400):
        for got, ref in zip(layer_outputs(a, scale), want, strict=True):
            assert np.array_equal(got, ref), scale


def test_counted_handles_astronomical_p():
    # far beyond anything the dense p-by-p core could hold
    a = standard_normal(stream(3), (12, 6))
    sigma, defect = counted_sketch_spectrum(a, 10_000_000_000, 3, stream(4))
    ref = np.linalg.svd(a, compute_uv=False)
    np.testing.assert_allclose(sigma, ref[:3], rtol=1e-4)
    assert defect <= 1e-3


def test_counted_agrees_with_dense_route_on_average():
    # same distribution, two independent implementations: compare the mean
    # top singular value over repeated trials
    a = standard_normal(stream(6), (10, 6))
    store = MatrixSampleStore(a)
    prm = compute_params(0.5, 0.1, 3, 1.0, 1.0, 1.0, p_override=50)
    counted = [counted_sketch_spectrum(a, 50, 3, trial_stream(900, t))[0][0]
               for t in range(30)]
    dense = [qisvd(store, prm, trial_stream(901, t)).sigma[0]
             for t in range(30)]
    assert np.mean(counted) == pytest.approx(np.mean(dense), rel=0.05)


def test_concentration_ratios_modest_at_moderate_p():
    store = MatrixSampleStore(standard_normal(stream(8), (20, 10)))
    ratios = np.array([concentration_ratios(store, 50, trial_stream(44, t))
                       for t in range(20)])
    assert np.all(ratios >= 0.0)
    # calibrated: max over 200 trials is 0.24 / 0.22
    assert ratios[:, 0].max() <= 0.5
    assert ratios[:, 1].max() <= 0.5


def test_concentration_ratio_shrinks_with_p():
    store = MatrixSampleStore(standard_normal(stream(9), (15, 8)))
    small = np.mean([concentration_ratios(store, 5, trial_stream(70, t))[0]
                     for t in range(25)])
    large = np.mean([concentration_ratios(store, 320, trial_stream(71, t))[0]
                     for t in range(25)])
    assert large < small


@pytest.mark.parametrize("scale", [-300, -100, 100, 300])
@pytest.mark.parametrize("a", [gen_example2(200, 40, 10, 5.0, 1, 10, 3),
                               gen_example1(400, 30, 5, 2)],
                         ids=["example2", "example1"])
def test_concentration_ratios_are_bitwise_the_same_at_any_scale(a, scale):
    # both ratios are scale-free: times 2^300 the squares overflowed to
    # (inf, inf), and times 2^-300 they underflowed to (0.0, 0.0)
    plain = MatrixSampleStore(a)
    scaled = MatrixSampleStore(np.ldexp(a, scale))
    for t in range(5):
        assert (concentration_ratios(scaled, 20, trial_stream(60, t))
                == concentration_ratios(plain, 20, trial_stream(60, t)))
