"""Parameter derivation and the two-stage column/row sketch."""
import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import levsketch.sketch
from levsketch import (MatrixSampleStore, build_w, compute_params,
                       draw_sketch, gen_example1, gen_example2, qisls_all,
                       qisvd, read_sketch_csv, sample_columns, sample_rows,
                       standard_normal, stream, theta_upper,
                       write_sketch_csv)
from levsketch.sketch import s_matrix, s_rows

from oracles import dense_s, dense_w
from test_matrix_store import TopDraw

# reference parameter set: unit norms, kappa 1, k 1
REF = dict(epsilon=0.5, delta=0.1, k=1, kappa=1.0,
           spectral_norm=1.0, frob_norm=1.0)


def test_reference_omega_theta_p():
    prm = compute_params(**REF)
    assert prm.omega == pytest.approx(1.0 / 3136.0, rel=1e-14)
    assert prm.theta == pytest.approx(4.554978591600619e-5, rel=1e-12)
    assert prm.p == 4819781161
    assert not prm.practical


def test_reference_xi():
    prm = compute_params(0.5, 0.1, 20, 10.0, 1.0, math.sqrt(30.0))
    assert prm.xi == pytest.approx(4.384442716124085e-7, rel=1e-12)


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
    with pytest.raises(ValueError, match="xi_override"):
        compute_params(**REF, xi_override=-0.1)


def test_overrides_and_derived_properties():
    prm = compute_params(**REF, p_override=64, xi_override=0.25)
    assert prm.p == 64
    assert prm.practical
    assert prm.xi_effective == 0.25
    assert prm.beta == pytest.approx(prm.omega / 7.0, rel=1e-14)
    with pytest.raises(dataclasses.FrozenInstanceError):
        prm.p = 1


@pytest.fixture
def small_store():
    return MatrixSampleStore([[1.0, 2.0], [3.0, 4.0]])


def test_sample_columns_exact_probs(small_store):
    cols, probs = sample_columns(small_store, 40, stream(3))
    expected = np.array([10.0, 20.0]) / 30.0
    np.testing.assert_allclose(probs, expected[cols], rtol=1e-14)
    assert cols.shape == (40,)


def test_sample_columns_skip_zero_column():
    store = MatrixSampleStore([[1.0, 0.0, 2.0], [1.0, 0.0, 0.0]])
    cols, _ = sample_columns(store, 200, stream(4))
    assert 1 not in set(cols.tolist())


def test_sample_columns_errors(small_store):
    with pytest.raises(ValueError, match="positive"):
        sample_columns(small_store, 0, stream(0))
    with pytest.raises(ValueError, match="zero matrix"):
        sample_columns(MatrixSampleStore(np.zeros((2, 2))), 1, stream(0))


def test_sample_rows_mixture_probs(small_store):
    cols = np.array([0, 1, 1])
    rows, probs = sample_rows(small_store, cols, 50, stream(5))
    a = small_store.to_array()
    col_sq = np.array([10.0, 20.0, 20.0])
    mixture = (a[:, cols] ** 2 / col_sq).sum(axis=1) / 3.0
    np.testing.assert_allclose(probs, mixture[rows], rtol=1e-12)
    assert probs.sum() > 0


@given(st.integers(0, 5000), st.integers(1, 200), st.integers(1, 150))
def test_row_probs_are_bitwise_per_row_sums(seed, m, p):
    # one gather and a row-wise sum, bitwise each drawn row's own sum
    rng = stream(seed)
    a = standard_normal(rng, (m, 12)) * 10.0 ** rng.integers(-5, 5, (m, 1))
    store = MatrixSampleStore(a)
    cols, _ = sample_columns(store, p, rng)
    rows, probs = sample_rows(store, cols, p, rng)
    col_sq = np.array([store.col_sq_norm(j) for j in cols])
    for i, prob in zip(rows, probs):
        vals = store.block_values([i], cols)[0]
        assert prob == float((vals * vals / col_sq).sum() / cols.size)


def test_sample_rows_zero_column_rejected():
    store = MatrixSampleStore([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="zero column"):
        sample_rows(store, np.array([1]), 3, stream(0))


def test_sketch_preserves_frobenius_norm():
    a = standard_normal(stream(19), (12, 7))
    store = MatrixSampleStore(a)
    fro = math.sqrt(store.sq_frobenius)
    rng = stream(20)
    cols, col_probs = sample_columns(store, 30, rng)
    s = dense_s(a, cols, col_probs)
    assert math.sqrt((s * s).sum()) == pytest.approx(fro, rel=1e-12)
    rows, row_probs = sample_rows(store, cols, 30, rng)
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
    sketch = draw_sketch(store, 20, stream(41))
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
    cols, col_probs = sample_columns(store, 12, rng)
    rows, row_probs = sample_rows(store, cols, 12, rng)
    from levsketch import SketchDescription
    sketch = SketchDescription(col_indices=cols, col_probs=col_probs,
                               row_indices=rows, row_probs=row_probs,
                               frob_norm=math.sqrt(store.sq_frobenius))
    s = dense_s(a, cols, col_probs)
    np.testing.assert_allclose(build_w(store, sketch),
                               dense_w(s, rows, row_probs), rtol=1e-12)


def test_build_w_reads_p_squared_and_checks_probabilities_first():
    a = standard_normal(stream(27), (9, 5))
    store = MatrixSampleStore(a)
    sketch = draw_sketch(store, 7, stream(28))
    store.queries = 0
    w = build_w(store, sketch)
    assert store.queries == 7 * 7
    plain = [a[i, sketch.col_indices] * sketch.col_scale / np.sqrt(7 * prob)
             for i, prob in zip(sketch.row_indices, sketch.row_probs)]
    assert np.array_equal(w, np.array(plain))
    sketch.row_probs[-1] = 0.0
    store.queries = 0
    with pytest.raises(ValueError, match="zero mixture probability"):
        build_w(store, sketch)
    assert store.queries == 0


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
], ids=["square", "six-columns", "rank-5", "tall"])
def test_qisvd_merged_core_matches_unmerged_lapack(m, n, rank, p, k, seed):
    rng = stream(seed)
    a = standard_normal(rng, (m, rank)) @ standard_normal(rng, (rank, n))
    store = MatrixSampleStore(a)
    prm = compute_params(0.5, 0.1, k, 1.0, 1.0, 1.0, p_override=p)
    sketch = qisvd(store, prm, stream(seed + 100))
    assert np.unique(sketch.col_indices).size < p  # draws repeat
    _, sigma, vt = np.linalg.svd(build_w(store, sketch))
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

    def counting(matrix):
        res = real(matrix)
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
    assert digest == ("e218a72ff5cac8f98b449ac3e32c19d1"
                      "7f5e5a3390c920d1f2273a472ca9dc0c")


@given(st.integers(0, 5000), st.integers(2, 10), st.integers(2, 8),
       st.integers(1, 30))
def test_frobenius_preserved_property(seed, m, n, p):
    a = standard_normal(stream(seed), (m, n))
    store = MatrixSampleStore(a)
    rng = stream(seed + 1)
    cols, col_probs = sample_columns(store, p, rng)
    s = dense_s(a, cols, col_probs)
    assert (s * s).sum() == pytest.approx(store.sq_frobenius, rel=1e-10)
    rows, row_probs = sample_rows(store, cols, p, rng)
    w = dense_w(s, rows, row_probs)
    assert (w * w).sum() == pytest.approx(store.sq_frobenius, rel=1e-8)


def test_sample_rows_never_lands_on_zero_mass_tail():
    store = MatrixSampleStore([[1.0, 1.0], [2.0, 1.0], [0.0, 1.0],
                               [0.0, 1.0]])
    rows, probs = sample_rows(store, [0], 1, TopDraw())
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
