"""MatrixSampleStore: norms, counted access, conditional sampling, CSV I/O."""
import math

import numpy as np
import pytest

from levsketch import (MatrixSampleStore, read_matrix_csv, stream,
                       write_matrix_csv)

from oracles import chisquare_pvalue


@pytest.fixture
def small_store():
    return MatrixSampleStore([[1.0, 2.0], [3.0, 4.0]])


def test_norms_small(small_store):
    assert small_store.sq_frobenius == pytest.approx(30.0, rel=1e-14)
    assert small_store.col_sq_norm(0) == pytest.approx(10.0, rel=1e-14)
    assert small_store.col_sq_norm(1) == pytest.approx(20.0, rel=1e-14)
    assert small_store.row_sq_norm(0) == pytest.approx(5.0, rel=1e-14)
    assert small_store.row_sq_norm(1) == pytest.approx(25.0, rel=1e-14)
    assert small_store.shape == (2, 2)


def test_identity_norms():
    store = MatrixSampleStore(np.eye(3))
    assert store.sq_frobenius == pytest.approx(3.0, rel=1e-14)
    for j in range(3):
        assert store.col_sq_norm(j) == pytest.approx(1.0, rel=1e-14)


def test_norms_match_dense_oracle():
    a = stream(12).standard_normal((50, 20))
    store = MatrixSampleStore(a)
    sq = a * a
    assert store.sq_frobenius == pytest.approx(sq.sum(), rel=1e-12)
    for i in range(50):
        assert store.row_sq_norm(i) == pytest.approx(sq[i].sum(), rel=1e-12)
    for j in range(20):
        assert store.col_sq_norm(j) == pytest.approx(sq[:, j].sum(), rel=1e-12)


def test_entry_and_gather_access(small_store):
    assert small_store.query(1, 0) == 3.0
    np.testing.assert_array_equal(
        small_store.row_values(1, [1, 0]), np.array([4.0, 3.0]))
    np.testing.assert_array_equal(
        small_store.column_values(1), np.array([2.0, 4.0]))
    arr = small_store.to_array()
    arr[0, 0] = 99.0
    assert small_store.query(0, 0) == 1.0


def test_column_sampling_one_third_two_thirds(small_store):
    rng = stream(31)
    counts = np.bincount(
        [small_store.sample_column_index(rng) for _ in range(30_000)],
        minlength=2)
    assert chisquare_pvalue(counts, np.array([1 / 3, 2 / 3])) >= 0.01


def test_row_sampling_distribution(small_store):
    rng = stream(32)
    counts = np.bincount(
        [small_store.sample_row_index(rng) for _ in range(30_000)],
        minlength=2)
    assert chisquare_pvalue(counts, np.array([5 / 30, 25 / 30])) >= 0.01


def test_row_given_column(small_store):
    # column 0 is (1, 3): conditional row probabilities (0.1, 0.9)
    rng = stream(33)
    counts = np.bincount(
        [small_store.sample_row_given_column(0, rng) for _ in range(5000)],
        minlength=2)
    assert chisquare_pvalue(counts, np.array([0.1, 0.9])) >= 0.01


def test_zero_matrix_and_zero_column_errors():
    store = MatrixSampleStore(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="zero matrix"):
        store.sample_row_index(stream(0))
    mixed = MatrixSampleStore([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="zero column"):
        mixed.sample_row_given_column(1, stream(0))


def test_constructor_errors():
    with pytest.raises(ValueError, match="two-dimensional"):
        MatrixSampleStore(np.zeros((0, 4)))
    with pytest.raises(ValueError, match="two-dimensional"):
        MatrixSampleStore(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        MatrixSampleStore([[1.0, np.inf]])


def test_update_refreshes_all_layers(small_store):
    small_store.update(0, 0, 5.0)
    assert small_store.query(0, 0) == 5.0
    assert small_store.row_sq_norm(0) == pytest.approx(29.0, rel=1e-12)
    assert small_store.col_sq_norm(0) == pytest.approx(34.0, rel=1e-12)
    assert small_store.sq_frobenius == pytest.approx(54.0, rel=1e-12)
    assert small_store.row_tree(0).query(0) == 5.0


def test_update_drift_stays_tiny():
    rng = stream(41)
    a = rng.standard_normal((64, 16))
    store = MatrixSampleStore(a.copy())
    for _ in range(10_000):
        i = int(rng.integers(0, 64))
        j = int(rng.integers(0, 16))
        v = float(rng.standard_normal())
        a[i, j] = v
        store.update(i, j, v)
    fresh = MatrixSampleStore(a)
    assert store.sq_frobenius == pytest.approx(fresh.sq_frobenius, rel=1e-9)
    for j in range(16):
        assert store.col_sq_norm(j) == pytest.approx(
            fresh.col_sq_norm(j), rel=1e-9, abs=1e-9)


def test_auto_rebuild_matches_fresh_store():
    rng = stream(42)
    a = rng.standard_normal((8, 8))
    store = MatrixSampleStore(a.copy(), rebuild_every=1)
    for _ in range(40):
        i = int(rng.integers(0, 8))
        j = int(rng.integers(0, 8))
        v = float(rng.standard_normal())
        a[i, j] = v
        store.update(i, j, v)
    fresh = MatrixSampleStore(a)
    assert store.sq_frobenius == fresh.sq_frobenius
    assert all(store.col_sq_norm(j) == fresh.col_sq_norm(j) for j in range(8))


def test_query_counter_accounting(small_store):
    small_store.queries = 0
    small_store.query(0, 0)
    assert small_store.queries == 1
    small_store.row_values(0, [0, 1])
    assert small_store.queries == 3
    small_store.column_values(0)
    assert small_store.queries == 5
    small_store.row_sq_norm(1)
    small_store.col_sq_norm(1)
    assert small_store.queries == 7
    small_store.sample_row_index(stream(1))
    assert small_store.queries == 8


def test_sample_touch_cost_logarithmic():
    n = 1000
    store = MatrixSampleStore(stream(2).random((4, n)) + 0.5)
    tree = store._col_tree
    bound = 2 * math.ceil(math.log2(n)) + 1
    rng = stream(3)
    for _ in range(20):
        tree.touches = 0
        store.sample_column_index(rng)
        assert tree.touches <= bound


def test_dense_csv_round_trip(tmp_path):
    path = tmp_path / "mat.csv"
    a = stream(6).standard_normal((5, 3))
    write_matrix_csv(path, a, {"rank": 3, "frob_norm": float(np.sqrt((a * a).sum()))})
    back, meta = read_matrix_csv(path)
    assert np.array_equal(back, a)
    assert meta["m"] == 5 and meta["n"] == 3
    assert meta["rank"] == 3
    assert meta["frob_norm"] == float(np.sqrt((a * a).sum()))


def test_coo_csv_one_based(tmp_path):
    path = tmp_path / "tri.csv"
    path.write_text("# coo 3 2\n# tag=7\n1,1,1.5\n3,2,-2.0\n")
    arr, meta = read_matrix_csv(path)
    expected = np.zeros((3, 2))
    expected[0, 0] = 1.5
    expected[2, 1] = -2.0
    assert np.array_equal(arr, expected)
    assert meta == {"tag": 7, "m": 3, "n": 2}


def test_store_round_trips_through_csv(tmp_path):
    a = stream(13).standard_normal((6, 4))
    path = tmp_path / "store.csv"
    write_matrix_csv(path, a)
    back, _ = read_matrix_csv(path)
    assert MatrixSampleStore(back).sq_frobenius == \
        MatrixSampleStore(a).sq_frobenius


class TopDraw:
    """Generator stub whose uniform draw is 1.0: the value u * total takes
    when a draw just below 1 rounds up to the total."""

    def random(self):
        return 1.0

    def integers(self, low, high=None):
        return low


def test_row_given_column_never_lands_on_zero_mass_tail():
    store = MatrixSampleStore([[1.0], [2.0], [0.0], [0.0]])
    assert store.sample_row_given_column(0, TopDraw()) == 1
