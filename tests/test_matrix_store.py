"""MatrixSampleStore: norms, counted access, conditional sampling, CSV I/O."""
import math
import sys
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from levsketch import (MatrixSampleStore, compute_params, draw_sketch,
                       gen_example1, qisvd, read_matrix_csv, sample_columns,
                       sample_rows, stream, trial_stream, write_matrix_csv)
from levsketch.cli import main
from levsketch.sample_store import (ROW_BLOCK, pick_in_block,
                                    sample_leaves)

from oracles import chisquare_pvalue

_EPS = np.finfo(np.float64).eps


@pytest.fixture
def small_store():
    return MatrixSampleStore([[1.0, 2.0], [3.0, 4.0]])


def test_norms_small(small_store):
    assert small_store.sq_frobenius == pytest.approx(30.0, rel=1e-14)
    assert small_store.col_sq_norm(0) == pytest.approx(10.0, rel=1e-14)
    assert small_store.col_sq_norm(1) == pytest.approx(20.0, rel=1e-14)
    # the store keeps the masses themselves, not their square roots
    assert small_store._masses == [10.0, 20.0]
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
    for j in range(20):
        assert store.col_sq_norm(j) == pytest.approx(sq[:, j].sum(), rel=1e-12)
    # the total is the root of the tree over the masses
    assert store.sq_frobenius == store._mass_tree()[1]
    assert store._mass_tree()[32:52].tolist() == store._masses


@pytest.mark.parametrize("chunk_bytes", [1, 1 << 20])
@pytest.mark.parametrize("m, n", [(1, 1), (1, 5), (63, 1), (65, 2),
                                  (300, 7), (4097, 3)])
def test_masses_after_build_are_the_in_order_sums(monkeypatch, chunk_bytes,
                                                  m, n):
    # one chunked pass, 64 rows at a time or all at once: every mass is
    # the in-order sum of its column's squares, which is numpy's column
    # sum for two or more columns
    monkeypatch.setattr("levsketch.sample_store._CHUNK_BYTES", chunk_bytes)
    rng = stream(14 + m + n)
    a = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-8, 8, (m, 1))
    store = MatrixSampleStore(a)
    sq = a * a
    want = np.cumsum(sq, axis=0)[-1]
    assert all(store.col_sq_norm(j) == want[j] for j in range(n))
    if n > 1:
        assert np.array_equal(want, sq.sum(axis=0))


def test_build_allocates_no_full_size_temporary():
    # the chunked pass holds about _CHUNK_BYTES of squares, never an
    # m-by-n array; a whole build also copies the entries once
    a = stream(15).standard_normal((20000, 50))
    store = MatrixSampleStore(a)
    tracemalloc.start()
    try:
        store.rebuild()
        store._build_column_layer()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes / 2
    tracemalloc.start()
    try:
        MatrixSampleStore(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * a.nbytes


def test_entry_and_gather_access(small_store):
    assert small_store.query(1, 0) == 3.0
    np.testing.assert_array_equal(
        small_store.block_values([1], [1, 0]), np.array([[4.0, 3.0]]))
    np.testing.assert_array_equal(
        small_store.block_values([0, 1], [1]), np.array([[2.0], [4.0]]))
    arr = small_store.to_array()
    arr[0, 0] = 99.0
    assert small_store.query(0, 0) == 1.0


@pytest.mark.parametrize("rows, cols", [
    (np.arange(40), [3, 0, 3]), ([5, 2, 5], np.arange(7)), ([1], [6])])
def test_block_values_is_a_contiguous_gather(rows, cols):
    # either axis may be taken first; the result is bitwise A[rows][:, cols]
    # and C-contiguous, which the stacked exact-dot product needs
    a = stream(9).standard_normal((40, 7))
    got = MatrixSampleStore(a).block_values(rows, cols)
    assert np.array_equal(got, a[np.asarray(rows)][:, np.asarray(cols)])
    assert got.flags.c_contiguous


def test_column_sampling_one_third_two_thirds(small_store):
    rng = stream(31)
    counts = np.bincount(small_store.sample_column_indices(rng, 30_000),
                         minlength=2)
    assert chisquare_pvalue(counts, np.array([1 / 3, 2 / 3])) >= 0.01


def test_mass_tree_sampling_distribution():
    # the tree's leaves are the masses (1, 4, 25), padded with a zero leaf,
    # and a walk of it draws column j with probability mass_j / total
    store = MatrixSampleStore([[1.0, 2.0, 3.0], [0.0, 0.0, 4.0]])
    tree = store._mass_tree()
    assert tree.tolist() == [0.0, 30.0, 5.0, 25.0, 1.0, 4.0, 25.0, 0.0]
    _, draws = sample_leaves(tree[None], np.array([30_000]), stream(32))
    counts = np.bincount(draws, minlength=4)
    assert counts[3] == 0
    assert chisquare_pvalue(counts[:3], np.array([1, 4, 25]) / 30) >= 0.01


def test_row_given_column(small_store):
    # column 0 is (1, 3): conditional row probabilities (0.1, 0.9)
    rows, _, _ = sample_rows(small_store, [0], [small_store.col_sq_norm(0)],
                             5000, stream(33))
    counts = np.bincount(rows, minlength=2)
    assert chisquare_pvalue(counts, np.array([0.1, 0.9])) >= 0.01


def test_zero_matrix_and_zero_column_errors():
    store = MatrixSampleStore(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="zero matrix"):
        store.sample_column_indices(stream(0), 1)
    mixed = MatrixSampleStore([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="zero column"):
        sample_rows(mixed, [1], [mixed.col_sq_norm(1)], 1, stream(0))


def test_constructor_errors():
    with pytest.raises(ValueError, match="two-dimensional"):
        MatrixSampleStore(np.zeros((0, 4)))
    with pytest.raises(ValueError, match="two-dimensional"):
        MatrixSampleStore(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        MatrixSampleStore([[1.0, np.inf]])
    # refused without a numpy overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="squared norm overflows"):
            MatrixSampleStore(stream(1).standard_normal((40, 8)) * 1e200)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_is_refused_without_warning(bad):
    # found from the norms the build sums: a huge finite entry beside it
    # must not turn the message into an overflow
    a = np.ones((70, 3))
    a[65, 1] = bad
    a[3, 2] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite input"):
            MatrixSampleStore(a)


def test_squared_norm_underflow_is_refused():
    # squares below the smallest normal double are subnormal and inexact
    with pytest.raises(ValueError, match="squared norm underflows"):
        MatrixSampleStore(np.eye(4) * 1e-160)
    # an all-zero matrix still builds, as before
    assert MatrixSampleStore(np.zeros((3, 3))).sq_frobenius == 0.0


def test_total_that_overflows_is_refused_at_build():
    # every row and column squared norm is finite, their sum is not;
    # refused without a numpy overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="squared norm overflows"):
            MatrixSampleStore(np.full((2, 2), 0.9e154))


@pytest.mark.parametrize("writes, reason", [
    ([(0, 0, 1e-160), (1, 1, 0.0)], "squared norm underflows"),
    # the square of 1e-170 underflows to 0: a nonzero matrix, zero total
    ([(0, 0, 1e-170), (1, 1, 0.0)], "squared norm underflows"),
    ([(0, 0, 1.3e154), (1, 1, 1.3e154)], "squared norm overflows"),
], ids=["subnormal", "zero", "infinite"])
def test_writes_that_leave_a_bad_total_fail_at_the_next_read(writes, reason):
    # each write is accepted on its own row and column; the total is
    # checked where the norm trees are next built
    store = MatrixSampleStore(np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, j, value in writes:
            store.update(i, j, value)
        with pytest.raises(ValueError, match=reason):
            store.sq_frobenius
        with pytest.raises(ValueError, match=reason):
            sample_columns(store, 4, stream(0))
    # a write that brings the total back makes the store readable again
    store.update(1, 1, 1.0)
    assert store.sq_frobenius == pytest.approx(1.0 + writes[0][2] ** 2)


def test_update_refreshes_all_layers(small_store):
    small_store.update(0, 0, 5.0)
    assert small_store.query(0, 0) == 5.0
    assert small_store.col_sq_norm(0) == pytest.approx(34.0, rel=1e-12)
    assert small_store.sq_frobenius == pytest.approx(54.0, rel=1e-12)
    fresh = MatrixSampleStore(small_store.to_array())
    assert small_store._masses == fresh._masses
    assert small_store._mass_tree().tolist() == fresh._mass_tree().tolist()


def test_update_whose_square_overflows_changes_nothing():
    store = MatrixSampleStore([[1.2e154, 0.0], [0.0, 1.0]])
    before = store.to_array()
    frob = store.sq_frobenius
    cols = [store.col_sq_norm(j) for j in range(2)]
    # refused without a numpy overflow warning: first the value's square
    # overflows, then only the column's mass
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, j, value in [(0, 0, 1e200), (1, 0, 1.2e154)]:
            with pytest.raises(ValueError, match="squared norm overflows"):
                store.update(i, j, value)
            np.testing.assert_array_equal(store.to_array(), before)
            assert store.sq_frobenius == frob
            assert [store.col_sq_norm(j) for j in range(2)] == cols
        # a column whose mass passes half the largest double is kept,
        # bitwise as a rebuild sums it
        store.update(0, 1, 1e153)
    written = list(store._masses)
    store.rebuild()
    assert written == store._masses


@pytest.mark.parametrize("i, j", [(-1, 0), (2, 0), (0, -1), (0, 2)])
def test_out_of_range_update_changes_nothing(small_store, i, j):
    before = small_store.to_array()
    with pytest.raises(IndexError, match="out of range"):
        small_store.update(i, j, 5.0)
    np.testing.assert_array_equal(small_store.to_array(), before)
    assert small_store.sq_frobenius == 30.0
    with pytest.raises(IndexError, match="out of range"):
        small_store.query(i, j)
    if j in (-1, 2):
        with pytest.raises(IndexError, match="out of range"):
            small_store.col_sq_norm(j)


@pytest.mark.parametrize("call", [
    lambda store: store.query(1.9, 0.5),
    lambda store: store.query(1, np.float64(0.0)),
    lambda store: store.col_sq_norm(1.99),
    lambda store: store.update(0.7, 1.2, 9.0),
    lambda store: store.update(1, 1.0, 9.0),
], ids=["query", "query-whole-float", "col_sq_norm", "update",
        "update-whole-float"])
def test_index_that_is_not_an_integer_is_refused(small_store, call):
    # int() would truncate 1.9 to row 1 and 0.7 to row 0
    with pytest.raises(ValueError, match="whole number") as info:
        call(small_store)
    assert "\n" not in str(info.value)
    np.testing.assert_array_equal(small_store.to_array(),
                                  [[1.0, 2.0], [3.0, 4.0]])
    assert small_store.queries == 0


def test_numpy_integer_indices_are_accepted(small_store):
    assert small_store.query(np.int64(1), np.int32(0)) == 3.0
    assert small_store.col_sq_norm(np.uint8(1)) == 20.0
    small_store.update(np.int64(0), np.int16(1), 5.0)
    assert small_store.query(0, 1) == 5.0


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
        # each mass drifts within its slack, which bounds both sums' rounding
        assert abs(store._masses[j] - fresh._masses[j]) <= (
            store._slack[j] + fresh._slack[j])


def test_write_that_cancels_a_mass_sums_its_column_afresh():
    # 1e20 swamps the other ones' squares, and writing 1 back cancels it:
    # the incremental mass would be 1, and column 0 drawn at 1/12
    store = MatrixSampleStore(np.ones((4, 3)))
    store.update(0, 0, 1e10)
    store.update(0, 0, 1.0)
    assert store.col_sq_norm(0) == 4.0
    assert store.sq_frobenius == 12.0
    counts = np.bincount(store.sample_column_indices(stream(34), 30_000),
                         minlength=3)
    assert chisquare_pvalue(counts, np.full(3, 1 / 3)) >= 0.01


def test_column_zeroed_by_writes_has_mass_zero():
    # two writes and their undoing leave column 1 all zero; its incremental
    # mass would be 0.677, so it would be drawn and then fail its row draw
    a = np.zeros((4, 2))
    a[:, 0] = 1.0
    store = MatrixSampleStore(a)
    for i, j, value in [(0, 1, 81448869.73076099), (1, 1, 2.0791468550554812),
                        (0, 1, 0.0), (1, 1, 0.0)]:
        store.update(i, j, value)
    assert store.col_sq_norm(1) == 0.0
    assert store.sq_frobenius == 4.0
    cols, probs, col_sq = sample_columns(store, 8, stream(0))
    assert cols.tolist() == [0] * 8 and probs.tolist() == [1.0] * 8
    rows, _, _ = sample_rows(store, cols, col_sq, 8, stream(1))
    assert set(rows.tolist()) <= {0, 1, 2, 3}


def test_writes_undone_in_a_zero_column_sum_no_column(monkeypatch):
    # a column that is zero at build has a known count of nonzero squares:
    # writes and their undoing bring its mass back to exactly 0 without
    # summing the column, however much the mass cancels
    sums = []
    real = MatrixSampleStore._sum_column
    monkeypatch.setattr(MatrixSampleStore, "_sum_column",
                        lambda st, j: sums.append(j) or real(st, j))
    a = stream(35).standard_normal((300, 3))
    a[:, 1] = 0.0
    store = MatrixSampleStore(a)
    rng = stream(36)
    for _ in range(20):
        rows = rng.choice(300, 3, replace=False)
        for i in rows:
            store.update(i, 1, float(rng.standard_normal()) * 1e3)
        for i in rows:
            store.update(i, 1, 0.0)
        assert store.col_sq_norm(1) == 0.0
    assert sums == []
    assert 1 not in store.sample_column_indices(stream(37), 1000)


def test_build_rounding_counts_toward_the_slack():
    # the build's in-order sum drops every 1 added to 1e16, so once the
    # large entry is overwritten the thousand ones are a sixteenth of a
    # thousandth of the mass: more than one write's slack, less than the
    # build's own rounding bound
    col = np.ones(1001)
    col[0] = 1e8
    store = MatrixSampleStore(np.column_stack([col, col]))
    assert store.col_sq_norm(0) == 1e16
    store.update(0, 0, 4000.0)
    assert store.col_sq_norm(0) == 16e6 + 1000.0


MAGNITUDE = st.one_of(st.just(0.0), st.floats(1e-100, 1e100),
                     st.floats(-1e100, -1e-100))


@given(st.integers(1, 6), st.integers(1, 3), st.data())
def test_masses_stay_within_slack_of_the_exact_sums(m, n, data):
    # whatever the writes, each mass is within its slack of its column's
    # exact sum of squares (math.fsum, correctly rounded), and the slack
    # within 2^-20 of the mass: no read sees a cancelled mass or total
    a = np.array(data.draw(st.lists(MAGNITUDE, min_size=m * n,
                                    max_size=m * n))).reshape(m, n)
    store = MatrixSampleStore(a)
    writes = data.draw(st.lists(st.tuples(
        st.integers(0, m - 1), st.integers(0, n - 1), MAGNITUDE),
        max_size=12))
    for i, j, value in writes:
        store.update(i, j, value)
        a[i, j] = value
        for col in range(n):
            exact = math.fsum(a[:, col] ** 2)
            mass, slack = store._masses[col], store._slack[col]
            assert abs(mass - exact) <= slack + _EPS * exact
            assert slack <= 2.0 ** -20 * mass or mass == slack == 0.0
    if a.any():
        assert store.sq_frobenius == pytest.approx(
            math.fsum((a * a).ravel()), rel=2.0 ** -19)


@pytest.mark.parametrize("n", [1, 7, 100, 300])
def test_masses_after_writes_stay_within_slack_of_a_rebuilds(n):
    # values across twelve decades cancel masses: each written mass stays
    # within its slack of a rebuild's and the slack within 2^-20 of it, so
    # no mass has lost more than its last 20 bits
    rng = stream(44)
    store = MatrixSampleStore(rng.standard_normal((20, n)))
    for _ in range(500):
        store.update(int(rng.integers(0, 20)), int(rng.integers(0, n)),
                     float(rng.standard_normal()) * 10.0 ** int(
                         rng.integers(-6, 6)))
    written, slack = np.array(store._masses), np.array(store._slack)
    assert (slack <= 2.0 ** -20 * written).all()
    store.rebuild()
    assert (np.abs(written - store._masses)
            <= slack + np.array(store._slack)).all()


def test_auto_rebuild_matches_fresh_store(monkeypatch):
    monkeypatch.setattr("levsketch.sample_store.REBUILD_EVERY", 1)
    rng = stream(42)
    a = rng.standard_normal((8, 8))
    store = MatrixSampleStore(a.copy())
    for _ in range(40):
        i = int(rng.integers(0, 8))
        j = int(rng.integers(0, 8))
        v = float(rng.standard_normal())
        a[i, j] = v
        store.update(i, j, v)
    fresh = MatrixSampleStore(a)
    assert store.sq_frobenius == fresh.sq_frobenius
    assert all(store.col_sq_norm(j) == fresh.col_sq_norm(j) for j in range(8))


def test_store_rebuild_is_the_only_rebuild(monkeypatch):
    monkeypatch.setattr("levsketch.sample_store.REBUILD_EVERY", 3)
    rng = stream(43)
    a = rng.standard_normal((6, 5))
    store = MatrixSampleStore(a.copy())
    calls = []
    real = MatrixSampleStore.rebuild
    monkeypatch.setattr(MatrixSampleStore, "rebuild",
                        lambda st: calls.append(st) or real(st))
    for i, j, v in [(0, 0, 1.5), (4, 2, -2.0), (5, 4, 0.25)]:
        a[i, j] = v
        store.update(i, j, v)
    # the third update rebuilds the store's masses, once
    assert len(calls) == 1
    fresh = MatrixSampleStore(a)
    assert store.sq_frobenius == fresh.sq_frobenius
    assert store._masses == fresh._masses
    assert store._nonzero == fresh._nonzero
    assert store._slack == fresh._slack


class TreeStore:
    """Reference store that keeps its mass tree current on every write,
    node by node up the written leaf's path, the way the flat store's tree
    must read when it is summed afresh. A write moves the mass by the
    change of square, or zeroes it once its column has no nonzero square
    (the writes below never cancel a mass past its slack)."""

    def __init__(self, a):
        self.a = np.array(a, dtype=np.float64)
        sq = self.a * self.a
        self.nonzero = (sq != 0.0).sum(axis=0)
        self.cap = 1 << max(0, (self.a.shape[1] - 1).bit_length())
        self.sums = np.zeros(2 * self.cap)
        for j, mass in enumerate(np.cumsum(sq, axis=0)[-1]):
            self.set_mass(j, mass)
        self.queries = 0

    def set_mass(self, j, mass):
        node = self.cap + j
        self.sums[node] = mass
        while node > 1:
            node //= 2
            self.sums[node] = self.sums[2 * node] + self.sums[2 * node + 1]

    def update(self, i, j, value):
        old = float(self.a[i, j])
        self.a[i, j] = value
        self.nonzero[j] += (value * value != 0.0) - (old * old != 0.0)
        mass = self.sums[self.cap + j] - old * old + value * value
        self.set_mass(j, mass if self.nonzero[j] else 0.0)

    @property
    def sq_frobenius(self):
        return self.sums[1]

    def col_sq_norm(self, j):
        self.queries += 1
        return self.sums[self.cap + j]

    def sample_column_indices(self, rng, size):
        self.queries += size
        return sample_leaves(self.sums[None], np.array([size]), rng)[1]


@pytest.mark.parametrize("m, n", [(1, 1), (1, 9), (9, 1), (40, 7), (257, 33)])
def test_store_matches_tree_reference_after_writes(m, n):
    rng = stream(44 + m * n)
    a = rng.standard_normal((m, n))
    store, ref = MatrixSampleStore(a), TreeStore(a)
    for burst in range(6):
        for _ in range(50):
            i, j = int(rng.integers(0, m)), int(rng.integers(0, n))
            v = 0.0 if rng.random() < 0.2 else float(rng.standard_normal())
            store.update(i, j, v)
            ref.update(i, j, v)
        assert store.sq_frobenius == ref.sq_frobenius
        assert [store.col_sq_norm(j) for j in range(n)] == \
            [ref.col_sq_norm(j) for j in range(n)]
        if ref.sq_frobenius > 0.0:
            assert np.array_equal(
                store.sample_column_indices(stream(burst), 64),
                ref.sample_column_indices(stream(burst), 64))
        assert store.queries == ref.queries


def test_column_zeroed_by_writes_is_never_drawn():
    a = stream(45).standard_normal((40, 6))
    store = MatrixSampleStore(a.copy())
    assert 2 in store.sample_column_indices(stream(46), 1000)
    for i in range(40):
        a[i, 2] = 0.0
        store.update(i, 2, 0.0)
    assert 2 not in store.sample_column_indices(stream(47), 10_000)
    assert store.sq_frobenius == MatrixSampleStore(a).sq_frobenius


def test_threads_racing_to_build_the_trees_draw_alike():
    store = MatrixSampleStore(stream(48).standard_normal((300, 40)))
    store.update(0, 0, 2.0)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(
                lambda _: store.sample_column_indices(stream(49), 500),
                range(32), timeout=60))
    finally:
        sys.setswitchinterval(old)
    expected = store.sample_column_indices(stream(49), 500)
    assert all(np.array_equal(g, expected) for g in got)


def test_query_counter_accounting(small_store):
    small_store.queries = 0
    small_store.query(0, 0)
    assert small_store.queries == 1
    small_store.block_values([0], [0, 1])
    assert small_store.queries == 3
    small_store.block_values([0, 1], [0])
    assert small_store.queries == 5
    small_store.col_sq_norm(1)
    assert small_store.queries == 6
    small_store.sample_column_indices(stream(1), 3)
    assert small_store.queries == 9


def test_sample_touch_cost_logarithmic():
    # a column draw counts one query per index and walks the mass tree,
    # ceil(log2 n) levels deep, which is summed once and reused until the
    # next write
    n = 1000
    store = MatrixSampleStore(stream(2).random((4, n)) + 0.5)
    rng = stream(3)
    tree = store._mass_tree()
    assert tree.size == 2 ** (math.ceil(math.log2(n)) + 1)
    for size in range(1, 21):
        before = store.queries
        store.sample_column_indices(rng, size)
        assert store.queries - before == size
        assert store._mass_tree() is tree
    store.update(0, 0, 2.0)
    store.sample_column_indices(rng, 1)
    assert store._mass_tree() is not tree


def test_dense_csv_round_trip(tmp_path):
    path = tmp_path / "mat.csv"
    a = stream(6).standard_normal((5, 3))
    write_matrix_csv(path, a, {"rank": 3, "frob_norm": float(np.sqrt((a * a).sum()))})
    back, meta = read_matrix_csv(path)
    assert np.array_equal(back, a)
    assert meta["m"] == 5 and meta["n"] == 3
    assert meta["rank"] == 3
    assert meta["frob_norm"] == float(np.sqrt((a * a).sum()))


def test_metadata_key_starting_coo_is_not_a_triplet_header(tmp_path):
    path = tmp_path / "mat.csv"
    write_matrix_csv(path, np.eye(3), {"cool": 1})
    back, meta = read_matrix_csv(path)
    assert np.array_equal(back, np.eye(3))
    assert meta == {"m": 3, "n": 3, "cool": 1}


def test_coo_csv_one_based(tmp_path):
    path = tmp_path / "tri.csv"
    path.write_text("# coo 3 2\n# tag=7\n1,1,1.5\n3,2,-2.0\n")
    arr, meta = read_matrix_csv(path)
    expected = np.zeros((3, 2))
    expected[0, 0] = 1.5
    expected[2, 1] = -2.0
    assert np.array_equal(arr, expected)
    assert meta == {"tag": 7, "m": 3, "n": 2}


FINITE = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6),
              elements=FINITE))
def test_dense_csv_round_trips_any_matrix(tmp_path_factory, a):
    path = tmp_path_factory.mktemp("dense") / "m.csv"
    write_matrix_csv(path, a)
    back, meta = read_matrix_csv(path)
    assert np.array_equal(back, a)
    assert (meta["m"], meta["n"]) == a.shape


@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_coo_csv_round_trips_any_triplets(tmp_path_factory, m, n, data):
    cells = data.draw(st.dictionaries(
        st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)), FINITE))
    expected = np.zeros((m, n))
    lines = [f"# coo {m} {n}"]
    for (i, j), value in cells.items():
        expected[i, j] = value
        lines.append(f"{i + 1},{j + 1},{value!r}")
    path = tmp_path_factory.mktemp("coo") / "m.csv"
    path.write_text("\n".join(lines) + "\n")
    back, meta = read_matrix_csv(path)
    assert np.array_equal(back, expected)
    assert meta == {"m": m, "n": n}


COO = "# coo 3 2\n1,1,1.5\n3,2,-2.0\n"
DENSE = "# m=3 n=2\n1.0,2.0\n3.0,4.0\n5.0,6.0\n"


@pytest.mark.parametrize("text, reason", [
    (COO + "0,1,5.0\n", "outside"),
    (COO + "1,0,5.0\n", "outside"),
    (COO + "4,1,5.0\n", "outside"),
    (COO + "1,3,5.0\n", "outside"),
    (COO + "1,1,2.0\n", "given twice"),
    (COO + "2,1\n", "i,j,value"),
    (COO + "2,1,1.0,7\n", "i,j,value"),
    (COO.replace("coo 3 2", "coo 3"), "coo m n"),
    (COO.replace("coo 3 2", "coo -3 2"), "needs m, n >= 1"),
    (COO.replace("coo 3 2", "coo 3 0"), "needs m, n >= 1"),
    (DENSE.replace("m=3", "m=4"), "header"),
    (DENSE.replace("n=2", "n=3"), "header"),
    (DENSE + "7.0,8.0\n", "header"),
    (DENSE.replace("3.0,4.0", "3.0"), "fields"),
    (COO.replace("coo 3 2", "coo 3 x"), "non-numeric field"),
    (COO + "1,x,1.0\n", "non-numeric field"),
    (COO.replace("1.5", "abc"), "non-numeric field"),
    (DENSE.replace("3.0,4.0", "3.0,x"), "non-numeric field"),
    (DENSE + "[V]\n7.0,8.0\n", "non-numeric field"),
    (COO + "[V]\n", "i,j,value"),
], ids=["coo-row-0", "coo-col-0", "coo-row-above-m", "coo-col-above-n",
        "coo-duplicate", "coo-two-fields", "coo-four-fields", "coo-header",
        "coo-negative-m", "coo-zero-n",
        "dense-header-m", "dense-header-n", "dense-extra-row", "dense-ragged",
        "coo-header-text", "coo-index-text", "coo-value-text",
        "dense-value-text", "dense-section-line", "coo-section-line"])
def test_malformed_matrix_file_exits_two(tmp_path, capsys, text, reason):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=reason) as info:
        read_matrix_csv(path)
    assert "\n" not in str(info.value)
    assert main(["compare", str(path), "-o", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed matrix file")
    assert err.count("\n") == 1


def test_unallocatable_coo_header_exits_one(tmp_path, capsys):
    # 10^16 entries: the zero-filled allocation fails at once, so nothing
    # is allocated and the command ends with one line, not a traceback
    path = tmp_path / "huge.csv"
    path.write_text("# coo 100000000 100000000\n1,1,1.0\n")
    assert main(["compare", str(path), "-o", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@given(st.data())
def test_mutated_files_are_rejected(tmp_path_factory, data):
    m, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    path = tmp_path_factory.mktemp("mutated") / "m.csv"
    if data.draw(st.booleans(), label="coo"):
        cells = data.draw(st.lists(st.tuples(st.integers(1, m),
                                             st.integers(1, n)),
                                   min_size=1, unique=True))
        lines = [f"{i},{j},1.0" for i, j in cells]
        t = data.draw(st.integers(0, len(lines) - 1))
        i, j = cells[t]
        lines[t] = data.draw(st.sampled_from([
            f"0,{j},1.0", f"{i},0,1.0", f"{m + 1},{j},1.0",
            f"{i},{n + 1},1.0", f"{i},{j}", f"{i},{j},1.0,1.0",
            f"{i},{j},1.0\n{i},{j},2.0"]))
        path.write_text(f"# coo {m} {n}\n" + "\n".join(lines) + "\n")
    else:
        write_matrix_csv(path, np.ones((m, n)))
        lines = path.read_text().splitlines()
        t = data.draw(st.integers(1, m))
        lines[t] = data.draw(st.sampled_from([
            "", lines[t] + "\n" + lines[t], lines[t] + ",1.0",
            lines[t].rpartition(",")[0]]))
        path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="malformed matrix file"):
        read_matrix_csv(path)


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
    # a block (1, 2, 0, ..., 0): a uniform draw that rounded up to the
    # total 5 lands on the last entry with mass
    block = np.zeros(ROW_BLOCK)
    block[:2] = [1.0, 2.0]
    cum = np.cumsum(block * block)[None]
    assert pick_in_block(cum, TopDraw().random() * cum[:, -1]).tolist() == [1]
    # so does the whole draw: the walk skips the empty third block and
    # the uniform 1.0 leaves the total of the second one
    col = np.zeros(3 * ROW_BLOCK)
    col[[5, ROW_BLOCK + 3, ROW_BLOCK + 9]] = [2.0, 1.0, 3.0]
    store = MatrixSampleStore(col[:, None])
    assert store.sample_in_columns([0], np.array([1.0])).tolist() == [
        ROW_BLOCK + 9]


def column_layer(store):
    """(block sums, column trees) of the store's column layer, as copies,
    after every written block is summed afresh."""
    store._column_trees(np.arange(store.n))
    return store._block_sq.copy(), store._col_sums.copy()


@pytest.mark.parametrize("m, n", [(1, 1), (1, 3), (63, 2), (64, 1), (65, 4),
                                  (300, 1), (300, 7), (4097, 3)])
def test_column_layer_sums_every_block_in_order(monkeypatch, m, n):
    # built 64 rows at a time, the block sums are bitwise the last prefix
    # of each block's cumsum, and the trees those of a one-chunk build
    monkeypatch.setattr("levsketch.sample_store._CHUNK_BYTES", 1)
    rng = stream(50 + m + n)
    a = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-8, 8, (m, 1))
    chunked = column_layer(MatrixSampleStore(a))
    sq = a * a
    pad = np.zeros((-m % ROW_BLOCK, n))
    cum = np.cumsum(np.vstack([sq, pad]).reshape(-1, ROW_BLOCK, n), axis=1)
    assert np.array_equal(chunked[0], cum[:, -1].T)
    monkeypatch.undo()
    assert all(np.array_equal(x, y) for x, y in zip(
        chunked, column_layer(MatrixSampleStore(a))))


def row_draw_reads(store, cols, idx):
    """Reads that sample_rows makes for the draws ``idx`` from ``cols``:
    one index draw per draw, each distinct block of a drawn column once and
    each distinct drawn row's p sketch entries. The column norms come from
    the column draws, so no norm is read."""
    pairs = {(int(j), int(i) // ROW_BLOCK) for j, i in zip(cols, idx)}
    blocks = sum(min(ROW_BLOCK, store.m - b * ROW_BLOCK) for _, b in pairs)
    return len(cols) + blocks + len(cols) * np.unique(idx).size, pairs


def drawn_columns(rng, cols, p):
    """The column of each of sample_rows' p draws from ``cols``, replayed
    from its stream: one index, then one uniform per draw."""
    drawn = []
    for _ in range(p):
        drawn.append(int(cols[rng.integers(0, len(cols))]))
        rng.random()
    return drawn


def test_row_draw_reads_do_not_grow_with_m():
    p = 60
    bound = 2 * p + ROW_BLOCK * p + p * p
    for m in (1000, 4000, 16000):
        store = MatrixSampleStore(gen_example1(m, 100, 70, seed=9 ^ m))
        rng = trial_stream(9 ^ m, 0)
        cols, _, col_sq = sample_columns(store, p, rng)
        state = rng.bit_generator.state
        before = store.queries
        idx, _, _ = sample_rows(store, cols, col_sq, p, rng)
        reads = store.queries - before
        rng.bit_generator.state = state
        expected, pairs = row_draw_reads(store, drawn_columns(rng, cols, p),
                                         idx)
        assert reads == expected <= bound
        assert len(pairs) <= p


def test_sketch_reads_each_norm_and_entry_once():
    # p column draws, p column-norm reads and the row draws' reads; W is
    # built from the row draws' own gather, so there is no p * p term
    p = 60
    a = gen_example1(1000, 100, 70, seed=5)
    store = MatrixSampleStore(a)
    sketch, _ = draw_sketch(store, p, trial_stream(5, 0))
    rng = trial_stream(5, 0)
    cols, _, _ = sample_columns(MatrixSampleStore(a), p, rng)
    assert np.array_equal(cols, sketch.col_indices)
    rows, _ = row_draw_reads(store, drawn_columns(rng, cols, p),
                             sketch.row_indices)
    assert store.queries == 2 * p + rows == 6216


def test_within_column_draws_follow_squared_entries():
    for m in (1, 63, 64, 65, 4097):
        rng = stream(60 + m)
        col = rng.standard_normal(m)
        # a zero block, a zero tail and a few zero entries
        col[ROW_BLOCK:2 * ROW_BLOCK] = 0.0
        col[max(1, m - 30):] = 0.0
        col[rng.integers(0, m, m // 10)] = 0.0
        if not col.any():
            col[0] = 1.5
        # the distribution on few rows, for cells that fill up
        if m > 200:
            keep = rng.choice(np.flatnonzero(col), 40, replace=False)
            col[np.setdiff1d(np.arange(m), keep)] = 0.0
        a = np.column_stack([rng.standard_normal(m), col])
        store = MatrixSampleStore(a)
        draws = store.sample_in_columns(np.ones(30_000, dtype=np.int64),
                                        stream(70 + m).random(30_000))
        assert (col[draws] != 0.0).all()
        counts = np.bincount(draws, minlength=m)
        if m > 1:
            assert chisquare_pvalue(counts, col * col / (col @ col)) >= 0.01


def test_within_column_draw_rejects_bad_input(small_store):
    for cols in ([2], [-1]):
        with pytest.raises(IndexError, match="out of range"):
            small_store.sample_in_columns(cols, [0.5])
    for u in (-0.25, 1.5, np.nan):
        with pytest.raises(ValueError, match="uniforms"):
            small_store.sample_in_columns([0], [u])


def col_norms(store, cols):
    return [store.col_sq_norm(j) for j in cols]


@pytest.mark.parametrize("m, n", [(1, 3), (64, 5), (65, 4), (700, 9)])
def test_column_layer_after_writes_is_a_fresh_build(m, n):
    rng = stream(80 + m)
    a = rng.standard_normal((m, n)) + 3.0
    store = MatrixSampleStore(a.copy())
    for burst in range(4):
        for _ in range(3 * m):
            i, j = int(rng.integers(0, m)), int(rng.integers(0, n))
            v = 0.0 if rng.random() < 0.2 else float(rng.standard_normal())
            a[i, j] = v
            store.update(i, j, v)
        a[0] = 1.0
        for j in range(n):
            store.update(0, j, 1.0)
        fresh = MatrixSampleStore(a)
        cols = rng.integers(0, n, 25)
        uniforms = rng.random(40)
        picks = rng.integers(0, cols.size, 40)
        assert np.array_equal(
            store.sample_in_columns(cols[picks], uniforms),
            fresh.sample_in_columns(cols[picks], uniforms))
        # seeded row draws on the written store are a fresh store's
        got, _, _ = sample_rows(store, cols, col_norms(store, cols), 40,
                                stream(burst))
        want, _, _ = sample_rows(fresh, cols, col_norms(fresh, cols), 40,
                                 stream(burst))
        assert np.array_equal(got, want)
        # the refresh reads each written block of a drawn column once
        store.sample_in_columns(np.arange(n), np.zeros(n))
        assert not store._stale_flags.any()
        assert all(np.array_equal(x, y) for x, y in zip(
            column_layer(store), column_layer(fresh)))


def test_threads_sketching_after_writes_match_serial():
    rng = stream(90)
    a = gen_example1(4000, 40, 10, seed=91)
    writes = [(int(rng.integers(0, 4000)), int(rng.integers(0, 40)),
               float(rng.standard_normal())) for _ in range(3000)]
    stores = [MatrixSampleStore(a), MatrixSampleStore(a)]
    for store in stores:
        for i, j, v in writes:
            store.update(i, j, v)
    frob = math.sqrt(stores[0].sq_frobenius)
    params = compute_params(0.5, 0.1, 8, 1.0, frob, frob, p_override=40)

    def sketch(store, t):
        return qisvd(store, params, trial_stream(92, t))

    serial = [sketch(stores[0], t) for t in range(16)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # more threads than the reference host's two cores
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda t: sketch(stores[1], t),
                                     range(16), timeout=120))
    finally:
        sys.setswitchinterval(old)
    for one, other in zip(serial, threaded):
        for name in ("col_indices", "col_probs", "row_indices", "row_probs",
                     "v", "sigma"):
            assert np.array_equal(getattr(one, name), getattr(other, name))
    assert all(np.array_equal(x, y) for x, y in zip(
        column_layer(stores[0]), column_layer(stores[1])))


def test_readers_racing_to_the_column_layer_build_it_once(monkeypatch):
    store = MatrixSampleStore(stream(93).standard_normal((300, 5)) + 2.0)
    builds = []
    real = MatrixSampleStore._build_column_layer

    def slow(self):
        builds.append(self)
        time.sleep(0.05)
        real(self)

    monkeypatch.setattr(MatrixSampleStore, "_build_column_layer", slow)
    with ThreadPoolExecutor(max_workers=4) as pool:
        got = list(pool.map(
            lambda _: store.sample_in_columns([0, 1, 2], [0.3, 0.6, 0.9]),
            range(8), timeout=60))
    assert len(builds) == 1
    assert all(np.array_equal(g, got[0]) for g in got)
