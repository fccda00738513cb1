"""SampleTree: construction, updates, weighted sampling, cost accounting."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from levsketch import MatrixSampleStore, SampleTree, stream

from oracles import chisquare_pvalue


def test_build_single_nonzero():
    tree = SampleTree([0.0, 0.0, 5.0])
    assert tree.sq_norm == 25.0
    assert tree.query(2) == 5.0
    assert tree.query(0) == 0.0


def test_build_all_ones():
    tree = SampleTree([1.0, 1.0, 1.0, 1.0])
    assert tree.sq_norm == 4.0
    assert np.array_equal(tree.values, np.ones(4))


def test_signed_leaves_round_trip():
    tree = SampleTree([3.0, -4.0])
    assert tree.sq_norm == 25.0
    assert tree.query(1) == -4.0


def test_padding_is_exact_zero():
    tree = SampleTree([1.0, 2.0, 3.0, 4.0, 5.0])
    assert len(tree._leaf) == 8
    assert np.array_equal(tree._leaf[5:], np.zeros(3))
    assert len(tree) == 5


def test_build_errors():
    with pytest.raises(ValueError, match="empty vector"):
        SampleTree([])
    with pytest.raises(ValueError, match="non-finite input"):
        SampleTree([1.0, np.nan])
    with pytest.raises(ValueError, match="non-finite input"):
        SampleTree([np.inf])


def test_sample_collapsed_support():
    tree = SampleTree([0.0, 0.0, 5.0])
    rng = stream(0)
    assert set(tree.sample_indices(rng, 50).tolist()) == {2}


def test_sample_frequencies_three_four():
    # D_v = (9/25, 16/25) exactly
    tree = SampleTree([3.0, -4.0])
    counts = np.bincount(tree.sample_indices(stream(101), 100_000), minlength=2)
    assert chisquare_pvalue(counts, np.array([0.36, 0.64])) >= 0.01


def test_sample_uniform_chi_square():
    tree = SampleTree([1.0, 1.0, 1.0, 1.0])
    counts = np.bincount(tree.sample_indices(stream(7), 100_000), minlength=4)
    assert chisquare_pvalue(counts, np.full(4, 0.25)) >= 0.01


def test_sample_zero_vector_raises():
    tree = SampleTree([0.0, 0.0])
    with pytest.raises(ValueError, match="cannot sample zero vector"):
        tree.sample_indices(stream(0), 1)


def test_sample_scalar_matches_batch_distribution():
    tree = SampleTree([1.0, -2.0, 3.0])
    one_by_one = np.bincount(
        [tree.sample_indices(stream(40 + i), 1)[0] for i in range(4000)],
        minlength=3)
    probs = np.array([1.0, 4.0, 9.0]) / 14.0
    assert chisquare_pvalue(one_by_one, probs) >= 0.01


def test_update_arithmetic():
    tree = SampleTree([0.0, 0.0, 5.0])
    tree.update(0, 2.0)
    assert tree.sq_norm == 29.0
    assert tree.query(0) == 2.0


def test_update_support_collapse():
    tree = SampleTree([3.0, -4.0])
    tree.update(1, 0.0)
    assert tree.sq_norm == 9.0
    rng = stream(3)
    assert set(tree.sample_indices(rng, 20).tolist()) == {0}


def test_update_out_of_range():
    tree = SampleTree([1.0, 2.0])
    with pytest.raises(IndexError):
        tree.update(2, 0.0)
    with pytest.raises(IndexError):
        tree.query(-3)


def test_many_updates_match_rebuilt_tree():
    rng = stream(9)
    vals = rng.random(1024) * 2.0 - 1.0
    tree = SampleTree(vals)
    for _ in range(10_000):
        i = int(rng.integers(0, 1024))
        v = rng.random() * 4.0 - 2.0
        vals[i] = v
        tree.update(i, v)
    # an update redoes the adds of a build: no drift at all
    assert np.array_equal(tree._sums, SampleTree(vals)._sums)


def test_auto_rebuild_restores_exact_sums():
    vals = (stream(2).random(33) - 0.5) * 6.0
    tree = SampleTree(vals.copy())
    rng = stream(5)
    current = vals.copy()
    for _ in range(25):
        i = int(rng.integers(0, 33))
        v = rng.random()
        current[i] = v
        tree.update(i, v)
    # every update leaves the sums bitwise identical to a fresh build
    assert np.array_equal(tree._sums, SampleTree(current)._sums)


def test_touch_costs_within_bound():
    for n in (1, 2, 5, 100, 1000):
        bound = 2 * math.ceil(math.log2(n)) + 1 if n > 1 else 1
        tree = SampleTree(np.arange(1.0, n + 1.0))
        tree.touches = 0
        tree.query(n - 1)
        assert tree.touches <= bound
        tree.touches = 0
        tree.update(0, 2.5)
        assert tree.touches <= bound
        tree.touches = 0
        tree.sample_indices(stream(1), 1)
        assert tree.touches <= bound


@given(st.data())
def test_node_consistency_after_update_sequence(data):
    n = data.draw(st.integers(1, 64), label="n")
    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    vals = np.array(data.draw(
        st.lists(finite, min_size=n, max_size=n), label="values"))
    tree = SampleTree(vals.copy())
    for i, v in data.draw(
            st.lists(st.tuples(st.integers(0, n - 1), finite), max_size=30),
            label="updates"):
        vals[i] = v
        tree.update(i, v)
    sums = tree._sums
    cap = tree._cap
    # every internal node equals the sum of its children
    for node in range(1, cap):
        assert sums[node] == pytest.approx(
            sums[2 * node] + sums[2 * node + 1],
            rel=8 * np.finfo(float).eps * n, abs=1e-30)
    assert tree.sq_norm == pytest.approx(
        float((vals * vals).sum()), rel=8 * np.finfo(float).eps * n, abs=1e-30)
    fresh = SampleTree(vals) if (vals != 0).any() else None
    if fresh is not None:
        np.testing.assert_allclose(sums, fresh._sums, rtol=1e-9,
                                   atol=1e-9 * max(fresh.sq_norm, 1e-300))


def test_query_many_matches_scalar_queries():
    # the store's one gather, with repeated indices, reads what scalar
    # queries read and counts as many reads
    store = MatrixSampleStore((stream(11).random((4, 17)) - 0.5) * 3.0)
    rows, cols = np.array([3, 0, 3]), np.array([0, 5, 16, 5])
    block = store.block_values(rows, cols)
    assert store.queries == 12
    assert np.array_equal(block, [[store.query(i, j) for j in cols]
                                  for i in rows])
    assert store.queries == 24
