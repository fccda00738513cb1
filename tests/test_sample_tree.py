"""Stacked sample trees: the builder, weighted sampling by descent, and the
index, write and cost rules of the trees kept in the store."""
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from levsketch import MatrixSampleStore, estimate_inner, stream
from levsketch.sample_store import (ROW_BLOCK, build_trees, check_index,
                                    descend, sample_leaves)

from oracles import chisquare_pvalue, sample_leaves_reference


def draws(values, count, rng):
    """``count`` leaves drawn from the tree over ``values``, a one-row
    stack."""
    _, sums = build_trees(np.array([values], dtype=np.float64))
    return sample_leaves(sums, np.array([count]), rng)[1]


def test_build_single_nonzero():
    leaves, sums = build_trees(np.array([[0.0, 0.0, 5.0]]))
    assert sums[0, 1] == 25.0
    assert leaves[0, 2] == 5.0
    assert leaves[0, 0] == 0.0


def test_build_all_ones():
    leaves, sums = build_trees(np.ones((1, 4)))
    assert sums[0, 1] == 4.0
    assert np.array_equal(leaves[0], np.ones(4))


def test_signed_leaves_round_trip():
    leaves, sums = build_trees(np.array([[3.0, -4.0]]))
    assert sums[0].tolist() == [0.0, 25.0, 9.0, 16.0]
    assert leaves[0, 1] == -4.0


def test_padding_is_exact_zero():
    leaves, sums = build_trees(np.array([[1.0, 2.0, 3.0, 4.0, 5.0]]))
    assert leaves.shape == (1, 8)
    assert sums.shape == (1, 16)
    assert np.array_equal(leaves[0, 5:], np.zeros(3))
    assert np.array_equal(sums[0, 13:], np.zeros(3))


def test_build_errors():
    # a one-vector estimate refuses what it cannot build a tree of
    for x, reason in (([], "empty vector"), ([1.0, np.nan], "non-finite"),
                      ([np.inf], "non-finite input")):
        with pytest.raises(ValueError, match=reason):
            estimate_inner(x, np.ones(len(x)), 0.5, 0.1, stream(0))


def test_sample_collapsed_support():
    assert set(draws([0.0, 0.0, 5.0], 50, stream(0)).tolist()) == {2}


def test_sample_frequencies_three_four():
    # D_v = (9/25, 16/25) exactly
    counts = np.bincount(draws([3.0, -4.0], 100_000, stream(101)),
                         minlength=2)
    assert chisquare_pvalue(counts, np.array([0.36, 0.64])) >= 0.01


def test_sample_uniform_chi_square():
    counts = np.bincount(draws([1.0] * 4, 100_000, stream(7)), minlength=4)
    assert chisquare_pvalue(counts, np.full(4, 0.25)) >= 0.01


def test_sample_zero_vector_raises():
    with pytest.raises(ValueError, match="cannot sample zero vector"):
        draws([0.0, 0.0], 1, stream(0))


def test_sample_overflowing_norm_raises():
    # ||v||^2 = inf: no uniform scales to a residual inside the tree
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="squared norm overflows"):
        draws([1e200, 0.0], 1, stream(0))


class Uniforms:
    """An rng whose one ``random`` call hands out fixed uniforms."""

    def __init__(self, values):
        self.values = np.array(values, dtype=np.float64)

    def random(self, size):
        assert size == self.values.size
        return self.values.copy()


def boundary_uniforms(sums, t):
    """Uniforms whose draws in tree t land on the tree's own boundaries:
    for every leaf, the sum of the left sums a walk to it subtracts, scaled
    back by ||v_t||^2, with its two neighbours on either side; and 0.0 and
    the largest double below 1."""
    cap = sums.shape[1] // 2
    total = sums[t, 1]
    out = {0.0, np.nextafter(1.0, 0.0)}
    for leaf in range(cap):
        bound, node = 0.0, 1
        for level in range(cap.bit_length() - 2, -1, -1):
            node *= 2
            if leaf >> level & 1:
                bound += sums[t, node]
                node += 1
        r = bound / total
        out.update([r, np.nextafter(r, 0.0), np.nextafter(r, 2.0),
                    np.nextafter(np.nextafter(r, 0.0), 0.0),
                    np.nextafter(np.nextafter(r, 2.0), 2.0)])
    return sorted(u for u in out if 0.0 <= u < 1.0)


@st.composite
def forests(draw):
    """(sums, counts, uniforms): a stack of trees over 1 to 70 entries,
    zero entries and zero tails (whole empty right subtrees) among them,
    unequal draw counts, and uniforms on and next to the boundaries."""
    size = draw(st.integers(1, 70), label="size")
    trees = draw(st.integers(1, 4), label="trees")
    leaves = np.zeros((trees, size))
    entry = st.one_of(st.just(0.0), st.builds(
        lambda sign, m, e: sign * m * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
        st.floats(1.0, 9.9), st.integers(-8, 8)))
    for t in range(trees):
        live = draw(st.integers(1, size), label="live")
        leaves[t, :live] = draw(st.lists(entry, min_size=live,
                                         max_size=live), label="entries")
        if not leaves[t].any():
            leaves[t, live - 1] = 1.0
    _, sums = build_trees(leaves)
    counts = draw(st.lists(st.integers(0, 12), min_size=trees,
                           max_size=trees), label="counts")
    uniforms = []
    for t in range(trees):
        pool = st.one_of(st.sampled_from(boundary_uniforms(sums, t)),
                         st.floats(0.0, 1.0, exclude_max=True))
        uniforms += draw(st.lists(pool, min_size=counts[t],
                                  max_size=counts[t]), label="uniforms")
    return sums, np.array(counts), uniforms


def _forest(leaves, counts, uniforms):
    _, sums = build_trees(np.array(leaves, dtype=np.float64))
    return sums, np.array(counts), uniforms


# with the largest uniform, the residual left after the root subtracts
# a^2 rounds up to b^2, the sum of node 6, whose sibling subtree is empty:
# a walk that does not know it is empty lands on the zero leaf 7
@example(_forest([[3104.06403816638, 0.0, 0.0, 0.0, 4296.646846676853, 0.0,
                   0.0, 0.0]], [1], [np.nextafter(1.0, 0.0)]))
@given(forests())
def test_sample_leaves_matches_scalar_reference(forest):
    sums, counts, uniforms = forest
    tree, leaf = sample_leaves(sums, counts, Uniforms(uniforms))
    ref_tree, ref_leaf, ref_rest = sample_leaves_reference(sums, counts,
                                                           uniforms)
    assert np.array_equal(tree, ref_tree)
    assert np.array_equal(leaf, ref_leaf)
    # the same walk from the same masses, with the residual it leaves
    u = np.array(uniforms, dtype=np.float64) * sums[tree, 1]
    walked, rest = descend(sums, tree, u)
    assert np.array_equal(walked, leaf)
    assert np.array_equal(rest, ref_rest)
    # every draw lands on a leaf with mass
    cap = sums.shape[1] // 2
    assert (sums[tree, cap + leaf] > 0.0).all()


def test_sample_scalar_matches_batch_distribution():
    one_by_one = np.bincount(
        [draws([1.0, -2.0, 3.0], 1, stream(40 + i))[0] for i in range(4000)],
        minlength=3)
    probs = np.array([1.0, 4.0, 9.0]) / 14.0
    assert chisquare_pvalue(one_by_one, probs) >= 0.01


def test_update_arithmetic():
    store = MatrixSampleStore([[0.0], [0.0], [5.0]])
    store.update(0, 0, 2.0)
    assert store.col_sq_norm(0) == store.sq_frobenius == 29.0
    assert store.query(0, 0) == 2.0


def test_update_support_collapse():
    store = MatrixSampleStore([[3.0], [-4.0]])
    store.update(1, 0, 0.0)
    assert store.sq_frobenius == 9.0
    got = store.sample_in_columns(np.zeros(20, dtype=np.int64),
                                  stream(3).random(20))
    assert set(got.tolist()) == {0}


def test_update_out_of_range():
    for i in (2, -3):
        with pytest.raises(IndexError, match="out of range"):
            check_index(i, 2)


def test_fractional_index_is_refused():
    for i in (1.5, 0.5, np.float64(1.0)):
        with pytest.raises(ValueError, match="whole number"):
            check_index(i, 2)
    assert check_index(np.int64(1), 2) == 1


def test_bool_index_is_refused():
    # operator.index(True) is 1
    for i in (True, np.True_, False):
        with pytest.raises(ValueError, match="whole number"):
            check_index(i, 2)


def test_touch_costs_within_bound():
    # the store's counted costs: an entry read is one query and a write
    # none; a column draw is one query and walks ceil(log2 n) levels of
    # the mass tree; a draw within a column of any height is one query and
    # reads the entries of one block
    for n in (1, 2, 5, 100, 1000):
        values = np.arange(1.0, n + 1.0)
        wide, tall = MatrixSampleStore(values[None]), MatrixSampleStore(
            values[:, None])
        wide.query(0, n - 1)
        wide.update(0, 0, 2.5)
        tall.update(n - 1, 0, 2.5)
        assert wide.queries == 1 and tall.queries == 0
        wide.sample_column_indices(stream(1), 1)
        assert wide.queries == 2
        assert wide._mass_tree().size == 2 << math.ceil(math.log2(n))
        tall.sample_in_columns([0], [0.5])
        assert 2 <= tall.queries <= 1 + min(n, ROW_BLOCK)


@given(st.data())
def test_node_consistency_after_update_sequence(data):
    # an m-by-1 store after writes: every column-tree node is the sum of
    # its children, and every sum is bitwise a fresh store's; no value is
    # so small that a nonzero total would be subnormal
    m = data.draw(st.integers(1, 64), label="m")
    finite = st.one_of(st.just(0.0), st.floats(1e-100, 1e6),
                       st.floats(-1e6, -1e-100))
    vals = np.array(data.draw(
        st.lists(finite, min_size=m, max_size=m), label="values"))
    store = MatrixSampleStore(vals[:, None].copy())
    for i, v in data.draw(
            st.lists(st.tuples(st.integers(0, m - 1), finite), max_size=30),
            label="updates"):
        vals[i] = v
        store.update(i, 0, v)
    mass = store._mass_tree()
    sums = store._col_sums[:, 0]
    for node in range(1, sums.size // 2):
        assert sums[node] == sums[2 * node] + sums[2 * node + 1]
    assert store.sq_frobenius == pytest.approx(
        float((vals * vals).sum()), rel=8 * np.finfo(float).eps * m,
        abs=1e-300)
    fresh = MatrixSampleStore(vals[:, None])
    assert np.array_equal(store._col_sums, fresh._col_sums)
    assert np.array_equal(mass, fresh._mass_tree())


def test_query_many_matches_scalar_queries():
    # the store's one gather, with repeated indices, reads what scalar
    # queries read and counts as many reads
    store = MatrixSampleStore((stream(11).random((4, 17)) - 0.5) * 3.0)
    rows, cols = np.array([3, 0, 3]), np.array([0, 5, 16, 5])
    block = store.block_values(rows, cols)
    assert store.queries == 12
    # C-contiguous, as the stacked exact-dot product needs to round as
    # each row's own product does
    assert block.flags.c_contiguous
    assert np.array_equal(block, store.to_array()[np.ix_(rows, cols)])
    assert np.array_equal(block, [[store.query(i, j) for j in cols]
                                  for i in rows])
    assert store.queries == 24
