"""SampleTree: construction, updates, weighted sampling, cost accounting."""
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from levsketch import MatrixSampleStore, SampleTree, stream
from levsketch.sample_store import descend, fill_sums, sample_leaves

from oracles import chisquare_pvalue, sample_leaves_reference


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


def test_sample_overflowing_norm_raises():
    # ||v||^2 = inf: no uniform scales to a residual inside the tree
    with np.errstate(over="ignore"):
        tree = SampleTree([1e200, 0.0])
    with pytest.raises(ValueError, match="squared norm overflows"):
        tree.sample_indices(stream(0), 1)


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
    cap = 1 << max(0, (size - 1).bit_length())
    leaves = np.zeros((trees, cap))
    entry = st.one_of(st.just(0.0), st.builds(
        lambda sign, m, e: sign * m * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
        st.floats(1.0, 9.9), st.integers(-8, 8)))
    for t in range(trees):
        live = draw(st.integers(1, size), label="live")
        leaves[t, :live] = draw(st.lists(entry, min_size=live,
                                         max_size=live), label="entries")
        if not leaves[t].any():
            leaves[t, live - 1] = 1.0
    sums = np.zeros((trees, 2 * cap))
    fill_sums(sums, leaves)
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
    leaves = np.array(leaves, dtype=np.float64)
    sums = np.zeros((leaves.shape[0], 2 * leaves.shape[1]))
    fill_sums(sums, leaves)
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


def test_fractional_index_is_refused():
    tree = SampleTree([1.0, 2.0])
    for call in (lambda: tree.query(1.5), lambda: tree.update(0.5, 7.0),
                 lambda: tree.update(np.float64(1.0), 7.0)):
        with pytest.raises(ValueError, match="whole number"):
            call()
    np.testing.assert_array_equal(tree.values, [1.0, 2.0])
    assert tree.touches == 0
    assert tree.query(np.int64(1)) == 2.0


def test_bool_index_is_refused():
    tree = SampleTree([1.0, 2.0])
    for call in (lambda: tree.query(True), lambda: tree.query(np.True_),
                 lambda: tree.update(False, 7.0)):
        with pytest.raises(ValueError, match="whole number"):
            call()
    np.testing.assert_array_equal(tree.values, [1.0, 2.0])
    assert tree.touches == 0


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
    # C-contiguous, as the stacked exact-dot product needs to round as
    # each row's own product does
    assert block.flags.c_contiguous
    assert np.array_equal(block, store.to_array()[np.ix_(rows, cols)])
    assert np.array_equal(block, [[store.query(i, j) for j in cols]
                                  for i in rows])
    assert store.queries == 24
