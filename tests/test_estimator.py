"""Median-of-means inner products, score evaluation, reports, defect."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from levsketch import (LeverageReport, MatrixSampleStore, Params, SampleTree,
                       compute_params, estimate_inner, gen_example1,
                       mom_group_shape, oracle_facts, orthogonality_defect,
                       qisls_all, qisls_score, qisvd, read_report_csv,
                       SketchDescription, standard_normal, stream,
                       write_report_csv)
from levsketch.estimator import (BLOCK_DRAWS, MODES, group_means,
                                 mom_estimates, row_scores, sampled_block)
from levsketch.sample_store import fill_sums, sample_leaves
from levsketch.sketch import s_rows


def test_mom_group_shape():
    groups, size = mom_group_shape(0.1, 0.05)
    assert size == 600
    assert groups == math.ceil(9.0 * math.log(20.0))
    with pytest.raises(ValueError, match="xi"):
        mom_group_shape(0.0, 0.1)
    # a group size that overflows is inf, which the draw cap refuses
    assert mom_group_shape(1e-170, 0.1)[1] == math.inf
    with pytest.raises(ValueError, match="eta"):
        mom_group_shape(0.1, 1.0)


def test_estimate_inner_single_support_is_exact():
    # x has one nonzero coordinate: every draw hits it and z = x_0 y_0
    x = SampleTree([2.0, 0.0, 0.0])
    y = np.array([7.0, 1.0, 1.0])
    assert estimate_inner(x, y, 0.5, 0.1, stream(0)) == pytest.approx(
        14.0, rel=1e-12)


def test_estimate_inner_disjoint_support_is_zero():
    x = SampleTree([1.0, 0.0])
    y = np.array([0.0, 5.0])
    assert estimate_inner(x, y, 0.5, 0.1, stream(1)) == 0.0


def test_estimate_inner_rejects_a_zero_coordinate_draw(monkeypatch):
    # the shared descent is stubbed to land every draw on coordinate 1,
    # where x is zero
    def zero_draws(sums, counts, rng):
        total = int(np.sum(counts))
        return np.zeros(total, dtype=np.int64), np.ones(total, dtype=np.int64)

    monkeypatch.setattr("levsketch.estimator.sample_leaves", zero_draws)
    tree = SampleTree([2.0, 0.0])
    with pytest.raises(ValueError, match="sampled a zero coordinate"):
        estimate_inner(tree, np.array([1.0, 1.0]), 0.5, 0.1, stream(0))


@pytest.mark.parametrize("length", [2, 4])
def test_estimate_inner_rejects_y_of_another_length(length):
    match = r"y has shape \(%d,\), x has 3 entries" % length
    with pytest.raises(ValueError, match=match):
        estimate_inner(SampleTree([1.0, 2.0, 3.0]), np.ones(length), 0.5,
                       0.1, stream(0))


def test_single_draw_estimate_is_unbiased():
    rng = stream(17)
    x = standard_normal(rng, 100)
    y = standard_normal(rng, 100)
    tree = SampleTree(x)
    idx = tree.sample_indices(stream(1234), 1_000_000)
    z = y[idx] * (tree.sq_norm / x[idx])
    se = z.std() / math.sqrt(z.size)
    assert abs(z.mean() - float(x @ y)) <= 3.0 * se


def test_estimate_inner_hits_additive_target_mostly():
    rng = stream(2)
    x = standard_normal(rng, 60)
    y = standard_normal(rng, 60)
    tree = SampleTree(x)
    bound = 0.2 * math.sqrt(tree.sq_norm) * math.sqrt(float(y @ y))
    truth = float(x @ y)
    hits = sum(abs(estimate_inner(tree, y, 0.2, 0.1, stream(1000 + t)) - truth)
               <= bound for t in range(60))
    assert hits >= 48


def test_shared_draws_cover_each_coordinate_and_all_together():
    # one draw set per row serves all k columns of y: each coordinate keeps
    # the one-column guarantee at eta = delta / k, and so, by the union
    # bound, all k land together with probability at least 1 - delta
    rng = stream(3)
    x = standard_normal(rng, 40) * np.exp(standard_normal(rng, 40))
    ys = standard_normal(rng, (40, 6))
    xi, delta, k = 0.3, 0.1, ys.shape[1]
    eta = delta / k
    leaves = np.zeros((1, 64))
    leaves[0, :40] = x
    sums = np.zeros((1, 128))
    fill_sums(sums, leaves)
    groups, size = mom_group_shape(xi, eta)
    bound = xi * math.sqrt(x @ x) * np.sqrt((ys * ys).sum(axis=0))
    hits = np.array([
        np.abs(mom_estimates(sums, leaves, ys, groups, np.array([size]),
                             stream(5000 + t))[0] - x @ ys) <= bound
        for t in range(300)])
    assert (hits.mean(axis=0) >= 1.0 - eta).all()
    assert hits.all(axis=1).mean() >= 1.0 - delta


def rank_one_store():
    a = np.outer([3.0, -4.0, 0.0], [1.0, 2.0])
    return a, MatrixSampleStore(a)


def test_rank_one_scores_exact_dot():
    a, store = rank_one_store()
    exact, _, norm, kappa = oracle_facts(a)
    prm = compute_params(0.5, 0.1, 1, kappa, norm,
                         math.sqrt(store.sq_frobenius), p_override=8)
    sketch = qisvd(store, prm, stream(3))
    rep = qisls_all(store, sketch, prm, exact=exact)
    np.testing.assert_allclose(rep.approx, [0.36, 0.64, 0.0], atol=1e-6)
    assert rep.coherence_row == 1
    assert rep.coherence == pytest.approx(0.64, abs=1e-6)
    assert rep.abs_err.max() <= 1e-6


def test_zero_row_scores_zero_in_both_modes():
    a, store = rank_one_store()
    _, _, norm, kappa = oracle_facts(a)
    prm = compute_params(0.5, 0.1, 1, kappa, norm,
                         math.sqrt(store.sq_frobenius), p_override=8,
                         xi_override=0.3)
    sketch = qisvd(store, prm, stream(4))
    assert qisls_score(store, sketch, 2) == 0.0
    assert qisls_score(store, sketch, 2, mode="sampled-dot", params=prm,
                       rng=stream(5)) == 0.0


def loop_row_score(srow, sketch, params, rng):
    """Sampled-dot score of one row of S the plain way: one tree for the
    row and one draw call, whose draws every coordinate shares."""
    sq = float(srow @ srow)
    if sq == 0.0:
        return 0.0
    tree = SampleTree(srow)
    groups, size = mom_group_shape(
        params.xi_effective * sketch.frob_norm / math.sqrt(sq),
        params.delta / params.k)
    idx = tree.sample_indices(rng, groups * int(size))
    z = sketch.v[idx] * (tree.sq_norm / srow[idx])[:, None]
    t = np.median(z.reshape(groups, int(size), sketch.k).mean(axis=1),
                  axis=0)
    u_row = t / sketch.sigma
    return float(u_row @ u_row)


def loop_sampled_score(store, sketch, i, params, rng):
    """Sampled-dot score of row i, gathered alone."""
    return loop_row_score(s_rows(store, sketch, [i])[0], sketch, params, rng)


def loop_sampled_block(s, sketch, params, rng, out):
    """``sampled_block`` as a Python loop over the rows, each drawn
    whole."""
    for r, srow in enumerate(s):
        out[r] = loop_row_score(srow, sketch, params, rng)


@given(st.integers(1, 40), st.integers(1, 6), st.lists(
    st.one_of(st.none(), st.integers(-6, 6)), min_size=1, max_size=12),
    st.sampled_from([0.05, 0.1, 0.3]),
    st.sampled_from([0.2, 0.5, 1.0, 3.0]), st.integers(0, 10_000))
def test_sampled_block_is_bitwise_the_row_loop(p, k, exponents, delta, xi,
                                               seed):
    # rows of norms 10^e (None: a zero row) over p columns and k
    # coordinates; row norms, group sizes and scores are vectorized
    k = min(k, p)
    rng = stream(seed)
    s = standard_normal(rng, (len(exponents), p))
    for r, e in enumerate(exponents):
        s[r] *= 0.0 if e is None else 10.0 ** e
    sketch = SketchDescription(
        col_indices=np.arange(p), col_probs=np.full(p, 1.0 / p),
        row_indices=np.arange(p), row_probs=np.full(p, 1.0 / p),
        frob_norm=float(np.sqrt((s * s).sum())) or 1.0,
        v=standard_normal(rng, (p, k)),
        sigma=np.sort(np.abs(standard_normal(rng, k)))[::-1] + 0.1)
    params = compute_params(0.5, delta, k, 1.0, 1.0, 1.0, p_override=p,
                            xi_override=xi)
    got, want = np.zeros(len(exponents)), np.zeros(len(exponents))
    vec_rng, loop_rng = stream(seed + 1), stream(seed + 1)
    sampled_block(s, sketch, params, vec_rng, got)
    loop_sampled_block(s, sketch, params, loop_rng, want)
    assert np.array_equal(got, want)
    assert np.array_equal(vec_rng.random(2), loop_rng.random(2))


def test_vanishing_xi_is_a_value_error():
    # xi ||S||_F / ||S_i|| squares to 0: the group size 6 / 0 is refused
    # as too many draws, not raised as a division by zero
    s = np.array([[1.0, 2.0], [3.0, 4.0]])
    sketch = SketchDescription(
        col_indices=np.arange(2), col_probs=np.full(2, 0.5),
        row_indices=np.arange(2), row_probs=np.full(2, 0.5),
        frob_norm=1.0, v=np.eye(2), sigma=np.ones(2))
    params = compute_params(0.5, 0.1, 2, 1.0, 1.0, 1.0, p_override=2,
                            xi_override=1e-170)
    with pytest.raises(ValueError, match="inf draws"):
        sampled_block(s, sketch, params, stream(0), np.zeros(2))
    with pytest.raises(ValueError, match="inf draws"):
        estimate_inner(SampleTree([1.0, 2.0]), [1.0, 1.0], 1e-170, 0.1,
                       stream(0))


@pytest.mark.parametrize("block_draws", [BLOCK_DRAWS, 800])
def test_block_scores_match_row_at_a_time_scores(monkeypatch, block_draws):
    # 130 rows, one of them zero, over several draw blocks; at a budget of
    # 800 values a block S is also gathered in several parts, and a row
    # takes 34 to 748 draws of 4 values each, so the heavier rows are over
    # the budget by themselves and are drawn a few groups at a time
    monkeypatch.setattr("levsketch.estimator.BLOCK_DRAWS", block_draws)
    blocks = []

    def counting(sums, counts, rng):
        blocks.append(np.asarray(counts))
        return sample_leaves(sums, counts, rng)

    monkeypatch.setattr("levsketch.estimator.sample_leaves", counting)
    chunks = []

    def chunk(sums, leaves, ys, groups, sizes, rng):
        chunks.append(groups)
        return group_means(sums, leaves, ys, groups, sizes, rng)

    monkeypatch.setattr("levsketch.estimator.group_means", chunk)
    rng = stream(31)
    a = standard_normal(rng, (130, 6)) @ standard_normal(rng, (6, 10))
    a[57] = 0.0
    store = MatrixSampleStore(a)
    _, _, norm, kappa = oracle_facts(a)
    prm = compute_params(0.5, 0.1, 4, kappa, norm,
                         math.sqrt(store.sq_frobenius), p_override=20,
                         xi_override=0.1)
    sketch = qisvd(store, prm, stream(32))
    rows = np.arange(130)
    together, one_by_one, loop = stream(33), stream(33), stream(33)
    block = qisls_all(store, sketch, prm, rows=rows, mode="sampled-dot",
                      rng=together).approx
    assert len(blocks) >= 3
    # no descent gathers more than the budget's values, 4 per draw
    assert all(c.sum() <= block_draws // 4 for c in blocks)
    # only under the small budget did a row descend a few groups at a time
    assert (min(chunks) < 34) == (block_draws < BLOCK_DRAWS)
    single = np.array([qisls_score(store, sketch, int(i), mode="sampled-dot",
                                   params=prm, rng=one_by_one) for i in rows])
    plain = np.array([loop_sampled_score(store, sketch, int(i), prm, loop)
                      for i in rows])
    assert block[57] == 0.0
    assert np.all(block[rows != 57] > 0.0)
    assert np.array_equal(block, single)
    assert np.array_equal(block, plain)
    # all three streams stopped at the same position
    after = [g.random(4) for g in (together, one_by_one, loop)]
    assert np.array_equal(after[0], after[1])
    assert np.array_equal(after[0], after[2])


@pytest.mark.parametrize("block_draws", [BLOCK_DRAWS, 800])
def test_exact_dot_scores_match_dense_per_row_reference(monkeypatch,
                                                        block_draws):
    # p = 33 is odd; at 800 draws a block S is gathered 24 rows at a time
    monkeypatch.setattr("levsketch.estimator.BLOCK_DRAWS", block_draws)
    rng = stream(34)
    a = standard_normal(rng, (130, 7)) @ standard_normal(rng, (7, 12))
    a[88] = 0.0
    store = MatrixSampleStore(a)
    _, _, norm, kappa = oracle_facts(a)
    prm = compute_params(0.5, 0.1, 5, kappa, norm,
                         math.sqrt(store.sq_frobenius), p_override=33)
    sketch = qisvd(store, prm, stream(35))
    store.queries = 0
    scores = qisls_all(store, sketch, prm).approx
    assert store.queries == 33 * 130
    dense = store.to_array()
    plain = np.empty(130)
    for i in range(130):
        srow = dense[i, sketch.col_indices] * sketch.col_scale
        u_row = (srow @ sketch.v) / sketch.sigma
        plain[i] = u_row @ u_row
    assert scores[88] == 0.0
    assert np.array_equal(scores, plain)


@given(st.integers(1, 120), st.integers(1, 60), st.integers(1, 300),
       st.integers(1, 2000), st.sampled_from(["c", "fortran", "strided"]),
       st.integers(0, 10_000))
def test_exact_dot_stacked_product_is_bitwise_per_row(p, k, m, block, layout,
                                                      seed):
    # the stacked 1-by-p products of row_scores must stay bitwise equal to
    # each row's own srow @ V whatever the dispatch of a numpy or BLAS
    # upgrade; V and sigma also come in non-contiguous layouts
    k = min(k, p)
    rng = stream(seed)
    a = standard_normal(rng, (m, 9))
    store = MatrixSampleStore(a)
    big = standard_normal(rng, (p, 2 * k))
    v = {"c": big[:, :k].copy(), "fortran": np.asfortranarray(big[:, :k]),
         "strided": big[:, ::2]}[layout]
    sigma = np.abs(standard_normal(rng, 2 * k))[::2] + 0.1
    sketch = SketchDescription(
        col_indices=rng.integers(0, 9, p), col_probs=rng.random(p) + 0.01,
        row_indices=np.zeros(p, dtype=np.int64), row_probs=np.ones(p),
        frob_norm=1.0, v=v, sigma=sigma)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("levsketch.estimator.BLOCK_DRAWS", block)
        scores = row_scores(store, sketch, np.arange(m), "exact-dot")
    plain = np.empty(m)
    for i in range(m):
        srow = a[i, sketch.col_indices] * sketch.col_scale
        u_row = (srow @ v) / sigma
        plain[i] = u_row @ u_row
    assert np.array_equal(scores, plain)


def test_unaffordable_draw_count_raises_before_drawing():
    # derived (not overridden) xi asks 31 groups of 13788240 draws for one
    # coordinate of the heaviest row; the check must fire before any draw
    rng = stream(36)
    a = standard_normal(rng, (40, 4)) @ standard_normal(rng, (4, 8))
    store = MatrixSampleStore(a)
    _, _, norm, kappa = oracle_facts(a)
    prm = compute_params(0.5, 0.1, 3, kappa, norm,
                         math.sqrt(store.sq_frobenius), p_override=12)
    assert prm.xi_override is None
    sketch = qisvd(store, prm, stream(37))
    s = s_rows(store, sketch, np.arange(40))
    heaviest = int(np.argmax((s * s).sum(axis=1)))
    score_rng, inner_rng = stream(38), stream(39)
    with pytest.raises(ValueError, match="427435440 draws.*xi_override"):
        qisls_score(store, sketch, heaviest, mode="sampled-dot", params=prm,
                    rng=score_rng)
    with pytest.raises(ValueError, match="draws for one coordinate"):
        estimate_inner(SampleTree([1.0, 2.0]), [1.0, 1.0], 1e-4, 0.1,
                       inner_rng)
    assert np.array_equal(score_rng.random(4), stream(38).random(4))
    assert np.array_equal(inner_rng.random(4), stream(39).random(4))


def test_rank_one_random_instances_tight():
    for seed in (0, 1, 2):
        rng = stream(seed)
        a = np.outer(standard_normal(rng, 200), standard_normal(rng, 10))
        store = MatrixSampleStore(a)
        exact, _, norm, kappa = oracle_facts(a)
        prm = compute_params(0.5, 0.1, 1, kappa, norm,
                             math.sqrt(store.sq_frobenius), p_override=16)
        sketch = qisvd(store, prm, stream(seed + 100))
        rep = qisls_all(store, sketch, prm, exact=exact)
        assert rep.abs_err.max() <= 1e-6


# identity seeds whose 8 column and 8 row draws land twice on each index;
# the sketch is then a exactly orthogonal scaled identity
BALANCED_IDENTITY_SEEDS = (450, 507, 1761, 2290)


def test_identity_balanced_draws_give_unit_scores():
    store = MatrixSampleStore(np.eye(4))
    prm = compute_params(0.5, 0.1, 4, 1.0, 1.0, 2.0, p_override=8)
    for seed in BALANCED_IDENTITY_SEEDS:
        sketch = qisvd(store, prm, stream(seed))
        rep = qisls_all(store, sketch, prm)
        np.testing.assert_allclose(rep.approx, np.ones(4), atol=1e-8)
        # all four scores tie at 1; the argmax reports the lowest row
        assert rep.coherence_row == 0
        assert orthogonality_defect(store, sketch) <= 0.1


def test_rank_one_defect_tiny():
    a, store = rank_one_store()
    prm = compute_params(0.5, 0.1, 1, 1.0, 1.0, 1.0, p_override=12)
    sketch = qisvd(store, prm, stream(6))
    assert orthogonality_defect(store, sketch) <= 1e-8


def test_sampled_dot_on_banded_gaussian():
    # 1000x100 banded instance, 70 zeroed columns; sampled-dot at the
    # practical floor xi=0.1 stays well under 0.1 absolute error on a
    # spread of rows (calibrated: max observed 0.028)
    a = gen_example1(1000, 100, 70, seed=3)
    store = MatrixSampleStore(a)
    exact, _, norm, kappa = oracle_facts(a)
    prm = compute_params(0.5, 0.1, 20, kappa, norm,
                         math.sqrt(store.sq_frobenius), p_override=60,
                         xi_override=0.1)
    sketch = qisvd(store, prm, stream(11))
    rows = [0, 250, 333, 500, 700, 750, 900, 999]
    rep = qisls_all(store, sketch, prm, rows=rows, mode="sampled-dot",
                    seed=99, exact=exact)
    assert rep.mode == "sampled-dot"
    assert rep.abs_err.max() <= 0.1


def test_tighter_xi_shrinks_mode_disagreement():
    rng = stream(5)
    a = standard_normal(rng, (30, 3)) @ standard_normal(rng, (8, 3)).T
    store = MatrixSampleStore(a)
    _, _, norm, kappa = oracle_facts(a)
    fro = math.sqrt(store.sq_frobenius)
    base = compute_params(0.5, 0.1, 3, kappa, norm, fro, p_override=20)
    sketch = qisvd(store, base, stream(21))
    exact_dot = qisls_all(store, sketch, base).approx

    def mean_gap(xi):
        prm = compute_params(0.5, 0.1, 3, kappa, norm, fro, p_override=20,
                             xi_override=xi)
        gaps = [np.abs(qisls_all(store, sketch, prm, mode="sampled-dot",
                                 seed=s).approx - exact_dot).mean()
                for s in (0, 1, 2)]
        return float(np.mean(gaps))

    coarse, fine = mean_gap(0.4), mean_gap(0.05)
    # calibrated gaps 0.026 vs 0.0027; the gate only needs a 2x shrink
    assert coarse >= 2.0 * fine


def test_coherence_row_matches_exact_argmax_when_separated():
    # one row dominates the first singular direction and the two directions
    # carry near-equal mass: the top exact score sits 0.74 above the
    # runner-up while sketch errors stay around 0.15
    a = np.array([[10.0, 0.0], [0.0, 4.0], [0.0, 4.0],
                  [0.5, 4.0], [0.5, 4.0]])
    exact, _, norm, kappa = oracle_facts(a)
    gap = np.sort(exact)[-1] - np.sort(exact)[-2]
    store = MatrixSampleStore(a)
    prm = compute_params(0.5, 0.1, 2, kappa, norm,
                         math.sqrt(store.sq_frobenius), p_override=64)
    for seed in range(5):
        sketch = qisvd(store, prm, stream(7 + seed))
        rep = qisls_all(store, sketch, prm, exact=exact)
        assert 2.0 * rep.abs_err.max() < gap
        assert rep.coherence_row == int(np.argmax(exact))


def test_score_validation():
    a, store = rank_one_store()
    prm = compute_params(0.5, 0.1, 1, 1.0, 1.0, 1.0, p_override=8)
    sketch = qisvd(store, prm, stream(8))
    bare = qisvd(store, prm, stream(8))
    bare.v = bare.sigma = None
    with pytest.raises(ValueError, match="no singular triplets"):
        qisls_score(store, bare, 0)
    with pytest.raises(ValueError, match="out of range"):
        qisls_score(store, sketch, 3)
    with pytest.raises(ValueError, match="mode must be"):
        qisls_score(store, sketch, 0, mode="fast")
    with pytest.raises(ValueError, match="needs params and rng"):
        qisls_score(store, sketch, 0, mode="sampled-dot")


def test_qisls_all_validation():
    a, store = rank_one_store()
    prm = compute_params(0.5, 0.1, 1, 1.0, 1.0, 1.0, p_override=8)
    sketch = qisvd(store, prm, stream(9))
    with pytest.raises(ValueError, match="empty row set"):
        qisls_all(store, sketch, prm, rows=[])
    with pytest.raises(ValueError, match="out of range"):
        qisls_all(store, sketch, prm, rows=[5])
    with pytest.raises(ValueError, match="cover every row"):
        qisls_all(store, sketch, prm, exact=np.ones(2))


def test_scoring_rejects_a_sketch_of_another_store():
    big = MatrixSampleStore(gen_example1(20, 10, 0, 3))
    prm = compute_params(0.5, 0.1, 2, 1.0, 1.0, 1.0, p_override=8)
    sketch = qisvd(big, prm, stream(3))
    small = MatrixSampleStore(big.to_array()[:5, :4])
    assert sketch.col_indices.max() >= small.n
    with pytest.raises(ValueError, match="sketch columns out of range"):
        qisls_all(small, sketch, prm)
    sketch.v = sketch.v[:, :1]
    with pytest.raises(ValueError, match=r"\(8, 1\), not \(p, k\) = \(8, 2\)"):
        qisls_all(big, sketch, prm)


def test_scoring_rejects_row_indices_that_are_not_whole():
    a, store = rank_one_store()
    prm = compute_params(0.5, 0.1, 1, 1.0, 1.0, 1.0, p_override=8)
    sketch = qisvd(store, prm, stream(9))
    with pytest.raises(ValueError, match="whole number"):
        qisls_all(store, sketch, prm, rows=[1.5, 0.9])
    with pytest.raises(ValueError, match="whole number"):
        qisls_score(store, sketch, 1.5)


def test_report_round_trip(tmp_path):
    a, store = rank_one_store()
    exact, _, norm, kappa = oracle_facts(a)
    prm = compute_params(0.5, 0.1, 1, kappa, norm,
                         math.sqrt(store.sq_frobenius), p_override=8,
                         xi_override=0.2)
    sketch = qisvd(store, prm, stream(10))
    rep = qisls_all(store, sketch, prm, exact=exact, seed=77)
    path = tmp_path / "report.csv"
    write_report_csv(path, rep)
    text = path.read_text()
    assert "i,approx,exact,abs_err" in text
    assert f"# coherence_row={rep.coherence_row + 1}" in text
    back = read_report_csv(path)
    np.testing.assert_array_equal(back.rows, rep.rows)
    np.testing.assert_array_equal(back.approx, rep.approx)
    np.testing.assert_array_equal(back.exact, rep.exact)
    np.testing.assert_array_equal(back.abs_err, rep.abs_err)
    assert back.coherence == rep.coherence
    assert back.coherence_row == rep.coherence_row
    assert back.mode == rep.mode and back.seed == 77
    assert back.params == rep.params


@pytest.mark.parametrize("whole", [12.0, np.int64(12)],
                         ids=["float", "numpy-int"])
def test_report_round_trip_with_whole_number_params(tmp_path, whole):
    a, store = rank_one_store()
    prm = compute_params(0.5, 0.1, whole // 4, 1.0, 1.0, 1.0,
                         p_override=whole)
    assert (prm.k, prm.p_override, prm.p) == (3, 12, 12)
    assert type(prm.k) is type(prm.p_override) is int
    rep = qisls_all(store, qisvd(store, prm, stream(11)), prm)
    path = tmp_path / "whole.csv"
    write_report_csv(path, rep)
    assert "# p_override=12\n" in path.read_text()
    assert read_report_csv(path).params == prm


def test_report_round_trip_without_exact(tmp_path):
    a, store = rank_one_store()
    prm = compute_params(0.5, 0.1, 1, 1.0, 1.0, 1.0, p_override=8)
    sketch = qisvd(store, prm, stream(12))
    rep = qisls_all(store, sketch, prm)
    path = tmp_path / "bare.csv"
    write_report_csv(path, rep)
    back = read_report_csv(path)
    assert back.exact is None and back.abs_err is None
    np.testing.assert_array_equal(back.approx, rep.approx)


def some_report(tmp_path):
    a, store = rank_one_store()
    exact, _, norm, kappa = oracle_facts(a)
    prm = compute_params(0.5, 0.1, 1, kappa, norm,
                         math.sqrt(store.sq_frobenius), p_override=8)
    rep = qisls_all(store, qisvd(store, prm, stream(13)), prm, exact=exact)
    path = tmp_path / "report.csv"
    write_report_csv(path, rep)
    return path


@pytest.mark.parametrize("edit, reason", [
    (lambda t: t.replace("# epsilon=0.5\n", ""), "no epsilon line"),
    (lambda t: t.replace("# k=1\n", "# k=one\n"), "non-numeric"),
    (lambda t: t.replace("# seed=0\n", "# seed=\n"), "non-numeric"),
    (lambda t: t.replace("\n2,", "\n2,x,"), "5 fields"),
    (lambda t: t.replace("\n2,", "\nx,"), "non-numeric"),
    (lambda t: t.replace("\n2,", "\n1.5,"), "row index"),
    (lambda t: t.replace("\n2,", "\n0,"), "row index"),
    (lambda t: t.rpartition(",")[0] + "\n", "3 fields"),
    (lambda t: t.partition("i,approx")[0], "no data rows"),
    (lambda t: "# mode=x\n1,0.5,nan,nan\n", "no epsilon line"),
    (lambda t: t.replace("i,approx", "[V]\ni,approx"), "1 fields"),
], ids=["missing-key", "non-numeric-meta", "empty-meta", "five-fields",
        "non-numeric-field", "fractional-index", "zero-index", "three-fields",
        "no-data", "mode-only", "section-line"])
def test_malformed_report_is_value_error(tmp_path, edit, reason):
    path = some_report(tmp_path)
    path.write_text(edit(path.read_text()))
    with pytest.raises(ValueError, match=reason) as info:
        read_report_csv(path)
    assert str(info.value).startswith("malformed report file")
    assert "\n" not in str(info.value)


FINITE = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(1e-300, 1e300, allow_nan=False, allow_infinity=False)
# numpy scalars reach Params from callers that pass numpy norms
POSITIVE_OR_NUMPY = POSITIVE | POSITIVE.map(np.float64)


@st.composite
def reports(draw):
    size = draw(st.integers(1, 8))
    vectors = st.lists(FINITE, min_size=size, max_size=size).map(np.array)
    params = Params(
        k=draw(st.integers(1, 500)), p=draw(st.integers(1, 10**6)),
        p_override=draw(st.none() | st.integers(1, 10**6)),
        xi_override=draw(st.none() | POSITIVE_OR_NUMPY),
        **{name: draw(POSITIVE_OR_NUMPY) for name in (
            "epsilon", "delta", "kappa", "spectral_norm", "frob_norm",
            "omega", "theta", "xi")})
    exact = draw(st.none() | vectors)
    return LeverageReport(
        rows=np.array(draw(st.lists(st.integers(0, 10**6), min_size=size,
                                    max_size=size, unique=True))),
        approx=draw(vectors), exact=exact,
        abs_err=None if exact is None else draw(vectors),
        coherence_row=draw(st.integers(0, 10**6)), coherence=draw(FINITE),
        mode=draw(st.sampled_from(MODES)), seed=draw(st.integers(0, 2**63)),
        params=params)


@given(reports())
def test_report_round_trips_any_report(tmp_path_factory, rep):
    path = tmp_path_factory.mktemp("report") / "r.csv"
    write_report_csv(path, rep)
    back = read_report_csv(path)
    np.testing.assert_array_equal(back.rows, rep.rows)
    np.testing.assert_array_equal(back.approx, rep.approx)
    for got, want in ((back.exact, rep.exact), (back.abs_err, rep.abs_err)):
        assert (got is None) == (want is None)
        if want is not None:
            np.testing.assert_array_equal(got, want)
    assert (back.coherence_row, back.coherence, back.mode, back.seed,
            back.params) == (rep.coherence_row, rep.coherence, rep.mode,
                             rep.seed, rep.params)


NUMERIC_KEYS = ("seed", "coherence_row", "coherence", "k", "p", "epsilon",
                "delta", "kappa", "spectral_norm", "frob_norm", "omega",
                "theta", "xi")


@given(reports(), st.data())
def test_mutated_reports_are_rejected(tmp_path_factory, rep, data):
    path = tmp_path_factory.mktemp("report") / "r.csv"
    write_report_csv(path, rep)
    lines = path.read_text().splitlines()
    body = [t for t, line in enumerate(lines)
            if line and not line.startswith(("#", "i,"))]
    key = data.draw(st.sampled_from(NUMERIC_KEYS), label="key")
    meta = lines.index(next(line for line in lines
                            if line.startswith(f"# {key}=")))
    t = data.draw(st.sampled_from(body), label="row")
    fields = lines[t].split(",")
    f = data.draw(st.integers(0, 3), label="field")
    mutation = data.draw(st.sampled_from(
        ["drop-key", "garble-key", "garble-field", "drop-field",
         "add-field", "no-data"]))
    if mutation == "drop-key":
        del lines[meta]
    elif mutation == "garble-key":
        lines[meta] += "x"
    elif mutation == "garble-field":
        lines[t] = ",".join(fields[:f] + ["1.0.0"] + fields[f + 1:])
    elif mutation == "drop-field":
        lines[t] = ",".join(fields[:f] + fields[f + 1:])
    elif mutation == "add-field":
        lines[t] += ",1.0"
    else:
        lines = [line for t, line in enumerate(lines) if t not in body]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="malformed report file"):
        read_report_csv(path)
