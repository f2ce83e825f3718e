"""Label propagation: solver vs closed forms, oracle route, certainty."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmend import accel, propagate
from graphmend.core import FeatureMatrix, LabelState, SolverError, ValidationError
from graphmend.graph import GraphConfig, build_adjacency, normalize_graph
from graphmend.propagate import (
    NO_SUGGESTION,
    PropagationConfig,
    SuggestionTensor,
    build_partial_labels,
    certainty_weights,
    solve_propagation,
    suggest_labels,
)
from graphmend.splitter import SplitConfig, split_dataset


def diffusion_oracle(W, Y, alpha, iters):
    """Fixed-point iteration z <- alpha*W z + y on scipy's sparse matvec.

    Converges to the same fixed point the solver targets; kept free of
    any shared solver code so the two routes stay independent checks.
    """
    Y = np.asarray(Y, dtype=np.float64)
    flat = Y.reshape(W.shape[0], -1)
    z = flat.copy()
    for _ in range(iters):
        z = alpha * (W @ z) + flat
    return z.reshape(Y.shape)


def random_normalized_graph(seed, n):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 4)).astype(np.float32)
    A = build_adjacency(FeatureMatrix(X), GraphConfig(k_graph=min(8, n - 1), gamma=3.0))
    return normalize_graph(A)


def test_partial_labels_planes():
    feats = FeatureMatrix(np.random.default_rng(0).standard_normal((6, 3)))
    labels = np.array([0, 0, 0, 1, 1, 1])
    assignment = split_dataset(feats, labels, SplitConfig(2, 1, 0))
    corrected = np.array([1, 0, 0, 1, 0, 1])
    state = LabelState(labels, corrected, np.ones(6), 2)
    total = np.zeros((6, 2, 2))
    for j in range(2):
        Y = build_partial_labels(assignment, j, state)
        assert Y.shape == (6, 2, 2)
        members = np.flatnonzero(assignment.branch_of == j)
        others = np.flatnonzero(assignment.branch_of != j)
        assert np.allclose(Y[others], 0.0)
        for i in members:
            assert Y[i, labels[i], 0] == 1.0 and Y[i].sum() == 2.0
            assert Y[i, corrected[i], 1] == 1.0
        total += Y
    # the branches partition the samples, so the planes sum to full one-hots
    assert np.allclose(total.sum(axis=1), 1.0)


def test_partial_labels_branch_out_of_range():
    feats = FeatureMatrix(np.ones((2, 2), dtype=np.float32))
    labels = np.array([0, 1])
    assignment = split_dataset(feats, labels, SplitConfig(1, 1, 0))
    state = LabelState(labels, labels, np.ones(2), 2)
    with pytest.raises(ValidationError):
        build_partial_labels(assignment, 1, state)


def test_solve_zero_graph_returns_input():
    W = scipy.sparse.csr_matrix(np.zeros((4, 4)))
    Y = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [2.0, 0.5]])
    Z = solve_propagation(W, Y, PropagationConfig())
    assert np.array_equal(Z, Y)


def test_solve_two_node_closed_form():
    # (I - 0.5 W)^-1 (1, 0) with W the swap has rows (4/3, 2/3)
    W = scipy.sparse.csr_matrix([[0.0, 1.0], [1.0, 0.0]])
    Y = np.array([[1.0], [0.0]])
    cfg = PropagationConfig(alpha_prop=0.5, cg_tolerance=1e-12, cg_max_iters=50)
    Z = solve_propagation(W, Y, cfg)
    assert Z[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-10)
    assert Z[1, 0] == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_solve_matches_dense_inverse():
    W = random_normalized_graph(1, 30)
    dense = W.toarray()
    rng = np.random.default_rng(2)
    Y = rng.uniform(0, 1, (30, 3))
    for alpha in (0.5, 0.9, 0.99):
        cfg = PropagationConfig(alpha_prop=alpha, cg_tolerance=1e-12, cg_max_iters=500)
        Z = solve_propagation(W, Y, cfg)
        want = np.linalg.solve(np.eye(30) - alpha * dense, Y)
        assert np.abs(Z - want).max() < 1e-8


def test_solve_matches_diffusion_oracle():
    for seed in range(3):
        W = random_normalized_graph(seed, 40)
        rng = np.random.default_rng(seed + 50)
        Y = np.zeros((40, 3))
        Y[np.arange(40), rng.integers(3, size=40)] = 1.0
        Z = solve_propagation(
            W, Y, PropagationConfig(alpha_prop=0.9, cg_tolerance=1e-10, cg_max_iters=400)
        )
        ref = diffusion_oracle(W, Y, 0.9, 800)
        assert np.abs(Z - ref).max() < 1e-7


def test_solve_multi_plane_shape():
    W = random_normalized_graph(4, 25)
    rng = np.random.default_rng(5)
    Y = rng.uniform(0, 1, (25, 4, 2))
    Z = solve_propagation(W, Y, PropagationConfig(alpha_prop=0.5))
    assert Z.shape == (25, 4, 2)
    flatZ = solve_propagation(W, Y.reshape(25, 8), PropagationConfig(alpha_prop=0.5))
    assert np.allclose(Z.reshape(25, 8), flatZ, atol=1e-9)


def test_solve_nonnegative_mass():
    # Neumann series of a non-negative W keeps non-negative inputs
    # non-negative up to solver tolerance
    for seed in range(3):
        W = random_normalized_graph(seed + 10, 35)
        Y = np.zeros((35, 2))
        Y[::3, 0] = 1.0
        Y[1::3, 1] = 1.0
        Z = solve_propagation(W, Y, PropagationConfig(alpha_prop=0.99))
        assert Z.min() > -1e-9


def test_solve_on_unnormalized_adjacency_raises_solver_error():
    # nothing checks that W is normalized; build_adjacency's directional
    # output has spectral radius far above 1, so CG cannot converge on it
    rng = np.random.default_rng(120)
    X = rng.standard_normal((120, 4)).astype(np.float32)
    A = build_adjacency(FeatureMatrix(X), GraphConfig(k_graph=10, gamma=1.0))
    Y = np.zeros((120, 3, 2))
    Y[np.arange(120), np.arange(120) % 3, :] = 1.0
    with pytest.raises(SolverError, match="after 200 iterations"):
        solve_propagation(A, Y, PropagationConfig())


def test_solver_error_reports_residual():
    W = random_normalized_graph(7, 60)
    Y = np.ones((60, 2))
    cfg = PropagationConfig(alpha_prop=0.99, cg_tolerance=1e-10, cg_max_iters=1)
    with pytest.raises(SolverError, match="residual"):
        solve_propagation(W, Y, cfg)


def test_solve_rejects_row_count_mismatch():
    W = random_normalized_graph(3, 20)
    for Y in (np.ones((19, 2)), np.ones((21, 2, 2)), np.float64(1.0)):
        with pytest.raises(ValidationError, match="20 nodes"):
            solve_propagation(W, Y, PropagationConfig())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_rejects_non_finite_column(bad):
    W = random_normalized_graph(3, 20)
    Y = np.zeros((20, 2, 2))
    Y[:, 0, 0] = 1.0
    Y[5, 1, 1] = bad
    with pytest.raises(ValidationError, match="nan or inf"):
        solve_propagation(W, Y, PropagationConfig())


def solve_propagation_reference(W, Y, cfg):
    """The solver before duplicate columns were solved once: every live
    column goes to one CG call."""
    Y = np.asarray(Y, dtype=np.float64)
    n = W.shape[0]
    flat = Y.reshape(n, -1)
    Z = np.zeros_like(flat)
    live = np.linalg.norm(flat, axis=0) > 0
    if live.any():
        Z[:, live] = propagate._cg(W, flat[:, live], cfg)
    return Z.reshape(Y.shape)


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.fixture(scope="module", params=[50, 5], ids=["k50", "k5"])
def knn_graph(request):
    """A cosine kNN graph at k = 50 (the README default) or k = 5."""
    rng = np.random.default_rng(request.param)
    X = rng.standard_normal((300, 8)).astype(np.float32)
    return normalize_graph(build_adjacency(FeatureMatrix(X), GraphConfig(k_graph=request.param)))


def test_dedup_identical_planes_equal_reference(knn_graph):
    rng = np.random.default_rng(11)
    n = knn_graph.shape[0]
    cfg = PropagationConfig()
    for C, share in ((16, 1.0), (4, 0.3), (3, 0.05)):
        # one-hot labels on a share of the rows; plane 1 copies plane 0
        members = np.flatnonzero(rng.uniform(size=n) < share)
        Y = np.zeros((n, C, 2))
        Y[members, rng.integers(C, size=members.size), 0] = 1.0
        Y[:, :, 1] = Y[:, :, 0]
        assert_bits_equal(solve_propagation(knn_graph, Y, cfg),
                          solve_propagation_reference(knn_graph, Y, cfg))


def test_dedup_scattered_duplicates_equal_reference(knn_graph):
    rng = np.random.default_rng(12)
    n = knn_graph.shape[0]
    cfg = PropagationConfig(alpha_prop=0.9)
    base = rng.uniform(0, 1, (n, 4))
    base[rng.uniform(size=(n, 4)) < 0.7] = 0.0
    # 13 columns: zero columns and copies of the 4 patterns, in no order
    pick = [2, -1, 0, 2, 3, -1, 1, 0, 0, 3, -1, 2, 1]
    Y = np.column_stack([base[:, c] if c >= 0 else np.zeros(n) for c in pick])
    cols, slot = propagate._distinct_columns(Y, np.flatnonzero(np.array(pick) >= 0))
    assert cols.tolist() == [0, 2, 4, 6]
    assert slot.tolist() == [0, 1, 0, 2, 3, 1, 1, 2, 0, 3]
    assert_bits_equal(solve_propagation(knn_graph, Y, cfg),
                      solve_propagation_reference(knn_graph, Y, cfg))


def test_dedup_keeps_width_when_all_live_columns_match(knn_graph):
    rng = np.random.default_rng(13)
    n = knn_graph.shape[0]
    cfg = PropagationConfig()
    y = np.zeros(n)
    y[rng.uniform(size=n) < 0.4] = 1.0
    Y = np.column_stack([np.zeros(n), y, y, np.zeros(n)])
    want = solve_propagation_reference(knn_graph, Y, cfg)
    assert_bits_equal(solve_propagation(knn_graph, Y, cfg), want)
    # a 1-column block reduces in another order, so solving the one
    # distinct column alone would move bits
    alone = propagate._cg(knn_graph, Y[:, [1]], cfg)
    assert not np.array_equal(alone[:, 0].view(np.int64), want[:, 1].view(np.int64))


def test_dedup_single_live_column_equal_reference(knn_graph):
    rng = np.random.default_rng(14)
    n = knn_graph.shape[0]
    cfg = PropagationConfig()
    Y = np.zeros((n, 3, 2))
    Y[rng.uniform(size=n) < 0.5, 2, 0] = 1.0
    assert_bits_equal(solve_propagation(knn_graph, Y, cfg),
                      solve_propagation_reference(knn_graph, Y, cfg))


def test_dedup_signed_zero_columns_are_distinct(knn_graph):
    rng = np.random.default_rng(15)
    n = knn_graph.shape[0]
    cfg = PropagationConfig()
    y = np.zeros(n)
    y[rng.uniform(size=n) < 0.4] = 1.0
    signed = np.where(y == 0.0, -0.0, y)
    Y = np.column_stack([y, signed, y, signed])
    assert np.array_equal(y, signed) and y.tobytes() != signed.tobytes()
    cols, slot = propagate._distinct_columns(Y, np.arange(4))
    assert cols.tolist() == [0, 1] and slot.tolist() == [0, 1, 0, 1]
    assert_bits_equal(solve_propagation(knn_graph, Y, cfg),
                      solve_propagation_reference(knn_graph, Y, cfg))


def cg_reference(W, b, cfg):
    """The CG loop before its iterate x took resid's C order; x was
    allocated like b (F-ordered)."""
    matvec = accel.make_csr_matvec(W.indptr, W.indices, W.data)
    alpha = cfg.alpha_prop
    x = np.zeros_like(b)
    resid = b.copy()
    p = resid.copy()
    rs = np.einsum("ij,ij->j", resid, resid)
    goal = (cfg.cg_tolerance * np.linalg.norm(b, axis=0)) ** 2
    for _ in range(cfg.cg_max_iters):
        active = rs > goal
        if not active.any():
            break
        q = p - alpha * matvec(p)
        pq = np.einsum("ij,ij->j", p, q)
        usable = active & (pq > 0)
        step = np.where(usable, rs / np.where(pq > 0, pq, 1.0), 0.0)
        x += step * p
        resid -= step * q
        rs_new = np.einsum("ij,ij->j", resid, resid)
        beta = np.where(usable, rs_new / np.where(rs > 0, rs, 1.0), 0.0)
        p = resid + beta * p
        rs = rs_new
    return x


@pytest.mark.parametrize("width", [2, 4, 16, 32])
def test_cg_equals_reference(knn_graph, width):
    rng = np.random.default_rng(16 + width)
    n = knn_graph.shape[0]
    Y = np.zeros((n, width))
    Y[np.arange(n), rng.integers(width, size=n)] = 1.0
    Y[rng.uniform(size=n) < 0.3] = 0.0
    # the pipeline's F-ordered fancy-index slice, and a C-ordered block
    for b in (Y[:, np.arange(width)], np.ascontiguousarray(Y)):
        for cfg in (PropagationConfig(), PropagationConfig(alpha_prop=0.85)):
            assert_bits_equal(propagate._cg(knn_graph, b, cfg), cg_reference(knn_graph, b, cfg))


def test_solve_returns_contiguous_class_planes(knn_graph):
    n, C = knn_graph.shape[0], 5
    Y = np.zeros((n, C, 2))
    Y[np.arange(n), np.arange(n) % C, :] = 1.0
    Z = solve_propagation(knn_graph, Y, PropagationConfig())
    # class-major: each (class, plane) run of n values is contiguous, so
    # scoring's reductions over the class axis walk memory in order
    assert Z.shape == (n, C, 2)
    assert Z.strides == (8, 16 * n, 8 * n)
    assert Z[:, 3, 1].flags.c_contiguous


@pytest.mark.parametrize("C", [9, 16])
def test_solve_keeps_2d_z_c_ordered(knn_graph, C):
    n = knn_graph.shape[0]
    rng = np.random.default_rng(40 + C)
    Y = np.zeros((n, C))
    Y[np.arange(n), rng.integers(C, size=n)] = 1.0
    cfg = PropagationConfig()
    Z = solve_propagation(knn_graph, Y, cfg)
    # a 2-D Z stays C-ordered: certainty_weights sums each row of K >= 8
    # classes pairwise there, and in another order on an F-ordered array
    assert Z.flags.c_contiguous
    ref = solve_propagation_reference(knn_graph, Y, cfg)
    assert_bits_equal(Z, ref)
    assert_bits_equal(certainty_weights(Z), certainty_weights(ref))


def scoring_rows(rng, C):
    """Random (n, C, 2) scores plus rows with ties, all zeros, -0.0,
    negative mass and constant values."""
    Z = rng.uniform(-0.05, 1.0, (64, C, 2))
    Z[0] = 0.0
    Z[1] = -0.0
    Z[2] = 0.25
    Z[3] = -0.5
    Z[4, :, 0] = np.where(np.arange(C) % 2 == 0, 0.0, -0.0)
    Z[5, :2] = 0.7  # a tie for the top class
    Z[6] = -rng.uniform(0.0, 1.0, (C, 2))
    Z[7, -1] = 1e-300
    Z[8] = rng.integers(0, 3, (C, 2)) / 3.0  # many ties
    return Z


def class_major(Z):
    """A copy of an (n, C, 2) Z in the layout solve_propagation returns."""
    n = Z.shape[0]
    out = np.zeros((Z[0].size, n)).T
    out[:] = Z.reshape(n, -1)
    return out.reshape(Z.shape)


@pytest.mark.parametrize("C", [2, 3, 4, 9, 16, 32])
def test_scoring_class_major_equals_c_ordered(C):
    rng = np.random.default_rng(C)
    ordered = scoring_rows(rng, C)
    n = ordered.shape[0]
    major = class_major(ordered)
    assert major.strides == (8, 16 * n, 8 * n)
    assert np.array_equal(suggest_labels(major), suggest_labels(ordered))
    assert_bits_equal(certainty_weights(major), certainty_weights(ordered))


def certainty_weights_reference(Z):
    """certainty_weights as it was before it worked in place: a fresh
    array for every step."""
    Z = np.asarray(Z, dtype=np.float64)
    C = Z.shape[1]
    mass = np.clip(Z, 0.0, None)
    total = mass.sum(axis=1)
    denom = np.expand_dims(np.where(total > 0, total, 1.0), 1)
    P = mass / denom
    logP = np.where(P > 0, np.log(np.where(P > 0, P, 1.0)), 0.0)
    H = -(P * logP).sum(axis=1)
    w = np.clip(1.0 - H / np.log(C), 0.0, 1.0)
    w[mass.max(axis=1) == mass.min(axis=1)] = 0.0
    return w


@pytest.mark.parametrize("C", [2, 3, 4, 9, 16, 32])
def test_certainty_equals_reference(C):
    ordered = scoring_rows(np.random.default_rng(60 + C), C)
    ordered[9] = 1e-300  # uniform and tiny
    ordered[10] = np.where(np.arange(C) % 3 == 0, 1e-300, -0.0)[:, None]
    ordered[11, :, 1] = 0.0  # one plane with no mass
    n = ordered.shape[0]
    flat = ordered.reshape(n, -1)
    # each layout sums a row in its own order: every buffer keeps Z's
    for Z in (class_major(ordered), ordered, flat, np.asfortranarray(flat), ordered[:, :, 1].copy()):
        assert_bits_equal(certainty_weights(Z), certainty_weights_reference(Z))


def peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("C", [9, 16])
def test_certainty_peak_memory_below_three_z(C):
    # the clipped mass, divided in place, and one P log P buffer: two
    # arrays of Z's size plus per-row vectors.  A fresh array per step
    # (P, the log's argument, the log, its masked copy, the product) peaks
    # above 4 Z
    Z = class_major(np.random.default_rng(C).uniform(-0.05, 1.0, (4000, C, 2)))
    assert peak_bytes(certainty_weights, Z) < 3 * Z.nbytes


def solve_peak_over_z(W):
    """solve_propagation's tracemalloc peak over Z's bytes, for one-hot
    (n, 16, 2) planes."""
    n, C = W.shape[0], 16
    rng = np.random.default_rng(70)
    Y = np.zeros((n, C, 2))
    Y[np.arange(n), rng.integers(C, size=n), 0] = 1.0
    Y[np.arange(n), rng.integers(C, size=n), 1] = 1.0
    return peak_bytes(solve_propagation, W, Y, PropagationConfig()) / Y.nbytes


def test_solve_peak_memory_below_seven_and_a_half_z(knn_graph):
    # Z is allocated once CG's buffers are freed, so it never adds to
    # CG's live block arrays (b, x, resid, p and the matvec's q), and
    # allocated before the solve it would add one Z to the peak
    assert solve_peak_over_z(knn_graph) < 7.5


def test_solve_peak_memory_below_six_and_a_half_z(knn_graph):
    # CG updates its iterate in place, so a block keeps b, resid, x, p
    # and one product buffer live: about 6 Z with Y.  With W p, alpha W p
    # and q each a fresh array, live together, it peaks at about 7.1 Z
    assert solve_peak_over_z(knn_graph) < 6.5


def test_diffusion_zero_iters_is_identity():
    W = random_normalized_graph(8, 20)
    Y = np.random.default_rng(9).uniform(0, 1, (20, 2))
    assert np.array_equal(diffusion_oracle(W, Y, 0.9, 0), Y)


def test_diffusion_one_iter_formula():
    W = scipy.sparse.csr_matrix([[0.0, 1.0], [1.0, 0.0]])
    Y = np.array([[1.0], [0.0]])
    Z = diffusion_oracle(W, Y, 0.5, 1)
    # z1 = 0.5 * W y + y = (1, 0.5)
    assert np.allclose(Z, [[1.0], [0.5]])


def test_suggest_labels_argmax_and_sentinel():
    Z = np.array(
        [
            [0.2, 0.7, 0.1],
            [0.4, 0.4, 0.2],
            [0.0, 0.0, 0.0],
            [-0.3, -0.1, -0.2],
        ]
    )
    got = suggest_labels(Z)
    assert got.tolist() == [1, 0, NO_SUGGESTION, NO_SUGGESTION]


def test_suggest_labels_planes():
    Z = np.zeros((2, 3, 2))
    Z[0, 2, 0] = 1.0
    Z[0, 1, 1] = 1.0
    Z[1, 0, 0] = 0.5
    got = suggest_labels(Z)
    assert got.shape == (2, 2)
    assert got[0].tolist() == [2, 1]
    assert got[1].tolist() == [0, NO_SUGGESTION]


def test_certainty_one_hot_is_exactly_one():
    for C in range(2, 13):
        Z = np.zeros((C, C))
        Z[np.arange(C), np.arange(C)] = 1.0
        w = certainty_weights(Z)
        assert (w == 1.0).all()


def test_certainty_uniform_is_exactly_zero():
    for C in range(2, 13):
        Z = np.full((3, C), 1.0 / C)
        assert (certainty_weights(Z) == 0.0).all()


def test_certainty_empty_row_is_zero():
    Z = np.array([[0.0, 0.0], [1.0, 0.0]])
    w = certainty_weights(Z)
    assert w[0] == 0.0 and w[1] == 1.0


def test_certainty_two_class_example():
    # 1 - H(0.8, 0.2)/ln 2 = 1 + 0.8*log2(0.8) + 0.2*log2(0.2) = 0.2780719...
    w = certainty_weights(np.array([[0.8, 0.2]]))
    assert w[0] == pytest.approx(0.2780719, abs=1e-6)


def test_certainty_scale_invariant():
    rng = np.random.default_rng(21)
    Z = rng.uniform(0, 1, (10, 4))
    assert np.allclose(certainty_weights(Z), certainty_weights(Z * 7.0), atol=1e-12)


def test_certainty_negative_mass_floored():
    # a tiny negative leak behaves like zero mass in that class
    w_neg = certainty_weights(np.array([[0.8, 0.2, -1e-9]]))
    w_ref = certainty_weights(np.array([[0.8, 0.2, 0.0]]))
    assert w_neg[0] == pytest.approx(w_ref[0], abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=3, max_size=3),
        min_size=1,
        max_size=8,
    )
)
def test_certainty_bounds(rows):
    w = certainty_weights(np.array(rows, dtype=np.float64))
    assert (w >= 0.0).all() and (w <= 1.0).all()


def test_suggestion_tensor_validation():
    M, n, C = 2, 3, 4
    labels = np.zeros((M, M, n, 2), dtype=np.int64)
    weights = np.zeros((M, M, n, 2))
    t = SuggestionTensor(labels, weights, C)
    assert t.n_branches == M and t.n_samples == n and t.n_classes == C
    with pytest.raises(ValidationError):
        SuggestionTensor(labels[0], weights[0], C)
    bad = labels.copy()
    bad[0, 0, 0, 0] = C
    with pytest.raises(ValidationError):
        SuggestionTensor(bad, weights, C)
    heavy = weights.copy()
    heavy[0, 0, 0, 0] = 1.5
    with pytest.raises(ValidationError):
        SuggestionTensor(labels, heavy, C)
    for bad in (np.nan, np.inf, -np.inf):
        odd = weights.copy()
        odd[1, 0, 2, 1] = bad
        with pytest.raises(ValidationError, match="nan or inf"):
            SuggestionTensor(labels, odd, C)


def test_propagation_config_validation():
    with pytest.raises(ValidationError):
        PropagationConfig(alpha_prop=1.0)
    with pytest.raises(ValidationError):
        PropagationConfig(cg_tolerance=0.0)
    with pytest.raises(ValidationError):
        PropagationConfig(cg_max_iters=0)
