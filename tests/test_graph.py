"""Neighbour search, adjacency weights, symmetric normalization."""

import collections
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from graphmend import graph
from graphmend.branches import TrainConfig
from graphmend.core import FeatureMatrix, ValidationError
from graphmend.graph import GraphConfig, build_adjacency, knn_neighbors, normalize_graph
from graphmend.pipeline import PipelineConfig, run_correction
from graphmend.propagate import PropagationConfig, solve_propagation
from graphmend.splitter import SplitConfig
from graphmend.synth import SynthConfig, make_noisy_dataset


def topk_rows_reference(sims, k, settle_ties=True):
    """The threshold/cumsum top-k kernel that graph._topk_rows replaced,
    kept as the bit-exact reference for it.  It always hands ties to the
    lower index, one valid pick when settle_ties is false too."""
    b, n = sims.shape
    thresh = -np.partition(-sims, k - 1, axis=1)[:, k - 1]
    above = sims > thresh[:, None]
    need = k - above.sum(axis=1)
    at = sims == thresh[:, None]
    take_eq = at & (np.cumsum(at, axis=1) <= need[:, None])
    mask = above | take_eq
    idx = np.nonzero(mask)[1].reshape(b, k)
    vals = np.take_along_axis(sims, idx, axis=1)
    order = np.argsort(-vals, axis=1, kind="stable")
    return np.take_along_axis(idx, order, axis=1), np.take_along_axis(vals, order, axis=1)


def assert_topk_equal(sims, k, kernel="_topk_rows"):
    got_idx, got_vals = getattr(graph, kernel)(sims.copy(), k)
    want_idx, want_vals = topk_rows_reference(sims.copy(), k)
    assert np.array_equal(got_idx, want_idx)
    assert np.array_equal(got_vals, want_vals)
    assert np.array_equal(np.signbit(got_vals), np.signbit(want_vals))


def random_rows(rng, b, n):
    return rng.standard_normal((b, n))


def decimal_rows(rng, b, n):
    return np.round(rng.standard_normal((b, n)), 1)


def signed_zero_rows(rng, b, n):
    sims = rng.integers(-2, 3, (b, n)).astype(np.float64)
    zero = sims == 0
    sims[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
    return sims


def equal_rows(rng, b, n):
    return np.full((b, n), rng.standard_normal())


@pytest.mark.parametrize(
    "make", [random_rows, decimal_rows, signed_zero_rows, equal_rows]
)
@pytest.mark.parametrize("diagonal", [False, True])
def test_topk_equals_reference(make, diagonal):
    rng = np.random.default_rng(1)
    for _ in range(60):
        n = int(rng.integers(2, 50))
        b = int(rng.integers(1, n + 1))
        sims = make(rng, b, n)
        if diagonal:
            # what knn_neighbors does to each block: self never qualifies
            sims[np.arange(b), np.arange(b)] = -np.inf
        for k in {1, int(rng.integers(1, n)), n - 1}:
            assert_topk_equal(sims, k)


def test_topk_kth_value_tied_across_cut():
    # k = 3 takes 0.9 and two of the four 0.5 entries, which sit on both
    # sides of the cut, so the tie goes to the lowest indices 0 and 1
    sims = np.array([[0.5, 0.5, 0.9, 0.5, 0.1, 0.5, -np.inf]])
    idx, vals = graph._topk_rows(sims.copy(), 3)
    assert idx.tolist() == [[2, 0, 1]]
    assert vals.tolist() == [[0.9, 0.5, 0.5]]
    assert_topk_equal(sims, 3)
    assert_topk_equal(np.vstack([sims, sims[:, ::-1], -sims]), 4)


def test_topk_signed_zero_tie_keeps_each_sign():
    sims = np.array([[-0.0, 0.0, -1.0, -0.0, 0.0]])
    idx, vals = graph._topk_rows(sims.copy(), 3)
    assert idx.tolist() == [[0, 1, 3]]
    assert np.signbit(vals).tolist() == [[True, False, True]]
    assert_topk_equal(sims, 3)


def assert_slabs_equal(sims, k):
    assert graph._slab_count(sims.shape[1], k) >= 2
    assert_topk_equal(sims, k, "_topk_slabs")


def test_slab_shape_rule():
    # global-2k's shape stays on the direct kernel
    assert graph._slab_count(2000, 50) == 0
    assert graph._slab_count(64 * 5 - 1, 5) == 0
    assert graph._slab_count(64 * 5, 5) == 4
    assert graph._slab_count(8000, 5) == 20
    assert graph._slab_count(2400, 10) == 7


@pytest.mark.parametrize(
    "make", [random_rows, decimal_rows, signed_zero_rows, equal_rows]
)
@pytest.mark.parametrize("diagonal", [False, True])
def test_slab_topk_equals_reference(make, diagonal):
    rng = np.random.default_rng(2)
    for k in (1, 2, 5, 10):
        for _ in range(6):
            n = int(rng.integers(64 * k, 64 * k + 200))
            b = int(rng.integers(1, 40))
            sims = make(rng, b, n)
            if diagonal:
                sims[np.arange(b), np.arange(b)] = -np.inf
            assert_slabs_equal(sims, k)


def test_slab_topk_tail_columns():
    # g = 4 slabs of width 83 leave columns 332..334 as the tail, which
    # hold the row's three largest entries
    rng = np.random.default_rng(3)
    sims = rng.random((16, 335))
    assert graph._slab_count(335, 5) == 4
    sims[:, 332:] += 1.0
    sims[::2, 333] = sims[::2, 0] = 5.0
    assert_slabs_equal(sims, 5)
    idx, _ = graph._topk_slabs(sims, 5)
    assert all({332, 333, 334} <= set(row) for row in idx.tolist())


def test_slab_topk_bound_tied_outside_the_pick():
    # n = 128, k = 2: g = 4 slabs of width 32.  Each row holds 1.0 in
    # four or more slab columns, so more slab maxima equal the bound than
    # the k picked; the answer is the two lowest columns holding 1.0,
    # which an unpicked slab column may own
    rng = np.random.default_rng(4)
    sims = rng.random((64, 128)) * 0.5
    for row in sims:
        slab_cols = rng.choice(32, size=int(rng.integers(4, 9)), replace=False)
        row[slab_cols + 32 * rng.integers(0, 4, slab_cols.size)] = 1.0
    assert_slabs_equal(sims, 2)
    # n = 64, k = 1: g = 4 slabs of width 16, and the lowest 1.0 sits in
    # the highest slab column holding one
    sims = np.zeros((1, 64))
    sims[0, [16 * 3 + 1, 16 * 2 + 2, 16 * 1 + 3, 4]] = 1.0
    idx, _ = graph._topk_slabs(sims.copy(), 1)
    assert idx.tolist() == [[4]]
    assert_slabs_equal(sims, 1)


def test_slab_topk_kth_value_tied_among_candidates():
    # n = 128, k = 2: slab column 5 is the only one holding 1.0, in three
    # of the four slabs, so the bound is untied and the tie among those
    # candidates goes to the lowest two columns
    sims = np.full((1, 128), 0.25)
    sims[0, [32 * 3 + 5, 32 + 5, 32 * 2 + 5]] = 1.0
    sims[0, 7] = 0.5
    idx, vals = graph._topk_slabs(sims.copy(), 2)
    assert idx.tolist() == [[37, 69]]
    assert vals.tolist() == [[1.0, 1.0]]
    assert_slabs_equal(sims, 2)
    assert_slabs_equal(np.vstack([sims, sims[:, ::-1], -sims]), 2)


def duplicated_features(rng, distinct=25, copies=3):
    base = np.round(rng.standard_normal((distinct, 4)), 0)
    base[base.sum(axis=1) == 0, 0] = 1.0
    # every row appears `copies` times, and rows are quantized to
    # integers, so many similarities tie exactly
    n = distinct * copies
    return FeatureMatrix(np.repeat(base, copies, axis=0)[rng.permutation(n)])


def assert_knn_graph_equals_reference(monkeypatch, feats, block, kernel):
    """knn_neighbors, A and W come out bit-identical when `kernel` in
    graph is swapped for the reference top-k."""
    cfg = GraphConfig(k_graph=5, gamma=3.0)

    def build():
        nb, sims = knn_neighbors(feats, cfg.k_graph, block=block)
        A = build_adjacency(feats, cfg)
        return nb, sims, A, normalize_graph(A)

    got = build()
    monkeypatch.setattr(graph, kernel, topk_rows_reference)
    want = build()
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(np.signbit(got[1]), np.signbit(want[1]))
    for g, w in zip(got[2:], want[2:]):
        assert np.array_equal(g.indptr, w.indptr)
        assert np.array_equal(g.indices, w.indices)
        assert np.array_equal(g.data, w.data)


@pytest.mark.parametrize("block", [7, 512])
def test_knn_graph_equals_reference_kernel_on_ties(monkeypatch, block):
    feats = duplicated_features(np.random.default_rng(8))
    assert_knn_graph_equals_reference(monkeypatch, feats, block, "_topk_rows")


@pytest.mark.parametrize("block", [7, 512])
def test_knn_graph_slab_path_equals_reference_kernel_on_ties(monkeypatch, block):
    # n = 335 >= 64 k: the slab path runs, with g = 4 slabs of width 83
    # and 3 tail columns
    feats = duplicated_features(np.random.default_rng(9), distinct=67, copies=5)
    assert graph._slab_count(feats.n_samples, 5) == 4
    assert_knn_graph_equals_reference(monkeypatch, feats, block, "_topk_slabs")


def test_correction_run_equals_reference_topk_run(monkeypatch):
    feats, noisy, clean = make_noisy_dataset(SynthConfig(
        n_classes=3, per_class=60, dim=8, noise_rate=0.3, rng_seed=4))

    def run():
        cfg = PipelineConfig(
            split=SplitConfig(3, 2, 0),
            graph=GraphConfig(k_graph=8, gamma=3.0),
            prop=PropagationConfig(alpha_prop=0.95),
            train=TrainConfig(hidden_width=16, batch_size=32, pair_sample_count=64),
            outer_epochs=2,
            seed=0,
        )
        return run_correction(cfg, features=feats, labels=noisy, clean=clean)

    real = run()
    monkeypatch.setattr(graph, "_topk_rows", topk_rows_reference)
    assert run() == real


def sorted_topk_reference(rows, k):
    """Top k of each row by one stable sort of the whole row: the tie
    repair that graph._repair_ties replaced."""
    idx = np.argsort(-rows, axis=1, kind="stable")[:, :k]
    return idx, np.take_along_axis(rows, idx, axis=1)


@pytest.mark.parametrize("make", [signed_zero_rows, equal_rows, decimal_rows])
def test_tie_repair_equals_full_row_stable_sort(make):
    # every row is repaired from its k-th value alone; n = 3,000 spreads
    # 100 rows over three 43-row chunks
    rng = np.random.default_rng(6)
    for b, n in ((1, 2), (7, 40), (100, 3000)):
        sims = make(rng, b, n)
        sims[np.arange(b), np.arange(b)] = -np.inf
        for k in {min(5, n - 1), 1, n // 2, n - 1}:
            want_idx, want_vals = sorted_topk_reference(sims, k)
            idx = np.zeros((b, k), dtype=np.int64)
            vals = np.zeros((b, k))
            vals[:, -1] = want_vals[:, -1]
            graph._repair_ties(sims, np.arange(b), idx, vals)
            assert np.array_equal(idx, want_idx)
            assert np.array_equal(vals.view(np.int64), want_vals.view(np.int64))


def topk_rows_count_reference(sims, k):
    """graph._topk_rows as it was before it read ties off its own
    partition: the tie test counts every entry >= the k-th value."""
    n = sims.shape[1]
    idx = np.sort(np.argpartition(sims, n - k, axis=1)[:, n - k:], axis=1)
    vals = np.take_along_axis(sims, idx, axis=1)
    order = np.argsort(-vals, axis=1, kind="stable")
    idx = np.take_along_axis(idx, order, axis=1)
    vals = np.take_along_axis(vals, order, axis=1)
    kth = vals[:, -1:]
    tied = np.flatnonzero(np.count_nonzero(sims >= kth, axis=1) > k)
    if tied.size:
        idx[tied], vals[tied] = sorted_topk_reference(sims[tied], k)
    return idx, vals


def topk_slabs_count_reference(sims, k):
    """graph._topk_slabs with the same counting tie test on slab maxima."""
    b, n = sims.shape
    g = graph._slab_count(n, k)
    if not g:
        return topk_rows_count_reference(sims, k)
    w = n // g
    maxima = np.maximum.reduce(sims[:, :g * w].reshape(b, g, w), axis=1)
    part = np.argpartition(maxima, w - k, axis=1)
    bound = np.take_along_axis(maxima, part[:, w - k:w - k + 1], axis=1)
    pick = np.sort(part[:, w - k:], axis=1)
    cols = (pick[:, None, :] + w * np.arange(g)[:, None]).reshape(b, g * k)
    tail = np.broadcast_to(np.arange(g * w, n), (b, n - g * w))
    cols = np.concatenate([cols, tail], axis=1)
    local, vals = topk_rows_count_reference(np.take_along_axis(sims, cols, axis=1), k)
    idx = np.take_along_axis(cols, local, axis=1)
    tied = np.flatnonzero(np.count_nonzero(maxima >= bound, axis=1) > k)
    if tied.size:
        idx[tied], vals[tied] = sorted_topk_reference(sims[tied], k)
    return idx, vals


def knn_neighbors_reference(features, k_graph, block=512):
    """knn_neighbors as it was before it reused one similarity buffer:
    a fresh product per block and the counting tie tests, on the same
    padded unit rows.  Each block's rows are followed by zero rows up to
    a multiple of 16, so no row is past its product's last multiple of 4."""
    n = features.n_samples
    unit = graph._normalized_features(features)
    neighbors = np.empty((n, k_graph), dtype=np.int64)
    sims = np.empty((n, k_graph))
    for start in range(0, n, block):
        stop = min(start + block, n)
        rows = np.zeros((-(-(stop - start) // 16) * 16, unit.shape[1]))
        rows[:stop - start] = unit[start:stop]
        s = (rows @ unit.T)[:stop - start]
        s[np.arange(stop - start), np.arange(start, stop)] = -np.inf
        s[:, n:] = -np.inf
        idx, vals = topk_slabs_count_reference(s, k_graph)
        neighbors[start:stop] = idx
        sims[start:stop] = vals
    return neighbors, sims


def random_features(rng, n):
    return FeatureMatrix(rng.standard_normal((n, 6)))


def duplicated_features_of_size(rng, n):
    return duplicated_features(rng, distinct=n // 5, copies=5)


def equal_features(rng, n):
    return FeatureMatrix(np.tile(rng.standard_normal(6), (n, 1)))


def signed_zero_features(rng, n):
    data = rng.integers(-1, 2, (n, 4)).astype(np.float64)
    zero = data == 0
    data[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
    data[np.all(zero, axis=1), 0] = 1.0
    return FeatureMatrix(data)


@pytest.mark.parametrize(
    "make",
    [random_features, duplicated_features_of_size, signed_zero_features, equal_features],
)
@pytest.mark.parametrize("n", [40, 335, 700])
@pytest.mark.parametrize("block", [7, 512])
def test_knn_equals_fresh_block_reference(make, n, block):
    # n = 40 runs the direct kernel for every k; n = 335 and 700 run the
    # slab path for k = 1 and 5 and the direct kernel for k = n - 1, whose
    # runner-up in every row is the -inf diagonal.  n = 40 and 335 are
    # below one 512-row block, and no n is a multiple of either block
    feats = make(np.random.default_rng(n + block), n)
    for k in (1, 5, n - 1):
        got = knn_neighbors(feats, k, block=block)
        want = knn_neighbors_reference(feats, k, block=block)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1].view(np.int64), want[1].view(np.int64))


def test_topk_runner_up_is_minus_inf_diagonal():
    # k = n - 1: everything but the -inf diagonal is kept, and the 0.5 tie
    # among the kept entries needs no full sort
    sims = np.array([[0.5, -np.inf, 0.5, 0.1], [-np.inf, -0.0, 0.0, -0.0]])
    idx, vals = graph._topk_rows(sims.copy(), 3)
    assert idx.tolist() == [[0, 2, 3], [1, 2, 3]]
    assert np.signbit(vals[1]).tolist() == [True, False, True]
    want = topk_rows_count_reference(sims.copy(), 3)
    assert np.array_equal(idx, want[0])
    assert np.array_equal(vals.view(np.int64), want[1].view(np.int64))


def knn_peak_bytes(feats, k, block=None):
    tracemalloc.start()
    try:
        knn_neighbors(feats, k, block=block)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_knn_peak_memory_below_one_and_a_half_blocks():
    # one (512, 3000) float64 block is 11.7 MiB; a second block live next
    # to it (a fresh product while the last is still bound) breaks the cap
    n, block = 3000, 512
    feats = FeatureMatrix(np.random.default_rng(5).standard_normal((n, 8)))
    assert graph._slab_count(n, 5) > 0
    assert knn_peak_bytes(feats, 5, block) < 1.5 * block * n * 8


def test_knn_direct_path_peak_memory_below_one_and_a_half_blocks():
    # k = 50 at n = 3,000 < 64 k selects on the whole block; an
    # argpartition index array of the block's shape, 11.7 MiB of int64,
    # live next to it breaks the cap
    n, block = 3000, 512
    feats = FeatureMatrix(np.random.default_rng(5).standard_normal((n, 8)))
    assert graph._slab_count(n, 50) == 0
    assert knn_peak_bytes(feats, 50, block) < 1.5 * block * n * 8


def test_knn_block_rule():
    # n <= 8,192 keeps 256-row blocks, and any tail
    assert graph._block_edges(1030, None) == [0, 256, 512, 768, 1024, 1030]
    assert graph._block_edges(8192, None) == list(range(0, 8193, 256))
    assert graph._block_edges(257, None) == [0, 256, 257]
    assert graph._block_edges(6000, None)[:3] == [0, 256, 512]
    assert graph._block_edges(4800, None)[-3:] == [4352, 4608, 4800]
    # above, a block holds at most 2**21 entries (16 MiB of float64) in
    # whole 16-row groups, but never fewer than 16 rows
    assert graph._block_edges(8193, None)[:3] == [0, 240, 480]
    assert graph._block_edges(20000, None)[1] == 96
    assert graph._block_edges(200000, None)[:3] == [0, 16, 32]
    # explicit blocks are taken as given
    assert graph._block_edges(200, 7) == list(range(0, 200, 7)) + [200]
    assert graph._block_edges(10, 7) == [0, 7, 10]


def test_knn_operand_rule():
    # every float64 product pads its rows to whole 16-row groups and past
    # 2,048 entries: 16 x 528 for a 1-row tail at n = 513, 144 x 16 for
    # the one product at n = 10
    assert graph._padded(1, 528) == 16
    assert graph._padded(10, 16) == 144
    assert graph._padded(256, 8000) == 256
    assert graph._padded(262, 8000) == 272
    assert graph._padded(0, 4) == 528
    unit = graph._normalized_features(FeatureMatrix(np.ones((40, 3))))
    # a range that fits is a slice of the unit rows, rows past it included
    a = graph._operand(unit, np.arange(0, 2), 48)
    assert a.shape == (48, 3) and np.shares_memory(a, unit)
    assert np.array_equal(a, unit)
    # any other ids are copied and padded with zero rows
    for ids in (np.arange(1, 3), np.array([0, 2]), np.arange(0)):
        b = graph._operand(unit, ids, 48)
        assert b.shape == (48, 3) and not np.shares_memory(b, unit)
        assert np.array_equal(b[:ids.size], unit[ids]) and not b[ids.size:].any()


@pytest.mark.parametrize("block", [0, -3])
def test_knn_block_must_be_positive(block):
    feats = FeatureMatrix(np.eye(3))
    with pytest.raises(ValidationError, match="block"):
        knn_neighbors(feats, 1, block=block)


@pytest.mark.parametrize(
    "make,n,k",
    [
        (random_features, 4800, 5),
        (random_features, 4800, 100),
        (duplicated_features_of_size, 4800, 5),
        (signed_zero_features, 4800, 100),
        (random_features, 5968, 5),
        (random_features, 5968, 100),
    ],
)
def test_knn_default_blocks_equal_512_row_reference(make, n, k):
    # the default blocks are shorter than 512 rows: 256 rows, with a
    # 192-row tail at n = 4,800 and an 80-row tail at n = 5,968.
    # Selection is per row, and OpenBLAS rounds products of whole 16-row
    # groups on columns padded to a multiple of 16 alike, so every bit
    # matches.  k = 5 takes the float32 screen, k = 100 (n < 64 k) the
    # direct kernel
    feats = make(np.random.default_rng(n), n)
    assert feats.n_samples == n
    got = knn_neighbors(feats, k)
    want = knn_neighbors_reference(feats, k, block=512)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1].view(np.int64), want[1].view(np.int64))


@pytest.mark.parametrize("n", [6000, 12000])
def test_knn_default_block_peak_memory_does_not_grow_with_n(n):
    # the default block holds at most 2**21 float64 entries (16 MiB), so
    # the peak stays near one such block plus the unit rows at every n;
    # one 512-row block alone would be 23.4 MiB at n = 6,000
    dim = 8
    feats = FeatureMatrix(np.random.default_rng(n).standard_normal((n, dim)))
    assert knn_peak_bytes(feats, 5) < 1.5 * 2**24 + n * dim * 8


@pytest.mark.parametrize("n,k", [(2400, 10), (2000, 50)])
def test_knn_default_block_peak_memory_below_ten_mib(n, k):
    # the search shapes of cli-16c-dump and global-2k on 64-wide rows:
    # 256-row default blocks peak at about 8.3 and 7.7 MiB, 512-row
    # ones at 15.0 and 11.9 MiB
    feats = wide_random(np.random.default_rng(n), n)
    assert knn_peak_bytes(feats, k) < 10 * 2**20


def brute_force_knn(X, k):
    unit = X.astype(np.float64)
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    sims = unit @ unit.T
    np.fill_diagonal(sims, -np.inf)
    n = X.shape[0]
    idx = np.empty((n, k), dtype=np.int64)
    vals = np.empty((n, k))
    for i in range(n):
        # sort by (descending sim, ascending index)
        order = sorted(range(n), key=lambda j: (-sims[i, j], j))[:k]
        idx[i] = order
        vals[i] = sims[i, order]
    return idx, vals


@pytest.mark.parametrize("n,d,k", [(10, 3, 2), (40, 5, 7), (30, 2, 29)])
def test_knn_matches_bruteforce(n, d, k):
    rng = np.random.default_rng(n + d + k)
    X = rng.standard_normal((n, d)).astype(np.float32)
    feats = FeatureMatrix(X)
    got_idx, got_sims = knn_neighbors(feats, k)
    want_idx, want_sims = brute_force_knn(feats.data, k)
    assert np.array_equal(got_idx, want_idx)
    assert np.allclose(got_sims, want_sims, atol=1e-12)


def test_knn_ties_prefer_lower_index():
    # three copies of the same point: every pair has similarity 1, so
    # each node's 2 neighbours are the other two in ascending index order
    X = np.tile([[1.0, 2.0]], (3, 1)).astype(np.float32)
    idx, sims = knn_neighbors(FeatureMatrix(X), 2)
    assert np.array_equal(idx, [[1, 2], [0, 2], [0, 1]])
    assert np.allclose(sims, 1.0)


def test_knn_blocking_invariant():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((50, 4)).astype(np.float32)
    # 50 rows pad to 64 columns, where an operand needs 33 rows to
    # exceed 2,048 entries: each 7-row block is a 48-row operand, a slice
    # of the unit rows where one fits and a zero-padded copy after that,
    # and 512 makes one 64-row product
    a = knn_neighbors(FeatureMatrix(X), 5, block=7)
    b = knn_neighbors(FeatureMatrix(X), 5, block=512)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1].view(np.int64), b[1].view(np.int64))


def wide_random(rng, n):
    return FeatureMatrix(rng.standard_normal((n, 64)))


def wide_duplicated(rng, n):
    # integer-valued rows, three copies each: exact ties, and screened
    # rows whose k-th and (k + 2)-th values are equal
    base = np.round(rng.standard_normal((-(-n // 3), 64)))
    return FeatureMatrix(np.repeat(base, 3, axis=0)[rng.permutation(n)])


def wide_signed_zero(rng, n):
    data = rng.integers(-1, 2, (n, 64)).astype(np.float64)
    zero = data == 0
    data[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
    data[np.all(zero, axis=1), 0] = 1.0
    return FeatureMatrix(data)


def wide_equal(rng, n):
    return FeatureMatrix(np.tile(rng.standard_normal(64), (n, 1)))


def wide_near_duplicated(rng, n):
    # groups of 8 rows a 1e-9 step apart: each row's 7 nearest are its
    # group, closer together than the screen can tell apart, but apart
    # in float64, so every row falls back without settling a tie
    base = np.repeat(rng.standard_normal((-(-n // 8), 64)), 8, axis=0)[:n]
    return FeatureMatrix(base + 1e-9 * rng.standard_normal((n, 64)))


def knn_and_fallback_rows(monkeypatch, feats, k, block=None):
    """knn_neighbors(feats, k, block), and how many rows the float32
    screen left to the float64 fallback (None for an unscreened search)."""
    n = feats.n_samples
    if not graph._screens(max(np.diff(graph._block_edges(n, block))), n, k):
        return knn_neighbors(feats, k, block=block), None
    rows = []
    exact = graph._exact_topk

    def record(unit, ids, n, k, out):
        rows.append(ids.size)
        return exact(unit, ids, n, k, out)

    monkeypatch.setattr(graph, "_exact_topk", record)
    got = knn_neighbors(feats, k, block=block)
    monkeypatch.setattr(graph, "_exact_topk", exact)
    return got, sum(rows)


def assert_knn_equal(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1].view(np.int64), want[1].view(np.int64))


def one_unresolved_row(rng, n):
    # rows 1,000-1,006 are one point p, and row 1,500 lies at cosine 0.9
    # from it, in 32 dimensions that no other row uses
    data = rng.standard_normal((n, 64))
    data[:, 32:] = 0.0
    p, q = np.linalg.qr(rng.standard_normal((32, 2)))[0].T
    data[1000:1007] = np.concatenate([np.zeros(32), p])
    data[1500] = np.concatenate([np.zeros(32), 0.9 * p + np.sqrt(1 - 0.81) * q])
    return FeatureMatrix(data)


@pytest.mark.parametrize(
    "make,n,k,block,other",
    [
        # at width 64 OpenBLAS rounds products of up to about 1,152
        # entries with a small-matrix kernel of its own: a 7 x 48 block at
        # n = 40, the 4 x 208 tail of 7-row blocks at n = 200 and the
        # 2 x 528 tail of the default blocks at n = 514 would be such
        pytest.param(wide_random, 40, 3, 7, 512, id="40-7-512"),
        pytest.param(wide_random, 200, 3, 7, 512, id="200-7-512"),
        pytest.param(wide_random, 514, 3, None, 514, id="514-None-514"),
        # OpenBLAS's Haswell kernels (also AMD Zen's) round the rows past a
        # product's last multiple of 4 otherwise: screened blocks of 261
        # and 262 rows at n = 6,000, the default blocks at n = 8,000, a
        # 1-row tail at n = 513 and a 1-row fallback chunk would be such
        pytest.param(wide_random, 6000, 3, 261, 512, id="6000-261-512"),
        pytest.param(wide_random, 6000, 3, 262, 512, id="6000-262-512"),
        pytest.param(wide_random, 8000, 3, None, 512, id="8000-None-512"),
        pytest.param(wide_random, 513, 3, 512, 1024, id="513-512-1024"),
        pytest.param(one_unresolved_row, 2000, 5, 4, 512, id="one_unresolved_row-2000-4-512"),
    ],
)
def test_knn_bits_do_not_depend_on_the_block_split_at_width_64(make, n, k, block, other):
    # every product runs on whole 16-row groups past 2,048 entries
    feats = make(np.random.default_rng(n), n)
    assert_knn_equal(knn_neighbors(feats, k, block=block), knn_neighbors(feats, k, block=other))


@pytest.mark.parametrize(
    "make,n,block,fallback",
    [
        # 256-row default blocks: screened, every row resolved
        (wide_random, 8000, None, "none"),
        (wide_random, 4800, None, "none"),
        # 256-row default blocks and a 184-row tail: not screened
        (wide_random, 3000, None, None),
        # 4-row blocks: each re-score is 16 x 528, its 4 rows and at most
        # 28 candidate columns padded with zero rows
        (wide_random, 4800, 4, "none"),
        (wide_duplicated, 8000, None, "some"),
        (wide_duplicated, 4800, 4, "some"),
        (wide_signed_zero, 8000, None, "some"),
        (wide_signed_zero, 4800, 4, "some"),
        # 64-row blocks, and every row ties: all of them fall back
        (wide_equal, 2000, 64, "all"),
    ],
)
def test_knn_width_64_equals_reference(monkeypatch, make, n, block, fallback):
    feats = make(np.random.default_rng(n), n)
    got, rows = knn_and_fallback_rows(monkeypatch, feats, 5, block)
    assert_knn_equal(got, knn_neighbors_reference(feats, 5, block=512))
    want = {None: None, "none": 0, "all": n}.get(fallback, rows)
    assert rows == want
    if fallback == "some":
        assert 0 < rows < n


def test_knn_screen_with_one_unresolved_row(monkeypatch):
    # row 1,500's 5th and 7th screened values are equal, so it alone
    # falls back, as a 1-row product padded to 16 rows.  Each copy of p
    # is resolved, with its other six copies tied at 1.0
    feats = one_unresolved_row(np.random.default_rng(12), 2000)
    for block in (4, 64):
        got, rows = knn_and_fallback_rows(monkeypatch, feats, 5, block)
        assert rows == 1
        assert got[0][1500].tolist() == [1000, 1001, 1002, 1003, 1004]
        assert got[0][1000].tolist() == [1001, 1002, 1003, 1004, 1005]
        assert_knn_equal(got, knn_neighbors_reference(feats, 5, block=512))


@pytest.mark.parametrize("make", [wide_random, wide_near_duplicated])
def test_screened_search_peak_memory_below_unscreened(monkeypatch, make):
    # the float32 block takes half the bytes of the float64 one, and the
    # fallback rows go through float64 chunks of half its height in the
    # same buffer, so the screened search stays below the unscreened
    # one, even when every row falls back
    n = 8000
    feats = make(np.random.default_rng(n), n)
    _, rows = knn_and_fallback_rows(monkeypatch, feats, 5)
    assert rows == (n if make is wide_near_duplicated else 0)
    screened = knn_peak_bytes(feats, 5)
    monkeypatch.setattr(graph, "_screens", lambda rows, n, k: False)
    assert screened < knn_peak_bytes(feats, 5)


def wide_clustered(rng, n):
    # groups of 8 rows 0.1 apart, row i in group i mod (n / 8): each
    # row's 7 nearest are its group, resolved by the screen, and the
    # rows of a block of at most n / 8 rows lie in different groups, so
    # their k + 2 = 7 candidates are distinct
    groups = n // 8
    centers = rng.standard_normal((groups, 64))
    return FeatureMatrix(centers[np.arange(n) % groups] + 0.1 * rng.standard_normal((n, 64)))


@pytest.mark.parametrize(
    "make,n,block",
    [
        # at the screen's boundary, 2 b (k + 2) = n, a block's distinct
        # candidates are n / 2 columns: the largest re-score product
        (wide_clustered, 56, 4),
        (wide_clustered, 896, 64),
        (wide_clustered, 3584, 256),
        (wide_random, 896, 64),
        (wide_random, 3584, 256),
        # 1-row blocks; and 4-row blocks with a 1-row tail, whose
        # re-score product (16 x 2,064) outgrows a 4-row block's
        (wide_random, 200, 1),
        (wide_random, 57, 4),
    ],
)
def test_rescore_product_fits_the_block_buffer(monkeypatch, make, n, block):
    feats = make(np.random.default_rng(n), n)
    k = 5
    assert graph._screens(block, n, k)
    products = []
    leading = graph._leading

    def record(out, shape, dtype=np.float64):
        if dtype is np.float64:
            products.append(math.prod(shape))
        return leading(out, shape, dtype)

    monkeypatch.setattr(graph, "_leading", record)
    got, rows = knn_and_fallback_rows(monkeypatch, feats, k, block)
    assert_knn_equal(got, knn_neighbors_reference(feats, k, block=512))
    heights = set(np.diff(graph._block_edges(n, block)))
    assert max(products) <= max(graph._rescore_entries(b, n, k) for b in heights)
    if make is wide_clustered:
        # reached by every block whose rows the screen all resolves
        assert rows <= n // 100
        assert max(products) == graph._rescore_entries(block, n, k)


def test_screened_search_peak_memory_below_the_separate_product():
    # local-8k's search shape.  With the re-score product in an array of
    # its own (256 x 1,792 float64, 3.5 MiB) the search peaked at
    # 18.49 MiB on these rows; in the block buffer it peaks at 16.58 MiB.
    # Margin: 1 MiB below the old peak
    feats = wide_random(np.random.default_rng(8000), 8000)
    assert knn_peak_bytes(feats, 5) < 17.49 * 2**20


@pytest.mark.parametrize("n,block", [(1000, None), (2000, 64)])
def test_equal_rows_are_repaired_once(monkeypatch, n, block):
    # every row ties throughout, so its runner-up slab maximum equals the
    # bound: it is settled on the whole row only, not first among its
    # candidates.  2,000 rows in 64-row blocks take the screen, and every
    # row falls back to float64
    feats = wide_equal(np.random.default_rng(n), n)
    widths = collections.Counter()
    repair = graph._repair_ties

    def record(sims, tied, idx, vals):
        widths[sims.shape[1]] += tied.size
        return repair(sims, tied, idx, vals)

    monkeypatch.setattr(graph, "_repair_ties", record)
    got = knn_neighbors(feats, 5, block=block)
    monkeypatch.setattr(graph, "_repair_ties", repair)
    assert +widths == {-(-n // 16) * 16: n}
    assert_knn_equal(got, knn_neighbors_reference(feats, 5, block=512))


# writes each n's neighbours and similarities to the .npz file argv[1]
KNN_CHILD = """
import sys
import numpy as np
from graphmend.core import FeatureMatrix
from graphmend.graph import knn_neighbors
out = {}
for n in (2003, 6003, 8000):
    X = np.random.default_rng(n).standard_normal((n, 64)).astype(np.float32)
    out["idx%d" % n], out["sims%d" % n] = knn_neighbors(FeatureMatrix(X), 5)
np.savez(sys.argv[1], **out)
"""


def test_knn_bits_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS reads its thread count at load time, so each count gets a
    # process of its own.  Each n runs 256-row default blocks: 2,003 and
    # 6,003, neither a multiple of 8, end in a shorter tail block, and
    # 6,003 and 8,000 go through the float32 screen
    runs = []
    for threads in ("1", "2"):
        path = tmp_path / ("threads%s.npz" % threads)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", KNN_CHILD, str(path)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(np.load(path))
    one, two = runs
    for n in (2003, 6003, 8000):
        assert np.array_equal(one["idx%d" % n], two["idx%d" % n])
        assert np.array_equal(
            one["sims%d" % n].view(np.int64), two["sims%d" % n].view(np.int64)
        )


def test_knn_orthogonal_sims_zero():
    X = np.eye(4, dtype=np.float32)
    idx, sims = knn_neighbors(FeatureMatrix(X), 3)
    assert np.allclose(sims, 0.0)
    # ties at 0 resolve to ascending index, skipping self
    assert np.array_equal(idx[0], [1, 2, 3])
    assert np.array_equal(idx[2], [0, 1, 3])


def test_knn_collinear_sim_one():
    X = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    idx, sims = knn_neighbors(FeatureMatrix(X), 1)
    assert idx[0, 0] == 1 and idx[1, 0] == 0
    assert sims[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_knn_zero_norm_row_rejected():
    X = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    with pytest.raises(ValidationError, match="index 1"):
        knn_neighbors(FeatureMatrix(X), 1)


def test_knn_k_bounds():
    X = np.eye(3, dtype=np.float32)
    with pytest.raises(ValidationError):
        knn_neighbors(FeatureMatrix(X), 3)


def test_adjacency_weights_cube_of_cosine():
    # t=1 sits at 45 degrees from t=0: cos = 1/sqrt(2), weight = 2^-1.5
    X = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=np.float32)
    A = build_adjacency(FeatureMatrix(X), GraphConfig(k_graph=1, gamma=3.0))
    dense = A.toarray()
    w = (1.0 / np.sqrt(2.0)) ** 3
    assert dense[0, 1] == pytest.approx(w, abs=1e-12)
    assert dense[1, 0] == pytest.approx(w, abs=1e-12)
    assert dense[0, 0] == 0.0 and dense[1, 1] == 0.0


def test_adjacency_identical_points_weight_one():
    X = np.array([[2.0, 1.0], [2.0, 1.0], [-1.0, 2.0]], dtype=np.float32)
    A = build_adjacency(FeatureMatrix(X), GraphConfig(k_graph=1, gamma=3.0))
    dense = A.toarray()
    assert dense[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert dense[1, 0] == pytest.approx(1.0, abs=1e-12)


def test_adjacency_negative_cosine_clamped_to_zero():
    X = np.array([[1.0, 0.0], [-1.0, 0.1]], dtype=np.float32)
    A = build_adjacency(FeatureMatrix(X), GraphConfig(k_graph=1, gamma=3.0))
    assert np.allclose(A.toarray(), 0.0)


def test_adjacency_column_count():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((20, 3)).astype(np.float32)
    A = build_adjacency(FeatureMatrix(X), GraphConfig(k_graph=4, gamma=2.0))
    dense = A.toarray()
    # each target column holds exactly its k_graph source entries
    # (some may be zero after clamping, but structurally k per column)
    assert A.nnz == 20 * 4
    assert (np.diff(A.indptr) >= 0).all()
    cols = np.zeros(20, dtype=np.int64)
    np.add.at(cols, A.indices, 1)
    assert (cols == 4).all()
    assert np.trace(dense) == 0.0


def test_normalize_two_node_swap():
    W = normalize_graph(scipy.sparse.csr_matrix([[0.0, 1.0], [1.0, 0.0]]))
    # S = [[0,2],[2,0]], degrees (2,2), W = [[0,1],[1,0]]
    assert np.allclose(W.toarray(), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def test_normalize_three_cycle():
    dense = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
    W = normalize_graph(scipy.sparse.csr_matrix(dense))
    # symmetrized cycle: every node has two unit edges, degree 2,
    # so each normalized weight is 1/2
    want = np.array([[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]])
    assert np.allclose(W.toarray(), want, atol=1e-15)


def test_normalize_scale_invariance():
    rng = np.random.default_rng(11)
    dense = rng.uniform(0, 1, (8, 8))
    np.fill_diagonal(dense, 0.0)
    dense[dense < 0.5] = 0.0
    a = normalize_graph(scipy.sparse.csr_matrix(dense)).toarray()
    b = normalize_graph(scipy.sparse.csr_matrix(dense * 7.5)).toarray()
    assert np.allclose(a, b, atol=1e-14)


def test_normalize_exact_bitwise_symmetry():
    rng = np.random.default_rng(13)
    dense = rng.uniform(0, 1, (30, 30))
    np.fill_diagonal(dense, 0.0)
    dense[dense < 0.6] = 0.0
    W = normalize_graph(scipy.sparse.csr_matrix(dense)).toarray()
    assert np.array_equal(W, W.T)


def test_normalize_isolated_node_row_stays_zero():
    dense = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
    W = normalize_graph(scipy.sparse.csr_matrix(dense))
    full = W.toarray()
    assert np.allclose(full[2], 0.0)
    assert np.allclose(full[:, 2], 0.0)
    assert full[0, 1] == pytest.approx(1.0)


def test_normalize_merges_reciprocal_edges():
    # A has both (0,1)=3 and (1,0)=5; S merges to 8 on each side
    dense = np.array([[0, 3.0], [5.0, 0]])
    W = normalize_graph(scipy.sparse.csr_matrix(dense))
    assert W.nnz == 2
    assert np.allclose(W.toarray(), [[0, 1], [1, 0]], atol=1e-15)


def test_normalize_peak_memory_below_43_bytes_per_entry():
    # W's own arrays take 12 bytes per entry (float64 data, int32
    # indices).  Row ids in the indices' dtype and one scale buffer, with
    # the row ids freed before the second gather, keep the peak at about
    # 39 bytes per entry of W at n = 2,000, k = 50; int64 row ids and a
    # fresh product of the two gathered factors take 47
    n, k = 2000, 50
    feats = FeatureMatrix(np.random.default_rng(n).standard_normal((n, 16)))
    A = build_adjacency(feats, GraphConfig(k_graph=k))
    tracemalloc.start()
    try:
        W = normalize_graph(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert W.indices.dtype == np.int32
    assert peak < 43 * W.nnz


def power_iteration_norm(W, iters=300):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(W.shape[0])
    for _ in range(iters):
        x = W @ x
        nrm = np.linalg.norm(x)
        if nrm == 0:
            return 0.0
        x /= nrm
    return abs(x @ (W @ x))


def test_normalized_spectral_radius_at_most_one():
    rng = np.random.default_rng(17)
    for trial in range(5):
        X = rng.standard_normal((60, 5)).astype(np.float32)
        A = build_adjacency(FeatureMatrix(X), GraphConfig(k_graph=6, gamma=3.0))
        W = normalize_graph(A).toarray()
        assert power_iteration_norm(W) <= 1.0 + 1e-10


def test_normalize_against_dense_oracle():
    rng = np.random.default_rng(19)
    dense = rng.uniform(0, 1, (12, 12))
    np.fill_diagonal(dense, 0.0)
    dense[dense < 0.4] = 0.0
    S = dense + dense.T
    deg = S.sum(axis=1)
    inv = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    want = inv[:, None] * S * inv[None, :]
    got = normalize_graph(scipy.sparse.csr_matrix(dense)).toarray()
    assert np.allclose(got, want, atol=1e-14)


def build_adjacency_reference(features, cfg):
    """The lexsort adjacency builder that build_adjacency replaced, kept
    as the bit-exact reference for it."""
    n = features.n_samples
    neighbors, sims = knn_neighbors(features, cfg.k_graph)
    weights = np.clip(sims, 0.0, 1.0) ** cfg.gamma
    rows = neighbors.ravel()
    cols = np.repeat(np.arange(n), cfg.k_graph)
    data = weights.ravel()
    order = np.lexsort((cols, rows))
    rows, cols, data = rows[order], cols[order], data[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return scipy.sparse.csr_matrix((data, cols, indptr), shape=(n, n))


def normalize_graph_reference(A):
    """The lexsort/reduceat normalization that normalize_graph replaced,
    kept as the bit-exact reference for it."""
    n = A.shape[0]
    rows_a = np.repeat(np.arange(n), np.diff(A.indptr))
    cols_a = A.indices
    rows = np.concatenate([rows_a, cols_a])
    cols = np.concatenate([cols_a, rows_a])
    data = np.concatenate([A.data, A.data])
    order = np.lexsort((cols, rows))
    rows, cols, data = rows[order], cols[order], data[order]
    if rows.size:
        new_pair = np.empty(rows.size, dtype=np.bool_)
        new_pair[0] = True
        new_pair[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.flatnonzero(new_pair)
        merged = np.add.reduceat(data, starts)
        rows, cols, data = rows[starts], cols[starts], merged
    degree = np.bincount(rows, weights=data, minlength=n)
    inv_sqrt = np.zeros(n)
    alive = degree > 0
    inv_sqrt[alive] = 1.0 / np.sqrt(degree[alive])
    data = data * (inv_sqrt[rows] * inv_sqrt[cols])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return scipy.sparse.csr_matrix((data, cols, indptr), shape=(n, n))


def assert_normalized_equals_reference(A, A_ref):
    """W from A equals the reference W from A_ref bit for bit, except that
    the reference keeps explicit zeros, and CG on both gives the same
    bits.  W is a new CSR matrix: A's arrays keep their bits."""
    before = [x.copy() for x in (A.indptr, A.indices, A.data)]
    W = normalize_graph(A)
    want = normalize_graph_reference(A_ref)
    assert isinstance(W, scipy.sparse.csr_matrix)
    for got, kept in zip((A.indptr, A.indices, A.data), before):
        assert np.array_equal(got.view(np.uint8), kept.view(np.uint8))
    dense = W.toarray()
    assert np.array_equal(dense.view(np.uint64), want.toarray().view(np.uint64))
    nonzero = want.copy()
    nonzero.eliminate_zeros()
    assert np.array_equal(W.indptr, nonzero.indptr)
    assert np.array_equal(W.indices, nonzero.indices)
    assert np.array_equal(W.data.view(np.uint64), nonzero.data.view(np.uint64))
    n = A.shape[0]
    Y = np.zeros((n, 3, 2))
    Y[np.arange(n), np.arange(n) % 3, np.arange(n) % 2] = 1.0
    cfg = PropagationConfig(alpha_prop=0.9)
    got = solve_propagation(W, Y, cfg)
    assert np.array_equal(got.view(np.uint64), solve_propagation(want, Y, cfg).view(np.uint64))
    return W, want


def assert_graph_equals_reference(feats, k_graph):
    cfg = GraphConfig(k_graph=k_graph, gamma=3.0)
    A = build_adjacency(feats, cfg)
    A_ref = build_adjacency_reference(feats, cfg)
    assert isinstance(A, scipy.sparse.csr_matrix)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, name), getattr(A_ref, name))
    assert np.array_equal(np.signbit(A.data), np.signbit(A_ref.data))
    return assert_normalized_equals_reference(A, A_ref)


@pytest.mark.parametrize("seed", [8, 9])
def test_graph_equals_reference_on_ties(seed):
    # integer-valued duplicated rows: many similarities tie exactly
    feats = duplicated_features(np.random.default_rng(seed))
    for k_graph in (1, 5, 20):
        assert_graph_equals_reference(feats, k_graph)


@pytest.mark.parametrize("dim", [2, 3])
def test_graph_equals_reference_with_zero_weight_edges(dim):
    # low dimension and k near n: a large share of the kept neighbours
    # have negative cosine, so A holds explicit zero weights, which the
    # scipy sum A + A^T drops from W
    rng = np.random.default_rng(dim)
    feats = FeatureMatrix(rng.standard_normal((200, dim)))
    A = build_adjacency(feats, GraphConfig(k_graph=150, gamma=3.0))
    assert (A.data == 0).sum() > 1000
    W, want = assert_graph_equals_reference(feats, 150)
    assert W.nnz < want.nnz


def test_normalize_equals_reference_on_reciprocal_edges():
    # every edge has its reverse with another weight, plus one-way edges
    rng = np.random.default_rng(21)
    dense = rng.uniform(0, 1, (40, 40))
    np.fill_diagonal(dense, 0.0)
    dense[dense < 0.7] = 0.0
    dense[:20, :20] = np.triu(dense[:20, :20]) + np.triu(dense[:20, :20]).T * 0.3
    A = scipy.sparse.csr_matrix(dense)
    assert_normalized_equals_reference(A, A)


def test_normalize_equals_reference_with_isolated_node():
    # a 3-cycle, a reciprocal pair 3 <-> 4, and node 5, whose only entry
    # (4 -> 5) is an explicit zero
    A = scipy.sparse.csr_matrix(
        ([0.5, 0.5, 0.5, 0.25, 0.75, 0.0], [1, 2, 0, 4, 3, 5], [0, 1, 2, 3, 4, 6, 6]),
        shape=(6, 6),
    )
    W, want = assert_normalized_equals_reference(A, A)
    assert W.nnz == want.nnz - 2
    dense = W.toarray()
    assert not dense[5].any() and not dense[:, 5].any()
