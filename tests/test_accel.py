"""Kernel exactness: the accel kernels must reproduce, bit for bit, the
plain numpy kernels they replaced, copied below as references."""

import numpy as np
import pytest
import scipy.sparse

from graphmend import accel
from graphmend.graph import GraphConfig, build_adjacency, normalize_graph
from graphmend.pipeline import PipelineConfig, run_correction
from graphmend.propagate import PropagationConfig
from graphmend.branches import TrainConfig
from graphmend.splitter import SplitConfig
from graphmend.synth import SynthConfig, make_noisy_dataset


def csr_matvec_plain(indptr, indices, data, x, out=None, rows=None):
    """Reference block product W @ x: one bincount per column, which
    accumulates every row in storage order."""
    n = indptr.shape[0] - 1
    if out is None:
        out = np.empty((n, x.shape[1]))
    if rows is None:
        rows = np.repeat(np.arange(n), np.diff(indptr))
    scaled = data[:, None] * x[indices]
    for c in range(x.shape[1]):
        out[:, c] = np.bincount(rows, weights=scaled[:, c], minlength=n)
    return out


def make_csr_matvec_plain(indptr, indices, data):
    rows = np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))

    def bound(x):
        return csr_matvec_plain(indptr, indices, data, x, rows=rows)

    return bound


def nearest_remaining_plain(simrow, alive, take, out):
    """Reference greedy pop: `take` rounds of argmax over live entries."""
    s = np.where(alive, simrow, -np.inf)
    for t in range(take):
        j = int(np.argmax(s))
        out[t] = j
        s[j] = -np.inf
        alive[j] = False
    return out


def random_csr(rng, n, density):
    mat = scipy.sparse.random(n, n, density=density, format="csr", random_state=42)
    mat.sort_indices()
    return (
        mat.indptr.astype(np.int64),
        mat.indices.astype(np.int64),
        mat.data.astype(np.float64),
        mat,
    )


def assert_matvec_exact(indptr, indices, data, x):
    got = accel.make_csr_matvec(indptr, indices, data)(x)
    ref = csr_matvec_plain(indptr, indices, data, x)
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("n,density,r", [(50, 0.1, 1), (200, 0.05, 8), (10, 0.0, 3)])
def test_matvec_matches_scipy(n, density, r):
    rng = np.random.default_rng(0)
    indptr, indices, data, mat = random_csr(rng, n, density)
    x = rng.standard_normal((n, r))
    got = accel.make_csr_matvec(indptr, indices, data)(x)
    assert np.array_equal(got, mat @ x)


@pytest.mark.parametrize("r", [1, 8, 32])
def test_matvec_equals_reference_kernel(r):
    rng = np.random.default_rng(r)
    for n, density in [(1, 1.0), (37, 0.2), (300, 0.04)]:
        indptr, indices, data, _ = random_csr(rng, n, density)
        # signed data and inputs make cancellation, and so summation
        # order, visible in the last bits
        data = data * rng.choice([-1.0, 1.0], size=data.shape) * 1e3
        assert_matvec_exact(indptr, indices, data, rng.standard_normal((n, r)) * 1e-3)


@pytest.mark.parametrize("r", [1, 8, 32])
def test_matvec_exact_on_normalized_knn_graph(r):
    rng = np.random.default_rng(5)
    feats, _, _ = make_noisy_dataset(SynthConfig(
        n_classes=3, per_class=60, dim=8, noise_rate=0.2, rng_seed=5))
    W = normalize_graph(build_adjacency(feats, GraphConfig(k_graph=7, gamma=3.0)))
    assert_matvec_exact(W.indptr, W.indices, W.data, rng.standard_normal((W.shape[0], r)))


def test_matvec_exact_with_empty_rows():
    rng = np.random.default_rng(9)
    for density in (0.02, 0.1):
        n = 120
        mat = scipy.sparse.random(n, n, density=density, format="lil", random_state=rng)
        dead = rng.random(n) < 0.3
        for i in np.flatnonzero(dead):
            mat.rows[i] = []
            mat.data[i] = []
        mat = mat.tocsr()
        mat.sort_indices()
        indptr = mat.indptr.astype(np.int64)
        assert (np.diff(indptr) == 0).any()
        x = rng.standard_normal((n, 8))
        assert_matvec_exact(indptr, mat.indices.astype(np.int64), mat.data, x)
        got = accel.make_csr_matvec(indptr, mat.indices, mat.data)(x)
        assert not got[np.diff(indptr) == 0].any()


def test_bound_matvec_reusable():
    rng = np.random.default_rng(2)
    indptr, indices, data, mat = random_csr(rng, 80, 0.1)
    bound = accel.make_csr_matvec(indptr, indices, data)
    for _ in range(3):
        x = rng.standard_normal((80, 2))
        assert np.array_equal(bound(x), csr_matvec_plain(indptr, indices, data, x))


def test_matvec_empty_rows_stay_zero():
    # row 0 and 2 have no entries
    indptr = np.array([0, 0, 2, 2], dtype=np.int64)
    indices = np.array([0, 2], dtype=np.int64)
    data = np.array([1.5, -2.0])
    x = np.arange(6, dtype=np.float64).reshape(3, 2)
    out = accel.make_csr_matvec(indptr, indices, data)(x)
    assert np.array_equal(out[0], [0.0, 0.0])
    assert np.array_equal(out[2], [0.0, 0.0])
    assert np.array_equal(out[1], 1.5 * x[0] - 2.0 * x[2])


def brute_pop(simrow, alive, take):
    picks = []
    alive = alive.copy()
    for _ in range(take):
        best = None
        for j in range(simrow.shape[0]):
            if not alive[j]:
                continue
            if best is None or simrow[j] > simrow[best]:
                best = j
        picks.append(best)
        alive[best] = False
    return picks


@pytest.mark.parametrize("fn", [accel.nearest_remaining, nearest_remaining_plain])
def test_nearest_remaining_matches_bruteforce(fn):
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(3, 40))
        # coarse values force plenty of exact ties
        simrow = rng.integers(0, 4, size=n) / 4.0
        alive = rng.random(n) < 0.8
        alive[rng.integers(n)] = True
        take = int(rng.integers(1, alive.sum() + 1))
        expect = brute_pop(simrow, alive.copy(), take)
        out = np.empty(take, dtype=np.int64)
        fn(simrow, alive.copy(), take, out)
        assert list(out) == expect


def test_nearest_remaining_equals_reference_on_ties():
    rng = np.random.default_rng(4)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        # quantized similarities in [-1, 1], with zeros of both signs
        simrow = rng.integers(-4, 5, size=n) / 4.0
        simrow[(simrow == 0) & (rng.random(n) < 0.5)] = -0.0
        alive = rng.random(n) < rng.random()
        alive[rng.integers(n)] = True
        take = int(rng.integers(0, alive.sum() + 1))
        alive_ref = alive.copy()
        ref = nearest_remaining_plain(simrow, alive_ref, take, np.empty(take, dtype=np.int64))
        out = np.full(take, -7, dtype=np.int64)
        got = accel.nearest_remaining(simrow, alive, take, out)
        assert got is out
        assert np.array_equal(out, ref)
        assert np.array_equal(alive, alive_ref)


def test_nearest_remaining_signed_zero_tie_takes_lower_index():
    simrow = np.array([0.0, -0.0, 0.0, -0.5, -0.0])
    alive = np.array([False, True, True, True, True])
    out = accel.nearest_remaining(simrow, alive, 3)
    assert list(out) == [1, 2, 4]
    assert list(alive) == [False, False, False, True, False]


def test_nearest_remaining_marks_dead():
    simrow = np.array([0.9, 0.1, 0.5, 0.7])
    alive = np.array([True, True, True, True])
    out = np.empty(2, dtype=np.int64)
    accel.nearest_remaining(simrow, alive, 2, out)
    assert list(out) == [0, 3]
    assert list(alive) == [False, True, True, False]


@pytest.mark.parametrize("kernel,reference", [
    ("make_csr_matvec", make_csr_matvec_plain),
    ("nearest_remaining", nearest_remaining_plain),
])
def test_correction_run_equals_reference_kernel_run(monkeypatch, kernel, reference):
    feats, noisy, clean = make_noisy_dataset(SynthConfig(
        n_classes=3, per_class=60, dim=8, noise_rate=0.3, rng_seed=2))

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
    monkeypatch.setattr(accel, kernel, reference)
    assert run() == real
