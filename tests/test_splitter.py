"""Packaging and dealing: partition exactness, locality, balance."""

import tracemalloc

import numpy as np
import pytest

from graphmend.core import FeatureMatrix, ValidationError
from graphmend.splitter import (
    SplitConfig,
    mix_parameters,
    package_class,
    split_dataset,
)


class ScriptedRng:
    """Replays a fixed sequence of integers() draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def integers(self, n):
        v = self.draws.pop(0)
        assert v < n
        return v


def test_package_size_arithmetic():
    rng = np.random.default_rng(0)
    feats = FeatureMatrix(rng.standard_normal((1000, 4)))
    packages = package_class(feats, np.arange(1000), 5, 4, rng)
    assert len(packages) == 20
    assert all(p[1].shape[0] == 50 for p in packages)


def test_package_singletons_when_class_small():
    rng = np.random.default_rng(0)
    feats = FeatureMatrix(np.arange(14, dtype=np.float32).reshape(7, 2) + 1)
    packages = package_class(feats, np.arange(7), 2, 2, rng)
    assert len(packages) == 7
    assert all(p[1].shape[0] == 1 for p in packages)


def test_package_line_neighbourhood():
    # points (i, 1): cosine similarity to (0, 1) falls as i grows, so a
    # seed at index 0 with k=5 collects indices 1..4
    pts = np.stack([np.arange(10, dtype=np.float64), np.ones(10)], axis=1)
    feats = FeatureMatrix(pts)
    packages = package_class(feats, np.arange(10), 2, 1, ScriptedRng([0, 0]))
    assert sorted(packages[0][1].tolist()) == [0, 1, 2, 3, 4]
    assert packages[0][0] == 0
    assert sorted(packages[1][1].tolist()) == [5, 6, 7, 8, 9]


def test_package_locality_against_bruteforce():
    rng = np.random.default_rng(5)
    n_c = 120
    feats = FeatureMatrix(rng.standard_normal((n_c, 6)))
    M, B = 3, 2
    k = n_c // (M * B)
    packages = package_class(feats, np.arange(n_c), M, B, np.random.default_rng(9))
    unit = feats.data.astype(np.float64)
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    pool = set(range(n_c))
    for seed, members in packages:
        members = set(members.tolist())
        assert members <= pool
        if len(members) == k:
            assert seed in members
            rest = sorted(pool - {seed})
            sims = unit[rest] @ unit[seed]
            ranked = [r for _, r in sorted(zip(-sims, rest))]
            assert members == {seed} | set(ranked[: k - 1])
        pool -= members
    assert not pool


def test_split_partition_property():
    rng = np.random.default_rng(1)
    for trial in range(20):
        C = int(rng.integers(2, 5))
        n_per = int(rng.integers(5, 60))
        labels = np.repeat(np.arange(C), n_per)
        feats = FeatureMatrix(rng.standard_normal((labels.shape[0], 5)))
        M = int(rng.integers(1, 5))
        B = int(rng.integers(1, 4))
        cfg = SplitConfig(M, B, trial)
        assignment = split_dataset(feats, labels, cfg)
        assert (assignment.branch_of >= 0).all()
        assert (assignment.branch_of < M).all()
        seen = np.concatenate([p[2] for p in assignment.packages])
        assert np.array_equal(np.sort(seen), np.arange(labels.shape[0]))


def test_split_exact_case_branch_counts():
    rng = np.random.default_rng(2)
    labels = np.repeat(np.arange(4), 200)
    feats = FeatureMatrix(rng.standard_normal((800, 8)))
    assignment = split_dataset(feats, labels, SplitConfig(5, 4, 3))
    for c in range(4):
        members = labels == c
        counts = np.bincount(assignment.branch_of[members], minlength=5)
        assert (counts == 40).all()


def test_split_class_balance_within_one_package():
    rng = np.random.default_rng(3)
    for trial in range(40):
        C = int(rng.integers(2, 4))
        sizes = rng.integers(4, 90, size=C)
        labels = np.repeat(np.arange(C), sizes)
        feats = FeatureMatrix(rng.standard_normal((labels.shape[0], 4)))
        M = int(rng.integers(2, 5))
        B = int(rng.integers(1, 4))
        assignment = split_dataset(feats, labels, SplitConfig(M, B, trial))
        for c in range(C):
            members = labels == c
            k = max(int(members.sum()) // (M * B), 1)
            counts = np.bincount(assignment.branch_of[members], minlength=M)
            assert counts.max() - counts.min() <= k


def test_split_single_branch_identity():
    feats = FeatureMatrix(np.random.default_rng(0).standard_normal((30, 3)))
    labels = np.repeat(np.arange(3), 10)
    assignment = split_dataset(feats, labels, SplitConfig(1, 2, 0))
    assert (assignment.branch_of == 0).all()


def test_split_deterministic():
    rng = np.random.default_rng(4)
    labels = np.repeat(np.arange(3), 40)
    feats = FeatureMatrix(rng.standard_normal((120, 4)))
    a = split_dataset(feats, labels, SplitConfig(4, 2, 77))
    b = split_dataset(feats, labels, SplitConfig(4, 2, 77))
    assert np.array_equal(a.branch_of, b.branch_of)
    assert np.array_equal(a.package_of, b.package_of)
    assert len(a.packages) == len(b.packages)
    for (ca, sa, ma), (cb, sb, mb) in zip(a.packages, b.packages):
        assert (ca, sa) == (cb, sb)
        assert np.array_equal(ma, mb)


def test_split_varies_with_seed():
    rng = np.random.default_rng(6)
    labels = np.repeat(np.arange(3), 40)
    feats = FeatureMatrix(rng.standard_normal((120, 4)))
    differing = 0
    for s in range(5):
        a = split_dataset(feats, labels, SplitConfig(3, 2, s))
        b = split_dataset(feats, labels, SplitConfig(3, 2, s + 100))
        if not np.array_equal(a.branch_of, b.branch_of):
            differing += 1
    assert differing >= 1


def test_split_branches_far_above_sample_count_allocates_nothing_large():
    # M = 10**18 on 40 samples: every package is one sample and goes to a
    # branch of its own, without any array of length M
    feats = FeatureMatrix(np.random.default_rng(7).standard_normal((40, 3)))
    labels = np.repeat(np.arange(2), 20)
    tracemalloc.start()
    try:
        assignment = split_dataset(feats, labels, SplitConfig(10**18, 4, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert assignment.n_branches == 10**18
    assert np.unique(assignment.branch_of).shape[0] == 40
    assert (assignment.branch_of >= 0).all() and (assignment.branch_of < 10**18).all()
    assert sorted(assignment.package_of.tolist()) == list(range(40))


def test_package_empty_class_error():
    feats = FeatureMatrix(np.ones((2, 2), dtype=np.float32))
    with pytest.raises(ValidationError):
        package_class(feats, np.array([], dtype=np.int64), 2, 2, np.random.default_rng(0))


def test_mix_parameters_endpoints():
    a = np.array([0.0, 2.0])
    b = np.array([2.0, 0.0])
    assert np.array_equal(mix_parameters(a, b, 0.0), a)
    assert np.array_equal(mix_parameters(a, b, 1.0), b)
    assert np.array_equal(mix_parameters(a, b, 0.5), [1.0, 1.0])


def test_mix_parameters_length_mismatch():
    with pytest.raises(ValidationError):
        mix_parameters(np.zeros(3), np.zeros(4), 0.5)
