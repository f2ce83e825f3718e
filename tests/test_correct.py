"""Majority vote, tie breaks, confidence averaging and normalization."""

import tracemalloc

import numpy as np
import pytest

from graphmend import correct
from graphmend.core import LabelState, ValidationError
from graphmend.correct import apply_correction, decide_all, normalize_confidence
from graphmend.propagate import NO_SUGGESTION, SuggestionTensor


def one_sample_tensor(labels, weights, M, C):
    """Pack 2*M*M per-sample suggestions into an (M, M, 1, 2) tensor."""
    lab = np.asarray(labels, dtype=np.int64).reshape(M, M, 1, 2)
    wgt = np.asarray(weights, dtype=np.float64).reshape(M, M, 1, 2)
    return SuggestionTensor(lab, wgt, C)


def vote_one(labels, weights, M, C):
    """decide_all on a one-sample tensor: (winner, counts, omega_hat, tie)."""
    winners, counts, omega_hat, ties = decide_all(
        one_sample_tensor(labels, weights, M, C)
    )
    return winners[0], counts[0], omega_hat[0], ties[0]


def average_confidence(suggestions, winner, n, M):
    """Mean certainty of suggestions agreeing with the winner, over 2*M*M."""
    lab = suggestions.labels[:, :, n, :].ravel()
    wgt = suggestions.weights[:, :, n, :].ravel()
    return float(np.where(lab == winner, wgt, 0.0).sum() / (2.0 * M * M))


def test_plain_majority_wins():
    # 8 suggestions: class 1 gets 5 votes, class 0 gets 3
    labels = [1, 1, 1, 1, 1, 0, 0, 0]
    weights = [0.5] * 8
    winner, counts, omega_hat, tie = vote_one(labels, weights, 2, 2)
    assert winner == 1
    assert counts.tolist() == [3, 5]
    assert not tie
    # omega_hat = 5 * 0.5 / 8
    assert omega_hat == pytest.approx(0.3125, abs=1e-12)


def test_tie_breaks_on_weight():
    labels = [0, 0, 1, 1, 2, 2, 2, 1]
    weights = [0.9, 0.9, 0.1, 0.1, 0.2, 0.2, 0.2, 0.1]
    # counts: class0=2, class1=3, class2=3; weights 1->0.3, 2->0.6
    winner, _, omega_hat, tie = vote_one(labels, weights, 2, 3)
    assert winner == 2
    assert tie
    assert omega_hat == pytest.approx(0.6 / 8.0, abs=1e-12)


def test_tie_breaks_on_lower_class_when_weights_tie():
    labels = [0, 0, 1, 1, 2, 2, 0, 1]
    weights = [0.25] * 8
    # counts: 3, 3, 2; weight sums tie at 0.75 -> class 0 wins
    winner, _, _, tie = vote_one(labels, weights, 2, 3)
    assert winner == 0
    assert tie


def test_unanimous_vote_confidence():
    labels = [1] * 8
    weights = [1.0] * 8
    winner, _, omega_hat, tie = vote_one(labels, weights, 2, 2)
    assert winner == 1
    assert omega_hat == 1.0
    assert not tie


def test_sentinels_do_not_vote():
    labels = [NO_SUGGESTION] * 6 + [1, 1]
    weights = [0.0] * 6 + [0.4, 0.2]
    winner, _, omega_hat, _ = vote_one(labels, weights, 2, 2)
    assert winner == 1
    assert omega_hat == pytest.approx(0.6 / 8.0, abs=1e-12)


def test_all_sentinels_yield_sentinel():
    labels = [NO_SUGGESTION] * 8
    weights = [0.0] * 8
    winner, _, omega_hat, tie = vote_one(labels, weights, 2, 2)
    assert winner == NO_SUGGESTION
    assert omega_hat == 0.0
    assert not tie


def test_decide_all_matches_single_calls():
    # each sample's vote depends on its own suggestions only
    rng = np.random.default_rng(3)
    M, n, C = 3, 25, 4
    labels = rng.integers(-1, C, size=(M, M, n, 2))
    weights = rng.uniform(0, 1, size=(M, M, n, 2))
    weights[labels == NO_SUGGESTION] = 0.0
    winners, counts, omega_hat, tie_broken = decide_all(
        SuggestionTensor(labels, weights, C)
    )
    for i in range(n):
        winner, count, omega, tie = vote_one(
            labels[:, :, i, :], weights[:, :, i, :], M, C
        )
        assert winner == winners[i]
        assert np.array_equal(count, counts[i])
        assert omega == omega_hat[i]
        assert tie == tie_broken[i]


def test_average_confidence_definition():
    rng = np.random.default_rng(4)
    M, n, C = 2, 10, 3
    labels = rng.integers(0, C, size=(M, M, n, 2))
    weights = rng.uniform(0, 1, size=(M, M, n, 2))
    t = SuggestionTensor(labels, weights, C)
    winners, _, omega_hat, _ = decide_all(t)
    for i in range(n):
        assert average_confidence(t, winners[i], i, M) == pytest.approx(
            omega_hat[i], abs=1e-15
        )


def test_omega_hat_bounded_by_vote_share():
    rng = np.random.default_rng(5)
    M, n, C = 4, 50, 5
    labels = rng.integers(0, C, size=(M, M, n, 2))
    weights = rng.uniform(0, 1, size=(M, M, n, 2))
    t = SuggestionTensor(labels, weights, C)
    winners, counts, omega_hat, _ = decide_all(t)
    share = counts[np.arange(n), winners] / (2.0 * M * M)
    assert (omega_hat <= share + 1e-12).all()
    assert (omega_hat >= 0.0).all()


def test_winner_majority_threshold():
    # any class holding a strict majority of the 2*M*M slots must win,
    # whatever the weights say
    rng = np.random.default_rng(6)
    M, C = 3, 4
    total = 2 * M * M
    for trial in range(30):
        majority_class = int(rng.integers(C))
        lab = rng.integers(0, C, size=total)
        take = rng.permutation(total)[: total // 2 + 1]
        lab[take] = majority_class
        wgt = rng.uniform(0, 1, size=total)
        assert vote_one(lab, wgt, M, C)[0] == majority_class


def test_normalize_confidence_examples():
    got = normalize_confidence(np.array([0.2, 0.6, 1.0]))
    assert np.allclose(got, [0.0, 0.5, 1.0], atol=1e-15)


def test_normalize_confidence_flat_maps_to_one():
    got = normalize_confidence(np.array([0.4, 0.4, 0.4]))
    assert (got == 1.0).all()


def test_normalize_confidence_empty_rejected():
    with pytest.raises(ValidationError):
        normalize_confidence(np.array([]))


def test_apply_correction_updates_labels():
    state = LabelState([0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0], 3)
    winners = np.array([2, 1, NO_SUGGESTION])
    omega_bar = np.array([1.0, 0.5, 0.3])
    new = apply_correction(state, winners, omega_bar)
    assert new.corrected.tolist() == [2, 1, 2]
    assert new.noisy.tolist() == [0, 1, 2]
    assert new.confidence.tolist() == [1.0, 0.5, 0.0]


def test_apply_correction_count_mismatch():
    state = LabelState([0, 1], [0, 1], [1.0, 1.0], 2)
    with pytest.raises(ValidationError):
        apply_correction(state, np.array([0]), np.array([0.1]))
    with pytest.raises(ValidationError):
        apply_correction(state, np.array([0, 1]), np.array([0.1]))


def decide_all_reference(suggestions):
    """decide_all as it was before it voted in sample chunks: one
    (n, 2*M*M) copy of each whole suggestion array, kept as the bit-exact
    reference for the chunked vote."""
    M = suggestions.n_branches
    n = suggestions.n_samples
    C = suggestions.n_classes
    lab = suggestions.labels.transpose(2, 0, 1, 3).reshape(n, -1)
    wgt = suggestions.weights.transpose(2, 0, 1, 3).reshape(n, -1)
    counts = np.empty((n, C), dtype=np.int64)
    wsum = np.empty((n, C))
    for c in range(C):
        hit = lab == c
        counts[:, c] = hit.sum(axis=1)
        wsum[:, c] = np.where(hit, wgt, 0.0).sum(axis=1)
    top = counts.max(axis=1)
    tied = counts == top[:, None]
    tie_broken = tied.sum(axis=1) > 1
    left = np.where(tied, wsum, -1.0)
    winners = np.argmax(left == left.max(axis=1)[:, None], axis=1).astype(np.int64)
    omega_hat = wsum[np.arange(n), winners] / (2.0 * M * M)
    silent = top == 0
    winners[silent] = NO_SUGGESTION
    omega_hat[silent] = 0.0
    tie_broken[silent] = False
    return winners, counts, omega_hat, tie_broken


def vote_test_tensor(rng, M, n, C):
    """Random suggestions with every kind of sample the vote must keep:
    full-precision and quarter-step weights, 0.0 and -0.0 weights,
    all-sentinel samples, and ties on count and on weight."""
    shape = (M, M, n, 2)
    labels = rng.integers(-1, C, size=shape)
    weights = rng.uniform(0, 1, size=shape)
    # a quarter of the samples carry quarter-step weights, so weight
    # sums tie; some weights are 0.0 or -0.0
    quarter = rng.random(n) < 0.25
    weights[:, :, quarter] = rng.integers(0, 5, size=(M, M, quarter.sum(), 2)) / 4.0
    zero = rng.random(shape) < 0.1
    weights[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
    # every fifth sample splits its suggestions evenly over two classes
    # with equal weights: a tie on count and on weight
    split = np.arange(0, n, 5)
    half = np.arange(2 * M * M) % 2
    flat = labels.transpose(2, 0, 1, 3).reshape(n, -1)
    flat[split] = half * (C - 1)
    labels = flat.reshape(n, M, M, 2).transpose(1, 2, 0, 3).copy()
    weights[:, :, split] = 0.5
    # every seventh sample is silent
    labels[:, :, ::7] = NO_SUGGESTION
    weights[labels == NO_SUGGESTION] = 0.0
    return SuggestionTensor(labels, weights, C)


@pytest.mark.parametrize("M", [1, 2, 5])
@pytest.mark.parametrize("C", [2, 4, 16])
def test_chunked_vote_equals_whole_array_reference(M, C):
    chunk = correct._chunk_rows(2 * M * M)
    rng = np.random.default_rng(100 * M + C)
    for n in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7):
        t = vote_test_tensor(rng, M, n, C)
        got = decide_all(t)
        want = decide_all_reference(t)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2].view(np.uint64), want[2].view(np.uint64))
        assert np.array_equal(got[3], want[3])
        if n > 10:
            assert (got[0] == NO_SUGGESTION).any() and got[3].any()


def test_vote_peak_memory_stays_below_two_and_a_half_mib():
    # (5, 8,000, 4) is local-8k's vote.  The whole-array vote peaked at
    # 10.1 MiB above its input: two (n, 2*M*M) copies and a where-array
    M, n, C = 5, 8000, 4
    t = vote_test_tensor(np.random.default_rng(8), M, n, C)
    tracemalloc.start()
    try:
        decide_all(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20
