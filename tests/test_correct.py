"""Majority vote, tie breaks, confidence averaging and normalization."""

import numpy as np
import pytest

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
