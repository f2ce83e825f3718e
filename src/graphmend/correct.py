"""Phase 3: majority vote over the 2*M*M suggestions per sample.

Ties on vote count fall to the class with the larger summed certainty
weight among its supporters, then to the lower class index.  The
averaged confidence always divides by 2*M*M, so disagreeing suggestions
drag it down even when the winning class is confident.

The per-class counts and weight sums run on chunks of samples, each
chunk's suggestions copied to one C-ordered (rows, 2*M*M) array, so the
vote never copies the whole (M, M, n, 2) tensor.  Each row still sums
its own 2*M*M contiguous entries, with numpy's pairwise sum over that
row alone, so the sums have the bits of one whole-array pass.
"""

import numpy as np

from .core import LabelState, ValidationError
from .propagate import NO_SUGGESTION

# entries per vote chunk: 256 KiB per float64 temporary
_CHUNK_ENTRIES = 2**15


def _chunk_rows(width):
    """Samples per vote chunk of `width` suggestions each."""
    return max(1, _CHUNK_ENTRIES // width)


def decide_all(suggestions):
    """Vectorized vote over every sample.

    Returns (winners, vote_counts, omega_hat, tie_broken); winners hold
    NO_SUGGESTION where every suggestion was a sentinel, with omega_hat
    forced to 0 there.  Counts and weight sums are taken over chunks of
    at most _CHUNK_ENTRIES suggestions, one (rows, 2*M*M) copy per array
    (see the module docstring).
    """
    M = suggestions.n_branches
    n = suggestions.n_samples
    C = suggestions.n_classes
    counts = np.empty((n, C), dtype=np.int64)
    wsum = np.empty((n, C))
    h = _chunk_rows(2 * M * M)
    for start in range(0, n, h):
        rows = slice(start, start + h)
        lab = suggestions.labels[:, :, rows].transpose(2, 0, 1, 3).reshape(-1, 2 * M * M)
        wgt = suggestions.weights[:, :, rows].transpose(2, 0, 1, 3).reshape(-1, 2 * M * M)
        for c in range(C):
            hit = lab == c
            counts[rows, c] = hit.sum(axis=1)
            wsum[rows, c] = np.where(hit, wgt, 0.0).sum(axis=1)
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


def normalize_confidence(omega_hat):
    """Min-max normalize over the dataset; a flat vector maps to all 1."""
    omega_hat = np.asarray(omega_hat, dtype=np.float64)
    if omega_hat.shape[0] < 1:
        raise ValidationError("need at least one confidence value")
    lo = omega_hat.min()
    hi = omega_hat.max()
    if hi == lo:
        return np.ones_like(omega_hat)
    return (omega_hat - lo) / (hi - lo)


def apply_correction(state, winners, omega_bar):
    """New LabelState with the voted labels and normalized confidence.

    Silent samples (winner NO_SUGGESTION) keep their noisy label and get
    confidence 0 regardless of the normalization.
    """
    winners = np.asarray(winners, dtype=np.int64)
    omega_bar = np.asarray(omega_bar, dtype=np.float64)
    if winners.shape != (state.n_samples,) or omega_bar.shape != (state.n_samples,):
        raise ValidationError("need one winner and one confidence per sample")
    silent = winners == NO_SUGGESTION
    corrected = np.where(silent, state.noisy, winners)
    confidence = np.where(silent, 0.0, omega_bar)
    return LabelState(state.noisy, corrected, confidence, state.n_classes)
