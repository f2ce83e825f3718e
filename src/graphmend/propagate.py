"""Phase 2 label propagation over the branch graphs.

For every (graph m, label set j) pair the solver computes
Z = (I - alpha*W)^-1 Y by conjugate gradient, one linear system per
class column and label plane.  The system is symmetric positive
definite because the normalized W has spectral radius at most 1 and
alpha < 1.  An independent fixed-point iteration (z <- alpha*W z + y,
run on scipy's sparse matvec) serves as the oracle route; it shares no
solver code with the CG path.
"""

import numpy as np
import scipy.sparse

from . import accel
from .core import SolverError, ValidationError

NO_SUGGESTION = -1


class PropagationConfig:
    def __init__(self, alpha_prop=0.99, cg_tolerance=1e-6, cg_max_iters=200):
        if not 0.0 < alpha_prop < 1.0:
            raise ValidationError("alpha_prop must lie in (0, 1)")
        if cg_tolerance <= 0 or cg_max_iters < 1:
            raise ValidationError("solver tolerance and iteration cap must be positive")
        self.alpha_prop = float(alpha_prop)
        self.cg_tolerance = float(cg_tolerance)
        self.cg_max_iters = int(cg_max_iters)


class SuggestionTensor:
    """Labels and certainty weights from all M*M propagations, 2 planes each."""

    def __init__(self, labels, weights, n_classes):
        self.labels = np.asarray(labels, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.labels.shape != self.weights.shape or self.labels.ndim != 4:
            raise ValidationError("suggestion arrays must share an (M, M, n, 2) shape")
        if self.labels.shape[0] != self.labels.shape[1] or self.labels.shape[3] != 2:
            raise ValidationError("suggestion arrays must share an (M, M, n, 2) shape")
        if self.labels.size:
            if self.labels.max() >= n_classes or self.labels.min() < NO_SUGGESTION:
                raise ValidationError("suggested label outside [0, n_classes)")
            if self.weights.min() < 0 or self.weights.max() > 1:
                raise ValidationError("certainty weight outside [0, 1]")
        self.n_branches = self.labels.shape[0]
        self.n_samples = self.labels.shape[2]
        self.n_classes = int(n_classes)


def build_partial_labels(assignment, j, state):
    """One-hot label planes for branch j's samples; other rows all-zero.

    Plane 0 carries the original noisy labels, plane 1 the current
    corrected labels.
    """
    if j >= assignment.n_branches:
        raise ValidationError("branch index %d out of range" % j)
    n, C = state.n_samples, state.n_classes
    Y = np.zeros((n, C, 2))
    members = np.flatnonzero(assignment.branch_of == j)
    Y[members, state.noisy[members], 0] = 1.0
    Y[members, state.corrected[members], 1] = 1.0
    return Y


def solve_propagation(W, Y, cfg):
    """Solve (I - alpha*W) Z = Y column by column with conjugate gradient.

    All-zero columns are returned as all-zero without touching the
    solver.  Raises SolverError with the worst residual if any column
    misses cg_tolerance * ||y|| within cg_max_iters iterations.
    """
    if not W.normalized:
        raise ValidationError("propagation needs a normalized graph")
    Y = np.asarray(Y, dtype=np.float64)
    n = W.n
    flat = Y.reshape(n, -1)
    Z = np.zeros_like(flat)
    bnorm = np.linalg.norm(flat, axis=0)
    live = bnorm > 0
    if live.any():
        Z[:, live] = _cg(W, flat[:, live], cfg)
    return Z.reshape(Y.shape)


def _cg(W, b, cfg):
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
    if (rs > goal).any():
        worst = float(np.sqrt(rs.max()))
        raise SolverError(
            "conjugate gradient missed tolerance after %d iterations "
            "(worst residual %.3e)" % (cfg.cg_max_iters, worst)
        )
    return x


def diffusion_oracle(W, Y, alpha, iters):
    """Fixed-point iteration z <- alpha*W z + y on scipy's sparse matvec.

    Converges to the same fixed point the solver targets; kept free of
    any shared solver code so the two routes stay independent checks.
    """
    Y = np.asarray(Y, dtype=np.float64)
    n = W.n
    S = scipy.sparse.csr_matrix((W.data, W.indices, W.indptr), shape=(n, n))
    flat = Y.reshape(n, -1)
    z = flat.copy()
    for _ in range(iters):
        z = alpha * (S @ z) + flat
    return z.reshape(Y.shape)


def suggest_labels(Z):
    """Argmax class per sample and plane; ties take the lowest class.

    Rows with no propagated mass get the NO_SUGGESTION sentinel.
    """
    Z = np.asarray(Z, dtype=np.float64)
    labels = np.argmax(Z, axis=1).astype(np.int64)
    empty = Z.max(axis=1) <= 0
    labels[empty] = NO_SUGGESTION
    return labels


def certainty_weights(Z):
    """Confidence of each propagated row: 1 - entropy / log(C).

    Negative mass from finite precision is floored at zero before row
    normalization; all-zero rows score 0.  Exactly-uniform rows are
    pinned to 0 so the bound does not wobble with C.
    """
    Z = np.asarray(Z, dtype=np.float64)
    C = Z.shape[1]
    if C < 2:
        raise ValidationError("certainty weights need at least 2 classes")
    mass = np.clip(Z, 0.0, None)
    total = mass.sum(axis=1)
    denom = np.expand_dims(np.where(total > 0, total, 1.0), 1)
    P = mass / denom
    logP = np.where(P > 0, np.log(np.where(P > 0, P, 1.0)), 0.0)
    H = -(P * logP).sum(axis=1)
    w = np.clip(1.0 - H / np.log(C), 0.0, 1.0)
    # constant rows carry no preference: score 0 exactly, which also
    # covers rows with no propagated mass at all
    w[mass.max(axis=1) == mass.min(axis=1)] = 0.0
    return w
