"""Phase 2 label propagation over the branch graphs.

For every (graph m, label set j) pair the solver computes
Z = (I - alpha*W)^-1 Y by conjugate gradient, one linear system per
distinct class column.  A column that is a bit-for-bit copy of another
is solved once and copied; at epoch 1 the current labels equal the
original ones, so plane 1 repeats plane 0.  W is the scipy CSR matrix
graph.normalize_graph returns; its spectral radius is at most 1, so
with alpha < 1 the system is symmetric positive definite.  Nothing
checks that W is normalized: another W gives its own system's solution
where CG converges and SolverError where it does not, as for
graph.build_adjacency's un-normalized output.

Copying keeps the bits of solving every column because the solved block
is the F-ordered fancy-index slice flat[:, cols] and never one column
wide: CG sums in another order on other layouts and on one column, while
it solves the columns of a wider block independently of each other.

For an (n, C, 2) Y, Z comes back class-major: a view whose strides are
(8, 16n, 8n), so each class plane is one contiguous run of n values.
Scoring reduces over the class axis; on this layout numpy walks memory
in order instead of an inner loop two elements long, and each sum still
adds the classes in index order, so the bits match a C-ordered Z.  A
2-D Y keeps a C-ordered Z: summing the rows of an F-ordered (n, K) array
adds K >= 8 values in another order than numpy's pairwise sum over a
C-ordered row, so its scores would change in the last bit.
"""

import dataclasses

import numpy as np

from . import accel
from .core import SolverError, ValidationError, cast_fields, require_finite

NO_SUGGESTION = -1


@dataclasses.dataclass
class PropagationConfig:
    alpha_prop: float = 0.99
    cg_tolerance: float = 1e-6
    cg_max_iters: int = 200

    def __post_init__(self):
        require_finite(self)
        if not 0.0 < self.alpha_prop < 1.0:
            raise ValidationError("alpha_prop must lie in (0, 1)")
        if self.cg_tolerance <= 0 or self.cg_max_iters < 1:
            raise ValidationError("solver tolerance and iteration cap must be positive")
        cast_fields(self)


class SuggestionTensor:
    """Labels and certainty weights from all M*M propagations, 2 planes each."""

    def __init__(self, labels, weights, n_classes):
        self.labels = np.asarray(labels, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.float64)
        shape = self.labels.shape
        if (shape != self.weights.shape or len(shape) != 4
                or shape[0] != shape[1] or shape[3] != 2):
            raise ValidationError("suggestion arrays must share an (M, M, n, 2) shape")
        if self.labels.size:
            if self.labels.max() >= n_classes or self.labels.min() < NO_SUGGESTION:
                raise ValidationError("suggested label outside [0, n_classes)")
            if not np.isfinite(self.weights).all():
                raise ValidationError("certainty weight is nan or inf")
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

    W is an (n, n) scipy CSR matrix, normally normalize_graph's output
    (see the module docstring for any other W).  All-zero columns are
    returned as all-zero without touching the solver, and columns with
    identical bytes are solved once and copied.
    Raises ValidationError when Y's rows do not match the graph's nodes
    or Y holds nan or inf, and SolverError with the worst residual if
    any column misses cg_tolerance * ||y|| within cg_max_iters
    iterations.  Z has Y's shape; for a Y of three or more dimensions it
    is a class-major view, for a 2-D Y a C-ordered array (see the
    module docstring).  Z is allocated after CG returns, so it is never
    live next to CG's block buffers.
    """
    Y = np.asarray(Y, dtype=np.float64)
    n = W.shape[0]
    if Y.ndim == 0 or Y.shape[0] != n:
        raise ValidationError(
            "label block of shape %s does not match a graph of %d nodes" % (Y.shape, n)
        )
    flat = Y.reshape(n, -1)
    if not np.isfinite(flat).all():
        raise ValidationError("label block holds nan or inf")
    live = np.flatnonzero(np.linalg.norm(flat, axis=0) > 0)
    solved = None
    if live.size:
        cols, slot = _distinct_columns(flat, live)
        solved = _cg(W, flat[:, cols], cfg)[:, slot]
    # column-major for (n, C, 2) blocks, so Z.reshape(Y.shape) stays a
    # view with contiguous class planes (see the module docstring)
    Z = np.zeros(flat.shape[::-1]).T if Y.ndim > 2 else np.zeros_like(flat)
    if solved is not None:
        Z[:, live] = solved
    return Z.reshape(Y.shape)


def _distinct_columns(flat, live):
    """First column of each distinct byte pattern among `live`, and the
    position in that list of every live column's pattern.

    Keeps all of `live` when they share one pattern, so the solved block
    is never one column wide (see the module docstring).
    """
    slots = {}
    slot = [slots.setdefault(flat[:, c].tobytes(), len(slots)) for c in live]
    if len(slots) == 1:
        return live, np.arange(live.size)
    return live[np.unique(slot, return_index=True)[1]], np.array(slot)


def _cg(W, b, cfg):
    matvec = accel.make_csr_matvec(W.indptr, W.indices, W.data)
    alpha = cfg.alpha_prop
    # x in resid's C order: `x += step * p` mixing an F-ordered x with a
    # C-ordered p costs twice the matching resid update
    resid = b.copy()
    x = np.zeros_like(resid)
    p = resid.copy()
    rs = np.einsum("ij,ij->j", resid, resid)
    goal = (cfg.cg_tolerance * np.linalg.norm(b, axis=0)) ** 2
    for _ in range(cfg.cg_max_iters):
        active = rs > goal
        if not active.any():
            break
        # every update is in place, so a block keeps b, resid, x, p and
        # one product buffer live: q = p - alpha * (W p), then step * q,
        # then step * p, each in the buffer the product came in, which is
        # dropped before the next product.  IEEE products and sums
        # commute, so each entry gets the bits of the expression it
        # replaces
        q = matvec(p)
        q *= alpha
        np.subtract(p, q, out=q)
        pq = np.einsum("ij,ij->j", p, q)
        usable = active & (pq > 0)
        step = np.where(usable, rs / np.where(pq > 0, pq, 1.0), 0.0)
        q *= step
        resid -= q
        np.multiply(step, p, out=q)
        x += q
        del q
        rs_new = np.einsum("ij,ij->j", resid, resid)
        beta = np.where(usable, rs_new / np.where(rs > 0, rs, 1.0), 0.0)
        p *= beta
        p += resid
        rs = rs_new
    if (rs > goal).any():
        worst = float(np.sqrt(rs.max()))
        raise SolverError(
            "conjugate gradient missed tolerance after %d iterations "
            "(worst residual %.3e)" % (cfg.cg_max_iters, worst)
        )
    return x


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
    pinned to 0 so the bound does not wobble with C.  Two buffers of Z's
    size: the clipped mass, divided into P in place, and P log P.  Both
    keep Z's layout, so each row sum adds in the same order as over Z.
    """
    Z = np.asarray(Z, dtype=np.float64)
    C = Z.shape[1]
    if C < 2:
        raise ValidationError("certainty weights need at least 2 classes")
    P = np.clip(Z, 0.0, None)  # the mass, until divided in place below
    # constant rows carry no preference: score 0 exactly, which also
    # covers rows with no propagated mass at all
    constant = P.max(axis=1) == P.min(axis=1)
    total = P.sum(axis=1)
    P /= np.expand_dims(np.where(total > 0, total, 1.0), 1)
    terms = np.zeros_like(P)
    np.log(P, out=terms, where=P > 0)
    terms *= P
    H = -terms.sum(axis=1)
    w = np.clip(1.0 - H / np.log(C), 0.0, 1.0)
    w[constant] = 0.0
    return w
