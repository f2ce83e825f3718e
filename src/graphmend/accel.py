"""Inner-loop kernels on scipy.sparse and numpy.

Two routines live here: the sparse-matrix/dense-block product that
dominates the propagation solver, and the masked nearest-neighbour
selection used while packaging samples.
"""

import numpy as np
import scipy.sparse


def make_csr_matvec(indptr, indices, data):
    """Bind a CSR matrix once and return f(x) -> W @ x for x of shape (n, r).

    scipy's kernel starts every output row at zero and adds data[p] * x[j]
    in storage order, so the sums are fixed by the arrays given here.
    """
    n = indptr.shape[0] - 1
    S = scipy.sparse.csr_matrix((data, indices, indptr), shape=(n, n))

    def bound(x):
        return S @ x

    return bound


def nearest_remaining(simrow, alive, take, out=None):
    """Pick the `take` highest-similarity live indices, marking them dead.

    Picks are written to `out` by descending similarity, ties to the lower
    index.  Requires finite similarities and at least `take` live entries.
    """
    if out is None:
        out = np.empty(take, dtype=np.int64)
    live = np.flatnonzero(alive)
    # stable sort of the negated row: equal values (0.0 and -0.0 too) keep
    # ascending index order
    out[:] = live[np.argsort(-simrow[live], kind="stable")[:take]]
    alive[out] = False
    return out
