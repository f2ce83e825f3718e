"""Phase 2 graph construction: directional k-NN adjacency, then
symmetric normalization.

Neighbour search is exact: each node keeps the k most cosine-similar
other nodes, ordered by descending similarity, with equal similarities
(0.0 and -0.0 included) going to the lower index.  Similarities are
computed block by block of rows into one buffer allocated per call, so
only one block is ever live.  Selection costs one argpartition per chunk
of at most 2**17 entries (1 MiB of int64 indices; the chunk height
follows from n), which also places the runner-up, the largest entry left
out of the selection, so no selection scratch grows with a block's rows
times n.  Only rows whose runner-up equals their k-th value need their
tie settled: such a row sorts its fewer than k entries above the k-th
value by descending value, then ascending column, and fills the rest
with its first columns equal to the k-th value.

The unit rows are followed by zero rows up to a multiple of 16, and
every float64 product runs on operands of one shape (_operand): whole
16-row groups of those rows, a slice where one fits and a zero-padded
copy otherwise, tall enough for more than _SMALL_PRODUCT = 2,048
entries.  So no product is a matrix-vector product, goes to OpenBLAS's
small-matrix kernel (at most 1,152 entries at inner widths from 32 on)
or has rows past its last multiple of 4, which the Haswell kernels
(also picked for AMD Zen) round otherwise: the similarities are the
same bits for every block split and BLAS thread count.  Pad columns are
set to -inf like the diagonal, and rows past a block's own are dropped.
A default block holds min(256, 2**21 // n) rows, at most 16 MiB of
float64, rounded down to whole 16-row groups, and at least 16: 256 rows
up to n = 8,192.

On wide blocks (n >= 64 k) a slab bound first shrinks each row to k g
candidates.  The first g w columns are cut into g contiguous slabs of
width w = n // g, with g = floor(sqrt(n / k) / 2), and their elementwise
maximum gives w slab-column maxima.  The k-th largest maximum is a lower
bound on the row's k-th value, so every top-k entry, and every entry
tied with the k-th value, lies in the k picked slab columns or in the
n - g w tail columns, unless an unpicked slab column's maximum equals
the bound; such rows settle their tie on the whole row as above, from
the candidates' k-th value, which is the row's.  The candidates keep
ascending column order, so the argpartition kernel run on them hands
ties to the lower index exactly as on the whole row.  Narrower blocks
(global graphs with k = 50 at n = 2,000, for one) go straight to the
argpartition kernel.

Searches whose blocks hold at most n / (2 (k + m)) rows, m = 2
(_SCREEN_EXTRA), so that a block's candidate columns stay at most half
of n, screen each block in float32 first.  At k = 5 default blocks
screen from n = 3,584 on (local-8k: 256-row blocks at n = 8,000); at
n = 2,000, k = 50 and n = 2,400, k = 10 they do not:

1. The block's similarities s^ in float32, from float32 copies of the
   unit rows, in a buffer of half the bytes of a float64 block, and
   any k + m largest of each row by them (ties need no settling).
2. One float64 GEMM of the block's rows on the union of their candidate
   columns, both operands shaped like every product above, so each
   entry is the bit pattern s that the block's own product gives.

For unit rows x, y of width d, |s^ - s| <= eps = (d + 3) 2**-23.  With
u = 2**-24, rounding both rows to float32 moves x.y by at most
(2u + u**2)|x||y|, the float32 sum of d products in any order adds at
most gamma_d |x^||y^|, gamma_d = d u / (1 - d u), and the float64 sum at
most d 2**-53 |x||y| < u; to first order that is (d + 3) u, and eps
doubles it to cover the second-order terms, norms a few ulps above 1,
float32 underflow and the rounding of the test below.  A row is
resolved when s^_(k+m) < s^_(k) - 2 eps, subscripts giving its
descending screened order.  The k entries with s^ >= s^_(k) have
s >= s^_(k) - eps, so the exact k-th value s_(k) >= s^_(k) - eps, and
every entry with s >= s_(k) has s^ >= s_(k) - eps >= s^_(k) - 2 eps,
while every entry left out has s^ <= s^_(k+m): all of them, ties
included, are candidates.
A resolved row sorts its candidates by column, then stably by
descending exact value, and keeps k: the whole row's rule.  Other rows
are recomputed in float64 over the whole row, as unscreened blocks are,
in chunks of the same buffer's rows, so the search never holds more
than one float64 block, even when every row falls back.  The buffer
holds half a float64 block, or the largest re-score product if that is
larger (its rows by at most n / 2 columns, so at most about as many
entries; 256 x 1,792 entries against 128 x 8,000 at local-8k), and the
product is written into it once the float32 block is dead.

Edge weights are clamp(cosine, 0, 1) ** gamma so fractional gamma stays
real even when raw cosine goes negative.  Both graphs are
scipy.sparse.csr_matrix: A from its unique (source, target) pairs, each
row in ascending target order, and S = A + A^T, where a reciprocal pair
merges with one commutative addition and entries that sum to zero are
dropped.  Normalization computes D = diag(row sums of S) and scales S's
entries in place into W = D^-1/2 S D^-1/2; A is never modified.
np.bincount over S's rows gives the degrees, adding each row from +0.0
in ascending column order, so dropped zeros change no sum;
S.sum(axis=1) adds in another order and gives other bits.  The
per-entry scale factors are multiplied together first so W is
symmetric bit for bit, and isolated nodes keep all-zero rows.
"""

import dataclasses
import math

import numpy as np
import scipy.sparse

from .core import ValidationError, cast_fields, require_finite

# entries per selection chunk: 1 MiB of int64 indices
_CHUNK_ENTRIES = 2**17
# entries of a GEMM result at or below which OpenBLAS may take its
# small-matrix kernel, which rounds otherwise than larger products
_SMALL_PRODUCT = 2048
# candidates per row that the float32 screen keeps beyond k
_SCREEN_EXTRA = 2


@dataclasses.dataclass
class GraphConfig:
    k_graph: int = 50
    gamma: float = 3.0

    def __post_init__(self):
        require_finite(self)
        if self.k_graph < 1:
            raise ValidationError("k_graph must be >= 1")
        if self.gamma < 1.0:
            raise ValidationError("gamma must be >= 1")
        cast_fields(self)


def _normalized_features(features):
    """Unit rows as float64, then zero rows up to a multiple of 16."""
    n = features.n_samples
    rows = np.zeros((-(-n // 16) * 16, features.dim))
    unit = rows[:n]
    unit[...] = features.data
    norms = np.linalg.norm(unit, axis=1)
    bad = np.flatnonzero(norms == 0)
    if bad.size:
        raise ValidationError("zero-norm feature vector at index %d" % bad[0])
    unit /= norms[:, None]
    return rows


def _row_chunks(b, n):
    """Row slices of a (b, n) array holding at most 2**17 entries each,
    so an int64 array of one chunk's shape takes at most 1 MiB."""
    h = max(1, _CHUNK_ENTRIES // n)
    return [slice(r, r + h) for r in range(0, b, h)]


def _topk_rows(sims, k, settle_ties=True):
    """Per-row indices of the k largest entries, ties to the lower index.

    Returns (indices, values) with columns ordered by descending value
    and ascending index within equal values; 0.0 and -0.0 count as equal.
    One argpartition per row chunk (see _row_chunks: 65 rows at
    n = 2,000) picks k largest entries per row and, next to them, the
    runner-up: the largest entry left out, which no other left-out entry
    exceeds.  Only the k + 1 kept columns of a chunk's index array
    outlive it.  When the runner-up is below the row's k-th value, the
    pick is the only valid set and sorting it finishes the row.  Rows
    whose runner-up equals the k-th value are tied across the cut and go
    to _repair_ties, which hands the tied slots to the lowest indices.
    Rows where settle_ties (a bool, or one per row) is false are left as
    picked: some k largest entries, with the right values.
    """
    b, n = sims.shape
    part = np.empty((b, k + 1), dtype=np.int64)
    for rows in _row_chunks(b, n):
        part[rows] = np.argpartition(sims[rows], n - k - 1, axis=1)[:, n - k - 1:]
    runner_up = np.take_along_axis(sims, part[:, :1], axis=1)[:, 0]
    idx = np.sort(part[:, 1:], axis=1)
    vals = np.take_along_axis(sims, idx, axis=1)
    # a stable sort on descending value keeps ascending index inside ties
    order = np.argsort(-vals, axis=1, kind="stable")
    idx = np.take_along_axis(idx, order, axis=1)
    vals = np.take_along_axis(vals, order, axis=1)
    _repair_ties(sims, np.flatnonzero((runner_up >= vals[:, -1]) & settle_ties), idx, vals)
    return idx, vals


def _repair_ties(sims, tied, idx, vals):
    """Redo rows `tied` of (idx, vals) in place, whose k-th value
    vals[:, -1] is right but whose pick may not hold the lowest indices
    tied with it.  Per row chunk, the entries above the k-th value, by
    descending value then ascending column, and then the first columns
    equal to it (0.0 and -0.0 alike): the order of one stable sort of
    the whole row, with no sort of the tied run."""
    k = idx.shape[1]
    slot = np.arange(k)
    for rows in _row_chunks(tied.size, sims.shape[1]):
        t = tied[rows]
        block = sims[t]
        kth = vals[t, -1:]
        r, c = np.nonzero(block > kth)
        c = c[np.lexsort((c, -block[r, c], r))]
        above = np.bincount(r, minlength=t.size)[:, None]
        equal = _first_equal(block, kth, k - above[:, 0], k)
        # slot j holds entry j of the row's run in c, or else entry
        # j - above of its row in equal
        first = np.where(slot < above, np.cumsum(above)[:, None] - above,
                         c.size + k * np.arange(t.size)[:, None] - above)
        idx[t] = np.concatenate([c, equal.ravel()])[first + slot]
        vals[t] = np.take_along_axis(block, idx[t], axis=1)


def _first_equal(block, kth, need, k):
    """A (rows, k) array whose row i starts with the first need[i]
    columns of block's row i equal to kth[i] (0.0 and -0.0 alike), in
    ascending order.  Rows are scanned over leading columns, 4 k of them
    and then four times as many per pass until a row's need[i] are seen,
    so no pass lists every tied column of a row that ties throughout."""
    b, n = block.shape
    equal = np.zeros((b, k), dtype=np.int64)
    todo = np.arange(b)
    width = 4 * k
    while todo.size:
        hit = block[todo, :width] == kth[todo]
        found = np.count_nonzero(hit, axis=1)
        done = (found >= need[todo]) | (width >= n)
        r, c = np.nonzero(hit[done])
        # place of each listed column within its row
        rank = np.arange(r.size) - (np.cumsum(found[done]) - found[done])[r]
        keep = rank < k
        equal[todo[done][r[keep]], rank[keep]] = c[keep]
        todo = todo[~done]
        width *= 4
    return equal


def _slab_count(n, k):
    """Slabs per row for the bound pass over n columns, or 0 when the
    block is too narrow for the bound to pay (n < 64 k).  From n >= 64 k
    on, g = floor(sqrt(n / k) / 2) is at least 4."""
    if n < 64 * k:
        return 0
    return math.isqrt(n // k) // 2


def _topk_slabs(sims, k, settle_ties=True):
    """_topk_rows(sims, k, settle_ties), run on the k g candidate columns
    a slab bound leaves per row (see the module docstring)."""
    b, n = sims.shape
    g = _slab_count(n, k)
    if not g:
        return _topk_rows(sims, k, settle_ties)
    w = n // g
    maxima = np.maximum.reduce(sims[:, :g * w].reshape(b, g, w), axis=1)
    part = np.argpartition(maxima, w - k - 1, axis=1)[:, w - k - 1:]
    runner_up = np.take_along_axis(maxima, part[:, :1], axis=1)[:, 0]
    bound = np.take_along_axis(maxima, part[:, 1:], axis=1).min(axis=1)
    # an unpicked slab column whose maximum equals the bound may hold a
    # lower-indexed entry tied with the k-th value: such rows settle
    # their tie on the whole row, not first among their candidates
    whole = (runner_up >= bound) & settle_ties
    pick = np.sort(part[:, 1:], axis=1)
    # candidate columns in ascending order: slab by slab, then the tail
    cols = (pick[:, None, :] + w * np.arange(g)[:, None]).reshape(b, g * k)
    tail = np.broadcast_to(np.arange(g * w, n), (b, n - g * w))
    cols = np.concatenate([cols, tail], axis=1)
    # sims is C-contiguous, so one flat take gathers every row's candidates
    flat = cols + n * np.arange(b)[:, None]
    local, vals = _topk_rows(np.take(sims, flat), k, settle_ties & ~whole)
    idx = np.take_along_axis(cols, local, axis=1)
    # the candidates' k-th value is still the row's: every unpicked slab
    # column is <= the bound, and the bound is <= that value
    _repair_ties(sims, np.flatnonzero(whole), idx, vals)
    return idx, vals


def _padded(count, other):
    """Rows of a product operand that holds `count` rows against `other`
    rows: whole 16-row groups, and more than _SMALL_PRODUCT entries."""
    return -(-max(count, _SMALL_PRODUCT // other + 1) // 16) * 16


def _operand(unit, ids, other):
    """Unit rows `ids` (ascending) as an operand of _padded(ids.size,
    other) rows: a slice of `unit` when ids is a range that fits,
    otherwise a copy padded with zero rows."""
    rows = _padded(ids.size, other)
    if ids.size and ids[-1] - ids[0] < ids.size and ids[0] + rows <= unit.shape[0]:
        return unit[ids[0]:ids[0] + rows]
    copy = np.zeros((rows, unit.shape[1]))
    copy[:ids.size] = unit[ids]
    return copy


def _block_edges(n, block):
    """Row edges of the similarity blocks of an n-row search: block i
    runs from edges[i] to edges[i + 1].  `block` rows per block, by
    default whole 16-row groups sized by bytes."""
    if block is None:
        block = max(16, min(256, 2**21 // n) // 16 * 16)
    elif block < 1:
        raise ValidationError("block must be >= 1")
    return list(range(0, n, block)) + [n]


def _screens(rows, n, k):
    """Whether a search whose blocks hold at most `rows` rows takes the
    float32 screen: only when a block's candidate columns are at most
    half of n."""
    return 2 * rows * (k + _SCREEN_EXTRA) <= n


def _exact_topk(unit, ids, n, k, out):
    """_topk_slabs(k) of the float64 similarities of the nodes `ids`
    (ascending) to every unit row, computed into the leading rows of
    `out`; each node's own column is masked like the pad columns."""
    rows = _operand(unit, ids, unit.shape[0])
    s = np.matmul(rows, unit.T, out=out[:rows.shape[0]])[:ids.size]
    s[np.arange(ids.size), ids] = -np.inf
    s[:, n:] = -np.inf
    return _topk_slabs(s, k)


def _leading(out, shape, dtype=np.float64):
    """A C-contiguous `shape` array of `dtype` on the first bytes of the
    C-contiguous buffer `out`."""
    return out.view(dtype).ravel()[:math.prod(shape)].reshape(shape)


def _rescore_entries(b, n, k):
    """Entries of the largest re-score product of a b-row screened block:
    _padded(b, u) rows by u = _padded(min(n, b (k + m)), b) candidate
    columns.  The union's operand is padded against b, so u > 2,048 / b
    and the row operand is b's own 16-row groups whatever the union."""
    u = _padded(min(n, b * (k + _SCREEN_EXTRA)), b)
    return _padded(b, u) * u


def _screened_topk(unit, unit32, start, stop, n, k, out):
    """_exact_topk of block rows start..stop through the float32 screen
    (see the module docstring).  `out` holds the float32 block, then the
    re-score product, then each chunk of fallback rows in float64."""
    b = stop - start
    cols, d = unit.shape
    s = _leading(out, (b, cols), np.float32)
    np.matmul(unit32[start:stop], unit32.T, out=s)
    s[np.arange(b), np.arange(start, stop)] = -np.inf
    s[:, n:] = -np.inf
    # any k + m largest screened entries will do; ties need no settling
    cand, rough = _topk_slabs(s, k + _SCREEN_EXTRA, settle_ties=False)
    rough = rough.astype(np.float64)
    eps = (d + 3) * 2.0**-23
    # resolved rows: their candidates hold every entry >= the k-th value
    sure = rough[:, -1] < rough[:, k - 1] - 2 * eps
    idx = np.empty((b, k), dtype=np.int64)
    vals = np.empty((b, k))
    rows = np.flatnonzero(sure)
    cand = np.sort(cand[rows], axis=1)
    taken = np.zeros(n, dtype=bool)
    taken[cand] = True
    union = np.flatnonzero(taken)
    picked = _operand(unit, union, b)
    own = _operand(unit, np.arange(start, stop), picked.shape[0])
    # the float32 block is dead: the product takes its place in out
    exact = _leading(out, (own.shape[0], picked.shape[0]))
    np.matmul(own, picked.T, out=exact)
    # column j sits at place cumsum(taken)[j] - 1 of the product
    v = exact[rows[:, None], np.cumsum(taken)[cand] - 1]
    # candidates in ascending column order, then stably by descending value
    order = np.argsort(-v, axis=1, kind="stable")[:, :k]
    idx[rows] = np.take_along_axis(cand, order, axis=1)
    vals[rows] = np.take_along_axis(v, order, axis=1)
    unsure = np.flatnonzero(~sure)
    for r in range(0, unsure.size, out.shape[0]):
        chunk = unsure[r:r + out.shape[0]]
        idx[chunk], vals[chunk] = _exact_topk(unit, start + chunk, n, k, out)
    return idx, vals


def knn_neighbors(features, k_graph, block=None):
    """For each node, the k_graph most cosine-similar other nodes.

    Returns (neighbors, sims), each (n, k_graph), neighbour columns
    sorted by descending similarity then ascending index.  `block` sets
    the rows per similarity block; by default blocks are sized by bytes.
    """
    n = features.n_samples
    if n < 2:
        raise ValidationError("need at least 2 samples for neighbour search")
    if not k_graph < n:
        raise ValidationError("k_graph must be < n_samples")
    edges = _block_edges(n, block)
    high = max(np.diff(edges))
    unit = _normalized_features(features)
    cols = unit.shape[0]
    neighbors = np.empty((n, k_graph), dtype=np.int64)
    sims = np.empty((n, k_graph))
    screen = _screens(high, n, k_graph)
    if screen:
        unit32 = unit.astype(np.float32)
        # one float32 block, or a float64 chunk of half as many rows, or
        # the largest re-score product of any of the (at most two)
        # block heights: a 1-row tail's may outgrow a short block's
        rescore = max(_rescore_entries(b, n, k_graph) for b in set(np.diff(edges)))
        out = np.empty((_padded(max(-(-high // 2), -(-rescore // cols)), cols), cols))
    else:
        out = np.empty((_padded(high, cols), cols))
    for start, stop in zip(edges[:-1], edges[1:]):
        if screen:
            idx, vals = _screened_topk(unit, unit32, start, stop, n, k_graph, out)
        else:
            # a leading row slice of out is C-contiguous: still one GEMM call
            idx, vals = _exact_topk(unit, np.arange(start, stop), n, k_graph, out)
        neighbors[start:stop] = idx
        sims[start:stop] = vals
    return neighbors, sims


def build_adjacency(features, cfg):
    """Directional adjacency as an (n, n) scipy CSR matrix:
    A(s, t) = clamp(cos, 0, 1)^gamma for each target t and source s among
    its k_graph nearest neighbours."""
    n = features.n_samples
    neighbors, sims = knn_neighbors(features, cfg.k_graph)
    weights = np.clip(sims, 0.0, 1.0) ** cfg.gamma
    # entry (s, t): source row s = neighbour of target t
    targets = np.repeat(np.arange(n), cfg.k_graph)
    return scipy.sparse.csr_matrix(
        (weights.ravel(), (neighbors.ravel(), targets)), shape=(n, n)
    )


def normalize_graph(A):
    """Symmetric normalization W = D^-1/2 (A + A^T) D^-1/2 of an (n, n)
    float CSR matrix A, as a new CSR matrix; A is left unchanged.

    Buffers of W's entry count: the row ids take S.indices' dtype, and
    the two gathered scale factors are multiplied into one buffer, the
    row ids freed before the second gather.
    """
    n = A.shape[0]
    S = A + A.T
    rows = np.repeat(np.arange(n, dtype=S.indices.dtype), np.diff(S.indptr))
    degree = np.bincount(rows, weights=S.data, minlength=n)
    inv_sqrt = np.zeros(n)
    alive = degree > 0
    inv_sqrt[alive] = 1.0 / np.sqrt(degree[alive])
    # multiply the two scale factors together first; the product is the
    # same for (s, t) and (t, s), keeping W exactly symmetric
    scale = inv_sqrt[rows]
    del rows
    scale *= inv_sqrt[S.indices]
    S.data *= scale
    return S
