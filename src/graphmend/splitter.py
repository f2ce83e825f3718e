"""Phase 1: package samples by nearest neighbours and deal them to branches.

Each class is carved into packages of k = floor(N_c / (M*B)) samples: a
random seed sample plus its k-1 nearest remaining same-class neighbours
by cosine similarity.  Leftover samples (fewer than k) form one extra
package.  Full packages are dealt to the M branches as evenly as
possible, uniformly at random; the leftover package goes to a random
branch among those currently smallest, which in the exact M*B case means
a uniformly random branch.
"""

import dataclasses

import numpy as np

from . import accel
from .core import ValidationError, cast_fields


@dataclasses.dataclass
class SplitConfig:
    n_branches: int = 5
    packages_per_class_per_branch: int = 4
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_branches < 1:
            raise ValidationError("n_branches must be >= 1")
        if self.packages_per_class_per_branch < 1:
            raise ValidationError("packages_per_class_per_branch must be >= 1")
        if self.rng_seed < 0:
            raise ValidationError("rng_seed must be >= 0")
        cast_fields(self)


class SplitAssignment:
    """A partition of the dataset: branch and package of every sample."""

    def __init__(self, branch_of, package_of, packages, n_branches):
        self.branch_of = np.asarray(branch_of, dtype=np.int64)
        self.package_of = np.asarray(package_of, dtype=np.int64)
        self.packages = packages
        self.n_branches = int(n_branches)
        self.n_samples = self.branch_of.shape[0]

    def members_of(self, branch):
        return np.flatnonzero(self.branch_of == branch)


def _unit_rows(features, members):
    rows = features.data[members].astype(np.float64)
    norms = np.linalg.norm(rows, axis=1)
    # zero-norm rows cannot carry a direction; give them zero similarity
    # to everything instead of poisoning the packaging with NaN
    safe = np.where(norms > 0, norms, 1.0)
    return rows / safe[:, None]


def package_class(features, class_members, M, B, rng):
    """Carve one class into (seed, members) packages.

    Returns a list of (seed_local_position, member_positions) pairs where
    positions index into class_members.  The final pair may be the
    undersized leftover package, whose seed is its lowest-index sample.
    """
    members = np.asarray(class_members, dtype=np.int64)
    n_c = members.shape[0]
    if n_c == 0:
        raise ValidationError("cannot package an empty class")
    k = max(n_c // (M * B), 1)
    if k == 1:
        # singleton packages; neighbour search is vacuous
        return [(i, np.array([i], dtype=np.int64)) for i in range(n_c)]
    unit = _unit_rows(features, members)
    alive = np.ones(n_c, dtype=np.bool_)
    remaining = n_c
    packages = []
    buf = np.empty(k - 1, dtype=np.int64)
    while remaining >= k:
        live = np.flatnonzero(alive)
        seed = int(live[rng.integers(live.shape[0])])
        alive[seed] = False
        simrow = unit @ unit[seed]
        accel.nearest_remaining(simrow, alive, k - 1, buf)
        group = np.empty(k, dtype=np.int64)
        group[0] = seed
        group[1:] = np.sort(buf)
        packages.append((seed, group))
        remaining -= k
    if remaining:
        rest = np.flatnonzero(alive)
        packages.append((int(rest[0]), rest))
    return packages


def split_dataset(features, labels, cfg, rng=None):
    """Partition the dataset into M disjoint branch subsets."""
    labels = np.asarray(labels, dtype=np.int64)
    if features.n_samples != labels.shape[0]:
        raise ValidationError("features and labels disagree on sample count")
    if rng is None:
        rng = np.random.SeedSequence(cfg.rng_seed)
    elif not isinstance(rng, np.random.SeedSequence):
        rng = np.random.SeedSequence(rng)
    M = cfg.n_branches
    B = cfg.packages_per_class_per_branch
    classes = np.unique(labels)
    # one child stream per class plus one for dealing, so packaging the
    # classes in parallel cannot change the result
    children = rng.spawn(classes.shape[0] + 1)
    deal_rng = np.random.default_rng(children[-1])

    n = labels.shape[0]
    branch_of = np.full(n, -1, dtype=np.int64)
    package_of = np.full(n, -1, dtype=np.int64)
    all_packages = []
    for ci, c in enumerate(classes):
        members = np.flatnonzero(labels == c)
        class_rng = np.random.default_rng(children[ci])
        local = package_class(features, members, M, B, class_rng)
        # full packages share the first one's size; an undersized leftover
        # package can only come last
        n_full = len(local) - (local[-1][1].shape[0] < local[0][1].shape[0])

        # never an array of length M when M > n_full (each branch then gets
        # at most one package); the bincount below needs a leftover
        # package, so k >= 2 and n_full >= M * B >= M there
        slots = np.repeat(np.arange(min(M, n_full)), n_full // M)
        extra = n_full - slots.shape[0]
        if extra:
            slots = np.concatenate([slots, deal_rng.choice(M, extra, replace=False)])
        deal_rng.shuffle(slots)
        if n_full < len(local):
            # every full package has the same size, so package counts rank
            # the branches as sample counts do
            counts = np.bincount(slots, minlength=M)
            smallest = np.flatnonzero(counts == counts.min())
            slots = np.append(slots, smallest[deal_rng.integers(smallest.shape[0])])
        for (seed, group), branch in zip(local, slots):
            idx = members[group]
            branch_of[idx] = branch
            package_of[idx] = len(all_packages)
            all_packages.append((int(c), int(members[seed]), idx))
    return SplitAssignment(branch_of, package_of, all_packages, M)


def mix_parameters(theta_pseudo, theta_noisy, alpha_m):
    """Convex combination (1 - a) * theta_pseudo + a * theta_noisy."""
    theta_pseudo = np.asarray(theta_pseudo, dtype=np.float64)
    theta_noisy = np.asarray(theta_noisy, dtype=np.float64)
    if theta_pseudo.shape != theta_noisy.shape:
        raise ValidationError("parameter vectors differ in shape")
    if not 0.0 <= alpha_m <= 1.0:
        raise ValidationError("alpha_m must lie in [0, 1]")
    return (1.0 - alpha_m) * theta_pseudo + alpha_m * theta_noisy
