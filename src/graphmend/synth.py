"""Synthetic datasets with controlled label noise.

Clusters are unit-variance isotropic Gaussians whose centroids sit on
scaled standard-basis axes, so every centroid pair is separated by
class_separation * sqrt(2); when the embedding dimension cannot hold
that simplex the centroids fall back to random directions on the sphere.
Noise comes in three kinds: uniform flips, boundary-concentrated
"confusing" flips toward the nearest other class, and fixed class-to-
class asymmetric flips.
"""

import dataclasses

import numpy as np

from .core import FIELD_MAX, FeatureMatrix, ValidationError, cast_fields, require_finite

NOISE_KINDS = ("uniform", "confusing", "asymmetric", "none")


@dataclasses.dataclass
class SynthConfig:
    n_classes: int = 4
    per_class: int = 500
    dim: int = 16
    class_separation: float = 4.0
    noise_rate: float = 0.3
    noise_kind: str = "confusing"
    rng_seed: int = 0

    def __post_init__(self):
        require_finite(self)
        if self.n_classes < 2:
            raise ValidationError("need at least 2 classes")
        if self.per_class < 1 or self.dim < 1:
            raise ValidationError("per_class and dim must be positive")
        # the feature file's header holds the sample count and dim as u32
        if self.n_classes * self.per_class > FIELD_MAX or self.dim > FIELD_MAX:
            raise ValidationError(
                "n_classes * per_class and dim must be at most %d" % FIELD_MAX
            )
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValidationError("noise_rate must lie in [0, 1)")
        if self.noise_kind not in NOISE_KINDS:
            raise ValidationError("unknown noise kind %r" % self.noise_kind)
        if self.rng_seed < 0:
            raise ValidationError("rng_seed must be >= 0")
        cast_fields(self)


def class_centroids(cfg, rng):
    """Centroid layout used by make_blobs and the confusing-noise margin."""
    C, d = cfg.n_classes, cfg.dim
    centroids = np.zeros((C, d))
    if d >= C:
        centroids[np.arange(C), np.arange(C)] = cfg.class_separation
    else:
        # not enough room for the axis simplex; random unit directions
        raw = rng.standard_normal((C, d))
        centroids = raw / np.linalg.norm(raw, axis=1)[:, None] * cfg.class_separation
    return centroids


def _blobs_with_centroids(cfg, rng):
    n = cfg.n_classes * cfg.per_class
    try:
        centroids = class_centroids(cfg, rng)
        # the (n, dim) draw comes first: an oversized one fails untouched
        points = rng.standard_normal((n, cfg.dim))
        labels = np.repeat(np.arange(cfg.n_classes), cfg.per_class)
        points += centroids[labels]
        return FeatureMatrix(points), labels.astype(np.int64), centroids
    except (MemoryError, ValueError):
        # ValueError: more entries than numpy's maximum array size
        raise ValidationError(
            "%d samples of dimension %d are too many to allocate" % (n, cfg.dim)
        ) from None


def make_blobs(cfg, rng=None):
    """Gaussian class blobs; returns (FeatureMatrix, clean labels)."""
    if rng is None:
        rng = np.random.default_rng(cfg.rng_seed)
    elif not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    features, labels, _ = _blobs_with_centroids(cfg, rng)
    return features, labels


def inject_uniform(labels, rate, n_classes, rng):
    """Flip floor(rate*n) uniformly chosen samples to random other classes."""
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    flips = int(rate * n)
    noisy = labels.copy()
    if flips == 0:
        return noisy
    victims = rng.choice(n, size=flips, replace=False)
    # uniform over the other C-1 classes: draw below C-1 and skip self
    draw = rng.integers(0, n_classes - 1, size=flips)
    noisy[victims] = draw + (draw >= labels[victims])
    return noisy


# entries of one chunk's (rows, C, dim) difference block, 512 KiB of
# float64; a chunk holds at least one row
_DEFICIT_CHUNK = 2**16


def margin_deficit(features, labels, centroids):
    """Distance to own centroid minus distance to the nearest other one.

    High values mark samples sitting at or beyond the class boundary.
    Rows go in chunks, so no (n, C, dim) or (n, C) array is ever live;
    every row sees the same elementwise ops and reductions as in one
    whole-array pass, so the bits do not depend on the chunking.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = features.data.shape[0]
    deficit = np.empty(n)
    other_class = np.empty(n, dtype=np.int64)
    step = max(1, _DEFICIT_CHUNK // centroids.size)
    for lo in range(0, n, step):
        X = features.data[lo:lo + step].astype(np.float64)
        rows, own_class = np.arange(X.shape[0]), labels[lo:lo + step]
        dist = np.sqrt(((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2))
        own = dist[rows, own_class]
        dist[rows, own_class] = np.inf
        other_class[lo:lo + step] = dist.argmin(axis=1)
        deficit[lo:lo + step] = own - dist.min(axis=1)
    return deficit, other_class


def inject_confusing(features, labels, rate, centroids):
    """Flip the floor(rate*n) most boundary-crowded samples.

    Victims are the samples scoring highest on margin deficit; each is
    flipped to the class of its nearest other centroid, reproducing
    noise that clusters along decision borders.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    flips = int(rate * n)
    noisy = labels.copy()
    if flips == 0:
        return noisy
    score, nearest_other = margin_deficit(features, labels, centroids)
    # stable sort keeps ties in index order, making the pick deterministic
    victims = np.argsort(-score, kind="stable")[:flips]
    noisy[victims] = nearest_other[victims]
    return noisy


def inject_asymmetric(labels, rate, mapping, rng, n_classes):
    """Flip a fixed fraction of each mapped class along class->class arrows."""
    labels = np.asarray(labels, dtype=np.int64)
    for src, dst in mapping.items():
        if src == dst:
            raise ValidationError("mapping may not fix class %d" % src)
        if not (0 <= src < n_classes and 0 <= dst < n_classes):
            raise ValidationError(
                "mapping pair %d:%d names a class outside [0, %d)" % (src, dst, n_classes)
            )
    noisy = labels.copy()
    for src in sorted(mapping):
        members = np.flatnonzero(labels == src)
        flips = int(rate * members.shape[0])
        if flips == 0:
            continue
        victims = rng.choice(members, size=flips, replace=False)
        noisy[victims] = mapping[src]
    return noisy


def make_noisy_dataset(cfg, rng=None, mapping=None):
    """Blobs plus injected noise; returns (features, noisy, clean).

    A mapping is accepted only with asymmetric noise.
    """
    if mapping is not None and cfg.noise_kind != "asymmetric":
        raise ValidationError(
            "a mapping applies only to asymmetric noise, not %r" % cfg.noise_kind
        )
    if rng is None:
        rng = np.random.default_rng(cfg.rng_seed)
    elif not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    features, clean, centroids = _blobs_with_centroids(cfg, rng)
    # a zero rate goes on to the injectors, which then flip and draw
    # nothing, so a mapping is checked at every rate
    if cfg.noise_kind == "none":
        return features, clean.copy(), clean
    if cfg.noise_kind == "uniform":
        noisy = inject_uniform(clean, cfg.noise_rate, cfg.n_classes, rng)
    elif cfg.noise_kind == "confusing":
        noisy = inject_confusing(features, clean, cfg.noise_rate, centroids)
    else:
        if mapping is None:
            # default derangement: each class maps to the next one
            mapping = {c: (c + 1) % cfg.n_classes for c in range(cfg.n_classes)}
        noisy = inject_asymmetric(clean, cfg.noise_rate, mapping, rng, cfg.n_classes)
    return features, noisy, clean
